"""JSON state documents shared by the library and the command line.

Schema::

    {"dims": [2, 2], "type": "pure",  "amplitudes": [[re, im], ...]}
    {"dims": [2, 2], "type": "mixed", "matrix": [[[re, im], ...], ...]}

with optional ``"name"`` and ``"note"`` string fields.  Amplitudes are flat
and row-major; matrix rows are lists of ``[re, im]`` pairs.

Documents are read and written with ``orjson``.  Reading is strict RFC 8259
JSON: a ``NaN`` or ``Infinity`` literal, a lone surrogate escape in a string,
or bytes that are not UTF-8 (named by the offset of the first bad byte), is a
``ValueError``, and so is a ragged or over-deep number array; any whitespace
layout is accepted.  :func:`load_state` takes a text or a binary file (the command line
passes document files as bytes), and builds and frees the parsed tree with
the cyclic collector paused, restoring the caller's collector state.  Writing
emits the compact layout (no whitespace) straight from a float view of the
state's array, and each float in the shortest form that parses back to the
same double (``0.00001`` for ``1e-05``), so a round trip is bit-exact.
States refuse non-finite entries, so no ``null`` is ever written.
"""

from __future__ import annotations

import gc
from typing import IO

import numpy as np
import orjson

from .states import DensityMatrix, PureState, State


def _pairs(values: np.ndarray) -> np.ndarray:
    """The complex ``values`` as a float array of ``[re, im]`` pairs, a view
    when they are already contiguous complex128."""
    return np.ascontiguousarray(values, complex).view(float).reshape(*values.shape, 2)


def _document(state: State, name: str | None, note: str | None, pairs) -> dict:
    """The document of ``state`` with ``pairs(values)`` as its number field."""
    doc: dict = {"dims": list(state.dims)}
    if isinstance(state, PureState):
        doc["type"] = "pure"
        doc["amplitudes"] = pairs(state.amplitudes)
    elif isinstance(state, DensityMatrix):
        doc["type"] = "mixed"
        doc["matrix"] = pairs(state.matrix)
    else:
        raise TypeError(f"expected PureState or DensityMatrix, got {type(state)!r}")
    if name is not None:
        doc["name"] = str(name)
    if note is not None:
        doc["note"] = str(note)
    return doc


def to_document(state: State, name: str | None = None, note: str | None = None) -> dict:
    """Serializable dict for a pure or mixed state, of plain lists and floats."""
    return _document(state, name, note, lambda values: _pairs(values).tolist())


def _complex_array(values, ndim: int, field: str) -> np.ndarray:
    """``values``, an ``ndim``-dimensional array of ``[re, im]`` number pairs,
    as a complex array.  The pairs are viewed as complex, not summed, so every
    bit is kept."""
    expected = f"{field} must be a {ndim}-dimensional array of [re, im] number pairs"
    try:
        pairs = np.array(values)
    except ValueError:  # ragged rows, or nesting past numpy's 64 dimensions
        raise ValueError(f"{expected}, got ragged or over-deep nesting") from None
    if pairs.dtype.kind not in "biuf" or pairs.ndim != ndim + 1 or pairs.shape[-1] != 2:
        raise ValueError(f"{expected}, got {pairs.dtype} entries of shape {pairs.shape}")
    return np.ascontiguousarray(pairs, dtype=float).view(complex)[..., 0]


def from_document(doc: dict) -> State:
    """Rebuild a state, revalidating all type invariants."""
    if not isinstance(doc, dict):
        raise ValueError("state document must be a JSON object")
    try:
        dims = tuple(doc["dims"])
        kind = doc["type"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"missing or malformed document field: {exc}") from exc
    if kind == "pure":
        if "amplitudes" not in doc:
            raise ValueError("pure document lacks 'amplitudes'")
        return PureState(_complex_array(doc["amplitudes"], 1, "amplitudes"), dims)
    if kind == "mixed":
        if "matrix" not in doc:
            raise ValueError("mixed document lacks 'matrix'")
        return DensityMatrix(_complex_array(doc["matrix"], 2, "matrix"), dims)
    raise ValueError(f"unknown state type {kind!r}")


def _dumps(state: State, name: str | None = None) -> str:
    """The document of ``state`` as compact JSON text with a final newline,
    serialized from the array with no list tree built; the same text as
    ``orjson.dumps(to_document(state, name))`` plus ``"\\n"``."""
    doc = _document(state, name, None, _pairs)
    option = orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_APPEND_NEWLINE
    return orjson.dumps(doc, option=option).decode()


def dump_state(state: State, fp: IO[str], name: str | None = None) -> None:
    """Write the document of ``state`` to the text file ``fp`` (see :func:`_dumps`)."""
    fp.write(_dumps(state, name))


def load_state(fp: IO[str] | IO[bytes]) -> State:
    """Read the document in the text or binary file ``fp`` as a state.

    The parse, the conversion and the release of the parsed tree all run with
    the cyclic collector paused: the tree holds no cycles, yet its hundreds of
    thousands of pair lists would trigger collections that walk all of it.
    The caller's collector state is restored on return and on error.
    Bytes that are not UTF-8 are refused with the offset of the first bad
    byte; the bytes are decoded for that only after the parse has failed."""
    data = fp.read()
    enabled = gc.isenabled()
    gc.disable()
    try:
        return from_document(orjson.loads(data))
    except orjson.JSONDecodeError:
        if isinstance(data, bytes):
            try:
                data.decode()
            except UnicodeDecodeError as exc:
                raise ValueError(f"document is not valid UTF-8 at byte {exc.start}") from None
        raise
    finally:
        if enabled:
            gc.enable()
