"""JSON state documents shared by the library and the command line.

Schema::

    {"dims": [2, 2], "type": "pure",  "amplitudes": [[re, im], ...]}
    {"dims": [2, 2], "type": "mixed", "matrix": [[[re, im], ...], ...]}

with optional ``"name"`` and ``"note"`` string fields.  Amplitudes are flat
and row-major; matrix rows are lists of ``[re, im]`` pairs.

Documents are read and written with ``orjson``.  Reading is strict RFC 8259
JSON: a ``NaN`` or ``Infinity`` literal, a lone surrogate escape in a string,
or bytes that are not UTF-8 (named by the offset of the first bad byte), is a
``ValueError``; any whitespace layout is accepted.  The parsed tree of lists
becomes an array in one pass with no shape discovery: each nesting level's
lengths are checked, then every ``[re, im]`` pair is appended to a float
``array("d")`` buffer that is viewed as complex.  A ragged row, a wrong
shape, a row or pair that is not a list (a tuple or an array from a Python
caller included), a leaf that is not a number (a string, ``null``, an
object or a list) and an integer too large for a float are each a
``ValueError`` naming the field; ``true`` and ``false`` read as 1 and 0.
:func:`load_state` takes a text or a binary file (the command line
passes document files as bytes), and builds and frees the parsed tree with
the cyclic collector paused, restoring the caller's collector state.  Writing
emits the compact layout (no whitespace) straight from a float view of the
state's array, and each float in the shortest form that parses back to the
same double (``0.00001`` for ``1e-05``), so a round trip is bit-exact.
States refuse non-finite entries, so no ``null`` is ever written.
"""

from __future__ import annotations

import gc
from array import array
from collections import deque
from itertools import chain
from typing import IO

import numpy as np
import orjson

from .states import DensityMatrix, PureState, State, as_density


def _pairs(values: np.ndarray) -> np.ndarray:
    """The complex ``values`` as a float array of ``[re, im]`` pairs, a view
    when they are already contiguous complex128."""
    return np.ascontiguousarray(values, complex).view(float).reshape(*values.shape, 2)


def _document(state: State, name: str | None, note: str | None, pairs) -> dict:
    """The document of ``state`` with ``pairs(values)`` as its number field;
    anything but a state is refused by :func:`as_density`."""
    if isinstance(state, PureState):
        doc: dict = {"dims": list(state.dims), "type": "pure",
                     "amplitudes": pairs(state.amplitudes)}
    else:
        state = as_density(state)
        doc = {"dims": list(state.dims), "type": "mixed", "matrix": pairs(state.matrix)}
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
    as a complex array, in one strict pass over the tree of lists.

    Every row and every pair must be a list, as a JSON parser builds them,
    and each of the ``ndim + 1`` nesting levels must hold entries of one
    common length, the last of length 2.  Each pair is appended to a float
    buffer with ``array.fromlist``; that takes ints, floats and booleans
    (``true`` reads as 1) and refuses anything else, so no string is parsed
    and no ``None`` read as NaN.  The buffer is then viewed as complex, so
    every bit of each number is kept.  A ragged row, or nesting deeper than
    the field's, is refused as such; any other shape, a row or pair that is
    not a list, and a leaf that is not a number (or an integer too large for
    a float) share a second message.  Both name the field."""
    expected = f"{field} must be a {ndim}-dimensional array of [re, im] number pairs"
    level, shape = [values], []
    for depth in range(ndim + 1):
        if depth:
            level = list(chain.from_iterable(level))
        if depth < ndim and set(map(type, level)) != {list}:
            break  # a row that is not a list
        try:
            widths = set(map(len, level))
        except TypeError:  # a number or None as a pair
            break
        if len(widths) > 1:
            raise ValueError(f"{expected}, got ragged or over-deep nesting")
        shape += widths
    if len(shape) == ndim + 1 and shape[-1] == 2:
        flat = array("d")
        try:
            deque(map(flat.fromlist, level), maxlen=0)  # each pair's two numbers, in order
        except (TypeError, OverflowError):  # a pair that is not a list of numbers
            pass
        else:
            return np.frombuffer(flat, complex).reshape(shape[:-1])
    first = values
    for _ in range(ndim + 1):
        first = first[0] if type(first) is list and first else None
    if type(first) is list:  # a list where the first number belongs
        raise ValueError(f"{expected}, got ragged or over-deep nesting")
    raise ValueError(f"{expected}, got another shape, or an entry that is not a list or a number")


def from_document(doc: dict) -> State:
    """Rebuild a state, revalidating all type invariants.

    The number field's rows and ``[re, im]`` pairs must be lists, as a JSON
    parser builds them: tuples or arrays in their place are refused."""
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
