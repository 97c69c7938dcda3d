"""JSON state documents shared by the library and the command line.

Schema::

    {"dims": [2, 2], "type": "pure",  "amplitudes": [[re, im], ...]}
    {"dims": [2, 2], "type": "mixed", "matrix": [[[re, im], ...], ...]}

with optional ``"name"`` and ``"note"`` string fields.  Amplitudes are flat
and row-major; matrix rows are lists of ``[re, im]`` pairs.  Floats are
emitted with ``repr`` precision, so a round trip is lossless at double
precision.

Documents are read as strict RFC 8259 JSON: a ``NaN`` or ``Infinity``
literal, or a lone surrogate escape in a string, is a ``ValueError``.
``load_state`` parses with ``orjson``, a few times faster than ``json`` on
dense matrices; writing stays on ``json``, whose ``indent=1`` layout is the
documented output.
"""

from __future__ import annotations

import json
from typing import IO

import numpy as np
import orjson

from .states import DensityMatrix, PureState, State


def _pairs(values: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in values]


def to_document(state: State, name: str | None = None, note: str | None = None) -> dict:
    """Serializable dict for a pure or mixed state."""
    doc: dict = {"dims": list(state.dims)}
    if isinstance(state, PureState):
        doc["type"] = "pure"
        doc["amplitudes"] = _pairs(state.amplitudes)
    elif isinstance(state, DensityMatrix):
        doc["type"] = "mixed"
        doc["matrix"] = [_pairs(row) for row in state.matrix]
    else:
        raise TypeError(f"expected PureState or DensityMatrix, got {type(state)!r}")
    if name is not None:
        doc["name"] = str(name)
    if note is not None:
        doc["note"] = str(note)
    return doc


def _complex_array(values, ndim: int, field: str) -> np.ndarray:
    """``values``, an ``ndim``-dimensional array of ``[re, im]`` number pairs,
    as a complex array.  The pairs are viewed as complex, not summed, so every
    bit is kept."""
    pairs = np.array(values)
    if pairs.dtype.kind not in "biuf" or pairs.ndim != ndim + 1 or pairs.shape[-1] != 2:
        raise ValueError(
            f"{field} must be a {ndim}-dimensional array of [re, im] number pairs, "
            f"got {pairs.dtype} entries of shape {pairs.shape}"
        )
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


def dump_state(state: State, fp: IO[str], name: str | None = None) -> None:
    json.dump(to_document(state, name=name), fp, indent=1)
    fp.write("\n")


def load_state(fp: IO[str]) -> State:
    return from_document(orjson.loads(fp.read()))
