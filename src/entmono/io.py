"""Reading and writing states as JSON files.

The on-disk format is a UTF-8 JSON object::

    {"d_a": 2, "d_b": 2, "kind": "density" | "pure",
     "re": [[...], ...], "im": [[...], ...]}

``re`` and ``im`` hold the real and imaginary parts of the row-major matrix;
a ``"pure"`` state uses a single row. Every entry must be a JSON number (a
Python ``int`` or ``float`` in a parsed dictionary); ``true``, ``false`` and
strings are rejected, as are non-rectangular arrays and shapes that do not
match ``d_a * d_b``.
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np

from .linalg import DensityMatrix, PureState, _is_integer


class StateFormatError(ValueError):
    """Raised for malformed state files or dictionaries."""


def _rect_array(obj, key: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise StateFormatError(f'"{key}" must be a non-empty list of rows')
    width = len(obj[0])
    if width == 0 or any(len(r) != width for r in obj):
        raise StateFormatError(f'"{key}" is not rectangular')
    # JSON numbers only: numpy would read true, false and numeric strings as
    # numbers, and bool is an int subclass, so the test is on the exact type
    if not set(map(type, chain.from_iterable(obj))) <= {int, float}:
        raise StateFormatError(f'"{key}" contains non-numeric entries')
    try:
        return np.array(obj, dtype=np.float64)
    except OverflowError as exc:
        raise StateFormatError(f'"{key}" contains an integer beyond the float range') from exc


def state_from_dict(obj) -> DensityMatrix | PureState:
    """Build a :class:`DensityMatrix` or :class:`PureState` from a parsed file."""
    if not isinstance(obj, dict):
        raise StateFormatError("state file must contain a JSON object")
    missing = [k for k in ("d_a", "d_b", "kind", "re", "im") if k not in obj]
    if missing:
        raise StateFormatError(f"missing keys: {', '.join(missing)}")
    d_a, d_b = obj["d_a"], obj["d_b"]
    if any(not _is_integer(d) or d < 1 for d in (d_a, d_b)):
        raise StateFormatError('"d_a" and "d_b" must be positive integers')
    kind = obj["kind"]
    if kind not in ("density", "pure"):
        raise StateFormatError(f'"kind" must be "density" or "pure", got {kind!r}')
    re = _rect_array(obj["re"], "re")
    im = _rect_array(obj["im"], "im")
    if re.shape != im.shape:
        raise StateFormatError(f'"re" shape {re.shape} differs from "im" shape {im.shape}')
    dim = d_a * d_b
    data = re + 1j * im
    if kind == "pure":
        if data.shape != (1, dim):
            raise StateFormatError(
                f"pure state must be a single row of length {dim}, got shape {data.shape}"
            )
        return PureState(data[0], (d_a, d_b))
    if data.shape != (dim, dim):
        raise StateFormatError(
            f"density matrix must be {dim}x{dim} for dims {d_a}x{d_b}, got shape {data.shape}"
        )
    return DensityMatrix(data, (d_a, d_b))


def state_to_dict(state: DensityMatrix | PureState) -> dict:
    """Inverse of :func:`state_from_dict`."""
    if isinstance(state, DensityMatrix):
        arr, kind = state.mat, "density"
    elif isinstance(state, PureState):
        arr, kind = state.vec.reshape(1, -1), "pure"
    else:
        raise TypeError(f"expected DensityMatrix or PureState, got {type(state).__name__}")
    return {
        "d_a": state.dims[0],
        "d_b": state.dims[1],
        "kind": kind,
        "re": arr.real.tolist(),
        "im": arr.imag.tolist(),
    }


def load_state(path) -> DensityMatrix | PureState:
    """Load a state file, reporting the path and parse position on failure."""
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise StateFormatError(
                f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
    try:
        return state_from_dict(obj)
    except ValueError as exc:
        raise StateFormatError(f"{path}: {exc}") from exc


def save_state(path, state: DensityMatrix | PureState) -> None:
    """Write a state to ``path`` in the JSON format above."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(state_to_dict(state), fh)
        fh.write("\n")
