"""Majorization predicates and the componentwise maps they interact with.

``x`` is majorized by ``y`` when every prefix sum of the descending sort of
``x`` is dominated by the corresponding prefix sum of ``y`` and the totals
agree; dropping the total-sum condition gives weak submajorization. The
componentwise positive part and p-th power preserve weak submajorization,
which is the mechanism behind the monotone family in :mod:`.monotones`.
"""

from __future__ import annotations

import numpy as np

MAJ_TOL = 1e-9


def _as_vector(x, name: str) -> np.ndarray:
    out = np.asarray(x, dtype=np.float64).reshape(-1)
    if not np.all(np.isfinite(out)):
        raise ValueError(f"{name} contains non-finite entries")
    return out


def _pair(y, x) -> tuple[np.ndarray, np.ndarray]:
    y = _as_vector(y, "y")
    x = _as_vector(x, "x")
    if y.size != x.size:
        raise ValueError(f"length mismatch: y has {y.size} entries, x has {x.size}")
    return y, x


def majorizes(y, x, tol: float = MAJ_TOL) -> bool:
    """True when ``x`` is majorized by ``y`` (prefix dominance, equal totals)."""
    y, x = _pair(y, x)
    cy = np.cumsum(np.sort(y)[::-1])
    cx = np.cumsum(np.sort(x)[::-1])
    totals_agree = np.all(np.abs(cx[-1:] - cy[-1:]) <= tol)  # true for empty vectors
    return bool(np.all(cx[:-1] <= cy[:-1] + tol) and totals_agree)


def weakly_submajorizes(y, x, tol: float = MAJ_TOL) -> bool:
    """True when every prefix sum of sorted ``x`` is below that of ``y``."""
    y, x = _pair(y, x)
    cy = np.cumsum(np.sort(y)[::-1])
    cx = np.cumsum(np.sort(x)[::-1])
    return bool(np.all(cx <= cy + tol))


def positive_part(x) -> np.ndarray:
    """Componentwise ``max(x_i, 0)``, order preserved."""
    return np.maximum(_as_vector(x, "x"), 0.0)


def pth_power(x, p: float) -> np.ndarray:
    """Componentwise ``x_i ** p`` for non-negative input and finite ``p >= 1``."""
    x = _as_vector(x, "x")
    p = float(p)
    if not np.isfinite(p) or p < 1:
        raise ValueError(f"p must be a finite real number >= 1, got {p}")
    if np.any(x < 0):
        raise ValueError("pth_power requires non-negative entries")
    return x**p


def is_doubly_stochastic(a, tol: float = MAJ_TOL) -> bool:
    """True for a square matrix with non-negative entries whose rows and
    columns all sum to one (within ``tol``)."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    if np.any(a < -tol):
        return False
    ones = np.ones(a.shape[0])
    return bool(
        np.all(np.abs(a.sum(axis=0) - ones) <= tol)
        and np.all(np.abs(a.sum(axis=1) - ones) <= tol)
    )
