"""Majorization predicates and the componentwise maps they interact with.

``x`` is majorized by ``y`` when every prefix sum of the descending sort of
``x`` is dominated by the corresponding prefix sum of ``y`` and the totals
agree; dropping the total-sum condition gives weak submajorization. The
componentwise positive part and p-th power preserve weak submajorization,
which is the mechanism behind the monotone family in :mod:`.monotones`.

The predicates are scale-free: prefix sums may differ by
``MAJ_TOL * (|x|_1 + |y|_1)`` with the fixed ``MAJ_TOL = 1e-12`` of
:mod:`entmono.linalg`, so scaling both vectors by any ``c > 0`` leaves every
answer unchanged.
"""

from __future__ import annotations

import numpy as np

from .linalg import MAJ_TOL, _check_order, _finite_array


def _as_vector(x, name: str) -> np.ndarray:
    return _finite_array(x, name, np.float64).reshape(-1)


def _prefix_sums(y, x) -> tuple[np.ndarray, np.ndarray, float]:
    """Descending prefix sums of ``y`` and ``x`` and the slack allowed between them."""
    y = _as_vector(y, "y")
    x = _as_vector(x, "x")
    if y.size != x.size:
        raise ValueError(f"length mismatch: y has {y.size} entries, x has {x.size}")
    tol = MAJ_TOL * (np.abs(x).sum() + np.abs(y).sum())
    return np.cumsum(np.sort(y)[::-1]), np.cumsum(np.sort(x)[::-1]), tol


def majorizes(y, x) -> bool:
    """True when ``x`` is majorized by ``y`` (prefix dominance, equal totals)."""
    cy, cx, tol = _prefix_sums(y, x)
    totals_agree = np.all(np.abs(cx[-1:] - cy[-1:]) <= tol)  # true for empty vectors
    return bool(np.all(cx[:-1] <= cy[:-1] + tol) and totals_agree)


def weakly_submajorizes(y, x) -> bool:
    """True when every prefix sum of sorted ``x`` is below that of ``y``."""
    cy, cx, tol = _prefix_sums(y, x)
    return bool(np.all(cx <= cy + tol))


def positive_part(x) -> np.ndarray:
    """Componentwise ``max(x_i, 0)``, order preserved."""
    return np.maximum(_as_vector(x, "x"), 0.0)


def pth_power(x, p: float) -> np.ndarray:
    """Componentwise ``x_i ** p`` for non-negative input and finite ``p >= 1``."""
    x = _as_vector(x, "x")
    p = _check_order(p)
    if np.any(x < 0):
        raise ValueError("pth_power requires non-negative entries")
    return x**p


def is_doubly_stochastic(a) -> bool:
    """True for a square matrix with entries of at least ``-MAJ_TOL`` whose rows
    and columns each sum to one within ``MAJ_TOL`` times their 1-norm plus 1."""
    a = _finite_array(a, "matrix", np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if np.any(a < -MAJ_TOL):
        return False
    return all(
        np.all(np.abs(a.sum(axis=k) - 1.0) <= MAJ_TOL * (np.abs(a).sum(axis=k) + 1.0))
        for k in (0, 1)
    )
