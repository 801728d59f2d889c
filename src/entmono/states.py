"""Isotropic states and their closed-form entanglement bounds.

An isotropic state on a ``d x d`` system is the convex mixture

    rho_F = (1 - lam) / d^2 * I  +  lam * |Phi><Phi|,

where ``|Phi>`` is the maximally entangled state and the mixing weight
``lam = (d^2 F - 1) / (d^2 - 1)`` is fixed by the fidelity
``F = <Phi| rho_F |Phi>`` in ``[0, 1]``. The partial transpose has just two
distinct eigenvalues, so the monotone bounds have closed forms that can be
evaluated at any ``d`` without building the ``d^2 x d^2`` matrix.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import numpy as np

from .linalg import (MAX_COUNT, DensityMatrix, PureState, _as_float, _is_integer,
                     max_entangled_vector)


def _check_d(d: int, allocates: bool = False) -> int:
    """``d`` as an int: an integer ``>= 2`` whose ``d (d + 1)``, the largest
    product the closed forms turn into a float, is a finite float. With
    ``allocates``, for the functions that build ``d * d``-long arrays, the
    dimension ``d * d`` must also be at most ``MAX_COUNT``, refused by name
    before anything is allocated."""
    if not _is_integer(d) or d < 2:
        raise ValueError(f"isotropic dimension d must be an integer >= 2, got {d!r}")
    if allocates and int(d) * int(d) > MAX_COUNT:
        raise ValueError(f"isotropic dimension d must be at most {math.isqrt(MAX_COUNT)} "
                         f"to build a state, so d * d <= {MAX_COUNT}; got {d!r}")
    if int(d) * (int(d) + 1) > sys.float_info.max:
        raise ValueError("isotropic dimension d must be <= 1.34e154, so d (d + 1) is a float")
    return int(d)


def _check_fidelity(fidelity: float) -> float:
    f = _as_float(fidelity, "fidelity")
    if not 0.0 <= f <= 1.0:  # false for nan
        raise ValueError(f"fidelity must lie in [0, 1], got {fidelity!r}")
    return f


def mixing_parameter(d: int, fidelity: float) -> float:
    """Weight ``lam`` of the entangled component; ranges over
    ``[-1/(d^2-1), 1]`` as the fidelity runs over ``[0, 1]``."""
    d = _check_d(d)
    f = _check_fidelity(fidelity)
    return (d * d * f - 1.0) / (d * d - 1.0)


def max_entangled(d: int) -> PureState:
    """The maximally entangled state ``sum_i |ii> / sqrt(d)`` on ``d x d``.
    ``d * d`` must be at most :data:`~entmono.linalg.MAX_COUNT`."""
    d = _check_d(d, allocates=True)
    return PureState(max_entangled_vector(d), (d, d))


def isotropic_state(d: int, fidelity: float) -> DensityMatrix:
    """Isotropic state of the given fidelity as an explicit matrix.

    Its eigenvalues ``(1 - lam) / d^2`` and ``(1 + (d^2 - 1) lam) / d^2`` are
    non-negative over the whole range of ``lam``, and ``d`` and the fidelity
    are checked by :func:`mixing_parameter`, so the matrix is a state by
    construction and the checks of :class:`DensityMatrix` are skipped.
    ``d * d`` must be at most :data:`~entmono.linalg.MAX_COUNT`.
    """
    d = _check_d(d, allocates=True)
    lam = mixing_parameter(d, fidelity)
    vec = max_entangled_vector(d)
    mat = (1.0 - lam) / (d * d) * np.eye(d * d, dtype=np.complex128)
    mat += lam * np.outer(vec, vec.conj())
    return DensityMatrix._from_psd(mat, (d, d))


def isotropic_pt_spectrum(d: int, fidelity: float) -> list[tuple[float, int]]:
    """Partial-transpose spectrum as ``[(eigenvalue, multiplicity), ...]``.

    Exactly two distinct values occur: ``(1-lam)/d^2 + lam/d`` with
    multiplicity ``d(d+1)/2`` and ``(1-lam)/d^2 - lam/d`` with multiplicity
    ``d(d-1)/2``. They equal ``(1 + d F)/(d(d+1))`` and
    ``(1 - d F)/(d(d-1))``, the forms evaluated here with ``1 - d F`` formed
    exactly, so the second keeps full relative precision near ``F = 1/d``,
    where it changes sign.
    """
    d = _check_d(d)
    f = _check_fidelity(fidelity)
    return [
        ((1.0 + d * f) / (d * (d + 1)), d * (d + 1) // 2),
        (float(1 - Fraction(f) * d) / (d * (d - 1)), d * (d - 1) // 2),
    ]


def isotropic_concurrence_bound(d: int, fidelity: float) -> float:
    """Closed form of the concurrence lower bound on isotropic states.

    Zero for ``F <= 1/d`` (the separability threshold), otherwise
    ``(d F - 1) sqrt(2 / (d (d - 1)))``, which is continuous at the threshold
    and coincides with the exact I-concurrence of isotropic states. ``d F - 1``
    is formed exactly, so the result keeps full relative precision just above
    the threshold. A fidelity whose rounded product ``d F`` is 1, such as the
    float nearest ``1/d``, counts as at the threshold.
    """
    d = _check_d(d)
    f = _check_fidelity(fidelity)
    if d * f <= 1.0:
        return 0.0
    return float(Fraction(f) * d - 1) * math.sqrt(2.0 / (d * (d - 1)))


def isotropic_tangle_bound(d: int, fidelity: float) -> float:
    """Closed form of the tangle lower bound: the concurrence bound squared.

    For large ``d`` at fixed fidelity this approaches ``2 F^2``.
    """
    return isotropic_concurrence_bound(d, fidelity) ** 2
