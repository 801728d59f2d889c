"""Entanglement monotones built from negative eigenvalues.

The central quantity is the p-norm of the negative part of a Hermitian
spectrum,

    neg_pnorm(A, p) = ( sum_{lambda < 0} |lambda|^p )^(1/p),    p >= 1,

which satisfies the triangle inequality and is convex on Hermitian matrices.
Applied to the partial transpose of a density matrix, ``p = 1`` is the
negativity, which does not increase under local channels (Vidal and Werner,
PRA 65, 032314 (2002); for monotones in general, Vidal, J. Mod. Opt. 47, 355
(2000)). For ``p > 1`` a local channel can raise the value: on
2 x 4, a channel on the second party maps ``(|Phi01><Phi01| + |Phi23><Phi23|) / 2``
to ``|Phi01><Phi01|`` and raises it from ``2^(1/p) / 4`` to ``1/2``. Twice the
``p = 2`` value is still a lower bound on the I-concurrence (its square bounds
the I-tangle), agreeing with the pure-state concurrence exactly on pure
inputs. Every monotone
evaluates a spectrum with :func:`_spectrum_report`; the state monotones read
theirs from :func:`~entmono.linalg.pt_spectrum`.

The pure-state concurrence and tangle have one core too: the Schmidt
coefficients of :func:`~entmono.linalg.schmidt_coefficients`, the singular
values of the amplitude matrix, summed by :func:`_schmidt_tangle`. The
convex-roof scores of :func:`~entmono.convex_roof.average_objective` use the
same two steps on every member at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    ZERO_EIG_TOL,
    DensityMatrix,
    PureState,
    _check_order,
    hermitian_eigenvalues,
    pt_spectrum,
    schmidt_coefficients,
)


def negative_eigenvalues(a) -> np.ndarray:
    """Strictly negative eigenvalues of a Hermitian matrix, descending.

    Eigenvalues within :func:`~entmono.linalg.zero_cutoff` of zero,
    ``|lambda| <= ZERO_EIG_TOL * |lambda|_max``, count as zero so that
    eigensolver noise cannot masquerade as entanglement. The cutoff is
    relative at every scale, so the result is homogeneous: scaling ``a`` by
    ``c > 0`` scales the returned values by ``c``.
    """
    return monotone_report(a, 1.0).negative_eigenvalues


def neg_pnorm(a, p: float = 2.0) -> float:
    """p-norm of the negative eigenvalues of a Hermitian matrix.

    Returns 0 for positive semidefinite input. Accepts any real ``p >= 1``.
    Which orders give an entanglement monotone on the partial transpose is
    stated in the module docstring: ``p = 1`` does, and a local channel can
    raise every ``p > 1``.
    """
    return monotone_report(a, p).pnorm


@dataclass(frozen=True)
class MonotoneReport:
    """Evaluation record for one matrix and one order ``p``."""

    p: float
    pnorm: float
    power_sum: float
    negative_eigenvalues: np.ndarray
    neg_count: int


def monotone_report(a, p: float = 2.0) -> MonotoneReport:
    """Negative-spectrum norms of a Hermitian matrix ``a`` for one order ``p``.

    A raw matrix is checked and solved on every call. The shared array
    :func:`~entmono.linalg.partial_transpose` keeps on a state is answered
    from that state's one :func:`~entmono.linalg.pt_spectrum`, so a sweep
    over ``p`` on it, before or after the state monotones, is one eigensolve."""
    return _spectrum_report(hermitian_eigenvalues(a), _check_order(p))


def _spectrum_report(w: np.ndarray, p: float) -> MonotoneReport:
    """Negative-spectrum norms of a descending spectrum ``w`` for a valid order
    ``p``: the state monotones fix it, :func:`monotone_report` and
    ``entmono monotone --p`` check it.

    Applies the zero cutoff of :func:`negative_eigenvalues`; the spectral
    radius is read from the ends of ``w``. ``pnorm`` is ``m * ||x / m||_p``
    with ``m`` the largest negative magnitude: it neither underflows at large
    ``p`` nor overflows at large magnitudes, though ``power_sum = pnorm ** p``
    can still leave the float range, and is then ``inf``.
    """
    neg = w[w < -ZERO_EIG_TOL * max(abs(w[0]), abs(w[-1]))] if w.size else w
    pnorm = psum = 0.0
    if neg.size:
        m = float(-neg[-1])
        scaled = float(np.sum((-neg / m) ** p))
        pnorm = m * scaled ** (1.0 / p)
        try:
            psum = m**p * scaled  # float ** float: libm pow, as math.pow
        except OverflowError:
            psum = np.inf
    return MonotoneReport(p=p, pnorm=pnorm, power_sum=psum, negative_eigenvalues=neg,
                          neg_count=neg.size)


def negativity(rho: DensityMatrix) -> float:
    """Absolute sum of the negative partial-transpose eigenvalues."""
    return _spectrum_report(pt_spectrum(rho), 1.0).pnorm


def concurrence_lower_bound(rho: DensityMatrix) -> float:
    """Lower bound on the I-concurrence: twice the 2-norm of the negative
    partial-transpose eigenvalues.

    Equals :func:`pure_concurrence` exactly when ``rho`` is pure, and is a
    convex function of ``rho``, which is what makes it a bound for the
    convex-roof extension on mixed states.
    """
    return 2.0 * _spectrum_report(pt_spectrum(rho), 2.0).pnorm


def tangle_lower_bound(rho: DensityMatrix) -> float:
    """Lower bound on the I-tangle: square of :func:`concurrence_lower_bound`."""
    return concurrence_lower_bound(rho) ** 2


def _schmidt_tangle(s: np.ndarray) -> np.ndarray:
    """``t = 4 sum_{i<j} s_i^2 s_j^2`` of Schmidt coefficients ``s`` along the
    last axis, the squared pure-state concurrence.

    Summed as products of non-negative terms, ``s_j^2`` times the prefix sum
    of ``s_i^2`` before it, with no subtraction, so a near-product state
    keeps its relative accuracy where ``(sum s^2)^2 - sum s^4`` cancels.
    """
    s2 = s * s
    return 4.0 * (s2[..., 1:] * s2.cumsum(-1)[..., :-1]).sum(-1)


def pure_concurrence(psi: PureState) -> float:
    """Concurrence ``2 * sqrt(sum_{i<j} c_i^2 c_j^2)`` of a bipartite pure
    state with Schmidt coefficients ``c_i``, from
    :func:`~entmono.linalg.schmidt_coefficients`. Ranges from 0 on product
    states to ``sqrt(2 (d - 1) / d)`` for ``d = min(d_a, d_b)``.
    """
    return float(np.sqrt(_schmidt_tangle(schmidt_coefficients(psi))))


def pure_tangle(psi: PureState) -> float:
    """Squared concurrence ``4 sum_{i<j} c_i^2 c_j^2`` of a bipartite pure
    state, from the same Schmidt coefficients as :func:`pure_concurrence`."""
    return float(_schmidt_tangle(schmidt_coefficients(psi)))
