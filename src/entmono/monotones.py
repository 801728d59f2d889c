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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DensityMatrix,
    PureState,
    _check_order,
    hermitian_eigenvalues,
    pt_spectrum,
    zero_cutoff,
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

    :func:`~entmono.linalg.hermitian_eigenvalues` remembers the last matrix
    it solved by content, so calls for several ``p`` on one matrix, one after
    another, share one validation and one eigensolve."""
    return _spectrum_report(hermitian_eigenvalues(a), _check_order(p))


def _spectrum_report(w: np.ndarray, p: float) -> MonotoneReport:
    """Negative-spectrum norms of a descending spectrum ``w`` for a valid order
    ``p``: the state monotones fix it, :func:`monotone_report` and
    ``entmono monotone --p`` check it.

    Applies the zero cutoff of :func:`negative_eigenvalues`. ``pnorm`` is
    ``m * ||x / m||_p`` with ``m`` the largest negative magnitude: it neither
    underflows at large ``p`` nor overflows at large magnitudes, though
    ``power_sum = pnorm ** p`` can still leave the float range.
    """
    neg = w[w < -zero_cutoff(w)]
    pnorm = psum = 0.0
    if neg.size:
        mag = np.abs(neg)
        m = mag.max()
        scaled = float(np.sum((mag / m) ** p))
        pnorm = float(m * scaled ** (1.0 / p))
        with np.errstate(over="ignore", under="ignore"):
            psum = float(m**p * scaled)
    return MonotoneReport(
        p=p,
        pnorm=pnorm,
        power_sum=psum,
        negative_eigenvalues=neg,
        neg_count=int(neg.size),
    )


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


def _gram_terms(mats: np.ndarray):
    """Trace terms of a ``(k, d_a, d_b)`` stack of amplitude matrices ``M``.

    Returns ``G = M M^H``, its trace ``p`` (the squared norm) and
    ``t = 2 ((tr G)^2 - tr G^2)``, clamped at zero. In Schmidt coefficients
    ``c_i`` of the normalized member, ``t = p^2 C^2`` with
    ``C^2 = 4 sum_{i<j} c_i^2 c_j^2`` the squared concurrence, so every
    pure-state concurrence needs traces only, no eigensolve. Each member is
    computed by the same operations as a stack of one.
    """
    g = mats @ mats.conj().transpose(0, 2, 1)
    p = np.einsum("ikk->i", g).real
    fro2 = np.einsum("ijk,ikj->i", g, g).real
    return g, p, 2.0 * np.maximum(p * p - fro2, 0.0)


def _minor_terms(mats: np.ndarray) -> np.ndarray:
    """``t = p^2 C^2`` of a ``(k, d_a, d_b)`` stack of amplitude matrices ``M``
    by Cauchy-Binet, without the cancellation of :func:`_gram_terms`.

    ``p^2 C^2 = 4 sum_{i<j, k<l} |M_ik M_jl - M_il M_jk|^2`` over the ``2 x 2``
    minors, with the row pairs taken on the smaller side. No subtraction
    between terms, so a near-product member keeps a concurrence accurate to
    rounding where the trace form loses half the digits.
    """
    if mats.shape[1] > mats.shape[2]:
        mats = mats.transpose(0, 2, 1)
    i, j = np.triu_indices(mats.shape[1], 1)
    k, l = np.triu_indices(mats.shape[2], 1)
    a, b = mats[:, i], mats[:, j]
    minors = (a[:, :, k] * b[:, :, l] - a[:, :, l] * b[:, :, k]).reshape(len(mats), -1)
    return 4.0 * np.einsum("ij,ij->i", minors, minors.conj()).real


def pure_concurrence(psi: PureState) -> float:
    """Concurrence ``2 * sqrt(sum_{i<j} c_i^2 c_j^2)`` of a bipartite pure
    state with Schmidt coefficients ``c_i``.

    Evaluated by the Cauchy-Binet sum of :func:`_minor_terms`, accurate to
    rounding also near product states, the score every reported ensemble
    average uses too (:func:`~entmono.convex_roof.average_objective`); no
    eigensolve. Ranges from 0 on product states to ``sqrt(2 (d - 1) / d)``
    for ``d = min(d_a, d_b)``.
    """
    return float(np.sqrt(_minor_terms(psi.vec.reshape(1, *psi.dims))[0]))


def pure_tangle(psi: PureState) -> float:
    """Squared concurrence of a bipartite pure state, by the trace identity
    of :func:`_gram_terms`: with no square root to take, its error stays at
    rounding level."""
    return float(_gram_terms(psi.vec.reshape(1, *psi.dims))[2][0])
