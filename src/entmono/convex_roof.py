"""Numerical convex-roof minimization over ensemble decompositions.

Every decomposition ``rho = sum_i p_i |psi_i><psi_i|`` is reachable from the
eigendecomposition: with ``(mu_j, e_j)`` the non-null eigenpairs of ``rho``
and ``u`` any ``m x r`` isometry (``u^H u = I``), the unnormalized vectors

    |psi~_i> = sum_j u_ij sqrt(mu_j) |e_j>,    p_i = <psi~_i | psi~_i>,

form a valid ensemble. Minimizing the probability-weighted average of the
pure-state concurrence (or squared concurrence) over isometries therefore
searches the convex roof from above: whatever the optimizer returns is the
exact average of a concrete decomposition, hence a certified upper bound on
the I-concurrence (or I-tangle). Together with the spectral lower bounds of
:mod:`.monotones` this sandwiches the true value.

The search runs independent random-isometry restarts, each refined by
Riemannian gradient descent on the isometry manifold (analytic Wirtinger
gradient, polar retraction, monotone Armijo backtracking that starts from a
Barzilai-Borwein step). Each descent records how it ended
(:class:`Descent`). The concurrence objective
has square-root kinks wherever a member becomes a product state, which is
precisely where optimal ensembles like to sit; those are handled by
graduated smoothing, replacing ``sqrt(t)`` with ``sqrt(t + eps^2) - eps``
and shrinking ``eps`` toward zero between descent sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ISOMETRY_TOL, TRACE_TOL, DensityMatrix, PureState, _is_integer, zero_cutoff
from .monotones import pure_concurrence, pure_tangle

# Convergence threshold on the Riemannian gradient norm of each descent.
STEP_TOL = 1e-7

OBJECTIVES = ("concurrence", "tangle")

# Smoothing schedule for the concurrence objective; the tangle is a smooth
# polynomial and needs none.
_EPS_STAGES = (1e-1, 1e-2, 1e-3, 1e-4, 1e-6, 1e-9)


class NotIsometryError(ValueError):
    """Raised when the mixing matrix does not have orthonormal columns."""


class RankMismatchError(ValueError):
    """Raised when the mixing matrix width differs from the rank of rho."""


def _check_objective(objective: str) -> str:
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    return objective


class Ensemble:
    """A probability-weighted list of pure states mixing to one density matrix."""

    def __init__(self, probabilities, states: list[PureState]):
        probs = np.asarray(probabilities, dtype=np.float64).reshape(-1)
        if probs.size == 0 or probs.size != len(states):
            raise ValueError(
                f"{probs.size} probabilities for {len(states)} states"
            )
        if np.any(probs <= 0.0):
            raise ValueError("ensemble probabilities must all be positive")
        if abs(probs.sum() - 1.0) > TRACE_TOL:
            raise ValueError(f"ensemble probabilities sum to {probs.sum():.12g}, not 1")
        dims = states[0].dims
        if any(s.dims != dims for s in states):
            raise ValueError("all ensemble members must share the same dims")
        probs = probs.copy()
        probs.flags.writeable = False
        self.probabilities = probs
        self.states = list(states)
        self.dims = dims

    def __len__(self) -> int:
        return len(self.states)

    def mixture(self) -> np.ndarray:
        """The density matrix ``sum_i p_i |psi_i><psi_i|`` of this ensemble."""
        vecs = np.array([s.vec for s in self.states])
        return np.einsum("i,ij,ik->jk", self.probabilities, vecs, vecs.conj())


@dataclass(frozen=True)
class RoofConfig:
    """Search parameters for :func:`minimize_roof`.

    ``ensemble_size`` defaults to ``min(r^2, r + 4)`` for rank ``r`` and may
    not exceed ``4 r^2``. ``max_iters`` caps the descent iterations of each
    smoothing stage of each restart; a descent also stops once its
    Riemannian gradient norm falls below ``STEP_TOL``, or when backtracking
    finds no improving step. :attr:`RoofResult.descents` says which.
    """

    objective: str = "concurrence"
    ensemble_size: int | None = None
    restarts: int = 32
    max_iters: int = 2000
    seed: int = 0

    def __post_init__(self):
        _check_objective(self.objective)
        for name in ("ensemble_size", "restarts", "max_iters", "seed"):
            value = getattr(self, name)
            if not _is_integer(value) and not (name == "ensemble_size" and value is None):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.ensemble_size is not None and self.ensemble_size < 1:
            raise ValueError(f"ensemble_size must be >= 1, got {self.ensemble_size}")
        if self.restarts < 1 or self.max_iters < 1:
            raise ValueError(
                f"restarts and max_iters must be >= 1, got {self.restarts} and {self.max_iters}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class Descent:
    """How one descent ended: accepted moves, stop reason, final gradient norm.

    ``stop`` is ``"converged"`` (the Riemannian gradient norm fell below
    ``STEP_TOL``), ``"max_iters"`` (the budget ran out first) or
    ``"no_step"`` (backtracking found no improving step).
    """

    iterations: int
    stop: str
    grad_norm: float


@dataclass(frozen=True)
class RoofResult:
    """Best value found, the ensemble achieving it, and per-restart values.

    ``descents[i][k]`` records stage ``k`` of restart ``i``: one stage per
    smoothing level for the concurrence, one for the tangle.
    """

    value: float
    ensemble: Ensemble
    restart_values: np.ndarray
    descents: tuple[tuple[Descent, ...], ...]


def _sqrt_members(rho: DensityMatrix) -> np.ndarray:
    """Rows ``sqrt(mu_j) e_j^T`` over the non-null eigenpairs of rho."""
    w, v = np.linalg.eigh(rho.mat)
    keep = w > zero_cutoff(w)
    return np.sqrt(w[keep])[:, None] * v[:, keep].T


def numerical_rank(rho: DensityMatrix) -> int:
    """Number of eigenvalues of ``rho`` above the zero cutoff."""
    return _sqrt_members(rho).shape[0]


def random_isometry(m: int, r: int, rng: np.random.Generator) -> np.ndarray:
    """Orthogonal polar factor of an ``m x r`` complex Gaussian matrix."""
    if m < r:
        raise ValueError(f"need m >= r for an isometry, got {m} < {r}")
    z = rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
    return _polar(z)


def _polar(z: np.ndarray) -> np.ndarray:
    u, _, vh = np.linalg.svd(z, full_matrices=False)
    return u @ vh


def ensemble_from_unitary(rho: DensityMatrix, u) -> Ensemble:
    """Ensemble generated by an isometry acting on the eigendecomposition.

    ``u`` must be ``m x r`` with orthonormal columns, where ``r`` is the
    numerical rank of ``rho``. Members whose weight underflows (possible
    when ``u`` has an all-zero row) are dropped; the mixture of the result
    reconstructs ``rho`` up to the discarded null space.
    """
    u = np.asarray(u, dtype=np.complex128)
    if u.ndim != 2:
        raise RankMismatchError(f"mixing matrix must be 2-D, got shape {u.shape}")
    s = _sqrt_members(rho)
    r = s.shape[0]
    if u.shape[1] != r:
        raise RankMismatchError(
            f"mixing matrix has {u.shape[1]} columns but rho has rank {r}"
        )
    gram = u.conj().T @ u
    if np.abs(gram - np.eye(r)).max() > ISOMETRY_TOL:
        raise NotIsometryError("mixing matrix columns are not orthonormal")
    return _ensemble(u, s, rho.dims)


def _ensemble(u: np.ndarray, s: np.ndarray, dims) -> Ensemble:
    """Normalized members ``u @ s`` of a checked isometry, minus underflows.

    The weights sum to the trace of the kept eigenvalues, which misses 1 by
    the discarded null space, so the result skips the public checks of
    :class:`Ensemble`, as :meth:`DensityMatrix._from_psd` does for states.
    """
    raw = u @ s
    weights = np.einsum("ij,ij->i", raw, raw.conj()).real
    keep = weights > 1e-12
    probs = weights[keep]
    probs.flags.writeable = False
    ens = Ensemble.__new__(Ensemble)
    ens.probabilities, ens.dims = probs, dims
    ens.states = [PureState(vec / np.sqrt(w_i), dims) for w_i, vec in zip(probs, raw[keep])]
    return ens


def average_objective(ensemble: Ensemble, objective: str = "concurrence") -> float:
    """Probability-weighted average of the pure-state concurrence or tangle."""
    _check_objective(objective)
    fn = pure_concurrence if objective == "concurrence" else pure_tangle
    return float(
        sum(p * fn(s) for p, s in zip(ensemble.probabilities, ensemble.states))
    )


def _value_and_grad(u, s, d_a, d_b, objective, eps):
    """Smoothed ensemble average and its Wirtinger gradient d/d(conj u).

    Per member, with ``G = M M^H`` of the unnormalized amplitude matrix
    ``M``, the weighted concurrence is ``sqrt(2 ((tr G)^2 - tr G^2))`` and
    the weighted tangle is that quantity squared over the weight; both need
    only traces, no per-member eigensolve.
    """
    psis = u @ s
    m = psis.shape[0]
    mats = psis.reshape(m, d_a, d_b)
    g = mats @ mats.conj().transpose(0, 2, 1)
    p = np.einsum("ikk->i", g).real
    fro2 = np.einsum("ijk,ikj->i", g, g).real
    t = 2.0 * np.maximum(p * p - fro2, 0.0)
    gm = (g @ mats).reshape(m, -1)
    if objective == "concurrence":
        root = np.sqrt(t + eps * eps)
        value = float(np.sum(root) - m * eps)
        grad_psi = (2.0 * p[:, None] * psis - 2.0 * gm) / root[:, None]
    else:
        pw = np.maximum(p, 1e-300)
        value = float(np.sum(t / pw))
        grad_psi = (
            (4.0 * p[:, None] * psis - 4.0 * gm) * pw[:, None] - t[:, None] * psis
        ) / (pw * pw)[:, None]
    return value, grad_psi @ s.conj().T


def _tangent(u, z):
    """Projection of ``z`` onto the tangent space of the isometries at ``u``."""
    uz = u.conj().T @ z
    return z - u @ (uz + uz.conj().T) * 0.5


def _descend(u, s, d_a, d_b, objective, eps, max_iters):
    """Riemannian gradient descent with Armijo backtracking; accepts only
    strict improvements, so the smoothed value is non-increasing.

    Each backtracking starts from a Barzilai-Borwein step (Barzilai and
    Borwein, IMA J. Numer. Anal. 8, 141 (1988); on the Stiefel manifold, Wen
    and Yin, Math. Program. 142, 397 (2013)). With ``step`` the last
    accepted move and ``dxi`` the change of the Riemannian gradient ``xi``,
    the old one carried over by tangent projection, the trial step
    alternates between ``<step,step>/|<step,dxi>|`` and
    ``|<step,dxi>|/<dxi,dxi>`` (``<a,b> = Re vdot(a, b)``), clipped to
    [1e-10, 1e10]. The first trial is 1, and so is any trial with
    ``<step,dxi> = 0`` or a ratio that is not finite. Returns the value, the
    isometry and the :class:`Descent` record.
    """
    value, grad = _value_and_grad(u, s, d_a, d_b, objective, eps)
    xi = _tangent(u, grad)
    t_step = 1.0
    iters = 0
    while True:
        ng2 = float(np.vdot(xi, xi).real)
        if ng2 < STEP_TOL * STEP_TOL:
            stop = "converged"
            break
        if iters == max_iters:
            stop = "max_iters"
            break
        while t_step * np.sqrt(ng2) > 1e-14:
            cand = _polar(u - t_step * xi)
            c_val, c_grad = _value_and_grad(cand, s, d_a, d_b, objective, eps)
            if c_val <= value - 1e-4 * t_step * ng2:
                break
            t_step *= 0.5
        else:
            stop = "no_step"
            break
        iters += 1
        c_xi = _tangent(cand, c_grad)
        step, dxi = cand - u, c_xi - _tangent(cand, xi)
        sy = abs(np.vdot(step, dxi).real)
        if sy:
            bb = np.vdot(step, step).real / sy if iters % 2 else sy / np.vdot(dxi, dxi).real
        t_step = min(max(bb, 1e-10), 1e10) if sy and np.isfinite(bb) else 1.0
        u, value, xi = cand, c_val, c_xi
    return value, u, Descent(iters, stop, float(np.sqrt(ng2)))


def _refine(u, s, d_a, d_b, objective, max_iters):
    descents = []
    for eps in _EPS_STAGES if objective == "concurrence" else (0.0,):
        value, u, record = _descend(u, s, d_a, d_b, objective, eps, max_iters)
        descents.append(record)
    return value, u, tuple(descents)


def minimize_roof(rho: DensityMatrix, cfg: RoofConfig | None = None) -> RoofResult:
    """Search the ensemble decompositions of ``rho`` for a minimal average.

    Returns the smallest probability-weighted average of the pure-state
    objective found over all restarts, as a :class:`RoofResult`. The value
    is recomputed from the returned ensemble through
    :func:`average_objective`, so it is an upper bound on the convex roof by
    construction, independent of optimizer quality. Identical configurations
    produce bit-identical results: restarts draw from sub-seeds spawned from
    ``cfg.seed`` and the reduction runs in restart order.
    """
    cfg = cfg or RoofConfig()
    d_a, d_b = rho.dims
    s = _sqrt_members(rho)
    r = s.shape[0]
    m = cfg.ensemble_size if cfg.ensemble_size is not None else min(r * r, r + 4)
    if m < r:
        raise ValueError(f"ensemble_size {m} is below the rank {r} of rho")
    if m > 4 * r * r:
        raise ValueError(f"ensemble_size {m} exceeds the practical cap {4 * r * r}")

    best_u = None
    best_val = np.inf
    restart_values = np.empty(cfg.restarts)
    descents = []
    for idx, child in enumerate(np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)):
        rng = np.random.default_rng(child)
        u = random_isometry(m, r, rng)
        val, u, record = _refine(u, s, d_a, d_b, cfg.objective, cfg.max_iters)
        restart_values[idx] = val
        descents.append(record)
        if val < best_val:
            best_val, best_u = val, u

    ensemble = _ensemble(best_u, s, rho.dims)
    value = average_objective(ensemble, cfg.objective)
    restart_values.flags.writeable = False
    return RoofResult(value=value, ensemble=ensemble, restart_values=restart_values,
                      descents=tuple(descents))
