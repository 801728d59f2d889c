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

The search runs independent random-isometry restarts, each refined by a
Riemannian descent on the isometry manifold (analytic Wirtinger gradient,
L-BFGS directions for the concurrence and scaled gradient steps for the
tangle, polar retraction, monotone Armijo backtracking). Each descent
records how it ended (:class:`Descent`). The concurrence objective
has square-root kinks wherever a member becomes a product state, which is
precisely where optimal ensembles like to sit; those are handled by
graduated smoothing, replacing ``sqrt(t)`` with ``sqrt(t + eps^2) - eps``
and shrinking ``eps`` toward zero between descent sweeps.

One rule gives every reported number: each restart's final ensemble is
built and scored once by :func:`average_objective`, unsmoothed, from the
Schmidt coefficients of its members, as
:func:`~entmono.monotones.pure_concurrence` and
:func:`~entmono.monotones.pure_tangle` score one state, and the best is
returned as scored. The descent alone steers by a surrogate, the trace
identity ``C^2 = 2 ((tr G)^2 - tr G^2)`` with ``G = M M^H`` of a member's
amplitude matrix ``M`` (:func:`_value_and_grad`): it has an analytic
gradient and needs no decomposition, but cancels on near-product members,
so no reported value is read from it.

The restarts of one search descend together, as one stacked array: each
round evaluates a trial isometry for every restart still running in one
call, while every decision (Armijo test, halving, step length, stop) is
taken per restart. Each restart therefore follows, bit for bit, the
trajectory it would follow alone. Memory is bounded by running the restarts
in groups whose stacked members stay within ``_GROUP_ELEMENTS`` entries; a
state too large for two restarts runs them one at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (ISOMETRY_TOL, MAX_COUNT, TRACE_TOL, DensityMatrix, PureState, _as_array,
                     _check_count, _finite_array, _is_integer, _solve, zero_cutoff)
from .monotones import _schmidt_tangle

# Convergence threshold on the Riemannian gradient norm of each descent.
STEP_TOL = 1e-7

OBJECTIVES = ("concurrence", "tangle")

# Smoothing schedule for the concurrence objective; the tangle is a smooth
# polynomial and needs none.
_EPS_STAGES = (1e-1, 1e-2, 1e-3, 1e-4, 1e-6, 1e-9)

# L-BFGS memory length of each objective's descent. The concurrence descents
# run hundreds of iterations along the curved valleys the smoothing leaves,
# where four pairs cut the evaluations about sixfold; the tangle descents end
# in about 16 iterations, too few for the two-loop to pay for itself, so they
# take the scaled gradient step alone.
_MEMORY = {"concurrence": 4, "tangle": 0}

# Restarts run in groups whose stacked members ``u @ s`` hold at most this
# many complex entries (1 MiB), or one restart when a single one holds more.
# The descent's temporaries are a few arrays of this size (its L-BFGS pairs
# hold 8 m r entries per restart, at most eight times its m D members), and
# batching gains only where per-call overhead dominates, long before this size.
_GROUP_ELEMENTS = 1 << 16


class NotIsometryError(ValueError):
    """Raised when the mixing matrix does not have orthonormal columns."""


class RankMismatchError(ValueError):
    """Raised when the mixing matrix width differs from the rank of rho."""


def _check_objective(objective: str) -> str:
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    return objective


class Ensemble:
    """Probability-weighted pure states mixing to one density matrix.

    The members are stored as one read-only ``(m, D)`` array ``vectors``,
    row ``i`` the amplitudes of member ``i``, next to the read-only
    ``probabilities``. The constructor takes and validates
    :class:`~entmono.linalg.PureState` members and weights that are positive
    and sum to 1 within ``TRACE_TOL``; ``_from_members`` trusts its caller
    instead, as :meth:`DensityMatrix._from_psd` does.
    :func:`average_objective` scores every member in one call.
    """

    def __init__(self, probabilities, states: list[PureState]):
        probs = _as_array(probabilities, "probabilities", np.float64).reshape(-1)
        if probs.size == 0 or probs.size != len(states):
            raise ValueError(
                f"{probs.size} probabilities for {len(states)} states"
            )
        if not np.all(probs > 0.0):  # NaN fails this test too
            raise ValueError("ensemble probabilities must all be positive")
        if abs(probs.sum() - 1.0) > TRACE_TOL:
            raise ValueError(f"ensemble probabilities sum to {probs.sum():.12g}, not 1")
        dims = states[0].dims
        if any(s.dims != dims for s in states):
            raise ValueError("all ensemble members must share the same dims")
        probs, vectors = probs.copy(), np.array([s.vec for s in states])
        probs.flags.writeable = vectors.flags.writeable = False
        self.probabilities, self.vectors, self.dims = probs, vectors, dims

    @classmethod
    def _from_members(cls, probs: np.ndarray, vectors: np.ndarray, dims) -> "Ensemble":
        """Trusted ensemble from fresh arrays its caller built from a checked isometry."""
        ens = cls.__new__(cls)
        probs.flags.writeable = vectors.flags.writeable = False
        ens.probabilities, ens.vectors, ens.dims = probs, vectors, dims
        return ens

    def __len__(self) -> int:
        return len(self.probabilities)

    def mixture(self) -> np.ndarray:
        """The density matrix ``sum_i p_i |psi_i><psi_i|`` of this ensemble."""
        return (self.probabilities[:, None] * self.vectors).T @ self.vectors.conj()


@dataclass(frozen=True)
class RoofConfig:
    """Search parameters for :func:`minimize_roof`.

    ``ensemble_size`` defaults to ``min(r^2, r + 4)`` for rank ``r`` and may
    not exceed ``4 r^2``. ``ensemble_size``, ``restarts`` and ``max_iters``
    are at most :data:`~entmono.linalg.MAX_COUNT` (``2**31 - 1``), checked
    here. ``max_iters`` caps the descent iterations of each
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
            if name != "seed" and value is not None and value > MAX_COUNT:
                raise ValueError(f"{name} must be at most {MAX_COUNT}, got {value}")
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
    smoothing level for the concurrence, one for the tangle. Restarts run
    batched, but each value and record is bitwise what the restart gives
    alone. ``restart_values`` score each restart's final ensemble by
    :func:`average_objective`; ``ensemble`` is the first scoring their
    minimum, returned as scored, so ``value == restart_values.min() ==
    average_objective(ensemble, objective)`` bitwise. ``residual`` is the
    reconstruction residual ``max |mixture - rho|`` of that ensemble.
    """

    value: float
    ensemble: Ensemble
    restart_values: np.ndarray
    descents: tuple[tuple[Descent, ...], ...]
    residual: float


def _sqrt_members(rho: DensityMatrix) -> np.ndarray:
    """Rows ``sqrt(mu_j) e_j^T`` over the non-null eigenpairs of rho."""
    w, v = _solve(np.linalg.eigh, rho.mat)
    keep = w > zero_cutoff(w)
    return np.sqrt(w[keep])[:, None] * v[:, keep].T


def numerical_rank(rho: DensityMatrix) -> int:
    """Number of eigenvalues of ``rho`` above the zero cutoff."""
    return _sqrt_members(rho).shape[0]


def random_isometry(m: int, r: int, rng: np.random.Generator) -> np.ndarray:
    """Orthogonal polar factor of an ``m x r`` complex Gaussian matrix.
    ``m`` and ``r`` are integers in ``[0, MAX_COUNT]``, checked before
    anything is allocated, with ``m >= r``."""
    _check_count(m, "m")
    _check_count(r, "r")
    if m < r:
        raise ValueError(f"need m >= r for an isometry, got {m} < {r}")
    z = rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
    return _polar(z)


def _polar(z: np.ndarray) -> np.ndarray:
    u, _, vh = _solve(np.linalg.svd, z, full_matrices=False)
    return u @ vh


def ensemble_from_unitary(rho: DensityMatrix, u) -> Ensemble:
    """Ensemble generated by an isometry acting on the eigendecomposition.

    ``u`` must be ``m x r`` with orthonormal columns, where ``r`` is the
    numerical rank of ``rho``. Members whose weight underflows (possible
    when ``u`` has an all-zero row) are dropped; the mixture of the result
    reconstructs ``rho`` up to the discarded null space.
    """
    u = _finite_array(u, "mixing matrix")
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
    :class:`Ensemble` through :meth:`Ensemble._from_members`.
    """
    raw = u @ s
    weights = np.einsum("ij,ij->i", raw, raw.conj()).real
    keep = weights > 1e-12
    probs = weights[keep]
    return Ensemble._from_members(probs, raw[keep] / np.sqrt(probs)[:, None], dims)


def average_objective(ensemble: Ensemble, objective: str = "concurrence") -> float:
    """Probability-weighted average of the pure-state concurrence or tangle.

    One singular-value call on the stacked amplitude matrices gives every
    member's Schmidt coefficients, and each member is scored from them as
    :func:`~entmono.monotones.pure_concurrence` or
    :func:`~entmono.monotones.pure_tangle` scores it, accurate to rounding
    also on near-product members."""
    concurrence = _check_objective(objective) == "concurrence"
    s = _solve(np.linalg.svd, ensemble.vectors.reshape(-1, *ensemble.dims), compute_uv=False)
    t = _schmidt_tangle(s)
    return float(ensemble.probabilities @ (np.sqrt(t) if concurrence else t))


def _value_and_grad(u, s, sh, d_a, d_b, objective, eps):
    """Smoothed ensemble averages and their Wirtinger gradients d/d(conj u).

    ``u`` is a stack of ``B`` isometries, ``(B, m, r)``, and ``sh`` is
    ``s.conj().T``. Returns the ``B`` values as floats and a function that
    computes the gradients, a ``(B, m, r)`` array, so that a rejected trial
    costs only its values. Per member, with ``G = M M^H`` of the
    unnormalized amplitude matrix ``M`` and its trace ``p``, the weight, the
    trace identity ``t = 2 ((tr G)^2 - tr G^2)``, clamped at zero, is ``p^2``
    times the squared concurrence: the weighted concurrence is ``sqrt(t)``
    and the weighted tangle ``t / p``, with no per-member decomposition.
    This surrogate cancels on near-product members and only steers the
    descent; :func:`average_objective` scores what is reported. Each row is
    computed by the same operations as a stack of one, so its result does
    not depend on the rest of the stack.
    """
    b, m = u.shape[:2]
    psis = (u @ s).reshape(b * m, -1)
    mats = psis.reshape(b * m, d_a, d_b)
    g = mats @ mats.conj().transpose(0, 2, 1)
    p = np.einsum("ikk->i", g).real
    t = 2.0 * np.maximum(p * p - np.einsum("ijk,ikj->i", g, g).real, 0.0)
    if objective == "concurrence":
        root = np.sqrt(t + eps * eps)
        values = root.reshape(b, m).sum(axis=1) - m * eps
    else:
        pw = np.maximum(p, 1e-300)
        values = (t / pw).reshape(b, m).sum(axis=1)

    def grad():
        gm = (g @ mats).reshape(b * m, -1)
        if objective == "concurrence":
            grad_psi = (2.0 * p[:, None] * psis - 2.0 * gm) / root[:, None]
        else:
            grad_psi = (
                (4.0 * p[:, None] * psis - 4.0 * gm) * pw[:, None] - t[:, None] * psis
            ) / (pw * pw)[:, None]
        return grad_psi.reshape(b, m, -1) @ sh

    return values.tolist(), grad


def _tangent(u, z):
    """Projection of ``z`` onto the tangent space of the isometries at ``u``."""
    uz = u.conj().transpose(0, 2, 1) @ z
    return z - u @ (uz + uz.conj().transpose(0, 2, 1)) * 0.5


def _dots(a, b):
    """Row inner products ``<a_k, b_k>`` of two ``(B, N)`` real stacks, one
    ``np.vecdot`` call, each row computed as it would be in a stack of one."""
    return np.vecdot(a, b)


def _push(pairs, rows, new):
    """Make ``new[j]`` the newest pair of row ``rows[j]`` of ``pairs``,
    dropping its oldest; ``rows=None`` means every row, shifted in place."""
    if rows is None:
        pairs[:, :-1] = pairs[:, 1:]
        pairs[:, -1] = new
    else:
        pairs[rows] = np.concatenate((pairs[rows, 1:], new[:, None]), axis=1)


def _descend(u, s, sh, d_a, d_b, objective, eps, max_iters):
    """Riemannian L-BFGS descent with Armijo backtracking on a stack of
    isometries; accepts only strict improvements, so each smoothed value is
    non-increasing.

    The direction ``d`` is the L-BFGS two-loop product (Nocedal, Math.
    Comp. 35, 773 (1980)) of the last ``_MEMORY[objective]`` pairs
    ``(step, dxi)``, with ``step`` an accepted move and ``dxi`` the change it
    made to the Riemannian gradient ``xi``, the old gradient carried over by
    tangent projection, projected onto the tangent space. Its initial inverse
    Hessian is ``gamma = <step,dxi>/<dxi,dxi>`` (``<a,b> = Re vdot(a, b)``)
    of the newest pair, the second Barzilai-Borwein length (Barzilai and
    Borwein, IMA J. Numer. Anal. 8, 141 (1988)), or 1 before the first pair;
    a pair with ``<step,dxi> <= 0`` is not stored. With no memory the step is
    ``-gamma xi``, formed as the direction ``-xi`` at the trial length
    ``gamma``. A direction with ``<xi,d>`` not negative is replaced by
    ``-xi``. Each backtracking starts from the full step and halves it until
    the retracted point lowers the value by ``1e-4`` times the slope
    ``<xi,d>`` times the trial length.

    The rows of ``u`` (``(B, m, r)``, owned and overwritten) descend in
    lockstep: each round evaluates one trial for every row still running,
    in one call, and forms the directions of the rows that moved by stacked
    products on real views. The pair memory is updated in place: a round in
    which every row stores a pair shifts the whole stack (:func:`_push`),
    and the two-loop reads it directly when every row moved; only a subset
    of rows is gathered and scattered. Every decision is taken per row on
    scalars, so each row follows the trajectory it would follow alone.
    Returns the isometries and one :class:`Descent` record per row; the
    smoothed values stay inside the descent.
    """
    n = len(u)
    mem = _MEMORY[objective]
    values, grad = _value_and_grad(u, s, sh, d_a, d_b, objective, eps)
    xi = _tangent(u, grad())
    width = 2 * xi[0].size
    # pairs newest last; an empty slot has rho = 0 and is a no-op
    pair_s, pair_y, rho = np.zeros((n, mem, width)), np.zeros((n, mem, width)), np.zeros((n, mem))
    gamma, trial, slope, p_norm, ng2 = [1.0] * n, [1.0] * n, [0.0] * n, [0.0] * n, [0.0] * n
    iters = [0] * n
    records = [None] * n

    def start(rows, u_r, xi_r):
        """New directions ``d = -p`` for ``rows`` at ``u_r``, or record their
        stop. With no memory ``p`` is ``xi`` itself."""
        k = len(rows)
        x = xi_r.view(np.float64).reshape(k, -1)
        g2 = _dots(x, x).tolist()
        if mem:
            ps, py, pr = ((pair_s, pair_y, rho) if k == n
                          else (pair_s[rows], pair_y[rows], rho[rows]))
            q, alphas = x.copy(), []
            for j in reversed(range(mem)):
                a = pr[:, j] * _dots(ps[:, j], q)
                q -= a[:, None] * py[:, j]
                alphas.append(a)
            z = np.array([gamma[i] for i in rows])[:, None] * q
            for j in range(mem):
                b = pr[:, j] * _dots(py[:, j], z)
                z += (alphas[mem - 1 - j] - b)[:, None] * ps[:, j]
            p_r = _tangent(u_r, z.view(np.complex128).reshape(xi_r.shape))
            pv = p_r.view(np.float64).reshape(k, -1)
            slopes, pp = _dots(x, pv).tolist(), _dots(pv, pv).tolist()
        else:
            p_r, slopes, pp = xi_r, g2, g2
        for j, i in enumerate(rows):
            if not slopes[j] > 0.0:
                p_r[j], slopes[j], pp[j] = xi_r[j], g2[j], g2[j]
            trial[i] = 1.0 if mem else gamma[i]
            slope[i], p_norm[i], ng2[i] = slopes[j], math.sqrt(pp[j]), g2[j]
            if g2[j] < STEP_TOL * STEP_TOL:
                stop = "converged"
            elif iters[i] == max_iters:
                stop = "max_iters"
            elif trial[i] * p_norm[i] > 1e-14:
                continue
            else:
                stop = "no_step"
            records[i] = Descent(iters[i], stop, math.sqrt(g2[j]))
        return p_r

    def remember(rows, step, dxi):
        """Store each row's pair ``(step, dxi)`` when ``<step,dxi> > 0``."""
        k = len(rows)
        sv, yv = step.view(np.float64).reshape(k, -1), dxi.view(np.float64).reshape(k, -1)
        sy, yy = _dots(sv, yv).tolist(), _dots(yv, yv).tolist()
        keep = [j for j in range(k) if sy[j] > 0.0]
        for j in keep:
            gamma[rows[j]] = sy[j] / yy[j]
        if mem and keep:
            kept = None if len(keep) == n else [rows[j] for j in keep]
            sel = slice(None) if kept is None else keep
            news = sv[sel], yv[sel], 1.0 / np.array(sy)[sel]
            for pairs, new in zip((pair_s, pair_y, rho), news):
                _push(pairs, kept, new)

    p = start(list(range(n)), u, xi)
    live = [i for i in range(n) if records[i] is None]
    while live:
        # a lone row scales by a float, cheaper than broadcasting a
        # (1, 1, 1) array and bitwise the same
        if len(live) == 1:
            t = trial[live[0]]
        else:
            t = np.array([trial[i] for i in live])[:, None, None]
        u_l, xi_l = (u, xi) if len(live) == n else (u[live], xi[live])
        p_l = xi_l if not mem else p if len(live) == n else p[live]
        cand = _polar(u_l - t * p_l)
        c_vals, c_grad = _value_and_grad(cand, s, sh, d_a, d_b, objective, eps)
        acc = []
        for j, i in enumerate(live):
            if c_vals[j] <= values[i] - 1e-4 * trial[i] * slope[i]:
                acc.append(j)
                continue
            trial[i] *= 0.5
            if not trial[i] * p_norm[i] > 1e-14:
                records[i] = Descent(iters[i], "no_step", math.sqrt(ng2[i]))
        if acc:
            c_grad = c_grad()
            if len(acc) < len(live):
                cand, c_grad, u_l, xi_l = cand[acc], c_grad[acc], u_l[acc], xi_l[acc]
            c_xi = _tangent(cand, c_grad)
            rows = [live[j] for j in acc]
            for j in acc:
                iters[live[j]] += 1
                values[live[j]] = c_vals[j]
            remember(rows, cand - u_l, c_xi - _tangent(cand, xi_l))
            c_p = start(rows, cand, c_xi)
            if len(acc) == n:
                u, xi, p = cand, c_xi, c_p
            else:
                u[rows], xi[rows] = cand, c_xi
                if mem:
                    p[rows] = c_p
        live = [i for i in live if records[i] is None]
    return u, records


def minimize_roof(rho: DensityMatrix, cfg: RoofConfig | None = None) -> RoofResult:
    """Search the ensemble decompositions of ``rho`` for a minimal average.

    Returns the smallest probability-weighted average of the pure-state
    objective found over all restarts, as a :class:`RoofResult`. Each
    restart's final ensemble is built and scored once by
    :func:`average_objective`; the first strict minimum in restart order is
    returned as scored, the average of a concrete decomposition and so an
    upper bound on the convex roof by construction, independent of
    optimizer quality. Identical configurations produce bit-identical
    results: restarts draw from sub-seeds spawned from ``cfg.seed``.
    The restarts descend as one batch (or, for large states,
    in groups bounded by ``_GROUP_ELEMENTS``), and each is bitwise what it
    would be alone, so the first ``k`` restarts do not depend on
    ``cfg.restarts`` or on the grouping.
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

    children = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    group = max(1, _GROUP_ELEMENTS // (m * s.shape[1]))
    sh = s.conj().T
    value, ensemble = np.inf, None
    restart_values, descents = [], []
    for lo in range(0, cfg.restarts, group):
        u = np.stack([random_isometry(m, r, np.random.default_rng(c))
                      for c in children[lo:lo + group]])
        stages = []
        for eps in _EPS_STAGES if cfg.objective == "concurrence" else (0.0,):
            u, records = _descend(u, s, sh, d_a, d_b, cfg.objective, eps, cfg.max_iters)
            stages.append(records)
        descents += zip(*stages)
        for final in u:
            ens = _ensemble(final, s, rho.dims)
            val = average_objective(ens, cfg.objective)
            restart_values.append(val)
            if val < value:
                value, ensemble = val, ens

    restart_values = np.array(restart_values)
    restart_values.flags.writeable = False
    residual = float(np.abs(ensemble.mixture() - rho.mat).max())
    return RoofResult(value=value, ensemble=ensemble, restart_values=restart_values,
                      descents=tuple(descents), residual=residual)
