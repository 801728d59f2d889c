"""Two-atom Tavis-Cummings evolution and the atom-field tangle bound.

Two identical two-level atoms couple resonantly to one quantized field mode
through the interaction-picture Hamiltonian (dipole and rotating-wave
approximations, equal couplings)

    H = g * sum_k (a sigma_k^+ + a^dagger sigma_k^-),    k = 1, 2.

Started from ``|e, e> (x) |alpha>``, the state never leaves the symmetric
atom subspace: for each field number ``n`` it stays in the three levels
``|ee, n>``, ``|S, n + 1>`` and ``|gg, n + 2>``, with
``S = (|eg> + |ge>) / sqrt(2)``. Each such block is solved in closed form
(:func:`evolve`), so propagation is exact (no integrator error) at O(n_max)
cost per time point.

Basis conventions: atom levels are indexed 0 = ground, 1 = excited, and a
total state ``|s1, s2, n>`` lives at flat index ``(2 s1 + s2) (n_max + 1) + n``.
The coupling ``g`` sets only the unit of time: the evolution is that of the
unit-coupling Hamiltonian at the effective time ``gt``, so every time in this
module is an effective time.

Tracing out one atom of the evolved pure state leaves an atom-field density
matrix of rank at most two, the structure that makes the tangle bound a
meaningful probe of the collapse and revival dynamics.

Every evolved state is real up to local phases: its amplitudes are
``(gg, ge, eg, ee) = (g, -i h, -i h, r)`` with ``g``, ``h`` and ``r`` real.
:func:`run_trace` therefore solves in a real gauge. It multiplies the
atom-2-excited amplitudes by ``i``, a local unitary on atom 2, which is the
A side of the atom-field state, and the atom-1-excited branch by ``i``, which
leaves that branch's projector as it is. Each atom-field state is then a real
symmetric matrix, and LAPACK's real solver runs in place of the complex one,
for about a quarter of the flops. The partial transpose is conjugated by
the same local unitary, so its spectrum does not change, and the 2 x 2 branch
Gram matrices are unitarily similar to those of the physical basis, so rank
and purity do not change either; all three move only by rounding.
:func:`evolve` and :func:`reduce_atom_field` stay in the physical basis and
return complex arrays.

The Fock cutoff ``n_max`` has one rule, on one fixed threshold
``TRUNCATION_TOL = 1e-6``: the coherent amplitudes ``c_0 .. c_{n_max - 2}``
that :func:`evolve` starts from must keep at least ``1 - TRUNCATION_TOL`` of
the coherent state's weight. Block ``n`` reaches the Fock level ``n + 2``, so
the evolution then never leaves the truncated space and is exactly unitary.
:func:`coherent_state` alone applies the rule; :class:`TcmConfig` calls it
once and keeps the amplitudes it returns for :func:`evolve`.
The threshold is a constant of this module, not of :mod:`entmono.linalg`,
because it concerns the cavity model rather than the input states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (DensityMatrix, PureState, _as_float, _check_count, _finite_array, _solve,
                     zero_cutoff)
from .monotones import tangle_lower_bound

TRUNCATION_TOL = 1e-6
_STIRLING_FROM = 20  # the first Fock index whose amplitude takes Stirling's form


class TruncationError(RuntimeError):
    """Raised when :func:`coherent_state` is cut off too early."""


def coherent_state(alpha: float, n_max: int) -> np.ndarray:
    """Truncated coherent-state amplitudes ``c_0 .. c_n_max``, renormalized.

    Amplitudes ``c_n = exp(-alpha^2 / 2) alpha^n / sqrt(n!)`` are evaluated
    in log space, so neither ``n!`` overflows at large ``n`` nor
    ``exp(-alpha^2 / 2)`` underflows at large ``alpha``; ``alpha = 0`` gives
    the vacuum exactly. Below ``n = 20``, and at every ``n`` when
    ``alpha^2 < 1``, the exponent is ``n log(alpha) - alpha^2 / 2 -
    lgamma(n + 1) / 2``. At large ``alpha`` those three terms, of size
    ``nbar log nbar``, cancel, so from ``n = 20`` on it is Stirling's form
    ``2 log c_n = -x h - log(2 pi n) / 2 - S(n)`` with ``x = alpha^2``,
    ``delta = (n - x) / x``, ``h = (1 + delta) log1p(delta) - delta`` and
    ``S(n) = 1/(12 n) - 1/(360 n^3) + 1/(1260 n^5) - 1/(1680 n^7)``, which
    leaves a relative error of about 1e-13 at ``nbar = 1e5`` (1.7e-10 by the
    direct form). Where ``x`` is so large that ``delta`` rounds to -1, ``h``
    is its limit 1 and the amplitude underflows to 0.

    This is the one owner of the cutoff rule: raises :class:`TruncationError`
    unless the amplitudes keep at least ``1 - TRUNCATION_TOL`` of the
    coherent state's weight, and ``ValueError`` for an ``alpha`` that is
    negative or whose square is not finite (an int beyond the float range
    among them), or for an ``n_max`` that is not an integer in ``[0,
    MAX_COUNT]`` (:data:`~entmono.linalg.MAX_COUNT` is ``2**31 - 1``),
    checked before anything is allocated.
    """
    alpha = _as_float(alpha, "alpha")
    x = alpha * alpha
    if not (math.isfinite(x) and alpha >= 0):
        raise ValueError(f"alpha must be >= 0 with a finite square, got {alpha}")
    _check_count(n_max, "n_max")
    n = np.arange(n_max + 1)
    if alpha == 0.0:
        amps = (n == 0).astype(np.float64)
    else:
        split = _STIRLING_FROM if x >= 1.0 else n.size  # nothing cancels; n / x may overflow
        small = n[:split]
        log_fact = np.array([math.lgamma(k + 1.0) for k in small])
        half_log = np.empty(n.size)
        half_log[:split] = small * math.log(alpha) - 0.5 * x - 0.5 * log_fact
        m = n[split:].astype(np.float64)
        delta = (m - x) / x
        h = (1.0 + delta) * np.log1p(delta, out=np.zeros_like(delta), where=delta > -1) - delta
        s = (1.0 / (12.0 * m) - 1.0 / (360.0 * m**3)
             + 1.0 / (1260.0 * m**5) - 1.0 / (1680.0 * m**7))
        half_log[split:] = -0.5 * (x * h + 0.5 * np.log(2.0 * math.pi * m) + s)
        amps = np.exp(half_log)
    weight = float(np.sum(amps * amps))
    if not weight >= 1.0 - TRUNCATION_TOL:
        raise TruncationError(
            f"the cut at n = {n_max} keeps only {weight:.8f} of the coherent state's "
            f"weight for alpha={alpha}; need at least {1.0 - TRUNCATION_TOL:.8f}"
        )
    return amps / np.sqrt(weight)


@dataclass(frozen=True)
class TcmConfig:
    """Run parameters: mean photon number, cutoff, time grid.

    ``t_grid`` holds effective times ``gt``; the coupling ``g`` sets only the
    unit of time, so it is not a parameter. ``nbar`` must be finite and
    ``>= 0``. The cutoff has one rule: :func:`evolve` starts from the
    coherent amplitudes ``c_0 .. c_{n_max - 2}``, and they must keep at least
    ``1 - TRUNCATION_TOL`` of the coherent state's weight. So ``n_max >= 2``
    always (``|e, e, 0>`` reaches ``|g, g, 2>``), and at most
    :data:`~entmono.linalg.MAX_COUNT` (``2**31 - 1``). The rule is checked once,
    by ``coherent_state(sqrt(nbar), n_max - 2)``, whose
    :class:`TruncationError` is raised here as a ``ValueError`` naming
    ``n_max``; the normalized amplitudes it returns are kept read-only on the
    instance for :func:`evolve`. Every accepted configuration runs:
    :func:`evolve` and :func:`run_trace` raise nothing.
    """

    nbar: float = 100.0
    n_max: int = 200
    t_grid: np.ndarray = field(default_factory=lambda: np.linspace(0.0, 50.0, 1000))

    def __post_init__(self):
        if not 0 <= _as_float(self.nbar, "nbar") < math.inf:  # false for nan
            raise ValueError(f"nbar must be finite and >= 0, got {self.nbar}")
        _check_count(self.n_max, "n_max")
        if self.n_max < 2:
            raise ValueError(f"n_max must be at least 2, since |e,e,0> reaches |g,g,2>; "
                             f"got {self.n_max}")
        try:
            amps = coherent_state(math.sqrt(self.nbar), self.n_max - 2)
        except TruncationError as exc:
            raise ValueError(f"n_max={self.n_max} is inadequate for nbar={self.nbar}: "
                             f"{exc}") from None
        amps.flags.writeable = False
        object.__setattr__(self, "_amplitudes", amps)
        grid = _finite_array(self.t_grid, "t_grid", np.float64).reshape(-1)
        if grid.size == 0 or grid[0] < 0:
            raise ValueError("t_grid must be non-empty, finite and non-negative")
        if grid.size > 1 and np.any(np.diff(grid) <= 0):
            raise ValueError("t_grid must be strictly increasing")
        grid = grid.copy()
        grid.flags.writeable = False
        object.__setattr__(self, "t_grid", grid)


def evolve(cfg: TcmConfig) -> np.ndarray:
    """Evolve ``|e, e> (x) |alpha>`` over the effective times ``cfg.t_grid``.

    Returns the stack of total pure states, shape
    ``(len(t_grid), 4 (n_max + 1))``, in closed form. The field number ``n``
    of ``|ee, n>`` couples to ``|S, n + 1>`` (``S`` the symmetric one-excitation
    atom state) and ``|gg, n + 2>`` through ``a = sqrt(2 (n + 1))`` and
    ``b = sqrt(2 (n + 2))``; with ``Omega^2 = a^2 + b^2`` and
    ``s = sin^2(Omega t / 2)`` the amplitudes are ``c_n (1 - 2 a^2 s / Omega^2)``,
    ``-i c_n a sin(Omega t) / Omega`` (split by ``1/sqrt(2)`` onto ``|eg>``
    and ``|ge>``) and ``-2 c_n a b s / Omega^2``. The coherent amplitudes
    ``c_n`` are those ``cfg`` kept when it checked its cutoff; they stop at
    ``n_max - 2``, so no amplitude leaves the truncated space and every row
    has unit norm to rounding.
    """
    fock = cfg.n_max + 1
    c = cfg._amplitudes
    a2 = 2.0 * np.arange(1.0, fock - 1)
    b2 = a2 + 2.0
    omega = np.sqrt(a2 + b2)
    phase = np.outer(cfg.t_grid, omega)
    half = np.sin(0.5 * phase) ** 2 / (a2 + b2)  # s / Omega^2, free of cos - 1 cancellation
    out = np.zeros((cfg.t_grid.size, 4, fock), dtype=np.complex128)
    out[:, 3, :-2] = c * (1.0 - 2.0 * a2 * half)
    out[:, 2, 1:-1] = -1j * c * np.sqrt(a2 / 2.0) * np.sin(phase) / omega
    out[:, 1, 1:-1] = out[:, 2, 1:-1]
    out[:, 0, 2:] = -2.0 * c * np.sqrt(a2 * b2) * half
    return out.reshape(cfg.t_grid.size, -1)


def reduce_atom_field(total, n_max: int) -> DensityMatrix:
    """Trace out atom 1, leaving the atom-2 plus field density matrix.

    The result has dims ``(2, n_max + 1)`` and rank at most two, since only
    a single qubit was discarded from a pure state. ``total`` is checked once,
    in O(D), as a pure state; its Gram matrix ``f^T f^*`` is then not checked.
    """
    psi = PureState(total, (2, 2 * (n_max + 1)))
    f = psi.vec.reshape(2, -1)
    return DensityMatrix._from_psd(f.T @ f.conj(), (2, psi.dims[1] // 2))


@dataclass(frozen=True)
class TcmTrace:
    """Time series of the tangle bound along one run.

    Parallel arrays: effective time, tangle bound of the atom-field state,
    its numerical rank (always at most two) and purity.
    """

    gt: np.ndarray
    n2pt: np.ndarray
    rank_estimate: np.ndarray
    purity: np.ndarray

    @property
    def rows(self):
        """Iterate ``(gt, n2pt, rank, purity)`` tuples."""
        return zip(self.gt, self.n2pt, self.rank_estimate, self.purity)


def run_trace(cfg: TcmConfig) -> TcmTrace:
    """Full pipeline: evolve, reduce, evaluate the tangle bound per time.

    Everything here runs in the real gauge of the module docstring: the
    atom-2-excited columns and the atom-1-excited branch of each state's
    branch factors are multiplied by ``i``, which only swaps and negates real
    and imaginary parts and leaves zero imaginary parts, so the factors are
    taken as real ``float64`` arrays and every eigensolve is real symmetric.
    No result changes beyond rounding: the local phase on atom 2 conjugates
    each partial transpose by a unitary, the branch phase keeps its branch's
    projector, and the new Gram matrices are unitarily similar to the old
    ones. :func:`evolve` and :func:`reduce_atom_field` stay in the physical
    basis.

    Rank and purity come from the 2 x 2 Gram matrices of the atom-1 branches,
    which share the atom-field state's nonzero spectrum. Each atom-field state
    is the trusted Gram matrix ``f^T f`` of its real branch factor ``f``, as in
    :func:`reduce_atom_field`, without that function's check of the total
    state: :func:`evolve` built it, with unit norm, from a configuration
    whose one cutoff rule guarantees that, so nothing here can raise a
    truncation error. The batched 2 x 2 eigensolve goes through
    :mod:`entmono.linalg`'s one solver rule, so a LAPACK failure is a
    :class:`~entmono.linalg.ConvergenceError`. Partial transposes go one point
    at a time, each one real symmetric eigensolve, as stacking them needs
    O(nt n_max^2) memory.
    """
    states = evolve(cfg)
    x = states.reshape(states.shape[0], 2, 2, -1)  # axes (t, s1, s2, n)
    x[:, :, 1] *= 1j  # atom 2 excited: a local phase on the A side
    x[:, 1] *= 1j  # atom 1 excited: a phase of the whole branch
    branches = np.ascontiguousarray(x.real).reshape(states.shape[0], 2, -1)
    gram = _solve(np.linalg.eigvalsh, branches @ branches.transpose(0, 2, 1))
    rank = np.sum(gram > zero_cutoff(gram), axis=1)
    purity = np.sum(gram * gram, axis=1)
    dims = (2, cfg.n_max + 1)
    n2pt = np.array([tangle_lower_bound(DensityMatrix._from_psd(f.T @ f, dims))
                     for f in branches])
    return TcmTrace(gt=cfg.t_grid.copy(), n2pt=n2pt, rank_estimate=rank, purity=purity)
