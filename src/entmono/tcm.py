"""Two-atom Tavis-Cummings evolution and the atom-field tangle bound.

Two identical two-level atoms couple resonantly to one quantized field mode
through the interaction-picture Hamiltonian (dipole and rotating-wave
approximations, equal couplings)

    H = g * sum_k (a sigma_k^+ + a^dagger sigma_k^-),    k = 1, 2.

The total excitation number ``a^dagger a + sum_k sigma_k^+ sigma_k^-``
commutes with H, so the Hilbert space splits into ``n_max + 3`` blocks of
dimension at most four, diagonalized together in one batched eigensolve;
propagation is then exact (no integrator error) at O(n_max) cost per time
point.

Basis conventions: atom levels are indexed 0 = ground, 1 = excited, and a
total state ``|s1, s2, n>`` lives at flat index ``(2 s1 + s2) (n_max + 1) + n``.
The coupling ``g`` sets only the unit of time: the evolution is that of the
unit-coupling Hamiltonian at the effective time ``gt``, so every time in this
module is an effective time.

Tracing out one atom of the evolved pure state leaves an atom-field density
matrix of rank at most two, the structure that makes the tangle bound a
meaningful probe of the collapse and revival dynamics.

The Fock cutoff ``n_max`` is checked against one fixed threshold,
``TRUNCATION_TOL = 1e-6``: the truncated coherent state must keep at least
``1 - TRUNCATION_TOL`` of its weight, and no evolved state may hold more than
``TRUNCATION_TOL`` of its population in the top two Fock levels. It is a
constant of this module, not of :mod:`entmono.linalg`, because it concerns
the cavity model rather than the input states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import DensityMatrix, DimensionMismatchError, PureState, _is_integer, zero_cutoff
from .monotones import tangle_lower_bound

TRUNCATION_TOL = 1e-6


class TruncationError(RuntimeError):
    """Raised when the Fock-space cutoff is too small for the requested run."""


def coherent_state(alpha: float, n_max: int) -> np.ndarray:
    """Truncated coherent-state amplitudes, renormalized.

    Amplitudes ``c_n = exp(-alpha^2 / 2) alpha^n / sqrt(n!)`` are evaluated
    in log space with ``lgamma``, so neither ``n!`` overflows at large ``n``
    nor ``exp(-alpha^2 / 2)`` underflows at large ``alpha``; ``alpha = 0``
    gives the vacuum exactly. Raises :class:`TruncationError` when the
    truncated weight falls below ``1 - TRUNCATION_TOL``.
    """
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha < 0:
        raise ValueError(f"alpha must be finite and >= 0, got {alpha}")
    if not _is_integer(n_max) or n_max < 0:
        raise ValueError(f"n_max must be a non-negative integer, got {n_max!r}")
    amps, weight = _truncated_coherent(alpha, int(n_max))
    if weight < 1.0 - TRUNCATION_TOL:
        raise TruncationError(
            f"coherent state with alpha={alpha} keeps only {weight:.8f} of its "
            f"weight below n_max={n_max}"
        )
    return amps / np.sqrt(weight)


def _truncated_coherent(alpha: float, n_max: int) -> tuple[np.ndarray, float]:
    """Amplitudes ``c_0 .. c_n_max`` of :func:`coherent_state` before
    renormalization, and the weight ``sum c_n^2`` they keep, for a valid
    ``alpha`` and ``n_max``."""
    n = np.arange(n_max + 1)
    if alpha == 0.0:
        amps = (n == 0).astype(np.float64)
    else:
        log_fact = np.array([math.lgamma(k + 1.0) for k in range(n_max + 1)])
        amps = np.exp(n * math.log(alpha) - 0.5 * alpha * alpha - 0.5 * log_fact)
    return amps, float(np.sum(amps * amps))


@dataclass(frozen=True)
class TcmConfig:
    """Run parameters: mean photon number, cutoff, time grid.

    ``t_grid`` holds effective times ``gt``; the coupling ``g`` sets only the
    unit of time, so it is not a parameter. ``nbar`` must be finite and
    ``>= 0``, and the cutoff must satisfy ``n_max >= nbar + 6 sqrt(nbar)``
    and keep at least ``1 - TRUNCATION_TOL`` of the initial coherent state's
    weight, the check of :func:`coherent_state`; the second rule rejects
    cutoffs the first accepts at small ``nbar`` (``nbar = 1, n_max = 7``;
    ``nbar = 4, n_max = 16``). The Fock-level leak check of :func:`evolve` is
    stricter still and depends on the time grid (at ``nbar = 100,
    n_max = 151`` the weight passes, the leak on the default grid fails), so
    :func:`run_trace` may raise :class:`TruncationError`.
    """

    nbar: float = 100.0
    n_max: int = 200
    t_grid: np.ndarray = field(default_factory=lambda: np.linspace(0.0, 50.0, 1000))

    def __post_init__(self):
        if not math.isfinite(self.nbar) or self.nbar < 0:
            raise ValueError(f"nbar must be finite and >= 0, got {self.nbar}")
        if not _is_integer(self.n_max) or self.n_max < 0:
            raise ValueError(f"n_max must be a non-negative integer, got {self.n_max!r}")
        if self.n_max < self.nbar + 6.0 * np.sqrt(self.nbar):
            raise ValueError(
                f"n_max={self.n_max} is inadequate for nbar={self.nbar}; "
                f"need at least {self.nbar + 6.0 * np.sqrt(self.nbar):.1f}"
            )
        weight = _truncated_coherent(float(np.sqrt(self.nbar)), int(self.n_max))[1]
        if weight < 1.0 - TRUNCATION_TOL:
            raise ValueError(
                f"n_max={self.n_max} keeps only {weight:.8f} of the coherent state's "
                f"weight for nbar={self.nbar}; need at least {1.0 - TRUNCATION_TOL:.8f}"
            )
        grid = np.asarray(self.t_grid, dtype=np.float64).reshape(-1)
        if grid.size == 0 or not np.all(np.isfinite(grid)) or grid[0] < 0:
            raise ValueError("t_grid must be non-empty, finite and non-negative")
        if grid.size > 1 and np.any(np.diff(grid) <= 0):
            raise ValueError("t_grid must be strictly increasing")
        grid = grid.copy()
        grid.flags.writeable = False
        object.__setattr__(self, "t_grid", grid)


def propagate(initial, n_max: int, t_grid) -> np.ndarray:
    """Evolve an arbitrary state of the 2 x 2 x (n_max + 1) space.

    ``t_grid`` is in effective-time units ``gt``. Returns the stack of
    states, shape ``(len(t_grid), 4 (n_max + 1))``. Exact: the ``n_max + 3``
    conserved-excitation blocks go through one batched eigendecomposition.
    Block ``e`` holds ``|s1, s2, n>`` for the atom levels (1,1), (1,0),
    (0,1), (0,0) with ``n = e - s1 - s2``, padded to 4 x 4 with decoupled,
    zero-amplitude entries where ``n`` falls outside ``[0, n_max]``.
    """
    fock = n_max + 1
    initial = np.asarray(initial, dtype=np.complex128).reshape(-1)
    if initial.size != 4 * fock:
        raise DimensionMismatchError(
            f"state has {initial.size} amplitudes, expected {4 * fock}"
        )
    t_grid = np.asarray(t_grid, dtype=np.float64).reshape(-1)
    n = np.arange(n_max + 3)[:, None] - np.array([2, 1, 1, 0])
    valid = (n >= 0) & (n <= n_max)
    flat = np.array([3, 2, 1, 0]) * fock + n  # row 2 s1 + s2 of the flat index
    h = np.zeros((n_max + 3, 4, 4))
    # a^dagger sigma_k^- lowers one atom and raises n - 1 to n: amplitude sqrt(n)
    h[:, 1, 0] = h[:, 2, 0] = np.sqrt(n[:, 1].clip(0)) * valid[:, 0] * valid[:, 1]
    h[:, 3, 1] = h[:, 3, 2] = np.sqrt(n[:, 3].clip(0)) * valid[:, 1] * valid[:, 3]
    w, vec = np.linalg.eigh(h, UPLO="L")
    v0 = np.where(valid, initial[flat.clip(0, 4 * fock - 1)], 0.0)
    coeff = vec * np.einsum("bik,bi->bk", vec, v0)[:, None, :]
    # perm[j]: position of flat index j among the raveled (block, level) entries
    perm = np.empty(4 * fock, dtype=np.intp)
    perm[flat[valid]] = np.flatnonzero(valid)
    out = np.empty((t_grid.size, 4 * fock), dtype=np.complex128)
    for k, t in enumerate(t_grid):  # per time point, so peak memory stays at ``out``
        blocks = np.einsum("bik,bk->bi", coeff, np.exp(-1j * t * w))
        np.take(blocks.reshape(-1), perm, out=out[k])
    return out


def evolve(cfg: TcmConfig) -> np.ndarray:
    """Evolve ``|e, e> (x) |alpha>`` over the effective times ``cfg.t_grid``.

    Returns the stack of total pure states. Raises
    :class:`TruncationError` if any output time leaks more than
    ``TRUNCATION_TOL`` population into the top two Fock levels.
    """
    fock = cfg.n_max + 1
    psi0 = np.zeros(4 * fock, dtype=np.complex128)
    psi0[3 * fock:] = coherent_state(np.sqrt(cfg.nbar), cfg.n_max)
    states = propagate(psi0, cfg.n_max, cfg.t_grid)
    top = states.reshape(-1, 4, fock)[:, :, fock - 2:]
    leak = float(np.max(np.sum(np.abs(top) ** 2, axis=(1, 2))))
    if leak > TRUNCATION_TOL:
        raise TruncationError(
            f"population {leak:.3e} in the top two Fock levels; raise n_max"
        )
    return states


def excitation_expectation(state, n_max: int) -> float:
    """Expectation of the conserved total excitation number."""
    fock = n_max + 1
    v = np.asarray(state, dtype=np.complex128).reshape(4, fock)
    weights = np.abs(v) ** 2
    atoms = np.array([0.0, 1.0, 1.0, 2.0])  # row 2 s1 + s2: gg, ge, eg, ee
    return float(weights.sum(axis=1) @ atoms + weights.sum(axis=0) @ np.arange(fock))


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

    Rank and purity come from the 2 x 2 Gram matrices of the atom-1 branches,
    which share the atom-field state's nonzero spectrum. Each atom-field state
    is the trusted Gram matrix ``f^T f^*`` of its branch factor ``f``, as in
    :func:`reduce_atom_field`, without that function's check of the total
    state: :func:`evolve` built it. Partial transposes go one point at a
    time, as stacking them needs O(nt n_max^2) memory.
    """
    states = evolve(cfg)
    branches = states.reshape(states.shape[0], 2, -1)
    gram = np.linalg.eigvalsh(branches @ branches.conj().transpose(0, 2, 1))
    rank = np.sum(gram > zero_cutoff(gram), axis=1)
    purity = np.sum(gram * gram, axis=1)
    dims = (2, cfg.n_max + 1)
    n2pt = np.array([tangle_lower_bound(DensityMatrix._from_psd(f.T @ f.conj(), dims))
                     for f in branches])
    return TcmTrace(gt=cfg.t_grid.copy(), n2pt=n2pt, rank_estimate=rank, purity=purity)
