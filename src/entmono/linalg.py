"""Dense complex linear algebra for bipartite quantum states.

Everything downstream (monotone evaluation, convex-roof search, the cavity
QED simulation) runs on the few primitives defined here: validated density
matrices and pure states tagged with subsystem dimensions ``(d_a, d_b)``,
Hermitian eigenvalues in descending order, the partial transpose and its
spectrum, Schmidt coefficients and the overlap with the maximally entangled state.

Inputs are validated once, at the API boundary: a state from a public
constructor is proof of its validity and is not checked again. The library
builds its own states from validated inputs in a form that is a state by
construction, through ``DensityMatrix._from_psd``, which checks nothing.

A typed partial transpose carries its state: :func:`partial_transpose`
returns a fresh, read-only array whose ``state`` attribute is ``rho``, and
:func:`hermitian_eigenvalues` answers it from the state's one
:func:`pt_spectrum`, so the state monotones and a p-sweep of
``monotone_report(partial_transpose(rho), p)`` share one eigensolve in
either order. Arrays derived from it (views, copies, arithmetic) are raw
matrices, checked and solved on every call, with no memory. A state keeps
only its spectrum.

Solver failures have one rule and one owner: every ``np.linalg`` routine the
library calls runs through the private ``_solve``, which raises LAPACK's
``LinAlgError`` as :class:`ConvergenceError`, naming the routine. The one
exception is the Cholesky factorisation in :class:`DensityMatrix`, where a
``LinAlgError`` is not a failure but the verdict "not positive definite".

Matrices are plain ``numpy`` arrays in row-major bipartite ordering: the
composite index of row ``(i, j)`` is ``i * d_b + j`` with ``i`` labelling
subsystem A and ``j`` labelling subsystem B.

The input-acceptance thresholds, the rule for which eigenvalues are zero and
the majorization tolerance are the fixed constants of this table; no call can
change them, and each rule is applied once, at its input's scale:

- ``HERM_TOL = 1e-8``: largest ``|a - a^H|`` entry, relative to the scale of
  :func:`assert_hermitian`: 1 for a density matrix, whose unit trace fixes its
  scale, and ``|a|_max`` for a raw matrix given to :func:`hermitian_eigenvalues`;
- ``TRACE_TOL = 1e-8``: largest miss of 1 by a density matrix's trace, a pure
  state's squared norm or an ensemble's probability sum;
- ``PSD_TOL = 1e-8``: largest negative eigenvalue magnitude of a density matrix,
  checked by a Cholesky factorisation of ``rho + PSD_TOL * I``; an eigenvalue
  is computed only when that factorisation fails, and decides;
- ``ZERO_EIG_TOL = 1e-10``: eigenvalues with ``|lambda| <= ZERO_EIG_TOL * |lambda|_max``
  are zero (:func:`zero_cutoff`), at every scale, for the negativity, the
  convex-roof null space and the cavity run's rank estimate alike;
- ``MAJ_TOL = 1e-12``: prefix sums compared by :mod:`entmono.majorization` may
  differ by ``MAJ_TOL * (|x|_1 + |y|_1)``, so its predicates are scale-free; a
  doubly stochastic row or column sum may miss 1 by ``MAJ_TOL * (|row|_1 + 1)``;
- ``ISOMETRY_TOL = 1e-10``: largest ``|u^H u - I|`` entry of a mixing matrix
  given to :func:`entmono.convex_roof.ensemble_from_unitary`.

The 1e-8 thresholds are loose because inputs arrive from file parsing or from
time evolution with accumulated round-off. The overlap with the maximally
entangled state needs no threshold: :func:`fidelity_max_entangled` returns
its real part, which is exactly the overlap with the Hermitian part of ``rho``.
"""

from __future__ import annotations

import sys

import numpy as np

HERM_TOL = 1e-8
TRACE_TOL = 1e-8
PSD_TOL = 1e-8
ZERO_EIG_TOL = 1e-10
MAJ_TOL = 1e-12
ISOMETRY_TOL = 1e-10


class NonHermitianError(ValueError):
    """Raised when a matrix violates the Hermiticity tolerance."""


class DimensionMismatchError(ValueError):
    """Raised when an array shape is inconsistent with the declared dims."""


class ConvergenceError(RuntimeError):
    """Raised when a LAPACK routine behind ``np.linalg`` fails to converge."""


def _as_float(x, name: str) -> float:
    """``float(x)``, refusing by name a number beyond the float range that is
    not a float, such as ``10**400``, on which ``float()`` raises
    ``OverflowError``; a float infinity is left to the caller's own rule."""
    if not isinstance(x, float) and abs(x) > sys.float_info.max:
        raise ValueError(f"{name} must be finite, got a number beyond the float range")
    return float(x)


def _finite_array(a, name: str, dtype=np.complex128) -> np.ndarray:
    """``np.asarray(a, dtype)`` with finite entries; an entry beyond the float
    range, on which numpy raises ``OverflowError``, is refused by name."""
    try:
        out = np.asarray(a, dtype=dtype)
    except OverflowError as exc:
        raise ValueError(f"{name} contains entries beyond the float range") from exc
    if not np.isfinite(out).all():
        raise ValueError(f"{name} contains non-finite entries")
    return out


def _as_square_matrix(a, name: str = "matrix") -> np.ndarray:
    out = _finite_array(a, name)
    if out.ndim != 2 or out.shape[0] != out.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got shape {out.shape}")
    return out


def _is_integer(x) -> bool:
    """True for Python and numpy integers; ``bool`` is not a count."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _check_order(p) -> float:
    """The order ``p`` of the monotone family as a float: finite and ``>= 1``."""
    p = _as_float(p, "p")
    if not 1.0 <= p < np.inf:  # false for nan
        raise ValueError(f"p must be a finite real number >= 1, got {p!r}")
    return p


def _check_dims(dims, size: int) -> tuple[int, int]:
    try:
        d_a, d_b = dims
    except (TypeError, ValueError):
        d_a = d_b = None
    if not (_is_integer(d_a) and _is_integer(d_b)):
        raise DimensionMismatchError(f"dims must be a pair of integers, got {dims!r}")
    d_a, d_b = int(d_a), int(d_b)
    if d_a < 1 or d_b < 1:
        raise DimensionMismatchError(f"subsystem dimensions must be positive, got {dims!r}")
    if d_a * d_b != size:
        raise DimensionMismatchError(
            f"dims {d_a}x{d_b} do not factor the array dimension {size}"
        )
    return d_a, d_b


def assert_hermitian(a: np.ndarray, scale: float = 1.0) -> None:
    """Raise :class:`NonHermitianError` unless ``max |a - a^H|`` is within
    ``HERM_TOL * scale``, with ``scale`` the size of ``a``'s entries."""
    d = np.conjugate(a.T, order="C")  # the one D x D temporary
    dev = np.abs(np.subtract(a, d, out=d)).max(initial=0.0)
    tol = HERM_TOL * scale
    if dev > tol:
        raise NonHermitianError(
            f"matrix deviates from Hermiticity by {dev:.3e} (tolerance {tol:.3e})"
        )


def zero_cutoff(w: np.ndarray) -> np.ndarray:
    """``ZERO_EIG_TOL`` times the spectral radius of ``w`` along its last axis,
    kept as a length-one axis so it broadcasts against ``w``; 0 if empty."""
    return ZERO_EIG_TOL * np.abs(w).max(axis=-1, keepdims=True, initial=0.0)


def hermitian_eigenvalues(a) -> np.ndarray:
    """All eigenvalues of a square matrix, Hermitian within ``HERM_TOL *
    |a|_max``, in descending order (degenerate ones in no order beyond the
    numeric sort). The rule is scale-free: ``c * a`` passes exactly when ``a``
    does, for every power of two ``c`` short of overflow and underflow.

    A raw matrix is checked and solved on every call, with no memory, so a
    p-sweep over one solves it once per ``p``. The typed array
    :func:`partial_transpose` returns is not raw: it carries its state, and
    its spectrum is the state's one :func:`pt_spectrum`, returned as a fresh
    copy. The raw Hermiticity rule is applied to it once per state, and if
    the state has no spectrum yet, this array is the one solved. So a p-sweep
    through ``monotone_report(partial_transpose(rho), p)``, as the dense
    benchmark workloads run, and ``rho``'s state monotones, in either order,
    cost one eigensolve. Views, copies and arithmetic results of that array
    carry no state and are raw matrices."""
    rho = a.state if isinstance(a, _PartialTranspose) else None
    if rho is None or not rho._pt_raw_ok:
        a = _as_square_matrix(a)  # a plain array: ufuncs on the subclass cost more
        assert_hermitian(a, np.abs(a).max(initial=0.0))
        if rho is None:
            return _eigvalsh_descending(a)
        rho._pt_raw_ok = True
    return _kept_spectrum(rho, a).copy()


def _solve(routine, *args, **kwargs):
    """``routine(*args, **kwargs)`` for a ``np.linalg`` routine, its
    ``LinAlgError`` raised as :class:`ConvergenceError`."""
    try:
        return routine(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"{routine.__name__} failed: {exc}") from exc


def _eigvalsh_descending(a: np.ndarray) -> np.ndarray:
    return _solve(np.linalg.eigvalsh, a)[::-1].copy()  # LAPACK returns them ascending


class DensityMatrix:
    """Bipartite density matrix together with its subsystem dimensions.

    ``mat`` is a square complex matrix of dimension ``d_a * d_b`` for
    ``dims = (d_a, d_b)``. The constructor validates finiteness, the dims,
    Hermiticity, unit trace and positive semidefiniteness against the module's
    fixed thresholds and stores a read-only copy, so instances are immutable
    and safe to share across threads; functions that take one trust these
    checks. ``_from_psd`` trusts its caller instead: it serves
    :meth:`PureState.to_density`, :func:`entmono.tcm.reduce_atom_field`,
    :func:`entmono.tcm.run_trace` and :func:`entmono.states.isotropic_state`,
    which each build a fresh Gram matrix or mixture from a validated vector,
    an evolved state or ``(d, F)``.

    :func:`pt_spectrum` keeps the partial-transpose spectrum on the instance,
    read-only, the first time it is asked for, so every state monotone of one
    state shares one eigensolve. Two threads that race on the first call each
    compute the same read-only array, and one of them is kept. The partial
    transpose itself is not kept.
    """

    _pt_spectrum = _pt_raw_ok = None  # unset until first asked for

    def __init__(self, mat, dims):
        mat = _as_square_matrix(mat, "density matrix")
        dims = _check_dims(dims, mat.shape[0])
        assert_hermitian(mat)
        tr = mat.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {tr:.12g} is not 1 within {TRACE_TOL:g}")
        shifted = mat.copy()
        shifted.flat[:: mat.shape[0] + 1] += PSD_TOL
        try:
            np.linalg.cholesky(shifted)  # reads the lower triangle, as eigvalsh does
        except np.linalg.LinAlgError:
            w = _eigvalsh_descending(mat)
            if w[-1] < -PSD_TOL:
                raise ValueError(
                    f"density matrix has eigenvalue {w[-1]:.3e} below -PSD_TOL ({-PSD_TOL:g})"
                ) from None
        mat = mat.copy()
        mat.flags.writeable = False
        self.mat, self.dims = mat, dims

    @classmethod
    def _from_psd(cls, mat: np.ndarray, dims: tuple[int, int]) -> "DensityMatrix":
        """Trusted state from a fresh array its caller built from validated inputs."""
        rho = cls.__new__(cls)
        mat.flags.writeable = False
        rho.mat, rho.dims = mat, dims
        return rho

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim}, dims={self.dims})"


class PureState:
    """Bipartite pure state vector with subsystem dimensions ``(d_a, d_b)``.

    The amplitude vector is stored read-only. Its squared norm, the trace of
    :meth:`to_density`, must be 1 within ``TRACE_TOL``.
    """

    def __init__(self, vec, dims):
        vec = _finite_array(vec, "state vector").reshape(-1)
        self.dims = _check_dims(dims, vec.size)
        nrm2 = np.vdot(vec, vec).real
        if abs(nrm2 - 1.0) > TRACE_TOL:
            raise ValueError(
                f"state vector squared norm {nrm2:.12g}, the trace of its density "
                f"matrix, is not 1 within {TRACE_TOL:g}"
            )
        vec = vec.copy()
        vec.flags.writeable = False
        self.vec = vec

    @property
    def dim(self) -> int:
        return self.vec.size

    def to_density(self) -> DensityMatrix:
        """Rank-one density matrix ``|psi><psi|`` with the same dims."""
        f = self.vec[None, :]
        return DensityMatrix._from_psd(f.T @ f.conj(), self.dims)

    def __repr__(self) -> str:
        return f"PureState(dim={self.dim}, dims={self.dims})"


def partial_transpose(rho: DensityMatrix) -> np.ndarray:
    """Transpose the B factor of a bipartite density matrix.

    The entry at row ``(i, j)``, column ``(k, l)`` of the output equals
    ``rho.mat[(i, l), (k, j)]``. The A-side partial transpose is the full
    transpose of this result, so it has the same spectrum and gives the same
    monotones. This involution preserves trace and Hermiticity but not
    positivity, which is what the entanglement monotones probe.

    Each call returns a fresh, read-only array whose ``state`` attribute is
    ``rho`` (take a ``.copy()`` to edit it), so :func:`hermitian_eigenvalues`
    answers it from the state's one :func:`pt_spectrum`. Arrays derived from
    it carry no state.
    """
    pt = _transpose_b(rho).view(_PartialTranspose)
    pt.flags.writeable = False
    pt.state = rho
    return pt


def _transpose_b(rho: DensityMatrix) -> np.ndarray:
    # axes (i, j, k, l) of shape dims * 2; reshaping the permuted axes copies them
    return rho.mat.reshape(rho.dims * 2).transpose(0, 3, 2, 1).reshape(rho.mat.shape)


class _PartialTranspose(np.ndarray):
    """The partial transpose of ``state``. Views, copies and arithmetic
    results are of this type too, but with the class default ``state = None``:
    they are raw matrices."""

    state = None


def pt_spectrum(rho: DensityMatrix) -> np.ndarray:
    """Eigenvalues of :func:`partial_transpose` of ``rho``, descending, as a
    read-only array. At most one eigensolve per state, on the first call, and
    kept on ``rho``, and no second check: the transpose permutes entries, so
    it keeps the validated state's trace and largest ``|a - a^H|`` entry
    exactly.

    It solves a transient partial transpose and keeps only the spectrum, so
    a program that only asks for state monotones, such as
    :func:`entmono.tcm.run_trace`, holds nothing extra per state."""
    return _kept_spectrum(rho, None)


def _kept_spectrum(rho: DensityMatrix, pt) -> np.ndarray:
    """``rho``'s kept spectrum; on the first call, the spectrum of ``pt``, the
    partial transpose of ``rho``, or of a transient one if ``None``."""
    w = rho._pt_spectrum
    if w is None:
        w = _eigvalsh_descending(_transpose_b(rho) if pt is None else pt)
        w.flags.writeable = False
        rho._pt_spectrum = w
    return w


def schmidt_coefficients(psi: PureState) -> np.ndarray:
    """Schmidt coefficients of a bipartite pure state, descending: the
    ``min(d_a, d_b)`` singular values of its ``d_a x d_b`` amplitude matrix,
    non-negative, their squares summing to one. Every pure-state value the
    library reports is computed from these values."""
    return _solve(np.linalg.svd, psi.vec.reshape(psi.dims), compute_uv=False)


def max_entangled_vector(d: int) -> np.ndarray:
    """Amplitudes of the maximally entangled state on a ``d x d`` system;
    ``d`` is validated by its callers in :mod:`entmono.states`."""
    vec = np.zeros(d * d, dtype=np.complex128)
    vec[:: d + 1] = 1.0 / np.sqrt(d)
    return vec


def fidelity_max_entangled(rho: DensityMatrix) -> float:
    """Overlap of ``rho`` with the maximally entangled state, in ``[0, 1]``.

    Requires equal subsystem dimensions. Returns the real part, clamped to
    ``[0, 1]``: the overlap with the Hermitian part ``(rho + rho^H) / 2``, so
    the Hermiticity skew a valid state may carry does not matter.
    """
    d_a, d_b = rho.dims
    if d_a != d_b:
        raise DimensionMismatchError(
            f"maximally entangled overlap needs d_a == d_b, got {rho.dims}"
        )
    idx = np.arange(d_a) * (d_a + 1)
    val = rho.mat[np.ix_(idx, idx)].sum() / d_a
    return float(min(max(val.real, 0.0), 1.0))
