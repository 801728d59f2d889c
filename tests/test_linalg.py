import sys
import threading
import tracemalloc

import numpy as np
import pytest
from conftest import random_density, random_hermitian, random_pure
from hypothesis import given, settings
from hypothesis import strategies as st

from entmono import (
    DensityMatrix,
    DimensionMismatchError,
    Ensemble,
    NonHermitianError,
    PureState,
    RoofConfig,
    TcmConfig,
    average_objective,
    concurrence_lower_bound,
    ensemble_from_unitary,
    evolve,
    fidelity_max_entangled,
    hermitian_eigenvalues,
    isotropic_state,
    minimize_roof,
    monotone_report,
    neg_pnorm,
    negativity,
    partial_transpose,
    pt_spectrum,
    pure_concurrence,
    reduce_atom_field,
    run_trace,
    schmidt_coefficients,
    tangle_lower_bound,
)
from entmono import linalg, monotones, tcm
from entmono.linalg import (
    HERM_TOL,
    PSD_TOL,
    TRACE_TOL,
    ConvergenceError,
    _eigvalsh_descending,
    max_entangled_vector,
)


def char_poly_roots_3x3(a):
    """Independent oracle: roots of the characteristic cubic
    lam^3 - c2 lam^2 + c1 lam - c0 by the trigonometric method, with the
    coefficients assembled from traces and the explicit 3x3 determinant."""
    a = np.asarray(a, complex)
    c2 = np.trace(a).real
    c1 = 0.5 * (c2 * c2 - np.trace(a @ a).real)
    m = a
    c0 = (
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        - m[0, 1] * (m[1, 0] * m[2, 2] - m[1, 2] * m[2, 0])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    ).real
    p = c1 - c2 * c2 / 3.0
    q = -2.0 * c2**3 / 27.0 + c2 * c1 / 3.0 - c0
    if abs(p) < 1e-30:
        t = np.full(3, np.cbrt(-q))
    else:
        arg = np.clip(3.0 * q / (2.0 * p) * np.sqrt(-3.0 / p), -1.0, 1.0)
        t = 2.0 * np.sqrt(-p / 3.0) * np.cos(
            np.arccos(arg) / 3.0 - 2.0 * np.pi * np.arange(3) / 3.0
        )
    return np.sort(t + c2 / 3.0)[::-1]


class TestHermitianEigenvalues:
    def test_identity(self):
        assert np.allclose(hermitian_eigenvalues(np.eye(2)), [1.0, 1.0])

    def test_off_diagonal(self):
        w = hermitian_eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(w, [1.0, -1.0])

    def test_fixed_3x3_against_cubic_oracle(self):
        rng = np.random.default_rng(314159)
        z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a = (z + z.conj().T) / 2
        # frozen values computed with char_poly_roots_3x3 for this matrix
        frozen = [3.0284133872632775, 0.37215345230899655, -1.5693603078457246]
        assert np.allclose(char_poly_roots_3x3(a), frozen, atol=1e-12)
        assert np.allclose(hermitian_eigenvalues(a), frozen, atol=1e-12)

    def test_random_3x3_against_cubic_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a = random_hermitian(rng, 3, scale=rng.uniform(0.1, 5.0))
            assert np.allclose(
                hermitian_eigenvalues(a), char_poly_roots_3x3(a), atol=1e-10
            )

    def test_sum_equals_trace(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            n = int(rng.integers(2, 41))
            a = random_hermitian(rng, n)
            w = hermitian_eigenvalues(a)
            assert w.shape == (n,)
            assert np.all(np.diff(w) <= 0)
            assert abs(w.sum() - np.trace(a).real) <= 1e-10 * n * max(
                1.0, np.abs(w).max()
            )

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianError):
            hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatchError):
            hermitian_eigenvalues(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            hermitian_eigenvalues(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestScaleFreeHermiticity:
    """A raw matrix is judged Hermitian at its own scale, ``HERM_TOL * |a|_max``."""

    @staticmethod
    def _accepts(a):
        try:
            hermitian_eigenvalues(a)
        except NonHermitianError:
            return False
        return True

    @settings(derandomize=True, database=None, max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.sampled_from([1e-10, 1e-7]))
    def test_scaling_keeps_the_answer(self, seed, n, rel):
        rng = np.random.default_rng(seed)
        h = random_hermitian(rng, n)
        z = random_hermitian(rng, n) * 1j  # anti-Hermitian skew
        m = h + rel * np.abs(h).max() * z / np.abs(z).max()
        accepted = self._accepts(m)
        assert accepted == (rel < HERM_TOL)
        flips = [k for k in range(-60, 61) if self._accepts(2.0**k * m) != accepted]
        assert flips == []

    def test_tiny_non_hermitian_matrix_is_rejected(self):
        with pytest.raises(NonHermitianError):
            hermitian_eigenvalues(np.array([[0.0, 1e-10], [0.0, 0.0]]))

    def test_deviation_is_the_plain_abs_max(self, monkeypatch):
        # with HERM_TOL = 1 the tolerance is the scale itself, so a scale equal
        # to np.abs(a - a.conj().T).max() passes and the next float below fails
        # only if the in-place scan finds that deviation bit for bit
        monkeypatch.setattr(linalg, "HERM_TOL", 1.0)
        rng = np.random.default_rng(41)
        for n in (1, 2, 3, 8, 31, 64):
            h = random_hermitian(rng, n)
            skew = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            a = h + 10.0 ** rng.uniform(-12, 0) * skew
            dev = np.abs(a - a.conj().T).max()
            linalg.assert_hermitian(a, dev)
            with pytest.raises(NonHermitianError):
                linalg.assert_hermitian(a, np.nextafter(dev, 0.0))


class TestPartialTranspose:
    def test_product_state_stays_psd(self):
        rng = np.random.default_rng(3)
        for d_a, d_b in ((2, 2), (2, 3), (3, 4)):
            rho_a = random_density(rng, 1, d_a).mat
            rho_b = random_density(rng, 1, d_b).mat
            rho = DensityMatrix(np.kron(rho_a, rho_b), (d_a, d_b))
            pt = partial_transpose(rho)
            assert np.allclose(pt, np.kron(rho_a, rho_b.T))
            w = hermitian_eigenvalues(pt)
            assert w.min() > -1e-12
            # same spectrum as the original for a product state
            assert np.allclose(w, hermitian_eigenvalues(rho.mat), atol=1e-10)

    def test_bell_spectrum(self):
        bell = PureState(np.array([1, 0, 0, 1]) / np.sqrt(2), (2, 2))
        w = hermitian_eigenvalues(partial_transpose(bell.to_density()))
        assert np.allclose(w, [0.5, 0.5, 0.5, -0.5], atol=1e-12)

    def test_involution_is_exact(self):
        # Documented entry permutation: row (i, j), column (k, l) maps to
        # mat[(i, l), (k, j)]. A product state's partial transpose is again a
        # state, so it can be transposed back.
        rng = np.random.default_rng(5)
        for d_a, d_b in ((2, 2), (2, 5), (3, 3)):
            rho = random_density(rng, d_a, d_b)
            r4 = rho.mat.reshape(d_a, d_b, d_a, d_b)
            pt = partial_transpose(rho).reshape(d_a, d_b, d_a, d_b)
            for i, j, k, l in np.ndindex(d_a, d_b, d_a, d_b):
                assert pt[i, j, k, l] == r4[i, l, k, j]
            prod = DensityMatrix(
                np.kron(random_density(rng, 1, d_a).mat, random_density(rng, 1, d_b).mat),
                (d_a, d_b),
            )
            pt = DensityMatrix(partial_transpose(prod), prod.dims)
            assert np.array_equal(partial_transpose(pt), prod.mat)

    def test_preserves_trace_and_hermiticity(self):
        rng = np.random.default_rng(6)
        rho = random_density(rng, 3, 4)
        pt = partial_transpose(rho)
        assert abs(np.trace(pt) - 1.0) < 1e-12
        assert np.abs(pt - pt.conj().T).max() < 1e-12

    # The premise of pt_spectrum: the partial transpose permutes entries, so
    # the trace and the Hermiticity deviation checked on the state carry over
    # exactly, even for a state that is Hermitian only within HERM_TOL.
    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1),
           st.floats(0.0, 0.4))
    def test_keeps_trace_and_hermiticity_deviation_exactly(self, d_a, d_b, seed, skew):
        rng = np.random.default_rng(seed)
        z = random_hermitian(rng, d_a * d_b) * 1j  # anti-Hermitian perturbation
        np.fill_diagonal(z, 0.0)  # keeps the trace real and within TRACE_TOL
        mat = random_density(rng, d_a, d_b).mat + skew * HERM_TOL * z / max(np.abs(z).max(), 1.0)
        rho = DensityMatrix(mat, (d_a, d_b))
        pt = partial_transpose(rho)
        assert np.trace(pt) == np.trace(rho.mat)
        assert np.abs(pt - pt.conj().T).max() == np.abs(rho.mat - rho.mat.conj().T).max()


class TestPtSpectrum:
    DIMS = ((2, 2), (2, 3), (3, 2), (3, 3), (2, 5), (4, 3), (3, 4))

    @pytest.mark.parametrize("rank", [1, 2, None])
    def test_bitwise_equal_to_checked_path(self, rank):
        rng = np.random.default_rng(40 + (rank or 0))
        for d_a, d_b in self.DIMS:
            rho = random_density(rng, d_a, d_b, rank=rank)
            expect = hermitian_eigenvalues(partial_transpose(rho))
            w = pt_spectrum(rho)
            assert w.dtype == expect.dtype and np.array_equal(w, expect)
            assert np.all(np.diff(w) <= 0)

    def test_pure_and_isotropic_states(self):
        rng = np.random.default_rng(47)
        for rho in (random_pure(rng, 3, 4).to_density(), isotropic_state(3, 0.8)):
            assert np.array_equal(
                pt_spectrum(rho), hermitian_eigenvalues(partial_transpose(rho))
            )


class TestSchmidtCoefficients:
    def test_product_state(self):
        psi = PureState([1, 0, 0, 0], (2, 2))
        assert np.allclose(schmidt_coefficients(psi), [1.0, 0.0], atol=1e-12)

    def test_bell_state(self):
        psi = PureState(np.array([1, 0, 0, 1]) / np.sqrt(2), (2, 2))
        assert np.allclose(schmidt_coefficients(psi), [1, 1] / np.sqrt(2))

    def test_against_reduced_density_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            psi = random_pure(rng, 3, 4)
            c = schmidt_coefficients(psi)
            # independent path: full projector, explicit partial trace over B
            proj = np.outer(psi.vec, psi.vec.conj()).reshape(3, 4, 3, 4)
            red = np.einsum("ijkj->ik", proj)
            expect = np.sqrt(np.clip(np.linalg.eigvalsh(red)[::-1], 0, None))
            assert c.shape == (3,)
            assert np.all(np.diff(c) <= 1e-15)
            assert abs(np.sum(c**2) - 1.0) < 1e-10
            assert np.allclose(c, expect, atol=1e-10)

    def test_wide_and_tall_agree(self):
        rng = np.random.default_rng(22)
        v = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        v /= np.linalg.norm(v)
        tall = schmidt_coefficients(PureState(v, (4, 3)))
        wide = schmidt_coefficients(PureState(v, (3, 4)))
        assert tall.shape == wide.shape == (3,)


class TestFidelityMaxEntangled:
    def test_maximally_mixed(self):
        for d in (2, 3, 5):
            rho = DensityMatrix(np.eye(d * d) / (d * d), (d, d))
            assert abs(fidelity_max_entangled(rho) - 1.0 / (d * d)) < 1e-12

    def test_self_overlap(self):
        for d in (2, 4):
            vec = max_entangled_vector(d)
            rho = DensityMatrix(np.outer(vec, vec.conj()), (d, d))
            assert abs(fidelity_max_entangled(rho) - 1.0) < 1e-12

    def test_isotropic_round_trip(self):
        assert abs(fidelity_max_entangled(isotropic_state(3, 0.7)) - 0.7) < 1e-12

    def test_real_part_of_a_skewed_state(self):
        # skew 9.8e-9 is within HERM_TOL, but the raw overlap has imaginary part 1.47e-8
        d = 4
        mat = isotropic_state(d, 0.7).mat.copy()
        idx = np.arange(d) * (d + 1)
        mat[np.ix_(idx, idx)] += 4.9e-9j * (1.0 - np.eye(d))
        rho = DensityMatrix(mat, (d, d))
        assert abs(fidelity_max_entangled(rho) - 0.7) < 1e-12

    def test_rejects_rectangular(self):
        rng = np.random.default_rng(12)
        with pytest.raises(DimensionMismatchError):
            fidelity_max_entangled(random_density(rng, 2, 3))


class TestStateValidation:
    def test_density_requires_unit_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(4), (2, 2))

    def test_density_requires_psd(self):
        mat = np.diag([1.5, -0.5, 0.0, 0.0])
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix(mat, (2, 2))

    def test_density_requires_hermitian(self):
        mat = np.eye(4) / 4.0
        mat[0, 1] = 0.2
        with pytest.raises(NonHermitianError):
            DensityMatrix(mat, (2, 2))

    def test_dims_must_factor_size(self):
        with pytest.raises(DimensionMismatchError):
            DensityMatrix(np.eye(4) / 4.0, (2, 3))
        with pytest.raises(DimensionMismatchError):
            PureState([1, 0, 0, 0], (3, 2))

    @pytest.mark.parametrize("dims", [(2.9, 2), (True, 4), (2, 2.0), (2, 2, 1), 4, "22"])
    def test_dims_must_be_integer_pair(self, dims):
        with pytest.raises(DimensionMismatchError, match="dims"):
            DensityMatrix(np.eye(4) / 4.0, dims)
        with pytest.raises(DimensionMismatchError, match="dims"):
            PureState([1, 0, 0, 0], dims)

    def test_numpy_integer_dims(self):
        rho = DensityMatrix(np.eye(4) / 4.0, (np.int64(2), np.int32(2)))
        psi = PureState([1, 0, 0, 0], np.array([1, 4]))
        assert rho.dims == (2, 2) and psi.dims == (1, 4)
        assert all(type(d) is int for d in rho.dims + psi.dims)

    def test_pure_requires_normalization(self):
        with pytest.raises(ValueError, match="norm"):
            PureState([1, 1, 0, 0], (2, 2))

    def test_values_are_immutable(self):
        rng = np.random.default_rng(13)
        rho = random_density(rng, 2, 2)
        with pytest.raises(ValueError):
            rho.mat[0, 0] = 0.0
        psi = random_pure(rng, 2, 2)
        with pytest.raises(ValueError):
            psi.vec[0] = 0.0
        with pytest.raises(ValueError):
            psi.to_density().mat[0, 0] = 0.0

    def test_trace_tolerance_is_fixed(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(4) * (1.0 + 1e-6) / 4.0, (2, 2))
        DensityMatrix(np.eye(4) * (1.0 + TRACE_TOL / 2) / 4.0, (2, 2))

    @pytest.mark.parametrize("offset", [-0.4e-8, 0.4e-8])
    def test_pure_norm_within_tolerance_gives_valid_density(self, offset):
        v = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0) * (1.0 + offset)
        rho = PureState(v, (2, 2)).to_density()
        assert abs(np.trace(rho.mat).real - 1.0) < 1e-8

    @pytest.mark.parametrize("offset", [-0.9e-8, 0.9e-8])
    def test_pure_norm_checked_as_trace(self, offset):
        # |v| is within 1e-8 of 1, but |v|^2, the trace of to_density(), is not
        v = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0) * (1.0 + offset)
        with pytest.raises(ValueError, match="norm"):
            PureState(v, (2, 2))


def test_eigensolver_failure_is_a_convergence_error(monkeypatch):
    rng = np.random.default_rng(60)
    rho, psi = random_density(rng, 2, 3), random_pure(rng, 2, 3)

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    def not_positive(a):  # sends the constructor on to the eigensolve
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    # solve another matrix first, so that no spectrum of rho.mat remembered by
    # an earlier test can answer hermitian_eigenvalues below
    hermitian_eigenvalues(np.eye(1))
    cfg = TcmConfig(nbar=1.0, n_max=12, t_grid=np.array([0.0, 1.0]))
    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    monkeypatch.setattr(np.linalg, "eigh", fail)
    monkeypatch.setattr(np.linalg, "svd", fail)
    monkeypatch.setattr(np.linalg, "cholesky", not_positive)
    calls = [
        lambda: DensityMatrix(rho.mat, rho.dims),
        lambda: schmidt_coefficients(psi),
        lambda: pure_concurrence(psi),
        lambda: average_objective(Ensemble([1.0], [psi])),
        lambda: hermitian_eigenvalues(rho.mat),
        lambda: pt_spectrum(rho),
        lambda: minimize_roof(rho, RoofConfig(restarts=1, max_iters=10)),
        lambda: ensemble_from_unitary(rho, np.eye(6)),
        lambda: run_trace(cfg),
    ]
    for call in calls:
        with pytest.raises(ConvergenceError, match="did not converge"):
            call()


class TestCholeskyPositivity:
    """The constructor's Cholesky check of ``rho + PSD_TOL I`` gives the verdict
    of the eigenvalue rule ``w[-1] < -PSD_TOL`` away from its rounding band."""

    @staticmethod
    def state_with_min_eigenvalue(rng, dim, lam_min):
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        w = rng.uniform(0.1, 1.0, dim)
        w[0] = 0.0
        w *= (1.0 - lam_min) / w.sum()
        w[0] = lam_min
        mat = (q * w) @ q.conj().T
        return (mat + mat.conj().T) / 2.0

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(st.integers(1, 8), st.integers(2, 8), st.integers(0, 2**32 - 1),
           st.sampled_from([1e-1, 1e-3]), st.sampled_from([-1.0, 1.0]))
    def test_verdict_of_the_eigenvalue_rule(self, d_a, d_b, seed, delta, sign):
        rng = np.random.default_rng(seed)
        mat = self.state_with_min_eigenvalue(rng, d_a * d_b, -PSD_TOL * (1.0 + sign * delta))
        lowest = _eigvalsh_descending(mat)[-1]
        if lowest < -PSD_TOL:
            with pytest.raises(ValueError, match=f"eigenvalue {lowest:.3e} below -PSD_TOL"):
                DensityMatrix(mat, (d_a, d_b))
        else:
            DensityMatrix(mat, (d_a, d_b))
        assert (lowest < -PSD_TOL) == (sign > 0)  # both sides of the rule are exercised

    @pytest.mark.parametrize("rank", [1, 2])
    def test_low_rank_and_skewed_states_pass(self, rank):
        rng = np.random.default_rng(70 + rank)
        for d_a, d_b in ((2, 2), (3, 5), (8, 8)):
            mat = random_density(rng, d_a, d_b, rank=rank).mat.copy()
            DensityMatrix(mat, (d_a, d_b))
            mat[1, 0] += 0.4j * HERM_TOL  # skew read by the factorisation
            mat[0, 1] -= 0.5 * HERM_TOL  # skew it does not read
            rho = DensityMatrix(mat, (d_a, d_b))
            assert np.array_equal(rho.mat, mat)


@pytest.fixture
def solves(monkeypatch):
    """Shapes of the ``np.linalg.eigvalsh`` calls made after it."""
    calls = []
    solve = np.linalg.eigvalsh

    def counting(a):
        calls.append(a.shape)
        return solve(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    return calls


class TestOneEigensolvePerState:
    """Counts ``np.linalg.eigvalsh`` calls: none to build a valid state, one
    for all its state monotones together."""

    def test_no_eigensolve_to_build_a_valid_state(self, solves):
        rng = np.random.default_rng(80)
        for rank in (1, 2, None):
            rho = random_density(rng, 3, 4, rank=rank)
            DensityMatrix(rho.mat, rho.dims)
        assert solves == []

    def test_one_eigensolve_for_every_state_monotone(self, solves):
        rng = np.random.default_rng(81)
        built = [random_pure(rng, 2, 3).to_density(), isotropic_state(3, 0.7),
                 random_density(rng, 3, 3), random_density(rng, 2, 4, rank=2)]
        assert solves == []
        for rho in built:
            del solves[:]
            negativity(rho), concurrence_lower_bound(rho), tangle_lower_bound(rho)
            pt_spectrum(rho)
            assert solves == [rho.mat.shape]


    def test_kept_spectrum_is_read_only_and_bitwise_the_eigensolve(self):
        rng = np.random.default_rng(82)
        for rho in (random_density(rng, 3, 4), random_pure(rng, 2, 5).to_density(),
                    isotropic_state(4, 0.6)):
            w = pt_spectrum(rho)
            assert not w.flags.writeable
            with pytest.raises(ValueError):
                w[0] = 0.0
            assert pt_spectrum(rho) is w
            expect = _eigvalsh_descending(partial_transpose(rho))
            assert w.dtype == expect.dtype and np.array_equal(w, expect)


class TestLastRawSpectrum:
    """``hermitian_eigenvalues`` answers the partial transpose kept on a state
    from that state's one spectrum, so a p-sweep on it is one eigensolve, and
    checks and solves any other matrix on every call."""

    def test_p_sweep_on_one_matrix_is_one_eigensolve(self, solves):
        rho = isotropic_state(3, 0.7)
        for p in (1.0, 2.0, 3.0):
            monotone_report(partial_transpose(rho), p)
        neg_pnorm(partial_transpose(rho), 1.5)
        hermitian_eigenvalues(partial_transpose(rho))
        assert solves == [(9, 9)]

    def test_in_place_edit_is_solved_again(self, solves):
        a = random_hermitian(np.random.default_rng(90), 5)
        before = hermitian_eigenvalues(a)
        a[0, 0] += 1.0
        after = hermitian_eigenvalues(a)
        assert len(solves) == 2
        assert np.array_equal(after, _eigvalsh_descending(a))
        assert not np.array_equal(after, before)

    def test_editing_a_result_does_not_change_the_next(self, solves):
        # a raw matrix is solved on every call; a kept partial transpose once
        rng = np.random.default_rng(91)
        rho = random_density(rng, 2, 3)
        for a, count in ((random_hermitian(rng, 6), 3), (partial_transpose(rho), 1)):
            del solves[:]
            w = hermitian_eigenvalues(a)
            expect = w.copy()
            assert w.flags.writeable
            w[:] = 0.0
            again = hermitian_eigenvalues(a)
            assert again is not w and np.array_equal(again, expect)
            again[0] = -1.0
            assert np.array_equal(hermitian_eigenvalues(a), expect)
            assert len(solves) == count

    def test_invalid_input_raises_on_every_call(self, solves):
        skewed = np.array([[0.0, 1.0], [0.0, 0.0]])
        for _ in range(3):
            with pytest.raises(NonHermitianError):
                hermitian_eigenvalues(skewed)
            with pytest.raises(NonHermitianError):
                monotone_report(skewed, 2.0)
        assert solves == []

    def test_transposed_view_is_solved_as_its_content(self, solves):
        rng = np.random.default_rng(92)
        for n in (2, 7, 16):
            a = random_hermitian(rng, n)
            view = a.T  # conj(a): the same spectrum, not C-contiguous
            assert not view.flags.c_contiguous
            del solves[:]
            w = hermitian_eigenvalues(view)
            same = hermitian_eigenvalues(np.ascontiguousarray(view))
            assert len(solves) == 2
            assert np.array_equal(w, _eigvalsh_descending(view)) and np.array_equal(same, w)
            assert np.allclose(w, _eigvalsh_descending(a), rtol=0, atol=1e-13 * n)

    @settings(derandomize=True, database=None, max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 24), st.booleans())
    def test_hits_and_misses_are_bitwise_the_eigensolve(self, seed, n, transposed):
        rng = np.random.default_rng(seed)
        a = random_hermitian(rng, n, scale=10.0 ** rng.uniform(-100, 100))
        if transposed:
            a = a.T
        expect = _eigvalsh_descending(a)
        neg = expect[expect < -linalg.zero_cutoff(expect)]
        for _ in range(3):
            w = hermitian_eigenvalues(a)
            assert w.dtype == expect.dtype and np.array_equal(w, expect)
            assert np.array_equal(monotone_report(a, 2.0).negative_eigenvalues, neg)

    def test_threads_sharing_the_memory_get_their_own_spectra(self):
        # more threads than cores, switching often, all cycling through the
        # same few matrices out of step, raw matrices and the partial
        # transposes of states of the same size, each state also asked for
        # its own spectrum afresh: a key ever paired with another matrix's
        # spectrum would hand some call a wrong result
        rng = np.random.default_rng(93)
        states = [random_density(rng, 6, 8) for _ in range(3)]
        mats = [random_hermitian(rng, 48) for _ in range(3)]
        mats += [partial_transpose(rho) for rho in states]
        expect = [_eigvalsh_descending(a) for a in mats]
        wrong = []

        def work(i):
            for k in range(300):
                j = (i + k) % len(mats)
                if not np.array_equal(hermitian_eigenvalues(mats[j]), expect[j]):
                    wrong.append(j)
                s = (i + 2 * k) % len(states)
                fresh = DensityMatrix._from_psd(states[s].mat.copy(), states[s].dims)
                if not np.array_equal(pt_spectrum(fresh), expect[3 + s]):
                    wrong.append(3 + s)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []


class TestStateReadsRawSpectrum:
    """The raw path and the state monotones share a state's one spectrum
    through the partial transpose kept on it; a copy of that array, edited or
    not, is a raw matrix like any other."""

    DIMS = ((2, 2), (2, 3), (3, 3), (2, 5), (2, 8), (4, 4), (3, 6), (4, 5),
            (3, 8), (5, 5), (4, 8), (6, 6), (5, 8), (7, 7), (4, 16), (8, 8))

    def test_raw_sweep_then_state_monotones_is_one_eigensolve(self, solves):
        rng = np.random.default_rng(100)
        for d_a, d_b in self.DIMS:
            rho = random_density(rng, d_a, d_b)
            del solves[:]
            for p in (1.0, 2.0, 3.0):
                monotone_report(partial_transpose(rho), p)
            negativity(rho), concurrence_lower_bound(rho), tangle_lower_bound(rho)
            assert solves == [rho.mat.shape]

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 6), st.booleans())
    def test_taken_over_spectrum_is_bitwise_the_eigensolve(self, seed, d_a, d_b, full):
        rng = np.random.default_rng(seed)
        rho = random_density(rng, d_a, d_b, rank=None if full else 1)
        raw = hermitian_eigenvalues(partial_transpose(rho))
        w = pt_spectrum(rho)
        assert w is rho._pt_spectrum  # the one spectrum the raw call solved
        assert not w.flags.writeable
        assert raw is not w and raw.flags.writeable and np.array_equal(raw, w)
        expect = _eigvalsh_descending(partial_transpose(rho).copy())
        assert w.dtype == expect.dtype and np.array_equal(w, expect)

    def test_one_ulp_off_is_solved_again(self, solves):
        rng = np.random.default_rng(101)
        for d_a, d_b in ((2, 2), (3, 4), (8, 8)):
            rho = random_density(rng, d_a, d_b)
            near = partial_transpose(rho).copy()
            near[1, 1] = np.nextafter(near[1, 1].real, 1.0)
            del solves[:]
            hermitian_eigenvalues(near)
            w = pt_spectrum(rho)
            assert solves == [rho.mat.shape] * 2
            assert np.array_equal(w, _eigvalsh_descending(partial_transpose(rho)))

    def test_state_the_raw_rule_rejects_keeps_its_monotones(self, solves):
        # skew 0.5 HERM_TOL passes the state's rule at scale 1; the raw rule
        # judges the same partial transpose at its own scale, |a|_max < 0.5
        rng = np.random.default_rng(102)
        mat = random_density(rng, 3, 3, rank=2).mat.copy()
        mat[0, 4] += 0.5 * HERM_TOL
        rho = DensityMatrix(mat, (3, 3))
        assert np.abs(mat).max() < 0.5
        with pytest.raises(NonHermitianError):
            monotone_report(partial_transpose(rho), 2)
        assert solves == []
        neg = negativity(rho), concurrence_lower_bound(rho), tangle_lower_bound(rho)
        assert solves == [(9, 9)]
        w = _eigvalsh_descending(partial_transpose(rho))
        assert np.array_equal(pt_spectrum(rho), w)
        neg_w = -w[w < -linalg.zero_cutoff(w)]
        assert neg_w.size and np.allclose(
            neg, [neg_w.sum(), 2.0 * np.linalg.norm(neg_w), 4.0 * neg_w @ neg_w],
            rtol=1e-14, atol=0)


class TestTypedPartialTranspose:
    """``partial_transpose`` returns a fresh, read-only array that carries its
    state, and ``hermitian_eigenvalues`` answers it from that state's one
    spectrum; arrays derived from it are raw matrices, and a state keeps only
    its spectrum."""

    def test_fresh_read_only_array_carries_its_state(self):
        rng = np.random.default_rng(110)
        for rho in (random_density(rng, 2, 3), random_pure(rng, 3, 3).to_density(),
                    isotropic_state(3, 0.8)):
            pt = partial_transpose(rho)
            again = partial_transpose(rho)
            assert again is not pt and pt.state is rho and again.state is rho
            assert np.array_equal(again, pt)
            assert not pt.flags.writeable
            with pytest.raises(ValueError):
                pt[0, 0] = 0.0
            edited = pt.copy()
            edited[0, 0] = 0.0
            assert partial_transpose(rho)[0, 0] == pt[0, 0] != 0.0
            assert vars(rho).keys() == {"mat", "dims"}  # nothing kept on the state

    def test_state_monotones_then_raw_sweep_is_one_eigensolve(self, solves):
        rng = np.random.default_rng(111)
        for d_a, d_b in TestStateReadsRawSpectrum.DIMS:
            rho = random_density(rng, d_a, d_b)
            del solves[:]
            negativity(rho), concurrence_lower_bound(rho), tangle_lower_bound(rho)
            reports = [monotone_report(partial_transpose(rho), p) for p in (1.0, 2.0, 3.0)]
            assert solves == [rho.mat.shape]
            expect = _eigvalsh_descending(partial_transpose(rho).copy())
            neg = expect[expect < -linalg.zero_cutoff(expect)]
            assert all(np.array_equal(r.negative_eigenvalues, neg) for r in reports)

    def test_sweep_over_an_unnamed_state_is_one_eigensolve(self, solves):
        # the typed array holds its state, so nothing but the array names it
        rng = np.random.default_rng(112)
        mat = random_density(rng, 3, 4).mat
        pt = partial_transpose(DensityMatrix(mat, (3, 4)))
        reports = [monotone_report(pt, p) for p in (1.0, 2.0, 3.0)]
        neg_pnorm(pt, 1.5), hermitian_eigenvalues(pt)
        assert solves == [(12, 12)]
        expect = _eigvalsh_descending(np.asarray(pt))
        neg = expect[expect < -linalg.zero_cutoff(expect)]
        assert all(np.array_equal(r.negative_eigenvalues, neg) for r in reports)

    def test_the_array_given_is_the_one_solved(self, solves, monkeypatch):
        transposes = []
        transpose = linalg._transpose_b

        def counting(rho):
            transposes.append(rho)
            return transpose(rho)

        monkeypatch.setattr(linalg, "_transpose_b", counting)
        rho = isotropic_state(3, 0.7)
        pt = partial_transpose(rho)
        del transposes[:]
        w = hermitian_eigenvalues(pt)
        assert transposes == [] and solves == [pt.shape]  # no second transpose
        assert np.array_equal(pt_spectrum(rho), w) and transposes == []
        fresh = isotropic_state(3, 0.7)
        pt_spectrum(fresh)  # with no typed array, a transient transpose is solved
        assert transposes == [fresh] and solves == [pt.shape] * 2

    def test_derived_arrays_are_raw_matrices(self, solves):
        rng = np.random.default_rng(113)
        rho = random_density(rng, 3, 4)
        pt = partial_transpose(rho)
        expect = hermitian_eigenvalues(pt)
        derived = {"copy": pt.copy(), "T": pt.T, "slice": pt[:], "sum": pt + 0,
                   "asarray": np.asarray(pt)}
        for name, a in derived.items():
            assert getattr(a, "state", None) is None, name
            del solves[:]
            for p in (1.0, 2.0):
                monotone_report(a, p)
            w = hermitian_eigenvalues(a)
            assert solves == [pt.shape] * 3, name
            assert np.array_equal(w, _eigvalsh_descending(a)), name
            assert np.allclose(w, expect, rtol=0, atol=1e-14), name

    def test_a_state_keeps_only_its_spectrum(self):
        rng = np.random.default_rng(114)
        rho = random_density(rng, 32, 32)  # D = 1024: a D x D array is 16 MB
        big = rho.mat.nbytes
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for p in (1.0, 2.0, 3.0):
                monotone_report(partial_transpose(rho), p)
            negativity(rho), concurrence_lower_bound(rho)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < big / 16  # the 8 kB spectrum, not a 16 MB transpose
        assert {k for k, v in vars(rho).items() if isinstance(v, np.ndarray)} == {
            "mat", "_pt_spectrum"}
        assert rho._pt_spectrum.shape == (rho.dim,)

    def test_cavity_run_and_state_monotones_keep_only_the_spectrum(self, monkeypatch):
        seen = []

        def recording(rho):
            seen.append(rho)
            return bound(rho)

        bound = tcm.tangle_lower_bound
        monkeypatch.setattr(tcm, "tangle_lower_bound", recording)
        run_trace(TcmConfig(nbar=4.0, n_max=30, t_grid=np.linspace(0.0, 10.0, 8)))
        rho = isotropic_state(3, 0.7)
        tangle_lower_bound(rho)
        assert len(seen) == 8
        for state in seen + [rho]:
            assert vars(state).keys() == {"mat", "dims", "_pt_spectrum"}
            assert state._pt_spectrum.shape == (state.dim,)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_state_form_is_bitwise_the_typed_form(self, solves, seed):
        rng = np.random.default_rng(115 + seed)
        for d_a, d_b in ((2, 2), (2, 3), (3, 3), (4, 5)):
            mat = random_density(rng, d_a, d_b, rank=None if seed else 2).mat
            for state_first in (True, False):
                rho = DensityMatrix(mat, (d_a, d_b))
                del solves[:]
                forms = (rho, partial_transpose(rho))
                for p in (1.0, 1.5, 2.0, 3.0, 50.0):
                    a, b = (monotone_report(x, p) for x in (forms if state_first else forms[::-1]))
                    assert (a.p, a.pnorm, a.power_sum, a.neg_count) == (
                        b.p, b.pnorm, b.power_sum, b.neg_count)
                    assert np.array_equal(a.negative_eigenvalues, b.negative_eigenvalues)
                assert neg_pnorm(rho, 2.0) == neg_pnorm(partial_transpose(rho), 2.0)
                assert solves == [rho.mat.shape]

    def test_threads_racing_on_a_fresh_state_get_the_right_spectrum(self):
        rng = np.random.default_rng(116)
        base = random_density(rng, 6, 8)
        expect = _eigvalsh_descending(partial_transpose(base).copy())
        wrong = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                fresh = DensityMatrix._from_psd(base.mat.copy(), base.dims)
                start = threading.Barrier(6)

                def work(i):
                    start.wait()
                    if i % 2:
                        got = hermitian_eigenvalues(partial_transpose(fresh))
                    else:
                        got = pt_spectrum(fresh)
                    if not np.array_equal(got, expect):
                        wrong.append(i)

                threads = [threading.Thread(target=work, args=(i,)) for i in range(6)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert np.array_equal(fresh._pt_spectrum, expect)
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []


class TestValidatedOnce:
    """States are checked when built through a public constructor and never
    again: counts the Hermiticity scans of ``linalg.assert_hermitian``."""

    @pytest.fixture
    def scans(self, monkeypatch):
        calls = []
        check = linalg.assert_hermitian

        def counting(a):
            calls.append(a.shape)
            check(a)

        monkeypatch.setattr(linalg, "assert_hermitian", counting)
        return calls

    def test_one_scan_per_public_constructor(self, scans):
        rng = np.random.default_rng(50)
        mat = random_density(rng, 2, 3).mat
        assert len(scans) == 1
        DensityMatrix(mat, (2, 3))
        assert len(scans) == 2
        DensityMatrix(mat, (2, 3))
        assert len(scans) == 3

    def test_no_scan_in_state_monotones(self, scans):
        rng = np.random.default_rng(51)
        built = [random_pure(rng, 2, 3).to_density(), isotropic_state(3, 0.7)]
        assert scans == []
        for rho in built + [random_density(rng, 3, 3)]:
            del scans[:]
            negativity(rho), concurrence_lower_bound(rho), tangle_lower_bound(rho)
            pt_spectrum(rho)
            assert scans == []

    def test_no_scan_in_cavity_run(self, scans):
        run_trace(TcmConfig(nbar=4.0, n_max=30, t_grid=np.linspace(0.0, 10.0, 8)))
        assert scans == []


class TestInternalDataNotRechecked:
    """Data the library built itself is not checked again: counts the
    ``PureState`` checks of the cavity run and the order checks of the state
    monotones, against one check each on the public path."""

    def test_no_pure_state_check_in_cavity_run(self, monkeypatch):
        calls = []
        init = PureState.__init__

        def counting(self, vec, dims):
            calls.append(dims)
            init(self, vec, dims)

        monkeypatch.setattr(PureState, "__init__", counting)
        cfg = TcmConfig(nbar=4.0, n_max=30, t_grid=np.linspace(0.0, 10.0, 8))
        run_trace(cfg)
        assert calls == []
        reduce_atom_field(evolve(cfg)[0], cfg.n_max)  # the public reduction checks
        assert len(calls) == 1

    def test_no_order_check_in_state_monotones(self, monkeypatch):
        calls = []
        check = monotones._check_order

        def counting(p):
            calls.append(p)
            return check(p)

        monkeypatch.setattr(monotones, "_check_order", counting)
        rho = isotropic_state(3, 0.7)
        negativity(rho), concurrence_lower_bound(rho), tangle_lower_bound(rho)
        assert calls == []
        monotone_report(partial_transpose(rho), 2.0)  # the public entry point checks
        assert calls == [2.0]
