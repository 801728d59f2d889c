import math
import sys

import numpy as np
import pytest

from entmono import (
    concurrence_lower_bound,
    fidelity_max_entangled,
    hermitian_eigenvalues,
    isotropic_concurrence_bound,
    isotropic_state,
    isotropic_tangle_bound,
    max_entangled,
    mixing_parameter,
    partial_transpose,
    pure_concurrence,
    schmidt_coefficients,
)
from entmono.states import isotropic_pt_spectrum


class TestMaxEntangled:
    def test_qubit_amplitudes(self):
        psi = max_entangled(2)
        assert np.allclose(psi.vec, np.array([1, 0, 0, 1]) / np.sqrt(2))

    def test_flat_schmidt_spectrum(self):
        for d in (2, 3, 5):
            c = schmidt_coefficients(max_entangled(d))
            assert np.allclose(c, np.full(d, 1.0 / np.sqrt(d)), atol=1e-12)

    def test_qutrit_concurrence(self):
        assert abs(pure_concurrence(max_entangled(3)) - np.sqrt(4.0 / 3.0)) < 1e-12

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError, match="integer >= 2"):
            max_entangled(1)


class TestIntegerDimension:
    @pytest.mark.parametrize("build", [
        max_entangled, isotropic_state, mixing_parameter, isotropic_pt_spectrum,
        isotropic_concurrence_bound,
    ])
    def test_integral_float_is_rejected(self, build):
        args = () if build is max_entangled else (0.5,)
        for d in (3.0, np.float64(3)):
            with pytest.raises(ValueError, match="dimension d must be an integer"):
                build(d, *args)

    def test_numpy_integer_is_accepted(self):
        assert isotropic_state(np.int64(3), 0.5).dims == (3, 3)
        assert max_entangled(np.int32(3)).dims == (3, 3)
        assert mixing_parameter(np.int64(3), 0.5) == mixing_parameter(3, 0.5)
        assert isotropic_pt_spectrum(np.int64(3), 0.5) == isotropic_pt_spectrum(3, 0.5)


class TestIsotropicState:
    def test_zero_mixing_is_maximally_mixed(self):
        for d in (2, 3):
            rho = isotropic_state(d, 1.0 / (d * d))
            assert abs(mixing_parameter(d, 1.0 / (d * d))) < 1e-15
            assert np.allclose(rho.mat, np.eye(d * d) / (d * d), atol=1e-15)

    def test_unit_fidelity_is_pure(self):
        rho = isotropic_state(2, 1.0)
        psi = max_entangled(2)
        assert np.allclose(rho.mat, np.outer(psi.vec, psi.vec.conj()), atol=1e-15)

    def test_fidelity_round_trip(self):
        for d in (2, 3, 7):
            for f in (0.0, 0.2, 1.0 / d, 0.7, 1.0):
                assert abs(fidelity_max_entangled(isotropic_state(d, f)) - f) < 1e-12

    def test_positive_semidefinite_over_the_range(self):
        # built without the positivity eigensolve, so positivity is guarded here
        for d in range(2, 7):
            for f in np.linspace(0.0, 1.0, 21):
                assert hermitian_eigenvalues(isotropic_state(d, float(f)).mat)[-1] >= -1e-14

    def test_rejects_bad_fidelity(self):
        with pytest.raises(ValueError, match="fidelity"):
            isotropic_state(3, 1.2)
        with pytest.raises(ValueError, match="fidelity"):
            isotropic_state(3, -0.1)


class TestPtSpectrum:
    def test_pure_qubit_case(self):
        # d=2, lambda=1: +1/2 with multiplicity 3, -1/2 with multiplicity 1
        spectrum = isotropic_pt_spectrum(2, 1.0)
        assert spectrum[0] == pytest.approx((0.5, 3))
        assert spectrum[1] == pytest.approx((-0.5, 1))

    def test_multiplicities_fill_the_space(self):
        for d in (2, 3, 8):
            spectrum = isotropic_pt_spectrum(d, 0.6)
            assert spectrum[0][1] + spectrum[1][1] == d * d

    def test_threshold_eigenvalue_is_zero(self):
        for d in (2, 3, 5):
            f = 1.0 / d  # lambda = 1/(d+1)
            assert abs(isotropic_pt_spectrum(d, f)[1][0]) < 1e-15

    def test_matches_dense_eigensolver(self):
        for d in range(2, 11):
            for f in (0.0, 0.3, 1.0 / d, 0.8, 1.0):
                w = hermitian_eigenvalues(partial_transpose(isotropic_state(d, f)))
                (hi, mhi), (lo, mlo) = isotropic_pt_spectrum(d, f)
                expect = np.sort(np.concatenate([np.full(mhi, hi), np.full(mlo, lo)]))[
                    ::-1
                ]
                assert np.allclose(w, expect, atol=1e-9)


class TestAnalyticBounds:
    def test_anchor_values(self):
        assert abs(isotropic_concurrence_bound(2, 1.0) - 1.0) < 1e-15
        assert abs(isotropic_concurrence_bound(3, 1.0) - 2.0 * np.sqrt(3.0) / 3.0) < 1e-15
        assert abs(isotropic_tangle_bound(2, 1.0) - 1.0) < 1e-15
        assert abs(isotropic_tangle_bound(3, 1.0) - 4.0 / 3.0) < 1e-15

    def test_zero_at_and_below_threshold(self):
        for d in (2, 3, 10):
            for f in (0.0, 0.5 / d, 1.0 / d):
                assert isotropic_concurrence_bound(d, f) == 0.0

    def test_threshold_is_sharp(self):
        for d in (2, 3, 5, 8):
            f = 1.0 / d
            assert isotropic_concurrence_bound(d, f - 1e-12) == 0.0
            assert isotropic_concurrence_bound(d, f + 1e-12) > 0.0

    def test_continuity_at_threshold(self):
        for d in (2, 3, 7):
            assert isotropic_concurrence_bound(d, 1.0 / d + 1e-9) < 1e-8

    def test_agrees_with_dense_computation(self):
        for d in range(2, 11):
            for f in np.linspace(0.0, 1.0, 21):
                dense = concurrence_lower_bound(isotropic_state(d, float(f)))
                assert abs(dense - isotropic_concurrence_bound(d, float(f))) <= 1e-9

    def test_large_d_limits(self):
        # concurrence bound tends to sqrt(2) F, tangle bound to 2 F^2
        for f in (0.25, 0.5, 1.0):
            assert abs(isotropic_concurrence_bound(10**4, f) - np.sqrt(2.0) * f) < 5e-3
            assert abs(isotropic_tangle_bound(10**4, f) - 2.0 * f * f) < 1e-2
        assert abs(isotropic_tangle_bound(1000, 0.5) - 0.5) < 0.01

    def test_largest_dimension_is_finite_and_the_next_is_refused(self):
        # the largest d with d (d + 1) <= float max, about 1.34e154
        d = math.isqrt(int(sys.float_info.max))
        assert d * (d + 1) <= sys.float_info.max < (d + 1) * (d + 2)
        for f in (0.0, 1.0 / d, 0.5, 1.0):
            values = [mixing_parameter(d, f), isotropic_concurrence_bound(d, f),
                      isotropic_tangle_bound(d, f)]
            values += [w for w, _ in isotropic_pt_spectrum(d, f)]
            assert all(math.isfinite(v) for v in values)
        assert abs(isotropic_concurrence_bound(d, 0.5) - np.sqrt(0.5)) < 1e-15
        for build in (mixing_parameter, isotropic_pt_spectrum, isotropic_concurrence_bound,
                      isotropic_tangle_bound):
            with pytest.raises(ValueError, match="must be <= 1.34e154"):
                build(d + 1, 0.5)

    def test_mixing_parameter_range(self):
        for d in (2, 5):
            assert abs(mixing_parameter(d, 0.0) + 1.0 / (d * d - 1.0)) < 1e-15
            assert abs(mixing_parameter(d, 1.0) - 1.0) < 1e-15
