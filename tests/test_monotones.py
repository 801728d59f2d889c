import math
import warnings

import numpy as np
import pytest
from conftest import random_density, random_hermitian, random_pure
from hypothesis import given, settings
from hypothesis import strategies as st

from entmono import (
    DensityMatrix,
    PureState,
    concurrence_lower_bound,
    monotone_report,
    neg_pnorm,
    negative_eigenvalues,
    negativity,
    partial_transpose,
    pure_concurrence,
    pure_tangle,
    tangle_lower_bound,
)
from entmono import linalg
from entmono.monotones import _spectrum_report
from entmono.states import isotropic_state

BELL = PureState(np.array([1, 0, 0, 1]) / np.sqrt(2), (2, 2))


class TestNegPnorm:
    def test_diagonal_examples(self):
        a = np.diag([-1.0, -2.0, 3.0])
        assert abs(neg_pnorm(a, 1.0) - 3.0) < 1e-14
        assert abs(neg_pnorm(a, 2.0) - np.sqrt(5.0)) < 1e-14
        assert abs(neg_pnorm(a, 3.0) - 9.0 ** (1.0 / 3.0)) < 1e-14

    def test_psd_gives_zero(self):
        rng = np.random.default_rng(1)
        for p in (1.0, 1.5, 2.0, 3.0):
            assert neg_pnorm(np.eye(3), p) == 0.0
            rho = random_density(rng, 2, 2)
            assert neg_pnorm(rho.mat, p) == 0.0

    def test_power_sum_examples(self):
        a = np.diag([-1.0, -2.0, 3.0])
        assert abs(monotone_report(a, 2.0).power_sum - 5.0) < 1e-14
        assert monotone_report(np.eye(2), 2.0).power_sum == 0.0
        assert abs(monotone_report(a, 1.0).power_sum - neg_pnorm(a, 1.0)) < 1e-15

    def test_extreme_order_and_magnitude(self):
        # |x|^p summed directly underflows to 0 at p = 1000 (reporting no
        # entanglement) and overflows to inf at 1e200; the norm itself does neither.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert abs(neg_pnorm(np.diag([0.5, -0.3, -0.2]), 1000.0) - 0.3) < 1e-15
            assert neg_pnorm(np.diag([1e200, -1e200]), 2.0) == 1e200
            assert neg_pnorm(np.diag([1e200, -1e200, -1e200]), 2.0) == pytest.approx(
                np.sqrt(2.0) * 1e200, rel=1e-15
            )
            # power_sum = pnorm ** p leaves the float range silently
            assert monotone_report(np.diag([0.5, -0.3, -0.2]), 1000.0).power_sum == 0.0
            assert monotone_report(np.diag([1e200, -1e200]), 2.0).power_sum == np.inf
        # the zero cutoff is relative, so tiny spectra are not read as zero
        assert neg_pnorm(np.diag([1e-12, -1e-12]), 2.0) == 1e-12

    def test_fractional_order_allowed(self):
        a = np.diag([-4.0, 1.0])
        assert abs(neg_pnorm(a, 1.5) - 4.0) < 1e-14

    def test_rejects_order_below_one(self):
        with pytest.raises(ValueError, match="p must be"):
            neg_pnorm(np.eye(2), 0.9)

    def test_report_consistency(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = random_hermitian(rng, int(rng.integers(2, 9)))
            p = float(rng.uniform(1.0, 3.0))
            rep = monotone_report(a, p)
            assert rep.neg_count == rep.negative_eigenvalues.size
            assert np.all(rep.negative_eigenvalues < 0)
            assert abs(rep.power_sum - rep.pnorm**p) < 1e-10 * max(1, rep.power_sum)
            assert abs(rep.pnorm - neg_pnorm(a, p)) < 1e-14

    def test_threshold_cuts_noise_eigenvalues(self):
        a = np.diag([1.0, -1e-13])
        assert negative_eigenvalues(a).size == 0
        assert neg_pnorm(a, 2.0) == 0.0


# Diagonal entries with |x| >= 1e-3, at least one negative: every eigenvalue
# is at least 1e-3 of the spectral radius, far above the relative zero cutoff
# at any scale c, tiny or huge.
_entries = st.lists(
    st.tuples(st.floats(1e-3, 1.0), st.booleans()), min_size=1, max_size=8
).map(lambda xs: np.array([m if i and positive else -m for i, (m, positive) in enumerate(xs)]))
_scales = st.floats(1e-300, 1e300)
_orders = st.floats(1.0, 1e4)
_settings = settings(derandomize=True, database=None, max_examples=200, deadline=None)


def _old_spectrum_report(w, p):
    """The former ``_spectrum_report``: cutoff from ``np.abs(w).max()``, the
    largest magnitude from ``np.abs(neg).max()`` and ``m ** p`` in numpy."""
    neg = w[w < -linalg.zero_cutoff(w)]
    pnorm = psum = 0.0
    if neg.size:
        mag = np.abs(neg)
        m = mag.max()
        scaled = float(np.sum((mag / m) ** p))
        pnorm = float(m * scaled ** (1.0 / p))
        with np.errstate(over="ignore", under="ignore"):
            psum = float(m**p * scaled)
    return pnorm, psum, neg


# descending spectra with magnitudes from 1e-300 to 1e300 and exact zeros,
# the empty one among them
_spectra = st.lists(
    st.one_of(st.just(0.0), st.tuples(st.floats(-300.0, 300.0), st.booleans()).map(
        lambda t: 10.0 ** t[0] * (1.0 if t[1] else -1.0))),
    max_size=10,
).map(lambda xs: np.sort(np.array(xs, dtype=np.float64))[::-1])


class TestSpectrumReport:
    @settings(derandomize=True, database=None, max_examples=500, deadline=None)
    @given(_spectra, st.floats(1.0, 1e3))
    def test_bitwise_the_former_formula(self, w, p):
        pnorm, psum, neg = _old_spectrum_report(w, p)
        rep = _spectrum_report(w, p)
        assert type(rep.pnorm) is float and type(rep.power_sum) is float
        assert (rep.pnorm, rep.power_sum) == (pnorm, psum)
        assert rep.negative_eigenvalues.dtype == neg.dtype
        assert np.array_equal(rep.negative_eigenvalues, neg) and rep.neg_count == neg.size

    def test_empty_spectrum(self):
        rep = _spectrum_report(np.empty(0), 2.0)
        assert (rep.pnorm, rep.power_sum, rep.neg_count) == (0.0, 0.0, 0)

    def test_power_sum_overflow_is_inf_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # m ** p overflows, at huge magnitude or huge p, or only its product
            for w, p in ((np.array([1.0, -1e300]), 2.0), (np.array([-1e10, -1e300]), 1e3),
                         (np.array([-4.0]), 1e3), (np.array([-1e154, -1e154]), 2.0)):
                rep = _spectrum_report(w, p)
                assert rep.power_sum == math.inf and math.isfinite(rep.pnorm)
                assert (rep.pnorm, rep.power_sum) == _old_spectrum_report(w, p)[:2]


class TestNegPnormProperties:
    @_settings
    @given(_entries, _scales, _orders)
    def test_bounded_by_largest_negative(self, x, c, p):
        neg = np.abs(c * x[x < 0])
        m, k = neg.max(), neg.size
        value = neg_pnorm(np.diag(c * x), p)
        assert m * (1.0 - 1e-12) <= value <= k ** (1.0 / p) * m * (1.0 + 1e-12)

    @_settings
    @given(_entries, _scales, _orders)
    def test_homogeneity(self, x, c, p):
        assert neg_pnorm(np.diag(c * x), p) == pytest.approx(
            c * neg_pnorm(np.diag(x), p), rel=1e-12
        )


class TestTriangleAndConvexity:
    def test_triangle_inequality(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            n = int(rng.integers(2, 13))
            a = random_hermitian(rng, n)
            b = random_hermitian(rng, n)
            for p in (1.0, 1.5, 2.0, 3.0):
                assert neg_pnorm(a + b, p) <= neg_pnorm(a, p) + neg_pnorm(b, p) + 1e-9

    def test_convexity(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            n = int(rng.integers(2, 13))
            a = random_hermitian(rng, n)
            b = random_hermitian(rng, n)
            alpha = float(rng.uniform())
            mix = alpha * a + (1.0 - alpha) * b
            for p in (1.0, 1.5, 2.0, 3.0):
                assert (
                    neg_pnorm(mix, p)
                    <= alpha * neg_pnorm(a, p) + (1.0 - alpha) * neg_pnorm(b, p) + 1e-9
                )


class TestStateMonotones:
    def test_bell_anchors(self):
        rho = BELL.to_density()
        assert abs(negativity(rho) - 0.5) < 1e-12
        assert abs(concurrence_lower_bound(rho) - 1.0) < 1e-12
        assert abs(tangle_lower_bound(rho) - 1.0) < 1e-12

    def test_product_state_gives_zero(self):
        psi = PureState([1, 0, 0, 0], (2, 2))
        rho = psi.to_density()
        assert negativity(rho) == 0.0
        assert concurrence_lower_bound(rho) == 0.0
        assert tangle_lower_bound(rho) == 0.0

    def test_isotropic_anchors(self):
        # d=2, F=1: partial transpose spectrum (1/2 x3, -1/2 x1)
        assert abs(negativity(isotropic_state(2, 1.0)) - 0.5) < 1e-12
        # d=3, F=1: concurrence bound 2 sqrt(3) / 3, tangle bound 4/3
        rho3 = isotropic_state(3, 1.0)
        assert abs(concurrence_lower_bound(rho3) - 2.0 * np.sqrt(3.0) / 3.0) < 1e-12
        assert abs(tangle_lower_bound(rho3) - 4.0 / 3.0) < 1e-12

    def test_separable_mixtures_are_ppt(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            d_a, d_b = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            mats = [
                np.kron(random_density(rng, 1, d_a).mat, random_density(rng, 1, d_b).mat)
                for _ in range(4)
            ]
            q = rng.dirichlet(np.ones(4))
            rho = DensityMatrix(sum(w * m for w, m in zip(q, mats)), (d_a, d_b))
            for p in (1.0, 2.0, 3.0):
                assert neg_pnorm(partial_transpose(rho), p) == 0.0

    def test_two_qubit_single_negative_eigenvalue(self):
        rng = np.random.default_rng(6)
        for _ in range(500):
            rho = random_density(rng, 2, 2, rank=int(rng.integers(1, 5)))
            pt = partial_transpose(rho)
            assert negative_eigenvalues(pt).size <= 1
            assert abs(neg_pnorm(pt, 1.0) - neg_pnorm(pt, 2.0)) <= 1e-10


class TestPureStateMeasures:
    def test_product(self):
        assert pure_concurrence(PureState([1, 0, 0, 0], (2, 2))) == 0.0
        assert pure_tangle(PureState([1, 0, 0, 0], (2, 2))) == 0.0

    def test_bell(self):
        assert abs(pure_concurrence(BELL) - 1.0) < 1e-12
        assert abs(pure_tangle(BELL) - 1.0) < 1e-12

    def test_maximally_entangled_qutrits(self):
        vec = np.zeros(9)
        vec[[0, 4, 8]] = 1.0 / np.sqrt(3.0)
        psi = PureState(vec, (3, 3))
        assert abs(pure_concurrence(psi) - np.sqrt(4.0 / 3.0)) < 1e-12
        assert abs(pure_tangle(psi) - 4.0 / 3.0) < 1e-12

    def test_fourth_power_identity_matches_double_sum(self):
        # pure_concurrence and pure_tangle, read from the singular values of
        # the amplitude matrix, against the Schmidt double sum over the
        # eigenvalues of the reduced density matrix, an independent path
        rng = np.random.default_rng(7)
        for _ in range(100):
            d_a, d_b = int(rng.integers(2, 5)), int(rng.integers(2, 6))
            psi = random_pure(rng, d_a, d_b)
            m = psi.vec.reshape(d_a, d_b)
            c2 = np.linalg.eigvalsh(m @ m.conj().T)
            double = sum(
                c2[i] * c2[j] for i in range(c2.size) for j in range(i + 1, c2.size)
            )
            assert abs(pure_concurrence(psi) - 2.0 * np.sqrt(double)) < 1e-12
            assert abs(pure_tangle(psi) - 4.0 * double) < 1e-12

    def test_range_bound(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            d_a, d_b = int(rng.integers(2, 5)), int(rng.integers(2, 6))
            psi = random_pure(rng, d_a, d_b)
            d = min(d_a, d_b)
            assert 0.0 <= pure_concurrence(psi) <= np.sqrt(2.0 * (d - 1) / d) + 1e-12

    def test_agreement_with_partial_transpose_bound(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            d_a, d_b = int(rng.integers(2, 5)), int(rng.integers(2, 6))
            psi = random_pure(rng, d_a, d_b)
            assert (
                abs(concurrence_lower_bound(psi.to_density()) - pure_concurrence(psi))
                <= 1e-8
            )


class TestLocalChannels:
    """Only ``p = 1`` of the family is known not to increase under local
    channels; for ``p > 1`` a channel on one side can raise the value."""

    @staticmethod
    def _phi(j, k):
        # (|0, j> + |1, k>) / sqrt(2) on 2 x 4
        v = np.zeros(8)
        v[j] = v[4 + k] = 1.0 / np.sqrt(2.0)
        return np.outer(v, v)

    @staticmethod
    def _kraus():
        # on the second party: keep |0>, |1>, or move |2>, |3> onto them
        k1 = np.zeros((4, 4))
        k1[0, 0] = k1[1, 1] = 1.0
        k2 = np.zeros((4, 4))
        k2[0, 2] = k2[1, 3] = 1.0
        kraus = [np.kron(np.eye(2), k) for k in (k1, k2)]
        assert np.allclose(sum(k.T @ k for k in kraus), np.eye(8))  # trace preserving
        return kraus

    def _counterexample(self):
        rho = DensityMatrix(0.5 * self._phi(0, 1) + 0.5 * self._phi(2, 3), (2, 4))
        out = DensityMatrix(sum(k @ rho.mat @ k.T for k in self._kraus()), (2, 4))
        return rho, out

    def test_channel_maps_the_mixture_to_a_bell_state(self):
        _, out = self._counterexample()
        assert np.allclose(out.mat, self._phi(0, 1))

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_pnorm_rises_above_p_one(self, p):
        rho, out = self._counterexample()
        before = neg_pnorm(partial_transpose(rho), p)
        after = neg_pnorm(partial_transpose(out), p)
        assert abs(before - 2.0 ** (1.0 / p) / 4.0) < 1e-14
        assert abs(after - 0.5) < 1e-14
        if p == 1.0:
            assert abs(after - before) < 1e-14
        else:
            assert after > before + 0.1

    def test_concurrence_bound_rises(self):
        rho, out = self._counterexample()
        assert abs(concurrence_lower_bound(rho) - np.sqrt(0.5)) < 1e-14
        assert abs(concurrence_lower_bound(out) - 1.0) < 1e-14

    @pytest.mark.parametrize("p, rise", [(1.0, 0.0), (1.5, 0.103), (2.0, 0.146), (3.0, 0.185)])
    def test_instrument_raises_the_average_above_p_one(self, p, rise):
        # the same Kraus pair read as a two-outcome local instrument: each
        # outcome has probability 1/2 and leaves |Phi01>, so the average after
        # is 1/2, against 2^(1/p) / 4 before; equal at p = 1 only
        rho, _ = self._counterexample()
        average = 0.0
        for k in self._kraus():
            sigma = k @ rho.mat @ k.T
            q = np.trace(sigma).real
            assert abs(q - 0.5) < 1e-15 and np.allclose(sigma / q, self._phi(0, 1))
            average += q * neg_pnorm(partial_transpose(DensityMatrix(sigma / q, (2, 4))), p)
        before = neg_pnorm(partial_transpose(rho), p)
        assert abs(average - 0.5) < 1e-14
        assert abs(average - before - (0.5 - 2.0 ** (1.0 / p) / 4.0)) < 1e-14
        assert round(average - before, 3) == rise
