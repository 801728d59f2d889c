import numpy as np
import pytest
from conftest import random_doubly_stochastic, random_hermitian
from hypothesis import given, settings
from hypothesis import strategies as st

from entmono import (
    hermitian_eigenvalues,
    is_doubly_stochastic,
    majorizes,
    positive_part,
    pth_power,
    weakly_submajorizes,
)


class TestPredicates:
    def test_uniform_majorized_by_peaked(self):
        assert majorizes([1.0, 0.0], [0.5, 0.5])
        assert not majorizes([0.5, 0.5], [1.0, 0.0])

    def test_prefix_sum_example(self):
        # prefixes 0.4 <= 0.5, 0.75 <= 0.8, totals equal
        assert majorizes([0.5, 0.3, 0.2], [0.4, 0.35, 0.25])

    def test_order_of_entries_is_irrelevant(self):
        assert majorizes([0.2, 0.5, 0.3], [0.25, 0.4, 0.35])

    def test_empty_vectors(self):
        # no prefix to compare and equal (zero) totals
        assert majorizes([], [])
        assert weakly_submajorizes([], [])

    def test_weak_drops_total_equality(self):
        assert weakly_submajorizes([3.0, 0.0], [1.0, 1.0])
        assert not majorizes([3.0, 0.0], [1.0, 1.0])
        assert not weakly_submajorizes([1.0, 1.0], [2.0, 0.0])

    def test_majorization_implies_weak(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            y = rng.standard_normal(n)
            x = random_doubly_stochastic(rng, n) @ y
            assert majorizes(y, x)
            assert weakly_submajorizes(y, x)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            majorizes([1.0, 0.0], [1.0])
        with pytest.raises(ValueError, match="length"):
            weakly_submajorizes([1.0], [1.0, 0.0])


class TestScaleFree:
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 10), st.integers(-990, 990))
    def test_scaling_keeps_every_answer(self, seed, n, k):
        rng = np.random.default_rng(seed)
        y = rng.standard_normal(n)
        x = random_doubly_stochastic(rng, n) @ y  # majorized by y
        bad = x.copy()
        bad[np.argmax(x)] = y.max() + 1e-3 * np.abs(y).sum()  # first prefix too large
        for c in (1.0, 2.0**k):  # exact scaling: no rounding of its own
            for pred in (majorizes, weakly_submajorizes):
                assert pred(c * y, c * x)
                assert not pred(c * y, c * bad)


class TestComponentwiseMaps:
    def test_positive_part(self):
        assert np.array_equal(positive_part([-1.0, 2.0, -3.0]), [0.0, 2.0, 0.0])
        assert np.array_equal(positive_part([1.0, 2.0]), [1.0, 2.0])
        assert np.array_equal(positive_part([-1.0, -2.0]), [0.0, 0.0])

    def test_pth_power(self):
        assert np.allclose(pth_power([1.0, 4.0], 2.0), [1.0, 16.0])
        x = np.array([0.3, 1.7, 0.0])
        assert np.array_equal(pth_power(x, 1.0), x)
        assert np.allclose(pth_power([0.0, 9.0], 1.5), [0.0, 27.0])

    def test_pth_power_rejects_negative_entries(self):
        with pytest.raises(ValueError, match="non-negative"):
            pth_power([-1.0, 2.0], 2.0)

    def test_pth_power_rejects_small_order(self):
        with pytest.raises(ValueError, match="p must be"):
            pth_power([1.0, 2.0], 0.5)

    @pytest.mark.parametrize("p", [float("nan"), float("inf")])
    def test_pth_power_rejects_non_finite_order(self, p):
        with pytest.raises(ValueError, match="p must be a finite"):
            pth_power([1.0, 2.0], p)


class TestDoublyStochastic:
    def test_examples(self):
        assert is_doubly_stochastic(np.eye(3))
        assert is_doubly_stochastic([[0.5, 0.5], [0.5, 0.5]])
        assert not is_doubly_stochastic([[1.0, 0.0], [0.5, 0.5]])
        assert not is_doubly_stochastic([[1.5, -0.5], [-0.5, 1.5]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            is_doubly_stochastic(np.ones((2, 3)))

    def test_generator_produces_members(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(2, 10))
            assert is_doubly_stochastic(random_doubly_stochastic(rng, n))


class TestSpectralProperties:
    def test_hermitian_sum_majorization(self):
        # eigenvalues of A + B are majorized by sorted lambda(A) + lambda(B)
        rng = np.random.default_rng(42)
        for _ in range(500):
            n = int(rng.integers(2, 21))
            a = random_hermitian(rng, n)
            b = random_hermitian(rng, n)
            wa = hermitian_eigenvalues(a)
            wb = hermitian_eigenvalues(b)
            wab = hermitian_eigenvalues(a + b)
            assert majorizes(wa + wb, wab)

    def test_negated_variant(self):
        rng = np.random.default_rng(43)
        for _ in range(500):
            n = int(rng.integers(2, 21))
            a = random_hermitian(rng, n)
            b = random_hermitian(rng, n)
            wa = hermitian_eigenvalues(-a)
            wb = hermitian_eigenvalues(-b)
            wab = hermitian_eigenvalues(-(a + b))
            assert majorizes(wa + wb, wab)

    def test_positive_part_preserves_weak(self):
        rng = np.random.default_rng(44)
        for _ in range(300):
            n = int(rng.integers(2, 12))
            y = rng.standard_normal(n) * rng.uniform(0.5, 3.0)
            x = random_doubly_stochastic(rng, n) @ y
            if rng.uniform() < 0.5:
                x = x - rng.uniform(0.0, 0.5, size=n)  # weak-only pair
            assert weakly_submajorizes(y, x)
            assert weakly_submajorizes(positive_part(y), positive_part(x))

    def test_pth_power_preserves_weak(self):
        rng = np.random.default_rng(45)
        for _ in range(300):
            n = int(rng.integers(2, 12))
            y = np.abs(rng.standard_normal(n)) + 0.1
            x = random_doubly_stochastic(rng, n) @ y
            x = positive_part(x - rng.uniform(0.0, 0.2, size=n))
            assert weakly_submajorizes(y, x)
            for p in (1.0, 1.5, 2.0, 3.0):
                assert weakly_submajorizes(pth_power(y, p), pth_power(x, p))

    def test_doubly_stochastic_action_majorizes(self):
        rng = np.random.default_rng(46)
        for _ in range(300):
            n = int(rng.integers(2, 12))
            y = rng.standard_normal(n)
            a = random_doubly_stochastic(rng, n)
            assert majorizes(y, a @ y)
