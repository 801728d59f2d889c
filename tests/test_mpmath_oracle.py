"""Closed forms against arbitrary-precision references (mpmath, 60 digits)."""

import mpmath
import pytest

from entmono import isotropic_concurrence_bound
from entmono.states import isotropic_pt_spectrum

mpmath.mp.dps = 60


def _isotropic_bound_reference(d, fidelity):
    # (d F - 1) sqrt(2 / (d (d - 1))) on the exact binary value of F
    f = mpmath.mpf(fidelity)
    return (d * f - 1) * mpmath.sqrt(mpmath.mpf(2) / (d * (d - 1)))


@pytest.mark.parametrize("d", [2, 3, 10, 10**3, 10**6])
@pytest.mark.parametrize("excess", [1e-9, 1e-4, 0.5])
def test_isotropic_concurrence_bound_just_above_threshold(d, excess):
    fidelity = min((1.0 + excess) / d, 1.0)
    exact = _isotropic_bound_reference(d, fidelity)
    got = isotropic_concurrence_bound(d, fidelity)
    assert abs((got - exact) / exact) < 4.5e-16


@pytest.mark.parametrize("d", [2, 3, 10, 10**3, 10**6])
def test_isotropic_concurrence_bound_at_full_fidelity(d):
    exact = _isotropic_bound_reference(d, 1.0)
    assert abs((isotropic_concurrence_bound(d, 1.0) - exact) / exact) < 4.5e-16


@pytest.mark.parametrize("d", [2, 3, 10, 10**3, 10**6])
@pytest.mark.parametrize("excess", [-1e-9, 1e-9, 1e-4, 0.5])
def test_isotropic_pt_spectrum_near_threshold(d, excess):
    # (1 + d F) / (d (d + 1)) and (1 - d F) / (d (d - 1)) on the exact binary F
    fidelity = min((1.0 + excess) / d, 1.0)
    f = mpmath.mpf(fidelity)
    exact = [(1 + d * f) / (d * (d + 1)), (1 - d * f) / (d * (d - 1))]
    for (got, _), want in zip(isotropic_pt_spectrum(d, fidelity), exact):
        assert abs((got - want) / want) < 4.5e-16
