"""Closed forms against arbitrary-precision references (mpmath, 60 digits)."""

import math

import mpmath
import numpy as np
import pytest

from entmono import (PureState, RoofConfig, isotropic_concurrence_bound,
                     isotropic_state, minimize_roof, neg_pnorm, pure_concurrence, pure_tangle,
                     schmidt_coefficients)
from entmono.linalg import ZERO_EIG_TOL
from entmono.states import isotropic_pt_spectrum
from entmono.tcm import coherent_state

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


def _neg_pnorm_reference(w, p):
    # m * (sum (|x| / m)^p)^(1/p) over the values below the zero cutoff, in
    # mpmath; the scaled form keeps (|x| / m)^p in [0, 1] even at p = 1e300
    cut = ZERO_EIG_TOL * max(abs(x) for x in w)
    mags = [mpmath.mpf(-x) for x in w if x < -cut]
    if not mags:
        return mpmath.mpf(0)
    m, q = max(mags), mpmath.mpf(p)
    return m * mpmath.fsum((x / m) ** q for x in mags) ** (1 / q)


@pytest.mark.parametrize("p", [1.0, 2.0, 7.5, 1e3, 1e15, 1e300])
@pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-100, 1.0, 1e100, 1e200, 1e300])
def test_neg_pnorm_on_diagonal_spectra(p, scale):
    # diagonal inputs, so the eigensolver adds no error; magnitudes spread over
    # 14 decades, so some entries fall below the zero cutoff
    rng = np.random.default_rng(int(np.log10(scale)) + 400)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        w = scale * rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-14.0, 0.0, n)
        w[0] = -scale * rng.uniform(0.1, 1.0)
        exact = _neg_pnorm_reference(w, p)
        assert abs((neg_pnorm(np.diag(w), p) - exact) / exact) <= 2e-15


@pytest.mark.parametrize("nbar, bound", [(20.0, 1e-14), (100.0, 1e-14), (1e4, 7.5e-14),
                                         (1e5, 2e-13)])
def test_coherent_state_amplitudes(nbar, bound):
    # exp(-alpha^2 / 2) alpha^n / sqrt(n!) on the exact binary alpha, at up to
    # 200 indices spread over nbar +- 4 sqrt(nbar), which hold all but 6e-5 of
    # the weight; the cutoff leaves out under 1e-14 of it, so renormalizing
    # moves no amplitude by more than that. Stirling's form leaves an error of
    # about eps |n - nbar|, from log1p and from rounding alpha^2: largest seen
    # 4.1e-15, 3.5e-14 and 9.7e-14 at nbar = 100, 1e4 and 1e5 (the lgamma form
    # gave 6.6e-14, 1.2e-11 and 1.7e-10); nbar = 20 spans both forms, 4.6e-15
    alpha = math.sqrt(nbar)
    amps = coherent_state(alpha, int(nbar + 8.0 * alpha + 8.0))
    a = mpmath.mpf(alpha)
    idx = np.unique(np.linspace(nbar - 4.0 * alpha, nbar + 4.0 * alpha, 200).astype(int))
    for n in idx:
        exact = mpmath.exp(n * mpmath.log(a) - a * a / 2 - mpmath.loggamma(n + 1) / 2)
        assert abs((amps[n] - exact) / exact) <= bound


def _concurrence_reference(vec, dims):
    # sqrt(2 ((tr G)^2 - tr G^2)) / tr G on the exact binary amplitudes
    m = mpmath.matrix(vec.reshape(dims).tolist())
    g = m * m.H
    tr = sum(g[i, i] for i in range(g.rows)).real
    fro2 = sum(abs(g[i, j]) ** 2 for i in range(g.rows) for j in range(g.cols))
    return mpmath.sqrt(2 * (tr * tr - fro2)) / tr


@pytest.mark.parametrize("delta", [1e-3, 1e-6, 1e-9, 1e-12, 0.0])
@pytest.mark.parametrize("dims", [(2, 2), (2, 5), (3, 4), (4, 3)])
def test_pure_concurrence_near_product_states(delta, dims):
    # sqrt(1 - delta^2) |00> + delta |11> under random local unitaries. The
    # singular values of the amplitude matrix miss the Schmidt coefficients by
    # up to 2.0e-16, and the concurrence and the root of the tangle read from
    # them by 1.4e-16; the trace form missed by up to 3.0e-8, the square roots
    # of the reduced density matrix's eigenvalues by 1.3e-8
    rng = np.random.default_rng(3)
    core = np.zeros(dims, complex)
    core[0, 0], core[1, 1] = math.sqrt(1.0 - delta**2), delta
    a, b = (np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))[0]
            for d in dims)
    psi = PureState((a @ core @ b.T).reshape(-1), dims)
    exact = _concurrence_reference(psi.vec, dims)
    assert abs(pure_concurrence(psi) - exact) <= 1e-15
    assert abs(math.sqrt(pure_tangle(psi)) - exact) <= 1e-15
    coeffs = mpmath.svd_c(mpmath.matrix(psi.vec.reshape(dims).tolist()), compute_uv=False)
    for got, want in zip(schmidt_coefficients(psi), sorted(coeffs, reverse=True)):
        assert abs(got - want) <= 1e-15


def _ensemble_concurrence_reference(ens):
    return sum(mpmath.mpf(q) * _concurrence_reference(vec, ens.dims)
               for q, vec in zip(ens.probabilities, ens.vectors))


@pytest.mark.parametrize("fidelity, seed", [(0.5, 4), (0.5, 5), (0.5, 6), (0.8, 6)])
def test_roof_value_scores_its_own_ensemble(fidelity, seed):
    # criterion 06's search: near-product members cost the trace form up to
    # 6.8e-9, and at seeds 4 and 5 it put the value 1.2e-9 and 2.2e-9 below
    # the exact I-concurrence, which here equals the bound; the score from the
    # members' singular values is within 7.3e-17 of the reference, as the
    # Cauchy-Binet sum was
    res = minimize_roof(isotropic_state(3, fidelity),
                        RoofConfig(restarts=8, max_iters=1500, seed=seed))
    assert abs(res.value - _ensemble_concurrence_reference(res.ensemble)) <= 1e-15
    assert res.value >= isotropic_concurrence_bound(3, fidelity) - 1e-15
