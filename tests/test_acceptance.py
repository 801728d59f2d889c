"""Acceptance suite: one test per exit criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines.
Random inputs are seeded, so the suite is deterministic.
"""

import time

import numpy as np
from conftest import random_density, random_hermitian, random_pure

from entmono import (
    PureState,
    RoofConfig,
    TcmConfig,
    concurrence_lower_bound,
    evolve,
    hermitian_eigenvalues,
    isotropic_concurrence_bound,
    isotropic_state,
    isotropic_tangle_bound,
    majorizes,
    max_entangled,
    minimize_roof,
    neg_pnorm,
    negative_eigenvalues,
    negativity,
    partial_transpose,
    pure_concurrence,
    reduce_atom_field,
    run_trace,
    tangle_lower_bound,
)

F_GRID = np.linspace(0.0, 1.0, 21)  # 0.05 grid
DIMS = (2, 3, 5, 8, 10)
P_SET = (1.0, 1.5, 2.0, 3.0)


def _report(num, name, ok, detail=""):
    print(f"[acceptance {num:02d}] {'PASS' if ok else 'FAIL'} {name}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} failed: {name} {detail}"


def test_criterion_01_isotropic_analytic_numeric_agreement():
    start = time.perf_counter()
    worst = 0.0
    for d in DIMS:
        for f in F_GRID:
            dense = concurrence_lower_bound(isotropic_state(d, float(f)))
            worst = max(worst, abs(dense - isotropic_concurrence_bound(d, float(f))))
    elapsed = time.perf_counter() - start
    _report(1, "isotropic analytic vs numeric <= 1e-9", worst <= 1e-9 and elapsed < 30.0,
            f"worst {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_separability_threshold():
    ok = True
    for d in DIMS:
        for f in F_GRID:
            bound = concurrence_lower_bound(isotropic_state(d, float(f)))
            if f <= 1.0 / d:
                ok = ok and bound == 0.0
            elif f > 1.0 / d + 1e-6:
                ok = ok and bound > 0.0
    _report(2, "bound zero iff fidelity at or below 1/d", ok)


def test_criterion_03_pure_state_agreement():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        d_a = int(rng.integers(2, 5))
        d_b = int(rng.integers(2, 6))
        psi = random_pure(rng, d_a, d_b)
        gap = abs(concurrence_lower_bound(psi.to_density()) - pure_concurrence(psi))
        worst = max(worst, gap)
    _report(3, "pure-state agreement <= 1e-8 on 200 states", worst <= 1e-8,
            f"worst {worst:.2e}")


def test_criterion_04_exact_anchor_values():
    bell = PureState(np.array([1, 0, 0, 1]) / np.sqrt(2), (2, 2)).to_density()
    qutrit = max_entangled(3).to_density()
    checks = (
        abs(negativity(bell) - 0.5),
        abs(concurrence_lower_bound(bell) - 1.0),
        abs(tangle_lower_bound(bell) - 1.0),
        abs(concurrence_lower_bound(qutrit) - 2.0 * np.sqrt(3.0) / 3.0),
    )
    _report(4, "Bell and qutrit anchors within 1e-10", max(checks) <= 1e-10,
            f"worst {max(checks):.2e}")


def test_criterion_05_lower_bound_sandwich():
    start = time.perf_counter()
    rng = np.random.default_rng(55)
    worst = np.inf
    for i in range(50):
        d_a, d_b = (2, 3) if i % 2 == 0 else (3, 3)
        rho = random_density(rng, d_a, d_b, rank=2)
        c_cfg = RoofConfig(restarts=3, max_iters=300, seed=1000 + i)
        t_cfg = RoofConfig(objective="tangle", restarts=3, max_iters=300, seed=2000 + i)
        worst = min(worst, minimize_roof(rho, c_cfg).value - concurrence_lower_bound(rho))
        worst = min(worst, minimize_roof(rho, t_cfg).value - tangle_lower_bound(rho))
    elapsed = time.perf_counter() - start
    _report(5, "roof >= bound - 1e-7 on 50 rank-2 states", worst >= -1e-7 and elapsed < 300.0,
            f"min margin {worst:+.2e}, {elapsed:.0f}s")


def test_criterion_06_isotropic_tightness():
    worst = -np.inf
    for f in (0.5, 0.8, 1.0):
        res = minimize_roof(isotropic_state(3, f), RoofConfig(restarts=8, max_iters=1500, seed=6))
        worst = max(worst, res.value - isotropic_concurrence_bound(3, f))
    _report(6, "roof matches isotropic bound within 1e-3", worst <= 1e-3,
            f"worst gap {worst:.2e}")


def test_criterion_07_triangle_convexity_majorization():
    rng = np.random.default_rng(77)
    violation = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 21))
        a = random_hermitian(rng, n)
        b = random_hermitian(rng, n)
        alpha = float(rng.uniform())
        mix = alpha * a + (1.0 - alpha) * b
        for p in P_SET:
            violation = max(violation, neg_pnorm(a + b, p) - neg_pnorm(a, p) - neg_pnorm(b, p))
            violation = max(
                violation,
                neg_pnorm(mix, p) - alpha * neg_pnorm(a, p) - (1.0 - alpha) * neg_pnorm(b, p),
            )
        if not majorizes(
            hermitian_eigenvalues(a) + hermitian_eigenvalues(b),
            hermitian_eigenvalues(a + b),
        ):
            violation = max(violation, 1.0)
    _report(7, "triangle, convexity, eigenvalue majorization (500 trials)",
            violation <= 1e-9, f"worst violation {violation:.2e}")


def test_criterion_08_two_qubit_degeneracy():
    rng = np.random.default_rng(88)
    ok = True
    worst = 0.0
    for _ in range(500):
        rho = random_density(rng, 2, 2, rank=int(rng.integers(1, 5)))
        pt = partial_transpose(rho)
        ok = ok and negative_eigenvalues(pt).size <= 1
        worst = max(worst, abs(neg_pnorm(pt, 1.0) - neg_pnorm(pt, 2.0)))
    _report(8, "two-qubit PT: at most one negative eigenvalue, p-independent",
            ok and worst <= 1e-10, f"worst |m1-m2| {worst:.2e}")


def test_criterion_09_large_d_limit():
    worst = 0.0
    for f in (0.25, 0.5, 1.0):
        worst = max(worst, abs(isotropic_tangle_bound(10**4, f) - 2.0 * f * f))
    _report(9, "d=10^4 tangle bound within 1e-2 of 2 F^2", worst <= 1e-2,
            f"worst {worst:.2e}")


def test_criterion_10_tcm_structural_reproduction():
    start = time.perf_counter()
    trace = run_trace(TcmConfig())  # nbar=100, n_max=200, gt in [0, 50], 1000 points
    elapsed = time.perf_counter() - start
    n2 = trace.n2pt
    rank_ok = bool(np.all(trace.rank_estimate <= 2))
    start_ok = n2[0] == 0.0 and bool(np.all(n2 >= 0.0))
    non_constant = float(n2.max() - n2.min()) > 1e-3
    interior = np.arange(1, n2.size - 1)
    maxima = interior[(n2[interior] > n2[interior - 1]) & (n2[interior] > n2[interior + 1])]
    minima = interior[(n2[interior] < n2[interior - 1]) & (n2[interior] < n2[interior + 1])]
    modulated = maxima.size > 0 and minima.size > 0 and bool(np.any(minima > maxima[0]))
    ok = rank_ok and start_ok and non_constant and modulated and elapsed < 600.0
    _report(10, "two-atom cavity run: rank <= 2, modulated bound",
            ok, f"{maxima.size} maxima, {minima.size} minima, {elapsed:.0f}s")


def test_criterion_11_tcm_roof_oracle_desk_scale():
    cfg = TcmConfig(nbar=4.0, n_max=30, t_grid=np.linspace(0.5, 12.0, 5))
    states = evolve(cfg)
    worst = -np.inf
    for i, row in enumerate(states):
        rho = reduce_atom_field(row, 30)
        roof = minimize_roof(rho, RoofConfig(objective="tangle", restarts=4,
                                             max_iters=500, seed=110 + i))
        worst = max(worst, tangle_lower_bound(rho) - roof.value)
    _report(11, "tangle bound below roof oracle at desk scale", worst <= 1e-6,
            f"max excess {worst:+.2e}")
