import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entmono import (
    DimensionMismatchError,
    RoofConfig,
    TcmConfig,
    TruncationError,
    coherent_state,
    evolve,
    hermitian_eigenvalues,
    minimize_roof,
    reduce_atom_field,
    run_trace,
    tangle_lower_bound,
)
from entmono import tcm
from entmono.linalg import zero_cutoff


def excitation_expectation(state, n_max: int) -> float:
    """Expectation of the conserved total excitation number."""
    fock = n_max + 1
    weights = np.abs(np.asarray(state).reshape(4, fock)) ** 2
    atoms = np.array([0.0, 1.0, 1.0, 2.0])  # row 2 s1 + s2: gg, ge, eg, ee
    return float(weights.sum(axis=1) @ atoms + weights.sum(axis=0) @ np.arange(fock))


class TestCoherentState:
    def test_vacuum(self):
        amps = coherent_state(0.0, 5)
        assert np.allclose(amps, [1, 0, 0, 0, 0, 0])

    def test_mean_photon_number(self):
        amps = coherent_state(10.0, 200)
        nbar = float(np.sum(np.arange(201) * amps * amps))
        assert abs(nbar - 100.0) < 1e-6

    def test_recurrence_well_past_factorial_overflow(self):
        # 250! overflows float64; log-space evaluation keeps every amplitude
        # finite and the ratio c_{n+1} / c_n = alpha / sqrt(n + 1) intact.
        amps = coherent_state(10.0, 250)
        assert np.all(np.isfinite(amps))
        ratios = amps[1:] / amps[:-1]
        expect = 10.0 / np.sqrt(np.arange(1.0, 251.0))
        assert np.allclose(ratios, expect, rtol=1e-12)

    def test_normalization(self):
        assert abs(np.sum(coherent_state(4.0, 60) ** 2) - 1.0) < 1e-12

    @pytest.mark.parametrize("nbar", [2000.0, 1e4])
    def test_large_mean_photon_number(self, nbar):
        # exp(-nbar / 2) underflows float64 beyond nbar ~ 1490
        n_max = int(nbar + 10.0 * np.sqrt(nbar))
        prob = coherent_state(np.sqrt(nbar), n_max) ** 2
        n = np.arange(n_max + 1)
        mean = float(prob @ n)
        assert abs(prob.sum() - 1.0) < 1e-12
        assert abs(mean - nbar) < 1e-8 * nbar
        assert abs(float(prob @ (n - mean) ** 2) - nbar) < 1e-6 * nbar

    def test_inadequate_cutoff_raises(self):
        with pytest.raises(TruncationError):
            coherent_state(10.0, 20)

    def test_huge_alpha_keeps_no_weight(self):
        # (n - alpha^2) / alpha^2 rounds to -1: the amplitudes underflow to 0
        # and the weight 0 is refused, where a NaN weight would pass the rule
        with pytest.raises(TruncationError, match="keeps only 0.00000000"):
            coherent_state(1e150, 30)

    @pytest.mark.parametrize("alpha", [1e-155, 1e-170])
    def test_tiny_alpha_is_nearly_the_vacuum(self, alpha):
        # alpha^2 is subnormal or 0, so n / alpha^2 would overflow in Stirling's form
        amps = coherent_state(alpha, 30)
        assert amps[0] == 1.0 and amps[1] == pytest.approx(alpha, rel=1e-14)
        assert np.all(amps[20:] == 0.0)

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            coherent_state(-1.0, 10)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), 1e200])
    def test_rejects_non_finite_alpha(self, alpha):
        # 1e200 is finite, but its square, the mean photon number, is not
        with pytest.raises(ValueError, match="alpha"):
            coherent_state(alpha, 10)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_int_alpha_beyond_the_float_range_names_alpha(self, sign):
        with pytest.raises(ValueError, match="alpha"):
            coherent_state(sign * 10**400, 5)

    @pytest.mark.parametrize("n_max", [20.0, np.float64(20), True], ids=["float", "np", "bool"])
    def test_rejects_non_integer_cutoff(self, n_max):
        with pytest.raises(ValueError, match="n_max must be a non-negative integer"):
            coherent_state(2.0, n_max)

    def test_accepts_numpy_integer_cutoff(self):
        assert np.array_equal(coherent_state(2.0, np.int64(20)), coherent_state(2.0, 20))


class TestConfig:
    def test_default_is_adequate(self):
        cfg = TcmConfig()
        assert cfg.nbar == 100.0 and cfg.n_max == 200
        assert cfg.t_grid.size == 1000

    def test_rejects_small_cutoff(self):
        with pytest.raises(ValueError, match="inadequate"):
            TcmConfig(nbar=100.0, n_max=120)
        for n_max in (0, 1):
            with pytest.raises(ValueError, match="n_max must be at least 2"):
                TcmConfig(nbar=0.0, n_max=n_max)

    @pytest.mark.parametrize("nbar, n_max", [(1.0, 7), (4.0, 16)])
    def test_rejects_cutoff_that_truncates_the_coherent_state(self, nbar, n_max):
        # evolve starts from c_0 .. c_{n_max - 2}; their weight decides
        with pytest.raises(TruncationError):
            coherent_state(np.sqrt(nbar), n_max - 2)
        weight = sum(np.exp(-nbar) * nbar**n / math.factorial(n) for n in range(n_max - 1))
        with pytest.raises(ValueError, match=f"keeps only {weight:.8f} of the coherent state's weight"):
            TcmConfig(nbar=nbar, n_max=n_max)
        TcmConfig(nbar=nbar, n_max=n_max + 4)

    @pytest.mark.parametrize("nbar, smallest", [(0.0, 2), (1.0, 11), (4.0, 19), (25.0, 54),
                                                (100.0, 153)])
    def test_every_accepted_cutoff_runs(self, nbar, smallest):
        with pytest.raises(ValueError, match="n_max"):
            TcmConfig(nbar=nbar, n_max=smallest - 1)
        cfg = TcmConfig(nbar=nbar, n_max=smallest, t_grid=np.linspace(0.0, 200.0, 101))
        states = evolve(cfg)
        assert np.abs(np.linalg.norm(states, axis=1) - 1.0).max() < 1e-12
        for row in states:
            assert reduce_atom_field(row, smallest).dims == (2, smallest + 1)

    def test_rejects_non_increasing_grid(self):
        with pytest.raises(ValueError, match="increasing"):
            TcmConfig(nbar=0.0, n_max=5, t_grid=np.array([0.0, 1.0, 1.0]))

    @pytest.mark.parametrize("nbar", [4e17, 1e300])
    def test_rejects_nbar_beyond_every_reachable_cutoff(self, nbar):
        with pytest.raises(ValueError, match="n_max=200 is inadequate"):
            TcmConfig(nbar=nbar, n_max=200)

    def test_every_nbar_runs_or_names_its_cutoff(self):
        # from subnormal to near the largest float, at one cutoff
        for nbar in [0.0, 5e-324, 1.7976931348623157e308] + [10.0**k for k in range(-320, 309, 8)]:
            try:
                cfg = TcmConfig(nbar=nbar, n_max=60, t_grid=np.array([0.0, 3.0]))
            except ValueError as exc:
                assert str(exc).startswith("n_max=60 is inadequate for nbar="), exc
                continue
            assert np.abs(np.linalg.norm(evolve(cfg), axis=1) - 1.0).max() < 1e-12

    def test_subnormal_nbar_runs(self):
        cfg = TcmConfig(nbar=1e-310, n_max=30, t_grid=np.linspace(0.0, 5.0, 3))
        trace = run_trace(cfg)
        assert np.all(np.isfinite(trace.n2pt)) and np.all(np.isfinite(trace.purity))

    def test_keeps_the_checked_amplitudes_for_evolve(self, monkeypatch):
        cfg = TcmConfig(nbar=4.0, n_max=30, t_grid=np.array([0.0]))
        assert np.array_equal(cfg._amplitudes, coherent_state(2.0, 28))
        assert not cfg._amplitudes.flags.writeable

        def forbidden(*args):
            raise AssertionError("evolve checked the cutoff again")

        monkeypatch.setattr(tcm, "coherent_state", forbidden)
        assert np.array_equal(evolve(cfg)[0, 3 * 31:3 * 31 + 29], cfg._amplitudes)

    @pytest.mark.parametrize("nbar", [float("nan"), float("inf"), -1.0])
    def test_rejects_nbar_outside_finite_range(self, nbar):
        with pytest.raises(ValueError, match="nbar"):
            TcmConfig(nbar=nbar, n_max=5)

    @pytest.mark.parametrize("sign", [1, -1])
    def test_int_nbar_beyond_the_float_range_names_nbar(self, sign):
        with pytest.raises(ValueError, match="nbar must be finite"):
            TcmConfig(nbar=sign * 10**400, n_max=30)

    @pytest.mark.parametrize("n_max", [20.5, 30.0, True, -1])
    def test_rejects_non_integer_cutoff(self, n_max):
        with pytest.raises(ValueError, match="n_max must be a non-negative integer"):
            TcmConfig(nbar=0.0, n_max=n_max)

    def test_accepts_numpy_integer_cutoff(self):
        assert TcmConfig(nbar=4.0, n_max=np.int64(30)).n_max == 30


class TestEvolution:
    def test_time_zero_returns_initial(self):
        cfg = TcmConfig(nbar=4.0, n_max=30, t_grid=np.array([0.0, 1.0]))
        states = evolve(cfg)
        psi0 = np.zeros(4 * 31, dtype=complex)
        psi0[3 * 31:3 * 31 + 29] = coherent_state(2.0, 28)
        assert np.abs(states[0] - psi0).max() < 1e-12

    @pytest.mark.parametrize("nbar", [0, 1, 2, 5])
    def test_matches_dense_hamiltonian(self, nbar):
        # Full 4 (n_max + 1)-dimensional unit-coupling Hamiltonian on the flat
        # index (2 s1 + s2) (n_max + 1) + n, built from its operators alone,
        # at the smallest accepted cutoff and a larger one.
        smallest = {0: 2, 1: 11, 2: 14, 5: 21}[nbar]
        t = np.array([0.0, 0.3, 1.7, 12.5, 50.0])
        for n_max in (smallest, smallest + 9):
            fock = n_max + 1
            a = np.diag(np.sqrt(np.arange(1.0, fock)), 1)
            lower = np.array([[0.0, 1.0], [0.0, 0.0]])  # sigma^-: |1> -> |0>
            eye2 = np.eye(2)
            jump = np.kron(np.kron(lower, eye2), a.T) + np.kron(np.kron(eye2, lower), a.T)
            w, vec = np.linalg.eigh(jump + jump.T)
            psi0 = np.zeros(4 * fock, dtype=complex)
            psi0[3 * fock:4 * fock - 2] = coherent_state(np.sqrt(nbar), n_max - 2)
            dense = (vec @ (np.exp(-1j * np.outer(w, t)) * (vec.T @ psi0)[:, None])).T
            states = evolve(TcmConfig(nbar=nbar, n_max=n_max, t_grid=t))
            assert np.abs(states - dense).max() < 1e-12

    def test_norm_conservation(self):
        cfg = TcmConfig(nbar=4.0, n_max=30, t_grid=np.linspace(0.0, 20.0, 40))
        states = evolve(cfg)
        norms = np.linalg.norm(states, axis=1)
        assert np.abs(norms - 1.0).max() < 1e-12

    def test_excitation_conservation(self):
        cfg = TcmConfig(nbar=4.0, n_max=30, t_grid=np.linspace(0.0, 20.0, 40))
        states = evolve(cfg)
        expected = excitation_expectation(states[0], 30)
        assert abs(expected - 6.0) < 1e-10  # two excited atoms plus nbar
        for row in states[1:]:
            assert abs(excitation_expectation(row, 30) - expected) < 1e-8

    def test_leakage_raises(self):
        # the weight of c_0 .. c_7 falls short of 1 - TRUNCATION_TOL, so the
        # configuration is refused before anything runs
        with pytest.raises(ValueError, match="n_max=9 is inadequate"):
            TcmConfig(nbar=1.0, n_max=9, t_grid=np.linspace(0.0, 40.0, 60))


class TestReduction:
    def test_initial_product_state(self):
        fock = 31
        psi0 = np.zeros(4 * fock, dtype=complex)
        psi0[3 * fock:] = coherent_state(2.0, 30)
        rho = reduce_atom_field(psi0, 30)
        assert rho.dims == (2, fock)
        w = hermitian_eigenvalues(rho.mat)
        assert w[0] > 1.0 - 1e-10  # rank one
        assert tangle_lower_bound(rho) == 0.0

    def test_rank_at_most_two(self):
        cfg = TcmConfig(nbar=4.0, n_max=30, t_grid=np.linspace(0.0, 15.0, 12))
        for row in evolve(cfg):
            w = hermitian_eigenvalues(reduce_atom_field(row, 30).mat)
            assert w[2] <= 1e-10

    def test_purity_matches_retained_eigenvalues(self):
        cfg = TcmConfig(nbar=4.0, n_max=30, t_grid=np.linspace(0.0, 15.0, 8))
        states = evolve(cfg)
        trace = run_trace(cfg)
        for i, row in enumerate(states):
            w = hermitian_eigenvalues(reduce_atom_field(row, 30).mat)
            assert 0.0 < trace.purity[i] <= 1.0 + 1e-12
            assert abs(trace.purity[i] - (w[0] ** 2 + w[1] ** 2)) < 1e-9
            assert trace.rank_estimate[i] == np.sum(w > 1e-10)

    def test_rejects_wrong_size(self):
        with pytest.raises(DimensionMismatchError):
            reduce_atom_field(np.zeros(10), 30)

    def test_rejects_invalid_state(self):
        psi = np.zeros(4 * 31, dtype=complex)
        psi[3 * 31:] = coherent_state(2.0, 30)
        with pytest.raises(ValueError, match="trace"):
            reduce_atom_field(2.0 * psi, 30)
        psi[5] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            reduce_atom_field(psi, 30)


class TestRunTrace:
    def test_starts_at_zero(self):
        cfg = TcmConfig(nbar=4.0, n_max=30, t_grid=np.linspace(0.0, 10.0, 6))
        trace = run_trace(cfg)
        assert trace.n2pt[0] == 0.0
        assert trace.rank_estimate[0] == 1
        assert np.all(trace.n2pt >= 0.0)
        assert np.all(trace.rank_estimate <= 2)

    def test_zero_coupling_stays_zero(self):
        # With g = 0 the effective time gt is zero throughout the run.
        cfg = TcmConfig(nbar=4.0, n_max=30, t_grid=np.array([0.0]))
        trace = run_trace(cfg)
        assert np.all(trace.n2pt == 0.0)
        assert np.all(trace.rank_estimate == 1)

    def test_bound_below_roof_oracle(self):
        cfg = TcmConfig(nbar=4.0, n_max=30, t_grid=np.linspace(0.5, 12.0, 3))
        states = evolve(cfg)
        roof_cfg = RoofConfig(objective="tangle", restarts=3, max_iters=400, seed=0)
        for row in states:
            rho = reduce_atom_field(row, 30)
            bound = tangle_lower_bound(rho)
            assert bound <= minimize_roof(rho, roof_cfg).value + 1e-6

    @settings(derandomize=True, database=None, max_examples=12, deadline=None)
    @given(st.floats(0.0, 25.0),
           st.lists(st.floats(0.0, 30.0), min_size=1, max_size=3, unique=True))
    def test_real_gauge_matches_the_physical_states(self, nbar, times):
        # run_trace solves real matrices in a local-phase gauge; the public
        # path reduces the complex evolved states and solves them as they are
        cfg = TcmConfig(nbar=nbar, n_max=60, t_grid=np.sort(times))
        trace = run_trace(cfg)
        for k, row in enumerate(evolve(cfg)):
            rho = reduce_atom_field(row, 60)
            assert abs(trace.n2pt[k] - tangle_lower_bound(rho)) <= 1e-14
            w = hermitian_eigenvalues(rho.mat)
            assert trace.rank_estimate[k] == np.sum(w > zero_cutoff(w))
            assert abs(trace.purity[k] - np.sum(w * w)) <= 1e-14

    def test_solves_only_real_matrices(self, monkeypatch):
        seen = []
        eigvalsh = np.linalg.eigvalsh

        def record(a, *args, **kwargs):
            seen.append(a.dtype)
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", record)
        run_trace(TcmConfig(nbar=4.0, n_max=30, t_grid=np.linspace(0.0, 10.0, 6)))
        assert seen == [np.dtype(np.float64)] * (1 + 6)  # the 2 x 2 Grams, then each point

    def test_rows_iteration(self):
        cfg = TcmConfig(nbar=4.0, n_max=30, t_grid=np.linspace(0.0, 5.0, 4))
        trace = run_trace(cfg)
        rows = list(trace.rows)
        assert len(rows) == 4
        assert rows[0][0] == 0.0
