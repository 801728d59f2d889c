"""The benchmark's workloads: inputs from a seed, one timed operation, checks.

Each workload exposes

* ``setup(em, rng, workdir)``: build every input from ``rng`` (files go in
  ``workdir``); ``em`` is the freshly imported ``entmono`` package;
* ``op(em, k)``: the k-th timed operation, replayable for the same ``k``;
* ``check(k, rec)``: a list of failed checks on that operation's output (an
  output it cannot parse makes it raise, which also counts as failed);
* ``summary(rec)``: the little that the per-layer metrics need from a
  passing output, so that outputs are not kept and memory does not grow
  with the number of operations;
* ``probe``: a fixed numpy kernel with the operation's profile, timed just
  before and after each operation, so ``op_rel`` can cancel the machine's
  speed changes;
* ``ITEMS``: work items per operation.

Why each workload exists, and the layer it bypasses, is in README.md.
"""

from __future__ import annotations

import contextlib
import io
import json

import numpy as np

import reference as ref


def _cli(em, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = em.cli.main(argv)
    return {"rc": rc, "out": buf.getvalue()}


def _close(a, b, tol=1e-9):
    return abs(float(a) - float(b)) <= tol


class Workload:
    ROOF = None  # (objective, restarts per search) for the roof workloads
    probe = None  # a fixed numpy kernel like the operation, set in setup

    def summary(self, rec):
        return None

    def extras(self, summaries):
        """Per-layer values only this workload can give."""
        return {}

    def lowrank_pt_inputs(self, summaries):
        """Number of partial transposes taken of inputs with ``r d_a^2 < d_a d_b``."""
        return 0


class Tcm(Workload):
    """``entmono tcm`` at the paper's size: low-rank inputs to dense eigensolves."""

    ITEMS = 8  # time points per CLI call
    NBAR, N_MAX, POOL = 100.0, 200, 32
    DIMS = (2, N_MAX + 1)

    def setup(self, em, rng, workdir):
        self.t_max = rng.uniform(45.0, 55.0, self.POOL)
        self.samples = rng.integers(1, self.ITEMS, size=self.POOL)
        self.probe = ref.eig_probe([self.DIMS[0] * self.DIMS[1]], reps=2)
        self._ref = None
        self._first_out = None

    def _slot(self, k):
        return 0 if k == 1 else k % self.POOL  # call 1 repeats call 0's argv

    def argv(self, k):
        return ["tcm", "--nbar", repr(self.NBAR), "--n-max", str(self.N_MAX),
                "--t-max", repr(float(self.t_max[self._slot(k)])), "--steps", str(self.ITEMS)]

    def op(self, em, k):
        return _cli(em, self.argv(k))

    def check(self, k, rec):
        if rec["rc"] != 0:
            return [f"exit code {rec['rc']}"]
        lines = rec["out"].split("\n")
        if lines[0] != "gt,n2pt,rank,purity" or lines[-1] != "" or len(lines) != self.ITEMS + 2:
            return ["malformed CSV"]
        rows = [[float(x) for x in ln.split(",")] for ln in lines[1:-1]]
        gt, n2, rank, purity = (np.array(col) for col in zip(*rows))
        slot = self._slot(k)
        bad = []
        if not np.allclose(gt, np.linspace(0.0, self.t_max[slot], self.ITEMS), rtol=0, atol=1e-12):
            bad.append("time grid")
        if np.any(rank > 2) or np.any(n2 < 0) or np.any(n2 > 1) or n2[0] != 0.0:
            bad.append("rank <= 2, n2pt in [0, 1], n2pt[0] == 0")
        if self._ref is None:
            self._ref = ref.CavityReference(self.NBAR, self.N_MAX)
        i = self.samples[slot]
        r_n2, r_rank, r_pur = self._ref.point(gt[i])
        if not (_close(n2[i], r_n2) and rank[i] == r_rank and _close(purity[i], r_pur)):
            bad.append(f"point {i} differs from reference")
        if k == 0:
            self._first_out = rec["out"]
        elif k == 1 and rec["out"] != self._first_out:
            bad.append("repeated argv gave different CSV bytes")
        return bad

    def corrupt(self, rec):
        lines = rec["out"].split("\n")
        fields = lines[2].split(",")
        fields[2] = "3"
        lines[2] = ",".join(fields)
        return {**rec, "out": "\n".join(lines)}

    def summary(self, rec):
        """Low-rank time points; each takes one partial transpose."""
        d_a, d_b = self.DIMS
        ranks = [int(ln.split(",")[2]) for ln in rec["out"].split("\n")[1:-1]]
        return sum(q * d_a * d_a < d_a * d_b for q in ranks)

    def lowrank_pt_inputs(self, summaries):
        return sum(summaries)


class RoofConcurrence(Workload):
    """``entmono roof`` on the d = 3 isotropic state, one restart per search."""

    ITEMS = 1
    ROOF = ("concurrence", 1)
    D, F, ITERS = 3, 0.8, 1500  # criterion-06 state and iteration cap

    def setup(self, em, rng, workdir):
        mat = ref.isotropic(self.D, self.F)
        dims = (self.D, self.D)
        self.path = str(workdir / "isotropic.json")
        with open(self.path, "w", encoding="utf-8") as fh:
            fh.write(ref.state_json(mat, dims))
        self.bound = ref.monotones(mat, dims)["concurrence_bound"]
        self.seed0 = int(rng.integers(0, 2**31))
        self.probe = ref.roof_step_probe(1600, 13, 9, dims)

    def op(self, em, k):
        return _cli(em, ["roof", "--objective", "concurrence", "--input", self.path,
                         "--restarts", "1", "--iters", str(self.ITERS),
                         "--seed", str(self.seed0 + k)])

    @staticmethod
    def _parse(rec):
        head, row, tail = rec["out"].split("\n")
        if head != "value,reconstruction_residual" or tail != "":
            raise ValueError("malformed CSV")
        value, residual = (float(x) for x in row.split(","))
        return value, residual

    def check(self, k, rec):
        if rec["rc"] != 0:
            return [f"exit code {rec['rc']}"]
        value, residual = self._parse(rec)
        bad = []
        if not (self.bound - 1e-7 <= value <= self.bound + 1e-3):
            bad.append(f"value {value!r} outside [bound - 1e-7, bound + 1e-3]")
        if not residual <= 1e-8:
            bad.append(f"reconstruction residual {residual!r}")
        return bad

    def corrupt(self, rec):
        value, residual = self._parse(rec)
        return {**rec, "out": f"value,reconstruction_residual\n{value + 0.01!r},{residual!r}\n"}

    def summary(self, rec):
        return self._parse(rec)[0]

    def extras(self, summaries):
        """Each search is one restart on the same state."""
        vals = np.array(summaries)
        return {"convex_roof.useful_restart_frac.concurrence":
                float(np.mean(vals <= vals.min() + 1e-6)),
                "convex_roof.restart_spread.concurrence": float(vals.max() - vals.min())}


class RoofTangle(Workload):
    """``minimize_roof`` (criterion-11 configuration) on rank-two atom-field states."""

    ITEMS = 64  # searches per round, one per time stratum
    ROOF = ("tangle", 4)
    NBAR, N_MAX = 4.0, 30
    T_MIN, T_MAX = 0.5, 12.0
    DIMS = (2, N_MAX + 1)

    def setup(self, em, rng, workdir):
        cavity = ref.CavityReference(self.NBAR, self.N_MAX)
        # A search near gt = 0.5 costs ~10x one near gt = 8. One time in each
        # of 64 equal strata, all at one seeded offset, makes a round's cost
        # differ little between seeds (random times spread it ~4x more).
        width = (self.T_MAX - self.T_MIN) / self.ITEMS
        times = self.T_MIN + width * (np.arange(self.ITEMS) + rng.uniform())
        self.mats = [cavity.atom_field(t) for t in times]
        self.seed0 = int(rng.integers(0, 2**31))
        self.probe = ref.roof_step_probe(2000, 4, 2, self.DIMS)
        self._bounds = {}

    def op(self, em, k):
        out = []
        for j, mat in enumerate(self.mats):
            rho = em.linalg.DensityMatrix(mat, self.DIMS)
            cfg = em.convex_roof.RoofConfig(objective="tangle", restarts=self.ROOF[1],
                                            max_iters=500, seed=self.seed0 + k * self.ITEMS + j)
            res = em.convex_roof.minimize_roof(rho, cfg)
            residual = float(np.abs(res.ensemble.mixture() - rho.mat).max())
            out.append((res.value, np.array(res.restart_values), residual))
        return out

    def check(self, k, rec):
        bad = []
        for j, (value, _, residual) in enumerate(rec):
            if j not in self._bounds:
                self._bounds[j] = ref.tangle_bound(self.mats[j], self.DIMS)
            if not value >= self._bounds[j] - 1e-6:
                bad.append(f"search {j}: value {value!r} below the tangle bound")
            if not residual <= 1e-8:
                bad.append(f"search {j}: reconstruction residual {residual!r}")
        return bad

    def corrupt(self, rec):
        return [(-1.0, rv, res) for _, rv, res in rec]

    def summary(self, rec):
        return [rv for _, rv, _ in rec]

    def extras(self, summaries):
        useful = attempted = 0
        for restart_values in summaries:
            for rv in restart_values:
                useful += int(np.sum(rv <= rv.min() + 1e-6))
                attempted += rv.size
        return {"convex_roof.useful_restart_frac.tangle": useful / attempted}


class DenseSmall(Workload):
    """Full-rank random states through the library, one for each of 16 dims per round."""

    DIMS = ((2, 2), (2, 3), (3, 3), (2, 5), (2, 8), (4, 4), (3, 6), (4, 5),
            (3, 8), (5, 5), (4, 8), (6, 6), (5, 8), (7, 7), (4, 16), (8, 8))
    ITEMS = len(DIMS)
    POOL = 4
    PROBE_SIZES, PROBE_REPS = tuple(a * b for a, b in DIMS), 1

    def setup(self, em, rng, workdir):
        self.mats = [[ref.random_state(rng, d) for d in self.DIMS] for _ in range(self.POOL)]
        self._refs = {}
        self.probe = ref.eig_probe(self.PROBE_SIZES, self.PROBE_REPS)

    def op(self, em, k):
        lin, mono = em.linalg, em.monotones
        out = []
        for mat, dims in zip(self.mats[k % self.POOL], self.DIMS):
            rho = lin.DensityMatrix(mat, dims)
            reports = [mono.monotone_report(lin.partial_transpose(rho), p) for p in (1, 2, 3)]
            out.append({"negativity": mono.negativity(rho),
                        "concurrence_bound": mono.concurrence_lower_bound(rho),
                        "reports": [(r.p, r.pnorm, r.power_sum, r.neg_count,
                                     np.array(r.negative_eigenvalues)) for r in reports]})
        return out

    def check(self, k, rec):
        bad = []
        for c, got in enumerate(rec):
            key = (k % self.POOL, c)
            if key not in self._refs:
                self._refs[key] = ref.monotones(self.mats[key[0]][c], self.DIMS[c])
            want = self._refs[key]
            ok = _close(got["negativity"], want["negativity"]) and _close(
                got["concurrence_bound"], want["concurrence_bound"])
            if not (ok and all(_report_ok(want, *r) for r in got["reports"])):
                bad.append(f"dims {self.DIMS[c]}: monotones differ from reference")
        return bad

    def corrupt(self, rec):
        return [{**rec[0], "negativity": rec[0]["negativity"] + 1e-6}] + rec[1:]


class DenseLarge(DenseSmall):
    """The same evaluation at D = 256, 512 and 1024, where LAPACK dominates."""

    DIMS = ((16, 16), (16, 32), (32, 32))
    ITEMS = len(DIMS)
    POOL = 2
    PROBE_SIZES, PROBE_REPS = (1024,), 1


def _report_ok(want, p, pnorm, psum, count, neg):
    wneg = want["negative_eigenvalues"]
    return (_close(pnorm, want[p]["pnorm"]) and _close(psum, want[p]["power_sum"])
            and count == wneg.size == len(neg) and np.allclose(neg, wneg, rtol=0, atol=1e-9))


class DenseCli(Workload):
    """``entmono monotone --p 2 --json`` on state files: the JSON parser dominates."""

    DIMS = ((8, 8), (16, 16))
    ITEMS = len(DIMS)
    POOL = 2

    def setup(self, em, rng, workdir):
        self.mats, self.paths = [], []
        for i in range(self.POOL):
            self.mats.append([ref.random_state(rng, d) for d in self.DIMS])
            self.paths.append([str(workdir / f"state_{i}_{c}.json") for c in range(self.ITEMS)])
            for mat, dims, path in zip(self.mats[-1], self.DIMS, self.paths[-1]):
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(ref.state_json(mat, dims))
        self._refs = {}
        self.probe = ref.json_probe((12,))

    def op(self, em, k):
        return [_cli(em, ["monotone", "--p", "2", "--json", "--input", path])
                for path in self.paths[k % self.POOL]]

    def check(self, k, rec):
        bad = []
        for c, got in enumerate(rec):
            key = (k % self.POOL, c)
            if key not in self._refs:
                self._refs[key] = ref.monotones(self.mats[key[0]][c], self.DIMS[c])
            out = json.loads(got["out"]) if got["rc"] == 0 else None
            if out is None or not _report_ok(self._refs[key], out["p"], out["pnorm"],
                                             out["power_sum"], out["neg_count"],
                                             out["negative_eigenvalues"]):
                bad.append(f"file {c}: output differs from reference")
        return bad

    def corrupt(self, rec):
        out = json.loads(rec[0]["out"])
        out["pnorm"] += 1e-6
        return [{**rec[0], "out": json.dumps(out) + "\n"}] + rec[1:]


WORKLOADS = {
    "tcm": Tcm,
    "roof_concurrence": RoofConcurrence,
    "roof_tangle": RoofTangle,
    "dense_small": DenseSmall,
    "dense_large": DenseLarge,
    "dense_cli": DenseCli,
}
