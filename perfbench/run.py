"""entmono benchmark: one workload, one run.

    python3 perfbench/run.py --workload tcm --seed 1 --seconds 15 --trace 0

Builds the workload's inputs from ``--seed``, runs its operation in a
closed loop (one caller, next operation after the previous one returns)
until the operations have taken ``--seconds``, checks every output against
an independent numpy reference as it arrives (outside the timed interval),
and prints one JSON object as the last line of stdout. With
``--trace 0`` the metrics are the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` the run measures an untraced pass, replays the same
operations with spans around every call into the library, and reports the
per-layer metrics. Results, the environment record and spans go to
``.bench_out/`` in the checkout. See README.md for what each metric means.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy loads: single-threaded LAPACK is the
# steadiest timing on a shared machine, and nproc is recorded beside it.
BLAS_THREADS = 1
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
ENV_BEFORE = {v: os.environ.get(v) for v in _THREAD_VARS}
for _var in _THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from spans import LAYERS, SpanStats, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
sys.path.insert(0, str(ROOT / "src"))


@dataclass
class Op:
    k: int
    seconds: float
    probe: float  # mean time of the probes run just before and just after
    failures: list
    summary: object = None


def timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def set_up(args, workdir):
    """A fresh import of ``entmono`` plus the workload's inputs, timed."""
    t0 = time.perf_counter()
    em = import_entmono()
    wl = WORKLOADS[args.workload]()
    wl.setup(em, np.random.default_rng(args.seed), workdir)
    return em, wl, time.perf_counter() - t0


def import_entmono():
    """Import the package from this checkout's ``src``, discarding any earlier import."""
    for name in [n for n in sys.modules if n == "entmono" or n.startswith("entmono.")]:
        del sys.modules[name]
    em = importlib.import_module("entmono")
    importlib.import_module("entmono.cli")
    if Path(em.__file__).resolve().parent != ROOT / "src" / "entmono":
        raise ImportError(f"entmono imported from {em.__file__}, not from this checkout")
    return em


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, ValueError):
        blas = {"name": "unknown", "version": "unknown"}
    return {"python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "thread_env_before": ENV_BEFORE, "blas_threads_pinned": BLAS_THREADS,
            "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "machine": platform.machine()}


def run_pass(wl, em, *, seconds=None, count=None, tracer=None, corrupt=False, between=None):
    """Closed loop over operations 0, 1, ... until ``count`` operations or
    ``seconds`` of operation time. ``corrupt`` falsifies output 0;
    ``between(busy)`` runs after each operation, outside all timing."""
    ops = []
    busy = 0.0
    probe_before = timed(wl.probe)
    while True:
        k = len(ops)
        if tracer is not None:
            tracer.run_id = k
            tracer.begin("op")
        t0 = time.perf_counter()
        try:
            rec = wl.op(em, k)
        except Exception:  # an operation that raises is a failed operation
            rec, failures = None, [traceback.format_exc()]
        seconds_k = time.perf_counter() - t0
        if tracer is not None:
            tracer.end()
        if rec is not None:
            if corrupt and k == 0:
                rec = wl.corrupt(rec)
            try:
                failures = wl.check(k, rec)
            except Exception:  # an output the checker cannot parse
                failures = [traceback.format_exc()]
        probe_after = timed(wl.probe)
        ops.append(Op(k, seconds_k, (probe_before + probe_after) / 2, failures,
                      None if failures else wl.summary(rec)))
        probe_before = probe_after
        busy += seconds_k
        if between is not None:
            between(busy)
        if (len(ops) >= count) if count is not None else busy >= seconds:
            return ops


def op_rel(ops):
    """Median operation time in units of the probe timed around it."""
    return statistics.median(op.seconds / op.probe for op in ops)


def layer_metrics(wl, stats, untraced, traced):
    """Per-layer values; a layer or search kind the workload never reaches reads 0."""
    items = len(traced) * wl.ITEMS
    m = {f"{layer}.self_s": stats.layer_self(layer) / items for layer in LAYERS}
    m["cli.residual_s"] = stats.self_per_call("cli.main")
    for name in ("tcm.coherent_state", "tcm.evolve", "tcm.reduce_atom_field",
                 "linalg.density_matrix", "linalg.partial_transpose",
                 "linalg.hermitian_eigenvalues", "monotones.neg_pnorm",
                 "monotones.negativity", "monotones.concurrence_lower_bound",
                 "monotones.monotone_report", "io.load_state"):
        m[name + "_s"] = stats.mean(name)
    for d in (256, 512, 1024):
        m[f"linalg.hermitian_eigenvalues_s.d{d}"] = stats.mean_at("linalg.hermitian_eigenvalues", d)
    m["linalg.eig_dim"] = stats.median_attr("linalg.hermitian_eigenvalues")
    m["tcm.points"] = stats.calls["tcm.reduce_atom_field"]
    pt_calls = stats.calls["linalg.partial_transpose"]
    lowrank = wl.lowrank_pt_inputs([op.summary for op in traced if not op.failures])
    m["monotones.lowrank_share"] = lowrank / pt_calls if pt_calls else 0.0
    searches = stats.calls["convex_roof.minimize_roof"]
    objective, restarts = wl.ROOF or (None, 1)
    for obj in ("concurrence", "tangle"):
        m[f"convex_roof.restart_s.{obj}"] = (
            stats.mean("convex_roof.minimize_roof") / restarts if obj == objective else 0.0)
    m["convex_roof.useful_restart_frac.concurrence"] = 0.0
    m["convex_roof.useful_restart_frac.tangle"] = 0.0
    m["convex_roof.restart_spread.concurrence"] = 0.0
    good = [op.summary for op in untraced + traced if not op.failures]
    if good:
        m.update(wl.extras(good))
    m["convex_roof.certify_s"] = (
        (stats.incl["convex_roof.average_objective"] + stats.incl["convex_roof.mixture"])
        / searches if searches else 0.0)
    load_time = stats.incl["io.load_state"]
    m["io.bytes_per_s"] = sum(stats.attrs["io.load_state"]) / load_time if load_time else 0.0
    m["trace.coverage"] = stats.top_level / sum(op.seconds for op in traced)
    m["trace.overhead"] = op_rel(traced) / op_rel(untraced) - 1.0
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true",
                        help="self-test only: falsify the first output before checking it")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        em, wl, first = set_up(args, Path(tmp))
        setup_times = [first]
        tracer = None
        if args.trace:
            untraced = run_pass(wl, em, seconds=args.seconds / 2, corrupt=args.corrupt)
            tracer = Tracer()
            tracer.install(em)
            try:
                traced = run_pass(wl, em, count=len(untraced), tracer=tracer)
            finally:
                tracer.uninstall()
            ops = untraced + traced
        else:
            # Further set-ups are spread over the run, so that their median
            # samples the machine as the operations do.
            def between(busy):
                while (len(setup_times) < SETUP_REPEATS
                       and busy >= len(setup_times) * args.seconds / SETUP_REPEATS):
                    setup_times.append(set_up(args, Path(tmp))[2])

            ops = run_pass(wl, em, seconds=args.seconds, corrupt=args.corrupt, between=between)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = [{"op": op.k, "reasons": op.failures} for op in ops if op.failures]

    if args.trace:
        values = layer_metrics(wl, SpanStats(tracer.spans), untraced, traced)
        values["trace.spans"] = len(tracer.spans)
    else:
        values = {"setup_s": statistics.median(setup_times), "peak_rss_mb": peak_rss_mb,
                  "op_rel": op_rel(ops)}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {"correct": not failures, "attempted": len(ops), "failed": len(failures),
              "metrics": metrics}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "env": env, "setup_times_s": setup_times,
              "op_seconds": [op.seconds for op in ops], "items_per_op": wl.ITEMS,
              "probe_seconds": [op.probe for op in ops],
              "failures": failures, "result": result}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(tracer.to_json()) + "\n")
    for f in failures[:5]:
        print(f"failed op {f['op']}: {f['reasons'][0].strip().splitlines()[-1]}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(f"fail_frac {len(failures)}/{len(ops)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (ImportError, OSError) as exc:  # no library or no BENCHMARK.json to measure
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
