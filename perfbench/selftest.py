"""Self-test of the benchmark: every workload once at minimum size.

    python3 perfbench/selftest.py

For each workload it runs ``run.py`` untraced, traced, and with one output
deliberately falsified, and checks that

* the last stdout line has exactly the keys ``correct``, ``attempted``,
  ``failed`` and ``metrics``;
* every metric BENCHMARK.json names for that mode is printed, with its unit,
  as a finite number (end-to-end values also non-zero);
* clean runs pass every check, and the falsified output is counted as failed.

It also copies only BENCHMARK.json and this directory into a scratch
directory and checks that the benchmark refuses to run there. Exits 0 when
every check holds.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT = 180


def run(args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--seconds", "1", "--seed", "3", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if proc.returncode == 0 and lines else None


def problems(res, expected, *, corrupt, nonzero):
    if res is None:
        return ["no result line"]
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys {sorted(res)}"]
    out = []
    if set(res["metrics"]) != set(expected):
        out.append(f"metric names differ: {sorted(set(res['metrics']) ^ set(expected))}")
    for name, unit in expected.items():
        got = res["metrics"].get(name, {})
        value = got.get("value")
        if got.get("unit") != unit:
            out.append(f"{name}: unit {got.get('unit')!r}, expected {unit!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value) or (nonzero and value == 0):
            out.append(f"{name}: value {value!r}")
    if not (isinstance(res["attempted"], int) and res["attempted"] >= 1):
        out.append(f"attempted {res['attempted']!r}")
    if corrupt and (res["failed"] < 1 or res["correct"]):
        out.append("falsified output was not counted as failed")
    if not corrupt and (res["failed"] != 0 or not res["correct"]):
        out.append(f"{res['failed']} failed operations on a clean run")
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {s: {m["name"]: m["unit"] for m in spec[s]} for s in ("end_to_end", "per_layer")}
    failures = 0
    for wl in (w["name"] for w in spec["workloads"]):
        for label, args, section, corrupt in (
            ("untraced", ["--trace", "0"], "end_to_end", False),
            ("traced", ["--trace", "1"], "per_layer", False),
            ("falsified", ["--trace", "0", "--corrupt"], "end_to_end", True),
        ):
            proc = run(["--workload", wl, *args])
            found = problems(result_of(proc), units[section], corrupt=corrupt,
                             nonzero=section == "end_to_end")
            failures += bool(found)
            print(f"{'FAIL' if found else 'ok  '} {wl} {label}", *found, sep="\n     " if found else " ")
            if found and proc.stderr:
                print(proc.stderr[-1500:])

    (ROOT / ".bench_out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(HERE, Path(tmp) / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", spec["workloads"][0]["name"], "--trace", "0"], cwd=tmp)
        lone_ok = proc.returncode != 0 and '"correct"' not in proc.stdout
        failures += not lone_ok
        print(f"{'ok  ' if lone_ok else 'FAIL'} refuses to run without the library "
              f"(exit {proc.returncode})")
    print("self-test passed" if not failures else f"self-test: {failures} failure(s)")
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
