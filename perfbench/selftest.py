"""Self-test of the benchmark at toy sizes (about a minute).

    python3 perfbench/selftest.py

Checks that every workload runs and passes its gate, untraced and traced;
that each traced workload records calls on the spans it must use (a missed
patch site would otherwise read as 0 s); that call counts and computed
counters repeat exactly between two traced runs of one seed; that tracing
leaves the program's functions as it found them; that a corrupted oracle
value fails the gate; and that the benchmark refuses to run without the
program's sources.  Exits nonzero on the first failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import EXPECTED_CALLS, Tracer  # noqa: E402

SEED = 5
EXACT = ("kernels.bytes_moved_computed", "setfile.read_set.bytes",
         "energy.iterations", "energy.converged_frac")


def bench(workload: str, trace: int, seed: int = SEED) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(["--workload", workload, "--seed", str(seed),
                       "--seconds", "0.3", "--trace", str(trace),
                       "--scale", "toy"])
    return rc, json.loads(out.getvalue().strip().splitlines()[-1])


def record(workload: str, trace: int, seed: int = SEED) -> dict:
    name = f"{workload}-seed{seed}-toy-trace{trace}.json"
    return json.loads((run.WORK / "results" / name).read_text())


def check(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    check([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
          "BENCHMARK.json lists the workloads run.py knows")

    for name in workloads.WORKLOADS:
        rc, res = bench(name, 0)
        check(rc == 0 and res["correct"] and set(res["metrics"]) == e2e,
              f"{name}: untraced run passes and reports {sorted(e2e)}")
        rc, first = bench(name, 1)
        check(rc == 0 and first["correct"]
              and set(first["metrics"]) == per_layer,
              f"{name}: traced run passes and reports every per-layer metric")
        calls = record(name, 1)["calls"]
        missing = [c for c in EXPECTED_CALLS[name] if not calls.get(c)]
        check(not missing, f"{name}: spans it must use record calls "
                           f"(missing: {missing})")
        rc, second = bench(name, 1)
        exact = [k for k in per_layer if k.endswith(".calls") or k in EXACT]
        same = all(first["metrics"][k] == second["metrics"][k] for k in exact)
        check(rc == 0 and same and record(name, 1)["calls"] == calls,
              f"{name}: call counts and computed counters repeat exactly")

    tracer = Tracer()
    tracer.run(lambda: None)
    check(all(space[key] is original
              for space, key, original, _ in tracer.sites),
          "a traced repetition leaves the original functions in place")

    real = workloads.OracleCache.count
    corrupted = []

    def off_by_one(self, *args):
        value = real(self, *args)
        if not corrupted:
            corrupted.append(value)
            return value + 1
        return value

    workloads.OracleCache.count = off_by_one
    try:
        rc, res = bench("popdiff-direct", 0)
    finally:
        workloads.OracleCache.count = real
    check(corrupted and rc == 1 and not res["correct"] and res["failed"] > 0
          and not res["metrics"],
          "a corrupted oracle value fails the gate and no metric is written")

    bare = run.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "verify-all",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without src/hofa the benchmark exits nonzero and prints no result")
    print("selftest passed")


if __name__ == "__main__":
    main()
