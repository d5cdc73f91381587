"""Seeded benchmark of the hofa CLI, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from ``--seed``, runs the commands in a worker
process (see ``worker.py``) for ``--seconds``, timing a fresh interpreter's
start-up after each repetition, checks every output against the JSON schema
and the workload's oracles, and prints one JSON line last on stdout:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
A readable table goes to stderr, and the full record (environment,
per-repetition times, span counts) to ``.perfbench_work/results/``.

Exit codes: 0 result printed, 1 an output failed its checks (the last line
then carries ``"correct": false`` and no metric values), 2 the benchmark
could not run (for instance no ``src/hofa`` next to it).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MIN_REPS = 3
WATCHDOG_MARGIN_S = 90.0  # beyond --seconds, before the worker is killed

END_TO_END = (("wall_s", "s"), ("work_per_s", "units/s"), ("setup_s", "s"),
              ("peak_heap_mb", "MB"))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "toy"), default="full",
                   help="input sizes; toy is for selftest.py")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)  # the checkout's hofa, never an installed one
    env["HOFA_THREADS"] = "1"     # for the commands that take no --threads
    return env


def run_worker(plan: dict, run_dir: Path, timeout: float):
    """Run the worker; returns its results and the seconds until its
    ``ready`` line (its own start-up, up to ``import hofa.cli``)."""
    plan_path = run_dir / "plan.json"
    plan_path.write_text(json.dumps(plan))
    with open(run_dir / "worker.stderr", "wb") as err:
        t0 = time.perf_counter()
        # A session of its own, so the watchdog also ends its start-up probes.
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(plan_path)],
            stdout=subprocess.PIPE, stderr=err, cwd=ROOT, env=child_env(),
            start_new_session=True)
        ready = proc.stdout.readline().strip() == b"ready"
        setup = time.perf_counter() - t0
        watchdog = threading.Timer(
            timeout, os.killpg, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            proc.communicate()
        finally:
            watchdog.cancel()
    if not ready or proc.returncode != 0:
        tail = (run_dir / "worker.stderr").read_text(errors="replace")[-2000:]
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{tail}")
    return json.loads(Path(plan["result_path"]).read_text()), setup


def check_reps(wl, reps, validator):
    """Schema, exit code, repeatability and oracle checks for each
    repetition, the warm-up included; the oracles run once, on the first
    repetition's outputs, and later repetitions must reproduce those
    outputs exactly."""
    failed, errors, ref = 0, [], None
    for rep in reps:
        errs = [f"exit code {rc}" for rc in rep["rcs"] if rc != 0]
        docs = []
        for text in rep["stdout"]:
            try:
                doc = json.loads(text)
            except ValueError:
                errs.append("stdout is not one JSON document")
                continue
            errs += [f"schema: {e.message}" for e in validator.iter_errors(doc)]
            docs.append(doc)
        if not errs:
            outputs = (docs, rep["histograms"])
            if ref is None:
                ref = outputs
                try:
                    ref_errs = wl.check(*outputs)
                except Exception as exc:  # malformed output the schema allows
                    ref_errs = [f"oracle check raised {exc!r}"]
                errs += ref_errs
            elif outputs != ref:
                errs.append("output differs from the first repetition")
            elif ref_errs:
                errs.append("repeats an output the oracle rejected")
        failed += bool(errs)
        errors += errs
    return failed, errors, ref[0] if ref else None


def layer_metrics(traced: list, overhead: float) -> tuple[dict, bool]:
    values = {name: statistics.median(r["layers"][name] for r in traced)
              for name in traced[0]["layers"]}
    values["trace_overhead_s"] = overhead
    repeat = all(r["calls"] == traced[0]["calls"] for r in traced)
    return values, repeat


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hofa" / "cli.py").is_file():
        print(f"perfbench: no hofa sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import jsonschema
    from tracer import EXPECTED_CALLS, PER_LAYER
    from workloads import WORKLOADS, OracleCache

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    name = f"{args.workload}-seed{args.seed}-{args.scale}-trace{args.trace}"
    run_dir = WORK / "runs" / name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    (WORK / "results").mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](run_dir, args.seed, args.scale,
                                  OracleCache(WORK / "oracle"))
    wl.prepare()
    schema = json.loads(
        (SRC / "hofa" / "schemas" / "cli.schema.json").read_text())
    validator = jsonschema.Draft202012Validator(schema)

    try:
        plan = {"commands": wl.commands, "hist_paths": wl.hist_paths,
                "seconds": args.seconds, "min_reps": MIN_REPS,
                "trace": bool(args.trace),
                "result_path": str(run_dir / "worker.json")}
        res, worker_setup = run_worker(
            plan, run_dir, args.seconds + WATCHDOG_MARGIN_S)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    reps = ([res["warmup"]] + res["reps"] + res.get("traced", [])
            + ([res["heap_rep"]] if "heap_rep" in res else []))
    failed, errors, docs = check_reps(wl, reps, validator)
    env = dict(res["env"],
               hofa_threads_set="HOFA_THREADS" in os.environ,
               hofa_no_numba_set="HOFA_NO_NUMBA" in os.environ,
               scale=args.scale)
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds, "env": env,
              "attempted": len(reps), "failed": failed, "errors": errors,
              "rep_wall_s": [r["wall_s"] for r in res["reps"]],
              "command_s": [r["command_s"] for r in res["reps"]],
              "peak_rss_mb": res["peak_rss_mb"],
              "setup_samples_s": [worker_setup] + [
                  r["setup_s"] for r in res["reps"] if "setup_s" in r]}
    if not Path(env["hofa_file"]).resolve().is_relative_to(SRC):
        errors.append(f"imported hofa from {env['hofa_file']}, not {SRC}")
        failed = max(failed, 1)

    metrics = {}
    if not failed:
        if args.trace:
            values, repeat = layer_metrics(res["traced"],
                                           res["trace_overhead_s"])
            units = dict(PER_LAYER)
            calls = res["traced"][0]["calls"]
            missing = [c for c in EXPECTED_CALLS[args.workload]
                       if not calls.get(c)]
            record.update(calls=calls, calls_repeat=repeat,
                          missing_spans=missing,
                          traced_rep_wall_s=[r["wall_s"] for r in res["traced"]])
            if missing:
                print(f"perfbench: warning: no calls recorded for {missing}; "
                      f"a patch site is missing", file=sys.stderr)
            if not repeat:
                print("perfbench: warning: call counts differ between traced "
                      "repetitions", file=sys.stderr)
        else:
            # Medians over the run: on a shared host the fastest repetition
            # or start-up depends on whether the run caught a quiet moment,
            # which varies more between runs than the median does.  Every
            # sample is kept in the record.
            wall = statistics.median(record["rep_wall_s"])
            values = {"wall_s": wall,
                      "work_per_s": wl.work_units(docs) / wall,
                      "setup_s": statistics.median(record["setup_samples_s"]),
                      "peak_heap_mb": res["peak_heap_mb"]}
            units = dict(END_TO_END)
        metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    record["metrics"] = metrics
    (WORK / "results" / f"{name}.json").write_text(json.dumps(record, indent=1))
    shutil.rmtree(run_dir, ignore_errors=True)

    for err in dict.fromkeys(errors):
        print(f"perfbench: FAIL {err}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} reps={len(reps)} failed={failed} "
          f"fail_frac={failed / len(reps):.3f} (work unit: {wl.unit})",
          file=sys.stderr)
    for k, m in metrics.items():
        print(f"  {k:40s} {m['value']:>16.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps({"correct": not failed, "attempted": len(reps),
                      "failed": failed, "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
