"""Closed-loop client: runs one workload's commands in this process.

Usage: ``python3 perfbench/worker.py PLAN.json`` with ``PYTHONPATH`` set to
the checkout's ``src``.  The worker imports ``hofa.cli``, prints ``ready``
(the parent times its start-up up to that line), then calls
``hofa.cli.main`` for each command in turn, each started only after the
previous one returned.  Results go to the plan's ``result_path``; nothing
else is printed on stdout.

The worker first runs the commands once as an untimed warm-up (the first
repetition pays one-off costs such as lazy imports and cold caches).
Untraced, it then repeats the commands until ``seconds`` have passed (at
least ``min_reps`` times), and after each repetition times a fresh
interpreter from start to ``import hofa.cli`` complete, so that the
start-up samples are spread over the run like the repetitions.  Last, it
runs one more repetition under ``tracemalloc`` for the peak heap; that one
is untimed, since tracing allocations slows Python code several times.

Traced, it alternates an untraced and a traced repetition, so that the
tracing overhead is taken between neighbours that saw the same load on the
host.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc


def run_commands(cli, commands, hist_paths) -> dict:
    """One repetition: every command once, timed around ``hofa.cli.main``."""
    rep = {"command_s": [], "rcs": [], "stdout": [], "histograms": []}
    for argv in commands:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            t0 = time.perf_counter()
            try:
                rc = cli.main(list(argv))
            except SystemExit as exc:  # argparse rejects the arguments
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:
                traceback.print_exc()
                rc = -1
            rep["command_s"].append(time.perf_counter() - t0)
        rep["rcs"].append(rc)
        rep["stdout"].append(buf.getvalue())
    rep["wall_s"] = sum(rep["command_s"])
    for path in hist_paths:
        try:
            with open(path, encoding="utf-8") as fh:
                rep["histograms"].append(json.load(fh)["histogram"])
        except (OSError, ValueError, KeyError):
            rep["histograms"].append(None)
    return rep


# Prints the monotonic clock once the import is complete.  CLOCK_MONOTONIC
# is system-wide on Linux, so the two processes' readings compare.
SETUP_PROBE = ("import time, hofa.cli; "
               "print(time.clock_gettime(time.CLOCK_MONOTONIC))")


def time_setup() -> float:
    """Seconds from starting a fresh interpreter to ``import hofa.cli``
    complete."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, "-c", SETUP_PROBE],
                          capture_output=True, text=True, timeout=60,
                          check=True)
    return float(proc.stdout) - t0


def repeat(step, seconds: float, min_reps: int) -> list:
    reps = []
    t0 = time.perf_counter()
    while len(reps) < min_reps or time.perf_counter() - t0 < seconds:
        reps.append(step())
    return reps


def heap_peak(step) -> tuple[dict, float]:
    """One repetition under ``tracemalloc``, and its peak traced heap in MB:
    Python objects and numpy buffers.  Unlike ``ru_maxrss`` it does not
    count mapped library pages or allocator slack, which vary between runs
    of the same code with the host's state."""
    tracemalloc.start()
    try:
        rep = step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return rep, peak / 2**20


def main(plan_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    import hofa.cli as cli
    from hofa import kernels
    import numpy

    sys.stdout.write("ready\n")
    sys.stdout.flush()

    commands, hists = plan["commands"], plan["hist_paths"]

    def step():
        return run_commands(cli, commands, hists)

    out = {"warmup": step()}
    if not plan["trace"]:
        def step_and_setup():
            rep = step()
            rep["setup_s"] = time_setup()
            return rep

        out["reps"] = repeat(step_and_setup, plan["seconds"], plan["min_reps"])
        out["heap_rep"], out["peak_heap_mb"] = heap_peak(step)
    else:
        from tracer import Tracer

        tracer = Tracer()

        def pair():
            plain = step()
            traced = tracer.run(step)
            traced["layers"] = tracer.metrics(traced["wall_s"])
            traced["calls"] = tracer.call_counts()
            return plain, traced

        pairs = repeat(pair, plan["seconds"], 2)
        out["reps"] = [plain for plain, _ in pairs]
        out["traced"] = [traced for _, traced in pairs]
        out["trace_overhead_s"] = statistics.median(
            traced["wall_s"] - plain["wall_s"] for plain, traced in pairs)
    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    out["env"] = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "using_numba": getattr(kernels, "USING_NUMBA", None),
        "hofa_file": cli.__file__,
    }
    with open(plan["result_path"], "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
