"""Per-layer tracing by wrapping hofa's public functions from outside.

Nothing under ``src/`` knows about the tracer.  A ``Tracer`` wraps every
public function of the layer modules in a span, and ``Tracer.run`` binds the
wrapper wherever a caller looks the function up: the defining module, every
module that imported it by name (``from .counting import lambda_general`` in
``energy``), and the property lists in ``verify.SUITES``.
``SetIndicator.to_grid`` is a method, so it is wrapped on the class.

Span times:

* a layer's ``self`` time is the time inside its spans not covered by any
  child span; the layers' self times add up to the traced wall time;
* a function's time (``<layer>.<fn>.s``) is its span time minus the time
  spent in wrapped functions of *other* layers below it.  Calls it makes
  within its own module stay in its figure, so figures of two functions of
  one module can overlap (``averaging_identity_check`` contains the
  ``lambda_simple`` calls it makes).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import time
import types
from collections import defaultdict

from hofa import kernels

LAYERS = ("cli", "setfile", "core", "kernels", "counting", "energy",
          "partition", "gowers", "expsum", "verify")

GOWERS_VERIFIERS = ("same_coord_verify", "interchange_verify_2d", "vdc_verify")
SUITE_NAMES = ("partition", "counting", "gowers", "expsum", "energy")

# Per-layer metrics reported by a traced run, in the order BENCHMARK.json
# lists them.
PER_LAYER = (
    [(f"{layer}.self.s", "s") for layer in LAYERS if layer != "expsum"]
    + [
        ("setfile.read_set.s", "s"), ("setfile.read_set.bytes", "bytes"),
        ("setfile.members_per_s", "members/s"),
        ("core.to_grid.s", "s"), ("core.read_window.calls", "count"),
        ("core.read_window.s", "s"),
        ("kernels.pattern_count.calls", "count"),
        ("kernels.pattern_count.s", "s"),
        ("kernels.bytes_moved_computed", "bytes"),
        ("kernels.gbytes_per_s_computed", "GB/s"),
        ("counting.best_popular_difference.s", "s"),
        ("counting.lambda_general.calls", "count"),
        ("counting.lambda_general.s", "s"),
        ("counting.lambda_indicator_counts.s", "s"),
        ("counting.lambda_simple.calls", "count"),
        ("counting.averaging_identity_check.s", "s"),
        ("energy.energy_increment.s", "s"),
        ("energy.axis_approximant.calls", "count"),
        ("energy.axis_approximant.s", "s"),
        ("energy.axis_projection_energy.calls", "count"),
        ("energy.iterations", "count"), ("energy.converged_frac", "ratio"),
        ("energy.discarded.s", "s"),
        ("partition.cond_expect.calls", "count"),
        ("partition.cond_expect.s", "s"),
        ("gowers.verifiers.s", "s"), ("expsum.s", "s"),
    ]
    + [(f"verify.{suite}.s", "s") for suite in SUITE_NAMES]
    + [("trace_overhead_s", "s")]
)

# Spans (named by defining module and function) each workload must exercise;
# a zero count means a patch site was missed, not that the layer is fast.
# Checked by selftest.py and reported as a warning by traced runs.
EXPECTED_CALLS = {
    "popdiff-direct": ("kernels.pattern_count_fast.calls",
                       "counting.best_popular_difference.calls",
                       "setfile.read_set.calls"),
    "verify-all": ("core.read_window.calls", "core.to_grid.calls",
                   "counting.lambda_simple.calls",
                   "counting.averaging_identity_check.calls",
                   "counting.lambda_general.calls",
                   "counting.lambda_indicator_counts.calls",
                   "partition.cond_expect.calls",
                   "energy.axis_projection_energy.calls",
                   "energy.axis_approximant.calls",
                   "energy.energy_increment.calls",
                   "energy.popular_difference_pipeline.calls",
                   "gowers.same_coord_verify.calls",
                   "gowers.interchange_verify_2d.calls",
                   "gowers.vdc_verify.calls",
                   "counting.lambda_phased.calls",
                   "expsum.stashing_identity_check.calls")
    + tuple(f"verify.suite.{suite}.calls" for suite in SUITE_NAMES),
}


def window_cells(masks, base_dims, shifts) -> int:
    """Cells of the base window a pattern count reads (every read in range)."""
    return math.prod(max(v, 0) for v in
                     kernels._axis_limits(masks, base_dims, shifts))


class Tracer:
    """Spans and counters for one traced repetition at a time.

    Creating a tracer builds the wrappers; ``run`` puts them in place for
    one call and restores the original functions afterwards, so untraced
    repetitions in the same process run the unmodified program.
    """

    def __init__(self):
        self.clock = time.perf_counter
        self._reset()
        mods = {layer: importlib.import_module(f"hofa.{layer}")
                for layer in LAYERS}
        wrapped = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_")
                        and isinstance(obj, types.FunctionType)
                        and obj.__module__ == mod.__name__):
                    wrapped[obj] = self._wrap(layer, attr, obj)
        # (namespace, key, original, wrapper) for every place a caller looks
        # a wrapped function up
        self.sites = [(vars(mod), attr, obj, wrapped[obj])
                      for mod in mods.values()
                      for attr, obj in vars(mod).items()
                      if isinstance(obj, types.FunctionType) and obj in wrapped]
        self.suite_of = {}
        for suite, fns in mods["verify"].SUITES.items():
            for i, fn in enumerate(fns):
                if fn in wrapped:
                    self.sites.append((fns, i, fn, wrapped[fn]))
                    self.suite_of[fn.__name__] = suite
        indicator = mods["core"].SetIndicator
        self.to_grid = (indicator, indicator.to_grid,
                        self._wrap("core", "to_grid", indicator.to_grid))

    def _reset(self):
        self.calls = defaultdict(int)
        self.fn_s = defaultdict(float)
        self.inclusive_s = defaultdict(float)
        self.layer_self = defaultdict(float)
        self.extra = defaultdict(float)
        self.active = defaultdict(int)
        self.root_foreign = 0.0
        self.io_sets = []
        # frame: [key, layer, t0, child_s, foreign_s, approximant_s]
        self.stack: list[list] = []

    def _patch(self, on: bool) -> None:
        for space, key, original, wrapper in self.sites:
            space[key] = wrapper if on else original
        cls, original, wrapper = self.to_grid
        cls.to_grid = wrapper if on else original

    def _wrap(self, layer, name, fn):
        key = f"{layer}.{name}"
        hook = getattr(self, "_hook_" + key.replace(".", "_"), None)
        if hook is not None:
            sig = inspect.signature(fn)
            hook = (hook, sig)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._enter(key, layer)
            result, done = None, False
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                tracer._exit(hook if done else None, args, kwargs, result)

        return wrapper

    # -- spans ---------------------------------------------------------

    def _enter(self, key, layer):
        self.active[key] += 1
        self.stack.append([key, layer, self.clock(), 0.0, 0.0, 0.0])

    def _exit(self, hook, args, kwargs, result):
        t1 = self.clock()
        key, layer, t0, child, foreign, approx = self.stack.pop()
        dur = t1 - t0
        parent = self.stack[-1] if self.stack else None
        self.calls[key] += 1
        self.active[key] -= 1
        if self.active[key] == 0:  # outermost call of a recursion only
            self.fn_s[key] += dur - foreign
            self.inclusive_s[key] += dur
        self.layer_self[layer] += dur - child
        if key == "energy.axis_approximant":
            approx += dur
        if hook is not None:
            fn, sig = hook
            fn(sig.bind(*args, **kwargs).arguments, result, approx)
        if parent is None:
            self.root_foreign = foreign
        else:
            parent[3] += dur
            parent[4] += dur if parent[1] != layer else foreign
            parent[5] += approx

    # -- counters at the layer boundaries ------------------------------

    def _hook_kernels_pattern_count_fast(self, a, result, _):
        # one byte per cell read, from each of the n + 1 masks
        self.extra["kernels.bytes"] += len(a["masks"]) * window_cells(
            a["masks"], a["base_dims"], a["shifts"])

    # Member counts sum a whole mask, so they are taken after the repetition
    # rather than inside the caller's span.
    def _hook_setfile_read_set(self, a, result, _):
        self.extra["setfile.read_bytes"] += os.path.getsize(a["path"])
        self.io_sets.append(result)

    def _hook_energy_energy_increment(self, a, result, _):
        self.extra["energy.iterations"] += result.iterations

    def _hook_energy_popular_difference_pipeline(self, a, result, approx):
        cert = result.certificate
        if cert.get("status") == "converged":
            self.extra["energy.converged"] += 1
        if cert.get("fallback"):
            self.extra["energy.discarded_s"] += approx

    # -- one traced repetition -----------------------------------------

    def run(self, call):
        """Trace ``call()`` under a root ``cli`` span; return its result."""
        self._reset()
        self._patch(True)
        self._enter("cli.<run>", "cli")
        try:
            return call()
        finally:
            self._exit(None, (), {}, None)
            self._patch(False)

    def metrics(self, wall_s: float) -> dict:
        """Per-layer figures of the last traced repetition, whose commands
        took ``wall_s`` in all."""
        c, s, x = self.calls, self.fn_s, self.extra
        out = {f"{layer}.self.s": self.layer_self[layer]
               for layer in LAYERS if layer not in ("cli", "expsum")}
        io_s = s["setfile.read_set"]
        members = sum(A.count for A in self.io_sets)
        kern_s = s["kernels.pattern_count_fast"]
        pipelines = c["energy.popular_difference_pipeline"]
        out.update({
            "setfile.read_set.s": s["setfile.read_set"],
            "setfile.read_set.bytes": x["setfile.read_bytes"],
            "setfile.members_per_s": members / io_s if io_s else 0.0,
            "core.to_grid.s": s["core.to_grid"],
            "core.read_window.calls": c["core.read_window"],
            "core.read_window.s": s["core.read_window"],
            "kernels.pattern_count.calls": c["kernels.pattern_count_fast"],
            "kernels.pattern_count.s": kern_s,
            "kernels.bytes_moved_computed": x["kernels.bytes"],
            "kernels.gbytes_per_s_computed":
                x["kernels.bytes"] / kern_s / 1e9 if kern_s else 0.0,
            "counting.best_popular_difference.s":
                s["counting.best_popular_difference"],
            "counting.lambda_general.calls": c["counting.lambda_general"],
            "counting.lambda_general.s": s["counting.lambda_general"],
            "counting.lambda_indicator_counts.s":
                s["counting.lambda_indicator_counts"],
            "counting.lambda_simple.calls": c["counting.lambda_simple"],
            "counting.averaging_identity_check.s":
                s["counting.averaging_identity_check"],
            "energy.energy_increment.s": s["energy.energy_increment"],
            "energy.axis_approximant.calls": c["energy.axis_approximant"],
            "energy.axis_approximant.s": s["energy.axis_approximant"],
            "energy.axis_projection_energy.calls":
                c["energy.axis_projection_energy"],
            "energy.iterations": x["energy.iterations"],
            "energy.converged_frac":
                x["energy.converged"] / pipelines if pipelines else 0.0,
            "energy.discarded.s": x["energy.discarded_s"],
            "partition.cond_expect.calls": c["partition.cond_expect"],
            "partition.cond_expect.s": s["partition.cond_expect"],
            "gowers.verifiers.s": sum(s[f"gowers.{fn}"]
                                      for fn in GOWERS_VERIFIERS),
            "expsum.s": self.layer_self["expsum"],
        })
        suite_s = defaultdict(float)
        for key, sec in self.inclusive_s.items():
            layer, _, fn = key.partition(".")
            if layer == "verify" and fn in self.suite_of:
                suite_s[self.suite_of[fn]] += sec
        for suite in SUITE_NAMES:
            out[f"verify.{suite}.s"] = suite_s[suite]
        # commands' wall time not spent under another layer's span
        out["cli.self.s"] = wall_s - self.root_foreign
        return out

    def call_counts(self) -> dict:
        """Calls per span name, plus per-suite property calls."""
        counts = {f"{k}.calls": v for k, v in self.calls.items()}
        for key, v in self.calls.items():
            layer, _, fn = key.partition(".")
            if layer == "verify" and fn in self.suite_of:
                name = f"verify.suite.{self.suite_of[fn]}.calls"
                counts[name] = counts.get(name, 0) + v
        return counts
