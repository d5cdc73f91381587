"""Command-line front end.

Subcommands: ``count`` (the averaged counting operators over set files),
``popdiff`` (popular-difference search, direct or through the decomposition
pipeline), ``verify`` (seeded property suites), ``gen`` (deterministic set
generation), and ``bench`` (the popular-difference histogram timed against
the pointwise oracle).

stdout carries exactly one JSON document (CSV for ``bench``); diagnostics go
to stderr.  JSON outputs conform to the schema shipped at
``hofa/schemas/cli.schema.json``.  Exit codes: 0 ok, 1 property failure,
2 usage or malformed input, 3 precondition or invariant violation.
All randomness is Philox-keyed by ``--seed``, an integer in [0, 2^64)
(one key word; any other value exits 2); ``--threads`` (or the
HOFA_THREADS variable) sets the worker count, an integer in [1, 64]
(``counting.MAX_THREADS``), without affecting any result; any other value
exits 2.

``import hofa.cli`` loads numpy and the layers that the data commands
(``count``, direct ``popdiff``, ``gen``, ``bench``) share: ``core``,
``kernels``, ``counting``, ``setfile`` and ``rng``.  A layer that one command
alone needs is imported inside that command: ``verify`` loads the property
suites (``verify``, ``energy``, ``partition``, ``gowers``, ``expsum``) and
``popdiff --pipeline`` loads ``energy`` (with ``partition``).  The thread
pool is imported only when more than one worker runs.  Python compiles every
module it loads when no bytecode cache is present, so start-up pays only
for what the command can run.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import counting
from .core import (BoxSpec, ConfigSpec, DecompositionError, PhaseTable,
                   SetIndicator, TorusPhase, _check_exponents)
from .rng import make_rng
from .setfile import SetFileError, read_set, write_set

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3


THREADS_HELP = (f"worker count in [1, {counting.MAX_THREADS}] "
                "(default: HOFA_THREADS, else 1)")


class UsageError(ValueError):
    pass


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from exc


def _parse_phase(part: str) -> TorusPhase:
    """A phase t/T with integers t and T >= 1, or a finite float."""
    num, slash, den = part.partition("/")
    try:
        if slash:
            t, T = int(num), int(den)
            if T >= 1:
                return TorusPhase.exact(t, T)
        else:
            x = float(part)
            if math.isfinite(x):
                return TorusPhase.from_float(x)
    except ValueError:
        pass
    raise UsageError(f"bad phase {part!r}: expected t/T with integers t and "
                     "T >= 1, or a finite float")


def _check_p(p: float) -> None:
    """A membership probability lies in [0, 1] (NaN does not)."""
    if not 0 <= p <= 1:
        raise UsageError(f"--p must lie in [0, 1], got {p}")


def _check_seed(args) -> None:
    """A ``--seed`` is one 64-bit word of the Philox key: [0, 2^64)."""
    seed = getattr(args, "seed", None)
    if seed is not None and not 0 <= seed < 1 << 64:
        raise UsageError(f"--seed must lie in [0, 2^64), got {seed}")


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _complex_doc(z: complex) -> dict:
    return {"re": float(z.real), "im": float(z.imag)}


def _apply_threads(args) -> None:
    threads = getattr(args, "threads", None)
    try:
        if threads is None:
            env = os.environ.get("HOFA_THREADS", "").strip()
            threads = int(env) if env else 1
        counting.set_threads(threads)
    except ValueError as exc:
        raise UsageError(f"bad --threads or HOFA_THREADS: {exc}") from exc


# ---------------------------------------------------------------------------
# count


def cmd_count(args) -> int:
    A = read_set(args.set)
    m = _check_exponents(_parse_ints(args.m))
    phases = ([_parse_phase(part) for part in args.phase_const.split(",")]
              if args.phase_const else [])
    k = len(phases)
    n = len(m) - k
    if n < 1:
        raise UsageError("need more exponents than phases")
    if A.box.n != n:
        raise ValueError(f"set is {A.box.n}-D but the configuration needs {n}-D")
    if args.N is not None:
        if args.q is not None or args.M is not None:
            raise UsageError("--N sets the range of the power-box operator; "
                             "--q and --M belong to the general operator")
        operator = "phased" if phases else "simple"
        spec = ConfigSpec.power(m[:n], args.N)
    else:
        if phases:
            raise UsageError("--phase-const needs --N (the phased operator "
                             "averages over the power box)")
        operator = "general"
        spec = ConfigSpec(m, A.box, q=1 if args.q is None else args.q,
                          M=1 if args.M is None else args.M)
    norm = spec.box.cells * spec.M
    if args.oracle and norm > counting.ORACLE_MAX_TERMS:
        raise ValueError(f"--oracle needs cells x range <= 2^20, got {norm}")
    fs = [A] * (n + 1)
    integer_count = oracle = None
    if operator == "phased":
        alphas = [PhaseTable.constant(spec.box, p) for p in phases]
        lam = counting.lambda_phased(fs, alphas, m, args.N)
        if args.oracle:
            oracle = counting.lambda_phased_bruteforce(fs, alphas, m, args.N)
    else:
        # on indicators the operator is exactly the integer count over norm
        integer_count = counting.lambda_indicator_counts(fs, spec).sum()
        lam = complex(integer_count / norm)
        if args.oracle:
            oracle = counting.lambda_general_bruteforce(fs, spec)
    doc = {"command": "count", "operator": operator,
           "lambda": _complex_doc(lam), "normalization": int(norm),
           "integer_count": integer_count, "oracle": None, "ok": True}
    if oracle is not None:
        dev = abs(lam - oracle)
        doc["oracle"] = {"lambda": _complex_doc(oracle), "max_dev": float(dev)}
        doc["ok"] = bool(dev <= 1e-9)
    _emit(doc)
    return EXIT_OK if doc["ok"] else EXIT_PROPERTY


# ---------------------------------------------------------------------------
# popdiff


def _write_histogram(fh, hist: counting.Histogram) -> None:
    """The text of ``json.dump({"histogram": list(hist)}, fh)``, with the
    zero tail past the counted prefix written in bounded chunks."""
    fh.write('{"histogram": [' + ", ".join(map(str, hist.counts.tolist())))
    zeros = hist.M - len(hist.counts)
    if zeros and not len(hist.counts):
        fh.write("0")
        zeros -= 1
    chunk = 1 << 16
    for k in range(0, zeros, chunk):
        fh.write(", 0" * min(chunk, zeros - k))
    fh.write("]}")


def cmd_popdiff(args) -> int:
    if args.pipeline:
        if args.delta is None:
            raise UsageError("--pipeline needs --delta")
        if not 0 < args.delta <= 1:
            raise UsageError(f"--delta must lie in (0, 1], got {args.delta}")
        if args.M is not None:
            raise UsageError("--M sets the range of the direct search; "
                             "--pipeline takes its range from the "
                             "decomposition")
    elif args.delta is not None or args.fallback:
        raise UsageError("--delta and --fallback belong to --pipeline")
    A = read_set(args.set)
    m = _check_exponents(_parse_ints(args.m))
    if A.box.n != len(m):
        raise ValueError(f"set is {A.box.n}-D but m has {len(m)} entries")
    if args.pipeline:
        from . import energy

        res = energy.popular_difference_pipeline(
            A, m, args.delta, allow_fallback=args.fallback)
    else:
        # one pass over the set: the members are counted only when the
        # histogram is all zero, so an empty set still exits 3
        res = counting.best_popular_difference(A, m, args.M)
        if not res.histogram.any() and A.count == 0:
            raise ValueError("popular-difference search needs a nonempty set")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            _write_histogram(fh, res.histogram)
    _emit({"command": "popdiff",
           "mode": "pipeline" if args.pipeline else "direct",
           "r_star": res.r_star, "count": res.count,
           "certificate": res.certificate,
           "histogram_path": args.out or None})
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    from . import verify

    if not 1 <= args.trials <= verify.MAX_TRIALS:
        raise UsageError(f"--trials must be in [1, {verify.MAX_TRIALS}], "
                         f"got {args.trials}")
    try:
        rep = verify.run_suite(args.suite, args.seed, args.trials)
    except KeyError as exc:
        raise UsageError(str(exc)) from exc
    rep["command"] = "verify"
    _emit(rep)
    return EXIT_OK if rep["failures"] == 0 else EXIT_PROPERTY


# ---------------------------------------------------------------------------
# gen


def cmd_gen(args) -> int:
    box = BoxSpec(_parse_ints(args.box))
    kind = args.kind
    if kind == "full":
        A = SetIndicator.full(box)
    elif kind == "empty":
        A = SetIndicator.empty(box)
    elif kind == "random":
        if args.p is None:
            raise UsageError("random needs --p")
        _check_p(args.p)
        rng = make_rng(args.seed)
        A = SetIndicator(box, rng.random(box.dims) < args.p)
    elif kind in ("residue", "product-ap"):
        # a product set: the cells whose every coordinate is kept on its axis
        coords = [np.arange(1, d + 1) for d in box.dims]
        if kind == "residue":
            if args.q is None or args.allowed is None:
                raise UsageError("residue needs --q and --allowed")
            if args.q < 1:
                raise UsageError(f"--q must be >= 1, got {args.q}")
            allowed = [v % args.q for v in _parse_ints(args.allowed)]
            keep = [np.isin(xs % args.q, allowed) for xs in coords]
        else:
            if args.start is None or args.step is None:
                raise UsageError("product-ap needs --start and --step")
            start = _parse_ints(args.start)
            step = _parse_ints(args.step)
            if len(start) != box.n or len(step) != box.n:
                raise UsageError("--start/--step must match the box dimension")
            if min(step) < 1:
                raise UsageError(f"every --step must be >= 1, got {args.step}")
            keep = [(xs >= s0) & ((xs - s0) % st == 0)
                    for xs, s0, st in zip(coords, start, step)]
        A = SetIndicator(box, functools.reduce(np.logical_and.outer, keep))
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown kind {kind}")
    write_set(A, args.out, binary=args.binary)
    _emit({"command": "gen", "kind": kind, "path": args.out,
           "box": list(box.dims), "members": A.count,
           "format": "binary" if args.binary else "text"})
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench


def cmd_bench(args) -> int:
    box = BoxSpec(_parse_ints(args.box))
    m = _check_exponents(_parse_ints(args.m))
    if len(m) != box.n:
        raise UsageError(f"--m has {len(m)} entries but --box has {box.n} "
                         "axes")
    _check_p(args.p)
    M = args.M if args.M is not None else max(1, box.dims[0] - 1)
    spec = ConfigSpec(m, box, 1, M)
    rng = make_rng(args.seed)
    mask = rng.random(box.dims) < args.p
    # warm-up
    counting.lambda_indicator_counts([SetIndicator(box, mask)] * (box.n + 1), spec)
    t0 = time.perf_counter()
    # a fresh indicator, so that the one packing is timed too
    fast = counting.lambda_indicator_counts(
        [SetIndicator(box, mask)] * (box.n + 1), spec)
    t1 = time.perf_counter()
    naive = counting.lambda_indicator_counts_pointwise(
        [SetIndicator(box, mask)] * (box.n + 1), spec)
    t2 = time.perf_counter()
    sys.stdout.write("impl,box,M,total_count,seconds\n")
    for name, hist, dt in (("fast", fast, t1 - t0), ("naive", naive, t2 - t1)):
        sys.stdout.write(f"{name},{'x'.join(map(str, box.dims))},{M},"
                         f"{hist.sum()},{dt:.6f}\n")
    # both stop after the last r with a base point
    if not np.array_equal(fast.counts, naive.counts):
        print("bench: implementations disagree", file=sys.stderr)
        return EXIT_PROPERTY
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="hofa",
                                description="configuration counting and "
                                            "popular-difference tooling")
    sub = p.add_subparsers(dest="cmd", required=True)

    c = sub.add_parser("count", help="averaged counting operators on a set file")
    c.add_argument("--set", required=True)
    c.add_argument("--m", required=True, help="comma-separated exponents")
    c.add_argument("--N", type=int, help="difference range of the power-box operator")
    c.add_argument("--q", type=int, help="modulus of the general operator "
                   "(default 1)")
    c.add_argument("--M", type=int, help="difference range of the general operator")
    c.add_argument("--phase-const", help="constant phases t/T, comma-separated")
    c.add_argument("--oracle", action="store_true",
                   help="cross-check against the brute-force path (cells "
                        "times range at most 2^20)")
    c.add_argument("--threads", type=int, help=THREADS_HELP)
    c.set_defaults(fn=cmd_count)

    d = sub.add_parser("popdiff", help="popular-difference search")
    d.add_argument("--set", required=True)
    d.add_argument("--m", required=True)
    d.add_argument("--M", type=int)
    d.add_argument("--delta", type=float)
    d.add_argument("--pipeline", action="store_true")
    d.add_argument("--fallback", action="store_true")
    d.add_argument("--out", help="write the count histogram to this JSON file")
    d.add_argument("--threads", type=int, help=THREADS_HELP)
    d.set_defaults(fn=cmd_popdiff)

    v = sub.add_parser("verify", help="run a seeded property suite")
    v.add_argument("suite")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--trials", type=int, default=10)
    v.set_defaults(fn=cmd_verify)

    g = sub.add_parser("gen", help="generate a set file")
    g.add_argument("kind", choices=["random", "full", "empty", "residue",
                                    "product-ap"])
    g.add_argument("--box", required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--p", type=float)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--q", type=int)
    g.add_argument("--allowed")
    g.add_argument("--start")
    g.add_argument("--step")
    g.add_argument("--binary", action="store_true")
    g.set_defaults(fn=cmd_gen)

    b = sub.add_parser("bench", help="time the counting kernels against each other")
    b.add_argument("--box", default="64,4096")
    b.add_argument("--m", default="1,2")
    b.add_argument("--M", type=int)
    b.add_argument("--p", type=float, default=0.5)
    b.add_argument("--seed", type=int, default=0)
    b.set_defaults(fn=cmd_bench)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _apply_threads(args)
        _check_seed(args)
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SetFileError as exc:
        print(f"bad set file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OverflowError, DecompositionError) as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
