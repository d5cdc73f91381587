"""Command-line front end.

Subcommands: ``count`` (the averaged counting operators over set files),
``popdiff`` (popular-difference search: direct over r <= ``--M``, or
through the decomposition pipeline at tolerance ``--delta``), ``verify``
(seeded property suites), ``gen`` (deterministic set generation; each kind
reads the flags ``GEN_FLAGS`` lists for it and refuses the others), and
``bench`` (the popular-difference histogram timed against the pointwise
oracle).

``count`` reads every operator off the integer histogram h(r) of
``counting.lambda_indicator_counts``: the general and simple operators are
its sum, and the phased one, whose phases are constant, weights each r by
e(P(r)) from ``core.polynomial_phases``, exact at any exponent.

stdout carries exactly one JSON document (CSV for ``bench``); diagnostics go
to stderr.  JSON outputs conform to the schema shipped at
``hofa/schemas/cli.schema.json``.  Exit codes: 0 ok, 1 property failure,
2 usage or malformed input, 3 precondition or invariant violation, or no
C compiler (``cc``) to build the counting kernel on first use.
All randomness is Philox-keyed by ``--seed``, an integer in [0, 2^64)
(one key word; any other value exits 2).  Every command runs on one
thread.  ``popdiff`` still accepts ``--threads``, an integer in [1, 64] (any
other value exits 2), which changes nothing.

``import hofa.cli`` loads numpy and the layers that the data commands
(``count``, direct ``popdiff``, ``gen``, ``bench``) share: ``core``,
``kernels``, ``counting``, ``setfile`` and ``rng``.  A layer that one command
alone needs is imported inside that command: ``verify`` loads the property
suites (``verify``, ``energy``, ``partition``, ``gowers``, ``expsum``) and
``popdiff --delta`` loads ``energy`` (with ``partition``).  Python
compiles every module it loads when no bytecode cache is present, so
start-up pays only for what the command can run.
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
                   SetIndicator, TorusPhase, _check_exponents,
                   polynomial_phases)
from .kernels import BuildError
from .rng import make_rng, random_mask
from .setfile import SetFileError, read_set, write_set

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_USAGE = 2
EXIT_PRECONDITION = 3


# ``popdiff --threads`` is parsed and range-checked only: every command runs
# on one thread
MAX_THREADS = 64
THREADS_HELP = (f"accepted in [1, {MAX_THREADS}] and otherwise unused: "
                "every command runs on one thread")


class UsageError(ValueError):
    pass


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError as exc:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from exc


def _parse_phase(part: str) -> TorusPhase:
    """A phase t/T with integers t and T >= 1, or a finite float, read as
    its exact binary value (a dyadic rational)."""
    num, slash, den = part.partition("/")
    try:
        if slash:
            t, T = int(num), int(den)
            if T >= 1:
                return TorusPhase.exact(t, T)
        else:
            x = float(part)
            if math.isfinite(x):
                return TorusPhase(x)
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


def _check_thread_count(args) -> None:
    """A ``--threads`` lies in [1, MAX_THREADS]."""
    threads = getattr(args, "threads", None)
    if threads is not None and not 1 <= threads <= MAX_THREADS:
        raise UsageError(f"thread count must lie in [1, {MAX_THREADS}], "
                         f"got {threads}")


# ---------------------------------------------------------------------------
# count


def cmd_count(args) -> int:
    A = read_set(args.set)
    m = _parse_ints(args.m)
    phases = ([_parse_phase(part) for part in args.phase_const.split(",")]
              if args.phase_const else [])
    if args.N is not None and (args.q is not None or args.M is not None):
        raise UsageError("--N sets the range of the power-box operator; "
                         "--q and --M belong to the general operator")
    if phases and args.N is None:
        raise UsageError("--phase-const needs --N (the phased operator "
                         "averages over the power box)")
    fs = [A] * (A.box.n + 1)
    if phases:
        operator = "phased"
        spec, powers = counting.phased_spec(fs, phases, m, args.N)
    else:
        m = _check_exponents(m)
        if A.box.n != len(m):
            raise ValueError(f"set is {A.box.n}-D but the configuration "
                             f"needs {len(m)}-D")
        operator = "general" if args.N is None else "simple"
        spec = (ConfigSpec.power(m, args.N) if args.N is not None else
                ConfigSpec(m, A.box, q=1 if args.q is None else args.q,
                           M=1 if args.M is None else args.M))
    norm = spec.box.cells * spec.M
    if args.oracle and norm > counting.ORACLE_MAX_TERMS:
        raise ValueError(f"--oracle needs cells x range <= 2^20, got {norm}")
    # on indicators every operator is a sum over the integer count h(r)
    hist = counting.lambda_indicator_counts(fs, spec)
    integer_count = oracle = None
    if operator == "phased":
        # constant phases depend on r alone: the operator is
        # sum_r e(P(r)) h(r) / norm with P(r) = sum_j beta_j r^(m_(n+j))
        P = dict(zip(powers, phases))
        weights = np.exp(2j * np.pi * polynomial_phases(P, len(hist.counts)))
        lam = complex(weights @ hist.counts) / norm
        if args.oracle:
            alphas = [PhaseTable.constant(spec.box, p) for p in phases]
            oracle = counting.lambda_phased_bruteforce(fs, alphas, m, args.N)
    else:
        integer_count = hist.sum()
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


def _check_out(path: str) -> None:
    """Refuse an output path that cannot be written before any work: a
    directory, or a file whose directory is missing or not writable."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise UsageError(f"--out {path} is a directory")
    if not os.path.isdir(parent):
        raise UsageError(f"--out {path}: no directory {parent}")
    if not os.access(parent, os.W_OK):
        raise UsageError(f"--out {path}: directory {parent} is not writable")


def cmd_popdiff(args) -> int:
    pipeline = args.delta is not None
    if pipeline:
        if not 0 < args.delta <= 1:
            raise UsageError(f"--delta must lie in (0, 1], got {args.delta}")
        if args.M is not None:
            raise UsageError("--M sets the range of the direct search; "
                             "--delta runs the pipeline, which takes its "
                             "range from the decomposition")
    elif args.fallback:
        raise UsageError("--fallback belongs to the pipeline (--delta)")
    if args.out:
        _check_out(args.out)
    A = read_set(args.set)
    m = _check_exponents(_parse_ints(args.m))
    if pipeline:
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
           "mode": "pipeline" if pipeline else "direct",
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


# each kind of ``gen`` and the flags it reads beside --box, --out and
# --binary: None marks a flag it needs, any other value the default of one
# it may leave out; every other kind's flag is refused
GEN_FLAGS = {"random": {"p": None, "seed": 0}, "full": {}, "empty": {},
             "residue": {"q": None, "allowed": None},
             "product-ap": {"start": None, "step": None}}


def cmd_gen(args) -> int:
    box = BoxSpec(_parse_ints(args.box))
    kind = args.kind
    own = GEN_FLAGS[kind]
    for flag in dict.fromkeys(f for fs in GEN_FLAGS.values() for f in fs):
        if flag not in own and getattr(args, flag) is not None:
            raise UsageError(f"{kind} takes no --{flag}")
    missing = [f"--{f}" for f, default in own.items()
               if default is None and getattr(args, f) is None]
    if missing:
        raise UsageError(f"{kind} needs {' and '.join(missing)}")
    if kind == "full":
        A = SetIndicator.full(box)
    elif kind == "empty":
        A = SetIndicator.empty(box)
    elif kind == "random":
        _check_p(args.p)
        seed = own["seed"] if args.seed is None else args.seed
        A = SetIndicator(box, random_mask(make_rng(seed), box.dims, args.p))
    else:
        # a product set: the cells whose every coordinate is kept on its axis
        coords = [np.arange(1, d + 1) for d in box.dims]
        if kind == "residue":
            if args.q < 1:
                raise UsageError(f"--q must be >= 1, got {args.q}")
            allowed = [v % args.q for v in _parse_ints(args.allowed)]
            keep = [np.isin(xs % args.q, allowed) for xs in coords]
        else:
            start = _parse_ints(args.start)
            step = _parse_ints(args.step)
            if len(start) != box.n or len(step) != box.n:
                raise UsageError("--start/--step must match the box dimension")
            if min(step) < 1:
                raise UsageError(f"every --step must be >= 1, got {args.step}")
            keep = [(xs >= s0) & ((xs - s0) % st == 0)
                    for xs, s0, st in zip(coords, start, step)]
        A = SetIndicator(box, functools.reduce(np.logical_and.outer, keep))
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
    mask = random_mask(make_rng(args.seed), box.dims, args.p)
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
    c.set_defaults(fn=cmd_count)

    d = sub.add_parser("popdiff", help="popular-difference search")
    d.add_argument("--set", required=True)
    d.add_argument("--m", required=True)
    d.add_argument("--M", type=int)
    d.add_argument("--delta", type=float)
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
    g.add_argument("kind", choices=list(GEN_FLAGS))
    g.add_argument("--box", required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--p", type=float)
    g.add_argument("--seed", type=int)
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


def _attach_phase_const(argv: list[str]) -> list[str]:
    """``--phase-const -1/3`` written as ``--phase-const=-1/3``: argparse
    reads a detached value that starts with '-' and is no plain negative
    number as an option, and refuses the flag for want of a value."""
    out = []
    for arg in argv:
        if (out and out[-1] == "--phase-const" and arg.startswith("-")
                and not arg.startswith("--")):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(
        _attach_phase_const(sys.argv[1:] if argv is None else argv))
    try:
        _check_thread_count(args)
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
    except OSError as exc:  # a directory, or a file we may not open
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OverflowError, DecompositionError) as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except BuildError as exc:
        print(f"cannot build the counting kernel: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
