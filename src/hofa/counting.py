"""Configuration-counting operators and popular-difference search.

The basic object is the normalized count of patterns

    x, x + d_1 e_1, ..., x + d_n e_n      with d_j = (q r)^(m_j)

averaged over base points x in a box and differences r in a range.  Complex
weights give the averaged operators ``lambda_*``; 0/1 indicators admit an
exact integer path (``lambda_indicator_counts``, ``best_popular_difference``
and ``popular_count``) built on the kernels module.  ``_over_differences`` is
the one loop over r: it checks the range, stops after the last r with a base
point and spreads the r over the ``set_threads`` workers.  Per r, the
complex operators multiply the cropped views of ``kernels.pattern_views``;
the integer path counts on the indicators' packed words
(``SetIndicator.packed``, so a set read from a binary file is never
unpacked) with the packed-word kernel ``kernels.pattern_count_fast`` and
returns a ``Histogram`` that keeps only the counted prefix of the range.
``_lambda_sum`` and ``pattern_views`` treat leading array axes as batch
axes, so the averaging identity sums the simple operator over every
translate x at once: its strided zero-padded windows for all x are one
stacked view from ``core.read_translates``.  Brute-force oracles are kept
too; they stop after the last useful r as well, and ``ORACLE_MAX_TERMS``
bounds what ``count --oracle`` asks of them.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import kernels
from .core import (MAX_GRID_CELLS, BoxSpec, ConfigSpec, GridFunction,
                   PhaseTable, SetIndicator, read_translates, read_window)

MAX_SHIFT = 1 << 62
# most workers ``set_threads`` takes; the pool starts at most one thread per r
MAX_THREADS = 64

_threads = 1


def set_threads(k: int) -> None:
    """Worker count for the per-difference loops (results are unaffected);
    an integer in [1, MAX_THREADS]."""
    global _threads
    k = operator.index(k)
    if not 1 <= k <= MAX_THREADS:
        raise ValueError(f"thread count must lie in [1, {MAX_THREADS}], got {k}")
    _threads = k


def _check_shift(d: int) -> int:
    if d > MAX_SHIFT:
        raise OverflowError(f"shift {d} exceeds 2^62 index guard")
    return d


def _shifts(m: Sequence[int], step: int) -> tuple[int, ...]:
    return tuple(_check_shift(step ** mi) for mi in m)


def _check_compatible(fs: Sequence[GridFunction | SetIndicator],
                      base_dims: Sequence[int]) -> None:
    for i, f in enumerate(fs):
        if f.box.n != len(base_dims):
            raise ValueError(f"f_{i} has dimension {f.box.n}, expected {len(base_dims)}")
        for a, (d, b) in enumerate(zip(f.box.dims, base_dims)):
            if d not in (b, 2 * b):
                raise ValueError(
                    f"f_{i} axis {a + 1} has extent {d}; expected {b} or {2 * b}")


def _over_differences(term: Callable[[int, tuple[int, ...]], object],
                      arrays: Sequence, m: Sequence[int], q: int,
                      M: int) -> list:
    """``term(r, shifts)`` with shifts[j] = (q r)^(m_j), for r = 1, 2, ...
    while every shifts[j] is below the extent of ``arrays[j + 1]`` along
    axis j of its trailing n = len(m) axes, in r order, on ``set_threads``
    workers.

    Each shift grows with r, so no r past the first failing one has a base
    point and the terms of r beyond the returned ones are all zero.
    """
    if not 1 <= M <= MAX_GRID_CELLS:
        raise ValueError(f"difference range M = {M} must lie in [1, 2^27]")
    if q < 1:
        raise ValueError(f"modulus q must be >= 1, got {q}")
    if min(m) < 1:
        raise ValueError(f"exponents must be >= 1, got {m}")
    n = len(m)
    extents = [a.shape[j - n] for j, a in enumerate(arrays[1:])]
    rows = []
    for r in range(1, M + 1):
        shifts = tuple([(q * r) ** mi for mi in m])
        if not all(map(operator.lt, shifts, extents)):
            break
        rows.append(shifts)
    if _threads > 1 and len(rows) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=_threads) as pool:
            return list(pool.map(term, range(1, len(rows) + 1), rows))
    return [term(r, row) for r, row in enumerate(rows, 1)]


def _lambda_sum(arrays: Sequence[np.ndarray], base_dims: tuple[int, ...],
                m: Sequence[int], q: int, M: int,
                phase: Callable[[int], np.ndarray] | None = None) -> complex:
    """Sum over r in [M] of sum_x f_0(x) prod_j f_j(x + (q r)^(m_j) e_j)
    [* phase(r)(x)], where f_i is the grid ``arrays[i]`` (zero outside it).

    The trailing n = len(base_dims) axes of each array are the grid; leading
    axes are batch axes, and the sum runs over them too, so a stack of
    grids is summed in one call per r.  Callers check the grid extents
    (``_check_compatible``)."""
    n = len(base_dims)

    def term(r: int, shifts: tuple[int, ...]) -> complex:
        views = kernels.pattern_views(arrays, base_dims, shifts)
        prod = views[0] * views[1]
        for v in views[2:]:
            prod *= v
        if phase is not None:
            prod *= phase(r)[tuple(slice(0, d) for d in prod.shape[-n:])]
        return prod.sum()

    per_r = _over_differences(term, arrays, m, q, M)
    return complex(np.sum(np.asarray(per_r))) if per_r else 0j


def lambda_simple(fs: Sequence[GridFunction], m: Sequence[int], N: int) -> complex:
    """Average of f_0(x) prod_j f_j(x + r^(m_j) e_j) over x in prod [N^(m_j)],
    r in [N].

    Each f_j lives on the base box, possibly doubled along any axis; reads
    outside its own box are zero.  The normalization is exactly
    N^(m_1 + ... + m_n) * N.  This is lambda_general with q = 1, M = N on the
    box prod [N^(m_j)].
    """
    m = tuple(int(v) for v in m)
    n = len(fs) - 1
    if len(m) != n:
        raise ValueError(f"{n + 1} functions need an exponent tuple of length {n}")
    box = BoxSpec([_check_shift(N ** mi) for mi in m])
    return lambda_general(fs, ConfigSpec(m, box, q=1, M=N))


def lambda_general(fs: Sequence[GridFunction], spec: ConfigSpec) -> complex:
    """Average of f_0(x) prod_j f_j(x + (q r)^(m_j) e_j) over the box of
    ``spec`` and r in [M]."""
    n = spec.n
    if len(fs) != n + 1:
        raise ValueError(f"spec has n={n}, got {len(fs)} functions")
    _check_compatible(fs, spec.box.dims)
    total = _lambda_sum([f.values for f in fs], spec.box.dims, spec.m,
                        spec.q, spec.M)
    return total / (spec.box.cells * spec.M)


def lambda_phased(fs: Sequence[GridFunction], alphas: Sequence[PhaseTable],
                  m: Sequence[int], N: int) -> complex:
    """lambda_simple with the extra factor e(sum_j alpha_j(x) r^(m_(n+j))).

    ``m`` has length n + k where k = len(alphas); the first n exponents drive
    the shifts and the last k drive the phase powers.
    """
    m = tuple(int(v) for v in m)
    n = len(fs) - 1
    k = len(alphas)
    if len(m) != n + k:
        raise ValueError(f"need {n + k} exponents, got {len(m)}")
    if any(a >= b for a, b in zip(m, m[1:])):
        raise ValueError(f"m must be strictly increasing, got {m}")
    base_dims = tuple(_check_shift(N ** mi) for mi in m[:n])
    zero = (0,) * n
    alpha_wins = [read_window(a.frac, zero, base_dims) for a in alphas]

    def phase(r: int) -> np.ndarray:
        acc = np.zeros(base_dims, dtype=np.float64)
        for j in range(k):
            acc += alpha_wins[j] * float(r ** m[n + j])
        return np.exp(2j * np.pi * acc)

    _check_compatible(fs, base_dims)
    total = _lambda_sum([f.values for f in fs], base_dims, m[:n], 1, N,
                        phase if k else None)
    norm = N
    for d in base_dims:
        norm *= d
    return total / norm


# ---------------------------------------------------------------------------
# Brute-force oracles (small inputs only; every read is an independent
# per-point lookup)

# Largest cells x M that ``count --oracle`` accepts: the oracles walk every
# (x, r) in Python at about 6.5 us each, so this is seconds of work.
ORACLE_MAX_TERMS = 1 << 20


def _read_point(f: GridFunction, pt: Sequence[int]) -> complex:
    idx = tuple(c - 1 for c in pt)
    if any(c < 0 or c >= d for c, d in zip(idx, f.box.dims)):
        return 0j
    return complex(f.values[idx])


def _last_useful_r(fs: Sequence[GridFunction], m: Sequence[int], q: int,
                   M: int) -> int:
    # The last r <= M before some shift (q r)^(m_j) reaches the extent of
    # f_{j+1} along axis j.  From that r on the read of f_{j+1} is outside
    # its box for every x, since the shift only grows with r (q >= 1).
    for r in range(1, M + 1):
        if any((q * r) ** mj >= f.box.dims[j]
               for j, (mj, f) in enumerate(zip(m, fs[1:]))):
            return r - 1
    return M


def lambda_phased_bruteforce(fs: Sequence[GridFunction],
                             alphas: Sequence[PhaseTable],
                             m: Sequence[int], N: int) -> complex:
    m = tuple(int(v) for v in m)
    n = len(fs) - 1
    k = len(alphas)
    base_dims = tuple(N ** mi for mi in m[:n])
    r_stop = _last_useful_r(fs, m[:n], 1, N)
    total = 0j
    for idx in np.ndindex(*base_dims):
        x = tuple(c + 1 for c in idx)
        for r in range(1, r_stop + 1):
            term = _read_point(fs[0], x)
            if term == 0:
                continue
            for j in range(n):
                pt = list(x)
                pt[j] += r ** m[j]
                term *= _read_point(fs[j + 1], pt)
            if term == 0:
                continue
            phase = 0.0
            for j in range(k):
                phase += float(alphas[j].at(x).approx) * (r ** m[n + j])
            total += term * np.exp(2j * np.pi * phase)
    norm = N
    for d in base_dims:
        norm *= d
    return total / norm


def lambda_simple_bruteforce(fs, m, N) -> complex:
    return lambda_phased_bruteforce(fs, [], m, N)


def lambda_general_bruteforce(fs: Sequence[GridFunction], spec: ConfigSpec) -> complex:
    r_stop = _last_useful_r(fs, spec.m, spec.q, spec.M)
    total = 0j
    for idx in np.ndindex(*spec.box.dims):
        x = tuple(c + 1 for c in idx)
        for r in range(1, r_stop + 1):
            term = _read_point(fs[0], x)
            if term == 0:
                continue
            for j in range(spec.n):
                pt = list(x)
                pt[j] += (spec.q * r) ** spec.m[j]
                term *= _read_point(fs[j + 1], pt)
            total += term
    return total / (spec.box.cells * spec.M)


# ---------------------------------------------------------------------------
# Exact integer counting for indicators


def popular_count(A: SetIndicator, m: Sequence[int], r: int) -> int:
    """Exact size of {x in A : x + r^(m_j) e_j in A for every axis j}."""
    if r < 1:
        raise ValueError("difference r must be >= 1")
    m = tuple(int(v) for v in m)
    if len(m) != A.box.n:
        raise ValueError("exponent tuple does not match the box dimension")
    shifts = _shifts(m, r)
    return kernels.pattern_count_fast([A.packed] * (A.box.n + 1), A.box.dims,
                                      shifts)


def popular_count_naive(A: SetIndicator, m: Sequence[int], r: int) -> int:
    """Oracle: member-driven membership loop."""
    shifts = _shifts(tuple(int(v) for v in m), r)
    masks = [A.mask] * (A.box.n + 1)
    return kernels.pattern_count_pointwise(masks, A.box.dims, shifts)


@dataclass(frozen=True, eq=False)
class Histogram:
    """Counts over the differences r in [1, M], stored as the counted prefix.

    ``counts[r - 1]`` is the count at difference r for r <= len(counts);
    every later entry is zero (no later r has a base point), so the storage
    is bounded by the grid, not by M.  Indexing, iteration and ``len`` see
    all M entries; a slice (step >= 1) is the histogram of that sub-range.
    """

    counts: np.ndarray  # int64
    M: int

    def __len__(self) -> int:
        return self.M

    def __getitem__(self, key):
        rng = range(self.M)[key]
        if isinstance(key, slice):
            if rng.step < 1:
                raise ValueError("histogram slices need a positive step")
            return Histogram(self.counts[rng.start:rng.stop:rng.step], len(rng))
        return int(self.counts[rng]) if rng < len(self.counts) else 0

    def __iter__(self):
        yield from self.counts.tolist()
        yield from itertools.repeat(0, self.M - len(self.counts))

    def sum(self) -> int:
        return int(self.counts.sum())

    def any(self) -> bool:
        return bool(self.counts.any())

    def argmax(self) -> int:
        """Index of the first maximum (counts are nonnegative, so the zero
        tail never wins)."""
        return int(np.argmax(self.counts)) if len(self.counts) else 0


@dataclass
class PopDiffResult:
    r_star: int
    count: int
    histogram: Histogram  # histogram[r-1] = count at difference r


def lambda_indicator_counts(inds: Sequence[SetIndicator],
                            spec: ConfigSpec) -> Histogram:
    """Per-r integer pattern counts behind lambda_general on indicators
    (entry r - 1 for difference r), counted on the indicators' packed words
    only while some base point remains."""
    if len(inds) != spec.n + 1:
        raise ValueError(f"spec has n={spec.n}, got {len(inds)} indicators")
    _check_compatible(inds, spec.box.dims)
    masks = [A.packed for A in inds]
    counts = _over_differences(
        lambda r, shifts: kernels.pattern_count_fast(masks, spec.box.dims, shifts),
        masks, spec.m, spec.q, spec.M)
    return Histogram(np.array(counts, dtype=np.int64), spec.M)


def best_popular_difference(A: SetIndicator, m: Sequence[int], M: int) -> PopDiffResult:
    """Arg-max of popular_count over r in [1, M]; ties go to the smallest r."""
    hist = lambda_indicator_counts([A] * (len(m) + 1), ConfigSpec(m, A.box, 1, M))
    r_star = hist.argmax() + 1
    return PopDiffResult(r_star, hist[r_star - 1], hist)


# ---------------------------------------------------------------------------
# Averaging identity linking the general operator to the simple one


def averaging_identity_check(fs: Sequence[GridFunction],
                             spec: ConfigSpec) -> tuple[complex, complex, float]:
    """Evaluate both sides of the reparameterization

        lambda_general(f_0..f_n) = C * avg over x in prod [+-2 N_j] of
                                   lambda_simple(f_0^(x,q), ..., f_n^(x,q))

    where f_i^(x,q)(x') = f_i(x + sum_j q^(m_j) x'_j e_j) and the constant C
    is the ratio of the two base-range cardinalities.  Requires supports in
    prod [2^(j==i) N_j] and the range condition; small inputs only.

    The right-hand side is one ``_lambda_sum`` over the windows f_i^(x,q)
    of every x at once, stacked by ``core.read_translates``: with total
    their sum over x, x' and r, it is C total / (M^(m_1 + ... + m_n) M #x).
    """
    lhs = lambda_general(fs, spec)  # also checks fs against the spec
    n, m, q, M = spec.n, spec.m, spec.q, spec.M
    dims = spec.box.dims
    inner_dims = tuple(_check_shift(M ** mi) for mi in m)
    c_n = 1.0
    for d in dims:
        c_n *= (4 * d + 1) / d
    strides = tuple(q ** mi for mi in m)
    # x_j in [-2N_j, 2N_j]; the window of x starts at x - 1 + strides
    counts = tuple(4 * d + 1 for d in dims)
    first = tuple(s - 1 - 2 * d for s, d in zip(strides, dims))
    wins = []
    for i, f in enumerate(fs):
        out = tuple(2 * inner_dims[a] if (i >= 1 and a == i - 1)
                    else inner_dims[a] for a in range(n))
        wins.append(read_translates(f.values, first, counts, out, strides))
    total = _lambda_sum(wins, inner_dims, m, 1, M)
    norm = M
    for d in inner_dims + counts:
        norm *= d
    rhs = c_n * (total / norm)
    return lhs, rhs, c_n
