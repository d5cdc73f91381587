"""Configuration-counting operators and popular-difference search.

The basic object is the normalized count of patterns

    x, x + d_1 e_1, ..., x + d_n e_n      with d_j = (q r)^(m_j)

averaged over base points x in a box and differences r in a range.  Real or
complex weights, or sets as their own 0/1 weights, give the averaged
operators ``lambda_*``; 0/1 indicators admit an exact integer path
(``lambda_indicator_counts`` and ``best_popular_difference``) built on the
kernels module, and ``popular_count`` is the r = 1 entry of that histogram
at modulus r, so a shift past the grid counts 0.  ``best_popular_difference``
is the one direct popular-difference search (``popdiff``, and the pipeline's
vacuous and fallback paths), and ``PopDiffResult`` the one result of both
``popdiff`` modes.  Every operator takes its exponents, modulus and range as
a ``core.ConfigSpec``, which refuses at construction what no operator can
run; the power-box operators take ``ConfigSpec.power(m, N)``, and every
normalization is ``spec.box.cells * spec.M``.  The phased m (n shift
exponents, then k phase powers) has one owner, ``phased_spec``, with one
rule: n + k strictly increasing exponents in [1, 64], checked before
powering, extents N^(m_j) or 2 N^(m_j) read from each ``box.dims``, and
phase tables on the power box.
``lambda_phased``, its oracle, ``expsum.dual_function``,
``expsum.stashing_identity_check`` and ``count --phase-const`` split m only
through it.  Every operator runs one loop over r, in order, on the calling
thread, and stops it after the last r with a base point (``_useful_shifts``,
which the oracles share).  Per r, the averaged operators multiply the
cropped views of ``kernels.pattern_views`` and sum the product in blocks of
rows of about ``LAMBDA_BLOCK_CELLS`` cells (``_product_sum``, the one
row-blocked product sum, which ``energy``'s box counts and frozen value
share); the integer path counts on the indicators' packed words
(``SetIndicator.packed_rows``, so a set read from a binary file is never
unpacked) with the packed-word kernel ``kernels.pattern_count_fast`` and
returns a ``Histogram`` that keeps only the counted prefix of the range.
Its oracle ``lambda_indicator_counts_pointwise`` runs the same loop with
``kernels.pattern_count_pointwise`` on the boolean masks
(``SetIndicator.mask_rows``), and ``popular_count_naive`` reads that
histogram.  That loop, ``_indicator_counts``, is band-major: each set is
read once per band of ``kernels.band_rows`` base rows along axis 1 (the set
of slot 1 with a halo), every useful r is counted on the band, and a band's
reads are dropped before the next is read, so a set read from a binary file
is held a band at a time.  ``_lambda_sum`` and ``pattern_views`` treat
leading array axes as batch axes, so the averaging identity sums the simple
operator over every translate x at once: its strided zero-padded windows for
all x are one stacked view from ``core.read_translates``.  The brute-force
oracles of the averaged operators share one (x, r) loop, ``_bruteforce_sum``,
with an optional phase (``lambda_simple``'s oracle is
``lambda_general_bruteforce`` at the power box); it stops after the last
useful r as well, and ``ORACLE_MAX_TERMS`` bounds what ``count --oracle``
asks of it.  ``lambda_phased``'s phase is ``core.table_phases``, each term
exact mod 1; ``count --phase-const`` does not run it.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import kernels
from .core import (ConfigSpec, GridFunction, PhaseTable, SetIndicator,
                   TorusPhase, _check_exponents, _integer_root,
                   read_translates, table_phases)

# a weight of the averaged operators: a real (float64) or complex grid, a set
# as its 0/1 mask, or any object whose ``values`` has a ``shape``, a
# ``dtype`` and crops by slices that numpy converts to arrays
# (``energy.AxisApproximant``, whose crops are gathered when a product takes
# them)
Weight = GridFunction | SetIndicator

# cells per block of a product in ``_product_sum``: 128 KiB of float64, and
# 256 KiB of complex128, so a block's operands stay in a core's L2 cache
LAMBDA_BLOCK_CELLS = 1 << 14


def _check_compatible(shapes: Sequence[Sequence[int]],
                      base_dims: Sequence[int]) -> None:
    for i, shape in enumerate(shapes):
        if len(shape) != len(base_dims):
            raise ValueError(f"f_{i} has dimension {len(shape)}, "
                             f"expected {len(base_dims)}")
        for a, (d, b) in enumerate(zip(shape, base_dims)):
            if d not in (b, 2 * b):
                raise ValueError(
                    f"f_{i} axis {a + 1} has extent {d}; expected {b} or {2 * b}")


def _useful_shifts(spec: ConfigSpec,
                   extents: Sequence[int]) -> list[tuple[int, ...]]:
    """The shifts (q r)^(m_j) of r = 1, 2, ..., M while every one is below
    ``extents[j]``.  Each shift grows with r, so no later r has a base
    point."""
    rows = []
    for r in range(1, spec.M + 1):
        shifts = tuple([(spec.q * r) ** mi for mi in spec.m])
        if not all(map(operator.lt, shifts, extents)):
            break
        rows.append(shifts)
    return rows


def _product_sum(views: Sequence, n: int, dtype: np.dtype,
                 phase: Callable[..., np.ndarray] | None = None):
    """Sum over every cell of views[0] * views[1] * ... [* e(phase)], the
    ``views`` aligned arrays whose trailing n axes are the grid (leading
    axes are batch axes, summed too) and ``phase(offsets, dims)`` the phase
    mod 1 on the window of the grid at 0-based ``offsets``.

    The product is multiplied and summed in blocks of rows along the first
    grid axis, about LAMBDA_BLOCK_CELLS cells each (batch axes whole), and
    the sum is the sum of the block sums, so no product is cell-sized.  The
    first product takes ``dtype`` (a product of boolean arrays, sets, stays
    boolean), so the later factors multiply in place, each converted to an
    array only as it is multiplied in: a deferred crop, such as an axis
    approximant's gather, is made one factor and one block at a time."""
    rows = views[0].shape[-n]
    per_row = max([math.prod(v.shape) for v in views]) // rows
    step = max(1, LAMBDA_BLOCK_CELLS // per_row)

    def block(b0: int):
        key = (..., slice(b0, b0 + step)) + (slice(None),) * (n - 1)
        prod = np.multiply(views[0][key], views[1][key], dtype=dtype)
        for v in views[2:]:
            prod *= v[key]
        if phase is not None:
            # the block's cells of the grid, from row b0; out of place: a
            # product of sets is boolean
            prod = prod * np.exp(2j * np.pi * phase((b0,) + (0,) * (n - 1),
                                                    prod.shape[-n:]))
        return prod.sum()

    return functools.reduce(operator.add, map(block, range(0, rows, step)))


def _lambda_sum(arrays: Sequence[np.ndarray], spec: ConfigSpec,
                phase: Callable[..., np.ndarray] | None = None) -> complex:
    """Sum over r in [M] of sum_x f_0(x) prod_j f_j(x + (q r)^(m_j) e_j)
    [* e(phase(r, offsets, dims))] for the (m, q, M) of ``spec``, with x in
    its box, where f_i is the grid ``arrays[i]`` (zero outside it) and
    ``phase(r, offsets, dims)`` is the phase of r mod 1 on a window.

    The trailing n axes of each array are the grid; leading
    axes are batch axes, and the sum runs over them too, so a stack of
    grids is summed in one call per r.  Each r's term is the
    ``_product_sum`` of its cropped views (``kernels.pattern_views``), in
    the dtype of all the arrays, so no product is cell-sized; the r run
    over the ``_useful_shifts`` below the extent of ``arrays[j + 1]`` along
    axis j of its trailing n axes, since the terms of later r are all zero.
    Callers check the grid extents (``_check_compatible``)."""
    n, base_dims = spec.n, spec.box.dims
    dtype = np.result_type(*[a.dtype for a in arrays])
    rows = _useful_shifts(
        spec, [a.shape[j - n] for j, a in enumerate(arrays[1:])])
    per_r = [_product_sum(kernels.pattern_views(arrays, base_dims, shifts),
                          n, dtype, None if phase is None
                          else functools.partial(phase, r))
             for r, shifts in enumerate(rows, 1)]
    return complex(np.sum(np.asarray(per_r))) if per_r else 0j


def lambda_simple(fs: Sequence[Weight], m: Sequence[int], N: int) -> complex:
    """Average of f_0(x) prod_j f_j(x + r^(m_j) e_j) over x in prod [N^(m_j)],
    r in [N].

    Each f_j lives on the base box, possibly doubled along any axis; reads
    outside its own box are zero.  The normalization is exactly
    N^(m_1 + ... + m_n) * N.  This is lambda_general on the power-box spec
    ``ConfigSpec.power(m, N)``.
    """
    return lambda_general(fs, ConfigSpec.power(m, N))


def lambda_general(fs: Sequence[Weight], spec: ConfigSpec) -> complex:
    """Average of f_0(x) prod_j f_j(x + (q r)^(m_j) e_j) over the box of
    ``spec`` and r in [M]."""
    n = spec.n
    if len(fs) != n + 1:
        raise ValueError(f"spec has n={n}, got {len(fs)} functions")
    arrays = [f.values for f in fs]
    _check_compatible([a.shape for a in arrays], spec.box.dims)
    total = _lambda_sum(arrays, spec)
    return total / (spec.box.cells * spec.M)


def phased_spec(fs: Sequence[Weight], alphas: Sequence, m: Sequence[int],
                N: int) -> tuple[ConfigSpec, tuple[int, ...]]:
    """The power-box spec of the n = len(fs) - 1 shift exponents m[:n] and
    the k = len(alphas) phase powers m[n:]: the one split of a phased m.
    Its rule: m is n + k strictly increasing exponents in [1, MAX_EXPONENT],
    checked before anything is powered, and each weight's ``box.dims`` (so
    a set is never unpacked) are N^(m_j) or 2 N^(m_j) along each axis j, and
    each table's box is the spec's (``count --phase-const`` passes its
    constant ``TorusPhase``s); anything else raises ``ValueError``."""
    m = _check_exponents(m, increasing=True)
    n, k = len(fs) - 1, len(alphas)
    if len(m) != n + k:
        raise ValueError(
            f"need {n + k} exponent{'s' * (n + k != 1)} ({n} shift exponent"
            f"{'s' * (n != 1)}, {k} phase power{'s' * (k != 1)}), got {len(m)}")
    spec = ConfigSpec.power(m[:n], N)
    _check_compatible([f.box.dims for f in fs], spec.box.dims)
    for j, a in enumerate(alphas, start=1):
        if isinstance(a, PhaseTable) and a.box != spec.box:
            raise ValueError(f"alpha_{j} has box {a.box}, expected {spec.box}")
    return spec, m[n:]


def lambda_phased(fs: Sequence[Weight], alphas: Sequence[PhaseTable],
                  m: Sequence[int], N: int) -> complex:
    """lambda_simple with the extra factor e(sum_j alpha_j(x) r^(m_(n+j))),
    m split by ``phased_spec``; the phase is ``core.table_phases``.
    """
    spec, powers = phased_spec(fs, alphas, m, N)
    phase = functools.partial(table_phases, alphas, powers) if alphas else None
    total = _lambda_sum([f.values for f in fs], spec, phase)
    return total / (spec.box.cells * spec.M)


# ---------------------------------------------------------------------------
# Brute-force oracles (small inputs only; every read is an independent
# per-point lookup)

# Largest cells x M that ``count --oracle`` accepts: the oracles walk every
# (x, r) in Python at about 6.5 us each, so this is seconds of work.
ORACLE_MAX_TERMS = 1 << 20


def _read_point(f: Weight, pt: Sequence[int]) -> complex:
    idx = tuple(c - 1 for c in pt)
    if any(c < 0 or c >= d for c, d in zip(idx, f.box.dims)):
        return 0j
    return complex(f.values[idx])


def _bruteforce_sum(fs: Sequence[Weight], spec: ConfigSpec,
                    phase: Callable[[tuple[int, ...], int], float] | None = None
                    ) -> complex:
    """The brute-force average of f_0(x) prod_j f_j(x + (q r)^(m_j) e_j)
    [* e(phase(x, r))] over x in the box of ``spec`` and r in [M]."""
    # past the last useful r the read of some f_{j+1} is outside its box
    rows = _useful_shifts(spec, [f.box.dims[j] for j, f in enumerate(fs[1:])])
    total = 0j
    for idx in np.ndindex(*spec.box.dims):
        x = tuple(c + 1 for c in idx)
        for r, shifts in enumerate(rows, 1):
            term = _read_point(fs[0], x)
            if term == 0:
                continue
            for j in range(spec.n):
                pt = list(x)
                pt[j] += shifts[j]
                term *= _read_point(fs[j + 1], pt)
            if term == 0:
                continue
            if phase is not None:
                term = term * np.exp(2j * np.pi * phase(x, r))
            total += term
    return total / (spec.box.cells * spec.M)


def lambda_general_bruteforce(fs: Sequence[Weight], spec: ConfigSpec) -> complex:
    """Oracle of ``lambda_general`` (and, at ``ConfigSpec.power(m, N)``, of
    ``lambda_simple``)."""
    return _bruteforce_sum(fs, spec)


def lambda_phased_bruteforce(fs: Sequence[Weight],
                             alphas: Sequence[PhaseTable],
                             m: Sequence[int], N: int) -> complex:
    """Oracle of ``lambda_phased``.  The phase at (x, r) is summed as
    ``TorusPhase``s (``PhaseTable.at``, numerator over T), exact mod 1 at any
    exponent and for every T a table holds."""
    spec, powers = phased_spec(fs, alphas, m, N)

    def phase(x: tuple[int, ...], r: int) -> float:
        return sum((a.at(x).times_int(r ** p) for a, p in zip(alphas, powers)),
                   TorusPhase(0)).approx

    return _bruteforce_sum(fs, spec, phase if alphas else None)


# ---------------------------------------------------------------------------
# Exact integer counting for indicators


# a band of the integer histogram is at least this many halos tall
BAND_HALOS = 4


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
    """What ``popdiff`` prints; ``certificate`` is the pipeline's, None for
    a direct search."""

    r_star: int
    count: int
    histogram: Histogram  # histogram[r-1] = count at difference r
    certificate: dict | None = None


def _indicator_counts(inds: Sequence[SetIndicator], spec: ConfigSpec,
                      pointwise: bool) -> Histogram:
    """The histogram, band by band: the base rows along axis 1 in bands of
    ``kernels.band_rows`` rows of the widest set, each set read once per
    band, the set of slot 1 with a halo of the largest useful axis-1 shift
    below the band, and every useful r counted on the band.  A band is at
    least BAND_HALOS halos tall, so the halos re-read at most 1/BAND_HALOS
    of the rows, and a halo of N_1 / BAND_HALOS rows or more makes the grid
    one band."""
    if len(inds) != spec.n + 1:
        raise ValueError(f"spec has n={spec.n}, got {len(inds)} indicators")
    _check_compatible([A.box.dims for A in inds], spec.box.dims)
    rows = _useful_shifts(spec, [A.box.dims[j] for j, A in enumerate(inds[1:])])
    counts = np.zeros(len(rows), dtype=np.int64)
    if not rows:
        return Histogram(counts, spec.M)
    # the counters are read off ``kernels`` per call, where tracers wrap them
    if pointwise:
        read, count = SetIndicator.mask_rows, kernels.pattern_count_pointwise
    else:
        read, count = SetIndicator.packed_rows, kernels.pattern_count_fast
    base = spec.box.dims
    sets = {id(A): A for A in inds}
    halo = rows[-1][0]  # the largest useful shift along axis 1
    band = min(kernels.band_rows(A.box.dims, BAND_HALOS * halo)
               for A in sets.values())  # a 1-D set is one band

    def count_band(b0: int, b1: int) -> list[int]:
        # the set of slot 1 is read past the band by the halo; when one band
        # covers the base rows, every set is read whole
        reads = {key: read(A, b0, A.box.dims[0] if band >= base[0] else
                           min(b1 + halo * (A is inds[1]), A.box.dims[0]))
                 for key, A in sets.items()}
        masks = [reads[id(A)] for A in inds]
        dims = (b1 - b0,) + base[1:]
        return [count(masks, dims, shifts) for shifts in rows]

    # a band's reads are dropped before the next band is read
    for b0 in range(0, base[0], band):
        counts += count_band(b0, min(b0 + band, base[0]))
    return Histogram(counts, spec.M)


def lambda_indicator_counts(inds: Sequence[SetIndicator],
                            spec: ConfigSpec) -> Histogram:
    """Per-r integer pattern counts behind lambda_general on indicators
    (entry r - 1 for difference r), counted on the indicators' packed words
    only while some base point remains."""
    return _indicator_counts(inds, spec, pointwise=False)


def lambda_indicator_counts_pointwise(inds: Sequence[SetIndicator],
                                      spec: ConfigSpec) -> Histogram:
    """Oracle of ``lambda_indicator_counts``: the same histogram, counted by
    the member-driven membership loop on the boolean masks."""
    return _indicator_counts(inds, spec, pointwise=True)


def popular_count(A: SetIndicator, m: Sequence[int], r: int) -> int:
    """Exact size of {x in A : x + r^(m_j) e_j in A for every axis j}: the
    r = 1 entry of the histogram at modulus r, so 0 once a shift passes
    the grid."""
    return lambda_indicator_counts([A] * (A.box.n + 1),
                                   ConfigSpec(m, A.box, q=r, M=1))[0]


def popular_count_naive(A: SetIndicator, m: Sequence[int], r: int) -> int:
    """Oracle of ``popular_count``."""
    return lambda_indicator_counts_pointwise([A] * (A.box.n + 1),
                                             ConfigSpec(m, A.box, q=r, M=1))[0]


def best_popular_difference(A: SetIndicator, m: Sequence[int],
                            M: int | None = None) -> PopDiffResult:
    """Arg-max of popular_count over r in [1, M]; ties go to the smallest r.
    M defaults to max(1, floor(N_n^(1/m_n)))."""
    if M is None:
        M = max(1, _integer_root(A.box.dims[-1], m[-1]))
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
    n, m, q = spec.n, spec.m, spec.q
    dims = spec.box.dims
    inner = ConfigSpec.power(m, spec.M)  # the simple operator at range M
    inner_dims = inner.box.dims
    strides = tuple(q ** mi for mi in m)
    # x_j in [-2N_j, 2N_j]; the window of x starts at x - 1 + strides
    counts = tuple(4 * d + 1 for d in dims)
    c_n = math.prod(c / d for c, d in zip(counts, dims))
    first = tuple(s - 1 - 2 * d for s, d in zip(strides, dims))
    wins = []
    for i, f in enumerate(fs):
        out = tuple(2 * inner_dims[a] if (i >= 1 and a == i - 1)
                    else inner_dims[a] for a in range(n))
        wins.append(read_translates(f.values, first, counts, out, strides))
    total = _lambda_sum(wins, inner)
    rhs = c_n * (total / (inner.box.cells * inner.M * math.prod(counts)))
    return lhs, rhs, c_n
