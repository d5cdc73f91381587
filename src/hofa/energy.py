"""Box-count inequalities, the energy-increment decomposition, and the
popular-difference pipeline.

The decomposition approximates each weight f_i by the conditional expectation
of its axis-i slices on a progression partition whose modulus and scale are
raised, axis by axis, whenever the approximation error of the counting
operator stays above delta.  Each accepted step must raise the energy
(the squared 2-norm of the projected slices, averaged over the other
coordinates) of some axis by at least tau * N_i, so the loop terminates
within n * ceil(2 / tau) steps; the scale dies once (delta / 8n) L < 1.
Axis projections take their atom sums, and their energies the projected
energy ``Atoms.energy``, from ``partition.Atoms``, which numbers atoms in
closed form by first point (nothing sorts) and sums a weight's rows where
they lie, block by block, whatever the trailing axes: a set's mask sums as
int64 with no cast or sorted copy of the mask, real atom sums are squared
in place, and no axis of a grid is copied.  A set is its own 0/1 weight
(``SetIndicator.values``), and a real grid is stored as float64.
An axis approximant F_i is stored as its atom table (``AxisApproximant``:
the atom sums over Lp, float64 for any real weight and complex128 for a
complex grid, and the atom index along its doubled axis).  Every product
of aligned grids here is summed by the one row-blocked product sum
``counting._product_sum``, in blocks of about ``LAMBDA_BLOCK_CELLS``
cells, and an approximant crop is gathered one block at a time as it is
multiplied in: the counting operators, the frozen value of
``cond_box_count`` and ``linearization_gap``, and ``box_count`` against its
broadcast axis means.  The box counts read a weight in [0, 1] as its own
values (no clipped copy unless a value needs clipping), so ``box_count``,
``cond_box_count`` and ``linearization_gap`` hold one block and the atom
tables beyond their input, and the decomposition holds no doubled grid and
no cell-sized product.  Tolerances delta outside (0, 1] and per-axis
parameters of the wrong length raise ``ValueError``.  The exponents of
the decomposition and of the pipeline must be strictly increasing, as in
the theory; other exponents raise ``ValueError`` on every path, the vacuous
one included.

``popular_difference_pipeline`` returns a ``counting.PopDiffResult`` and
builds its certificate in that one function.  A converged decomposition
counts at its own (q, M'); a vacuous density, or a fallback, runs the one
direct search ``counting.best_popular_difference`` at its default range.

Existential parameters in the underlying theory (the modulus bound, the
shrink rate, the final constant) are replaced by explicit knobs in
``IncrementParams``: exhaustive modulus search up to Qmax, the energy gain
tau, and a configurable shrink factor gamma.  The iteration cap
n * ceil(2 / tau) and the reporting divisor 2^(n+1) are fixed; the divisor
is a stand-in, never a proved constant.

``DecompositionError`` is defined in ``core`` (so that the command line can
catch it without importing this module) and re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .core import (BoxSpec, ConfigSpec, DecompositionError, GridFunction,
                   SetIndicator, _check_exponents, _integer_root, read_window)
from .counting import (PopDiffResult, Weight, _product_sum,
                       best_popular_difference, lambda_general,
                       lambda_indicator_counts)
from .partition import APPartition, Atoms


# ---------------------------------------------------------------------------
# Box counts


def _real_unit_values(f: GridFunction) -> np.ndarray:
    """The values of f as a real array in [0, 1]: f's own values (or the
    real part of complex storage, a view) unless some value lies outside
    by at most 1e-12 and is clipped; further out raises ``ValueError``."""
    g = f.values
    if np.iscomplexobj(g):
        # only complex storage is checked, from the extremes of its
        # imaginary parts (a view): no cell-sized |imag|
        im = g.imag
        if max(-im.min(initial=0.0), im.max(initial=0.0)) > 1e-12:
            raise ValueError("box counts need real-valued input")
        g = g.real
    lo, hi = g.min(initial=0.0), g.max(initial=0.0)
    if lo < -1e-12 or hi > 1 + 1e-12:
        raise ValueError("box counts need values in [0, 1]")
    return np.clip(g, 0.0, 1.0) if lo < 0 or hi > 1 else g


def _check_axis_params(f: GridFunction, qs: Sequence[int],
                       Ls: Sequence[int]) -> None:
    n = f.box.n
    if len(qs) != n or len(Ls) != n:
        raise ValueError(f"need one q_i and one L_i per axis of the {n}-D "
                         f"grid, got {len(qs)} and {len(Ls)}")


def _check_delta(delta: float) -> None:
    """Refuse a tolerance outside (0, 1], NaN included."""
    if not 0 < delta <= 1:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")


def box_count(f: GridFunction) -> float:
    """E over x, x' in the box of f(x) prod_j f(x with axis j from x').

    The x' average factorizes into per-axis means, so this equals
    E_x f(x) prod_j (mean of f along axis j), an O(cells) computation
    summed in row blocks (``counting._product_sum``) against the broadcast
    means.  For n = 1 it is exactly (E f)^2.
    """
    g = _real_unit_values(f)
    means = [np.broadcast_to(g.mean(axis=ax, keepdims=True), g.shape)
             for ax in range(g.ndim)]
    return float(_product_sum([g] + means, g.ndim, g.dtype) / g.size)


def box_count_naive(f: GridFunction) -> float:
    """Oracle: literal double loop over (x, x'); small boxes only."""
    g = _real_unit_values(f)
    dims = g.shape
    total = 0.0
    for x in np.ndindex(*dims):
        fx = g[x]
        if fx == 0.0:
            continue
        for xp in np.ndindex(*dims):
            term = fx
            for j in range(len(dims)):
                y = list(x)
                y[j] = xp[j]
                term *= g[tuple(y)]
            total += term
    return total / float(np.prod(dims)) ** 2


# ---------------------------------------------------------------------------
# Axis projections


def axis_projection_energy(f: Weight, axis: int, Q: int, Lp: int) -> float:
    """Average over the other coordinates of the energy of the axis slices
    projected on the (Q, Lp) partition: E ||proj of slice||_2^2."""
    arr = np.moveaxis(f.values, axis - 1, 0)
    return float(Atoms(APPartition(Q, Lp), 1, len(arr)).energy(arr).mean())


@dataclass(frozen=True, eq=False)
class AxisApproximant:
    """x -> E(slice of f at the other coordinates | partition)(x_i), the axis
    approximant F_i of ``axis_approximant``, stored as its atom table.

    ``table`` holds the atom sums divided by Lp, indexed by atom along
    ``axis`` (0-based) and by the grid's coordinates along the other axes;
    ``atom`` is the atom index of each point of the axis, doubled (the
    projections spill onto whole atoms).  The approximant is its own
    ``values``: it has the grid's ``shape`` with that axis doubled and the
    table's ``dtype``, a crop ``F[slices]`` (one slice per axis, after an
    optional leading ``...``) is another approximant that shares the table,
    and numpy converts it to an array by gathering the table by atom.  The
    counting operators and ``_frozen_value`` therefore gather one crop at a
    time, as they multiply it in, and no doubled grid is built.
    """

    table: np.ndarray
    atom: np.ndarray
    axis: int

    @property
    def shape(self) -> tuple[int, ...]:
        ax = self.axis
        return self.table.shape[:ax] + self.atom.shape + self.table.shape[ax + 1:]

    @property
    def dtype(self) -> np.dtype:
        return self.table.dtype

    @property
    def values(self) -> "AxisApproximant":
        return self

    def __getitem__(self, key: tuple) -> "AxisApproximant":
        if key and key[0] is Ellipsis:
            key = key[1:]  # no batch axes
        ax = self.axis
        rest = tuple(slice(None) if a == ax else k for a, k in enumerate(key))
        return AxisApproximant(self.table[rest], self.atom[key[ax]], ax)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        vals = np.take(self.table, self.atom, axis=self.axis)
        return vals if dtype is None else vals.astype(dtype, copy=False)


def axis_approximant(f: Weight, axis: int, Q: int, Lp: int) -> AxisApproximant:
    """The approximant x -> E(slice of f at the other coordinates |
    partition (Q, Lp))(x_i) along axis i = ``axis`` (1-based), as its atom
    table and the atom index of the doubled axis (projections spill onto
    whole atoms).  The table is float64 for any real weight (a set, or a
    ``GridFunction`` stored as float64) and complex128 for a complex grid;
    ``np.asarray`` of the result is the materialized grid."""
    ax = axis - 1
    n_i = f.box.dims[ax]
    P = APPartition(Q, Lp)
    doubled = Atoms(P, 1, 2 * n_i)
    sums = Atoms(P, 1, n_i).sum(np.moveaxis(f.values, ax, 0))
    table = np.zeros((len(doubled.sizes),) + sums.shape[1:],
                     np.result_type(sums, np.float64))
    # atoms are numbered by first point, so those meeting [1, N_i] come first
    table[:len(sums)] = sums
    # times 1/Lp rather than / Lp: numpy's complex division by a real rounds
    # as this product, so a set's table is the real part of its grid's
    table *= 1 / Lp
    return AxisApproximant(np.moveaxis(table, 0, ax), doubled.atom, ax)


def _frozen_value(g: np.ndarray, approx: Sequence[AxisApproximant]) -> float:
    """E_x g(x) prod_i Re F_i(x) over the box of g, F_i the axis
    approximants (read on the box, not on their doubled axes), summed in
    row blocks (``counting._product_sum``) with each block of each crop
    gathered as it is multiplied in."""
    sl = tuple(slice(0, d) for d in g.shape)
    crops = [AxisApproximant(F.table.real, F.atom, F.axis)[sl] for F in approx]
    return float(_product_sum([g] + crops, g.ndim, g.dtype) / g.size)


def cond_box_count(f: GridFunction, qs: Sequence[int],
                   Ls: Sequence[int]) -> tuple[float, float]:
    """E_x f(x) prod_i E(slice_i | partition (q_i, L_i))(x_i), with the
    comparison value (E f)^(n+1) reported alongside.  ``qs`` and ``Ls``
    have one entry per axis."""
    _check_axis_params(f, qs, Ls)
    g = _real_unit_values(f)
    n = f.box.n
    approx = [axis_approximant(f, ax + 1, int(qs[ax]), int(Ls[ax]))
              for ax in range(n)]
    return _frozen_value(g, approx), float(g.mean()) ** (n + 1)


def cond_box_expansion(f: GridFunction, qs: Sequence[int],
                       Ls: Sequence[int]) -> dict:
    """Expand cond_box_count over partition cells and check the convexity step.

    Requires one (q_i, L_i) per axis, and every q_i L_i to divide N_i so
    cells tile the box exactly.  Each cell contributes the box count of the
    sub-grid sampled at strides q_i; the cell-level inequality against the
    (n+1)-st power of the cell mean and the aggregated convexity bound are
    both reported.
    """
    _check_axis_params(f, qs, Ls)
    g = _real_unit_values(f)
    dims = f.box.dims
    n = len(dims)
    qs = [int(v) for v in qs]
    Ls = [int(v) for v in Ls]
    for d, q, L in zip(dims, qs, Ls):
        if d % (q * L):
            raise ValueError("cell expansion needs q_i L_i | N_i")
    weight = 1.0
    for d, L in zip(dims, Ls):
        weight *= L / d  # equals 1 / (number of cells) under exact tiling
    cells = []
    blocks = [range(d // (q * L)) for d, q, L in zip(dims, qs, Ls)]
    offsets = [range(q) for q in qs]
    for s in np.ndindex(*[len(b) for b in blocks]):
        for x0 in np.ndindex(*[len(o) for o in offsets]):
            # cell grid: x + q_i k_i along axis i, k_i in [0, L_i)
            starts = [s[a] * qs[a] * Ls[a] + x0[a] for a in range(n)]
            sub = read_window(g, starts, Ls, qs)
            bc = box_count(GridFunction(BoxSpec(sub.shape), sub))
            mean_pow = float(sub.mean()) ** (n + 1)
            cells.append({"cell_box_count": bc, "cell_mean_pow": mean_pow})
    expansion_value = weight * sum(c["cell_box_count"] for c in cells)
    convexity_lhs = weight * sum(c["cell_mean_pow"] for c in cells)
    global_mean_pow = float(g.mean()) ** (n + 1)
    value, _ = cond_box_count(f, qs, Ls)
    return {
        "cond_box_count": value,
        "expansion_value": expansion_value,
        "cells": cells,
        "cell_violations": sum(1 for c in cells
                               if c["cell_box_count"] < c["cell_mean_pow"] - 1e-12),
        "convexity_lhs": convexity_lhs,
        "global_mean_pow": global_mean_pow,
        "convexity_ok": convexity_lhs >= global_mean_pow - 1e-12,
    }


# ---------------------------------------------------------------------------
# Linearization gap


@dataclass
class LinGapReport:
    gap: float
    bound: float
    lambda_projected: float
    frozen_value: float
    reference: float  # (E f)^(n+1) - delta/2, reporting only

    @property
    def ok(self) -> bool:
        return self.gap <= self.bound + 1e-9

    def to_dict(self) -> dict:
        return {"gap": self.gap, "bound": self.bound,
                "lambda_projected": self.lambda_projected,
                "frozen_value": self.frozen_value,
                "reference": self.reference, "ok": self.ok}


def linearization_gap(f: GridFunction, spec: ConfigSpec, L: int,
                      delta: float) -> LinGapReport:
    """Gap between the counting operator applied to (f, projections) and its
    frozen version with the shifts inside the projections removed.

    Each projection is constant on progressions of length L^(m_i) and stride
    q^(m_i); a shift by (q r)^(m_i) <= (q M)^(m_i) changes it on at most a
    4 (M/L)^(m_i) fraction, whence the bound sum_i 4 (M/L)^(m_i).  Requires
    delta in (0, 1] and M <= (delta / 8n) L.
    """
    _check_delta(delta)
    n = spec.n
    if spec.M > delta / (8 * n) * L:
        raise ValueError(f"need M <= (delta/8n) L, got M={spec.M}, L={L}")
    g = _real_unit_values(f)
    qs = [spec.q ** mi for mi in spec.m]
    Ls = [L ** mi for mi in spec.m]
    approx = [axis_approximant(f, i + 1, qs[i], Ls[i]) for i in range(n)]
    lam = lambda_general([f] + approx, spec)
    frozen = _frozen_value(g, approx)
    bound = sum(4.0 * (spec.M / L) ** mi for mi in spec.m)
    reference = float(g.mean()) ** (n + 1) - delta / 2
    return LinGapReport(abs(lam.real - frozen), bound, float(lam.real),
                        frozen, reference)


# ---------------------------------------------------------------------------
# Energy increment


@dataclass
class IncrementParams:
    Qmax: int = 8
    tau: float = 0.05
    gamma: float | None = None  # default delta / (16 n)

    def __post_init__(self):
        if self.Qmax < 1:
            raise ValueError(f"IncrementParams.Qmax must be >= 1, got {self.Qmax}")
        if not self.tau > 0:
            raise ValueError(f"IncrementParams.tau must be > 0, got {self.tau}")
        if self.gamma is not None and not 0 < self.gamma < 1:
            raise ValueError(
                f"IncrementParams.gamma must lie in (0, 1), got {self.gamma}")

    def resolved(self, n: int, delta: float) -> tuple[float, int]:
        """The shrink factor and the iteration cap n * ceil(2 / tau)."""
        gamma = self.gamma if self.gamma is not None else delta / (16 * n)
        return gamma, n * int(np.ceil(2 / self.tau))


@dataclass
class TraceStep:
    iteration: int
    axis: int
    energy_before: float
    energy_after: float
    q_step: int
    L_new: int

    def to_dict(self) -> dict:
        return {"iteration": self.iteration, "axis": self.axis,
                "energy_before": self.energy_before,
                "energy_after": self.energy_after,
                "q_step": self.q_step, "L_new": self.L_new}


@dataclass
class DecompositionResult:
    q: int
    L: int
    status: str  # converged | iteration_cap | scale_exhausted | oracle_stalled
    trace: list[TraceStep]
    iterations: int
    final_gap: float | None
    range_ok: bool

    def to_dict(self) -> dict:
        return {"q": self.q, "L": self.L, "status": self.status,
                "iterations": self.iterations, "final_gap": self.final_gap,
                "range_ok": self.range_ok,
                "trace": [t.to_dict() for t in self.trace]}


def _scale_range(delta: float, L: int, n: int) -> int:
    """The difference range floor(delta L / 8n) tested at scale L; the
    scale is dead once it is 0."""
    return int(delta * L / (8 * n))


def energy_increment(fs: Sequence[Weight], m: Sequence[int], delta: float,
                     params: IncrementParams | None = None) -> DecompositionResult:
    """Iteratively refine per-axis progression partitions until the counting
    operator is approximated by the projected weights within delta.

    At scale L with accumulated modulus q, the test compares the operator on
    (f_0, f_1..f_n) against (f_0, F_1..F_n), F_i the axis-i projection on the
    (q^(m_i), L^(m_i)) partition, with difference range floor(delta L / 8n).
    On failure the modulus search tries every step multiplier up to Qmax and
    every axis at the shrunk scale floor(gamma L), accepting the smallest
    (multiplier, axis) whose axis energy grows by at least tau * N_i.
    Exponents that are not strictly increasing, and delta outside (0, 1],
    raise ``ValueError``.
    """
    _check_delta(delta)
    m = _check_exponents(m, increasing=True)
    n = len(m)
    if len(fs) != n + 1:
        raise ValueError(f"need n+1 = {n + 1} weight functions")
    box = fs[0].box
    if any(f.box != box for f in fs):
        raise ValueError("weights must share the base box")
    dims = box.dims
    issues = box.chain_issues(m)
    if issues:
        raise ValueError("; ".join(issues))
    params = params or IncrementParams()
    gamma, cap = params.resolved(n, delta)
    L0 = _integer_root(dims[-1], m[-1])

    q_acc = 1
    L = L0
    # per-axis partition parameters; the starting partition is the trivial
    # one-block split (modulus 1, atom length N_i)
    part = [(1, dims[i]) for i in range(n)]
    trace: list[TraceStep] = []
    steps = 0
    final_gap = None
    range_ok = True

    while True:
        M_t = _scale_range(delta, L, n)
        if M_t < 1:
            return DecompositionResult(q_acc, L, "scale_exhausted", trace,
                                       steps, final_gap, range_ok)
        spec_t = ConfigSpec(m, box, q=q_acc, M=M_t)
        # m and the chain are checked above, so this reads the range condition
        range_ok = range_ok and not spec_t.theory_issues()
        F = [axis_approximant(fs[i + 1], i + 1, *part[i]) for i in range(n)]
        lam_f = lambda_general(fs, spec_t)
        lam_F = lambda_general([fs[0]] + F, spec_t)
        final_gap = abs(lam_f - lam_F)
        if final_gap <= delta:
            return DecompositionResult(q_acc, L, "converged", trace,
                                       steps, final_gap, range_ok)
        if steps >= cap:
            return DecompositionResult(q_acc, L, "iteration_cap", trace,
                                       steps, final_gap, range_ok)
        L_next = int(gamma * L)
        if L_next < 1:
            return DecompositionResult(q_acc, L, "scale_exhausted", trace,
                                       steps, final_gap, range_ok)
        found = None
        energy_now = [axis_projection_energy(fs[i + 1], i + 1, *part[i])
                      for i in range(n)]
        for q_step in range(1, params.Qmax + 1):
            for i in range(n):
                Q_new = (q_acc * q_step) ** m[i]
                Lp_new = L_next ** m[i]
                e_new = axis_projection_energy(fs[i + 1], i + 1, Q_new, Lp_new)
                if e_new - energy_now[i] >= params.tau * dims[i]:
                    found = (q_step, i, energy_now[i], e_new)
                    break
            if found:
                break
        if not found:
            return DecompositionResult(q_acc, L, "oracle_stalled", trace,
                                       steps, final_gap, range_ok)
        q_step, i, e_before, e_after = found
        q_acc *= q_step
        L = L_next
        part = [((q_acc) ** m[a], L ** m[a]) for a in range(n)]
        steps += 1
        trace.append(TraceStep(steps, i + 1, e_before, e_after, q_step, L))


# ---------------------------------------------------------------------------
# Popular-difference pipeline


def popular_difference_pipeline(A: SetIndicator, m: Sequence[int], delta: float,
                                allow_fallback: bool = True) -> PopDiffResult:
    """Locate a difference r whose configuration count in A is large.

    Runs the energy-increment decomposition on the indicator with the
    default ``IncrementParams``, evaluates the counting operator at the final
    (q, L), and takes the best multiplier in [1, floor(delta L / 8n)] (the
    counted difference is q times it).  When mu^(n+1) <= delta (vacuous)
    or the decomposition does not converge (fallback), the direct search
    over its default range is used instead and flagged.  The set is passed
    as its own 0/1 weight, so no complex copy of it is built.  The
    certificate reports the density power mu^(n+1), a reporting threshold
    (mu^(n+1) - delta) / 2^(n+1) and whether the normalized count of the
    returned difference reaches it (``threshold_met``); the divisor is a
    stand-in, never a proved constant, so a false ``threshold_met`` is a
    finding to report, not a failed property.  Exponents that are not
    strictly increasing, and delta outside (0, 1], raise ``ValueError``
    before any path is chosen.
    """
    _check_delta(delta)
    m = _check_exponents(m, increasing=True)
    n = len(m)
    if A.count == 0:
        raise ValueError("popular-difference search needs a nonempty set")
    cells = A.box.cells
    mu = A.density
    mu_pow = mu ** (n + 1)
    div = 2 ** (n + 1)
    cert: dict = {"mu": mu, "mu_pow": mu_pow, "delta": delta,
                  "threshold": (mu_pow - delta) / div,
                  "threshold_divisor": div}

    if mu_pow <= delta:
        cert.update({"vacuous": True, "fallback": False, "status": "vacuous",
                     "q": 1, "L": None, "lambda": None})
    else:
        dec = energy_increment([A] * (n + 1), m, delta)
        cert.update({"vacuous": False, "status": dec.status,
                     "iterations": dec.iterations, "L": dec.L,
                     "range_ok": dec.range_ok})
        if dec.status == "converged":
            Mp = _scale_range(delta, dec.L, n)
            spec = ConfigSpec(m, A.box, q=dec.q, M=Mp)
            counts = lambda_indicator_counts([A] * (n + 1), spec)
            best = counts.argmax() + 1
            count = counts[best - 1]
            cert.update({"fallback": False, "q": dec.q, "M": Mp,
                         "lambda": float(counts.sum()) / (cells * Mp),
                         "r_multiplier": best})
            return PopDiffResult(dec.q * best, count, counts,
                                 _with_count(cert, count / cells))
        if not allow_fallback:
            raise DecompositionError(f"decomposition ended with status "
                                     f"{dec.status} and fallback is off")
        cert.update({"fallback": True, "q": 1, "lambda": None})
    res = best_popular_difference(A, m)
    return replace(res, certificate=_with_count(cert, res.count / cells))


def _with_count(cert: dict, normalized: float) -> dict:
    """The certificate with the returned difference's normalized count, and
    whether it reaches the threshold."""
    cert.update({"normalized_count": normalized,
                 "threshold_met": normalized >= cert["threshold"]})
    return cert


# ---------------------------------------------------------------------------
# One-dimensional lift


def lift_1d(A: SetIndicator, m: Sequence[int], N: int) -> tuple[SetIndicator, dict]:
    """Lift a subset of [N] to the grid {x : x_1 + ... + x_n in A}.

    Needs N^(1/m_n) to be an integer t; the grid box is [t^(m_1)] x ... x
    [t^(m_n)].  The exact integer lower bound
    |A'| >= (|A| - (n-1) t^(m_(n-1))) * t^(m_1 + ... + m_(n-1)) is verified
    and reported.
    """
    if A.box.n != 1:
        raise ValueError("lift_1d expects a 1-D set")
    m = tuple(int(v) for v in m)
    n = len(m)
    if n < 2:
        raise ValueError("lift needs n >= 2 exponents")
    t = _integer_root(N, m[-1])
    if t ** m[-1] != N:
        raise ValueError(f"N^(1/m_n) = {N}^(1/{m[-1]}) is not an integer")
    box = ConfigSpec.power(m, t).box  # refuses a box past the cap
    dims = box.dims
    member = np.zeros(sum(dims) + 1, dtype=bool)
    idx = np.nonzero(A.mask)[0] + 1
    member[idx[idx <= sum(dims)]] = True
    coord_sum = sum(np.ix_(*[np.arange(1, d + 1, dtype=np.int64) for d in dims]))
    mask = member[coord_sum]
    lifted = SetIndicator(box, mask)
    side = box.cells // dims[-1]
    lower = (A.count - (n - 1) * dims[-2]) * side
    report = {"count": lifted.count, "lower_bound": lower,
              "ok": lifted.count >= lower, "t": t, "dims": list(dims)}
    return lifted, report
