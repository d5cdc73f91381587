"""Weyl sums, rational frequency search, dual functions, and phase snapping.

Rational phases are reduced exactly so that Weyl sums over rational tuples
carry no floating-point drift in the phase: the phase of n is an integer
numerator over L = lcm(T_i), built from modular powers n^i mod T_i, and is
rounded to a float once.  Float phases fall back to ordinary double
arithmetic.  The dual-function and stashing operations realize the counting
operators as a single inner product against a derived one-bounded function.

The constancy search snaps each phase table to the grid {t/T_j} with
T_j = ceil(2 k N^(m_j) / delta) and tries the ``CONSTANCY_TOP_K`` most
frequent snapped tuples on one shift matrix f(x + r^(m_0)); it reports the
best one it finds and leaves the judging of its average to the caller.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .core import (BoxSpec, ConfigSpec, GridFunction, Line, PhaseTable,
                   TorusPhase, _check_exponents, read_window)
from .counting import lambda_phased
from .partition import APPartition, cond_expect

MAX_POLY_DEGREE = 6
# bound on the powers and the phase grids of ``phase_constancy_search``,
# which it holds as int64
INT64_BOUND = 1 << 63
# snapped phase tuples tried as constants by ``phase_constancy_search``
CONSTANCY_TOP_K = 16


def weyl_sum(alphas: Sequence[TorusPhase], N: int) -> complex:
    """Average over n in [N] of e(alpha_1 n + alpha_2 n^2 + ...).

    Exact rational phases are reduced mod 1 with integer arithmetic before
    exponentiating; the result modulus never exceeds 1.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if not alphas:
        return 1.0 + 0j
    if all(a.is_exact for a in alphas):
        # the phase of n is num_n / L with L = lcm(T_i) and the integer
        # num_n = sum t_i (L / T_i) (n^i mod T_i) mod L; int / int rounds
        # correctly, as float(Fraction) does
        L = math.lcm(*(a.frac.denominator for a in alphas))
        terms = [(i, a.frac.numerator * (L // a.frac.denominator),
                  a.frac.denominator) for i, a in enumerate(alphas, start=1)]
        total = 0j
        for n in range(1, N + 1):
            num = sum(c * pow(n, i, T) for i, c, T in terms) % L
            total += cmath.exp(2j * cmath.pi * (num / L))
        return total / N
    ns = np.arange(1, N + 1, dtype=np.float64)
    phase = np.zeros(N)
    for i, a in enumerate(alphas, start=1):
        phase += np.mod(a.approx * ns**i, 1.0)
    return complex(np.mean(np.exp(2j * np.pi * phase)))


@dataclass
class RationalApprox:
    q: int
    residuals: tuple[float, ...]  # ||q alpha_i|| N^i per degree


def rational_approx_search(alphas: Sequence[TorusPhase], N: int,
                           Qmax: int) -> RationalApprox:
    """Smallest q in [1, Qmax] minimizing max_i ||q alpha_i|| N^i.

    Deterministic; the caller judges the residuals against its own budget.
    """
    if Qmax < 1:
        raise ValueError("Qmax must be >= 1")
    best = None
    for q in range(1, Qmax + 1):
        res = []
        for i, a in enumerate(alphas, start=1):
            if a.is_exact:
                dist = a.times_int(q).norm_dist()
                res.append(float(dist) * N**i)
            else:
                v = (a.approx * q) % 1.0
                res.append(min(v, 1.0 - v) * N**i)
        score = max(res) if res else 0.0
        if best is None or score < best[0] - 1e-15:
            best = (score, q, tuple(res))
    return RationalApprox(best[1], best[2])


# ---------------------------------------------------------------------------
# Dual functions and the stashing identity


def dual_function(fs: Sequence[GridFunction], alphas: Sequence[PhaseTable],
                  m: Sequence[int], N: int, i: int) -> GridFunction:
    """The function pairing against f_i that writes the phased counting
    operator as a single inner product:

        F(x) = avg over r in [N] of f_0(x - r^(m_i) e_i)
               * prod_(j != i) f_j(x + r^(m_j) e_j - r^(m_i) e_i)
               * e(sum_j alpha_j(x - r^(m_i) e_i) r^(m_(n+j))).

    Materialized on the base box doubled along axis i; one-bounded whenever
    the inputs are.
    """
    m = tuple(int(v) for v in m)
    n = len(fs) - 1
    k = len(alphas)
    if not 1 <= i <= n:
        raise ValueError(f"slot index {i} out of range 1..{n}")
    if len(m) != n + k:
        raise ValueError(f"need {n + k} exponents, got {len(m)}")
    ax = i - 1
    out_dims = tuple(2 * d if a == ax else d for a, d in
                     enumerate(ConfigSpec.power(m[:n], N).box.dims))
    acc = np.zeros(out_dims, dtype=np.complex128)
    for r in range(1, N + 1):
        back = r ** m[ax]
        off0 = tuple(-back if a == ax else 0 for a in range(n))
        term = read_window(fs[0].values, off0, out_dims)
        for j in range(n):
            if j == ax:
                continue
            off = tuple(r ** m[j] if a == j else (-back if a == ax else 0)
                        for a in range(n))
            term = term * read_window(fs[j + 1].values, off, out_dims)
        if k:
            phase = np.zeros(out_dims)
            for j in range(k):
                phase += (read_window(alphas[j].frac, off0, out_dims)
                          * float(r ** m[n + j]))
            term = term * np.exp(2j * np.pi * phase)
        acc += term
    return GridFunction(BoxSpec(out_dims), acc / N)


def stashing_identity_check(fs: Sequence[GridFunction],
                            alphas: Sequence[PhaseTable],
                            m: Sequence[int], N: int) -> tuple[complex, complex]:
    """Both sides of the identity

        lambda_phased(f_0..f_n) = N^(-(m_1+...+m_n)) sum_x f_n(x) F(x)

    with F the dual function in slot n.  Needs f_0 supported in the base box
    and f_j in the box doubled along axis j.
    """
    n = len(fs) - 1
    lhs = lambda_phased(fs, alphas, m, N)
    F = dual_function(fs, alphas, m, N, n)
    fn_win = read_window(fs[n].values, (0,) * n, F.box.dims)
    total = complex(np.sum(fn_win * F.values))
    return lhs, total / ConfigSpec.power(m[:n], N).box.cells


# ---------------------------------------------------------------------------
# Alternating phase sums


def phi_tilde(phi: Callable[[tuple[int, ...]], TorusPhase | Fraction | float],
              h0: Sequence[int], h1: Sequence[int]) -> TorusPhase:
    """Alternating sum of phi over the 2^d mixtures of two shift tuples:

        sum over omega in {0,1}^d of (-1)^(#ones) phi(h^omega),

    where h^omega picks h0 or h1 coordinatewise.  Exact when phi returns
    rationals; vanishes identically when phi splits as a sum of functions
    each ignoring one coordinate.
    """
    h0 = tuple(int(v) for v in h0)
    h1 = tuple(int(v) for v in h1)
    if len(h0) != len(h1):
        raise ValueError("shift tuples must share a length")
    d = len(h0)
    exact_total = Fraction(0)
    float_total = 0.0
    exact = True
    for bits in np.ndindex(*(2,) * d):
        arg = tuple(h1[a] if bits[a] else h0[a] for a in range(d))
        val = phi(arg)
        sign = -1 if sum(bits) % 2 else 1
        if isinstance(val, TorusPhase):
            if val.is_exact and exact:
                exact_total += sign * val.frac
            else:
                exact = False
            float_total += sign * val.approx
        elif isinstance(val, Fraction):
            exact_total += sign * val
            float_total += sign * float(val)
        else:
            exact = False
            float_total += sign * float(val)
    if exact:
        return TorusPhase.from_fraction(exact_total)
    return TorusPhase.from_float(float_total)


# ---------------------------------------------------------------------------
# Averaged phase correlation and the constancy search


def _shift_matrix(f: Line, base: int, power: int, N: int) -> np.ndarray:
    """W[x-1, r-1] = f(x + r^power) for x in [base], r in [N]."""
    cols = [f.window(1 + r**power, base + r**power) for r in range(1, N + 1)]
    return np.stack(cols, axis=1)


def phased_average(f: Line, phase_of_r: np.ndarray, base: int, power: int) -> float:
    """E over x in [base] of |E over r of f(x + r^power) e(phase_of_r(x, r))|.

    ``phase_of_r`` has shape (base, N) and holds the phase for each (x, r).
    """
    W = _shift_matrix(f, base, power, phase_of_r.shape[1])
    return _phased_mean(W, phase_of_r)


def _phased_mean(W: np.ndarray, phase_of_r: np.ndarray) -> float:
    """``phased_average`` on a built shift matrix; ``phase_of_r`` broadcasts
    against W's shape (base, N), so a phase constant in x may be one row."""
    inner = np.mean(W * np.exp(2j * np.pi * phase_of_r), axis=1)
    return float(np.mean(np.abs(inner)))


@dataclass
class PhaseConstancyResult:
    betas: tuple[TorusPhase, ...] | None
    achieved: float
    premise: float
    status: str  # "found" | "no_premise"
    candidates: list[dict] = field(default_factory=list)


def phase_constancy_search(f: Line, alphas: Sequence[PhaseTable],
                           m: Sequence[int], N: int,
                           delta: float) -> PhaseConstancyResult:
    """Search for constant phases matching a table-driven phase average.

    The premise average uses the x-dependent tables alpha_j; each table is
    then snapped to the grid {t/T_j} with T_j = ceil(2 k N^(m_j) / delta),
    the snapped tuples are histogrammed over x, and the CONSTANCY_TOP_K most
    frequent are tried as constants.  Returns the best constant tuple with its
    achieved average (the theory promises a dense constant tuple, so a small
    top-k suffices at these scales).  The powers and grids are int64, so a
    power N^(m_j) or a grid T_j of 2^63 or more raises ``ValueError``.
    """
    m = _check_exponents(m)
    k = len(alphas)
    if len(m) != k + 1:
        raise ValueError("m must list the base power followed by one power per table")
    base = ConfigSpec.power(m[:1], N).box.dims[0]
    powers = m[1:]
    # the powers r^(m_j), r <= N, and the snapped numerators t < T_j are
    # int64
    if N ** max(powers, default=0) >= INT64_BOUND:
        raise ValueError(f"N^m_j must be below 2^63 (int64 powers), got "
                         f"N = {N}, m = {m}")
    grids = [int(np.ceil(2 * k * N**p / delta)) for p in powers]
    if max(grids, default=0) >= INT64_BOUND:
        raise ValueError(f"phase grids ceil(2 k N^m_j / delta) must be below "
                         f"2^63 (int64 numerators), got {max(grids)}")
    rs = np.arange(1, N + 1, dtype=np.int64)
    table_frac = [read_window(a.frac, (0,), (base,)) for a in alphas]
    phase = np.zeros((base, N))
    for j in range(k):
        phase += np.outer(table_frac[j], rs ** powers[j]).astype(np.float64)
    W = _shift_matrix(f, base, m[0], N)
    premise = _phased_mean(W, phase)
    if premise == 0.0:
        return PhaseConstancyResult(None, 0.0, 0.0, "no_premise")
    snapped = np.stack(
        [np.mod(np.rint(table_frac[j] * grids[j]).astype(np.int64), grids[j])
         for j in range(k)], axis=1)
    tuples, counts = np.unique(snapped, axis=0, return_counts=True)
    order = np.lexsort((*[tuples[:, j] for j in range(k - 1, -1, -1)], -counts))
    best = None
    candidates = []
    for idx in order[:CONSTANCY_TOP_K]:
        nums = tuples[idx]
        betas = tuple(TorusPhase.exact(int(nums[j]), grids[j]) for j in range(k))
        # the constant phase depends on r only: one row for every x
        const = np.zeros(N)
        for j in range(k):
            const += float(betas[j].approx) * (rs ** powers[j])
        achieved = _phased_mean(W, const)
        candidates.append({"tuple": [int(v) for v in nums],
                           "count": int(counts[idx]), "achieved": achieved})
        if best is None or achieved > best[0] + 1e-15:
            best = (achieved, betas)
    return PhaseConstancyResult(best[1], best[0], premise, "found", candidates)


# ---------------------------------------------------------------------------
# Major-arc frequency certificate


@dataclass
class FourierCertificate:
    xi0: TorusPhase
    q: int
    residuals: tuple[float, ...]
    premise: float
    mode: str  # "major_arc" | "best_effort"
    major_arc_points: int
    max_off_threshold: float
    coefficient: float
    check: Callable[[int], float] = field(repr=False)


def poly_phases(P: dict[int, TorusPhase], rs: np.ndarray) -> np.ndarray:
    out = np.zeros(len(rs))
    for deg, coef in P.items():
        out += coef.approx * rs.astype(np.float64) ** deg
    return out


def fourier_certificate(f: Line, P: dict[int, TorusPhase], n: int, N: int,
                        delta: float, Qmax: int) -> FourierCertificate:
    """Locate a low-denominator frequency explaining a phased shift average.

    The premise is E over x in [N^n] of |E over r in [N] of f(x+r^n) e(P(r))|
    (P must have no degree-n term).  On the grid of 8 N^n torus points the
    procedure marks the frequencies xi where |E_r e(P(r) + xi r^n)| >= delta/4,
    picks the marked xi0 maximizing |sum_x f(x) e(xi0 x)|, and reduces it to a
    denominator q <= Qmax.  When the premise fails or no grid point is marked
    the global spectral argmax is returned instead (mode "best_effort").

    The returned ``check`` closure maps L to the energy of f projected on the
    (q, qL) progression partition, for comparison against the caller's budget.
    """
    if any(deg == n for deg in P):
        raise ValueError(f"P must not contain a term of degree n={n}")
    if any(deg > MAX_POLY_DEGREE or deg < 0 for deg in P):
        raise ValueError(f"polynomial degrees capped at {MAX_POLY_DEGREE}")
    base = N**n
    rs = np.arange(1, N + 1, dtype=np.int64)
    p_phase = poly_phases(P, rs)
    premise = phased_average(f, np.broadcast_to(p_phase, (base, N)), base, n)
    G = 8 * base
    grid = np.arange(G) / G
    rn = (rs**n).astype(np.float64)
    weyl_grid = np.abs(np.exp(2j * np.pi * (np.outer(grid, rn) + p_phase[None, :]))
                       .mean(axis=1))
    marked = weyl_grid >= delta / 4
    xs = np.arange(f.start, f.stop)
    fhat = np.abs(np.exp(2j * np.pi * np.outer(grid, xs)) @ f.values)
    max_off = float(weyl_grid[~marked].max()) if (~marked).any() else 0.0
    if premise >= delta and marked.any():
        mode = "major_arc"
        pool = np.where(marked)[0]
    else:
        mode = "best_effort"
        pool = np.arange(G)
    t0 = int(pool[np.argmax(fhat[pool])])
    xi0 = TorusPhase.exact(t0, G)
    pad = [TorusPhase.zero()] * (n - 1) + [xi0]
    approx = rational_approx_search(pad, N, Qmax)

    def check(L: int) -> float:
        return cond_expect(f, APPartition(approx.q, L)).l2sq()

    return FourierCertificate(xi0, approx.q, approx.residuals, premise, mode,
                              int(marked.sum()), max_off,
                              float(fhat[t0]), check)
