"""Difference operators, uniformity norms, and spectral inverse tooling.

The degree-s uniformity norm used here is the unnormalized box norm over Z:

    ||f||^(2^s) = sum over x and h in Z^s of the 2^s-fold multiplicative
    difference of f,

computed by the recursion  S_1(g) = |sum g|^2,  S_s(g) = sum_h S_(s-1)(D_h g),
which regroups the defining sum exactly and keeps every partial result real.
Thresholds quoted by the verifier operations (delta N^(s+2) and the like) are
stated in this unnormalized convention.

Alongside the norms live the degree-2 spectral tools (exact quadrature of
|fhat|^4, frequency search), the Fejer kernel, a van der Corput implication
checker, and the two projection-vs-difference interchange verifiers on 2-D
grids, whose projections take their atom sums from ``partition.Atoms``.
The verifiers average over every h in [-N2, N2]^s: ``_axis2_diffs`` builds
the s-fold axis-2 differences for all h as stacks of ``core.read_translates``
views, in blocks over h_1 of at most ``DIFF_BLOCK_CELLS`` cells, and each
block is projected and averaged in one batched pass.  Every reduction runs
in the order of the one-h-at-a-time computation, so the reports are the
same to the bit.

``u2_inverse`` refines the ``U2_CANDIDATES`` largest lobes of its DFT grid by
``GOLDEN_ITERS`` golden-section steps each.  The lobes step in lockstep: each
step evaluates the sums at one probe per lobe as a single (lobes, N) array,
and every lobe's bracket follows the one-lobe search exactly, so the result
is the same to the bit.  ``same_coord_verify`` states its threshold
kappa delta^3 N2^(s+2) with kappa = ``SAME_COORD_KAPPA``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .core import (GridFunction, Line, PhaseTable, TorusPhase, read_translates,
                   read_window)
from .partition import APPartition, Atoms

MAX_GOWERS_ORDER = 4
# cells per block of stacked axis-2 differences in the verifiers (128 KiB of
# complex128): bounds their working memory to a few blocks; larger blocks
# gain little (s = 2 on 6x16: 9.9 ms at 2^13 cells, 9.5 ms at 2^15)
DIFF_BLOCK_CELLS = 1 << 13
U2_CANDIDATES = 8
GOLDEN_ITERS = 60
SAME_COORD_KAPPA = 1.0 / 64


@dataclass(frozen=True)
class DiffSpec:
    """A tuple of difference shifts, optionally tied to a grid axis (1-based)."""

    shifts: tuple[int, ...]
    axis: int | None = None

    def __post_init__(self):
        if len(self.shifts) < 1:
            raise ValueError("need at least one shift")
        if self.axis is not None and self.axis < 1:
            raise ValueError("axis is 1-based")


def _shift_tuple(h) -> tuple[int, ...]:
    if isinstance(h, DiffSpec):
        return h.shifts
    if isinstance(h, int):
        return (h,)
    return tuple(int(v) for v in h)


def mult_diff(f: Line, h) -> Line:
    """Iterated multiplicative difference f(.) conj f(. + h_1) ... on Z.

    The support shrinks to the common overlap; order of the shifts does not
    matter.
    """
    g = f
    for hv in _shift_tuple(h):
        lo = max(g.start, g.start - hv)
        hi = min(g.stop, g.stop - hv)
        if lo >= hi:
            return Line(g.start, np.zeros(0, dtype=np.complex128))
        vals = g.window(lo, hi - 1) * np.conj(g.window(lo + hv, hi - 1 + hv))
        g = Line(lo, vals)
    return g


def add_diff(alpha: PhaseTable, h) -> PhaseTable:
    """Iterated additive difference alpha(.) - alpha(. + h_1) ... on the box.

    ``alpha`` is treated as a total map (zero outside its box).  Iterated
    differences of a box-supported map are not box-supported themselves, so
    the result is computed through the 2^s-term alternating expansion with
    every read taken from the original table; it is then materialized on the
    same box.  Exact numerator tables are propagated.
    """
    if alpha.box.n != 1:
        raise ValueError("add_diff works on 1-D phase maps")
    hs = _shift_tuple(h)
    dims = alpha.box.dims
    table = alpha.numerators if alpha.is_exact else alpha.frac
    acc = np.zeros(dims, dtype=table.dtype)
    for bits in np.ndindex(*(2,) * len(hs)):
        off = sum(hv for hv, b in zip(hs, bits) if b)
        term = read_window(table, (off,), dims)
        acc = acc + (term if sum(bits) % 2 == 0 else -term)
    if alpha.is_exact:
        return PhaseTable.from_rationals(alpha.box, acc, alpha.denominator)
    return PhaseTable.from_floats(alpha.box, acc)


def diff_phase_identity_gap(alpha: PhaseTable, h) -> float:
    """Max pointwise gap in  D_h e(alpha) = e(d_h alpha)  over the box.

    Both sides extend alpha by zero, so e(alpha) is 1 outside the box and the
    identity holds globally; the box window suffices.
    """
    dims = alpha.box.dims
    hs = _shift_tuple(h)
    lhs = np.ones(dims, dtype=np.complex128)
    # expand D_h e(alpha)(x) = prod over omega in {0,1}^s of e(alpha)^(+-)
    for bits in np.ndindex(*(2,) * len(hs)):
        off = sum(hv for hv, b in zip(hs, bits) if b)
        win = read_window(np.exp(2j * np.pi * alpha.frac), (off,), dims)
        outside = read_window(np.ones(dims), (off,), dims) == 0
        win = np.where(outside, 1.0, win)  # e(0) outside the box
        term = win if sum(bits) % 2 == 0 else np.conj(win)
        lhs = lhs * term
    rhs = np.exp(2j * np.pi * add_diff(alpha, hs).frac)
    return float(np.abs(lhs - rhs).max())


def directional_diff(f: GridFunction, h, axis: int) -> GridFunction:
    """Multiplicative difference along one grid axis (1-based)."""
    if not 1 <= axis <= f.box.n:
        raise ValueError(f"axis {axis} out of range for {f.box.n}-D grid")
    a = axis - 1
    vals = f.values
    dims = f.box.dims
    for hv in _shift_tuple(h):
        off = tuple(hv if i == a else 0 for i in range(f.box.n))
        vals = vals * np.conj(read_window(vals, off, dims))
    return GridFunction(f.box, vals)


# ---------------------------------------------------------------------------
# Uniformity norms


def _trim(values: np.ndarray) -> np.ndarray:
    nz = np.nonzero(values)[0]
    if len(nz) == 0:
        return values[:0]
    return values[nz[0]:nz[-1] + 1]


def _diff_arr(g: np.ndarray, h: int) -> np.ndarray:
    # overlap representation of g(.) conj g(. + h); h >= 0 suffices since
    # |c(-h)| = |c(h)| patterns are handled by explicit negative h below
    n = len(g)
    if h >= 0:
        return g[:n - h] * np.conj(g[h:]) if h < n else g[:0]
    return g[-h:] * np.conj(g[:n + h]) if -h < n else g[:0]


def _inner(g: np.ndarray, s: int) -> float:
    if len(g) == 0:
        return 0.0
    if s == 1:
        return float(abs(g.sum()) ** 2)
    if s == 2:
        c = np.correlate(g, g, "full")
        return float(np.sum(np.abs(c) ** 2))
    n = len(g)
    parts = [_inner(_diff_arr(g, h), s - 1) for h in range(-(n - 1), n)]
    return float(np.sum(np.asarray(parts)))


def gowers_inner(f: Line | np.ndarray, s: int) -> float:
    """The 2^s-power sum behind the degree-s uniformity norm."""
    if s < 1:
        raise ValueError("order s must be >= 1")
    if s > MAX_GOWERS_ORDER:
        raise ValueError(f"order s capped at {MAX_GOWERS_ORDER} (cost N^(s+1))")
    values = f.values if isinstance(f, Line) else np.asarray(f, dtype=np.complex128)
    g = _trim(values)
    inner = _inner(g, s)
    guard = 1e-8 * max(1.0, float(len(g)) ** (s + 1))
    if inner < -guard:
        raise ValueError(f"uniformity inner sum is negative ({inner})")
    return max(inner, 0.0)


def gowers_norm(f: Line | np.ndarray, s: int) -> float:
    """Degree-s uniformity norm (2^s-th root of the inner sum)."""
    return gowers_inner(f, s) ** (1.0 / (1 << s))


def u2_via_spectrum(f: Line | np.ndarray) -> float:
    """The degree-2 inner sum as an exact quadrature of |fhat|^4.

    |fhat|^4 is a trigonometric polynomial of degree 2(N-1) for support
    length N, so averaging over 4N-3 equispaced points integrates it exactly
    and recovers the count of additive quadruples.
    """
    values = f.values if isinstance(f, Line) else np.asarray(f, dtype=np.complex128)
    g = _trim(values)
    if len(g) == 0:
        return 0.0
    M = 4 * len(g) - 3
    spec = np.fft.fft(g, n=M)
    return float(np.mean(np.abs(spec) ** 4))


def _linear_sum(values: np.ndarray, xs: np.ndarray,
                alphas: Sequence[float]) -> list[complex]:
    """sum_x values(x) e(alpha xs(x)) for each alpha, as Python complexes.

    One (len(alphas), N) evaluation; each row is summed in the order of a
    one-alpha sum, so every entry equals that sum to the bit.
    """
    phases = np.asarray(alphas, dtype=np.float64)[:, None]
    return np.sum(values * np.exp(2j * np.pi * phases * xs), axis=1).tolist()


def _golden_max(fun: Callable[[list], list[float]], lo: Sequence[float],
                hi: Sequence[float]) -> tuple[list, list[float]]:
    """Golden-section maxima of ``fun`` on the brackets [lo_i, hi_i].

    The brackets step in lockstep: ``fun`` maps one point per bracket to
    their values, and is called GOLDEN_ITERS + 3 times in all.  Each bracket
    takes the steps that a search on it alone would take.
    """
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = list(lo), list(hi)
    c = [bi - invphi * (bi - ai) for ai, bi in zip(a, b)]
    d = [ai + invphi * (bi - ai) for ai, bi in zip(a, b)]
    fc, fd = fun(c), fun(d)
    for _ in range(GOLDEN_ITERS):
        # keep [a, d] where f(c) > f(d), else [c, b]; then probe the new point
        left = [fci > fdi for fci, fdi in zip(fc, fd)]
        for i, keep_left in enumerate(left):
            if keep_left:
                b[i], d[i], fd[i] = d[i], c[i], fc[i]
                c[i] = b[i] - invphi * (b[i] - a[i])
            else:
                a[i], c[i], fc[i] = c[i], d[i], fd[i]
                d[i] = a[i] + invphi * (b[i] - a[i])
        probes = fun([ci if kl else di for ci, di, kl in zip(c, d, left)])
        for i, (keep_left, v) in enumerate(zip(left, probes)):
            if keep_left:
                fc[i] = v
            else:
                fd[i] = v
    x = [(ai + bi) / 2 for ai, bi in zip(a, b)]
    return x, fun(x)


def u2_inverse(f: Line) -> tuple[TorusPhase, float]:
    """Frequency alpha maximizing |sum f(x) e(-alpha x)| and the maximum.

    Scans 8N equispaced torus points (N the support length), then refines the
    U2_CANDIDATES best lobes by golden section, all lobes in lockstep.  The
    returned magnitude satisfies the degree-2 lower bound
    mag^2 * sum |f|^2 >= U2 inner sum - 1e-6 N^3, which is asserted.
    """
    nz = np.nonzero(f.values)[0]
    if len(nz) == 0:
        return TorusPhase.zero(), 0.0
    values = f.values[nz[0]:nz[-1] + 1]
    xs = (np.arange(len(values)) + f.start + int(nz[0])).astype(np.float64)
    N = len(values)
    grid = max(8 * N, 8)
    ks = np.arange(grid) / grid
    # |sum f(x) e(-ax)| on the grid is a zero-padded DFT magnitude; the
    # support offset only rotates the phase, not the magnitude
    mags = np.abs(np.fft.fft(values, n=grid))
    centres = ks[np.sort(np.argsort(mags)[::-1][:U2_CANDIDATES])]
    # the DFT grid ignores the support offset; the refinement evaluates the
    # sums directly.  The (lobes, N) array is the size of the DFT grid.
    # Python abs of each sum: np.abs of the array can differ in the last
    # bit and so change the bracket steps
    fun = lambda pts: [abs(z) for z in _linear_sum(values, xs, [-p for p in pts])]
    alphas, refined = _golden_max(fun, [a0 - 1.0 / grid for a0 in centres],
                                  [a0 + 1.0 / grid for a0 in centres])
    best_alpha, best_mag = 0.0, -1.0
    for alpha, mag in zip(alphas, refined):
        if mag > best_mag:
            best_alpha, best_mag = alpha % 1.0, mag
    u4 = u2_via_spectrum(f)
    slack = 1e-6 * float(N) ** 3
    if best_mag**2 * f.l2sq() < u4 - slack:
        raise RuntimeError(
            f"spectral search fell below the degree-2 guarantee: "
            f"{best_mag**2 * f.l2sq()} < {u4} - {slack}")
    return TorusPhase.from_float(best_alpha), best_mag


# ---------------------------------------------------------------------------
# Fejer kernel and verifier operations


def fejer(H: int, x: int) -> Fraction:
    """Triangular probability weight (H - min(H, |x|)) / H^2 on Z."""
    if H < 1:
        raise ValueError("H must be >= 1")
    return Fraction(H - min(H, abs(x)), H * H)


def fejer_weights(H: int) -> tuple[np.ndarray, np.ndarray]:
    """Offsets -(H-1)..(H-1) and their kernel weights as floats."""
    offs = np.arange(-(H - 1), H)
    w = (H - np.abs(offs)) / float(H * H)
    return offs, w


@dataclass
class VerifierReport:
    """Outcome of one premise-implies-conclusion check."""

    name: str
    premise: float
    conclusion: float
    threshold: float
    status: str  # "pass" | "fail" | "vacuous"
    exponent: float | None = None
    extra: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status != "fail"

    def to_dict(self) -> dict:
        out = {"name": self.name, "premise": self.premise,
               "conclusion": self.conclusion, "threshold": self.threshold,
               "status": self.status, "exponent": self.exponent}
        out.update(self.extra)
        return out


def vdc_verify(family: Sequence[Line], weights: Sequence[float],
               interval: tuple[int, int], delta: float, H: int) -> VerifierReport:
    """Check the van der Corput implication for a weighted family.

    Premise: sum_a sigma(a) |avg over y in I of f_a(y)| >= delta.
    Conclusion: Re sum_(a,h) sigma(a) mu_H(h) avg_y f_a(y) conj f_a(y+h)
    is at least delta^2 / 4, provided 1 <= H <= (delta^2/4) M and
    M >= 10 delta^(-2).
    """
    lo, hi = interval
    M = hi - lo + 1
    if M < 10 / delta**2:
        raise ValueError(f"interval length {M} below 10 delta^-2")
    if not 1 <= H <= delta**2 / 4 * M:
        raise ValueError(f"H={H} outside [1, delta^2 M / 4]")
    sigma = np.asarray(weights, dtype=np.float64)
    if abs(sigma.sum() - 1.0) > 1e-9 or (sigma < 0).any():
        raise ValueError("weights must be a probability vector")
    premise = 0.0
    for w, fa in zip(sigma, family):
        premise += w * abs(np.mean(fa.window(lo, hi)))
    offs, mu = fejer_weights(H)
    conclusion = 0.0
    for w, fa in zip(sigma, family):
        base = fa.window(lo, hi)
        acc = 0j
        for off, wt in zip(offs, mu):
            acc += wt * np.mean(base * np.conj(fa.window(lo + off, hi + off)))
        conclusion += w * acc.real
    threshold = delta**2 / 4
    if premise < delta:
        status = "vacuous"
    else:
        status = "pass" if conclusion >= threshold - 1e-12 else "fail"
    return VerifierReport("van_der_corput", float(premise), float(conclusion),
                          threshold, status)


def _axis2_diffs(values: np.ndarray, s: int, bound: int):
    """The s-fold multiplicative differences along the last axis,
    g -> g(.) conj g(. + h_k) for k = 1, ..., s in turn (zero outside the
    array), for every h in [-bound, bound]^s, in blocks over h_1.

    Each block has shape (b,) + (2 bound + 1,) * (s - 1) + values.shape, and
    its entries run over the h in lexicographic order; the blocks come in
    order of h_1 and hold at most about DIFF_BLOCK_CELLS cells, so the stack
    is never built whole.  Leading axes of ``values`` are batch axes.
    """
    width = 2 * bound + 1
    per_h1 = width ** (s - 1) * values.size
    blk = max(1, DIFF_BLOCK_CELLS // per_h1)
    for h1 in range(-bound, bound + 1, blk):
        out = _axis2_diff_step(values, 0, h1, min(blk, bound + 1 - h1))
        for k in range(1, s):
            out = _axis2_diff_step(out, k, -bound, width)
        yield out


def _axis2_diff_step(g: np.ndarray, k: int, h0: int, count: int) -> np.ndarray:
    # g has k difference axes in front; a new one for h in [h0, h0 + count)
    # goes after them: out[..., i, ...] = g * conj(g translated by h0 + i)
    lead = (0,) * (g.ndim - 1)
    trans = read_translates(g, lead + (h0,), (1,) * (g.ndim - 1) + (count,),
                            g.shape).reshape((count,) + g.shape)
    return np.expand_dims(g, k) * np.conj(np.moveaxis(trans, 0, k))


def interchange_verify_2d(family: Sequence[GridFunction], q: int, L: int,
                          s: int, delta: float) -> VerifierReport:
    """Projection along axis 1 versus differences along axis 2.

    Premise: avg over y and h in [+-N2]^s of the energy of the x-slice of the
    s-fold axis-2 difference of the family average, projected onto the (q, L)
    partition, is at least delta N1.  Conclusion: the same average of
    |avg over x and family members of the differenced members| is positive,
    with its empirical delta-exponent logged.
    """
    dims = family[0].box.dims
    if any(f.box.dims != dims for f in family):
        raise ValueError("family members must share one box")
    N1, N2 = dims
    if min(N1, N2) < 2:
        raise ValueError("box sides must be >= 2")
    if L < delta * N1:
        raise ValueError("need L >= delta N1")
    F = np.mean([f.values for f in family], axis=0)
    atoms = Atoms(APPartition(q, L), 1, N1)
    # slot 0 is the family average, slots 1.. the members
    stack = np.stack([F] + [f.values for f in family])
    prem_vals = []
    conc_vals = []
    for block in _axis2_diffs(stack, s, N2):
        dF = block.reshape((-1,) + stack.shape)
        # x-slices C-contiguous with the atoms axis first, so every
        # reduction runs in the order of the single-grid computation
        slices = np.ascontiguousarray(np.moveaxis(dF[:, 0], 1, 0))
        prem_vals.append(np.mean(atoms.energy(slices, L), axis=-1))
        dfs = np.mean(dF[:, 1:], axis=1)
        conc_vals.append(np.mean(np.abs(np.mean(dfs, axis=1)), axis=-1))
    premise = float(np.mean(np.concatenate(prem_vals)))
    conclusion = float(np.mean(np.concatenate(conc_vals)))
    if premise < delta * N1:
        status = "vacuous"
        exponent = None
    else:
        status = "pass" if conclusion > 0 else "fail"
        exponent = (float(np.log(conclusion) / np.log(delta))
                    if conclusion > 0 else None)
    return VerifierReport("interchange_2d", premise, conclusion,
                          delta * N1, status, exponent,
                          {"q": q, "L": L, "s": s})


def same_coord_verify(f: GridFunction, q: int, L: int, s: int,
                      delta: float) -> VerifierReport:
    """Projection and differences acting on the same coordinate (axis 2).

    Premise: avg over x and h in [+-N2]^s of the projected energy of the
    y-slice differences is at least delta N2.  Conclusion: the averaged
    degree-(s+1) uniformity inner sum of the y-slices is at least
    kappa delta^3 N2^(s+2) with kappa = SAME_COORD_KAPPA; the measured ratio
    is logged.
    """
    N1, N2 = f.box.dims
    if N2 < delta**-3 - 1e-9:
        raise ValueError("need N2 >= delta^-3")
    if L < delta * N2 - 1e-9:
        raise ValueError("need L >= delta N2")
    atoms = Atoms(APPartition(q, L), 1, N2)
    prem_vals = []
    for block in _axis2_diffs(f.values, s, N2):
        # slices at fixed x are rows; project along y, atoms axis first
        slices = np.ascontiguousarray(
            np.moveaxis(block.reshape(-1, N1, N2), 2, 0))
        prem_vals.append(np.mean(atoms.energy(slices, L), axis=-1))
    premise = float(np.mean(np.concatenate(prem_vals)))
    conclusion = float(np.mean([gowers_inner(f.values[x], s + 1)
                                for x in range(N1)]))
    threshold = SAME_COORD_KAPPA * delta**3 * float(N2) ** (s + 2)
    if premise < delta * N2:
        status = "vacuous"
        ratio = None
    else:
        status = "pass" if conclusion >= threshold else "fail"
        ratio = conclusion / threshold if threshold > 0 else None
    return VerifierReport("same_coordinate", premise, conclusion, threshold,
                          status, None, {"q": q, "L": L, "s": s, "ratio": ratio})
