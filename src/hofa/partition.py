"""Arithmetic-progression partitions of Z and conditional expectation.

The partition with parameters (q, L) tiles Z by the atoms

    {qLs + qk + r : 0 <= k < L},   s in Z, 0 < r <= q,

so each block (qLs, qL(s+1)] splits into q progressions of length L and
common difference q.  Conditional expectation replaces a function by its
average over the atom through each point; the calculus verified here
(self-adjointness, the Pythagoras identity under refinement, the tower
property, the l^k-norm formula, periodicity and almost-periodicity under
shifts, almost-refinement) drives the energy-increment machinery.

Atom averages divide by the full atom length, so projections extend past the
support of the input onto whole atoms; atoms not meeting the support are
zero.

``Atoms`` is the only route to atom sums in the package: conditional
expectation here, and the axis projections and projected energies of
``energy`` and ``gowers``, all number atoms by its closed-form rule, with
no sort; ``Atoms.energy`` is the one projected energy.  The atoms of one AP
partition are summed where the rows lie, block by block (O(cells) time, no
copy of the input beyond the result); a common refinement adds each row to
its atom with ``np.add.at``.  Sums keep the input dtype and sum boolean
input as int64, so integer-valued input sums exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import Line, as_int


@dataclass(frozen=True)
class APPartition:
    """Partition of Z into progressions of length L and common difference q."""

    q: int
    L: int

    def __post_init__(self):
        q, L = (as_int(v, "q and L must be integers") for v in (self.q, self.L))
        if q < 1 or L < 1:
            raise ValueError("q and L must be positive")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "L", L)

    @property
    def block(self) -> int:
        return self.q * self.L

    @property
    def parts(self) -> tuple["APPartition"]:
        return (self,)

    @classmethod
    def from_block(cls, block: int, q: int) -> "APPartition":
        if block % q:
            raise ValueError(f"block length {block} not a multiple of q={q}")
        return cls(q, block // q)

    def atom_of(self, x: int) -> tuple[int, int]:
        """(block index s, residue r) with x = qLs + qk + r, 0 <= k < L."""
        r = (x - 1) % self.q + 1
        s = (x - r) // self.block
        return s, r

    def atom_points(self, s: int, r: int) -> list[int]:
        base = self.block * s + r
        return [base + self.q * k for k in range(self.L)]


@dataclass(frozen=True)
class RefinedPartition:
    """Common refinement of several AP partitions; atoms are label tuples."""

    parts: tuple[APPartition, ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("need at least one component partition")

    def atom_of(self, x: int) -> tuple[tuple[int, int], ...]:
        return tuple(p.atom_of(x) for p in self.parts)


Partition = Union[APPartition, RefinedPartition]


def refines(coarse: APPartition, fine: Partition) -> bool:
    """Structural check that ``fine`` refines ``coarse`` within the AP family.

    For a pair of AP partitions this holds exactly when q | q' and the fine
    block length divides the coarse one (blocks are aligned at 0, so the
    divisibility makes every fine atom sit inside one coarse atom).  A common
    refinement refines ``coarse`` when one of its components does.
    """
    if isinstance(fine, RefinedPartition):
        return any(p == coarse or refines(coarse, p) for p in fine.parts)
    return fine.q % coarse.q == 0 and coarse.block % fine.block == 0


class Atoms:
    """The points start, ..., start + n - 1 grouped by the atoms of P.

    Let Q be the lcm of the parts' q, and let the cell of x be the window
    points since the last multiple of any part's block length qL (counting
    x - 1 from 0), or since the window start.  Two points share an atom of
    every part exactly when they share a cell and x mod Q, so the atom of x
    is (cell, x mod Q), whose first point is c + (x - c) mod Q for the cell
    start c.  Atoms are numbered in the order of their first points:
    ``atom`` is the atom index of each point and ``sizes`` each atom's
    number of points in the window.  Nothing sorts: building costs O(n)
    arithmetic and one cumsum for every (q, L), also when q or qL exceeds
    n; build once and sum many arrays over the same window.

    The atom sums of one ``APPartition`` are taken where the rows lie, in
    O(cells) time holding only the result: the whole qL blocks are viewed
    as (blocks, L, q, ...) and summed over L, and the head and tail cells
    the same way on their whole q-row groups from the cell start, the last
    k < q rows then added to the first k atoms of the cell.  A common
    refinement (``RefinedPartition``) adds each row to its atom with
    ``np.add.at``.
    """

    def __init__(self, P: Partition, start: int, n: int):
        self.parts = P.parts
        self.start = start
        y0 = start - 1
        y = np.arange(y0, y0 + n, dtype=np.int64)
        c = np.full(n, y0, dtype=np.int64)  # the cell start of each point
        for p in self.parts:
            np.maximum(c, y // p.block * p.block, out=c)
        y -= c  # offsets in the cells, all below n, so an lcm above n
        Q = min(math.lcm(*(p.q for p in self.parts)), max(n, 1))  # acts as n
        # the first points of the atoms are the offsets below Q
        self.atom = (np.cumsum(y < Q) - 1)[c - y0 + y % Q]
        self.sizes = np.bincount(self.atom)

    def sum(self, values: np.ndarray) -> np.ndarray:
        """Sums along axis 0 over each atom, for an array of any trailing
        shape (a line, or a stack of lines along the trailing axes, any
        strides).

        Row i of ``values`` sits at start + i; row a of the result is the sum
        over the points of atom a in the window.  The dtype is kept, and
        boolean input sums as int64, so integer input sums exactly; float
        sums may round differently from a sequential sum.
        """
        dtype = np.int64 if values.dtype == bool else values.dtype
        rest = values.shape[1:]
        # laid out in the input's axis order, so each reduction walks both
        # arrays the same way (a C-ordered result of a transposed input
        # more than doubles the time)
        out = np.zeros_like(values, dtype, shape=(len(self.sizes),) + rest)
        if len(self.parts) > 1:
            np.add.at(out, self.atom, values)
            return out
        q, B = self.parts[0].q, self.parts[0].block
        # rows [0, ba) are the head cell, [ba, bb) whole blocks, [bb, n) the
        # tail cell
        y0, n = self.start - 1, len(values)
        ba = min(-y0 % B, n)
        bb = max((y0 + n) // B * B - y0, ba)
        for lo, hi, blocks in ((0, ba, 1), (ba, bb, (bb - ba) // B),
                               (bb, n, 1)):
            if hi == lo:
                continue
            a, k = self.atom[lo], (hi - lo) % q
            if hi - lo > k:
                # whole q-row groups from the start meet every residue, so
                # they sum into q atoms per block or cell, in order
                np.sum(values[lo:hi - k].reshape((blocks, -1, q) + rest),
                       axis=1, dtype=dtype,
                       out=out[a:a + blocks * q].reshape((blocks, q) + rest))
            dst = out[a:a + k]  # the last k < q rows of a cell
            np.add(dst, values[hi - k:hi], out=dst)
        return out

    def energy(self, values: np.ndarray) -> np.ndarray:
        """The energies ||E(line | P)||_2^2 = sum_a |S_a|^2 / L of the lines
        along axis 0, one per trailing entry, with S_a the atom sums of
        ``sum`` and L the atom length of P (projections fill whole atoms);
        real sums are squared in place.  A common refinement has no single
        atom length and raises ``ValueError``."""
        if len(self.parts) > 1:
            raise ValueError("a common refinement has no single atom length")
        S = self.sum(values)
        S = np.abs(S) ** 2 if np.iscomplexobj(S) else np.multiply(S, S, out=S)
        return np.sum(S, axis=0) / self.parts[0].L


def cond_expect(f: Line, P: Partition) -> Line:
    """Average f over each atom; zero on atoms not meeting supp(f).

    The result lives on a hull wide enough that every atom meeting supp(f)
    lies inside it entirely, so the averages divide by full atom sizes.
    """
    pad = max(p.block for p in P.parts)
    fext = np.zeros(len(f) + 2 * pad, dtype=np.complex128)
    fext[pad:pad + len(f)] = f.values
    atoms = Atoms(P, f.start - pad, len(fext))
    sums = atoms.sum(fext)
    # atoms cut by the hull edges miss supp(f), so only their sizes are short
    # divide componentwise: complex-by-real division rounds differently
    means = sums.real / atoms.sizes + 1j * (sums.imag / atoms.sizes)
    return Line(f.start - pad, means[atoms.atom])


def projection_lk_norm(f: Line, P: APPartition, k: int) -> float:
    """||E(f|P)||_k^k via the closed form

        L * sum over blocks s and x in (qLs, qLs + q] of |avg_l f(x + q l)|^k.

    Agrees with the k-th power norm of cond_expect(f, P).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    # f vanishes off its support, so sums over the support are full atom sums
    sums = Atoms(P, f.start, len(f)).sum(f.values)
    # one representative per atom: |S/L|^k * L summed over atoms
    return float(np.sum((np.abs(sums) / P.L) ** k * P.L))


def self_adjointness_check(f: Line, g: Line, P: Partition) -> tuple[complex, complex]:
    """Return (<E(f|P), g>, <f, E(g|P)>); the two agree for any partition."""
    return cond_expect(f, P).inner(g), f.inner(cond_expect(g, P))


@dataclass
class ShiftDeltaReport:
    lhs: float
    rhs: float
    bound: float | None
    clause: str | None

    @property
    def ok(self) -> bool:
        if self.bound is None:
            return False
        return abs(self.lhs - self.rhs) <= self.bound + 1e-9


def shift_norm_delta(f: Line, P: APPartition, h: int) -> ShiftDeltaReport:
    """Compare ||E(f(.+h)|P)||_2^2 with ||E(f|P)||_2^2.

    The applicable bound on the difference is 0 for h a multiple of qL
    (shifting by whole blocks permutes atoms), 8 (|h|/q) N for |h| < q, and
    8 (|s|/L) N for h = s q with |s| < L, where N is the support interval
    length.  ``clause=None`` flags shifts outside all three cases.
    """
    N = len(f)
    lhs = cond_expect(f.shifted(h), P).l2sq()
    rhs = cond_expect(f, P).l2sq()
    if h % P.block == 0:
        return ShiftDeltaReport(lhs, rhs, 0.0, "periodic")
    if abs(h) < P.q:
        return ShiftDeltaReport(lhs, rhs, 8.0 * abs(h) / P.q * N, "sub-q")
    if h % P.q == 0 and abs(h // P.q) < P.L:
        return ShiftDeltaReport(lhs, rhs, 8.0 * abs(h // P.q) / P.L * N, "multiple-of-q")
    return ShiftDeltaReport(lhs, rhs, None, None)


@dataclass
class PythagorasReport:
    diff_energy: float        # ||E(f|B') - E(f|B)||_2^2
    energy_gap: float         # ||E(f|B')||_2^2 - ||E(f|B)||_2^2
    tower_fine_dev: float     # max |E(E(f|B)|B') - E(f|B)|
    tower_coarse_dev: float   # max |E(E(f|B')|B) - E(f|B)|


def refinement_pythagoras(f: Line, B: APPartition, Bp: Partition) -> PythagorasReport:
    """Pythagoras and tower identities for a nested pair B inside B'.

    Rejects pairs where B' does not structurally refine B.
    """
    if not refines(B, Bp):
        raise ValueError(f"{Bp} does not refine {B}")
    pf = cond_expect(f, B)
    pfp = cond_expect(f, Bp)
    return PythagorasReport((pfp - pf).l2sq(), pfp.l2sq() - pf.l2sq(),
                            (cond_expect(pf, Bp) - pf).max_abs(),
                            (cond_expect(pfp, B) - pf).max_abs())


@dataclass
class AlmostRefinementReport:
    lhs: float
    rhs: float
    bound: float
    differing_points: int

    @property
    def ok(self) -> bool:
        return abs(self.lhs - self.rhs) <= self.bound + 1e-9


def almost_refinement_delta(f: Line, q: int, L1: int, qt: int,
                            L2: int) -> AlmostRefinementReport:
    """Compare the energy under B_1 v B_2 with the energy under B_2 alone.

    B_1 has parameters (q, L1) and B_2 has (q qt, L2).  When qt L2 <= L1 the
    two projections differ only near block boundaries of B_1, so the energies
    agree up to 8 (qt L2 / L1) N, N the support interval length.  The
    number of points where the projections actually differ is measured and
    reported rather than assumed.
    """
    if qt * L2 > L1:
        raise ValueError("almost refinement needs qt * L2 <= L1")
    N = len(f)
    B1 = APPartition(q, L1)
    B2 = APPartition(q * qt, L2)
    both = RefinedPartition((B1, B2))
    p12 = cond_expect(f, both)
    p2 = cond_expect(f, B2)
    differing = int(np.count_nonzero(np.abs((p12 - p2).values) > 1e-12))
    bound = 8.0 * (qt * L2 / L1) * N
    return AlmostRefinementReport(p12.l2sq(), p2.l2sq(), bound, differing)
