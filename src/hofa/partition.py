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
``energy`` and ``gowers``, all group points by its closed-form atom labels
and sum with one grouped reduction; ``Atoms.energy`` is the one projected
energy.  Sums keep the input dtype, so integer-valued input sums exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .core import Line


@dataclass(frozen=True)
class APPartition:
    """Partition of Z into progressions of length L and common difference q."""

    q: int
    L: int

    def __post_init__(self):
        if self.q < 1 or self.L < 1:
            raise ValueError("q and L must be positive")

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

    The atom {qLs + qk + r} through a point x gets the closed-form label
    s q + r - 1 = q floor((x - 1) / qL) + (x - 1) mod q, and one stable sort
    of the labels (lexicographic over the components of a common
    refinement) groups the points.  Building costs O(n log n) time and O(n)
    memory for every (q, L), also when q or qL exceeds n; build once and sum
    many arrays over the same window.
    """

    def __init__(self, P: Partition, start: int, n: int):
        x = np.arange(start - 1, start - 1 + n, dtype=np.int64)
        labels = [x // p.block * p.q + x % p.q for p in P.parts]
        # stable, so each atom's points stay in coordinate order
        self.order = np.lexsort(labels[::-1])
        # every (1, L) partition keeps the points in coordinate order
        self.in_order = bool((self.order[1:] > self.order[:-1]).all())
        new = np.zeros(n, dtype=bool)
        new[:1] = True
        for lab in labels:
            lab = lab[self.order]
            new[1:] |= lab[1:] != lab[:-1]
        self.first = np.flatnonzero(new)
        # atom index of each point; atoms are numbered in label order
        self.atom = np.empty(n, dtype=np.intp)
        self.atom[self.order] = np.cumsum(new) - 1
        # points of each atom inside the window
        self.sizes = np.diff(self.first, append=n)

    def sum(self, values: np.ndarray) -> np.ndarray:
        """Sums along axis 0 over each atom, for an array of any trailing
        shape (a line, or a stack of lines along the trailing axes).

        Row i of ``values`` sits at start + i; row a of the result is the sum
        over the points of atom a in the window, taken in coordinate order
        for every trailing entry.  The dtype is kept, so integer input sums
        exactly.  O(n) time and memory per trailing entry; when the atoms
        are already in coordinate order (``in_order``) the rows are summed
        where they lie, without a sorted copy.
        """
        grouped = values if self.in_order else values[self.order]
        return np.add.reduceat(grouped, self.first, axis=0)

    def energy(self, values: np.ndarray, L: int) -> np.ndarray:
        """The energies ||E(line | P)||_2^2 = sum_a |S_a|^2 / L of the lines
        along axis 0, one per trailing entry, with S_a the atom sums of
        ``sum`` and L the atom length of P (projections fill whole atoms)."""
        return np.sum(np.abs(self.sum(values)) ** 2, axis=0) / L


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

    def to_dict(self) -> dict:
        return {"lhs": self.lhs, "rhs": self.rhs, "bound": self.bound,
                "clause": self.clause, "ok": self.ok}


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


def _line_max_diff(u: Line, v: Line) -> float:
    lo = min(u.start, v.start)
    hi = max(u.stop, v.stop)
    return float(np.abs(u.window(lo, hi - 1) - v.window(lo, hi - 1)).max())


@dataclass
class PythagorasReport:
    diff_energy: float        # ||E(f|B') - E(f|B)||_2^2
    energy_gap: float         # ||E(f|B')||_2^2 - ||E(f|B)||_2^2
    tower_fine_dev: float     # max |E(E(f|B)|B') - E(f|B)|
    tower_coarse_dev: float   # max |E(E(f|B')|B) - E(f|B)|

    def to_dict(self) -> dict:
        return {"diff_energy": self.diff_energy, "energy_gap": self.energy_gap,
                "tower_fine_dev": self.tower_fine_dev,
                "tower_coarse_dev": self.tower_coarse_dev}


def refinement_pythagoras(f: Line, B: APPartition, Bp: Partition) -> PythagorasReport:
    """Pythagoras and tower identities for a nested pair B inside B'.

    Rejects pairs where B' does not structurally refine B.
    """
    if not refines(B, Bp):
        raise ValueError(f"{Bp} does not refine {B}")
    pf = cond_expect(f, B)
    pfp = cond_expect(f, Bp)
    lo = min(pf.start, pfp.start)
    hi = max(pf.stop, pfp.stop)
    diff = pfp.window(lo, hi - 1) - pf.window(lo, hi - 1)
    diff_energy = float(np.sum(np.abs(diff) ** 2))
    energy_gap = pfp.l2sq() - pf.l2sq()
    tower_fine = _line_max_diff(cond_expect(pf, Bp), pf)
    tower_coarse = _line_max_diff(cond_expect(pfp, B), pf)
    return PythagorasReport(diff_energy, energy_gap, tower_fine, tower_coarse)


@dataclass
class AlmostRefinementReport:
    lhs: float
    rhs: float
    bound: float
    differing_points: int

    @property
    def ok(self) -> bool:
        return abs(self.lhs - self.rhs) <= self.bound + 1e-9

    def to_dict(self) -> dict:
        return {"lhs": self.lhs, "rhs": self.rhs, "bound": self.bound,
                "differing_points": self.differing_points, "ok": self.ok}


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
    lo = min(p12.start, p2.start)
    hi = max(p12.stop, p2.stop)
    delta = np.abs(p12.window(lo, hi - 1) - p2.window(lo, hi - 1))
    differing = int(np.count_nonzero(delta > 1e-12))
    bound = 8.0 * (qt * L2 / L1) * N
    return AlmostRefinementReport(p12.l2sq(), p2.l2sq(), bound, differing)
