"""Shared domain types: boxes, grid functions, set indicators, torus phases.

Conventions used throughout the package:

* A box of dimension n is the product [1, N_1] x ... x [1, N_n] of integer
  intervals.  Grid values are stored in dense C-order arrays whose first axis
  is coordinate 1 (axis 1 slowest in the flattened order).
* Every function on a box is implicitly extended by zero to all of Z^n.
* All averaging denominators are exact integers; floating point enters only
  through the stored values themselves.  Reductions over arrays rely on
  numpy's pairwise summation for deterministic low-error results.
* A ``GridFunction`` keeps real weights real: its values are float64 when
  they are real (a real dtype, or a complex one whose imaginary parts are
  all zero) and complex128 otherwise, so a real grid takes 8 bytes per cell
  and its products stay real.  Readers of grids accept either dtype.
* ``read_window`` is the one zero-padded window read (translated, optionally
  strided), and ``read_translates`` stacks such windows for every translate
  in a box as one read-only strided view, for operators that sum over many
  translates of one small array at once.  Pattern sums that only need the
  base points whose reads all stay in range use the cropped views of
  ``kernels.pattern_views`` instead.
* A ``SetIndicator`` is stored as packed ``uint64`` words
  (``kernels.PackedMask``), as a boolean mask, or as a reader of a binary
  set file's payload; ``packed_rows`` and ``mask_rows`` give a band of rows
  along axis 1 (a view, or a read of that band alone), and the whole words
  or mask are built on first use and cached; its boolean mask is unpacked
  only when a caller needs cells; as ``values`` it is the set's 0/1 weight.
* ``TorusPhase(x)`` is the one way to build a phase: it reduces an int, a
  Fraction or a float (read as its exact binary value) mod 1 exactly, and
  ``TorusPhase.exact(t, T)`` spells t/T.  ``polynomial_phases`` is the one
  phase P(r) mod 1 of a polynomial with ``TorusPhase`` coefficients, exact
  at any degree, and ``PhaseTable.times_int`` the one phase alpha(x) k of
  a table (integer numerators over one T <= 2^63, an integer k), summed over
  a phased operator's tables by ``table_phases``.
* Each type refuses at construction what breaks its invariants: ``BoxSpec``
  the cell cap ``MAX_GRID_CELLS``; ``ConfigSpec`` one exponent per axis in
  [1, ``MAX_EXPONENT``], q >= 1 and M in [1, 2^27].  ``ConfigSpec.power`` is
  the one power box, and ``theory_issues`` reports only the theory's
  conditions.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from . import kernels

MAX_GRID_CELLS = 1 << 27
MAX_GRID_DIM = 3
# with q r >= 2 a shift (q r)^(m_j), m_j >= 28, passes every extent (at most
# 2^28, a doubled axis of a capped box), so a larger exponent changes no count
MAX_EXPONENT = 64


class DecompositionError(RuntimeError):
    """Raised when the pipeline cannot proceed and fallback is disabled.

    Defined here and re-exported by ``energy``, so that the command line maps
    it to exit 3 without importing the decomposition layer."""


def _integer_root(N: int, m: int) -> int:
    """The largest r >= 0 with r^m <= N, for N >= 0 (exact integer
    comparison)."""
    _check_exponents((m,))
    if N < 0:
        raise ValueError(f"no integer root of N = {N} < 0")
    r = int(round(N ** (1.0 / m)))
    while r**m > N:
        r -= 1
    while (r + 1) ** m <= N:
        r += 1
    return r


def _as_dims(dims: Sequence[int]) -> tuple[int, ...]:
    out = tuple(int(d) for d in dims)
    if not out:
        raise ValueError("box needs at least one axis")
    if any(d < 1 for d in out):
        raise ValueError(f"box dims must be positive, got {out}")
    cells = math.prod(out)
    if cells > MAX_GRID_CELLS:
        raise ValueError(f"box {'x'.join(map(str, out))} has {cells} cells, "
                         "more than the dense-storage cap of 2^27")
    return out


def _check_exponents(m: Sequence[int],
                     increasing: bool = False) -> tuple[int, ...]:
    """``m`` as a tuple of ints, each in [1, MAX_EXPONENT]; checked before
    anything is raised to an exponent.  With ``increasing``, exponents that
    are not strictly increasing are refused too (the theory's condition,
    which the phased operator and the decomposition need)."""
    m = tuple(int(v) for v in m)
    if not all(1 <= v <= MAX_EXPONENT for v in m):
        raise ValueError(f"exponents must be >= 1 and at most {MAX_EXPONENT}, "
                         f"got {m}")
    if increasing and any(a >= b for a, b in zip(m, m[1:])):
        raise ValueError(f"m must be strictly increasing, got {m}")
    return m


def _multiplier(k: int) -> int:
    """k as an int (numpy integers pass); anything else raises ValueError."""
    try:
        return operator.index(k)
    except TypeError:
        raise ValueError(f"phases take integer multipliers, got {k!r}") from None


def _check_range(M: int) -> int:
    M = int(M)
    if not 1 <= M <= MAX_GRID_CELLS:
        raise ValueError(f"difference range M = {M} must lie in [1, 2^27]")
    return M


@dataclass(frozen=True)
class BoxSpec:
    """The product box [1, N_1] x ... x [1, N_n], with every N_j >= 1 and at
    most ``MAX_GRID_CELLS`` cells."""

    dims: tuple[int, ...]

    def __init__(self, dims: Sequence[int]):
        object.__setattr__(self, "dims", _as_dims(dims))

    @property
    def n(self) -> int:
        return len(self.dims)

    @property
    def cells(self) -> int:
        return math.prod(self.dims)

    def chain_issues(self, m: Sequence[int]) -> list[str]:
        """Check N_n^(1/m_n) <= ... <= N_1^(1/m_1) exactly in integers.

        a^(1/p) <= b^(1/q) iff a^q <= b^p for a, b, p, q >= 1, so the chain
        is decided without floating-point roots.
        """
        m = tuple(int(v) for v in m)
        if len(m) != self.n:
            return [f"m has length {len(m)}, box has {self.n} axes"]
        issues = []
        for i in range(self.n - 1):
            a, p = self.dims[i], m[i]
            b, q = self.dims[i + 1], m[i + 1]
            if b**p > a**q:
                issues.append(
                    f"N_{i + 2}^(1/m_{i + 2}) > N_{i + 1}^(1/m_{i + 1}): "
                    f"{b}^(1/{q}) vs {a}^(1/{p})")
        return issues

    def __str__(self) -> str:
        return "x".join(str(d) for d in self.dims)


@dataclass
class GridFunction:
    """Real- or complex-valued function with finite support on a box.

    ``values[i1-1, ..., in-1]`` is the value at (i1, ..., in); everything
    outside the box is zero.  Real values are stored as float64 and complex
    ones as complex128; values count as real when their dtype is real, or
    when it is complex and every imaginary part is zero.
    """

    box: BoxSpec
    values: np.ndarray

    def __post_init__(self):
        if self.box.n > MAX_GRID_DIM:
            raise ValueError(f"dense grids support n <= {MAX_GRID_DIM}")
        vals = np.asarray(self.values)
        if np.iscomplexobj(vals) and not vals.imag.any():
            vals = vals.real
        self.values = np.ascontiguousarray(
            vals, dtype=np.complex128 if np.iscomplexobj(vals) else np.float64)
        if self.values.shape != self.box.dims:
            raise ValueError(
                f"values shape {self.values.shape} != box {self.box.dims}")

    @classmethod
    def zeros(cls, box: BoxSpec) -> "GridFunction":
        return cls(box, np.zeros(box.dims))

    @classmethod
    def ones(cls, box: BoxSpec) -> "GridFunction":
        return cls(box, np.ones(box.dims))

    def max_abs(self) -> float:
        v = self.values
        if v.size == 0:
            return 0.0
        if np.iscomplexobj(v):
            return float(np.abs(v).max())
        return float(max(-v.min(), v.max()))  # no cell-sized |v|

    def slice_line(self, axis: int, hat_index: tuple[int, ...]) -> "Line":
        """The 1-D slice along ``axis`` (0-based) at the other coordinates.

        ``hat_index`` gives the remaining coordinates in order, 1-based.
        """
        idx = list(hat_index)
        sl: list[object] = []
        k = 0
        for a in range(self.box.n):
            if a == axis:
                sl.append(slice(None))
            else:
                sl.append(idx[k] - 1)
                k += 1
        return Line(1, self.values[tuple(sl)].copy())


def read_window(values: np.ndarray, offsets: Sequence[int],
                out_dims: Sequence[int],
                strides: Sequence[int] | None = None) -> np.ndarray:
    """Strided window of a dense array under translation, zero-padded.

    out[k] = values[offsets + strides * k] when that index is inside the
    array and 0 otherwise, for 0 <= k < out_dims; strides default to 1.
    A view of ``values`` is returned whenever the window lies inside it.
    """
    out_dims = tuple(int(d) for d in out_dims)
    offsets = tuple(int(o) for o in offsets)
    strides = (1,) * values.ndim if strides is None else tuple(int(s) for s in strides)
    if not len(offsets) == len(out_dims) == len(strides) == values.ndim:
        raise ValueError("offsets/out_dims/strides rank mismatch")
    if any(s < 1 for s in strides):
        raise ValueError("window strides must be positive")
    src_sl = []
    dst_sl = []
    for size, off, out_size, s in zip(values.shape, offsets, out_dims, strides):
        # in range iff 0 <= off + s k < size, i.e. -off/s <= k < (size - off)/s
        lo = max(0, -(off // s))
        hi = min(out_size, -((off - size) // s))
        if lo >= hi:
            return np.zeros(out_dims, dtype=values.dtype)
        src_sl.append(slice(off + s * lo, off + s * (hi - 1) + 1, s))
        dst_sl.append(slice(lo, hi))
    src = values[tuple(src_sl)]
    if src.shape == out_dims:
        return src
    out = np.zeros(out_dims, dtype=values.dtype)
    out[tuple(dst_sl)] = src
    return out


def read_translates(values: np.ndarray, first: Sequence[int],
                    counts: Sequence[int], out_dims: Sequence[int],
                    strides: Sequence[int] | None = None) -> np.ndarray:
    """Stacked strided windows of a dense array under every translate in a
    box, zero-padded.

    The result has shape counts + out_dims, and entry [t][k] is
    values[first + t + strides * k] when that index is inside the array and
    0 otherwise, for 0 <= t < counts and 0 <= k < out_dims; strides default
    to 1.  So entry [t] is ``read_window(values, first + t, out_dims,
    strides)``.  All windows are one read-only strided view: of ``values``
    when every read lies inside it, else of one zero-padded copy of the part
    of ``values`` they cover.
    """
    first = tuple(int(o) for o in first)
    counts = tuple(int(c) for c in counts)
    out_dims = tuple(int(d) for d in out_dims)
    strides = (1,) * values.ndim if strides is None else tuple(int(s) for s in strides)
    if not len(first) == len(counts) == len(out_dims) == len(strides) == values.ndim:
        raise ValueError("first/counts/out_dims/strides rank mismatch")
    if any(s < 1 for s in strides):
        raise ValueError("window strides must be positive")
    if any(c < 1 for c in counts) or any(d < 1 for d in out_dims):
        raise ValueError("translate counts and window dims must be positive")
    # one read covers indices first .. first + (counts - 1) + s (out - 1)
    span = tuple(c + s * (d - 1) for c, s, d in zip(counts, strides, out_dims))
    padded = read_window(values, first, span)
    step = padded.strides
    return np.lib.stride_tricks.as_strided(
        padded, counts + out_dims,
        step + tuple(b * s for b, s in zip(step, strides)), writeable=False)


class SetIndicator:
    """Subset of a box (axis 1 slowest), in one of three storage forms.

    * packed: a ``kernels.PackedMask``, the cells packed 64 to a ``uint64``
      word along the last axis; the integer counting path reads only the
      words;
    * mask: a boolean mask, kept as given (no copy; do not modify it
      afterwards);
    * rows: a reader ``read(start, stop) -> PackedMask`` of the rows
      [start, stop) along axis 1, the whole set for a 1-D one;
      ``setfile.read_set`` backs a binary set file's payload by one, so
      the set is read a band of rows at a time where the caller asks for
      bands (``packed_rows``, ``mask_rows``, ``count``).

    Either of the first two is built from the other on first use and
    cached, and a reader is read whole on first use of either: ``packed``
    packs the mask (or reads the words), and ``mask`` unpacks the words
    (read-only) for the callers that need cells (``to_grid``, ``members``,
    ``write_set``) and, as ``values``, for the averaged operators and the
    decomposition, which take a set as its own 0/1 weight.
    """

    def __init__(self, box: BoxSpec,
                 mask: np.ndarray | kernels.PackedMask
                 | Callable[[int, int], kernels.PackedMask]):
        self.box = box
        self._mask: np.ndarray | None = None
        self._packed: kernels.PackedMask | None = None
        self._read = None
        if callable(mask):
            self._read = mask
            return
        if isinstance(mask, kernels.PackedMask):
            shape, self._packed = mask.shape, mask
        else:
            self._mask = np.ascontiguousarray(mask, dtype=bool)
            shape = self._mask.shape
        if shape != box.dims:
            raise ValueError(f"mask shape {shape} != box {box.dims}")

    @classmethod
    def empty(cls, box: BoxSpec) -> "SetIndicator":
        return cls(box, np.zeros(box.dims, dtype=bool))

    @classmethod
    def full(cls, box: BoxSpec) -> "SetIndicator":
        return cls(box, np.ones(box.dims, dtype=bool))

    @property
    def mask(self) -> np.ndarray:
        """The boolean mask, unpacked from the words on first use."""
        if self._mask is None:
            mask = kernels.unpack_mask(self.packed)
            mask.flags.writeable = False
            self._mask = mask
        return self._mask

    values = mask

    @property
    def packed(self) -> kernels.PackedMask:
        """The packed words, packed from the mask or read whole on first
        use."""
        if self._packed is None:
            self._packed = (self._read(0, self.box.dims[0])
                            if self._mask is None
                            else kernels.pack_mask(self._mask))
        return self._packed

    def packed_rows(self, start: int, stop: int) -> kernels.PackedMask:
        """The words of the rows [start, stop) along axis 1: a view of the
        cached words, else read from the reader (not cached).  A 1-D set is
        read whole only."""
        whole = (start, stop) == (0, self.box.dims[0])
        if self.box.n == 1 and not whole:
            raise ValueError("a 1-D set is read whole")
        if self._packed is None and self._mask is None:
            return self._read(start, stop)
        if whole:
            return self.packed
        return kernels.PackedMask((stop - start,) + self.box.dims[1:],
                                  self.packed.words[start:stop])

    def mask_rows(self, start: int, stop: int) -> np.ndarray:
        """The boolean mask of the rows [start, stop) along axis 1: a view
        of the cached mask, else the unpacked ``packed_rows``."""
        if self._mask is not None:
            return self._mask[start:stop]
        return kernels.unpack_mask(self.packed_rows(start, stop))

    @functools.cached_property
    def count(self) -> int:
        """The number of members, counted once (a set is not modified after
        construction)."""
        if self._mask is not None and self._packed is None:
            return int(np.count_nonzero(self._mask))
        # the spare word of every row is zero; a reader is read a band at a
        # time
        rows = self.box.dims[0]
        step = rows if self._packed is not None else kernels.band_rows(
            self.box.dims)
        return sum(int(np.bitwise_count(self.packed_rows(
                       r0, min(r0 + step, rows)).words).sum(dtype=np.int64))
                   for r0 in range(0, rows, step))

    @property
    def density(self) -> float:
        return self.count / self.box.cells

    def members(self) -> np.ndarray:
        """Member coordinates as an (count, n) int array, 1-based, row-major order."""
        return np.argwhere(self.mask) + 1

    def to_grid(self) -> GridFunction:
        """The set's 0/1 weight as a float64 grid."""
        return GridFunction(self.box, self.mask.astype(np.float64))


@dataclass(frozen=True)
class ConfigSpec:
    """Parameters of a counting configuration: exponents, box, modulus, range.

    The counted pattern is x, x + (q r)^(m_1) e_1, ..., x + (q r)^(m_n) e_n
    with x in the box and r in [1, M].  A spec that no operator can run is
    refused (see the module notes).
    """

    m: tuple[int, ...]
    box: BoxSpec
    q: int = 1
    M: int = 1

    def __init__(self, m: Sequence[int], box: BoxSpec, q: int = 1, M: int = 1):
        m, q = _check_exponents(m), int(q)
        if len(m) != box.n:
            raise ValueError(f"m has {len(m)} entries, box has {box.n} axes")
        if q < 1:
            raise ValueError(f"modulus q must be >= 1, got {q}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "box", box)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "M", _check_range(M))

    @classmethod
    def power(cls, m: Sequence[int], N: int) -> "ConfigSpec":
        """The power-box spec: box [N^(m_1)] x ... x [N^(m_n)], q = 1, M = N,
        so box.cells * M is N^(m_1 + ... + m_n + 1); checked before powering."""
        m, N = _check_exponents(m), _check_range(N)
        return cls(m, BoxSpec([N ** mi for mi in m]), 1, N)

    @property
    def n(self) -> int:
        return len(self.m)

    def theory_issues(self) -> list[str]:
        """The conditions of the theory that this runnable spec misses, one
        ``"name: detail"`` message each: strictly increasing exponents, the
        box chain and the range condition (qM)^(m_n) <= N_n, all in exact
        integers."""
        m, dims = self.m, self.box.dims
        issues = []
        if any(a >= b for a, b in zip(m, m[1:])):
            issues.append(f"m strictly increasing: m={m}")
        chain = self.box.chain_issues(m)
        if chain:
            issues.append("box chain: " + "; ".join(chain))
        qm = self.q * self.M
        if qm ** m[-1] > dims[-1]:
            issues.append(f"range condition: (qM)^m_n = {qm}^{m[-1]} "
                          f"vs N_n = {dims[-1]}")
        return issues


# ---------------------------------------------------------------------------
# 1-D functions with arbitrary (finite) support


@dataclass
class Line:
    """Finitely supported function on Z: values[k] sits at start + k."""

    start: int
    values: np.ndarray

    def __post_init__(self):
        self.start = int(self.start)
        self.values = np.ascontiguousarray(self.values, dtype=np.complex128)
        if self.values.ndim != 1:
            raise ValueError("Line values must be 1-D")

    @property
    def stop(self) -> int:
        """One past the last stored coordinate."""
        return self.start + len(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def at(self, x: int) -> complex:
        k = x - self.start
        if 0 <= k < len(self.values):
            return complex(self.values[k])
        return 0j

    def window(self, lo: int, hi: int) -> np.ndarray:
        """Values on [lo, hi] inclusive, zero-padded."""
        return read_window(self.values, (lo - self.start,), (hi - lo + 1,))

    def shifted(self, h: int) -> "Line":
        """The function x -> f(x + h)."""
        return Line(self.start - h, self.values.copy())

    def l2sq(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2))

    def lk_pow(self, k: int) -> float:
        return float(np.sum(np.abs(self.values) ** k))

    def total(self) -> complex:
        return complex(np.sum(self.values))

    def max_abs(self) -> float:
        return float(np.abs(self.values).max()) if len(self.values) else 0.0

    def inner(self, other: "Line") -> complex:
        """l2 inner product sum f(x) conj(g(x)) over Z."""
        lo = max(self.start, other.start)
        hi = min(self.stop, other.stop)
        if lo >= hi:
            return 0j
        a = self.values[lo - self.start:hi - self.start]
        b = other.values[lo - other.start:hi - other.start]
        return complex(np.sum(a * np.conj(b)))


# ---------------------------------------------------------------------------
# Torus elements and phase tables


@dataclass(frozen=True)
class TorusPhase:
    """A point of R/Z, always exact: ``frac`` is a Fraction in [0, 1).

    ``TorusPhase(x)`` takes an int, a Fraction or a float and reduces it mod
    1; a float is read as its exact binary value (a dyadic rational), so
    sums and integer multiples of phases are exact mod 1 whatever their
    source.  ``approx`` is ``frac`` rounded once to a float.
    """

    frac: Fraction

    def __post_init__(self):
        object.__setattr__(self, "frac", Fraction(self.frac) % 1)

    @classmethod
    def exact(cls, num: int, den: int = 1) -> "TorusPhase":
        """The phase num/den mod 1."""
        return cls(Fraction(num, den))

    @property
    def approx(self) -> float:
        return float(self.frac)

    def norm_dist(self) -> Fraction:
        """Distance to the nearest integer, exact."""
        return min(self.frac, 1 - self.frac)

    def times_int(self, k: int) -> "TorusPhase":
        return TorusPhase(self.frac * _multiplier(k))

    def __add__(self, other: "TorusPhase") -> "TorusPhase":
        return TorusPhase(self.frac + other.frac)

    def e(self) -> complex:
        """exp(2 pi i a)."""
        return cmath.exp(2j * cmath.pi * self.approx)


def polynomial_phases(P: dict[int, TorusPhase], N: int) -> np.ndarray:
    """The phases P(r) mod 1 of r = 1, ..., N (entry r - 1) as float64, for
    the polynomial P(r) = sum over d of P[d] r^d.

    The phase of r is num_r / L with L = lcm(T_d) of the denominators T_d
    and the integer num_r = sum_d t_d (L / T_d) (r^d mod T_d) mod L, and
    int / int rounds correctly, as float(Fraction) does: P(r) mod 1 rounded
    once, at any degree.  A coefficient read from a float is a dyadic
    rational, so its T_d is a power of two.
    """
    L = math.lcm(*(a.frac.denominator for a in P.values()))
    terms = [(d, a.frac.numerator * (L // a.frac.denominator),
              a.frac.denominator) for d, a in P.items()]
    return np.array([sum(c * pow(r, d, T) for d, c, T in terms) % L / L
                     for r in range(1, N + 1)], dtype=np.float64)


# the largest denominator T of a phase table, whose numerators are int64
MAX_PHASE_DENOMINATOR = 1 << 63
# the largest T whose products numerator (k mod T), both below T, stay
# inside int64: (T - 1)^2 < 2^63
MAX_TABLE_DENOMINATOR = 1 + math.isqrt((1 << 63) - 1)


@dataclass
class PhaseTable:
    """A map from a box into R/Z, read as zero outside the box: the value at
    a cell is numerators[cell] / denominator, exact.

    The constructor checks the one denominator T (an integer in [1, 2^63]),
    then the integer numerators (one per cell), and stores them as int64
    reduced mod T.  ``frac`` is the values rounded to float64.
    """

    box: BoxSpec
    numerators: np.ndarray
    denominator: int = 1

    def __post_init__(self):
        T = self.denominator
        if not isinstance(T, (int, np.integer)) or not 1 <= T <= MAX_PHASE_DENOMINATOR:
            raise ValueError(f"phase tables need an integer denominator T in "
                             f"[1, 2^63] (int64 numerators), got T = {T}")
        T = self.denominator = int(T)
        nums = np.asarray(self.numerators)
        if nums.shape != self.box.dims:
            raise ValueError("phase table shape mismatch")
        if nums.dtype.kind not in "iu":
            raise ValueError(f"phase table numerators must be integers of at "
                             f"most 64 bits, got dtype {nums.dtype}")
        nums = nums.astype(nums.dtype.kind + "8", copy=False)
        # x mod 2^63 is x & (2^63 - 1) in two's complement; 2^63 is no int64
        nums = nums & (T - 1) if T == MAX_PHASE_DENOMINATOR else np.mod(nums, T)
        self.numerators = np.ascontiguousarray(nums, dtype=np.int64)

    @classmethod
    def zeros(cls, box: BoxSpec) -> "PhaseTable":
        return cls(box, np.zeros(box.dims, dtype=np.int64))

    @classmethod
    def constant(cls, box: BoxSpec, phase: TorusPhase) -> "PhaseTable":
        # T is checked first; the numerator, below T, is then an int64
        return cls(box, np.broadcast_to(phase.frac.numerator, box.dims),
                   phase.frac.denominator)

    @property
    def frac(self) -> np.ndarray:
        """The values in [0, 1) as float64."""
        return self.numerators / float(self.denominator)

    def times_int(self, k: int, offsets: Sequence[int],
                  out_dims: Sequence[int]) -> np.ndarray:
        """The values times the integer k mod 1, as float64, on the window of
        ``out_dims`` cells at the 0-based ``offsets`` (``read_window``; zero
        outside the table).

        The value is (numerator (k mod T) mod T) / T, rounded once, at any k;
        it needs an integer k and (T - 1)^2 at most the int64 maximum (T at
        most MAX_TABLE_DENOMINATOR), and raises ``ValueError`` otherwise.
        """
        k, T = _multiplier(k), self.denominator
        if T > MAX_TABLE_DENOMINATOR:
            raise ValueError(f"PhaseTable.times_int needs (T - 1)^2 <= 2^63 - 1 "
                             f"(int64 products), i.e. T <= "
                             f"{MAX_TABLE_DENOMINATOR}, got T = {T}")
        nums = read_window(self.numerators, offsets, out_dims)
        return (nums * (k % T)) % T / T

    def at(self, point: Sequence[int]) -> TorusPhase:
        idx = tuple(int(c) - 1 for c in point)
        if any(c < 0 or c >= d for c, d in zip(idx, self.box.dims)):
            return TorusPhase(0)
        return TorusPhase.exact(int(self.numerators[idx]), self.denominator)

    def snapped(self, T: int) -> "PhaseTable":
        """Round every value, as ``frac``, to the grid {t/T : 0 <= t < T}."""
        # rint(frac * T) is at most 2^63, so it is taken as uint64 and the
        # constructor reduces it mod T
        return PhaseTable(self.box, np.rint(self.frac * T).astype(np.uint64), T)


def table_phases(alphas: Sequence[PhaseTable], powers: Sequence[int], r: int,
                 offsets: Sequence[int], out_dims: Sequence[int]) -> np.ndarray:
    """sum_j alpha_j(x) r^(p_j) on a window: each term ``times_int``, exact
    mod 1, summed in table order from zero (float64, not reduced again)."""
    return sum((a.times_int(r ** p, offsets, out_dims)
                for a, p in zip(alphas, powers)), np.zeros(out_dims))
