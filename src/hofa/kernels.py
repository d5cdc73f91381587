"""Hot counting kernels and the packed-mask storage they read.

The pattern count (how many base points x have x in A_0 and x + d_j e_j in
A_j for every axis j) is the performance core of the package.
``pattern_views`` owns the cropped pattern read, the aligned views a_0[x],
a_j[x + d_j e_j] over the base points whose reads all stay in range (the
zero-padded windows are ``core.read_window``'s); the averaged operators of
``counting`` multiply them.  It crops only the trailing n axes, so a stack
of same-shape arrays with leading batch axes (``core.read_translates``) is
read in one call.

``PackedMask`` is a boolean mask packed along its last axis into ``uint64``
words, ``row_words`` of them a row and every bit past the width zero.  It
owns that layout: it checks its words against its shape once, when it is
built, keeps them C-contiguous and native, and caches their address and row
strides, so the kernel reads the cached address instead of checking and
converting the words on every count.  It is the primary storage of
``core.SetIndicator``: ``setfile`` reads a binary set file straight into
it (``word_bytes`` and ``from_word_bytes``), a band of rows at a time when
the counts ask for bands (``band_rows``: about ``BAND_WORDS`` words),
``pack_mask`` packs a boolean mask and ``unpack_mask`` rebuilds the mask
for the callers that need cells.

Two counting implementations are kept side by side:

* ``pattern_count_fast`` - the packed-word kernel.  It takes ``PackedMask``s
  only, so a set is packed once for all its differences.  A shift along any
  axis but the last is a row offset of the words, a shift along the last
  axis is a word offset plus a bit shift, and the count is the popcount of
  the AND of the shifted words.  One C loop (``_kernel.c``) walks the rows
  of the window: per row it ANDs the n + 1 slots' words, reads the last
  slot across word pairs at its bit shift, clears the bits past the window
  and sums ``__builtin_popcountll``.  It reads no word past a row: for a
  last-axis shift of 64q + s bits, the last slot's final word pair takes
  its second word, q + k, only when s plus the window's bits in its last
  word exceed 64, and the window's bound 64q + s + (its last extent) <=
  width then puts that word in the row.  It is compiled on first use with
  ``cc -O3 -march=native`` into a per-user cache (``_load_kernel``), loaded
  with ``ctypes``, and allocates nothing; without a C compiler a count
  raises ``BuildError``;
* ``pattern_count_pointwise`` - a member-driven bounds-checked membership
  loop on boolean masks, kept as the independent oracle.

Both check their base dims and shifts in one place (``_pattern_args``):
integers by ``core.as_int``, nonnegative, and one mask per slot.

The ``bench`` CLI subcommand times the two against each other and insists
they agree exactly before reporting.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import core  # for ``as_int``; ``core`` imports this module first

WORD_BITS = 64
# words per band of a banded count or read (1 MiB)
BAND_WORDS = 1 << 17


@dataclass(frozen=True, eq=False)
class PackedMask:
    """A boolean mask packed along its last axis.

    ``shape`` is the logical boolean shape.  ``words`` has shape
    ``shape[:-1] + (row_words(shape[-1]),)``: bit b of word k of a row is
    cell 64k + b of that row, and the bits past the width are zero.

    The mask owns that layout: it checks the shape and the bits past the
    width once, keeps the words as a C-contiguous native ``uint64`` array
    (a copy only of words that are not: Fortran-ordered, strided or
    byte-swapped), and keeps their address and row strides in words for
    the kernel.
    """

    shape: tuple[int, ...]
    words: np.ndarray
    _address: int = field(init=False, repr=False)
    _row_strides: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        shape = tuple(core.as_int(d, "mask dims must be integers")
                      for d in self.shape)
        if not shape:
            raise ValueError("a packed mask needs at least one axis")
        if any(d < 0 for d in shape):
            raise ValueError(f"mask dims must be nonnegative, got {shape}")
        words = np.ascontiguousarray(self.words, dtype=np.uint64)
        if words.shape != shape[:-1] + (row_words(shape[-1]),):
            raise ValueError("a packed mask's words do not match its shape")
        used = shape[-1] % WORD_BITS  # bits of a row's last word, if not 64
        if used and np.any(words[..., -1] >> np.uint64(used)):
            raise ValueError("a packed mask's words set bits past its width")
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "words", words)
        object.__setattr__(self, "_address", words.ctypes.data)
        object.__setattr__(self, "_row_strides",
                           tuple(b // 8 for b in words.strides[:-1]))


def row_words(width: int) -> int:
    """Words in a packed row of ``width`` cells: ceil(width / 64)."""
    return -(-width // WORD_BITS)


def word_bytes(shape: Sequence[int]) -> np.ndarray:
    """Zeroed storage for the words of a packed mask of logical ``shape``,
    as bytes of shape ``shape[:-1] + (8 * words per row,)``.

    The words are little-endian: byte 8k + i of a row holds cells
    64k + 8i .. 64k + 8i + 7 of that row, lowest bit first, which is the
    byte layout of ``np.packbits(..., bitorder="little")`` along the row.
    ``from_word_bytes`` turns the filled bytes into the ``PackedMask``.
    """
    shape = tuple(core.as_int(d, "mask dims must be integers") for d in shape)
    if not shape:
        raise ValueError("a packed mask needs at least one axis")
    return np.zeros(shape[:-1] + (row_words(shape[-1]) * 8,), dtype=np.uint8)


def from_word_bytes(shape: Sequence[int], raw: np.ndarray) -> PackedMask:
    """The ``PackedMask`` of logical ``shape`` whose words are the bytes of
    ``raw`` (from ``word_bytes``), made native: a view of the bytes on
    little-endian hosts, a byte-swapped copy elsewhere."""
    return PackedMask(shape, raw.view("<u8"))


def pack_mask(mask: np.ndarray) -> PackedMask:
    """Pack a boolean mask of at least one axis along its last axis."""
    mask = np.asarray(mask, dtype=bool)
    raw = word_bytes(mask.shape)
    raw[..., :-(-mask.shape[-1] // 8)] = np.packbits(mask, axis=-1,
                                                     bitorder="little")
    return from_word_bytes(mask.shape, raw)


def band_rows(shape: Sequence[int], min_rows: int = 1) -> int:
    """Rows along axis 0 in one band of a packed mask of logical ``shape``:
    about BAND_WORDS words in all, and at least one row and ``min_rows``
    rows.  A 1-D mask is one band."""
    if len(shape) == 1:
        return shape[0]
    slab = math.prod(shape[1:-1]) * row_words(shape[-1])
    return max(1, BAND_WORDS // slab, min_rows)


def unpack_mask(packed: PackedMask) -> np.ndarray:
    """The boolean mask of a ``PackedMask`` (a new array)."""
    raw = packed.words.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(raw, axis=-1, count=packed.shape[-1],
                         bitorder="little").view(bool)


def _axis_limits(masks: Sequence[np.ndarray], base_dims: Sequence[int],
                 shifts: Sequence[int]) -> list[int]:
    # Largest 0-based exclusive bound per axis so every read stays in range;
    # extents come from the trailing n axes (leading axes are batch axes),
    # and slot j > 0 is read shifts[j - 1] further along axis j - 1.
    n = len(base_dims)
    lims = list(base_dims)
    for j, mask in enumerate(masks):
        for a, e in enumerate(mask.shape[-n:]):
            if a == j - 1:
                e -= shifts[a]
            if e < lims[a]:
                lims[a] = e
    return lims


def _pattern_args(masks: Sequence, base_dims: Sequence[int],
                  shifts: Sequence[int]) -> tuple[tuple[int, ...],
                                                  tuple[int, ...]]:
    """The checked base dims and shifts of a pattern count on ``masks``
    (boolean masks or ``PackedMask``s, each with a ``shape``): integers by
    ``core.as_int``, nonnegative, one shift per axis and one mask of that
    many axes per slot."""
    what = "pattern base dims and shifts must be integers"
    base_dims = tuple([core.as_int(v, what) for v in base_dims])
    shifts = tuple([core.as_int(v, what) for v in shifts])
    n = len(base_dims)
    if not n:
        raise ValueError("need at least one axis")
    if len(masks) != n + 1 or len(shifts) != n:
        raise ValueError("need one mask per slot and one shift per axis")
    if min(base_dims + shifts) < 0:
        raise ValueError("pattern base dims and shifts must be nonnegative")
    for mask in masks:
        if len(mask.shape) != n:
            raise ValueError(f"every mask needs {n} axes")
    return base_dims, shifts


def pattern_views(arrays: Sequence[np.ndarray], base_dims: Sequence[int],
                  shifts: Sequence[int]) -> list[np.ndarray] | None:
    """Aligned views a_0[x], a_j[x + d_j e_j] (0-based x) over the base points
    whose n + 1 reads all fall inside the arrays; None when there are none.

    Only the trailing n = len(base_dims) axes of each array are cropped; any
    leading axes are batch axes, kept whole (they broadcast in products)."""
    lims = _axis_limits(arrays, base_dims, shifts)
    if any(v <= 0 for v in lims):
        return None
    n = len(base_dims)
    views = [arrays[0][(...,) + tuple(slice(0, v) for v in lims)]]
    for j in range(n):
        views.append(arrays[j + 1][(...,) + tuple(
            slice(shifts[j], shifts[j] + lims[a]) if a == j
            else slice(0, lims[a]) for a in range(n))])
    return views


def pattern_count_pointwise(masks: Sequence[np.ndarray],
                            base_dims: Sequence[int],
                            shifts: Sequence[int]) -> int:
    """Oracle path: walk the members of A_0 and bounds-check every read."""
    base_dims, shifts = _pattern_args(masks, base_dims, shifts)
    n = len(base_dims)
    base_view = masks[0][tuple(slice(0, min(b, s))
                               for b, s in zip(base_dims, masks[0].shape))]
    pts = np.argwhere(base_view)
    if len(pts) == 0:
        return 0
    ok = np.ones(len(pts), dtype=bool)
    for j in range(n):
        tgt = pts.copy()
        tgt[:, j] += shifts[j]
        inb = np.ones(len(pts), dtype=bool)
        for a in range(n):
            inb &= tgt[:, a] < masks[j + 1].shape[a]
        hit = np.zeros(len(pts), dtype=bool)
        if inb.any():
            hit[inb] = masks[j + 1][tuple(tgt[inb].T)]
        ok &= hit
    return int(ok.sum())


class BuildError(RuntimeError):
    """The compiled kernel could not be built: no C compiler, or it failed."""


KERNEL_SOURCE = Path(__file__).with_name("_kernel.c")
COMPILE = ("cc", "-O3", "-march=native", "-shared", "-fPIC")
_kernel_fn = None  # the loaded ``hofa_pattern_count``, built on first use
_load_lock = threading.Lock()
_scratch = threading.local()  # per thread: the kernel's argument buffer


def _cpu_flags() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("flags"):
                    return line
    except OSError:
        pass
    import platform
    return platform.processor()


def _build(directory: Path, name: str) -> Path:
    """Compile the kernel into ``directory / name`` through a temporary
    name; OSError when the directory cannot be written."""
    import subprocess
    import tempfile
    fd, tmp = tempfile.mkstemp(prefix=f".{name}.", dir=directory)
    os.close(fd)
    try:
        try:
            proc = subprocess.run([*COMPILE, "-o", tmp, str(KERNEL_SOURCE)],
                                  capture_output=True, text=True)
        except OSError as exc:
            raise BuildError(f"`cc` could not be run ({exc}); the kernel is "
                             f"compiled with a C compiler on first use"
                             ) from None
        if proc.returncode:
            raise BuildError(f"`cc` could not compile {KERNEL_SOURCE}:\n"
                             f"{proc.stderr.strip()}")
        os.replace(tmp, directory / name)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return directory / name


def _load_kernel():
    """Build the kernel if its library is not cached yet, and load it.

    The library lives in ``$XDG_CACHE_HOME/hofa`` (else ``~/.cache/hofa``),
    named by the sha256 of the source, the compile command and the CPU's
    flags; a cached library that will not load is built again.  Where that
    directory cannot be written, it is built into a temporary directory,
    removed once the library is loaded."""
    import hashlib
    import tempfile
    key = hashlib.sha256(b"\0".join([
        KERNEL_SOURCE.read_bytes(), " ".join(COMPILE).encode(),
        _cpu_flags().encode()])).hexdigest()
    name = f"_kernel-{key[:32]}.so"
    cache = Path(os.environ.get("XDG_CACHE_HOME")
                 or Path.home() / ".cache") / "hofa"
    lib = cache / name
    if lib.exists():
        try:
            return _open(lib)
        except BuildError:
            pass  # a truncated or corrupt library: build it again
    try:
        cache.mkdir(parents=True, exist_ok=True)
        _build(cache, name)
    except OSError:
        with tempfile.TemporaryDirectory(prefix="hofa-") as tmp:
            return _open(_build(Path(tmp), name))
    return _open(lib)


def _open(lib: Path):
    """The kernel's function in the library ``lib``, declared for ctypes
    (a loaded library stays mapped when its file is removed); BuildError
    when the library will not load."""
    import ctypes
    try:
        fn = ctypes.CDLL(str(lib)).hofa_pattern_count
    except OSError as exc:
        raise BuildError(f"the kernel library {lib} will not load: {exc}"
                         ) from None
    fn.argtypes = (ctypes.c_int, ctypes.c_int, ctypes.POINTER(ctypes.c_int64),
                   ctypes.c_int64, ctypes.c_int, ctypes.c_uint64)
    fn.restype = ctypes.c_uint64
    return fn


def _kernel():
    global _kernel_fn
    if _kernel_fn is None:
        with _load_lock:
            if _kernel_fn is None:
                _kernel_fn = _load_kernel()
    return _kernel_fn


def _kernel_args(size: int):
    """This thread's int64 argument buffer of at least ``size`` entries,
    kept between calls."""
    buf = getattr(_scratch, "args", None)
    if buf is None or len(buf) < size:
        import ctypes
        buf = _scratch.args = (ctypes.c_int64 * max(size, 64))()
    return buf


def _count_packed(packed: Sequence[PackedMask], base_dims: tuple[int, ...],
                  shifts: tuple[int, ...]) -> int:
    lims = _axis_limits(packed, base_dims, shifts)
    if min(lims) <= 0:
        return 0
    n = len(base_dims)
    k = row_words(lims[-1])  # words of a row that hold base points
    q, s = divmod(shifts[-1], WORD_BITS)
    # The rows of the window run over its nlead leading axes (none for a 1-D
    # mask).  Slot j + 1 < n starts shifts[j] rows down axis j, the last
    # slot q words into its rows.
    nlead = n - 1
    # addresses, the window's leading extents, then strides in words
    args = _kernel_args((n + 1) * (nlead + 1) + nlead)
    args[0] = packed[0]._address
    for j in range(nlead):
        p = packed[j + 1]
        args[j + 1] = p._address + 8 * shifts[j] * p._row_strides[j]
    args[n] = packed[n]._address + 8 * q
    args[n + 1:n + 1 + nlead] = lims[:-1]
    for j, p in enumerate(packed):
        first = n + 1 + nlead * (j + 1)
        args[first:first + nlead] = p._row_strides
    tail = lims[-1] - WORD_BITS * (k - 1)  # bits of the last word counted
    return _kernel()(n + 1, nlead, args, k, s, (1 << tail) - 1)


def pattern_count_fast(masks: Sequence[PackedMask], base_dims: Sequence[int],
                       shifts: Sequence[int]) -> int:
    """Exact pattern count on ``PackedMask``s (``pack_mask`` packs a boolean
    mask; a ``core.SetIndicator`` holds its words as ``packed``)."""
    return _count_packed(masks, *_pattern_args(masks, base_dims, shifts))
