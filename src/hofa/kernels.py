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
words.  It is the primary storage of ``core.SetIndicator``: ``setfile``
reads a binary set file straight into it (``word_bytes`` and
``from_word_bytes``), a band of rows at a time when the counts ask for
bands (``band_rows``: about ``BAND_WORDS`` words), ``pack_mask`` packs a
boolean mask and ``unpack_mask`` rebuilds the mask for the callers that
need cells.

Two counting implementations are kept side by side:

* ``pattern_count_fast`` - the packed-word kernel.  It takes ``PackedMask``s
  only, so a set is packed once for all its differences.  A shift along any
  axis but the last is a row offset of the words, a shift along the last
  axis is a word offset plus a bit shift, and the count is the popcount of
  the AND of the shifted words.  One C loop (``_kernel.c``) walks the rows
  of the window: per row it ANDs the n + 1 slots' words, reads the last
  slot across word pairs at its bit shift, clears the bits past the window
  and sums ``__builtin_popcountll``.  It is compiled on first use with
  ``cc -O3 -march=native`` into a per-user cache (``_load_kernel``), loaded
  with ``ctypes``, and allocates nothing; without a C compiler a count
  raises ``BuildError``;
* ``pattern_count_pointwise`` - a member-driven bounds-checked membership
  loop on boolean masks, kept as the independent oracle.

The ``bench`` CLI subcommand times the two against each other and insists
they agree exactly before reporting.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import core  # for ``as_int``; ``core`` imports this module first

WORD_BITS = 64
# words per band of a banded count or read (1 MiB)
BAND_WORDS = 1 << 17


@dataclass(frozen=True)
class PackedMask:
    """A boolean mask packed along its last axis.

    ``shape`` is the logical boolean shape.  ``words`` has shape
    ``shape[:-1] + (ceil(shape[-1] / 64) + 1,)``: bit b of word k of a row
    is cell 64k + b of that row, and the last word of every row is a spare
    zero word, so a shifted read of k words at word offset q may touch word
    q + k without a bounds check.
    """

    shape: tuple[int, ...]
    words: np.ndarray


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
    nwords = -(-shape[-1] // WORD_BITS) + 1
    return np.zeros(shape[:-1] + (nwords * 8,), dtype=np.uint8)


def from_word_bytes(shape: Sequence[int], raw: np.ndarray) -> PackedMask:
    """The ``PackedMask`` of logical ``shape`` whose words are the bytes of
    ``raw`` (from ``word_bytes``), made native: a view of the bytes on
    little-endian hosts, a byte-swapped copy elsewhere."""
    shape = tuple(core.as_int(d, "mask dims must be integers") for d in shape)
    return PackedMask(shape, raw.view("<u8").astype(np.uint64, copy=False))


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
    slab = math.prod(shape[1:-1]) * (-(-shape[-1] // WORD_BITS) + 1)
    return max(1, BAND_WORDS // slab, min_rows)


def unpack_mask(packed: PackedMask) -> np.ndarray:
    """The boolean mask of a ``PackedMask`` (a new array)."""
    raw = packed.words.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(raw, axis=-1, count=packed.shape[-1],
                         bitorder="little").view(bool)


def _axis_limits(masks: Sequence[np.ndarray], base_dims: Sequence[int],
                 shifts: Sequence[int]) -> list[int]:
    # Largest 0-based exclusive bound per axis so every read stays in range;
    # extents come from the trailing n axes (leading axes are batch axes).
    n = len(base_dims)
    lims = []
    for axis in range(n):
        m = min(base_dims[axis], masks[0].shape[axis - n])
        for j in range(n):
            d = shifts[j] if j == axis else 0
            m = min(m, masks[j + 1].shape[axis - n] - d)
        lims.append(m)
    return lims


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
    flags; where that directory cannot be written, it is built into a
    temporary directory, removed once the library is loaded."""
    import hashlib
    import tempfile
    key = hashlib.sha256(b"\0".join([
        KERNEL_SOURCE.read_bytes(), " ".join(COMPILE).encode(),
        _cpu_flags().encode()])).hexdigest()
    name = f"_kernel-{key[:32]}.so"
    cache = Path(os.environ.get("XDG_CACHE_HOME")
                 or Path.home() / ".cache") / "hofa"
    lib = cache / name
    if not lib.exists():
        try:
            cache.mkdir(parents=True, exist_ok=True)
            _build(cache, name)
        except OSError:
            with tempfile.TemporaryDirectory(prefix="hofa-") as tmp:
                return _open(_build(Path(tmp), name))
    return _open(lib)


def _open(lib: Path):
    """The kernel's function in the library ``lib``, declared for ctypes
    (a loaded library stays mapped when its file is removed)."""
    import ctypes
    fn = ctypes.CDLL(str(lib)).hofa_pattern_count
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
    if any(v <= 0 for v in lims):
        return 0
    n = len(base_dims)
    k = -(-lims[-1] // WORD_BITS)  # words of a row that hold base points
    q, s = divmod(shifts[-1], WORD_BITS)
    words = [np.ascontiguousarray(p.words, dtype=np.uint64) for p in packed]
    # The rows of the window run over its nlead leading axes (none for a 1-D
    # mask).  Slot j + 1 < n starts shifts[j] rows down axis j, the last
    # slot q words into its rows (byte offsets of the first row).
    nlead = n - 1
    starts = ([0] + [shifts[j] * words[j + 1].strides[j] for j in range(nlead)]
              + [8 * q])
    # addresses, the window's leading extents, then strides in words
    args = _kernel_args((n + 1) * (nlead + 1) + nlead)
    for j, (w, start) in enumerate(zip(words, starts)):
        args[j] = w.ctypes.data + start
        for a in range(nlead):
            args[n + 1 + nlead + j * nlead + a] = w.strides[a] // 8
    for a in range(nlead):
        args[n + 1 + a] = lims[a]
    tail = lims[-1] - WORD_BITS * (k - 1)  # bits of the last word counted
    return _kernel()(n + 1, nlead, args, k, s, (1 << tail) - 1)


def pattern_count_fast(masks: Sequence[PackedMask], base_dims: Sequence[int],
                       shifts: Sequence[int]) -> int:
    """Exact pattern count on ``PackedMask``s (``pack_mask`` packs a boolean
    mask; a ``core.SetIndicator`` holds its words as ``packed``)."""
    what = "pattern base dims and shifts must be integers"
    base_dims, shifts = (tuple(core.as_int(v, what) for v in seq)
                         for seq in (base_dims, shifts))
    if any(d < 0 for d in shifts):
        raise ValueError("pattern shifts must be nonnegative")
    if len(masks) != len(base_dims) + 1 or len(shifts) != len(base_dims):
        raise ValueError("need one mask per slot and one shift per axis")
    if not base_dims:
        raise ValueError("need at least one axis")
    if any(len(p.shape) != len(base_dims) for p in masks):
        raise ValueError(f"every mask needs {len(base_dims)} axes")
    # the kernel reads the words unchecked, so they must be what the
    # logical shape promises
    if any(p.words.shape != p.shape[:-1] + (-(-p.shape[-1] // WORD_BITS) + 1,)
           for p in masks):
        raise ValueError("a packed mask's words do not match its shape")
    return _count_packed(masks, base_dims, shifts)
