"""Hot counting kernels and the packed-mask storage they read.

The pattern count (how many base points x have x in A_0 and x + d_j e_j in
A_j for every axis j) is the performance core of the package.
``pattern_views`` owns the cropped pattern read, the aligned views a_0[x],
a_j[x + d_j e_j] over the base points whose reads all stay in range (the
zero-padded windows are ``core.read_window``'s); the complex operators of
``counting`` multiply them.  It crops only the trailing n axes, so a stack
of same-shape arrays with leading batch axes (``core.read_translates``) is
read in one call.

``PackedMask`` is a boolean mask packed along its last axis into ``uint64``
words.  It is the primary storage of ``core.SetIndicator``: ``setfile``
reads a binary set file straight into it (``word_bytes`` and
``from_word_bytes``), a band of rows at a time when the counts ask for
bands (``band_rows``: about ``BAND_WORDS`` words, a whole number of the
counting loop's blocks), ``pack_mask`` packs a boolean mask and
``unpack_mask`` rebuilds the mask for the callers that need cells.

Two counting implementations are kept side by side:

* ``pattern_count_fast`` - the packed-word kernel.  It takes ``PackedMask``s
  only, so a set is packed once for all its differences.  A shift along any
  axis but the last is a row offset of the words, a shift along the last
  axis is a word offset plus a bit shift, and the count is
  ``np.bitwise_count`` of the AND of the shifted words.  The ufunc calls run
  on contiguous 1-D runs of words that cover whole rows of a block along
  axis 0, read at each slot's flat offset in slot 0's word layout; the words
  the runs take past the window (from word k on in every row, rows cropped
  on the middle axes, bits past the width) are zeroed before the popcount.
  numpy runs the strided views of cropped rows 2-3.5x slower per word than
  contiguous runs (a 63x500-word AND of two cropped views: 30-33 us; the
  same words as contiguous runs: 9-11 us), so the runs win while the window
  holds most of each row: on 2048x32768 they took 0.74-0.9x the time of the
  views for windows of 75-97% of the words, and 1.1x at 63-69%, 1.5-1.8x at
  31-48%, 3.5x at 17%.  When the window holds less than 3/4 of the words, or
  a slot's rows have another layout (a doubled middle or last axis), the
  calls run on the cropped views instead;
* ``pattern_count_pointwise`` - a member-driven bounds-checked membership
  loop on boolean masks, kept as the independent oracle.

The ``bench`` CLI subcommand times the two against each other and insists
they agree exactly before reporting.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

WORD_BITS = 64
# words per block of the counting loop (its buffers take about 0.5 MiB)
BLOCK_WORDS = 1 << 15
# words per band of a banded count or read (1 MiB), a whole number of blocks
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
    shape = tuple(int(d) for d in shape)
    if not shape:
        raise ValueError("a packed mask needs at least one axis")
    nwords = -(-shape[-1] // WORD_BITS) + 1
    return np.zeros(shape[:-1] + (nwords * 8,), dtype=np.uint8)


def from_word_bytes(shape: Sequence[int], raw: np.ndarray) -> PackedMask:
    """The ``PackedMask`` of logical ``shape`` whose words are the bytes of
    ``raw`` (from ``word_bytes``), made native: a view of the bytes on
    little-endian hosts, a byte-swapped copy elsewhere."""
    return PackedMask(tuple(int(d) for d in shape),
                      raw.view("<u8").astype(np.uint64, copy=False))


def pack_mask(mask: np.ndarray) -> PackedMask:
    """Pack a boolean mask of at least one axis along its last axis."""
    mask = np.asarray(mask, dtype=bool)
    raw = word_bytes(mask.shape)
    raw[..., :-(-mask.shape[-1] // 8)] = np.packbits(mask, axis=-1,
                                                     bitorder="little")
    return from_word_bytes(mask.shape, raw)


def band_rows(shape: Sequence[int], min_rows: int = 1) -> int:
    """Rows along axis 0 in one band of a packed mask of logical ``shape``:
    a whole number of the counting loop's blocks, with about BAND_WORDS
    words in all (at least one block, and at least ``min_rows`` rows).  A
    1-D mask is one band."""
    if len(shape) == 1:
        return int(shape[0])
    slab = math.prod(shape[1:-1]) * (-(-shape[-1] // WORD_BITS) + 1)
    block = max(1, BLOCK_WORDS // slab)
    return block * max(1, BAND_WORDS // slab // block, -(-min_rows // block))


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


def _count_packed(packed: Sequence[PackedMask], base_dims: tuple[int, ...],
                  shifts: tuple[int, ...]) -> int:
    lims = _axis_limits(packed, base_dims, shifts)
    if any(v <= 0 for v in lims):
        return 0
    n = len(base_dims)
    k = -(-lims[-1] // WORD_BITS)  # words of a row that hold base points
    q, s = divmod(shifts[-1], WORD_BITS)
    # Rows of words under the leading axes (a 1-D mask is one row under a
    # leading axis of extent 1); ``lead`` is the window's leading extents.
    # Slot j < n starts at origins[j] on them, the last slot at word q, and
    # its operand has one more word a row for the bit shift.
    words = [p.words if n > 1 else p.words[None] for p in packed]
    lead = lims[:-1] if n > 1 else [1]
    origins = [[0] * len(lead) for _ in range(n + 1)]
    for a in range(n - 1):
        origins[a + 1][a] = shifts[a]
    # The ufunc calls run on flat runs of the words, each covering whole rows
    # of a block of slabs along axis 0, when every slot has slot 0's row
    # layout and the window holds at least 3/4 of its words: the words past
    # the window ride along and are zeroed before the popcount.  Otherwise
    # they run on the cropped views of the window, and the accumulator has
    # the window's layout.  See the module docstring for the measurements.
    layout = words[0].shape[1:]
    window = (*lead[1:], k)
    runs = (4 * math.prod(window) >= 3 * math.prod(layout)
            and all([w.shape[1:] == layout for w in words]))
    if runs:
        strides = [math.prod(layout[a:]) for a in range(len(lead))]
        slab = strides[0]
        # a run of h slabs ends at the last word that holds a base point, so
        # no run reads past a slot's words
        run_tail = sum((v - 1) * st for v, st in zip(lead[1:], strides[1:])) + k
        srcs = [w.reshape(-1)[sum(map(operator.mul, org, strides)):]
                for w, org in zip(words, origins)]
        srcs[n] = srcs[n][q:]
    else:
        layout = window
        slab = run_tail = math.prod(window)
        srcs = [w[tuple(slice(o, o + v) for o, v in zip(org, lead))
                  + (slice(0, k),)] for w, org in zip(words[:n], origins)]
        srcs.append(words[n][tuple(slice(0, v) for v in lead)
                             + (slice(q, q + k + 1),)])
    # Blocks of about BLOCK_WORDS words keep the buffers in a core's L2 cache
    # between the passes over a block.
    step = min(max(1, BLOCK_WORDS // slab), lead[0])
    acc = np.empty((step,) + layout, dtype=np.uint64)
    flat_acc = acc.reshape(-1)
    spill = np.empty_like(acc)
    popcounts = np.empty(acc.size, dtype=np.uint8)
    sum_dtype = np.uint32 if acc.size * WORD_BITS < 1 << 32 else np.uint64
    tail = lims[-1] - WORD_BITS * (k - 1)
    tail_mask = np.uint64((1 << tail) - 1)
    total = 0
    for b0 in range(0, lead[0], step):
        h = min(step, lead[0] - b0)
        run = (h - 1) * slab + run_tail
        if runs:
            o = b0 * slab
            ops = [src[o:o + run] for src in srcs[:n]]
            last = srcs[n][o:o + run + 1]
            dst, t = flat_acc[:run], spill.reshape(-1)[:run]
        else:
            ops = [src[b0:b0 + h] for src in srcs[:n]]
            last = srcs[n][b0:b0 + h]
            dst, t = acc[:h], spill[:h]
        if s:
            np.right_shift(last[..., :-1], np.uint64(s), out=dst)
            np.left_shift(last[..., 1:], np.uint64(WORD_BITS - s), out=t)
            dst |= t
        else:
            np.bitwise_and(last[..., :-1], ops.pop(0), out=dst)
        for op in ops:
            dst &= op
        blk = acc[:h]
        if runs:
            # zero the words past the window: from word k on in every row
            # and the rows past the window on the middle axes
            blk[..., k:] = 0
            for ax in range(1, len(lead)):
                blk[(slice(None),) * ax + (slice(lead[ax], None),)] = 0
        if tail < WORD_BITS:
            blk[..., k - 1] &= tail_mask  # the bits past the width
        total += int(np.bitwise_count(flat_acc[:run], out=popcounts[:run])
                     .sum(dtype=sum_dtype))
    return total


def pattern_count_fast(masks: Sequence[PackedMask], base_dims: Sequence[int],
                       shifts: Sequence[int]) -> int:
    """Exact pattern count on ``PackedMask``s (``pack_mask`` packs a boolean
    mask; a ``core.SetIndicator`` holds its words as ``packed``)."""
    base_dims = tuple(int(b) for b in base_dims)
    shifts = tuple(int(d) for d in shifts)
    if any(d < 0 for d in shifts):
        raise ValueError("pattern shifts must be nonnegative")
    if len(masks) != len(base_dims) + 1 or len(shifts) != len(base_dims):
        raise ValueError("need one mask per slot and one shift per axis")
    if not base_dims:
        raise ValueError("need at least one axis")
    if any(len(p.shape) != len(base_dims) for p in masks):
        raise ValueError(f"every mask needs {len(base_dims)} axes")
    return _count_packed(masks, base_dims, shifts)
