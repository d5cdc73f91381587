"""Hot counting kernels.

The pattern count (how many base points x have x in A_0 and x + d_j e_j in
A_j for every axis j) is the performance core of the package.
``pattern_views`` owns the cropped pattern read, the aligned views a_0[x],
a_j[x + d_j e_j] over the base points whose reads all stay in range (the
zero-padded windows are ``core.read_window``'s).  Two counting
implementations are kept side by side:

* ``pattern_count_numpy`` - AND of the pattern views of dense boolean grids;
  ``pattern_count_fast`` validates its arguments and calls it;
* ``pattern_count_pointwise`` - a member-driven bounds-checked membership
  loop, kept as the independent oracle.

The ``bench`` CLI subcommand times the implementations against each other
and insists they agree exactly before reporting.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def _axis_limits(masks: Sequence[np.ndarray], base_dims: Sequence[int],
                 shifts: Sequence[int]) -> list[int]:
    # Largest 0-based exclusive bound per axis so every read stays in range.
    n = len(base_dims)
    lims = []
    for axis in range(n):
        m = min(base_dims[axis], masks[0].shape[axis])
        for j in range(n):
            d = shifts[j] if j == axis else 0
            m = min(m, masks[j + 1].shape[axis] - d)
        lims.append(m)
    return lims


def pattern_views(arrays: Sequence[np.ndarray], base_dims: Sequence[int],
                  shifts: Sequence[int]) -> list[np.ndarray] | None:
    """Aligned views a_0[x], a_j[x + d_j e_j] (0-based x) over the base points
    whose n + 1 reads all fall inside the arrays; None when there are none."""
    lims = _axis_limits(arrays, base_dims, shifts)
    if any(v <= 0 for v in lims):
        return None
    n = len(base_dims)
    views = [arrays[0][tuple(slice(0, v) for v in lims)]]
    for j in range(n):
        views.append(arrays[j + 1][tuple(
            slice(shifts[j], shifts[j] + lims[a]) if a == j
            else slice(0, lims[a]) for a in range(n))])
    return views


def pattern_count_numpy(masks: Sequence[np.ndarray], base_dims: Sequence[int],
                        shifts: Sequence[int]) -> int:
    views = pattern_views(masks, base_dims, shifts)
    if views is None:
        return 0
    acc = views[0]
    for v in views[1:]:
        acc = acc & v
    return int(np.count_nonzero(acc))


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


def pattern_count_fast(masks: Sequence[np.ndarray], base_dims: Sequence[int],
                       shifts: Sequence[int]) -> int:
    """Default fast path: argument checks, then the numpy slice kernel."""
    masks = [np.ascontiguousarray(m, dtype=bool) for m in masks]
    base_dims = tuple(int(b) for b in base_dims)
    shifts = tuple(int(d) for d in shifts)
    if any(d < 0 for d in shifts):
        raise ValueError("pattern shifts must be nonnegative")
    if len(masks) != len(base_dims) + 1 or len(shifts) != len(base_dims):
        raise ValueError("need one mask per slot and one shift per axis")
    return pattern_count_numpy(masks, base_dims, shifts)
