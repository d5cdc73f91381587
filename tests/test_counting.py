import math

import numpy as np
import pytest
from conftest import random_grid, random_set
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from hofa import counting, kernels
from hofa.core import (BoxSpec, ConfigSpec, GridFunction, PhaseTable, SetIndicator,
                       TorusPhase, read_window)
from hofa.rng import make_rng


def test_lambda_simple_all_ones_with_slack():
    g = GridFunction.ones(BoxSpec((4, 8)))
    assert counting.lambda_simple([g, g, g], (1, 2), 2) == pytest.approx(1.0)


def test_lambda_simple_point_mass_enumerated():
    # f_0 concentrated at (1,1); slack boxes keep both differences in range,
    # so the sum is 2 and the normalization is 2^(1+2) * 2 = 16
    f0 = GridFunction.zeros(BoxSpec((2, 4)))
    f0.values[0, 0] = 1
    f1 = GridFunction.ones(BoxSpec((4, 4)))
    f2 = GridFunction.ones(BoxSpec((2, 8)))
    val = counting.lambda_simple([f0, f1, f2], (1, 2), 2)
    assert val == pytest.approx(2 / 16)
    assert val == pytest.approx(counting.lambda_general_bruteforce(
        [f0, f1, f2], ConfigSpec.power((1, 2), 2)))


def test_lambda_simple_matches_bruteforce_random(rng):
    for _ in range(20):
        N = int(rng.integers(2, 4))
        dims = (N, N * N)
        fs = [random_grid(rng, dims),
              random_grid(rng, (2 * N, N * N)),
              random_grid(rng, (N, 2 * N * N))]
        a = counting.lambda_simple(fs, (1, 2), N)
        b = counting.lambda_general_bruteforce(fs, ConfigSpec.power((1, 2), N))
        assert a == pytest.approx(b, abs=1e-12)


def test_lambda_general_specializes_to_simple(rng):
    N = 2
    dims = (N, N * N)
    fs = [random_grid(rng, dims) for _ in range(3)]
    spec = ConfigSpec((1, 2), BoxSpec(dims), q=1, M=N)
    assert counting.lambda_general(fs, spec) == \
        pytest.approx(counting.lambda_simple(fs, (1, 2), N), abs=1e-12)


def test_lambda_general_matches_bruteforce(rng):
    spec = ConfigSpec((1, 2), BoxSpec((30, 900)), q=2, M=3)
    fs = [random_grid(rng, (30, 900), kind="indicator") for _ in range(3)]
    assert counting.lambda_general(fs, spec) == \
        pytest.approx(counting.lambda_general_bruteforce(fs, spec), abs=1e-12)


def test_lambda_phased_reduces_and_matches_oracle(rng):
    N = 3
    fs = [random_grid(rng, (N,)), random_grid(rng, (2 * N,))]
    # k = 0 coincides with the plain operator
    assert counting.lambda_phased(fs, [], (1,), N) == \
        pytest.approx(counting.lambda_simple(fs, (1,), N))
    # zero phases coincide with the truncated exponent tuple
    zero = PhaseTable.zeros(BoxSpec((N,)))
    assert counting.lambda_phased(fs, [zero], (1, 2), N) == \
        pytest.approx(counting.lambda_simple(fs, (1,), N), abs=1e-12)
    # constant phase 1/2 matches brute force
    half = PhaseTable.constant(BoxSpec((N,)), TorusPhase.exact(1, 2))
    a = counting.lambda_phased(fs, [half], (1, 2), N)
    b = counting.lambda_phased_bruteforce(fs, [half], (1, 2), N)
    assert a == pytest.approx(b, abs=1e-12)


def test_lambda_phased_table_matches_oracle(rng):
    N = 3
    fs = [random_grid(rng, (3, 9)), random_grid(rng, (6, 9)),
          random_grid(rng, (3, 18))]
    al = PhaseTable.from_floats(BoxSpec((3, 9)), rng.random((3, 9)))
    a = counting.lambda_phased(fs, [al], (1, 2, 4), N)
    b = counting.lambda_phased_bruteforce(fs, [al], (1, 2, 4), N)
    assert a == pytest.approx(b, abs=1e-12)


def test_popular_count_full_box_closed_form():
    A = SetIndicator.full(BoxSpec((12, 144)))
    for r in (1, 3, 11, 12, 20):
        expect = max(0, 12 - r) * max(0, 144 - r * r)
        assert counting.popular_count(A, (1, 2), r) == expect
    empty = SetIndicator.empty(BoxSpec((12, 144)))
    assert all(counting.popular_count(empty, (1, 2), r) == 0 for r in (1, 2, 3))


def test_popular_count_matches_membership_loop(rng):
    for _ in range(50):
        A = random_set(rng, (12, 144))
        r = int(rng.integers(1, 13))
        fast = counting.popular_count(A, (1, 2), r)
        naive = counting.popular_count_naive(A, (1, 2), r)
        members = {tuple(p) for p in A.members()}
        ref = sum(1 for p in members
                  if (p[0] + r, p[1]) in members and (p[0], p[1] + r * r) in members)
        assert fast == naive == ref


def test_pattern_count_3d_and_numpy_agree(rng):
    for _ in range(20):
        A = random_set(rng, (6, 10, 30))
        r = int(rng.integers(1, 4))
        shifts = (r, r**2, r**3)
        masks = [A.mask] * 4
        fast = kernels.pattern_count_fast([A.packed] * 4, A.box.dims, shifts)
        assert fast == kernels.pattern_count_pointwise(masks, A.box.dims, shifts)


def _random_pattern_case(rng):
    """Masks, base dims and shifts of one random 1-D to 3-D pattern count."""
    n = int(rng.integers(1, 4))
    lead = [int(rng.integers(1, 7)) for _ in range(n - 1)]
    width = int(rng.choice([int(rng.integers(1, 200)), 64, 128, 192]))
    dims = tuple(lead) + (width,)
    base = tuple(d - int(rng.integers(0, d)) if rng.random() < 0.3 else d
                 for d in dims)
    masks = []
    for j in range(n + 1):
        d = list(dims)
        if j and rng.random() < 0.4:
            d[j - 1] *= 2  # doubled along the slot's axis
        masks.append(rng.random(d) < rng.random())
    if rng.random() < 0.3:
        masks = [masks[0]] * (n + 1)
    shifts = [int(rng.integers(0, d + 3)) for d in dims]
    if rng.random() < 0.4:
        shifts[-1] = 64 * int(rng.integers(0, 4))
    return masks, base, tuple(shifts)


@pytest.mark.parametrize("block_words", [kernels.BLOCK_WORDS, 3])
def test_packed_count_matches_pointwise(rng, monkeypatch, block_words):
    monkeypatch.setattr(kernels, "BLOCK_WORDS", block_words)
    for _ in range(300):
        masks, base, shifts = _random_pattern_case(rng)
        ref = kernels.pattern_count_pointwise(masks, base, shifts)
        packed = [kernels.pack_mask(m) for m in masks]
        assert kernels.pattern_count_fast(packed, base, shifts) == ref


def test_packed_count_word_edges(rng):
    # widths around word boundaries; last-axis shifts at, past and beyond
    # the width
    for width in (1, 63, 64, 65, 127, 128, 129, 320):
        A = random_set(rng, (5, width), p=0.7)
        packed = [kernels.pack_mask(A.mask)] * 3
        for d in sorted({0, 1, 63, 64, 65, 128, width - 1, width, width + 1,
                         width + 64}):
            for shifts in ((1, d), (0, d)):
                ref = kernels.pattern_count_pointwise([A.mask] * 3, (5, width),
                                                      shifts)
                assert kernels.pattern_count_fast(packed, (5, width),
                                                  shifts) == ref
        assert kernels.pattern_count_fast(packed, (5, width), (5, 0)) == 0


def _assert_packed_count(masks, base, shifts):
    ref = kernels.pattern_count_pointwise(masks, base, shifts)
    packed = [kernels.pack_mask(m) for m in masks]
    assert kernels.pattern_count_fast(packed, base, shifts) == ref, (base, shifts)


@pytest.mark.parametrize("block_words", [kernels.BLOCK_WORDS, 3])
def test_packed_count_run_edges(rng, monkeypatch, block_words):
    # the kernel's word runs (windows of at least 3/4 of the words) and its
    # cropped views at the ends of the arrays and of the window
    monkeypatch.setattr(kernels, "BLOCK_WORDS", block_words)
    # the last slot's words q .. q + k, the last of them the spare word,
    # read in the final row: slot 1 doubled along axis 0 keeps every row of
    # slot 0 in the window; with q = words per row - 2 (k = 1, views) and
    # with q + k = words per row - 1 for a window of most of each row (runs)
    N0 = 7
    for width, lasts in ((130, (128, 129)), (1920, (64, 65))):
        wpr = kernels.pack_mask(np.zeros((1, width), bool)).words.shape[-1]
        full = np.ones((N0, width), dtype=bool)
        for masks in ([full, np.ones((2 * N0, width), bool), full],
                      [rng.random((N0, width)) < 0.8,
                       rng.random((2 * N0, width)) < 0.8,
                       rng.random((N0, width)) < 0.8]):
            for d0 in (0, 1, N0):
                for last in lasts:
                    shifts = (d0, last)
                    assert kernels._axis_limits(masks, (N0, width),
                                                shifts)[0] == N0
                    q, k = last // 64, -(-(width - last) // 64)
                    assert q == wpr - 2 if width == 130 else q + k == wpr - 1
                    _assert_packed_count(masks, (N0, width), shifts)
    # n = 1, shifts around the width, slot 1 as wide or doubled
    for width in (1, 63, 64, 65, 128, 130):
        a0 = rng.random(width) < 0.7
        for a1 in (a0, rng.random(2 * width) < 0.7):
            for d in sorted({0, 1, 63, 64, 65, width - 1, width, width + 1}):
                _assert_packed_count([a0, a1], (width,), (d,))
    # n = 3, the window cropped on the middle axis by the base box or by the
    # slot 2 shift; slot 2 as is or doubled along its axis (another row
    # layout, so views)
    for dims in ((4, 6, 70), (4, 8, 960)):
        for doubled in (False, True):
            masks = [rng.random(dims) < 0.7 for _ in range(4)]
            if doubled:
                masks[2] = rng.random((4, 2 * dims[1], dims[2])) < 0.7
            for base in (dims, (4, dims[1] - 1, dims[2]), (3, 5, 40)):
                for shifts in ((1, 1, 3), (1, 2, 3), (0, 4, 64), (2, 5, 1),
                               (1, 0, dims[2] - 1)):
                    _assert_packed_count(masks, base, shifts)
    # s = 0: the last slot is a pure word offset
    A = rng.random((9, 300)) < 0.6
    for last in (0, 64, 128, 192, 256):
        for d0 in (0, 1, 8):
            _assert_packed_count([A] * 3, (9, 300), (d0, last))
            _assert_packed_count([A, A, rng.random((9, 600)) < 0.6],
                                 (9, 300), (d0, last))


def test_popular_difference_memory_is_bounded_by_words(rng):
    # the kernel's buffers are about 0.5 MiB whatever the grid; a temporary
    # of the grid's size (a byte per cell is 8 MiB here) would break this
    import tracemalloc
    A = SetIndicator(BoxSpec((512, 16384)),
                     kernels.pack_mask(rng.random((512, 16384)) < 0.5))
    words = A.packed.words.nbytes
    tracemalloc.start()
    try:
        res = counting.best_popular_difference(A, (1, 2), 60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= words + (2 << 20)
    for r in (1, res.r_star, 60):
        assert res.histogram[r - 1] == counting.popular_count_naive(A, (1, 2), r)


def test_pack_mask_layout(rng):
    mask = rng.random((3, 130)) < 0.5
    p = kernels.pack_mask(mask)
    assert p.shape == (3, 130) and p.words.dtype == np.uint64
    assert p.words.shape == (3, 4)  # three data words and a spare zero word
    assert not p.words[:, 3].any()
    for c in range(130):
        bit = (p.words[:, c // 64] >> np.uint64(c % 64)) & np.uint64(1)
        assert np.array_equal(bit.astype(bool), mask[:, c])
    assert not (p.words[:, 2] >> np.uint64(2)).any()  # past the width
    with pytest.raises(ValueError):
        kernels.pack_mask(np.bool_(True))
    with pytest.raises(ValueError):
        kernels.pattern_count_fast([mask[0]] * 3, (3, 130), (1, 1))


def test_best_popular_difference_tie_break():
    A = SetIndicator.full(BoxSpec((8, 64)))
    res = counting.best_popular_difference(A, (1, 2), 5)
    assert res.r_star == 1  # counts decrease in r
    empty = SetIndicator.empty(BoxSpec((8, 64)))
    res0 = counting.best_popular_difference(empty, (1, 2), 5)
    assert res0.r_star == 1 and res0.count == 0  # ties go to the smallest r
    assert list(res.histogram) == [counting.popular_count(A, (1, 2), r)
                                   for r in range(1, 6)]


def test_threads_do_not_change_results(rng):
    A = random_set(rng, (16, 256))
    fs = [random_grid(rng, (16, 256)), random_grid(rng, (32, 256)),
          random_grid(rng, (16, 512))]
    spec = ConfigSpec((1, 2), BoxSpec((16, 256)), q=1, M=12)
    phased = [random_grid(rng, (3, 9)), random_grid(rng, (6, 9)),
              random_grid(rng, (3, 18))]
    al = PhaseTable.from_floats(BoxSpec((3, 9)), rng.random((3, 9)))
    inds = [A, random_set(rng, (32, 256)), random_set(rng, (16, 512))]

    def run():
        res = counting.best_popular_difference(A, (1, 2), 12)
        return (list(res.histogram), res.r_star,
                counting.lambda_general(fs, spec),
                counting.lambda_phased(phased, [al], (1, 2, 4), 3),
                list(counting.lambda_indicator_counts(inds, spec)))

    base = run()
    counting.set_threads(4)
    try:
        threaded = run()
    finally:
        counting.set_threads(1)
    assert base == threaded  # exactly, the complex sums included


def test_indicator_lambda_is_exact_count_ratio(rng):
    # on indicators lambda_general is integer_count / normalization exactly,
    # which is how the count command reports it
    for _ in range(400):
        n = int(rng.integers(1, 4))
        base = tuple(int(rng.integers(1, 9)) for _ in range(n))
        m = tuple(int(v) for v in rng.integers(1, 4, n))
        spec = ConfigSpec(m, BoxSpec(base), q=int(rng.integers(1, 3)),
                          M=int(rng.integers(1, 7)))
        inds = [random_set(rng, tuple(d * int(rng.integers(1, 3)) for d in base))
                for _ in range(n + 1)]
        count = int(counting.lambda_indicator_counts(inds, spec).sum())
        lam = counting.lambda_general([A.to_grid() for A in inds], spec)
        assert lam.real == count / (spec.box.cells * spec.M)
        assert lam.imag == 0 and np.copysign(1.0, lam.imag) == 1.0


def test_difference_range_preconditions():
    A = SetIndicator.full(BoxSpec((4, 16)))
    for m, q, M in (((1, 2), 1, 0), ((1, 2), 1, (1 << 27) + 1),
                    ((1, 2), 0, 3), ((1, 2), -1, 3), ((1, 0), 1, 3)):
        with pytest.raises(ValueError):
            ConfigSpec(m, A.box, q, M)
    with pytest.raises(ValueError):
        counting.best_popular_difference(A, (1, 2), 1 << 40)
    # no r past 3 has a base point
    hist = counting.best_popular_difference(A, (1, 2), 1 << 20).histogram
    assert len(hist) == 1 << 20 and not hist[3:].any()


def test_threads_histogram_wide_grid(rng):
    # 66 words per row, two row blocks per count
    A = random_set(rng, (600, 4160), p=0.5)
    base = counting.best_popular_difference(A, (1, 2), 70)
    counting.set_threads(2)
    try:
        threaded = counting.best_popular_difference(A, (1, 2), 70)
    finally:
        counting.set_threads(1)
    assert list(base.histogram) == list(threaded.histogram)
    for r in (1, 9, 64, 65):
        assert base.histogram[r - 1] == counting.popular_count_naive(A, (1, 2), r)
    assert list(base.histogram[65:]) == [0] * 5  # 65^2 > 4160


def test_popular_count_shift_past_grid_counts_zero():
    # a shift past the grid counts 0, as in every histogram, however large
    A = SetIndicator.full(BoxSpec((4, 16)))
    for count in (counting.popular_count, counting.popular_count_naive):
        assert count(A, (1, 63), 3) == 0
        assert count(A, (1, 2), 1 << 70) == 0
        assert count(A, (1, 2), 3) == (4 - 3) * (16 - 9)
        for m, r in (((1, 2), 0), ((1, 2), -1), ((1,), 1), ((1, 2, 3), 1)):
            with pytest.raises(ValueError):
                count(A, m, r)


def _kernel_path(packed, base, shifts) -> str:
    """Which ufunc layout ``kernels._count_packed`` runs for one count:
    "runs" (flat word runs) or "views" (cropped views); reported as a
    Hypothesis event, so ``--hypothesis-show-statistics`` shows how often
    the strategy reaches each."""
    lims = kernels._axis_limits(packed, base, shifts)
    words = [p.words if len(base) > 1 else p.words[None] for p in packed]
    layout = words[0].shape[1:]
    window = (*lims[1:-1], -(-lims[-1] // kernels.WORD_BITS))
    runs = (4 * math.prod(window) >= 3 * math.prod(layout)
            and all(w.shape[1:] == layout for w in words))
    return "runs" if runs else "views"


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 3), q=st.integers(1, 3), M=st.integers(1, 16),
       width=st.sampled_from([63, 64, 65, 127, 128, 129, 1023, 1024, 1025]),
       lead=st.lists(st.integers(2, 16), min_size=2, max_size=2),
       m=st.lists(st.integers(1, 3), min_size=3, max_size=3),
       doubled=st.none() | st.tuples(st.integers(0, 3), st.integers(0, 2)),
       p=st.sampled_from([0.3, 0.7, 0.95, 1.0]),
       seed=st.integers(0, 2**32 - 1))
@example(n=2, q=1, M=3, width=1024, lead=[8, 2], m=[1, 2, 1], doubled=None,
         p=0.95, seed=0)  # every r on the word runs
@example(n=2, q=1, M=13, width=1025, lead=[16, 2], m=[1, 2, 1],
         doubled=(0, 0), p=1.0, seed=0)  # runs read words past the window
@example(n=3, q=2, M=4, width=129, lead=[5, 6], m=[1, 1, 2], doubled=(3, 2),
         p=0.7, seed=1)  # the last slot doubled along its axis: views
@example(n=2, q=1, M=5, width=127, lead=[6, 2], m=[1, 1, 1], doubled=(0, 1),
         p=1.0, seed=2)  # slot 0 doubled along the last axis: a cropped window
def test_indicator_counts_equal_pointwise_oracle(n, q, M, width, lead, m,
                                                 doubled, p, seed):
    # the packed histogram and its pointwise oracle agree exactly: widths
    # around multiples of 64, windows on the kernel's word runs (most of each
    # row, every slot in slot 0's layout) and on its cropped views, and at
    # most one slot doubled along one axis (``doubled`` = (slot, axis), each
    # taken mod its range)
    base = tuple(lead[:n - 1]) + (width,)
    spec = ConfigSpec(m[:n], BoxSpec(base), q=q, M=M)
    slot, axis = (-1, -1) if doubled is None else (doubled[0] % (n + 1),
                                                   doubled[1] % n)
    rng = make_rng(seed)
    inds = []
    for j in range(n + 1):
        dims = tuple(2 * d if (j, a) == (slot, axis) else d
                     for a, d in enumerate(base))
        inds.append(SetIndicator(BoxSpec(dims), rng.random(dims) < p))
    fast = counting.lambda_indicator_counts(inds, spec)
    naive = counting.lambda_indicator_counts_pointwise(inds, spec)
    assert fast.M == naive.M == M
    assert fast.counts.tolist() == naive.counts.tolist()
    packed = [A.packed for A in inds]
    rows = counting._useful_shifts(spec, [A.box.dims[j]
                                          for j, A in enumerate(inds[1:])])
    for path in sorted({_kernel_path(packed, base, row) for row in rows}):
        event(path)


def test_paths_agree_on_million_cell_box(rng):
    # 2^20 cells: the fast path and the membership loop stay bit-equal
    A = random_set(rng, (64, 16384), p=0.4)
    for r in (1, 5, 8):
        assert counting.popular_count(A, (1, 2), r) == \
            counting.popular_count_naive(A, (1, 2), r)


def test_multilinearity(rng):
    N = 2
    f0 = random_grid(rng, (N, N * N))
    g = random_grid(rng, (2 * N, N * N))
    h = random_grid(rng, (2 * N, N * N))
    f2 = random_grid(rng, (N, 2 * N * N))
    gh = GridFunction(g.box, g.values + h.values)
    lhs = counting.lambda_simple([f0, gh, f2], (1, 2), N)
    rhs = (counting.lambda_simple([f0, g, f2], (1, 2), N)
           + counting.lambda_simple([f0, h, f2], (1, 2), N))
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_one_boundedness(rng):
    for _ in range(10):
        N = 2
        fs = [random_grid(rng, (N, N * N)) for _ in range(3)]
        assert abs(counting.lambda_simple(fs, (1, 2), N)) <= 1 + 1e-12


def test_indicator_integer_vs_float_path(rng):
    box = BoxSpec((10, 100))
    inds = [random_set(rng, (10, 100)) for _ in range(3)]
    spec = ConfigSpec((1, 2), box, q=2, M=3)
    counts = counting.lambda_indicator_counts(inds, spec)
    exact = counts.sum() / (box.cells * spec.M)
    lam = counting.lambda_general([A.to_grid() for A in inds], spec)
    assert lam.real == pytest.approx(exact, rel=1e-9)
    assert abs(lam.imag) < 1e-12


def test_averaging_identity(rng):
    for _ in range(5):
        spec = ConfigSpec((1, 2), BoxSpec((3, 9)), q=1, M=3)
        fs = []
        for i in range(3):
            dims = tuple(2 * d if (i >= 1 and a == i - 1) else d
                         for a, d in enumerate((3, 9)))
            fs.append(random_grid(rng, dims))
        lhs, rhs, c_n = counting.averaging_identity_check(fs, spec)
        assert c_n == pytest.approx((13 * 37) / (3 * 9))
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_averaging_identity_with_modulus(rng):
    # q = 2 exercises the strided reads of the reparameterized slices
    spec = ConfigSpec((1, 2), BoxSpec((4, 16)), q=2, M=2)
    assert spec.validate().ok
    fs = []
    for i in range(3):
        dims = tuple(2 * d if (i >= 1 and a == i - 1) else d
                     for a, d in enumerate((4, 16)))
        fs.append(random_grid(rng, dims))
    lhs, rhs, _ = counting.averaging_identity_check(fs, spec)
    assert lhs == pytest.approx(rhs, abs=1e-9)


def averaging_rhs_oracle(fs, spec):
    """The right-hand side of the averaging identity, one x at a time: build
    the reparameterized windows f_i^(x,q) as grids and call lambda_simple
    on them for every x in prod [-2N_j, 2N_j]."""
    n, m, q, M = spec.n, spec.m, spec.q, spec.M
    dims = spec.box.dims
    inner_dims = tuple(M ** mi for mi in m)
    c_n = 1.0
    for d in dims:
        c_n *= (4 * d + 1) / d
    strides = tuple(q ** mi for mi in m)
    vals = []
    for idx in np.ndindex(*tuple(4 * d + 1 for d in dims)):
        x = tuple(c - 2 * d for c, d in zip(idx, dims))
        slices = []
        for i, f in enumerate(fs):
            out = tuple(2 * inner_dims[a] if (i >= 1 and a == i - 1)
                        else inner_dims[a] for a in range(n))
            starts = tuple(x[a] - 1 + strides[a] for a in range(n))
            win = read_window(f.values, starts, out, strides)
            slices.append(GridFunction(BoxSpec(out), win))
        vals.append(counting.lambda_simple(slices, m, M))
    return c_n * complex(np.mean(np.asarray(vals)))


@pytest.mark.parametrize("m, dims, q, M", [
    ((1,), (5,), 1, 5), ((2,), (9,), 1, 3), ((1,), (8,), 2, 4),
    ((2,), (16,), 2, 2), ((1, 2), (3, 9), 1, 3), ((1, 2), (4, 16), 2, 2),
    ((1, 3), (3, 27), 1, 2), ((1, 2), (5, 16), 2, 2)])
def test_averaging_identity_matches_per_x_oracle(rng, m, dims, q, M):
    # the batched right-hand side (every x in one operator call over stacked
    # strided windows) against the per-x loop
    spec = ConfigSpec(m, BoxSpec(dims), q=q, M=M)
    assert spec.validate().ok
    for kind in ("complex", "indicator"):
        fs = [random_grid(rng, tuple(2 * d if (i >= 1 and a == i - 1) else d
                                     for a, d in enumerate(dims)), kind)
              for i in range(len(m) + 1)]
        lhs, rhs, c_n = counting.averaging_identity_check(fs, spec)
        assert abs(rhs - averaging_rhs_oracle(fs, spec)) <= 1e-12
        assert lhs == pytest.approx(rhs, abs=1e-9)
        assert lhs == counting.lambda_general(fs, spec)


def test_averaging_identity_memory(rng):
    # the stacked windows are views; only the per-r products are allocated
    import tracemalloc
    spec = ConfigSpec((1, 2), BoxSpec((3, 9)), q=1, M=3)
    fs = [random_grid(rng, dims) for dims in ((3, 9), (6, 9), (3, 18))]
    tracemalloc.start()
    try:
        counting.averaging_identity_check(fs, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_lambda_sum_batch_axes_sum_the_stack(rng):
    # leading axes are batch axes: one call sums the operator over the stack
    base = (3, 9)
    grids = [[random_grid(rng, d).values for d in ((3, 9), (6, 9), (3, 18))]
             for _ in range(4)]
    stacked = [np.stack([g[i] for g in grids]).reshape((2, 2) + grids[0][i].shape)
               for i in range(3)]
    spec = ConfigSpec((1, 2), BoxSpec(base), 1, 3)
    got = counting._lambda_sum(stacked, spec)
    want = sum(counting._lambda_sum(g, spec) for g in grids)
    assert got == pytest.approx(want, abs=1e-12)


def test_integer_path_with_slack_boxes(rng):
    box = BoxSpec((8, 64))
    inds = [random_set(rng, (8, 64)), random_set(rng, (16, 64)),
            random_set(rng, (8, 128))]
    spec = ConfigSpec((1, 2), box, q=2, M=3)
    counts = counting.lambda_indicator_counts(inds, spec)
    exact = counts.sum() / (box.cells * spec.M)
    lam = counting.lambda_general([A.to_grid() for A in inds], spec)
    assert lam.real == pytest.approx(exact, abs=1e-12)
    assert lam.imag == 0


def test_compatibility_rejection(rng):
    f_bad = random_grid(rng, (3, 9))
    g = random_grid(rng, (2, 4))
    with pytest.raises(ValueError):
        counting.lambda_simple([f_bad, g, g], (1, 2), 2)


def test_bruteforce_oracles_stop_after_useful_range(rng, monkeypatch):
    # on 4x16 at m = (1, 2) only r <= 3 has r < 4 and r^2 < 16, so the
    # oracles read each point for three r however large the range is
    reads = []
    read_point = counting._read_point
    monkeypatch.setattr(counting, "_read_point",
                        lambda f, pt: reads.append(pt) or read_point(f, pt))
    ones = GridFunction.ones(BoxSpec((4, 16)))
    spec = ConfigSpec((1, 2), ones.box, q=1, M=1000)
    val = counting.lambda_general_bruteforce([ones] * 3, spec)
    assert len(reads) == 64 * 3 * 3
    assert val == pytest.approx(counting.lambda_general([ones] * 3, spec),
                                abs=1e-15)
    # q = 2: only r = 1 has 2r < 4 and (2r)^2 < 16
    reads.clear()
    spec2 = ConfigSpec((1, 2), ones.box, q=2, M=1000)
    val2 = counting.lambda_general_bruteforce([ones] * 3, spec2)
    assert len(reads) == 64 * 3
    assert val2 == pytest.approx(counting.lambda_general([ones] * 3, spec2),
                                 abs=1e-15)
    # the power box of N = 3 is 3x9; on it r = 3 has no base point
    fs = [random_grid(rng, (3, 9)) for _ in range(3)]
    al = PhaseTable.from_floats(BoxSpec((3, 9)), rng.random((3, 9)))
    reads.clear()
    b = counting.lambda_phased_bruteforce(fs, [al], (1, 2, 4), 3)
    assert len(reads) <= 27 * 2 * 3
    assert b == pytest.approx(counting.lambda_phased(fs, [al], (1, 2, 4), 3),
                              abs=1e-12)


def test_histogram_keeps_counted_prefix(rng):
    A = random_set(rng, (4, 16), p=0.7)
    hist = counting.best_popular_difference(A, (1, 2), 1 << 27).histogram
    assert hist.counts.shape == (3,) and len(hist) == 1 << 27
    naive = [counting.popular_count_naive(A, (1, 2), r) for r in (1, 2, 3)]
    assert hist.counts.tolist() == naive and hist.sum() == sum(naive)
    assert hist[0] == naive[0] and hist[2] == naive[2]
    assert hist[3] == 0 and hist[-1] == 0 and hist[(1 << 27) - 1] == 0
    with pytest.raises(IndexError):
        hist[1 << 27]
    assert list(hist[1:5]) == naive[1:] + [0, 0]
    assert len(hist[2:]) == (1 << 27) - 2 and hist[2:].any()
    assert not hist[3:].any() and hist[3:10].sum() == 0
    assert list(hist[0:6:2]) == [naive[0], naive[2], 0]
    with pytest.raises(ValueError):
        hist[::-1]
    assert hist.argmax() == int(np.argmax(naive))
    empty = counting.Histogram(np.zeros(0, dtype=np.int64), 4)
    assert empty.argmax() == 0 and list(empty) == [0] * 4 and not empty.any()


def test_sets_are_their_own_weights(rng):
    # a set passed as is gives bit for bit what its complex grid gives, in
    # every operator and oracle, with and without phases and with complex
    # weights mixed in after two sets (a product of sets stays boolean)
    def grids(ws):
        return [w.to_grid() if isinstance(w, SetIndicator) else w for w in ws]

    def check(fn, ws, *args):
        # repr tells every float apart, the sign of zero included
        a, b = repr(fn(ws, *args)), repr(fn(grids(ws), *args))
        assert a == b, (fn.__name__, a, b)

    for N, m in ((2, (1, 2)), (3, (1, 2)), (2, (1, 2, 3))):
        n = len(m)
        base = tuple(N ** mi for mi in m)
        for _ in range(4):
            # each f_j lives on the base box or on it doubled along axis j
            ws = [random_set(rng, base)] + [
                random_set(rng, tuple(2 * d if a == j and rng.random() < 0.5
                                      else d for a, d in enumerate(base)))
                for j in range(n)]
            check(counting.lambda_simple, ws, m, N)
            check(counting.lambda_general_bruteforce, ws, ConfigSpec.power(m, N))
            check(counting.lambda_phased, ws, [], m, N)
            for k in (1, 2):
                mk = m + tuple(range(m[-1] + 1, m[-1] + 1 + k))
                alphas = [PhaseTable.constant(BoxSpec(base),
                                              TorusPhase.exact(1, 3 + j))
                          for j in range(k - 1)]
                alphas.append(PhaseTable.from_floats(BoxSpec(base),
                                                     rng.random(base)))
                check(counting.lambda_phased, ws, alphas, mk, N)
                check(counting.lambda_phased_bruteforce, ws, alphas, mk, N)
            for q, M in ((1, 1), (1, 3), (2, 2)):
                spec = ConfigSpec(m, BoxSpec(base), q=q, M=M)
                check(counting.lambda_general, ws, spec)
                check(counting.lambda_general_bruteforce, ws, spec)
                mixed = ws[:2] + [random_grid(rng, w.box.dims) for w in ws[2:]]
                check(counting.lambda_general, mixed, spec)
                check(counting.lambda_general_bruteforce, mixed, spec)
