import math
from datetime import timedelta
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hofa import counting, kernels, setfile
from hofa.core import (MAX_EXPONENT, MAX_GRID_CELLS, BoxSpec, ConfigSpec,
                       GridFunction, Line, PhaseTable, SetIndicator,
                       TorusPhase, read_translates, read_window,
                       validate_config)
from hofa.rng import make_rng
from hofa.setfile import SetFileError, read_set, write_set


def test_box_basics():
    box = BoxSpec((4, 16))
    assert box.n == 2
    assert box.cells == 64
    with pytest.raises(ValueError):
        BoxSpec((0, 3))
    with pytest.raises(ValueError):
        BoxSpec(())


def test_box_chain_exact_integer_comparison():
    # 100^(1/2) == 10^(1/1) passes with equality
    assert BoxSpec((10, 100)).chain_issues((1, 2)) == []
    assert BoxSpec((9, 100)).chain_issues((1, 2)) != []
    # (1/2, 1/3) chain: 8^(1/3) = 2 <= 9^(1/2) = 3
    assert BoxSpec((9, 8)).chain_issues((2, 3)) == []


def test_validate_config_examples():
    ok = validate_config(ConfigSpec((1, 2), BoxSpec((10, 100)), q=1, M=10))
    assert ok.ok

    bad_m = validate_config(ConfigSpec((2, 2), BoxSpec((100, 100)), q=1, M=1))
    assert any("strictly increasing" in f for f in bad_m.failures())

    bad_range = validate_config(ConfigSpec((1, 2), BoxSpec((10, 100)), q=2, M=10))
    assert any("range condition" in f for f in bad_range.failures())


CAP = MAX_GRID_CELLS
# extents whose products land on both sides of the cell cap
EDGE_DIMS = st.one_of(st.integers(-1, 8),
                      st.sampled_from([1 << 13, 1 << 14, CAP - 1, CAP, CAP + 1]))
EDGE_RANGES = st.one_of(st.integers(-1, 3), st.integers(CAP - 2, CAP + 2))
# exponents in [-2, 70], drawn often next to both ends of [1, MAX_EXPONENT]
EXPONENT = st.one_of(st.integers(-2, 2), st.integers(MAX_EXPONENT - 2, 70),
                     st.integers(1, 70))
THEORY_CHECKS = {"m strictly increasing", "box chain", "range condition"}
SPEC_REFUSALS = ("exponents must be", "m has", "modulus q must",
                 "difference range M", "dense-storage cap",
                 "box dims must be positive")
# a big-integer power taken before the checks would overrun this
SPEC_DEADLINE = timedelta(milliseconds=500)


@st.composite
def spec_args(draw):
    """(m, dims, q, M), with one exponent per axis plus at times one more."""
    n = draw(st.integers(1, 3))
    m = (draw(st.lists(EXPONENT, min_size=n, max_size=n))
         + draw(st.lists(EXPONENT, max_size=1)))
    dims = draw(st.lists(EDGE_DIMS, min_size=n, max_size=n))
    return m, dims, draw(st.integers(-2, 5)), draw(EDGE_RANGES)


def _runnable(m, dims, q, M) -> bool:
    return (len(m) == len(dims) and all(1 <= v <= MAX_EXPONENT for v in m)
            and min(dims) >= 1 and math.prod(dims) <= CAP
            and q >= 1 and 1 <= M <= CAP)


@settings(max_examples=400, deadline=SPEC_DEADLINE)
@given(args=spec_args())
def test_config_spec_refuses_exactly_what_no_operator_runs(args):
    try:
        spec = ConfigSpec(args[0], BoxSpec(args[1]), *args[2:])
    except ValueError as exc:
        assert not _runnable(*args)
        assert any(msg in str(exc) for msg in SPEC_REFUSALS), exc
        return
    assert _runnable(*args)
    # a runnable spec can only miss the conditions of the theory
    failed = {name for name, ok, _ in spec.validate().checks if not ok}
    assert failed <= THEORY_CHECKS


@settings(max_examples=300, deadline=SPEC_DEADLINE)
@given(m=st.lists(EXPONENT, min_size=1, max_size=3),
       N=st.one_of(st.integers(-1, 20), EDGE_RANGES,
                   st.sampled_from([10 ** 30, 10 ** 100])))
def test_power_spec_is_the_hand_built_power_box(m, N):
    try:
        spec = ConfigSpec.power(m, N)
    except ValueError as exc:
        # N is checked before the powers, whose digits would not print
        assert any(msg in str(exc) for msg in SPEC_REFUSALS), exc
        spec = None
    hand = None
    if N >= 1:
        try:
            hand = ConfigSpec(m, BoxSpec([N ** v for v in m]), 1, N)
        except ValueError:
            pass
    assert spec == hand
    if spec is not None:
        assert spec.box.cells * spec.M == N * math.prod(N ** v for v in m)


def test_make_rng_seed_is_one_key_word():
    # 2^64 used to wrap to seed 0's streams
    for seed in (-1, 1 << 64, (1 << 64) + 5):
        with pytest.raises(ValueError, match="2\\^64"):
            make_rng(seed)
    make_rng((1 << 64) - 1)


def test_grid_function_out_of_box_reads_zero():
    g = GridFunction(BoxSpec((3, 4)), np.arange(12).reshape(3, 4).astype(complex))
    win = read_window(g.values, (2, 0), (3, 4))
    assert win[0, 0] == 8  # value at (3, 1)
    assert np.all(win[1:] == 0)
    win2 = read_window(g.values, (-1, -1), (3, 4))
    assert win2[0, 0] == 0 and win2[1, 1] == 0j + 0


def test_read_window_strided_matches_pointwise(rng):
    # out[k] = values[off + s k] when that index is in range, else 0
    dtypes = (np.int64, np.float64, np.complex128, bool)
    for trial in range(400):
        ndim = int(rng.integers(1, 4))
        shape = tuple(int(v) for v in rng.integers(1, 7, ndim))
        dtype = dtypes[trial % len(dtypes)]
        values = (rng.integers(1, 100, shape) % 3 if dtype is bool
                  else rng.integers(1, 100, shape)).astype(dtype)
        # offsets from well before the array to well past its end, so some
        # windows miss it entirely
        offs = tuple(int(v) for v in rng.integers(-12, 12, ndim))
        out_dims = tuple(int(v) for v in rng.integers(1, 7, ndim))
        strides = tuple(int(v) for v in rng.integers(1, 5, ndim))
        expect = np.zeros(out_dims, dtype=dtype)
        for k in np.ndindex(*out_dims):
            src = tuple(o + s * c for o, s, c in zip(offs, strides, k))
            if all(0 <= c < d for c, d in zip(src, shape)):
                expect[k] = values[src]
        got = read_window(values, offs, out_dims, strides)
        assert got.dtype == values.dtype and got.shape == out_dims
        assert np.array_equal(got, expect)
        if all(s == 1 for s in strides):
            plain = read_window(values, offs, out_dims)
            assert plain.dtype == values.dtype
            assert np.array_equal(plain, expect)
    grid = np.arange(24).reshape(4, 6)
    inside = read_window(grid, (1, 0), (2, 3), (2, 2))
    assert np.shares_memory(inside, grid)  # a view when fully in range
    assert inside.tolist() == [[6, 8, 10], [18, 20, 22]]
    assert not read_window(grid, (4, 0), (2, 3), (1, 1)).any()
    assert not read_window(grid, (-9, 0), (2, 3), (4, 1)).any()
    with pytest.raises(ValueError):
        read_window(grid, (0, 0), (2, 3), (0, 1))


def test_read_translates_matches_read_window(rng):
    # entry [t] of the stack is the window at first + t
    for trial in range(200):
        ndim = int(rng.integers(1, 4))
        shape = tuple(int(v) for v in rng.integers(1, 6, ndim))
        values = rng.integers(1, 100, shape).astype(
            (np.int64, np.complex128)[trial % 2])
        first = tuple(int(v) for v in rng.integers(-8, 6, ndim))
        counts = tuple(int(v) for v in rng.integers(1, 5, ndim))
        out_dims = tuple(int(v) for v in rng.integers(1, 5, ndim))
        strides = tuple(int(v) for v in rng.integers(1, 4, ndim))
        got = read_translates(values, first, counts, out_dims, strides)
        assert got.shape == counts + out_dims and got.dtype == values.dtype
        assert not got.flags.writeable
        for t in np.ndindex(*counts):
            offs = tuple(f + c for f, c in zip(first, t))
            assert np.array_equal(got[t], read_window(values, offs, out_dims,
                                                      strides))
    grid = np.arange(24).reshape(4, 6)
    inside = read_translates(grid, (0, 1), (2, 2), (2, 2))
    assert np.shares_memory(inside, grid)  # a view when every read is inside
    assert inside[1, 1].tolist() == [[8, 9], [14, 15]]  # from (1, 2)
    with pytest.raises(ValueError):
        read_translates(grid, (0, 0), (0, 1), (2, 2))
    with pytest.raises(ValueError):
        read_translates(grid, (0, 0), (1, 1), (2, 2), (1, 0))


def test_grid_function_caps():
    with pytest.raises(ValueError):
        GridFunction.zeros(BoxSpec((2, 2, 2, 2)))
    with pytest.raises(ValueError):
        GridFunction(BoxSpec((2,)), np.array([1.5, 0]), bounded=True)


def test_indicator_count_preserved_under_coercion():
    mask = np.zeros((4, 4), dtype=bool)
    mask[0, 0] = mask[2, 3] = True
    A = SetIndicator(BoxSpec((4, 4)), mask)
    assert A.count == 2
    g = A.to_grid()
    assert g.values.sum() == 2
    assert A.density == 2 / 16


def test_members_row_major_axis1_slowest():
    mask = np.zeros((2, 3), dtype=bool)
    mask[0, 2] = mask[1, 0] = True
    A = SetIndicator(BoxSpec((2, 3)), mask)
    assert [tuple(p) for p in A.members()] == [(1, 3), (2, 1)]


def test_torus_phase_exact_distance():
    p = TorusPhase.exact(3, 7)
    assert p.norm_dist() == Fraction(3, 7)
    q = TorusPhase.exact(5, 7)
    assert q.norm_dist() == Fraction(2, 7)
    assert TorusPhase.exact(10, 7).frac == Fraction(3, 7)  # reduced mod 1
    assert (p + q).frac == Fraction(1, 7)
    assert (-p).frac == Fraction(4, 7)
    assert abs(TorusPhase.exact(1, 2).e() + 1) < 1e-15


def test_phase_table_reads_zero_outside():
    t = PhaseTable.from_rationals(BoxSpec((3,)), np.array([1, 2, 3]), 5)
    assert t.at((2,)).frac == Fraction(2, 5)
    assert t.at((9,)).frac == 0
    assert t.is_exact
    snapped = PhaseTable.from_floats(BoxSpec((2,)), np.array([0.249, 0.755])).snapped(4)
    assert list(snapped.numerators) == [1, 3]


def test_line_window_and_shift():
    f = Line(5, np.array([1.0, 2.0, 3.0]))
    assert f.at(6) == 2
    assert f.at(4) == 0
    assert list(f.window(4, 8).real) == [0, 1, 2, 3, 0]
    g = f.shifted(2)  # g(x) = f(x + 2)
    assert g.at(3) == 1
    assert f.inner(f) == pytest.approx(14)


def test_setfile_text_roundtrip(tmp_path, rng):
    from conftest import random_set
    A = random_set(rng, (5, 9))
    path = tmp_path / "a.box"
    write_set(A, path)
    B = read_set(path)
    assert B.box.dims == A.box.dims
    assert np.array_equal(A.mask, B.mask)
    head = path.read_text().splitlines()[0]
    assert head == "box 5 9"


def test_setfile_binary_roundtrip(tmp_path, rng):
    from conftest import random_set
    A = random_set(rng, (7, 33))
    path = tmp_path / "a.boxb"
    write_set(A, path, binary=True)
    raw = path.read_bytes()
    assert raw.startswith(b"HOFA1\n")
    B = read_set(path)
    assert np.array_equal(A.mask, B.mask)


def test_setfile_binary_read_memory(tmp_path, rng):
    # the unpacked bytes are the mask itself; a second bool copy would put
    # the peak above 2 bytes per cell
    import tracemalloc
    from conftest import random_set
    A = random_set(rng, (1024, 8192), p=0.5)
    path = tmp_path / "big.boxb"
    write_set(A, path, binary=True)
    tracemalloc.start()
    try:
        B = read_set(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * A.box.cells
    assert np.array_equal(A.mask, B.mask)
    assert B.count == int(A.mask.sum())


def test_setfile_text_read_memory(tmp_path, rng):
    # member lines are parsed a block at a time; decoding and splitting the
    # whole file held about 84 bytes per member
    import tracemalloc
    from conftest import random_set
    A = random_set(rng, (256, 1024), p=0.5)
    path = tmp_path / "dense.box"
    write_set(A, path)
    tracemalloc.start()
    try:
        B = read_set(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= A.box.cells + A.packed.words.nbytes + 2 * 2**20
    assert np.array_equal(A.mask, B.mask)


def test_setfile_text_write_memory(tmp_path, rng):
    # member lines are built a block of cells at a time; building them all
    # in one list took about 95 bytes per member
    import tracemalloc
    from conftest import random_set
    A = random_set(rng, (256, 1024), p=0.5)
    path = tmp_path / "dense.box"
    tracemalloc.start()
    try:
        write_set(A, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= A.box.cells + 2 * 2**20
    assert np.array_equal(read_set(path).mask, A.mask)


@pytest.mark.parametrize("block", [1, 7, setfile.WRITE_BLOCK_CELLS])
def test_setfile_text_write_blocks(tmp_path, rng, monkeypatch, block):
    # the file is the header and one line per member in row-major order,
    # whatever the block boundaries
    from conftest import random_set
    monkeypatch.setattr(setfile, "WRITE_BLOCK_CELLS", block)
    for dims, p in (((4, 9), 0.0), ((300,), 0.3), ((5, 7, 70), 0.6),
                    ((3, 5), 1.0)):
        A = random_set(rng, dims, p=p)
        path = tmp_path / "a.box"
        write_set(A, path)
        want = "box " + " ".join(map(str, dims)) + "\n" + "".join(
            " ".join(str(int(c)) for c in pt) + "\n" for pt in A.members())
        assert path.read_bytes() == want.encode()


@pytest.mark.parametrize("block", [1, 3, setfile.TEXT_BLOCK_LINES])
def test_setfile_text_member_blocks(tmp_path, monkeypatch, block):
    # numbers too long for int64, blank lines and repeats take the
    # line-by-line path of their block and read as before
    monkeypatch.setattr(setfile, "TEXT_BLOCK_LINES", block)
    path = tmp_path / "a.box"
    path.write_bytes(b"\n box 4 5\n1 1\n\n 2\t3 \r\n" + b"0" * 30
                     + b"4 5\n1 1\n  \n3 2")
    A = read_set(path)
    assert [tuple(p) for p in A.members()] == [(1, 1), (2, 3), (3, 2), (4, 5)]
    # the first bad line raises, with the message of its fault
    good = "box 4 5\n1 1\n2 2\n"
    for tail, match in (("1 2 3\n", "member line has 3 coords"),
                        ("1_0 2\n5 1\n", "bad member line: '1_0 2'"),
                        ("5 1\n1_0 2\n", "member '5 1' outside box 4x5"),
                        ("0 1\n", "member '0 1' outside box"),
                        ("1 " * 2100 + "\n", "member line longer than 4096"),
                        ("1 \xff\n", "not UTF-8")):
        path.write_bytes(good.encode() + tail.encode("latin-1"))
        with pytest.raises(SetFileError, match=match):
            read_set(path)


def test_setfile_rejects_garbage(tmp_path):
    p = tmp_path / "bad.box"
    p.write_text("nonsense 1 2\n")
    with pytest.raises(SetFileError):
        read_set(p)
    p2 = tmp_path / "oob.box"
    p2.write_text("box 2 2\n3 1\n")
    with pytest.raises(SetFileError):
        read_set(p2)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(prefix=st.sampled_from([b"", b"HOFA1\n", b"box ", b"HOFA1\nbox "]),
       body=st.binary(max_size=40))
def test_read_set_fuzz_returns_set_or_set_file_error(tmp_path, prefix, body):
    # any bytes either read as a set or are refused as a bad set file
    path = tmp_path / "fuzz.box"
    path.write_bytes(prefix + body)
    try:
        A = read_set(path)
    except SetFileError:
        return
    assert isinstance(A, SetIndicator)
    assert A.mask.shape == A.box.dims


def test_read_set_refuses_bad_boxes(tmp_path):
    path = tmp_path / "a.box"
    for header in ("box 0 3", "box 3 -1", "box " + "1 " * 40):
        for data in (header + "\n", "HOFA1\n" + header + "\n"):
            path.write_text(data)
            with pytest.raises(SetFileError):
                read_set(path)


# widths on and off multiples of 8 and 64, and any width up to 200
WIDTHS = st.one_of(st.sampled_from([1, 7, 8, 9, 56, 63, 64, 65, 72, 127, 128,
                                    129, 192, 193, 200]),
                   st.integers(1, 200))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lead=st.lists(st.integers(1, 5), max_size=2), width=WIDTHS,
       p=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
       seed=st.integers(0, 2**32 - 1), M=st.integers(1, 8))
def test_binary_read_gives_packed_words(tmp_path, lead, width, p, seed, M):
    # a binary file is read straight into the words pack_mask would build;
    # the count, the lazily unpacked mask and the histogram agree with the
    # boolean mask
    dims = tuple(lead) + (width,)
    n = len(dims)
    mask = np.random.default_rng(seed).random(dims) < p
    path = tmp_path / "a.boxb"
    write_set(SetIndicator(BoxSpec(dims), mask), path, binary=True)
    B = read_set(path)
    assert B.box.dims == dims
    packed = kernels.pack_mask(mask)
    assert B.packed.shape == packed.shape
    assert B.packed.words.dtype == np.uint64
    assert np.array_equal(B.packed.words, packed.words)
    assert B.count == int(mask.sum())
    assert np.array_equal(B.mask, mask) and not B.mask.flags.writeable
    m = tuple(range(1, n + 1))
    hist = counting.best_popular_difference(B, m, M).histogram
    naive = [kernels.pattern_count_pointwise([mask] * (n + 1), dims,
                                             tuple(r ** mj for mj in m))
             for r in range(1, M + 1)]
    assert list(hist) == naive


@pytest.mark.parametrize("dims", [(3, 5000), (1, 3000), (2, 1, 2077)])
def test_binary_read_blocks_split_rows(tmp_path, rng, monkeypatch, dims):
    # rows longer than a read block are read one block of cells at a time
    monkeypatch.setattr(setfile, "READ_BLOCK_CELLS", 256)
    mask = rng.random(dims) < 0.5
    path = tmp_path / "a.boxb"
    write_set(SetIndicator(BoxSpec(dims), mask), path, binary=True)
    B = read_set(path)
    assert np.array_equal(B.packed.words, kernels.pack_mask(mask).words)


def test_setfile_binary_payload_length_checked(tmp_path):
    mask = np.zeros((3, 13), dtype=bool)
    path = tmp_path / "a.boxb"
    write_set(SetIndicator(BoxSpec((3, 13)), mask), path, binary=True)
    good = path.read_bytes()
    for data in (good[:-1], good + b"\x00"):
        path.write_bytes(data)
        with pytest.raises(SetFileError, match="payload"):
            read_set(path)


def test_packed_read_and_histogram_memory(tmp_path, rng):
    # the set stays in its packed words (1/8 byte per cell) from the file to
    # the histogram; a boolean mask anywhere on the way is 1 byte per cell
    import tracemalloc
    dims = (1024, 8192)
    mask = rng.random(dims) < 0.5
    path = tmp_path / "big.boxb"
    write_set(SetIndicator(BoxSpec(dims), mask), path, binary=True)
    want = counting.best_popular_difference(
        SetIndicator(BoxSpec(dims), mask), (1, 2), 60)
    del mask
    tracemalloc.start()
    try:
        B = read_set(path)
        res = counting.best_popular_difference(B, (1, 2), 60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * B.box.cells
    assert list(res.histogram) == list(want.histogram)
    assert (res.r_star, res.count) == (want.r_star, want.count)
