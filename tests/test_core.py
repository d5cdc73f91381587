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
                       MAX_TABLE_DENOMINATOR, TorusPhase, polynomial_phases,
                       read_translates, read_window)
from hofa import rng as rng_module
from hofa.rng import make_rng, random_mask
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


def test_theory_issues_examples():
    ok = ConfigSpec((1, 2), BoxSpec((10, 100)), q=1, M=10).theory_issues()
    assert ok == []

    bad_m = ConfigSpec((2, 2), BoxSpec((100, 100)), q=1, M=1).theory_issues()
    assert any("strictly increasing" in f for f in bad_m)

    bad_range = ConfigSpec((1, 2), BoxSpec((10, 100)), q=2, M=10).theory_issues()
    assert any("range condition" in f for f in bad_range)


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
    failed = {issue.split(":")[0] for issue in spec.theory_issues()}
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


@pytest.mark.parametrize("dims, block", [
    ((1000,), 64), ((7, 300), 64), ((3, 5, 41), 100), ((2, 3), 4),
    ((2, rng_module.MASK_BLOCK_CELLS + 3), rng_module.MASK_BLOCK_CELLS),
    ((rng_module.MASK_BLOCK_CELLS + 1,), rng_module.MASK_BLOCK_CELLS)])
def test_random_mask_is_the_one_shot_draw(monkeypatch, dims, block):
    # drawn block by block, rows wider than a block included, from the same
    # stream as one rng.random(dims) < p
    monkeypatch.setattr(rng_module, "MASK_BLOCK_CELLS", block)
    for p in (0.0, 0.3, 1.0):
        got = random_mask(make_rng(9), dims, p)
        assert got.shape == dims and got.dtype == bool
        assert np.array_equal(got, make_rng(9).random(dims) < p)


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
    with pytest.raises(ValueError, match="shape"):
        GridFunction(BoxSpec((2,)), np.zeros(3))


def test_grid_function_keeps_real_weights_real(rng):
    box = BoxSpec((3, 9))
    vals = rng.random(box.dims) - 0.5
    real = [GridFunction(box, vals), GridFunction(box, vals.astype(complex)),
            GridFunction(box, (vals > 0).astype(np.int64)),
            GridFunction.ones(box), GridFunction.zeros(box),
            SetIndicator(box, vals > 0).to_grid()]
    for g in real:
        assert g.values.dtype == np.float64
    assert np.array_equal(real[1].values, vals)
    cplx = vals.astype(complex)
    cplx[2, 5] += 1e-300j
    g = GridFunction(box, cplx)
    assert g.values.dtype == np.complex128 and g.values[2, 5].imag == 1e-300
    # sup |f| on real storage counts negative values
    assert GridFunction(box, -np.ones(box.dims)).max_abs() == 1.0
    assert GridFunction(BoxSpec((2,)), np.array([-1.5, 0.5])).max_abs() == 1.5
    # the operators take real grids as they are
    spec = ConfigSpec((1, 2), BoxSpec((3, 9)), q=1, M=3)
    fs = [GridFunction(BoxSpec(d), rng.random(d) - 0.5)
          for d in ((3, 9), (6, 9), (3, 18))]
    lam = counting.lambda_general(fs, spec)
    assert lam.imag == 0
    assert lam == pytest.approx(counting.lambda_general_bruteforce(fs, spec),
                                abs=1e-14)


def test_indicator_count_preserved_under_coercion():
    mask = np.zeros((4, 4), dtype=bool)
    mask[0, 0] = mask[2, 3] = True
    A = SetIndicator(BoxSpec((4, 4)), mask)
    assert A.count == 2
    g = A.to_grid()
    assert g.values.sum() == 2
    assert A.density == 2 / 16


def test_indicator_counts_a_read_set_once():
    # a binary set file is read through such a reader; its count is one band
    # pass, not one per use of count or density
    mask = np.zeros((4, 70), dtype=bool)
    mask[1, 3] = mask[3, 69] = True
    words = kernels.pack_mask(mask).words
    calls = []

    def read(start, stop):
        calls.append((start, stop))
        return kernels.PackedMask((stop - start, 70), words[start:stop])

    A = SetIndicator(BoxSpec((4, 70)), read)
    assert (A.count, A.density, A.count) == (2, 2 / 280, 2)
    assert calls == [(0, 4)]


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
    assert p.times_int(-1).frac == Fraction(4, 7)
    assert abs(TorusPhase.exact(1, 2).e() + 1) < 1e-15


def test_torus_phase_reads_a_float_exactly():
    # a float is its exact binary value, not a float phase of its own
    assert TorusPhase(0.1).frac == Fraction(0.1)
    assert TorusPhase(-0.25).frac == Fraction(3, 4)
    assert TorusPhase(0.1) == TorusPhase(Fraction(0.1))
    assert TorusPhase(0.1).times_int(3 ** 40).frac == (
        Fraction(0.1) * 3 ** 40 % 1)


def test_torus_phase_constructor_reduces_mod_1():
    half = TorusPhase(Fraction(3, 2))
    assert half == TorusPhase.exact(1, 2)
    assert half.frac == Fraction(1, 2) and half.approx == 0.5
    assert half.norm_dist() == Fraction(1, 2)
    assert TorusPhase(-3) == TorusPhase(0)


BIG = st.integers(-2**80, 2**80)
PHASE_VALUES = st.one_of(
    BIG, st.builds(Fraction, BIG, st.integers(1, 2**80)),
    st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=300, deadline=None)
@given(x=PHASE_VALUES, k=BIG)
def test_torus_phase_reduces_every_value_mod_1(x, k):
    p = TorusPhase(x)
    assert 0 <= p.frac < 1
    assert 0 <= p.norm_dist() <= Fraction(1, 2)
    # a float is its exact binary value, so it is shifted exactly
    exact = Fraction(x)
    assert TorusPhase(exact + k) == p
    if isinstance(x, float):
        assert p == TorusPhase(exact)
    else:
        assert TorusPhase(x + k) == p


def test_phase_table_reads_zero_outside():
    t = PhaseTable(BoxSpec((3,)), np.array([1, 2, 3]), 5)
    assert t.at((2,)).frac == Fraction(2, 5)
    assert t.at((9,)).frac == 0
    assert t.frac.tolist() == [0.2, 0.4, 0.6]
    snapped = PhaseTable(BoxSpec((2,)), np.array([249, 755]), 1000).snapped(4)
    assert list(snapped.numerators) == [1, 3]
    assert snapped.denominator == 4


@pytest.mark.filterwarnings("error")
def test_phase_table_snapped_near_2_63_follows_its_rule():
    # 1 - 2^-62 reads 1.0 as a float, so rint(frac T) is 2^63: the rule
    # rint(frac T) mod T gives 1 at T = 2^63 - 1 and 0 at T = 2^63 (an int64
    # cast of 2^63 warned and gave T - 1)
    t = PhaseTable(BoxSpec((2,)), np.array([2**62 - 1, 2**61]), 2**62)
    for T, top in ((2**63 - 1, 1), (2**63, 0)):
        snapped = t.snapped(T)
        assert snapped.numerators.tolist() == [top, 2**62]
        assert snapped.denominator == T


def test_phase_table_checks_denominator_and_numerators():
    # numerators of any integer dtype are stored as int64, reduced mod T
    t = PhaseTable(BoxSpec((3,)), np.array([-1, 7, 5], dtype=np.int8), 5)
    assert t.numerators.dtype == np.int64 and t.numerators.tolist() == [4, 2, 0]
    # T = 2^63 is the largest: every numerator below it is an int64
    top = PhaseTable(BoxSpec((2,)), np.array([-1, 2**63 - 1]), 2**63)
    assert top.numerators.tolist() == [2**63 - 1, 2**63 - 1]
    assert top.at((1,)).frac == Fraction(2**63 - 1, 2**63)
    big = PhaseTable(BoxSpec((1,)), np.array([2**64 - 1], dtype=np.uint64),
                     2**63 - 1)
    assert big.numerators.tolist() == [(2**64 - 1) % (2**63 - 1)]
    assert PhaseTable.zeros(BoxSpec((2,))).denominator == 1
    for T in (0, -3, 2**63 + 1, 2**65, 2.0, None):
        with pytest.raises(ValueError, match=r"denominator T in \[1, 2\^63\]"):
            PhaseTable(BoxSpec((1,)), np.array([1]), T)
    with pytest.raises(ValueError, match="integers"):
        PhaseTable(BoxSpec((2,)), np.array([0.25, 0.5]), 4)
    with pytest.raises(ValueError, match="integers"):
        PhaseTable(BoxSpec((1,)), np.array([2**70]), 3)
    with pytest.raises(ValueError, match="shape"):
        PhaseTable(BoxSpec((3,)), np.array([1, 2]), 3)
    # a constant phase past 2^63 is refused before its numerator is stored
    # (np.full raised numpy's "Python int too large to convert to C long")
    with pytest.raises(ValueError, match=r"\[1, 2\^63\]"):
        PhaseTable.constant(BoxSpec((2,)), TorusPhase.exact(2**64 + 1, 2**65))
    c = PhaseTable.constant(BoxSpec((2,)), TorusPhase.exact(-1, 2**63))
    assert c.numerators.tolist() == [2**63 - 1] * 2 and c.denominator == 2**63


def test_polynomial_phases_exact_at_any_degree():
    # exact coefficients: P(r) mod 1 rounded once, past 2^53 and at degree 64
    P = {1: TorusPhase.exact(2, 7), 40: TorusPhase.exact(-5, 999_983),
         64: TorusPhase.exact(1, 3)}
    want = [float(sum(a.frac * r ** d for d, a in P.items()) % 1)
            for r in range(1, 51)]
    assert polynomial_phases(P, 50).tolist() == want
    assert polynomial_phases({}, 3).tolist() == [0.0] * 3
    assert polynomial_phases(P, 0).shape == (0,)
    # a float coefficient is its exact binary value: still rounded once,
    # where float products lose the phase of r^40
    for x, d in ((0.25, 2), (0.1, 40)):
        F = {1: TorusPhase(x), d: TorusPhase.exact(1, 3)}
        assert polynomial_phases(F, 50).tolist() == [
            float((Fraction(x) * r + Fraction(1, 3) * r ** d) % 1)
            for r in range(1, 51)]


def test_phase_table_times_int():
    # an exact table's value times k mod 1, from its numerators, zero
    # outside the table
    T, k = 999_983, 7 ** 40
    t = PhaseTable(BoxSpec((3,)), np.array([1, 2, T - 1]), T)
    want = [0.0] + [float(Fraction(v * k, T) % 1) for v in (1, 2, T - 1)] + [0.0]
    assert t.times_int(k, (-1,), (5,)).tolist() == want
    # (T - 1)^2 is the largest product, at most the int64 maximum
    T = MAX_TABLE_DENOMINATOR
    top = PhaseTable(BoxSpec((1,)), np.array([T - 1]), T)
    assert top.times_int(T - 1, (0,), (1,)).tolist() == [1 / T]
    past = PhaseTable(BoxSpec((1,)), np.array([1]), T + 1)
    with pytest.raises(ValueError, match=r"\(T - 1\)\^2 <= 2\^63 - 1"):
        past.times_int(2, (0,), (1,))
    # a negative k is reduced mod T as well
    T = 999_983
    t = PhaseTable(BoxSpec((3,)), np.array([1, 2, T - 1]), T)
    assert t.times_int(-1, (0,), (3,)).tolist() == [(T - 1) / T, (T - 2) / T,
                                                     1 / T]



def test_times_int_takes_integers_only():
    # a float k gave float-derived phases: 0.5 times [1, 2, 3]/7 returned
    # [1/14, 1/7, 3/14]; integers of numpy pass as their Python values
    table = PhaseTable(BoxSpec((3,)), [1, 2, 3], 7)
    for k in (0.5, 2.0, np.float64(3.0), Fraction(1, 2), "2"):
        with pytest.raises(ValueError, match="integer multipliers"):
            table.times_int(k, (0,), (3,))
        with pytest.raises(ValueError, match="integer multipliers"):
            TorusPhase.exact(1, 3).times_int(k)
    for k in (np.int64(5), np.uint8(5), True):
        assert table.times_int(k, (0,), (3,)).tolist() == \
            table.times_int(int(k), (0,), (3,)).tolist()
        assert TorusPhase.exact(1, 3).times_int(k) == \
            TorusPhase.exact(int(k), 3)

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
