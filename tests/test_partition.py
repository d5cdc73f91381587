import numpy as np
import pytest

from hofa.core import Line
from hofa.partition import (APPartition, Atoms, RefinedPartition,
                            almost_refinement_delta, cond_expect,
                            projection_lk_norm, refinement_pythagoras,
                            refines, self_adjointness_check, shift_norm_delta)
from hofa.rng import make_rng


def rand_line(rng, n=None, lo=-40, hi=40, kind="complex"):
    n = n or int(rng.integers(5, 300))
    if kind == "complex":
        vals = rng.random(n) * np.exp(2j * np.pi * rng.random(n))
    else:
        vals = (rng.random(n) < 0.5).astype(complex)
    return Line(int(rng.integers(lo, hi)), vals)


def test_atom_of_examples():
    P = APPartition(2, 3)
    s, r = P.atom_of(7)
    assert (s, r) == (1, 1)
    assert P.atom_points(s, r) == [7, 9, 11]
    assert APPartition(1, 1).atom_of(1) == (0, 1)


def test_atom_membership_random():
    rng = make_rng(1)
    for _ in range(2000):
        q = int(rng.integers(1, 9))
        L = int(rng.integers(1, 9))
        x = int(rng.integers(-10**5, 10**5))
        P = APPartition(q, L)
        s, r = P.atom_of(x)
        pts = P.atom_points(s, r)
        assert x in pts
        assert len(pts) == L
        assert 0 < r <= q


def test_atoms_tile_disjointly():
    P = APPartition(3, 4)
    seen = {}
    for x in range(-30, 31):
        lab = P.atom_of(x)
        seen.setdefault(lab, []).append(x)
    for lab, pts in seen.items():
        full = P.atom_points(*lab)
        assert [p for p in full if -30 <= p <= 30] == pts


def test_atom_sums_match_pointwise_labels():
    # windows shorter than q and than qL included; int64 sums beyond 2^53
    # must be exact, and atoms are numbered in (s, r) label order
    rng = make_rng(12)
    for _ in range(300):
        parts = tuple(APPartition(int(rng.integers(1, 60)), int(rng.integers(1, 12)))
                      for _ in range(int(rng.integers(1, 3))))
        P = parts[0] if len(parts) == 1 else RefinedPartition(parts)
        start = int(rng.integers(-100, 100))
        n = int(rng.integers(0, 40))
        vals = rng.integers(-2**56, 2**56, size=(n, 3))
        atoms = Atoms(P, start, n)
        sums = atoms.sum(vals)
        assert sums.dtype == np.int64
        expect = {}
        for i in range(n):
            row = expect.setdefault(P.atom_of(start + i), [0, 0, 0, 0])
            row[:3] = [a + int(v) for a, v in zip(row, vals[i])]
            row[3] += 1
        labels = sorted(expect)
        assert [labels[a] for a in atoms.atom] == \
            [P.atom_of(start + i) for i in range(n)]
        assert sums.tolist() == [expect[lab][:3] for lab in labels]
        assert atoms.sizes.tolist() == [expect[lab][3] for lab in labels]
        assert atoms.sum(vals[:, 0]).tolist() == [expect[lab][0] for lab in labels]


def test_atom_sums_in_coordinate_order_skip_the_sorted_copy():
    # a (1, L) partition numbers its atoms in coordinate order, so the rows
    # are summed where they lie; the sums are bit for bit the sorted ones
    vals = make_rng(13).random((40, 300))
    lines = np.moveaxis(vals, 1, 0)  # a strided view, as the axis sums use
    for P, in_order in ((APPartition(1, 1), True), (APPartition(1, 7), True),
                        (APPartition(1, 300), True), (APPartition(3, 4), False),
                        (RefinedPartition((APPartition(1, 5),
                                           APPartition(1, 3))), True)):
        atoms = Atoms(P, 1, 300)
        assert atoms.in_order is in_order
        want = np.add.reduceat(lines[atoms.order], atoms.first, axis=0)
        assert np.array_equal(atoms.sum(lines), want)


def test_cond_expect_indicator_of_aligned_interval():
    # qL divides 12, so atoms sit inside or outside and the projection fixes
    # the indicator
    f = Line(1, np.ones(12))
    p = cond_expect(f, APPartition(2, 3))
    assert np.allclose(p.window(1, 12), 1.0)
    assert abs(p.at(0)) == 0 and abs(p.at(13)) == 0


def test_cond_expect_parity_function():
    N = 12
    vals = np.array([(-1.0) ** x for x in range(1, N + 1)], dtype=complex)
    f = Line(1, vals)
    p = cond_expect(f, APPartition(2, 3))
    assert np.allclose(p.window(1, N), vals)


def test_cond_expect_matches_per_atom_average():
    rng = make_rng(2)
    f = Line(1, rng.random(200) + 1j * rng.random(200))
    P = APPartition(3, 4)
    p = cond_expect(f, P)
    for x in (1, 5, 37, 199, 200):
        pts = P.atom_points(*P.atom_of(x))
        expect = sum(f.at(y) for y in pts) / P.L
        assert p.at(x) == pytest.approx(expect, abs=1e-12)


def test_cond_expect_refined_partition_exact():
    rng = make_rng(3)
    f = Line(1, rng.random(60).astype(complex))
    P = RefinedPartition((APPartition(2, 5), APPartition(3, 4)))
    p = cond_expect(f, P)
    # brute-force atom of x: points sharing both labels
    for x in (1, 7, 30, 60):
        labels = P.atom_of(x)
        pts = [y for y in range(-40, 140) if P.atom_of(y) == labels]
        expect = sum(f.at(y) for y in pts) / len(pts)
        assert p.at(x) == pytest.approx(expect, abs=1e-12)


def test_projection_lk_norm_examples():
    assert projection_lk_norm(Line(1, np.ones(12)), APPartition(2, 3), 2) == \
        pytest.approx(12.0)
    assert projection_lk_norm(Line(1, np.zeros(5)), APPartition(2, 2), 3) == 0.0
    rng = make_rng(4)
    f = Line(1, rng.choice([-1.0, 1.0], 100).astype(complex))
    P = APPartition(3, 5)
    assert projection_lk_norm(f, P, 4) == \
        pytest.approx(cond_expect(f, P).lk_pow(4), abs=1e-10)


def test_idempotence_and_contraction():
    rng = make_rng(5)
    for _ in range(50):
        f = rand_line(rng)
        P = APPartition(int(rng.integers(1, 6)), int(rng.integers(1, 9)))
        p1 = cond_expect(f, P)
        p2 = cond_expect(p1, P)
        lo, hi = min(p1.start, p2.start), max(p1.stop, p2.stop)
        assert np.abs(p1.window(lo, hi - 1) - p2.window(lo, hi - 1)).max() < 1e-12
        assert p1.l2sq() <= f.l2sq() + 1e-9


def test_indicator_projection_exact_numerators():
    # indicator atom sums are exact integers: every projected value is an
    # integer divided by L with one correctly rounded division, and the
    # re-projection drifts by at most one ulp
    rng = make_rng(6)
    f = rand_line(rng, kind="indicator")
    P = APPartition(3, 7)
    p1 = cond_expect(f, P)
    for x in range(p1.start, p1.stop):
        pts = P.atom_points(*P.atom_of(x))
        S = sum(int(f.at(y).real) for y in pts)
        assert p1.at(x) == np.float64(S) / P.L
    p2 = cond_expect(p1, P)
    lo, hi = min(p1.start, p2.start), max(p1.stop, p2.stop)
    assert np.abs(p1.window(lo, hi - 1) - p2.window(lo, hi - 1)).max() <= 2**-50


def test_shift_norm_delta_clauses():
    rng = make_rng(7)
    f = Line(1, (rng.random(500) * np.exp(2j * np.pi * rng.random(500))))
    P = APPartition(10, 7)
    exact = shift_norm_delta(f, P, P.block)
    assert exact.clause == "periodic"
    assert exact.lhs == pytest.approx(exact.rhs, abs=1e-9)
    zero = shift_norm_delta(f, P, 0)
    assert zero.clause == "periodic" and zero.lhs == pytest.approx(zero.rhs)

    small = shift_norm_delta(f, P, 3)
    assert small.clause == "sub-q"
    assert small.bound == pytest.approx(8 * 3 / 10 * 500)
    assert abs(small.lhs - small.rhs) <= small.bound

    mult = shift_norm_delta(f, P, 4 * 10)
    assert mult.clause == "multiple-of-q"
    assert abs(mult.lhs - mult.rhs) <= mult.bound

    none = shift_norm_delta(f, P, 13)  # not < q, not a multiple of q
    assert none.clause is None and none.bound is None


def test_refines_structural():
    assert refines(APPartition(1, 12), APPartition(1, 4))
    assert refines(APPartition(2, 10), APPartition(2, 5))
    assert not refines(APPartition(2, 10), APPartition(3, 5))
    assert not refines(APPartition(1, 4), APPartition(1, 3))
    both = RefinedPartition((APPartition(2, 10), APPartition(6, 1)))
    assert refines(APPartition(2, 10), both)


def test_refinement_pythagoras_examples():
    f = Line(1, np.ones(12))
    rep0 = refinement_pythagoras(f, APPartition(1, 12), APPartition(1, 12))
    assert rep0.diff_energy == pytest.approx(rep0.energy_gap, abs=1e-12)
    rep = refinement_pythagoras(f, APPartition(1, 12), APPartition(1, 4))
    assert rep.diff_energy == pytest.approx(rep.energy_gap, abs=1e-10)
    assert rep.tower_fine_dev < 1e-12 and rep.tower_coarse_dev < 1e-12

    rng = make_rng(8)
    g = rand_line(rng, 200)
    rep2 = refinement_pythagoras(g, APPartition(2, 10), APPartition(2, 5))
    assert rep2.diff_energy == pytest.approx(rep2.energy_gap, abs=1e-10)

    with pytest.raises(ValueError):
        refinement_pythagoras(g, APPartition(2, 10), APPartition(3, 5))


def test_monotone_energy_under_refinement():
    rng = make_rng(9)
    for _ in range(30):
        f = rand_line(rng)
        fine = APPartition(2, 5)
        coarse = APPartition(1, 30)
        assert cond_expect(f, fine).l2sq() >= cond_expect(f, coarse).l2sq() - 1e-9


def test_self_adjointness():
    rng = make_rng(10)
    f, g = rand_line(rng, 300), rand_line(rng, 300)
    P = APPartition(4, 6)
    a, b = self_adjointness_check(f, g, P)
    assert a == pytest.approx(b, abs=1e-12 * max(1, abs(a)))
    z = Line(1, np.zeros(4))
    assert self_adjointness_check(z, z, P) == (0j, 0j)
    # g = f gives the projected energy (projection is idempotent + self-adjoint)
    aa, _ = self_adjointness_check(f, f, P)
    assert aa.real == pytest.approx(cond_expect(f, P).l2sq(), abs=1e-9)
    assert abs(aa.imag) < 1e-9


def test_refined_partition_brute_force_sweep():
    rng = make_rng(77)
    for _ in range(60):
        k = int(rng.integers(2, 4))
        parts = tuple(APPartition(int(rng.integers(1, 7)), int(rng.integers(1, 7)))
                      for _ in range(k))
        P = RefinedPartition(parts)
        n = int(rng.integers(3, 60))
        f = Line(int(rng.integers(-30, 30)), rng.random(n) + 1j * rng.random(n))
        p = cond_expect(f, P)
        for _ in range(3):
            x = int(rng.integers(f.start - 10, f.stop + 10))
            lab = P.atom_of(x)
            span = 2 * max(q.q * q.L for q in parts)
            pts = [y for y in range(x - span, x + span + 1)
                   if P.atom_of(y) == lab]
            expect = sum(f.at(y) for y in pts) / len(pts)
            assert p.at(x) == pytest.approx(expect, abs=1e-12)


def test_almost_refinement_bound_and_measurement():
    rng = make_rng(11)
    vals = rng.random(1000) * np.exp(2j * np.pi * rng.random(1000))
    f = Line(1, vals)
    rep = almost_refinement_delta(f, q=2, L1=60, qt=3, L2=4)
    assert rep.ok
    assert rep.differing_points >= 0
    z = almost_refinement_delta(Line(1, np.zeros(10)), 2, 60, 3, 4)
    assert z.lhs == 0 and z.rhs == 0
    with pytest.raises(ValueError):
        almost_refinement_delta(f, 2, 4, 3, 4)  # qt L2 > L1
