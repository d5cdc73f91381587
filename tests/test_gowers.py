from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from conftest import random_grid

from hofa import gowers
from hofa.core import (BoxSpec, GridFunction, Line, PhaseTable, TorusPhase,
                       read_window)
from hofa.partition import APPartition, Atoms
from hofa.rng import make_rng


def direct_inner(values, s):
    """Literal 2^s-fold difference sum; tiny inputs only."""
    n = len(values)

    def at(x):
        return values[x] if 0 <= x < n else 0

    total = 0j
    for x in range(n):
        for hs in product(range(-(n - 1), n), repeat=s):
            term = 1.0 + 0j
            for bits in product((0, 1), repeat=s):
                y = x + sum(h for h, b in zip(hs, bits) if b)
                v = at(y)
                term *= v if sum(bits) % 2 == 0 else np.conj(v)
            total += term
    return total


def test_inner_chi2_s2_is_six():
    assert gowers.gowers_inner(Line(1, np.ones(2)), 2) == pytest.approx(6.0)


def test_inner_chi_s1_is_square():
    for N in (1, 2, 5, 9):
        assert gowers.gowers_inner(Line(1, np.ones(N)), 1) == pytest.approx(N**2)


def test_inner_matches_direct_expansion():
    rng = make_rng(21)
    for s in (2, 3):
        v = rng.random(5) + 1j * rng.random(5)
        expect = direct_inner(v, s)
        assert abs(expect.imag) < 1e-9
        assert gowers.gowers_inner(Line(1, v), s) == \
            pytest.approx(expect.real, rel=1e-10)


def test_order_cap_and_negativity_guard():
    with pytest.raises(ValueError):
        gowers.gowers_norm(Line(1, np.ones(4)), 5)
    assert gowers.gowers_norm(Line(1, np.zeros(3)), 2) == 0.0


def test_modulation_and_translation_invariance():
    rng = make_rng(22)
    vals = rng.choice([-1.0, 1.0], 40).astype(complex)
    f = Line(1, vals)
    base = gowers.gowers_inner(f, 2)
    xs = np.arange(1, 41)
    mod = Line(1, vals * np.exp(2j * np.pi * 0.317 * xs))
    assert gowers.gowers_inner(mod, 2) == pytest.approx(base, rel=1e-9)
    assert gowers.gowers_inner(Line(-17, vals), 2) == base  # exact


def test_u2_spectral_route():
    assert gowers.u2_via_spectrum(Line(1, np.ones(2))) == pytest.approx(6.0)
    assert gowers.u2_via_spectrum(Line(1, np.zeros(4))) == 0.0
    rng = make_rng(23)
    for _ in range(20):
        n = int(rng.integers(2, 65))
        f = Line(1, rng.choice([-1.0, 1.0], n).astype(complex))
        assert gowers.u2_via_spectrum(f) == \
            pytest.approx(gowers.gowers_inner(f, 2), rel=1e-8)


def test_u2_inverse_pure_phase():
    N = 30
    xs = np.arange(1, N + 1)
    f = Line(1, np.exp(2j * np.pi * xs / 3))
    alpha, mag = gowers.u2_inverse(f)
    assert min(abs(alpha.approx - 1 / 3), abs(alpha.approx - 1 / 3 + 1)) < 1e-3
    assert mag == pytest.approx(N, rel=1e-9)


def test_u2_inverse_indicator():
    f = Line(1, np.ones(40))
    alpha, mag = gowers.u2_inverse(f)
    assert min(alpha.approx, 1 - alpha.approx) < 1e-6
    assert mag == pytest.approx(40.0)


def test_u2_inverse_beats_dense_grid():
    rng = make_rng(24)
    xs = np.arange(1, 65)
    for _ in range(10):
        v = rng.choice([-1.0, 1.0], 64)
        f = Line(1, v.astype(complex))
        _, mag = gowers.u2_inverse(f)
        grid = np.arange(1 << 16) / (1 << 16)
        dense = np.abs(np.exp(-2j * np.pi * np.outer(grid, xs)) @ v).max()
        assert mag >= dense - 1e-6


def u2_inverse_reference(f):
    """The scalar search: each lobe refined on its own by golden section, one
    single-frequency sum per probe."""
    nz = np.nonzero(f.values)[0]
    values = f.values[nz[0]:nz[-1] + 1]
    xs = (np.arange(len(values)) + f.start + int(nz[0])).astype(np.float64)
    grid = max(8 * len(values), 8)
    ks = np.arange(grid) / grid
    order = np.argsort(np.abs(np.fft.fft(values, n=grid)))[::-1]

    def fun(a):
        return abs(complex(np.sum(values * np.exp(2j * np.pi * -a * xs))))

    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    best_alpha, best_mag = 0.0, -1.0
    for k in sorted(order[:gowers.U2_CANDIDATES]):
        a, b = ks[k] - 1.0 / grid, ks[k] + 1.0 / grid
        c, d = b - invphi * (b - a), a + invphi * (b - a)
        fc, fd = fun(c), fun(d)
        for _ in range(gowers.GOLDEN_ITERS):
            if fc > fd:
                b, d, fd = d, c, fc
                c = b - invphi * (b - a)
                fc = fun(c)
            else:
                a, c, fc = c, d, fd
                d = a + invphi * (b - a)
                fd = fun(d)
        x = (a + b) / 2
        mag = fun(x)
        if mag > best_mag:
            best_alpha, best_mag = x % 1.0, mag
    return TorusPhase.from_float(best_alpha).approx, best_mag


def test_u2_inverse_equals_scalar_golden_search():
    rng = make_rng(25)
    for n in range(8, 65):
        start = int(rng.choice([-1, 1])) * int(rng.integers(1, 40))
        kind = ("complex", "signs", "indicator")[n % 3]
        vals = random_grid(rng, (n,), kind).values
        if not vals.any():
            vals[0] = 1.0
        f = Line(start, vals)
        alpha, mag = gowers.u2_inverse(f)
        assert (alpha.approx, mag) == u2_inverse_reference(f), n


def test_u2_inverse_one_sum_per_golden_step(monkeypatch):
    # the lobes step in lockstep: one batched sum per step, not one per lobe
    calls = []
    linear_sum = gowers._linear_sum

    def counted(values, xs, alphas):
        calls.append(len(alphas))
        return linear_sum(values, xs, alphas)

    monkeypatch.setattr(gowers, "_linear_sum", counted)
    rng = make_rng(26)
    gowers.u2_inverse(Line(-7, random_grid(rng, (50,)).values))
    assert calls == [gowers.U2_CANDIDATES] * (gowers.GOLDEN_ITERS + 3)


def test_mult_diff_phase_telescopes():
    N = 20
    alpha = 0.23
    xs = np.arange(1, N + 1)
    f = Line(1, np.exp(2j * np.pi * alpha * xs))
    d = gowers.mult_diff(f, (3,))
    # on the surviving support the value is e(-3 alpha), constant
    inner = d.values
    assert np.allclose(inner, np.exp(-2j * np.pi * alpha * 3))
    assert len(d) == N - 3


def test_add_diff_linear_and_constant():
    N, T = 30, 60
    xs = np.arange(1, N + 1)
    lin = PhaseTable.from_rationals(BoxSpec((N,)), (7 * xs) % T, T)
    d = gowers.add_diff(lin, (4,))
    # interior values are -4 * 7/60 mod 1
    interior = d.numerators[: N - 4]
    assert np.all(interior == (-28) % T)
    const = PhaseTable.constant(BoxSpec((N,)), TorusPhase.exact(5, 9))
    dc = gowers.add_diff(const, (2,))
    assert np.all(dc.numerators[: N - 2] == 0)


def test_diff_phase_identity_random():
    rng = make_rng(25)
    for _ in range(30):
        N = int(rng.integers(5, 51))
        T = int(rng.integers(2, 60))
        alpha = PhaseTable.from_rationals(BoxSpec((N,)), rng.integers(0, T, N), T)
        hs = tuple(int(rng.integers(-8, 9))
                   for _ in range(int(rng.integers(1, 3))))
        assert gowers.diff_phase_identity_gap(alpha, hs) <= 1e-12


def test_directional_diff_slices(rng):
    f = random_grid(rng, (8, 8))
    d = gowers.directional_diff(f, (2,), 2)
    for x1 in range(1, 9):
        sl = f.slice_line(1, (x1,))
        expect = gowers.mult_diff(sl, (2,))
        got = d.slice_line(1, (x1,))
        assert np.allclose(got.window(1, 8), expect.window(1, 8))
    # 1-D grid coincides with the line operator
    g = random_grid(rng, (9,))
    dg = gowers.directional_diff(g, (1, 2), 1)
    expect = gowers.mult_diff(Line(1, g.values.copy()), (1, 2))
    assert np.allclose(dg.values[:len(expect)], expect.values)


def test_separable_directional_diff(rng):
    # 0/1 first factor: |u|^2 = u, so the difference acts on v alone
    u = (rng.random(6) < 0.6).astype(float)
    v = rng.random(7) * np.exp(2j * np.pi * rng.random(7))
    f = GridFunction(BoxSpec((6, 7)), np.outer(u, v))
    d = gowers.directional_diff(f, (2,), 2)
    dv = gowers.mult_diff(Line(1, v), (2,))
    expect = np.outer(u, dv.window(1, 7))
    assert np.allclose(d.values, expect)


def test_diffspec_pass_through(rng):
    f = Line(1, rng.random(20).astype(complex))
    spec = gowers.DiffSpec((2, -1))
    a = gowers.mult_diff(f, spec)
    b = gowers.mult_diff(f, (2, -1))
    assert a.start == b.start and np.array_equal(a.values, b.values)
    with pytest.raises(ValueError):
        gowers.DiffSpec(())
    with pytest.raises(ValueError):
        gowers.DiffSpec((1,), axis=0)


def test_fejer_values_and_mass():
    assert gowers.fejer(2, -1) == Fraction(1, 4)
    assert gowers.fejer(2, 0) == Fraction(1, 2)
    assert gowers.fejer(2, 2) == 0
    assert gowers.fejer(5, 7) == 0 and gowers.fejer(5, -7) == 0
    for H in (1, 2, 3, 17, 100):
        assert sum(gowers.fejer(H, x) for x in range(-H, H + 1)) == 1
    offs, w = gowers.fejer_weights(4)
    assert offs[0] == -3 and offs[-1] == 3
    assert w.sum() == pytest.approx(1.0)


def test_vdc_indicator_passes():
    M = 400
    f = Line(1, np.ones(M, dtype=complex))
    rep = gowers.vdc_verify([f], [1.0], (1, M), delta=0.2, H=4)
    assert rep.status == "pass"
    assert rep.premise == pytest.approx(1.0)
    assert rep.conclusion >= 0.2**2 / 4


def test_vdc_oscillation_vacuous():
    M = 1000
    xs = np.arange(1, M + 1)
    f = Line(1, np.exp(2j * np.pi * xs / 2))
    rep = gowers.vdc_verify([f], [1.0], (1, M), delta=0.1, H=2)
    assert rep.status == "vacuous"


def test_vdc_preconditions():
    f = Line(1, np.ones(10, dtype=complex))
    with pytest.raises(ValueError):
        gowers.vdc_verify([f], [1.0], (1, 10), delta=0.1, H=1)  # M too short
    g = Line(1, np.ones(2000, dtype=complex))
    with pytest.raises(ValueError):
        gowers.vdc_verify([g], [1.0], (1, 2000), delta=0.1, H=2000)


def test_interchange_constant_family():
    f = GridFunction.ones(BoxSpec((8, 5)))
    rep = gowers.interchange_verify_2d([f], q=1, L=8, s=1, delta=0.3)
    assert rep.status == "pass"
    assert rep.exponent is not None


def test_interchange_cancelling_family_vacuous(rng):
    g = random_grid(rng, (6, 5))
    rep = gowers.interchange_verify_2d(
        [g, GridFunction(g.box, -g.values)], q=1, L=6, s=1, delta=0.3)
    assert rep.status == "vacuous"


def test_same_coord_constant_passes():
    f = GridFunction.ones(BoxSpec((3, 27)))
    rep = gowers.same_coord_verify(f, q=1, L=9, s=1, delta=1 / 3)
    assert rep.status == "pass"
    assert rep.extra["ratio"] >= 1.0


def test_same_coord_oscillation_vacuous():
    rng = make_rng(26)
    signs = rng.choice([-1.0, 1.0], 27)
    f = GridFunction(BoxSpec((3, 27)), np.tile(signs, (3, 1)).astype(complex))
    rep = gowers.same_coord_verify(f, q=1, L=9, s=1, delta=1 / 3)
    assert rep.status == "vacuous"


def test_verifier_report_dict_shape():
    f = GridFunction.ones(BoxSpec((8, 5)))
    rep = gowers.interchange_verify_2d([f], q=1, L=8, s=1, delta=0.3)
    d = rep.to_dict()
    for key in ("name", "premise", "conclusion", "threshold", "status"):
        assert key in d


# Oracles for the verifiers: one multiplicative difference per h-tuple,
# looped over [-N2, N2]^s, as the verifiers were first written.

def h_tuples_oracle(bound, s):
    return product(range(-bound, bound + 1), repeat=s)


def axis2_diff_oracle(values, hs):
    out = values
    for hv in hs:
        offsets = (0,) * (values.ndim - 1) + (hv,)
        out = out * np.conj(read_window(out, offsets, values.shape))
    return out


def column_energies_oracle(mat, atoms, L):
    return np.sum(np.abs(atoms.sum(mat)) ** 2, axis=0) / L


def interchange_oracle(family, q, L, s, delta):
    N1, N2 = family[0].box.dims
    F = np.mean([f.values for f in family], axis=0)
    atoms = Atoms(APPartition(q, L), 1, N1)
    prem_vals, conc_vals = [], []
    for hs in h_tuples_oracle(N2, s):
        dF = axis2_diff_oracle(F, hs)
        prem_vals.append(np.mean(column_energies_oracle(dF, atoms, L)))
        dfs = np.mean([axis2_diff_oracle(f.values, hs) for f in family], axis=0)
        conc_vals.append(np.mean(np.abs(np.mean(dfs, axis=0))))
    premise = float(np.mean(prem_vals))
    conclusion = float(np.mean(conc_vals))
    if premise < delta * N1:
        return premise, conclusion, "vacuous"
    return premise, conclusion, "pass" if conclusion > 0 else "fail"


def same_coord_oracle(f, q, L, s, delta, kappa=1.0 / 64):
    N1, N2 = f.box.dims
    atoms = Atoms(APPartition(q, L), 1, N2)
    prem_vals = [np.mean(column_energies_oracle(
        axis2_diff_oracle(f.values, hs).T, atoms, L))
        for hs in h_tuples_oracle(N2, s)]
    premise = float(np.mean(prem_vals))
    conclusion = float(np.mean([gowers.gowers_inner(f.values[x], s + 1)
                                for x in range(N1)]))
    if premise < delta * N2:
        return premise, conclusion, "vacuous"
    threshold = kappa * delta**3 * float(N2) ** (s + 2)
    return premise, conclusion, "pass" if conclusion >= threshold else "fail"


def test_axis2_diffs_blocks_match_per_h_loop(rng, monkeypatch):
    # every block size, batch axes kept, h-tuples in lexicographic order
    values = random_grid(rng, (2, 3, 4)).values
    for s in (1, 2, 3):
        want = np.array([axis2_diff_oracle(values, hs)
                         for hs in h_tuples_oracle(4, s)])
        for cells in (1, 50, 300, 1 << 20):
            monkeypatch.setattr(gowers, "DIFF_BLOCK_CELLS", cells)
            got = np.concatenate([b.reshape((-1,) + values.shape)
                                  for b in gowers._axis2_diffs(values, s, 4)])
            assert np.array_equal(got, want)


@pytest.mark.parametrize("s", [1, 2])
def test_interchange_matches_oracle(rng, s):
    # premise and conclusion bit for bit, across block sizes and family sizes
    cases = 0
    # every (size, kind) pair; 8 or more terms take numpy's pairwise sums
    for trial in range(12):
        N1, N2 = (2, 5, 9, 10)[trial % 4], (9, 3, 8, 2)[trial % 4]
        q = int(rng.integers(1, 3))
        L = int(rng.integers(1, N1 + 1))
        delta = L / N1 / 2
        kind = trial % 3
        if kind == 0:
            fam = [GridFunction.ones(BoxSpec((N1, N2)))]
        else:
            fam = [random_grid(rng, (N1, N2), "unit" if kind == 1 else "complex")
                   for _ in range(int(rng.integers(1, 4)))]
        rep = gowers.interchange_verify_2d(fam, q, L, s, delta)
        want = interchange_oracle(fam, q, L, s, delta)
        assert (rep.premise, rep.conclusion, rep.status) == want
        cases += rep.status != "vacuous"
    assert cases > 0


@pytest.mark.parametrize("s", [1, 2])
def test_same_coord_matches_oracle(rng, s):
    cases = 0
    for trial in range(12):
        N1 = (2, 5, 8, 10)[trial % 4]
        if s == 1:  # sized so that the premise can fire
            N2, delta, q, L = 27, 1 / 3, 1, int(rng.integers(9, 14))
        else:
            N2, delta, q = 16, 0.4, int(rng.integers(1, 3))
            L = int(rng.integers(7, N2 + 1))
        kind = trial % 3
        if kind == 0:
            f = GridFunction.ones(BoxSpec((N1, N2)))
        elif kind == 1:
            f = GridFunction(BoxSpec((N1, N2)),
                             np.tile(rng.choice([-1.0, 1.0], N2), (N1, 1)))
        else:
            f = random_grid(rng, (N1, N2))
        rep = gowers.same_coord_verify(f, q, L, s, delta)
        want = same_coord_oracle(f, q, L, s, delta)
        assert (rep.premise, rep.conclusion, rep.status) == want
        cases += rep.status != "vacuous"
    if s == 1:
        assert cases > 0


def test_same_coord_memory(rng):
    # the s = 2 difference stack (33 x 33 grids) is built in blocks over h_1
    import tracemalloc
    f = random_grid(rng, (6, 16))
    tracemalloc.start()
    try:
        gowers.same_coord_verify(f, q=1, L=8, s=2, delta=0.4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
