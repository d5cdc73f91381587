import cmath
import time
from fractions import Fraction

import numpy as np
import pytest
from conftest import random_grid
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hofa import expsum
from hofa.core import BoxSpec, GridFunction, Line, PhaseTable, TorusPhase
from hofa.rng import make_rng


def test_weyl_sum_basics():
    assert expsum.weyl_sum([TorusPhase.zero()], 7) == pytest.approx(1.0)
    assert expsum.weyl_sum([TorusPhase.exact(1, 2)], 2) == pytest.approx(0.0, abs=1e-15)
    assert expsum.weyl_sum([], 5) == 1.0


def test_weyl_sum_exact_reduction_matches_direct():
    rng = make_rng(31)
    for _ in range(10):
        s = int(rng.integers(1, 4))
        alphas = [TorusPhase.exact(int(rng.integers(0, 999)), int(rng.integers(1, 999)))
                  for _ in range(s)]
        N = 200
        main = expsum.weyl_sum(alphas, N)
        direct = sum(cmath.exp(2j * cmath.pi * float(
            sum((a.frac * n**i) % 1 for i, a in enumerate(alphas, start=1)) % 1))
            for n in range(1, N + 1)) / N
        assert main == pytest.approx(direct, abs=1e-9)
        assert abs(main) <= 1 + 1e-12


def weyl_sum_reference(alphas, N):
    """Exact path by definition: the phase of n is sum_i alpha_i n^i mod 1 as
    a Fraction, rounded to a float once per term."""
    total = 0j
    for n in range(1, N + 1):
        phase = sum(a.frac * n**i for i, a in enumerate(alphas, start=1)) % 1
        total += cmath.exp(2j * cmath.pi * float(phase))
    return total / N


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(-10**6, 10**6), st.integers(1, 10**6)),
                min_size=1, max_size=3),
       st.integers(1, 300))
# three primes near 10^6: L = lcm(T_i) is about 10^18, past 2^53, where
# rounding the numerator or L to a float first would change the phase
@example([(123_457, 999_983), (-654_321, 999_979), (777_777, 999_961)], 300)
def test_weyl_sum_exact_equals_fraction_reference(phases, N):
    alphas = [TorusPhase.exact(t, T) for t, T in phases]
    assert expsum.weyl_sum(alphas, N) == weyl_sum_reference(alphas, N)


def test_rational_approx_exact_recovery():
    got = expsum.rational_approx_search([TorusPhase.exact(3, 7)], 100, 10)
    assert got.q == 7 and got.residuals == (0.0,)
    zeros = expsum.rational_approx_search([TorusPhase.zero()] * 2, 50, 5)
    assert zeros.q == 1 and all(r == 0 for r in zeros.residuals)


def test_rational_approx_matches_exhaustive_oracle():
    golden_conj = (np.sqrt(5) - 1) / 2
    alphas = [TorusPhase.from_float(0.0), TorusPhase.from_float(golden_conj)]
    got = expsum.rational_approx_search(alphas, 50, 50)
    best = None
    for q in range(1, 51):
        score = max(min((a.approx * q) % 1, 1 - (a.approx * q) % 1) * 50**i
                    for i, a in enumerate(alphas, start=1))
        if best is None or score < best[0] - 1e-15:
            best = (score, q)
    assert got.q == best[1]


def test_weyl_lipschitz_forward_check():
    rng = make_rng(32)
    for _ in range(30):
        s = int(rng.integers(1, 4))
        N = int(rng.integers(5, 120))
        alphas = [TorusPhase.from_float(rng.random()) for _ in range(s)]
        ra = expsum.rational_approx_search(alphas, N, int(rng.integers(1, 25)))
        snapped = [TorusPhase.exact(round(a.approx * ra.q), ra.q) for a in alphas]
        direct = abs(expsum.weyl_sum(snapped, N))
        rho = max(ra.residuals)
        assert abs(expsum.weyl_sum(alphas, N)) >= direct - 2 * np.pi * rho * s - 1e-9


def test_dual_function_box_geometry():
    # all-ones inputs: the dual value is the fraction of differences keeping
    # every shifted point inside its box, which is 1 deep inside
    N, m = 4, (1, 2)
    f0 = GridFunction.ones(BoxSpec((4, 16)))
    f1 = GridFunction.ones(BoxSpec((8, 16)))
    f2 = GridFunction.ones(BoxSpec((4, 32)))
    F = expsum.dual_function([f0, f1, f2], [], m, N, 2)
    assert F.box.dims == (4, 32)
    # x = (2, 17): x_2 - r^2 stays in [1, 16] for every r <= 4
    assert F.values[1, 16] == pytest.approx(1.0)
    # near the face one difference leaves the box
    assert F.values[1, 17] == pytest.approx(0.75)
    zero = expsum.dual_function([GridFunction.zeros(BoxSpec((4, 16))), f1, f2],
                                [], m, N, 2)
    assert zero.max_abs() == 0.0


def test_dual_function_matches_double_loop(rng):
    N, m = 4, (1, 2)
    fs = [random_grid(rng, (4, 16)), random_grid(rng, (8, 16)),
          random_grid(rng, (4, 32))]
    i = 1
    F = expsum.dual_function(fs, [], m, N, i)

    def read(f, pt):
        idx = tuple(c - 1 for c in pt)
        if any(c < 0 or c >= d for c, d in zip(idx, f.box.dims)):
            return 0j
        return complex(f.values[idx])

    for x in ((1, 1), (5, 7), (8, 16), (3, 11)):
        acc = 0j
        for r in range(1, N + 1):
            term = read(fs[0], (x[0] - r, x[1]))
            term *= read(fs[2], (x[0] - r, x[1] + r * r))
            acc += term
        assert complex(F.values[x[0] - 1, x[1] - 1]) == pytest.approx(acc / N, abs=1e-12)


def test_stashing_identity_random_complex(rng):
    for _ in range(25):
        N = int(rng.integers(2, 5))
        fs = [random_grid(rng, (N, N * N)),
              random_grid(rng, (2 * N, N * N)),
              random_grid(rng, (N, 2 * N * N))]
        al = PhaseTable.from_floats(BoxSpec((N, N * N)), rng.random((N, N * N)))
        lhs, rhs = expsum.stashing_identity_check(fs, [al], (1, 2, 3), N)
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_stashing_zero_slot():
    N = 3
    fs = [GridFunction.ones(BoxSpec((3, 9))), GridFunction.ones(BoxSpec((6, 9))),
          GridFunction.zeros(BoxSpec((3, 18)))]
    lhs, rhs = expsum.stashing_identity_check(fs, [], (1, 2), N)
    assert lhs == 0 and rhs == 0


def test_phi_tilde_difference_and_product():
    def phi1(h):
        return Fraction(h[0], 7)

    assert expsum.phi_tilde(phi1, (3,), (5,)).frac == Fraction(-2, 7) % 1

    def phip(h):
        return Fraction(h[0] * h[1], 11)

    got = expsum.phi_tilde(phip, (2, 3), (5, 7))
    assert got.frac == Fraction((2 - 5) * (3 - 7), 11) % 1


def test_phi_tilde_low_rank_vanishes():
    rng = make_rng(33)
    for _ in range(50):
        d = int(rng.integers(2, 5))
        den = int(rng.integers(2, 500))
        tables = [dict() for _ in range(d)]

        def psi(i, key):
            if key not in tables[i]:
                tables[i][key] = Fraction(int(rng.integers(0, den)), den)
            return tables[i][key]

        def phi(h):
            return sum((psi(i, tuple(v for j, v in enumerate(h) if j != i))
                        for i in range(d)), Fraction(0))

        h0 = tuple(int(rng.integers(-30, 30)) for _ in range(d))
        h1 = tuple(int(rng.integers(-30, 30)) for _ in range(d))
        assert expsum.phi_tilde(phi, h0, h1).frac == 0


def test_phase_constancy_constant_table():
    N, m = 8, (2, 3)
    base = N ** 2
    al = PhaseTable.constant(BoxSpec((base,)), TorusPhase.exact(1, 3))
    f = Line(1, np.ones(2 * base, dtype=complex))
    res = expsum.phase_constancy_search(f, [al], m, N, 0.3)
    assert res.status == "found"
    assert res.achieved == pytest.approx(res.premise, abs=1e-9)


def test_phase_constancy_zero_function():
    al = PhaseTable.zeros(BoxSpec((64,)))
    res = expsum.phase_constancy_search(Line(1, np.zeros(128)), [al], (2, 3), 8, 0.3)
    assert res.status == "no_premise"


def test_phase_constancy_recovers_majority():
    rng = make_rng(34)
    N, m = 8, (2, 3)
    base = N ** 2
    frac = np.zeros(base)
    frac[base // 2:] = rng.uniform(0.35, 0.65, base - base // 2)
    al = PhaseTable.from_floats(BoxSpec((base,)), frac)
    f = Line(1, np.ones(2 * base, dtype=complex))
    res = expsum.phase_constancy_search(f, [al], m, N, 0.3)
    assert res.status == "found"
    assert res.betas[0].approx < 0.05 or res.betas[0].approx > 0.95


@pytest.mark.parametrize("N,m,delta", [(8, (2, 3), 0.3), (5, (1, 2, 3), 0.5),
                                        (4, (2, 1, 2), 0.7)])
def test_phase_constancy_values_equal_phased_average(N, m, delta):
    # the search reuses one shift matrix; every average it reports is the
    # one phased_average computes on its own, to the bit
    rng = make_rng(35)
    k = len(m) - 1
    base = N ** m[0]
    tables = [PhaseTable.from_floats(BoxSpec((base,)), rng.random(base))
              for _ in range(k)]
    f = Line(1, np.exp(2j * np.pi * rng.random(2 * base)))
    res = expsum.phase_constancy_search(f, tables, m, N, delta)
    assert res.status == "found" and len(res.candidates) > 1
    rs = np.arange(1, N + 1)
    phase = np.zeros((base, N))
    for tab, p in zip(tables, m[1:]):
        phase += np.outer(tab.frac, rs ** p)
    assert res.premise == expsum.phased_average(f, phase, base, m[0])
    grids = [int(np.ceil(2 * k * N**p / delta)) for p in m[1:]]
    for cand in res.candidates:
        const = np.zeros((base, N))
        for t, T, p in zip(cand["tuple"], grids, m[1:]):
            const += TorusPhase.exact(t, T).approx * (rs ** p)[None, :]
        assert cand["achieved"] == expsum.phased_average(f, const, base, m[0])
    assert res.achieved == max(c["achieved"] for c in res.candidates)


def test_phase_constancy_builds_one_shift_matrix(monkeypatch):
    built = []
    shift_matrix = expsum._shift_matrix

    def counted(*args):
        built.append(args)
        return shift_matrix(*args)

    monkeypatch.setattr(expsum, "_shift_matrix", counted)
    rng = make_rng(36)
    al = PhaseTable.from_floats(BoxSpec((64,)), rng.random(64))
    res = expsum.phase_constancy_search(Line(1, np.ones(128, dtype=complex)),
                                        [al], (2, 3), 8, 0.3)
    assert len(res.candidates) == expsum.CONSTANCY_TOP_K
    assert len(built) == 1


def test_phase_constancy_refuses_exponents_before_powering():
    # N^(10^8) was formed before any check (seconds, then OverflowError);
    # every exponent is refused at once, the base one included
    al = PhaseTable.constant(BoxSpec((8,)), TorusPhase.exact(1, 3))
    f = Line(1, np.ones(16, dtype=complex))
    for m in ((1, 10 ** 8), (10 ** 8, 2), (0, 2), (1, -1)):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match="exponents must be"):
            expsum.phase_constancy_search(f, [al], m, 8, 0.3)
        assert time.perf_counter() - t0 < 0.5


@pytest.mark.parametrize("m,delta,bound", [((1, 64), 0.3, "N\\^m_j"),
                                            ((1, 21), 0.3, "N\\^m_j"),
                                            ((1, 20), 0.1, "phase grids")])
def test_phase_constancy_refuses_int64_overflow(m, delta, bound):
    # r^64 wrapped silently in int64 (8^64 read 0) and the snapped table
    # then raised OverflowError; 8^21 = 2^63 is the first power refused,
    # and at m = (1, 20) the grid ceil(2 * 8^20 / 0.1) passes 2^63 alone
    al = PhaseTable.constant(BoxSpec((8,)), TorusPhase.exact(1, 3))
    f = Line(1, np.ones(16, dtype=complex))
    with pytest.raises(ValueError, match=bound + ".*2\\^63"):
        expsum.phase_constancy_search(f, [al], m, 8, delta)
    # just below the bounds the search runs
    res = expsum.phase_constancy_search(f, [al], (1, 20), 8, 0.3)
    assert res.status == "found"


def test_fourier_certificate_constant():
    N = 12
    f = Line(1, np.ones(2 * N, dtype=complex))
    cert = expsum.fourier_certificate(f, {}, 1, N, 0.25, 10)
    assert cert.mode == "major_arc"
    assert cert.q == 1
    assert min(cert.xi0.approx, 1 - cert.xi0.approx) < 1e-9
    for L in (2, 4, 8):
        assert cert.check(L) == pytest.approx(2 * N)


def test_fourier_certificate_third_root():
    N = 12
    xs = np.arange(1, 2 * N + 1)
    f = Line(1, np.exp(2j * np.pi * xs / 3))
    cert = expsum.fourier_certificate(f, {}, 1, N, 0.25, 10)
    assert cert.xi0.frac == Fraction(2, 3)
    assert cert.q == 3
    assert cert.mode == "best_effort"  # the premise cancels for this input
    assert cert.check(4) == pytest.approx(2 * N)  # mod-3 classes retain f


def test_fourier_certificate_rejects_degree_n():
    f = Line(1, np.ones(8, dtype=complex))
    with pytest.raises(ValueError):
        expsum.fourier_certificate(f, {2: TorusPhase.exact(1, 3)}, 2, 2, 0.2, 4)
