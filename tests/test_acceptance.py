"""Acceptance suite: every criterion at its stated tolerance.

Each criterion prints one pass/fail line (run with ``pytest -s`` to see them
as they happen).  Tolerances are pinned here and match the library's
contracts; the box-count power inequality records violations as findings
rather than failing, since its constant is not pinned by theory.
"""

import time
from fractions import Fraction

import numpy as np
import pytest
from conftest import random_table

from hofa import counting, energy, expsum, gowers, verify
from hofa.core import (BoxSpec, ConfigSpec, GridFunction, Line, SetIndicator,
                       TorusPhase)
from hofa.partition import (APPartition, almost_refinement_delta, cond_expect,
                            projection_lk_norm, refinement_pythagoras,
                            self_adjointness_check, shift_norm_delta)
from hofa.rng import make_rng


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_partition_calculus():
    t0 = time.time()
    rng = make_rng(101)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(10, 1001))
        f = Line(int(rng.integers(-200, 200)),
                 rng.random(n) * np.exp(2j * np.pi * rng.random(n)))
        g = Line(f.start + int(rng.integers(-5, 5)),
                 rng.random(n) * np.exp(2j * np.pi * rng.random(n)))
        q = int(rng.integers(1, 7))
        L = int(rng.integers(1, 13))
        P = APPartition(q, L)
        scale = max(1.0, f.l2sq())

        a, b = self_adjointness_check(f, g, P)
        worst = max(worst, abs(a - b) / scale)

        a2 = int(rng.integers(1, 4))
        fine = APPartition(q * a2, int(rng.integers(1, 5)))
        coarse = APPartition.from_block(fine.block * int(rng.integers(1, 4)), q)
        rep = refinement_pythagoras(f, coarse, fine)
        worst = max(worst, abs(rep.diff_energy - rep.energy_gap) / scale,
                    rep.tower_fine_dev, rep.tower_coarse_dev)

        k = int(rng.integers(1, 5))
        worst = max(worst, abs(projection_lk_norm(f, P, k)
                               - cond_expect(f, P).lk_pow(k)) / scale)

        per = shift_norm_delta(f, P, P.block * int(rng.integers(1, 3)))
        worst = max(worst, abs(per.lhs - per.rhs) / scale)

        fb = Line(f.start, f.values / max(1.0, f.max_abs()))
        if q > 1:
            r1 = shift_norm_delta(fb, P, int(rng.integers(1, q)))
            assert r1.ok, "almost periodicity sub-q"
        if L > 1:
            r2 = shift_norm_delta(fb, P, q * int(rng.integers(1, L)))
            assert r2.ok, "almost periodicity multiple-of-q"
        qt, L2 = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        L1 = qt * L2 * int(rng.integers(1, 5))
        assert almost_refinement_delta(fb, q, L1, qt, L2).ok, "almost refinement"
    elapsed = time.time() - t0
    report(1, worst <= 1e-10 and elapsed < 30,
           f"partition calculus worst normalized dev {worst:.2e}, "
           f"{elapsed:.1f}s (< 30s)")


def test_criterion_02_counting_equivalence():
    t0 = time.time()
    rng = make_rng(102)
    for i in range(500):
        n = 2 if i % 2 == 0 else 3
        if n == 2:
            dims = (int(rng.integers(2, 65)), int(rng.integers(2, 1025)))
        else:
            dims = (int(rng.integers(2, 17)), int(rng.integers(2, 17)),
                    int(rng.integers(2, 257)))
        if np.prod(dims) > 1 << 16:
            dims = tuple(min(d, 64) for d in dims)
        A = SetIndicator(BoxSpec(dims), rng.random(dims) < rng.random())
        m = (1, 2) if n == 2 else (1, 2, 3)
        r = int(rng.integers(1, 6))
        assert counting.popular_count(A, m, r) == \
            counting.popular_count_naive(A, m, r), f"instance {i}"
    lin_worst = 0.0
    for _ in range(50):
        N = 2
        f0 = GridFunction(BoxSpec((2, 4)),
                          rng.random((2, 4)) * np.exp(2j * np.pi * rng.random((2, 4))))
        g = GridFunction(BoxSpec((4, 4)),
                         rng.random((4, 4)) * np.exp(2j * np.pi * rng.random((4, 4))))
        h = GridFunction(BoxSpec((4, 4)),
                         rng.random((4, 4)) * np.exp(2j * np.pi * rng.random((4, 4))))
        f2 = GridFunction(BoxSpec((2, 8)),
                          rng.random((2, 8)) * np.exp(2j * np.pi * rng.random((2, 8))))
        gh = GridFunction(g.box, g.values + h.values)
        dev = abs(counting.lambda_simple([f0, gh, f2], (1, 2), N)
                  - counting.lambda_simple([f0, g, f2], (1, 2), N)
                  - counting.lambda_simple([f0, h, f2], (1, 2), N))
        lin_worst = max(lin_worst, dev)
    elapsed = time.time() - t0
    report(2, lin_worst <= 1e-10 and elapsed < 60,
           f"500 indicator instances bit-equal, multilinearity dev "
           f"{lin_worst:.2e}, {elapsed:.1f}s (< 60s)")


def test_criterion_03_stashing_identity():
    rng = make_rng(103)
    worst = 0.0
    for i in range(100):
        n = 1 if i % 2 == 0 else 2
        N = int(rng.integers(2, 5))

        def rnd(dims):
            return GridFunction(BoxSpec(dims), rng.random(dims)
                                * np.exp(2j * np.pi * rng.random(dims)))

        if n == 1:
            fs = [rnd((N,)), rnd((2 * N,))]
            m = (1,) if i % 4 else (1, 2)
            alphas = [] if i % 4 else [random_table(rng, (N,))]
        else:
            fs = [rnd((N, N * N)), rnd((2 * N, N * N)), rnd((N, 2 * N * N))]
            m = (1, 2) if i % 4 else (1, 2, 3)
            alphas = [] if i % 4 else [random_table(rng, (N, N * N))]
        lhs, rhs = expsum.stashing_identity_check(fs, alphas, m, N)
        worst = max(worst, abs(lhs - rhs))
    report(3, worst <= 1e-10, f"stashing identity worst dev {worst:.2e}")


def test_criterion_04_gowers_consistency():
    rng = make_rng(104)
    ok6 = gowers.gowers_inner(Line(1, np.ones(2)), 2) == pytest.approx(6.0)
    u1_exact = True
    spectral_worst = 0.0
    inv_worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 65))
        vals = rng.choice([-1.0, 1.0], n).astype(complex)
        f = Line(int(rng.integers(-20, 20)), vals)
        if gowers.gowers_inner(f, 1) != pytest.approx(abs(f.total()) ** 2,
                                                      rel=1e-12):
            u1_exact = False
        a = gowers.gowers_inner(f, 2)
        b = gowers.u2_via_spectrum(f)
        spectral_worst = max(spectral_worst, abs(a - b) / max(1.0, a))
        beta = rng.random()
        xs = np.arange(f.start, f.stop)
        mod = Line(f.start, vals * np.exp(2j * np.pi * beta * xs))
        inv_worst = max(inv_worst, abs(gowers.gowers_inner(mod, 2) - a)
                        / max(1.0, a))
        shifted = Line(f.start + 7, vals)
        assert gowers.gowers_inner(shifted, 2) == a  # exact translation
    report(4, ok6 and u1_exact and spectral_worst <= 1e-8 and inv_worst <= 1e-9,
           f"chi2 inner = 6, U1 exact, spectral rel dev {spectral_worst:.2e}, "
           f"modulation rel dev {inv_worst:.2e}")


def test_criterion_05_box_count_inequality():
    rng = make_rng(105)
    eq_worst = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 40))
        g = GridFunction(BoxSpec((d,)), rng.random(d).astype(complex))
        eq_worst = max(eq_worst, abs(energy.box_count(g)
                                     - float(g.values.real.mean()) ** 2))
    violations = 0
    total = 0
    for _ in range(1000):
        n = int(rng.choice([2, 3]))
        dims = tuple(int(rng.integers(2, 9)) for _ in range(n))
        vals = rng.random(dims)
        if rng.random() < 0.5:
            vals = (vals < rng.random()).astype(float)
        g = GridFunction(BoxSpec(dims), vals.astype(complex))
        if energy.box_count(g) < float(vals.mean()) ** (n + 1) - 1e-12:
            violations += 1
        total += 1
    report(5, eq_worst <= 1e-12,
           f"n=1 equality dev {eq_worst:.2e}; constant-1 findings: "
           f"{violations}/{total} violations recorded")


def test_criterion_06_linearization_gap():
    rng = make_rng(106)
    worst_margin = np.inf
    for _ in range(100):
        dims = (int(rng.integers(20, 33)), 900)
        vals = (rng.random(dims) < rng.random()).astype(complex)
        f = GridFunction(BoxSpec(dims), vals, bounded=True)
        delta = float(rng.uniform(0.7, 0.95))
        L = int(rng.integers(int(np.ceil(16 / delta)), 28))
        Mmax = int(delta / 16 * L)
        M = int(rng.integers(1, Mmax + 1))
        spec = ConfigSpec((1, 2), f.box, q=1, M=M)
        rep = energy.linearization_gap(f, spec, L, delta)
        assert rep.ok, rep.to_dict()
        worst_margin = min(worst_margin, rep.bound - rep.gap)
    report(6, worst_margin >= 0,
           f"100 admissible instances, min (bound - gap) = {worst_margin:.3e}")


def test_criterion_07_energy_increment():
    t0 = time.time()
    rng = make_rng(107)
    params = energy.IncrementParams(Qmax=4, tau=0.05, gamma=0.25)
    cap = 2 * int(np.ceil(2 / params.tau))
    dims = (32, 1024)
    box = BoxSpec(dims)
    statuses = {}
    for i in range(100):
        kind = ["ones", "signs", "indicator", "phase"][i % 4]
        if kind == "ones":
            fs = [GridFunction.ones(box)] * 3
        elif kind == "signs":
            fs = [GridFunction(box, rng.choice([-1.0, 1.0], dims).astype(complex),
                               bounded=True) for _ in range(3)]
        elif kind == "indicator":
            fs = [GridFunction(box, (rng.random(dims) < rng.random()).astype(complex),
                               bounded=True) for _ in range(3)]
        else:
            den = int(rng.integers(2, 5))
            x1 = np.arange(1, dims[0] + 1)[:, None]
            ph = np.exp(2j * np.pi * x1 / den) * np.ones((1, dims[1]))
            fs = [GridFunction(box, np.conj(ph), bounded=True),
                  GridFunction(box, ph, bounded=True), GridFunction.ones(box)]
        res = energy.energy_increment(fs, (1, 2), 0.7, params)
        statuses[res.status] = statuses.get(res.status, 0) + 1
        assert res.iterations <= cap, f"cap exceeded at instance {i}"
        assert all(t.energy_after > t.energy_before for t in res.trace), \
            f"non-increasing oracle step at instance {i}"
        if kind == "ones":
            assert res.status == "converged" and res.iterations == 0
    elapsed = time.time() - t0
    report(7, elapsed < 300,
           f"100 instances terminated {statuses}, cap {cap} respected, "
           f"{elapsed:.1f}s (< 300s)")


def test_criterion_08_popular_difference_sweep():
    rng = make_rng(108)
    box = BoxSpec((16, 256))
    worst = np.inf
    done = 0
    while done < 100:
        if done % 5 == 4:
            step = int(rng.integers(2, 4))
            col = (np.arange(1, 17) % step == 0)[:, None]
            mask = np.broadcast_to(col, (16, 256)).copy()
        else:
            mask = rng.random((16, 256)) < rng.uniform(0.3, 0.95)
        A = SetIndicator(box, mask)
        if A.density < 0.3:
            continue
        res = energy.popular_difference_pipeline(A, (1, 2), 0.1)
        margin = res.certificate["normalized_count"] - (A.density**3 - 0.15)
        assert margin >= 0, f"count below threshold: {res.certificate}"
        worst = min(worst, margin)
        done += 1
    report(8, worst >= 0,
           f"100 sets (incl. residue-structured), min margin over "
           f"mu^3 - 0.15 is {worst:.4f}")


def test_criterion_09_exponential_sums():
    rng = make_rng(109)
    # unit mass of the Fejer weights vdc_verify uses, sampled densely plus
    # the top of the stated range: each weight is the correctly rounded
    # quotient, so their exact rational sum is within 2^-53 of 1
    for H in list(range(1, 257)) + [511, 512, 1000, 4096, 9999, 10000]:
        offs, w = gowers.fejer_weights(H)
        assert offs.tolist() == list(range(-(H - 1), H))
        total = sum(map(Fraction, w.tolist()))
        assert abs(total - 1) <= Fraction(1, 2**53), f"Fejer mass at H={H}"
    for _ in range(100):
        alphas = [TorusPhase.exact(int(rng.integers(0, 97)), 97)
                  for _ in range(int(rng.integers(1, 4)))]
        assert abs(expsum.weyl_sum(alphas, int(rng.integers(1, 150)))) <= 1 + 1e-12
    got = expsum.rational_approx_search([TorusPhase.exact(3, 7)], 100, 10)
    assert got.q == 7 and got.residuals == (0.0,)
    zero_ok = 0
    for _ in range(1000):
        d = int(rng.integers(2, 5))
        den = int(rng.integers(2, 1000))
        tables = [dict() for _ in range(d)]

        def psi(i, key):
            if key not in tables[i]:
                tables[i][key] = Fraction(int(rng.integers(0, den)), den)
            return tables[i][key]

        def phi(h):
            return sum((psi(i, tuple(v for j, v in enumerate(h) if j != i))
                        for i in range(d)), Fraction(0))

        h0 = tuple(int(rng.integers(-40, 40)) for _ in range(d))
        h1 = tuple(int(rng.integers(-40, 40)) for _ in range(d))
        if expsum.phi_tilde(phi, h0, h1).frac == 0:
            zero_ok += 1
    report(9, zero_ok == 1000,
           f"Fejer mass exact through H=10^4 (sampled), |weyl| <= 1, "
           f"q=7 recovered, low-rank alternating sum exactly 0 on "
           f"{zero_ok}/1000 instances")


def test_criterion_10_verifier_implications():
    seeds = {"van_der_corput": (verify.prop_vdc, 50),
             "interchange_2d": (verify.prop_interchange, 50),
             "same_coordinate": (verify.prop_same_coord, 50),
             "fourier_certificate": (verify.prop_fourier_certificate, 25)}
    lines = []
    ok = True
    for k, (name, (fn, trials)) in enumerate(seeds.items()):
        out = fn(make_rng(110, stream=k), trials)
        ok = ok and out.failed == 0
        lines.append(f"{name}: pass={out.passed} vacuous={out.vacuous} "
                     f"fail={out.failed}")
    report(10, ok, "; ".join(lines))
