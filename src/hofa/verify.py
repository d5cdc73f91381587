"""Seeded property suites behind the ``verify`` CLI subcommand.

Each property runs ``trials`` independent instances off a Philox substream
and reports pass/fail/vacuous counts.  Failures are genuine violations of an
identity or bound; vacuous counts instances whose premise did not fire.
``trials`` is capped at ``MAX_TRIALS``, which bounds the run time of a
legal request.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import counting, energy, expsum, gowers
from .core import BoxSpec, ConfigSpec, GridFunction, Line, PhaseTable, SetIndicator, TorusPhase
from .partition import (APPartition, almost_refinement_delta, cond_expect,
                        projection_lk_norm, refinement_pythagoras,
                        self_adjointness_check, shift_norm_delta)
from .rng import make_rng

# trials per property; ``verify all`` at the cap takes about 15 s on a
# 2-core x86-64 host
MAX_TRIALS = 1000


@dataclass
class PropertyOutcome:
    name: str
    passed: int = 0
    failed: int = 0
    vacuous: int = 0
    notes: list = field(default_factory=list)

    def check(self, ok: bool, note: str = "") -> None:
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if note:
                self.notes.append(note)

    def to_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "failed": self.failed,
                "vacuous": self.vacuous, "notes": self.notes[:10]}


def _rand_line(rng, max_len=400, kind=None) -> Line:
    n = int(rng.integers(3, max_len))
    kind = kind or rng.choice(["complex", "signs", "indicator"])
    if kind == "complex":
        vals = rng.random(n) * np.exp(2j * np.pi * rng.random(n))
    elif kind == "signs":
        vals = rng.choice([-1.0, 1.0], n).astype(complex)
    else:
        vals = (rng.random(n) < rng.random()).astype(complex)
    return Line(int(rng.integers(-50, 50)), vals)


def _rand_partition(rng) -> APPartition:
    return APPartition(int(rng.integers(1, 7)), int(rng.integers(1, 13)))


# ---------------------------------------------------------------------------
# partition suite


def prop_idempotence(rng, trials):
    out = PropertyOutcome("idempotence")
    for _ in range(trials):
        f = _rand_line(rng)
        P = _rand_partition(rng)
        p1 = cond_expect(f, P)
        p2 = cond_expect(p1, P)
        lo, hi = min(p1.start, p2.start), max(p1.stop, p2.stop)
        dev = np.abs(p1.window(lo, hi - 1) - p2.window(lo, hi - 1)).max()
        out.check(dev <= 1e-12 * max(1.0, p1.max_abs()), f"dev={dev}")
    return out


def prop_contraction(rng, trials):
    out = PropertyOutcome("contraction")
    for _ in range(trials):
        f = _rand_line(rng)
        P = _rand_partition(rng)
        out.check(cond_expect(f, P).l2sq() <= f.l2sq() + 1e-9)
    return out


def prop_self_adjoint(rng, trials):
    out = PropertyOutcome("self_adjointness")
    for _ in range(trials):
        f, g = _rand_line(rng, 300), _rand_line(rng, 300)
        P = _rand_partition(rng)
        a, b = self_adjointness_check(f, g, P)
        out.check(abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b)))
    return out


def _nested_pair(rng) -> tuple[APPartition, APPartition]:
    q = int(rng.integers(1, 4))
    a = int(rng.integers(1, 4))
    Lf = int(rng.integers(1, 5))
    b = int(rng.integers(1, 4))
    fine = APPartition(q * a, Lf)
    coarse = APPartition.from_block(fine.block * b * int(rng.integers(1, 3)), q)
    return coarse, fine


def prop_pythagoras(rng, trials):
    out = PropertyOutcome("pythagoras_tower")
    for _ in range(trials):
        f = _rand_line(rng)
        coarse, fine = _nested_pair(rng)
        rep = refinement_pythagoras(f, coarse, fine)
        scale = max(1.0, f.l2sq())
        ok = (abs(rep.diff_energy - rep.energy_gap) <= 1e-10 * scale
              and rep.tower_fine_dev <= 1e-12 * max(1.0, f.max_abs())
              and rep.tower_coarse_dev <= 1e-12 * max(1.0, f.max_abs()))
        out.check(ok, f"{rep.to_dict()}")
    return out


def prop_monotone_energy(rng, trials):
    out = PropertyOutcome("monotone_energy")
    for _ in range(trials):
        f = _rand_line(rng)
        coarse, fine = _nested_pair(rng)
        out.check(cond_expect(f, fine).l2sq()
                  >= cond_expect(f, coarse).l2sq() - 1e-9)
    return out


def prop_lk_norm_formula(rng, trials):
    out = PropertyOutcome("lk_norm_formula")
    for _ in range(trials):
        f = _rand_line(rng)
        P = _rand_partition(rng)
        for k in (1, 2, 3, 4):
            direct = projection_lk_norm(f, P, k)
            via = cond_expect(f, P).lk_pow(k)
            out.check(abs(direct - via) <= 1e-10 * max(1.0, via), f"k={k}")
    return out


def prop_periodicity(rng, trials):
    out = PropertyOutcome("periodicity_exact")
    for _ in range(trials):
        f = _rand_line(rng)
        P = _rand_partition(rng)
        mult = int(rng.integers(1, 4)) * (1 if rng.random() < 0.5 else -1)
        rep = shift_norm_delta(f, P, mult * P.block)
        out.check(rep.clause == "periodic"
                  and abs(rep.lhs - rep.rhs) <= 1e-9 * max(1.0, rep.rhs))
    return out


def prop_almost_periodicity(rng, trials):
    out = PropertyOutcome("almost_periodicity")
    for _ in range(trials):
        f = _rand_line(rng, kind="complex")
        f = Line(f.start, f.values / max(1.0, f.max_abs()))  # 1-bounded
        q = int(rng.integers(2, 7))
        L = int(rng.integers(2, 10))
        P = APPartition(q, L)
        h = int(rng.integers(1, q)) * (1 if rng.random() < 0.5 else -1)
        rep = shift_norm_delta(f, P, h)
        out.check(rep.clause == "sub-q" and rep.ok, f"h={h} {rep.to_dict()}")
        s = int(rng.integers(1, L)) * (1 if rng.random() < 0.5 else -1)
        rep2 = shift_norm_delta(f, P, s * q)
        out.check(rep2.clause == "multiple-of-q" and rep2.ok,
                  f"h={s * q} {rep2.to_dict()}")
    return out


def prop_almost_refinement(rng, trials):
    out = PropertyOutcome("almost_refinement")
    for _ in range(trials):
        f = _rand_line(rng, 800, kind="complex")
        f = Line(f.start, f.values / max(1.0, f.max_abs()))
        q = int(rng.integers(1, 4))
        qt = int(rng.integers(1, 4))
        L2 = int(rng.integers(1, 5))
        L1 = qt * L2 * int(rng.integers(1, 6))
        rep = almost_refinement_delta(f, q, L1, qt, L2)
        out.check(rep.ok, f"{rep.to_dict()}")
    return out


# ---------------------------------------------------------------------------
# counting suite


def _rand_indicator(rng) -> SetIndicator:
    if int(rng.choice([2, 3])) == 2:
        dims = (int(rng.integers(2, 33)), int(rng.integers(2, 513)))
    else:
        dims = (int(rng.integers(2, 9)), int(rng.integers(2, 17)),
                int(rng.integers(2, 65)))
    box = BoxSpec(dims)
    return SetIndicator(box, rng.random(dims) < rng.random())


def prop_count_paths_agree(rng, trials):
    out = PropertyOutcome("fast_path_equals_oracle")
    for _ in range(trials):
        A = _rand_indicator(rng)
        m = (1, 2) if A.box.n == 2 else (1, 2, 3)
        r = int(rng.integers(1, 6))
        out.check(counting.popular_count(A, m, r)
                  == counting.popular_count_naive(A, m, r))
    return out


def prop_count_set_oracle(rng, trials):
    out = PropertyOutcome("fast_path_equals_set_loop")
    for _ in range(trials):
        dims = (int(rng.integers(2, 13)), int(rng.integers(2, 30)))
        A = SetIndicator(BoxSpec(dims), rng.random(dims) < rng.random())
        m, r = (1, 2), int(rng.integers(1, 5))
        members = {tuple(pt) for pt in A.members()}
        ref = sum(1 for pt in members
                  if (pt[0] + r, pt[1]) in members and (pt[0], pt[1] + r * r) in members)
        out.check(counting.popular_count(A, m, r) == ref)
    return out


def _rand_grid(rng, dims) -> GridFunction:
    vals = rng.random(dims) * np.exp(2j * np.pi * rng.random(dims))
    return GridFunction(BoxSpec(dims), vals, bounded=True)


def prop_multilinearity(rng, trials):
    out = PropertyOutcome("multilinearity")
    for _ in range(trials):
        N, m = 2, (1, 2)
        dims = (N, N * N)
        f0 = _rand_grid(rng, dims)
        g = _rand_grid(rng, (2 * N, N * N))
        h = _rand_grid(rng, (2 * N, N * N))
        f2 = _rand_grid(rng, (N, 2 * N * N))
        gh = GridFunction(g.box, g.values + h.values)
        lhs = counting.lambda_simple([f0, gh, f2], m, N)
        rhs = (counting.lambda_simple([f0, g, f2], m, N)
               + counting.lambda_simple([f0, h, f2], m, N))
        out.check(abs(lhs - rhs) <= 1e-10)
    return out


def prop_lambda_bounded(rng, trials):
    out = PropertyOutcome("lambda_one_bounded")
    for _ in range(trials):
        N = int(rng.integers(2, 4))
        dims = (N, N * N)
        fs = [_rand_grid(rng, dims) for _ in range(3)]
        out.check(abs(counting.lambda_simple(fs, (1, 2), N)) <= 1.0 + 1e-12)
    return out


def prop_indicator_consistency(rng, trials):
    out = PropertyOutcome("integer_vs_float_path")
    for _ in range(trials):
        dims = (int(rng.integers(4, 13)), int(rng.integers(16, 145)))
        box = BoxSpec(dims)
        inds = [SetIndicator(box, rng.random(dims) < rng.random())
                for _ in range(3)]
        q = int(rng.integers(1, 3))
        M = int(rng.integers(1, 5))
        spec = ConfigSpec((1, 2), box, q=q, M=M)
        counts = counting.lambda_indicator_counts(inds, spec)
        exact = counts.sum() / (box.cells * spec.M)
        lam = counting.lambda_general([A.to_grid() for A in inds], spec)
        out.check(abs(lam.real - exact) <= 1e-9 * max(1.0, abs(exact))
                  and abs(lam.imag) <= 1e-12)
    return out


def prop_averaging_identity(rng, trials):
    out = PropertyOutcome("averaging_identity")
    for _ in range(trials):
        N1, N2 = 3, 9
        q, M = 1, 3
        spec = ConfigSpec((1, 2), BoxSpec((N1, N2)), q=q, M=M)
        fs = []
        for i in range(3):
            dims = tuple(2 * d if (i >= 1 and a == i - 1) else d
                         for a, d in enumerate((N1, N2)))
            fs.append(_rand_grid(rng, dims))
        lhs, rhs, _ = counting.averaging_identity_check(fs, spec)
        out.check(abs(lhs - rhs) <= 1e-9, f"{lhs} vs {rhs}")
    return out


def prop_popdiff_matches_naive(rng, trials):
    out = PropertyOutcome("popdiff_argmax_oracle")
    for _ in range(trials):
        dims = (int(rng.integers(8, 17)), int(rng.integers(64, 257)))
        A = SetIndicator(BoxSpec(dims), rng.random(dims) < 0.5)
        M = int(rng.integers(2, 16))
        res = counting.best_popular_difference(A, (1, 2), M)
        naive = [counting.popular_count_naive(A, (1, 2), r) for r in range(1, M + 1)]
        out.check(list(res.histogram) == naive
                  and res.r_star == int(np.argmax(naive)) + 1)
    return out


# ---------------------------------------------------------------------------
# gowers suite


def prop_u1_identity(rng, trials):
    out = PropertyOutcome("u1_identity")
    for _ in range(trials):
        f = _rand_line(rng, 200)
        out.check(abs(gowers.gowers_norm(f, 1) ** 2 - abs(f.total()) ** 2)
                  <= 1e-9 * max(1.0, abs(f.total()) ** 2))
    return out


def prop_u2_routes(rng, trials):
    out = PropertyOutcome("u2_spectral_vs_combinatorial")
    for _ in range(trials):
        n = int(rng.integers(2, 65))
        vals = rng.choice([-1.0, 1.0], n).astype(complex)
        f = Line(1, vals)
        a = gowers.gowers_inner(f, 2)
        b = gowers.u2_via_spectrum(f)
        out.check(abs(a - b) <= 1e-8 * max(1.0, abs(a)), f"{a} vs {b}")
    return out


def prop_modulation_translation(rng, trials):
    out = PropertyOutcome("modulation_translation_invariance")
    for _ in range(trials):
        f = _rand_line(rng, 120)
        beta = rng.random()
        xs = np.arange(f.start, f.stop)
        mod = Line(f.start, f.values * np.exp(2j * np.pi * beta * xs))
        a, b = gowers.gowers_inner(f, 2), gowers.gowers_inner(mod, 2)
        out.check(abs(a - b) <= 1e-9 * max(1.0, a), "modulation")
        shifted = Line(f.start + int(rng.integers(-30, 30)), f.values)
        out.check(gowers.gowers_inner(shifted, 2) == a, "translation")
    return out


def prop_mult_diff(rng, trials):
    out = PropertyOutcome("mult_diff_expansion")
    for _ in range(trials):
        f = _rand_line(rng, 40)
        h1, h2 = int(rng.integers(-5, 6)), int(rng.integers(-5, 6))
        d12 = gowers.mult_diff(f, (h1, h2))
        d21 = gowers.mult_diff(f, (h2, h1))
        lo = min(d12.start, d21.start)
        hi = max(d12.stop, d21.stop)
        out.check(np.abs(d12.window(lo, hi - 1) - d21.window(lo, hi - 1)).max(initial=0.0)
                  <= 1e-12, "commutativity")
        x = int(rng.integers(f.start, f.stop))
        direct = (f.at(x) * np.conj(f.at(x + h1)) * np.conj(f.at(x + h2))
                  * f.at(x + h1 + h2))
        out.check(abs(d12.at(x) - direct) <= 1e-12, "4-term expansion")
    return out


def prop_add_diff_identity(rng, trials):
    out = PropertyOutcome("additive_difference_identity")
    for _ in range(trials):
        N = int(rng.integers(5, 51))
        T = int(rng.integers(2, 50))
        alpha = PhaseTable.from_rationals(BoxSpec((N,)),
                                          rng.integers(0, T, N), T)
        hs = tuple(int(rng.integers(-8, 9)) for _ in range(int(rng.integers(1, 3))))
        out.check(gowers.diff_phase_identity_gap(alpha, hs) <= 1e-12)
    return out


def prop_directional_slices(rng, trials):
    out = PropertyOutcome("directional_slice_identity")
    for _ in range(trials):
        dims = (8, 8)
        f = _rand_grid(rng, dims)
        hs = (int(rng.integers(-4, 5)), int(rng.integers(-4, 5)))
        axis = int(rng.integers(1, 3))
        d = gowers.directional_diff(f, hs, axis)
        ok = True
        other = 1 if axis == 1 else 0
        for idx in range(dims[other]):
            sl = f.slice_line(axis - 1, (idx + 1,))
            expect = gowers.mult_diff(sl, hs)
            got = d.slice_line(axis - 1, (idx + 1,))
            lo, hi = 1, dims[axis - 1]
            if np.abs(expect.window(lo, hi) - got.window(lo, hi)).max(initial=0.0) > 1e-12:
                ok = False
        out.check(ok)
    return out


def prop_u2_inverse(rng, trials):
    out = PropertyOutcome("u2_inverse_guarantee")
    for _ in range(trials):
        n = int(rng.integers(8, 65))
        f = Line(1, rng.choice([-1.0, 1.0], n).astype(complex))
        alpha, mag = gowers.u2_inverse(f)  # the guarantee is asserted inside
        out.check(0.0 <= alpha.approx < 1.0 and mag >= 0.0)
    return out


def prop_vdc(rng, trials):
    out = PropertyOutcome("van_der_corput")
    for _ in range(trials):
        delta = float(rng.uniform(0.1, 0.6))
        M = int(np.ceil(10 / delta**2)) + int(rng.integers(0, 200))
        H = int(rng.integers(1, max(2, int(delta**2 / 4 * M) + 1)))
        lo = int(rng.integers(-20, 20))
        interval = (lo, lo + M - 1)
        k = int(rng.integers(1, 4))
        kind = rng.choice(["const", "random", "phase"])
        fam = []
        for _ in range(k):
            if kind == "const":
                vals = np.ones(M, dtype=complex)
            elif kind == "phase":
                vals = np.exp(2j * np.pi * rng.random() * np.arange(M))
            else:
                vals = rng.choice([-1.0, 1.0], M).astype(complex)
            fam.append(Line(lo, vals))
        w = rng.random(k) + 0.1
        rep = gowers.vdc_verify(fam, w / w.sum(), interval, delta, H)
        if rep.status == "vacuous":
            out.vacuous += 1
        else:
            out.check(rep.status == "pass", f"{rep.to_dict()}")
    return out


def prop_interchange(rng, trials):
    out = PropertyOutcome("interchange_2d")
    for _ in range(trials):
        N1, N2 = int(rng.integers(4, 9)), int(rng.integers(4, 7))
        s = int(rng.integers(1, 3))
        # the s-fold difference average dilutes the premise ceiling to about
        # 2^-s of the box, so the threshold scales down with s; blocks are
        # kept inside the box so projections are not truncation-diluted
        delta = 0.3 if s == 1 else 0.12
        q = int(rng.integers(1, 3))
        lo = max(1, int(np.ceil(delta * N1)))
        L = int(rng.integers(lo, max(N1 // q, lo) + 1))
        kind = rng.choice(["const", "cancel", "random"])
        if kind == "const":
            fam = [GridFunction.ones(BoxSpec((N1, N2)))]
        elif kind == "cancel":
            g = _rand_grid(rng, (N1, N2))
            fam = [g, GridFunction(g.box, -g.values)]
        else:
            fam = [_rand_grid(rng, (N1, N2)) for _ in range(int(rng.integers(1, 4)))]
        rep = gowers.interchange_verify_2d(fam, q, L, s, delta)
        if rep.status == "vacuous":
            out.vacuous += 1
        else:
            out.check(rep.status == "pass", f"{rep.to_dict()}")
    return out


def prop_same_coord(rng, trials):
    # the difference average dilutes the premise by about (1/3)^s of its
    # ceiling, so with the size floor N2 >= delta^-3 the s >= 2 premise
    # cannot fire at desk scale; s = 1 instances are tuned to fire
    out = PropertyOutcome("same_coordinate")
    for t in range(trials):
        s = 1 if t % 3 else 2
        if s == 1:
            N1, N2, delta = int(rng.integers(2, 7)), 27, 1.0 / 3
            q, L = 1, int(rng.integers(9, 14))
        else:
            N1, N2, delta = int(rng.integers(2, 7)), 16, 0.4
            q = int(rng.integers(1, 3))
            L = int(rng.integers(7, N2 + 1))
        kind = rng.choice(["const", "osc", "ap"])
        if kind == "const":
            f = GridFunction.ones(BoxSpec((N1, N2)))
        elif kind == "osc":
            signs = rng.choice([-1.0, 1.0], N2)
            f = GridFunction(BoxSpec((N1, N2)),
                             np.tile(signs, (N1, 1)).astype(complex), bounded=True)
        else:
            step = int(rng.integers(1, 4))
            ys = np.arange(1, N2 + 1)
            row = ((ys - 1) % step == 0).astype(complex)
            f = GridFunction(BoxSpec((N1, N2)), np.tile(row, (N1, 1)), bounded=True)
        rep = gowers.same_coord_verify(f, q, L, s, delta)
        if rep.status == "vacuous":
            out.vacuous += 1
        else:
            out.check(rep.status == "pass", f"{rep.to_dict()}")
    return out


# ---------------------------------------------------------------------------
# expsum suite


def prop_weyl_bounds(rng, trials):
    out = PropertyOutcome("weyl_bounds_and_wrap")
    for _ in range(trials):
        s = int(rng.integers(1, 4))
        alphas = [TorusPhase.exact(int(rng.integers(0, 100)), int(rng.integers(1, 100)))
                  for _ in range(s)]
        N = int(rng.integers(1, 200))
        v = expsum.weyl_sum(alphas, N)
        out.check(abs(v) <= 1.0 + 1e-12, "modulus")
        shifted = [TorusPhase.from_fraction(a.frac + 1) for a in alphas]
        out.check(abs(expsum.weyl_sum(shifted, N) - v) <= 1e-12, "wrap")
    return out


def prop_rational_search(rng, trials):
    out = PropertyOutcome("rational_search_oracle")
    for _ in range(trials):
        s = int(rng.integers(1, 3))
        alphas = [TorusPhase.from_float(rng.random()) for _ in range(s)]
        N = int(rng.integers(2, 60))
        Qmax = int(rng.integers(1, 50))
        got = expsum.rational_approx_search(alphas, N, Qmax)
        best = None
        for q in range(1, Qmax + 1):
            score = max(min((a.approx * q) % 1, 1 - (a.approx * q) % 1) * N**i
                        for i, a in enumerate(alphas, start=1))
            if best is None or score < best[0] - 1e-15:
                best = (score, q)
        out.check(got.q == best[1])
    return out


def prop_weyl_lipschitz(rng, trials):
    out = PropertyOutcome("weyl_snap_lipschitz")
    for _ in range(trials):
        s = int(rng.integers(1, 4))
        N = int(rng.integers(5, 100))
        alphas = [TorusPhase.from_float(rng.random()) for _ in range(s)]
        ra = expsum.rational_approx_search(alphas, N, int(rng.integers(1, 20)))
        snapped = [TorusPhase.exact(round(a.approx * ra.q), ra.q) for a in alphas]
        direct = abs(expsum.weyl_sum(snapped, N))
        rho = max(ra.residuals) if ra.residuals else 0.0
        got = abs(expsum.weyl_sum(alphas, N))
        out.check(got >= direct - 2 * np.pi * rho * s - 1e-9,
                  f"{got} vs {direct} rho={rho}")
    return out


def prop_dual_bounded(rng, trials):
    out = PropertyOutcome("dual_one_bounded")
    for _ in range(trials):
        N, m = 2, (1, 2, 3)
        f0 = _rand_grid(rng, (2, 4))
        f1 = _rand_grid(rng, (4, 4))
        f2 = _rand_grid(rng, (2, 8))
        al = PhaseTable.from_floats(BoxSpec((2, 4)), rng.random((2, 4)))
        i = int(rng.integers(1, 3))
        F = expsum.dual_function([f0, f1, f2], [al], m, N, i)
        out.check(F.max_abs() <= 1.0 + 1e-12)
    return out


def prop_stashing(rng, trials):
    out = PropertyOutcome("stashing_identity")
    for _ in range(trials):
        n = int(rng.choice([1, 2]))
        N = int(rng.integers(2, 5))
        if n == 1:
            m = (1,)
            fs = [_rand_grid(rng, (N,)), _rand_grid(rng, (2 * N,))]
        else:
            m = (1, 2)
            fs = [_rand_grid(rng, (N, N * N)),
                  _rand_grid(rng, (2 * N, N * N)),
                  _rand_grid(rng, (N, 2 * N * N))]
        lhs, rhs = expsum.stashing_identity_check(fs, [], m, N)
        out.check(abs(lhs - rhs) <= 1e-10, f"{lhs} vs {rhs}")
    return out


def prop_phi_tilde_low_rank(rng, trials):
    out = PropertyOutcome("low_rank_cancellation")
    for _ in range(trials):
        d = int(rng.integers(2, 5))
        den = int(rng.integers(2, 200))
        tables = [dict() for _ in range(d)]

        def psi(i, key):
            if key not in tables[i]:
                tables[i][key] = Fraction(int(rng.integers(0, den)), den)
            return tables[i][key]

        def phi(h):
            return sum((psi(i, tuple(v for j, v in enumerate(h) if j != i))
                        for i in range(d)), Fraction(0))

        h0 = tuple(int(rng.integers(-20, 20)) for _ in range(d))
        h1 = tuple(int(rng.integers(-20, 20)) for _ in range(d))
        val = expsum.phi_tilde(phi, h0, h1)
        out.check(val.frac == 0, f"{val.frac}")
    return out


def prop_phase_constancy(rng, trials):
    out = PropertyOutcome("phase_constancy_recovery")
    for _ in range(trials):
        N, m = 8, (2, 3)
        base = N ** m[0]
        frac = np.zeros(base)
        half = base // 2
        # random half bounded away from resonant frequencies
        frac[half:] = rng.uniform(0.35, 0.65, base - half)
        al = PhaseTable.from_floats(BoxSpec((base,)), frac)
        f = Line(1, np.ones(2 * base, dtype=complex))
        res = expsum.phase_constancy_search(f, [al], m, N, 0.3)
        out.check(res.status == "found" and res.betas[0].approx < 0.05,
                  f"beta={res.betas[0].approx if res.betas else None}")
    return out


def prop_fourier_certificate(rng, trials):
    out = PropertyOutcome("fourier_certificate")
    for _ in range(trials):
        N = 12
        f = Line(1, np.ones(2 * N, dtype=complex))
        cert = expsum.fourier_certificate(f, {}, 1, N, 0.25, 8)
        out.check(cert.mode == "major_arc" and cert.q == 1
                  and abs(cert.check(4) - 2 * N) <= 1e-9, "constant case")
        g = Line(1, (rng.random(2 * N) < 0.5).astype(complex)
                 * np.exp(2j * np.pi * rng.random(2 * N)))
        cert2 = expsum.fourier_certificate(g, {2: TorusPhase.exact(1, 5)}, 1, N,
                                           0.9, 8)
        out.check(cert2.q >= 1 and np.isfinite(cert2.check(3)), "best effort runs")
        if cert2.mode == "best_effort":
            out.vacuous += 1
    return out


# ---------------------------------------------------------------------------
# energy suite


def prop_box_count(rng, trials):
    out = PropertyOutcome("box_count")
    for _ in range(trials):
        # n = 1 exact equality
        d = int(rng.integers(2, 30))
        g1 = GridFunction(BoxSpec((d,)), rng.random(d).astype(complex))
        out.check(abs(energy.box_count(g1) - float(g1.values.real.mean()) ** 2)
                  <= 1e-12, "n=1 equality")
        dims = (int(rng.integers(2, 7)), int(rng.integers(2, 7)))
        g2 = GridFunction(BoxSpec(dims), rng.random(dims).astype(complex))
        out.check(abs(energy.box_count(g2) - energy.box_count_naive(g2)) <= 1e-12,
                  "factored vs naive")
    return out


def prop_box_count_lower(rng, trials):
    out = PropertyOutcome("box_count_power_bound")
    violations = 0
    for _ in range(trials):
        n = int(rng.choice([2, 3]))
        dims = tuple(int(rng.integers(2, 9)) for _ in range(n))
        vals = rng.random(dims)
        if rng.random() < 0.5:
            vals = (vals < rng.random()).astype(float)
        g = GridFunction(BoxSpec(dims), vals.astype(complex))
        if energy.box_count(g) < float(vals.mean()) ** (n + 1) - 1e-12:
            violations += 1
        out.passed += 1
    out.notes.append(f"constant-1 violations: {violations}")
    if violations:
        out.notes.append("violations recorded as findings, not failures")
    return out


def prop_linearization(rng, trials):
    out = PropertyOutcome("linearization_gap")
    for _ in range(trials):
        dims = (30, 900)
        f = GridFunction(BoxSpec(dims), rng.random(dims) < rng.random(),
                         bounded=True)
        delta = 0.9
        L = int(rng.integers(18, 27))  # keeps floor(delta L / 8n) >= 1
        M = int(rng.integers(1, int(delta / 16 * L) + 1))
        spec = ConfigSpec((1, 2), f.box, q=1, M=M)
        rep = energy.linearization_gap(f, spec, L, delta)
        out.check(rep.ok, f"{rep.to_dict()}")
    return out


def _increment_trial(rng, kind: str, box: BoxSpec,
                     params: energy.IncrementParams):
    """One trial of ``prop_energy_increment``: the decomposition of three
    weights of the given kind, and the planted modulus (None unless
    ``kind`` is "phase").  Real weights are drawn as float64; the weights
    are freed when the trial returns, before the next one is drawn."""
    dims = box.dims
    den = None
    if kind == "ones":
        fs = [GridFunction.ones(box)] * 3
    elif kind == "signs":
        fs = [GridFunction(box, rng.choice([-1.0, 1.0], dims), bounded=True)
              for _ in range(3)]
    elif kind == "indicator":
        fs = [GridFunction(box, rng.random(dims) < rng.random(), bounded=True)
              for _ in range(3)]
    else:
        x1 = np.arange(1, dims[0] + 1)[:, None]
        den = int(rng.integers(2, 5))
        ph = np.exp(2j * np.pi * x1 / den) * np.ones((1, dims[1]))
        fs = [GridFunction(box, np.conj(ph), bounded=True),
              GridFunction(box, ph, bounded=True),
              GridFunction.ones(box)]
    return energy.energy_increment(fs, (1, 2), 0.7, params), den


def prop_energy_increment(rng, trials):
    out = PropertyOutcome("energy_increment_termination")
    params = energy.IncrementParams(Qmax=4, tau=0.05, gamma=0.25)
    box = BoxSpec((32, 1024))
    cap = 2 * int(np.ceil(2 / params.tau))
    for t in range(trials):
        kind = ["ones", "signs", "indicator", "phase"][t % 4]
        res, den = _increment_trial(rng, kind, box, params)
        ok = (res.status in ("converged", "iteration_cap", "scale_exhausted",
                             "oracle_stalled")
              and res.iterations <= cap
              and all(t.energy_after > t.energy_before for t in res.trace))
        if kind == "ones":
            ok = ok and res.status == "converged" and res.iterations == 0
        if kind == "phase":
            # the planted modulus must divide the one the search returns
            ok = ok and res.q % den == 0
        out.check(ok, f"{kind}: {res.status} iters={res.iterations} q={res.q}")
    return out


def prop_pipeline_sweep(rng, trials):
    out = PropertyOutcome("popular_difference_pipeline")
    box = BoxSpec((16, 256))
    for t in range(trials):
        if t % 5 == 4:
            step = int(rng.integers(2, 5))
            x1 = np.arange(1, 17)[:, None] % step == 0
            mask = np.broadcast_to(x1, (16, 256)).copy()
        else:
            mask = rng.random((16, 256)) < rng.uniform(0.3, 0.95)
        A = SetIndicator(box, mask)
        if A.count == 0:
            out.vacuous += 1
            continue
        res = energy.popular_difference_pipeline(A, (1, 2), 0.1)
        out.check(res.certificate["normalized_count"] >= A.density**3 - 0.15,
                  f"norm={res.certificate['normalized_count']} mu={A.density}")
    return out


def prop_lift(rng, trials):
    out = PropertyOutcome("lift_inequality")
    for _ in range(trials):
        A = SetIndicator(BoxSpec((64,)), rng.random(64) < 0.5)
        lifted, rep = energy.lift_1d(A, (1, 2), 64)
        direct = int(lifted.mask.sum())
        out.check(rep["ok"] and direct == rep["count"], f"{rep}")
    return out


# ---------------------------------------------------------------------------
# suite registry


SUITES = {
    "partition": [prop_idempotence, prop_contraction, prop_self_adjoint,
                  prop_pythagoras, prop_monotone_energy, prop_lk_norm_formula,
                  prop_periodicity, prop_almost_periodicity,
                  prop_almost_refinement],
    "counting": [prop_count_paths_agree, prop_count_set_oracle,
                 prop_multilinearity, prop_lambda_bounded,
                 prop_indicator_consistency, prop_averaging_identity,
                 prop_popdiff_matches_naive],
    "gowers": [prop_u1_identity, prop_u2_routes, prop_modulation_translation,
               prop_mult_diff, prop_add_diff_identity, prop_directional_slices,
               prop_u2_inverse, prop_vdc, prop_interchange, prop_same_coord],
    "expsum": [prop_weyl_bounds, prop_rational_search, prop_weyl_lipschitz,
               prop_dual_bounded, prop_stashing, prop_phi_tilde_low_rank,
               prop_phase_constancy, prop_fourier_certificate],
    "energy": [prop_box_count, prop_box_count_lower, prop_linearization,
               prop_energy_increment, prop_pipeline_sweep, prop_lift],
}


def run_suite(suite: str, seed: int, trials: int) -> dict:
    """Run one named suite (or ``all``) and return the JSON-ready report."""
    if suite == "all":
        names = list(SUITES)
    elif suite in SUITES:
        names = [suite]
    else:
        raise KeyError(f"unknown suite {suite!r}")
    suite_order = list(SUITES)
    props = []
    failures = 0
    for name in names:
        for k, fn in enumerate(SUITES[name]):
            stream = suite_order.index(name) * 1000 + k
            outcome = fn(make_rng(seed, stream=stream), trials)
            failures += outcome.failed
            props.append(outcome.to_dict())
    return {"suite": suite, "seed": seed, "trials": trials,
            "failures": failures, "properties": props}
