import tracemalloc

import numpy as np
import pytest
from conftest import random_grid, random_set

from hofa import counting, energy, kernels
from hofa.core import BoxSpec, ConfigSpec, GridFunction, SetIndicator
from hofa.rng import make_rng


def unit_grid(rng, dims):
    return GridFunction(BoxSpec(dims), rng.random(dims).astype(complex))


def test_box_count_n1_equality(rng):
    for _ in range(20):
        d = int(rng.integers(2, 40))
        f = unit_grid(rng, (d,))
        assert energy.box_count(f) == pytest.approx(
            float(f.values.real.mean()) ** 2, abs=1e-13)


def test_box_count_point_mass():
    f = GridFunction.zeros(BoxSpec((2, 2)))
    f.values[0, 0] = 1
    assert energy.box_count(f) == pytest.approx(1 / 16)


def test_box_count_matches_naive(rng):
    for _ in range(10):
        dims = (int(rng.integers(2, 7)), int(rng.integers(2, 7)))
        f = unit_grid(rng, dims)
        assert energy.box_count(f) == pytest.approx(energy.box_count_naive(f),
                                                    abs=1e-12)
    f3 = unit_grid(rng, (3, 4, 3))
    assert energy.box_count(f3) == pytest.approx(energy.box_count_naive(f3),
                                                 abs=1e-12)


def test_box_count_rejects_out_of_range():
    with pytest.raises(ValueError):
        energy.box_count(GridFunction(BoxSpec((3,)), np.array([0, 1, 1.5])))
    with pytest.raises(ValueError):
        energy.box_count(GridFunction(BoxSpec((2,)), np.array([1j, 0])))


def test_cond_box_count_extremes(rng):
    full = GridFunction.ones(BoxSpec((6, 6)))
    v, p = energy.cond_box_count(full, (1, 1), (2, 3))
    assert v == pytest.approx(1.0) and p == pytest.approx(1.0)
    zero = GridFunction.zeros(BoxSpec((6, 6)))
    v0, p0 = energy.cond_box_count(zero, (1, 1), (2, 3))
    assert v0 == 0 and p0 == 0


def test_cond_box_expansion_identity(rng):
    for _ in range(5):
        f = unit_grid(rng, (12, 12))
        rep = energy.cond_box_expansion(f, (2, 1), (3, 4))
        v, _ = energy.cond_box_count(f, (2, 1), (3, 4))
        assert rep["expansion_value"] == pytest.approx(v, abs=1e-12)
        assert rep["cell_violations"] == 0
        assert rep["convexity_ok"]
    with pytest.raises(ValueError):
        energy.cond_box_expansion(unit_grid(rng, (10, 10)), (2, 1), (3, 4))


def test_linearization_gap_bound(rng):
    # admissibility needs M <= (delta / 8n) L: with delta = 0.9, n = 2 the
    # largest L = 26 admits M = 1
    for _ in range(10):
        dims = (30, 900)
        vals = (rng.random(dims) < rng.random()).astype(complex)
        f = GridFunction(BoxSpec(dims), vals, bounded=True)
        L = int(rng.integers(18, 27))
        spec = ConfigSpec((1, 2), f.box, q=1, M=1)
        rep = energy.linearization_gap(f, spec, L=L, delta=0.9)
        assert rep.ok
        assert rep.bound == pytest.approx(4 * (1 / L) + 4 * (1 / L) ** 2)
    with pytest.raises(ValueError):
        energy.linearization_gap(f, ConfigSpec((1, 2), f.box, q=1, M=20),
                                 L=20, delta=0.9)


def test_axis_approximant_matches_cond_expect_every_axis(rng):
    from hofa.core import Line
    from hofa.partition import APPartition, cond_expect
    # the approximant is an atom table; the gathered grid has its axis doubled
    g = GridFunction(BoxSpec((5, 18)), rng.random((5, 18)).astype(complex))
    F2 = energy.axis_approximant(g, 2, 3, 4)
    assert F2.shape == (5, 36) and F2.dtype == np.complex128
    grid2 = np.asarray(F2)
    assert grid2.shape == (5, 36)
    for x1 in range(1, 6):
        sl = cond_expect(Line(1, g.values[x1 - 1].copy()), APPartition(3, 4))
        assert np.abs(grid2[x1 - 1, :36] - sl.window(1, 36)).max() <= 1e-14
    g3 = GridFunction(BoxSpec((3, 4, 10)), rng.random((3, 4, 10)).astype(complex))
    F3 = energy.axis_approximant(g3, 3, 2, 3)
    grid3 = np.asarray(F3)
    assert grid3.shape == (3, 4, 20)
    for i in range(3):
        for j in range(4):
            sl = cond_expect(Line(1, g3.values[i, j].copy()), APPartition(2, 3))
            assert np.abs(grid3[i, j, :20] - sl.window(1, 20)).max() <= 1e-14
    # a crop gathers the same cells
    crop = (slice(1, 3), slice(0, 4), slice(5, 17))
    assert np.array_equal(np.asarray(F3[(...,) + crop]), grid3[crop])


def test_axis_projection_energy_monotone_under_scale(rng):
    f = random_grid(rng, (16, 64))
    # the trivial one-block partition carries the least energy
    base = energy.axis_projection_energy(f, 1, 1, 16)
    finer = energy.axis_projection_energy(f, 1, 1, 4)
    assert finer >= base - 1e-9


def test_axis_projection_energy_memory_linear_in_axis(rng):
    # at (1, 1) every point is its own atom, so the energy is E ||slice||^2;
    # a K x length atom matrix would need 384 MB here and 4 GB on 4x16384
    for dims in ((8, 4096), (4, 16384)):
        f = random_grid(rng, dims)
        tracemalloc.start()
        try:
            e = energy.axis_projection_energy(f, 2, 1, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert e == pytest.approx(np.sum(np.abs(f.values) ** 2) / dims[0])


def test_energy_increment_trivial_converges_at_zero():
    box = BoxSpec((32, 1024))
    ones = GridFunction.ones(box)
    params = energy.IncrementParams(Qmax=4, tau=0.05, gamma=0.25)
    res = energy.energy_increment([ones] * 3, (1, 2), 0.7, params)
    assert res.status == "converged"
    assert res.iterations == 0
    assert res.final_gap == pytest.approx(0.0, abs=1e-12)
    assert res.q == 1


def test_energy_increment_dead_first_scale_builds_no_approximant(monkeypatch):
    # L = 16^(1/2) = 4 and floor(0.1 * 4 / 16) = 0: the first scale is dead
    calls = []
    original = energy.axis_approximant
    monkeypatch.setattr(energy, "axis_approximant",
                        lambda *a: calls.append(a) or original(*a))
    ones = GridFunction.ones(BoxSpec((4, 16)))
    res = energy.energy_increment([ones] * 3, (1, 2), 0.1)
    assert res.status == "scale_exhausted"
    assert res.iterations == 0
    assert calls == []


def test_energy_increment_random_signs_converge(rng):
    box = BoxSpec((32, 1024))
    fs = [GridFunction(box, rng.choice([-1.0, 1.0], box.dims).astype(complex),
                       bounded=True) for _ in range(3)]
    res = energy.energy_increment(fs, (1, 2), 0.7,
                                  energy.IncrementParams(Qmax=4, tau=0.05,
                                                         gamma=0.25))
    assert res.status == "converged" and res.iterations == 0


def test_energy_increment_oracle_selects_resonant_modulus():
    # phase with period 3 along axis 1: the projection onto the trivial
    # partition destroys it, so the first test fails and the search must
    # find the modulus 3 refinement
    dims = (32, 1024)
    box = BoxSpec(dims)
    x1 = np.arange(1, 33)[:, None]
    ph = np.exp(2j * np.pi * x1 / 3) * np.ones((1, 1024))
    fs = [GridFunction(box, np.conj(ph), bounded=True),
          GridFunction(box, ph, bounded=True),
          GridFunction.ones(box)]
    params = energy.IncrementParams(Qmax=4, tau=0.05, gamma=0.75)
    res = energy.energy_increment(fs, (1, 2), 0.7, params)
    assert res.trace, "the oracle must run at least once"
    assert res.trace[0].q_step == 3
    assert res.trace[0].axis == 1
    assert all(t.energy_after > t.energy_before for t in res.trace)
    assert res.q % 3 == 0
    assert res.iterations <= 2 * int(np.ceil(2 / params.tau))


def test_energy_increment_full_cycle_converges_after_step():
    # quadratic channel: e(x_2 / 3) driven by r^2 resists the trivial
    # projection but is exactly preserved by the modulus-3 partition, so one
    # increment step suffices
    dims = (128, 16384)
    box = BoxSpec(dims)
    x2 = np.arange(1, dims[1] + 1)[None, :]
    ph = np.exp(2j * np.pi * x2 / 3) * np.ones((dims[0], 1))
    fs = [GridFunction(box, np.conj(ph), bounded=True),
          GridFunction.ones(box),
          GridFunction(box, ph, bounded=True)]
    params = energy.IncrementParams(Qmax=4, tau=0.05, gamma=0.25)
    res = energy.energy_increment(fs, (1, 2), 0.5, params)
    assert res.status == "converged"
    assert res.iterations == 1
    assert res.q == 3
    assert res.trace[0].axis == 2
    assert res.range_ok
    assert res.final_gap <= 0.5


@pytest.mark.parametrize("field, kwargs", [
    ("Qmax", {"Qmax": 0}), ("tau", {"tau": 0.0}), ("tau", {"tau": -1.0}),
    ("tau", {"tau": float("nan")}), ("gamma", {"gamma": 0.0}),
    ("gamma", {"gamma": 1.0}), ("gamma", {"gamma": 1.5}),
    ("gamma", {"gamma": -0.25}),
])
def test_increment_params_refuses_out_of_range(field, kwargs):
    # tau = 0 divided by zero, tau < 0 made the iteration cap negative,
    # gamma >= 1 grew the scale, Qmax = 0 searched no modulus
    with pytest.raises(ValueError, match=f"IncrementParams.{field}"):
        energy.IncrementParams(**kwargs)
    energy.IncrementParams(Qmax=1, tau=1e-3, gamma=0.5)


def test_energy_increment_trace_in_to_dict():
    dims = (32, 1024)
    box = BoxSpec(dims)
    x1 = np.arange(1, 33)[:, None]
    ph = np.exp(2j * np.pi * x1 / 3) * np.ones((1, 1024))
    fs = [GridFunction(box, np.conj(ph), bounded=True),
          GridFunction(box, ph, bounded=True), GridFunction.ones(box)]
    res = energy.energy_increment(fs, (1, 2), 0.7,
                                  energy.IncrementParams(Qmax=4, gamma=0.75))
    d = res.to_dict()
    assert d["status"] == res.status and len(d["trace"]) == len(res.trace)


def test_pipeline_full_box_converges():
    A = SetIndicator.full(BoxSpec((32, 1024)))
    res = energy.popular_difference_pipeline(A, (1, 2), 0.5)
    cert = res.certificate
    assert cert["status"] == "converged"
    assert not cert["fallback"] and not cert["vacuous"]
    assert cert["q"] == 1
    assert res.r_star == 1
    assert res.count == (32 - 1) * (1024 - 1)


def test_pipeline_empty_rejected():
    A = SetIndicator.empty(BoxSpec((8, 64)))
    with pytest.raises(ValueError):
        energy.popular_difference_pipeline(A, (1, 2), 0.1)


def test_pipeline_fallback_equals_direct(rng):
    A = random_set(rng, (16, 256), p=0.5)
    res = energy.popular_difference_pipeline(A, (1, 2), 0.1)
    assert res.certificate["fallback"]
    direct = counting.best_popular_difference(A, (1, 2), 16)
    assert res.r_star == direct.r_star
    assert res.count == direct.count
    assert list(res.histogram) == list(direct.histogram)


def test_pipeline_fallback_disabled_raises(rng):
    A = random_set(rng, (16, 256), p=0.5)
    with pytest.raises(energy.DecompositionError):
        energy.popular_difference_pipeline(A, (1, 2), 0.1, allow_fallback=False)


def test_pipeline_vacuous_density():
    rng = make_rng(41)
    A = SetIndicator(BoxSpec((16, 256)), rng.random((16, 256)) < 0.05)
    res = energy.popular_difference_pipeline(A, (1, 2), 0.1)
    assert res.certificate["vacuous"]


def test_lift_examples():
    full = SetIndicator.full(BoxSpec((64,)))
    lifted, rep = energy.lift_1d(full, (1, 2), 64)
    assert rep["ok"]
    assert lifted.box.dims == (8, 64)
    empty = SetIndicator.empty(BoxSpec((64,)))
    l0, rep0 = energy.lift_1d(empty, (1, 2), 64)
    assert l0.count == 0 and rep0["ok"]
    with pytest.raises(ValueError):
        energy.lift_1d(full, (1, 2), 60)  # 60 is not a perfect square


def test_lift_refuses_negative_N():
    # the integer root of a negative N is refused, not a complex power
    A = SetIndicator.full(BoxSpec((4,)))
    with pytest.raises(ValueError, match="N = -4 < 0"):
        energy.lift_1d(A, (1, 2), -4)


def test_lift_refuses_box_past_cap():
    # [2^12] x [2^24] has 2^36 cells: refused before the 512 GiB grid of
    # coordinate sums is built
    A = SetIndicator.empty(BoxSpec((1 << 24,)))
    with pytest.raises(ValueError, match="dense-storage cap of 2\\^27"):
        energy.lift_1d(A, (1, 2), 1 << 24)


def test_lift_membership_and_inequality(rng):
    A = SetIndicator(BoxSpec((64,)), rng.random(64) < 0.5)
    lifted, rep = energy.lift_1d(A, (1, 2), 64)
    assert rep["ok"]
    member = set(np.nonzero(A.mask)[0] + 1)
    for x1 in (1, 3, 8):
        for x2 in (1, 17, 64):
            assert lifted.mask[x1 - 1, x2 - 1] == ((x1 + x2) in member)
    # exact integer lower bound
    assert rep["lower_bound"] == (A.count - 8) * 8


def test_pipeline_dead_first_scale_builds_no_grid(rng, monkeypatch):
    # L0 = 256^(1/2) = 16 and floor(0.1 * 16 / 16) = 0: the decomposition
    # stops at once, so the certificate is the one it gave on the grid
    cases = [(random_set(rng, (16, 256), p=0.6), (1, 2), 0.1),
             (random_set(rng, (16, 256), p=0.9), (1, 2), 0.5),
             (random_set(rng, (8, 64, 512), p=0.8), (1, 2, 3), 0.2)]
    want = []
    for A, m, delta in cases:
        n = len(m)
        L0 = energy._integer_root(A.box.dims[-1], m[-1])
        assert int(delta * L0 / (8 * n)) == 0
        dec = energy.energy_increment([A.to_grid()] * (n + 1), m, delta)
        direct = counting.best_popular_difference(A, m, L0)
        mu_pow = A.density ** (n + 1)
        assert mu_pow > delta  # not vacuous
        want.append(({"mu": A.density, "mu_pow": mu_pow, "delta": delta,
                      "threshold": (mu_pow - delta) / 2 ** (n + 1),
                      "threshold_divisor": 2 ** (n + 1), "vacuous": False,
                      "status": dec.status, "iterations": dec.iterations,
                      "fallback": True, "q": 1, "L": dec.L, "lambda": None,
                      "normalized_count": direct.count / A.box.cells,
                      "range_ok": dec.range_ok}, direct))
        want[-1][0]["threshold_met"] = (want[-1][0]["normalized_count"]
                                        >= want[-1][0]["threshold"])
        assert (dec.status, dec.iterations, dec.L) == ("scale_exhausted", 0, L0)

    def no_grid(self):
        raise AssertionError("to_grid called")

    monkeypatch.setattr(SetIndicator, "to_grid", no_grid)
    for (A, m, delta), (cert, direct) in zip(cases, want):
        res = energy.popular_difference_pipeline(A, m, delta)
        assert res.certificate == cert
        assert (res.r_star, res.count) == (direct.r_star, direct.count)
        assert list(res.histogram) == list(direct.histogram)
        with pytest.raises(energy.DecompositionError):
            energy.popular_difference_pipeline(A, m, delta,
                                               allow_fallback=False)
    # a box that breaks the exponent chain is refused as before
    A = SetIndicator.full(BoxSpec((2, 1024)))
    with pytest.raises(ValueError, match="N_2"):
        energy.popular_difference_pipeline(A, (1, 2), 0.1)


def _certificate_head(A, m, delta):
    n = len(m)
    mu_pow = A.density ** (n + 1)
    return {"mu": A.density, "mu_pow": mu_pow, "delta": delta,
            "threshold": (mu_pow - delta) / 2 ** (n + 1),
            "threshold_divisor": 2 ** (n + 1)}


def test_pipeline_converged_certificate_pinned():
    # the whole certificate, rebuilt from the decomposition and the integer
    # histogram at its final (q, L); the 1-D half-interval takes one step
    half = _increment_cases(4096)[2]
    assert half[1] == (1,)
    cases = [(SetIndicator(BoxSpec((64, 4096)),
                           make_rng(5).random((64, 4096)) < 0.85), (1, 2), 0.5),
             (SetIndicator.full(BoxSpec((4096,))), (1,), 0.5),
             (*half, 0.2)]
    steps = set()
    for A, m, delta in cases:
        n = len(m)
        dec = energy.energy_increment([A] * (n + 1), m, delta)
        assert dec.status == "converged"
        steps.add(dec.iterations)
        Mp = int(delta * dec.L / (8 * n))
        hist = counting.lambda_indicator_counts(
            [A] * (n + 1), ConfigSpec(m, A.box, dec.q, Mp))
        best = hist.argmax() + 1
        cert = _certificate_head(A, m, delta) | {
            "vacuous": False, "status": "converged",
            "iterations": dec.iterations, "fallback": False, "q": dec.q,
            "L": dec.L, "M": Mp, "lambda": hist.sum() / (A.box.cells * Mp),
            "r_multiplier": best,
            "normalized_count": hist[best - 1] / A.box.cells,
            "range_ok": dec.range_ok}
        cert["threshold_met"] = cert["normalized_count"] >= cert["threshold"]
        res = energy.popular_difference_pipeline(A, m, delta)
        assert res.certificate == cert
        assert (res.r_star, res.count) == (dec.q * best, hist[best - 1])
        assert list(res.histogram) == list(hist)
    assert steps == {0, 1}


def test_pipeline_vacuous_certificate_pinned():
    # mu^(n+1) <= delta: no decomposition, and the histogram is the direct
    # one over [1, floor(N_n^(1/m_n))]; a full set at delta = 1 is the edge
    cases = [(SetIndicator(BoxSpec((16, 256)),
                           make_rng(41).random((16, 256)) < 0.05), (1, 2), 0.1),
             (SetIndicator(BoxSpec((8, 64, 512)),
                           make_rng(6).random((8, 64, 512)) < 0.3),
              (1, 2, 3), 0.2),
             (SetIndicator.full(BoxSpec((8, 64))), (1, 2), 1.0)]
    for A, m, delta in cases:
        n = len(m)
        L0 = energy._integer_root(A.box.dims[-1], m[-1])
        hist = counting.lambda_indicator_counts(
            [A] * (n + 1), ConfigSpec(m, A.box, 1, L0))
        best = hist.argmax() + 1
        cert = _certificate_head(A, m, delta) | {
            "vacuous": True, "fallback": False, "status": "vacuous", "q": 1,
            "L": None, "lambda": None,
            "normalized_count": hist[best - 1] / A.box.cells}
        cert["threshold_met"] = cert["normalized_count"] >= cert["threshold"]
        res = energy.popular_difference_pipeline(A, m, delta,
                                                 allow_fallback=False)
        assert res.certificate == cert
        assert (res.r_star, res.count) == (best, hist[best - 1])
        assert list(res.histogram) == list(hist)


def test_pipeline_dead_first_scale_memory_bounded_by_words(tmp_path):
    # 512x16384 at delta 0.1 has a dead first scale (L0 = 128); the complex
    # grid the decomposition never reads was 16 bytes per cell
    from hofa.setfile import read_set, write_set
    dims = (512, 16384)
    path = tmp_path / "big.boxb"
    write_set(SetIndicator(BoxSpec(dims), make_rng(3).random(dims) < 0.6),
              path, binary=True)
    tracemalloc.start()
    try:
        A = read_set(path)
        res = energy.popular_difference_pipeline(A, (1, 2), 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    cert = res.certificate
    assert (cert["status"], cert["iterations"], cert["L"]) == (
        "scale_exhausted", 0, 128)
    assert cert["fallback"] and cert["range_ok"]
    assert peak <= A.packed.words.nbytes + 4 * 2**20


def _increment_cases(N):
    """Sets on [N] and on [sqrt N] x [N] whose decompositions converge,
    stall or exhaust the scale after various numbers of steps."""
    t = int(round(N ** 0.5))
    rng = make_rng(11)
    x = np.arange(N)
    top = N.bit_length() - 2  # the highest bit of x < N
    sets = [
        (rng.random(N) < 0.5, (1,)),
        (rng.random((t, N)) < 0.9, (1, 2)),
        (x < N // 2, (1,)),
        (np.broadcast_to(x < N // 2, (t, N)), (1, 2)),
        (np.broadcast_to(np.arange(t)[:, None] < t // 2, (t, N)), (1, 2)),
    ]
    # x whose chosen bits hold at least th ones: structure at several scales
    for bits, th in (((top - 2, top - 1, top), 2), ((top - 3, top - 1), 1),
                     ((top - 5, top - 3, top - 1), 2)):
        sets.append((sum((x >> b) & 1 for b in bits) >= th, (1,)))
    return [(SetIndicator(BoxSpec(mask.shape), mask), m) for mask, m in sets]


def test_energy_increment_on_sets_matches_their_grids():
    # the decomposition of a set, passed as its own 0/1 weight, is bit for
    # bit the decomposition of its complex grid, whatever the outcome
    seen = set()
    for N in (256, 1024, 4096):
        for A, m in _increment_cases(N):
            n = len(m)
            for delta in (0.05, 0.1, 0.2, 0.4):
                for params in (energy.IncrementParams(Qmax=4, gamma=0.25),
                               energy.IncrementParams(Qmax=4, gamma=0.5),
                               None):
                    res = energy.energy_increment([A] * (n + 1), m, delta,
                                                  params).to_dict()
                    want = energy.energy_increment([A.to_grid()] * (n + 1), m,
                                                   delta, params).to_dict()
                    assert repr(res) == repr(want), (N, m, delta, params)
                    seen.add((res["status"], res["iterations"]))
    assert {("converged", k) for k in range(4)} <= seen
    assert {("scale_exhausted", k) for k in range(3)} <= seen
    assert ("oracle_stalled", 0) in seen


def test_pipeline_converging_memory_per_cell():
    # 64x4096 at p = 0.85 and delta 0.5 converges after 0 steps; the set is
    # its own weight and the approximants are atom tables, so what is left
    # is the mask (1 byte per cell), one float64 product per r and the one
    # gathered factor being multiplied in (8 bytes per cell each)
    dims = (64, 4096)
    # packed only, as read from a binary file: the mask is unpacked inside
    A = SetIndicator(BoxSpec(dims),
                     kernels.pack_mask(make_rng(5).random(dims) < 0.85))
    tracemalloc.start()
    try:
        res = energy.popular_difference_pipeline(A, (1, 2), 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.certificate["status"] == "converged"
    assert res.certificate["iterations"] == 0
    assert peak <= 24 * A.box.cells


def test_energy_increment_complex_memory_per_cell():
    # the inputs are three complex grids built before tracing; beyond them
    # the decomposition holds one complex product, one gathered factor and
    # the sorted copy of a projection's atom sums, never a doubled grid
    box = BoxSpec((32, 1024))
    rng = make_rng(3)
    fs = [GridFunction(box, rng.random(box.dims)
                       * np.exp(2j * np.pi * rng.random(box.dims)),
                       bounded=True) for _ in range(3)]
    params = energy.IncrementParams(Qmax=4, tau=0.05, gamma=0.25)
    tracemalloc.start()
    try:
        res = energy.energy_increment(fs, (1, 2), 0.7, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.status == "converged"
    assert peak <= 48 * box.cells


@pytest.mark.parametrize("den", [2, 3, 4])
def test_energy_increment_finds_planted_modulus(den):
    # a phase e(x_1 / den) against its conjugate: the trivial projection
    # loses it, and the step must find a modulus that den divides
    dims = (32, 1024)
    box = BoxSpec(dims)
    x1 = np.arange(1, dims[0] + 1)[:, None]
    ph = np.exp(2j * np.pi * x1 / den) * np.ones((1, dims[1]))
    fs = [GridFunction(box, np.conj(ph), bounded=True),
          GridFunction(box, ph, bounded=True), GridFunction.ones(box)]
    params = energy.IncrementParams(Qmax=4, tau=0.05, gamma=0.25)
    res = energy.energy_increment(fs, (1, 2), 0.7, params)
    assert res.iterations == 1
    assert res.q == den
    assert res.q % den == 0


@pytest.mark.parametrize("m", [(1, 1), (2, 1), (2, 2, 3)])
def test_energy_increment_refuses_non_increasing_exponents(m):
    box = BoxSpec((16, 16, 16)[:len(m)])
    fs = [GridFunction.ones(box)] * (len(m) + 1)
    with pytest.raises(ValueError, match="strictly increasing"):
        energy.energy_increment(fs, m, 0.5)


@pytest.mark.parametrize("p", [0.9, 0.05])
@pytest.mark.parametrize("m", [(1, 1), (2, 1)])
def test_pipeline_refuses_non_increasing_exponents_on_every_path(p, m):
    # p = 0.05 is vacuous (mu^3 <= delta), p = 0.9 runs the decomposition
    A = SetIndicator(BoxSpec((64, 64)), make_rng(7).random((64, 64)) < p)
    with pytest.raises(ValueError, match="strictly increasing"):
        energy.popular_difference_pipeline(A, m, 0.1)


def test_set_approximant_is_real_and_matches_its_grid(rng):
    # a set's table is float64, bit for bit the real part of its grid's
    A = random_set(rng, (12, 40), p=0.4)
    for axis, Q, Lp in ((1, 1, 12), (2, 3, 5), (2, 1, 1)):
        F = energy.axis_approximant(A, axis, Q, Lp)
        G = energy.axis_approximant(A.to_grid(), axis, Q, Lp)
        assert F.dtype == np.float64 and G.dtype == np.complex128
        assert F.shape == G.shape
        assert np.array_equal(np.asarray(F), np.asarray(G).real)
        assert not np.asarray(G).imag.any()
