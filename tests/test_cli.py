import io
import json
import subprocess
import sys
from importlib import resources

import jsonschema
import numpy as np
import pytest

from hofa import cli, counting
from hofa.core import MAX_EXPONENT, BoxSpec, SetIndicator
from hofa.rng import make_rng
from hofa.setfile import SetFileError, _parse_header, read_set, write_set


def run_cli(*args, cwd=None, timeout=None):
    proc = subprocess.run([sys.executable, "-m", "hofa", *args],
                          capture_output=True, text=True, cwd=cwd,
                          timeout=timeout)
    return proc


@pytest.fixture(scope="module")
def schema():
    with resources.files("hofa.schemas").joinpath("cli.schema.json").open() as fh:
        return json.load(fh)


def check_json(proc, schema):
    doc = json.loads(proc.stdout)
    jsonschema.validate(doc, schema)
    return doc


def test_gen_full_and_count(tmp_path, schema):
    out = tmp_path / "full.box"
    proc = run_cli("gen", "full", "--box", "8,32", "--out", str(out))
    assert proc.returncode == 0
    doc = check_json(proc, schema)
    assert doc["members"] == 256

    proc2 = run_cli("count", "--set", str(out), "--m", "1,2", "--N", "4",
                    "--oracle")
    assert proc2.returncode == 0
    doc2 = check_json(proc2, schema)
    assert doc2["lambda"]["re"] == pytest.approx(1.0)
    assert doc2["ok"] is True
    assert doc2["oracle"]["max_dev"] <= 1e-9


def test_count_empty_set(tmp_path, schema):
    out = tmp_path / "empty.box"
    run_cli("gen", "empty", "--box", "8,32", "--out", str(out))
    proc = run_cli("count", "--set", str(out), "--m", "1,2", "--N", "4")
    doc = check_json(proc, schema)
    assert doc["lambda"]["re"] == 0.0
    assert doc["integer_count"] == 0


def test_count_general_operator(tmp_path, schema):
    out = tmp_path / "rand.box"
    run_cli("gen", "random", "--box", "10,100", "--p", "0.5", "--seed", "5",
            "--out", str(out))
    proc = run_cli("count", "--set", str(out), "--m", "1,2", "--q", "2",
                   "--M", "3", "--oracle")
    assert proc.returncode == 0
    doc = check_json(proc, schema)
    assert doc["operator"] == "general"
    assert doc["normalization"] == 10 * 100 * 3
    assert doc["ok"] is True


def test_count_power_box_integer_count(tmp_path, schema):
    out = tmp_path / "rand.box"
    run_cli("gen", "random", "--box", "3,9", "--p", "0.6", "--seed", "8",
            "--out", str(out))
    proc = run_cli("count", "--set", str(out), "--m", "1,2", "--N", "3")
    assert proc.returncode == 0
    doc = check_json(proc, schema)
    assert doc["operator"] == "simple"
    assert doc["normalization"] == 3 * 9 * 3
    assert doc["integer_count"] > 0
    assert doc["integer_count"] == round(doc["lambda"]["re"]
                                         * doc["normalization"])


def test_gen_determinism(tmp_path):
    a, b = tmp_path / "a.box", tmp_path / "b.box"
    run_cli("gen", "random", "--box", "6,36", "--p", "0.5", "--seed", "1",
            "--out", str(a))
    run_cli("gen", "random", "--box", "6,36", "--p", "0.5", "--seed", "1",
            "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_gen_residue_density(tmp_path, schema):
    out = tmp_path / "res.box"
    proc = run_cli("gen", "residue", "--q", "3", "--allowed", "0",
                   "--box", "9,81", "--out", str(out))
    doc = check_json(proc, schema)
    assert doc["members"] == 9 * 81 // 9  # density exactly 1/9


def test_gen_product_ap(tmp_path, schema):
    out = tmp_path / "ap.box"
    proc = run_cli("gen", "product-ap", "--box", "10,10", "--start", "2,1",
                   "--step", "3,4", "--out", str(out))
    doc = check_json(proc, schema)
    A = read_set(out)
    assert doc["members"] == A.count == 3 * 3  # {2,5,8} x {1,5,9}


@pytest.mark.parametrize("argv", [
    ["count", "--m", "1,2,3", "--N", "2", "--phase-const", "1/0"],
    ["count", "--m", "1,2,3", "--N", "2", "--phase-const", "1/-3"],
    ["count", "--m", "1,2,3", "--N", "2", "--phase-const", "nan"],
    ["count", "--m", "1,2,3", "--N", "2", "--phase-const", "inf"],
    ["count", "--m", "1,2,3", "--N", "2", "--phase-const", "abc"],
    ["count", "--m", "1,2,3", "--N", "2", "--phase-const", "1/2/3"],
    ["gen", "residue", "--box", "3,9", "--q", "0", "--allowed", "0"],
    ["gen", "product-ap", "--box", "3,9", "--start", "1,1", "--step", "0,-2"],
    ["gen", "random", "--box", "3,9", "--p", "nan"],
    ["gen", "random", "--box", "3,9", "--p", "2"],
    ["gen", "random", "--box", "3,9", "--p", "-0.5"],
    *(["popdiff", "--m", "1,2", "--pipeline", "--fallback", f"--delta={d}"]
      for d in ("nan", "inf", "-inf", "-1", "0", "2")),
    ["popdiff", "--m", "1,2", "--delta", "0.5"],
    ["popdiff", "--m", "1,2", "--fallback"],
    ["popdiff", "--m", "1,2", "--pipeline", "--delta", "0.5", "--M", "3"],
    *(["bench", "--box", "4,16", "--p", p] for p in ("nan", "-0.5", "2")),
    # a seed is one 64-bit key word: -1 was exit 3, 2^64 drew seed 0
    *(argv + ["--seed", seed] for seed in ("-1", str(1 << 64))
      for argv in (["verify", "partition", "--trials", "1"],
                   ["gen", "random", "--box", "3,9", "--p", "0.5"],
                   ["bench", "--box", "4,16"])),
    *(["verify", "partition", "--trials", t] for t in ("-3", "0")),
    ["bench", "--box", "4,16", "--m", "1,2,3"],
])
def test_argument_edges_exit2(tmp_path, capsys, argv):
    # each was a traceback, a NaN or Infinity in the JSON document, exit 3
    # for malformed input, a silently clamped step, a result built on an
    # out-of-range value, or a flag of the other mode silently ignored
    A = tmp_path / "a.box"
    A.write_text("box 2 4\n1 1\n2 4\n", encoding="utf-8")
    target = tmp_path / "o.box"
    where = {"count": ["--set", str(A)], "popdiff": ["--set", str(A)],
             "gen": ["--out", str(target)]}.get(argv[0], [])
    assert cli.main(argv + where) == 2
    out, err = capsys.readouterr()
    assert out == "" and "usage error" in err and "Traceback" not in err
    assert not target.exists()


def test_gen_binary_format(tmp_path, schema):
    out = tmp_path / "b.box"
    proc = run_cli("gen", "random", "--box", "5,25", "--p", "0.4", "--seed",
                   "3", "--out", str(out), "--binary")
    doc = check_json(proc, schema)
    assert doc["format"] == "binary"
    assert out.read_bytes().startswith(b"HOFA1\n")
    assert read_set(out).count == doc["members"]


def test_popdiff_direct(tmp_path, schema):
    out = tmp_path / "full.box"
    run_cli("gen", "full", "--box", "8,64", "--out", str(out))
    hist = tmp_path / "hist.json"
    proc = run_cli("popdiff", "--set", str(out), "--m", "1,2", "--M", "10",
                   "--out", str(hist))
    assert proc.returncode == 0
    doc = check_json(proc, schema)
    assert doc["r_star"] == 1
    assert doc["histogram_path"] == str(hist)
    payload = json.loads(hist.read_text())
    assert len(payload["histogram"]) == 10


def test_popdiff_pipeline_fallback(tmp_path, schema):
    out = tmp_path / "rand.box"
    run_cli("gen", "random", "--box", "16,256", "--p", "0.5", "--seed", "2",
            "--out", str(out))
    proc = run_cli("popdiff", "--set", str(out), "--m", "1,2", "--delta",
                   "0.1", "--pipeline", "--fallback")
    assert proc.returncode == 0
    doc = check_json(proc, schema)
    assert doc["certificate"]["fallback"] is True
    proc2 = run_cli("popdiff", "--set", str(out), "--m", "1,2", "--delta",
                    "0.1", "--pipeline")
    assert proc2.returncode == 3  # fallback disabled, decomposition dies


def test_popdiff_one_document_for_both_modes(tmp_path, capsys, schema):
    # direct and pipeline print the same keys; a fallback searches the
    # direct default range, so its histogram file is the direct one
    out = tmp_path / "rand.box"
    cli.main(["gen", "random", "--box", "16,256", "--p", "0.6", "--seed", "2",
              "--out", str(out)])
    capsys.readouterr()
    docs, hists = [], []
    for mode in ([], ["--pipeline", "--delta", "0.1", "--fallback"]):
        hist = tmp_path / f"h{len(mode)}.json"
        assert cli.main(["popdiff", "--set", str(out), "--m", "1,2",
                         "--out", str(hist)] + mode) == 0
        doc = json.loads(capsys.readouterr().out)
        jsonschema.validate(doc, schema)
        docs.append(doc)
        hists.append(hist.read_bytes())
    direct, pipeline = docs
    assert set(direct) == set(pipeline) == {
        "command", "mode", "r_star", "count", "certificate", "histogram_path"}
    assert (direct["mode"], pipeline["mode"]) == ("direct", "pipeline")
    assert direct["certificate"] is None
    assert pipeline["certificate"]["fallback"] is True
    assert (direct["r_star"], direct["count"]) == (pipeline["r_star"],
                                                   pipeline["count"])
    assert hists[0] == hists[1]


def _closes_configuration(mask, cell, m, M) -> bool:
    """Whether some x, x + r^(m_j) e_j (r <= M) in the box, one of them
    ``cell``, lies wholly in ``mask``."""
    n = mask.ndim
    for r in range(1, M + 1):
        shifts = [r ** mj for mj in m]
        for slot in range(n + 1):
            x = list(cell)
            if slot:
                x[slot - 1] -= shifts[slot - 1]
            pts = [tuple(x)] + [tuple(c + shifts[j] * (a == j)
                                      for a, c in enumerate(x))
                                for j in range(n)]
            if all(all(0 <= c < d for c, d in zip(pt, mask.shape)) and mask[pt]
                   for pt in pts):
                return True
    return False


def configuration_free_mask(dims, m, M, seed) -> np.ndarray:
    """A seeded greedy set with no configuration x, x + r^(m_j) e_j for
    r <= M: cells are visited in a random order, and each is kept only if
    it closes none."""
    mask = np.zeros(dims, dtype=bool)
    for flat in make_rng(seed).permutation(int(np.prod(dims))):
        cell = np.unravel_index(flat, dims)
        mask[cell] = True
        mask[cell] = not _closes_configuration(mask, cell, m, M)
    return mask


@pytest.mark.parametrize("kind", ["configuration-free", "full"])
def test_popdiff_certificate_threshold_met(tmp_path, capsys, schema, kind):
    # threshold_met compares the normalized count with the threshold
    # (mu^3 - delta) / 8: a full 8x64 set meets it, and a greedy
    # configuration-free one (density about 0.45, every count 0) does not
    # at delta = 0.01, though it exits 0 like any nonempty set
    dims = (8, 64)
    mask = (configuration_free_mask(dims, (1, 2), 8, 1)
            if kind == "configuration-free" else np.ones(dims, dtype=bool))
    A = SetIndicator(BoxSpec(dims), mask)
    path = tmp_path / "a.box"
    write_set(A, path)
    assert cli.main(["popdiff", "--set", str(path), "--m", "1,2",
                     "--pipeline", "--delta", "0.01", "--fallback"]) == 0
    doc = json.loads(capsys.readouterr().out)
    jsonschema.validate(doc, schema)
    cert = doc["certificate"]
    assert cert["threshold"] == (A.density ** 3 - 0.01) / 8 > 0
    assert cert["threshold_met"] is (kind == "full")
    if kind == "configuration-free":
        assert 0.4 < A.density and cert["normalized_count"] == 0
        assert cli.main(["popdiff", "--set", str(path), "--m", "1,2"]) == 0
        assert json.loads(capsys.readouterr().out)["count"] == 0
    else:
        assert cert["normalized_count"] > cert["threshold"]


@pytest.mark.parametrize("p", [0.9, 0.05])
@pytest.mark.parametrize("m", ["1,1", "2,1"])
def test_pipeline_refuses_non_increasing_exponents(tmp_path, capsys, m, p):
    # p = 0.05 takes the vacuous path (mu^3 <= delta), p = 0.9 the
    # decomposition: both refuse, with exit 3 and the rule in the message
    path = tmp_path / "a.box"
    write_set(SetIndicator(BoxSpec((64, 64)),
                           make_rng(7).random((64, 64)) < p), path)
    for extra in ([], ["--fallback"]):
        code = cli.main(["popdiff", "--set", str(path), "--m", m,
                         "--pipeline", "--delta", "0.1"] + extra)
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert "strictly increasing" in captured.err


@pytest.mark.parametrize("m", ["1,1", "2,1"])
def test_direct_commands_count_any_exponents(tmp_path, capsys, m):
    # direct popdiff, count and bench count non-increasing exponents too
    mask = make_rng(7).random((64, 64)) < 0.9
    path = tmp_path / "a.box"
    write_set(SetIndicator(BoxSpec((64, 64)), mask), path)
    assert cli.main(["popdiff", "--set", str(path), "--m", m]) == 0
    doc = json.loads(capsys.readouterr().out)
    mm = tuple(int(v) for v in m.split(","))
    assert doc["count"] == counting.popular_count_naive(
        SetIndicator(BoxSpec((64, 64)), mask), mm, doc["r_star"])
    assert cli.main(["count", "--set", str(path), "--m", m, "--M", "2"]) == 0
    capsys.readouterr()
    assert cli.main(["bench", "--box", "64,64", "--m", m, "--M", "4"]) == 0
    assert capsys.readouterr().out.startswith("impl,box,M")


def test_popdiff_huge_M_bounded(tmp_path):
    out = tmp_path / "r.box"
    run_cli("gen", "random", "--box", "4,16", "--p", "0.7", "--seed", "1",
            "--out", str(out))
    proc = run_cli("popdiff", "--set", str(out), "--m", "1,2",
                   "--M", "100000000000", timeout=60)
    assert proc.returncode == 3
    assert "precondition violated" in proc.stderr
    assert "Traceback" not in proc.stderr
    # only r <= 3 has r < 4 and r^2 < 16; the rest of the histogram is zeros
    hist = tmp_path / "hist.json"
    proc = run_cli("popdiff", "--set", str(out), "--m", "1,2", "--M", "1000",
                   "--out", str(hist), timeout=60)
    assert proc.returncode == 0
    counts = json.loads(hist.read_text())["histogram"]
    assert len(counts) == 1000
    assert any(counts[:3]) and not any(counts[3:])
    A = read_set(out)
    assert counts == [counting.popular_count_naive(A, (1, 2), r)
                      for r in range(1, 1001)]


def test_difference_range_preconditions_exit3(tmp_path):
    out = tmp_path / "r.box"
    run_cli("gen", "random", "--box", "4,16", "--p", "0.7", "--seed", "1",
            "--out", str(out))
    count = ("count", "--set", str(out), "--m", "1,2")
    cases = [(count + ("--M", "100000000000"), "M = 100000000000"),
             (("bench", "--box", "2,4", "--M", "100000000000"),
              "M = 100000000000"),
             (count + ("--q", "0", "--M", "200000"), "q must be >= 1"),
             (count + ("--q", "-1", "--M", "200000"), "q must be >= 1"),
             (("popdiff", "--set", str(out), "--m", "1,0"),
              "exponents must be >= 1"),
             (("popdiff", "--set", str(out), "--m", "1,-2"),
              "exponents must be >= 1")]
    for args, message in cases:
        proc = run_cli(*args, timeout=60)
        assert proc.returncode == 3, args
        assert "precondition violated" in proc.stderr and message in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""


def test_count_M_past_useful_range(tmp_path):
    # only r <= 3 has r < 4 and r^2 < 16
    out = tmp_path / "r.box"
    run_cli("gen", "random", "--box", "4,16", "--p", "0.7", "--seed", "1",
            "--out", str(out))
    docs = {}
    for M in ("3", "1000000"):
        proc = run_cli("count", "--set", str(out), "--m", "1,2", "--M", M,
                       timeout=60)
        assert proc.returncode == 0
        docs[M] = json.loads(proc.stdout)
    assert docs["1000000"]["integer_count"] == docs["3"]["integer_count"] > 0
    assert docs["1000000"]["normalization"] == 64 * 1000000
    assert docs["1000000"]["lambda"]["re"] == \
        docs["3"]["integer_count"] / (64 * 1000000)


def test_popdiff_empty_set_exit3(tmp_path):
    out = tmp_path / "empty.box"
    run_cli("gen", "empty", "--box", "4,16", "--out", str(out))
    proc = run_cli("popdiff", "--set", str(out), "--m", "1,2", "--M", "3")
    assert proc.returncode == 3
    assert proc.stdout == ""


def test_popdiff_empty_binary_set_exit3(tmp_path, capsys):
    # direct popdiff counts the members after the search, and only when it
    # found no pattern; an empty set is still refused with the same message
    out = tmp_path / "empty.boxb"
    write_set(SetIndicator.empty(BoxSpec((4, 16))), out, binary=True)
    assert cli.main(["popdiff", "--set", str(out), "--m", "1,2",
                     "--M", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "popular-difference search needs a nonempty set" in captured.err


def test_verify_suite_json_and_exit(tmp_path, schema):
    proc = run_cli("verify", "partition", "--seed", "7", "--trials", "2")
    assert proc.returncode == 0
    doc = check_json(proc, schema)
    assert doc["failures"] == 0
    assert doc["suite"] == "partition"

    bad = run_cli("verify", "nosuchsuite")
    assert bad.returncode == 2


def test_verify_deterministic_given_seed():
    a = run_cli("verify", "counting", "--seed", "9", "--trials", "2")
    b = run_cli("verify", "counting", "--seed", "9", "--trials", "2")
    assert a.stdout == b.stdout


def test_verify_trials_capped_exit2(monkeypatch, capsys):
    # trials in [1, MAX_TRIALS] reach the suites; more exit 2 before any run
    from hofa import verify
    ran = []

    def fake_suite(suite, seed, trials):
        ran.append(trials)
        return {"suite": suite, "seed": seed, "trials": trials,
                "failures": 0, "properties": []}

    monkeypatch.setattr(verify, "run_suite", fake_suite)
    for trials in (1, 20, verify.MAX_TRIALS):
        assert cli.main(["verify", "all", "--trials", str(trials)]) == 0
    assert ran == [1, 20, verify.MAX_TRIALS]
    capsys.readouterr()
    for trials in (0, verify.MAX_TRIALS + 1, 1000000):
        assert cli.main(["verify", "all", "--trials", str(trials)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "usage error" in err and "--trials" in err
    assert ran == [1, 20, verify.MAX_TRIALS]


def test_bench_csv_and_agreement():
    proc = run_cli("bench", "--box", "16,64", "--M", "5", "--p", "0.5")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "impl,box,M,total_count,seconds"
    totals = {row.split(",")[0]: row.split(",")[3] for row in lines[1:]}
    assert len(set(totals.values())) == 1  # all implementations agree
    assert "naive" in totals and "fast" in totals


def test_bench_trivial_box():
    proc = run_cli("bench", "--box", "2,4", "--m", "1,2", "--M", "1")
    assert proc.returncode == 0


def test_threads_env_var_does_not_change_output(tmp_path):
    import os
    out = tmp_path / "r.box"
    run_cli("gen", "random", "--box", "16,128", "--p", "0.5", "--seed", "4",
            "--out", str(out))
    base = run_cli("popdiff", "--set", str(out), "--m", "1,2", "--M", "8")
    env = dict(os.environ, HOFA_THREADS="3")
    threaded = subprocess.run(
        [sys.executable, "-m", "hofa", "popdiff", "--set", str(out), "--m",
         "1,2", "--M", "8"], capture_output=True, text=True, env=env)
    assert threaded.stdout == base.stdout


def test_verify_all_single_trial_under_budget():
    import time
    t0 = time.time()
    proc = run_cli("verify", "all", "--trials", "1", "--seed", "3")
    elapsed = time.time() - t0
    assert proc.returncode == 0
    assert elapsed < 60


def test_malformed_set_exit2(tmp_path):
    bad = tmp_path / "bad.box"
    bad.write_text("garbage\n")
    proc = run_cli("count", "--set", str(bad), "--m", "1,2", "--N", "2")
    assert proc.returncode == 2
    assert "bad set file" in proc.stderr


def test_set_numbers_ascii_decimal_only_exit2(tmp_path, capsys):
    # int() alone takes underscores, signs and non-ASCII digits; the format
    # allows [0-9]+ only, in the header and in member lines
    bad = ["box 1_0 2\n1_0 2\n\uff11 1\n+3 1\n",
           "box +10 2\n3 1\n", "box \uff11\uff10 2\n3 1\n",
           "box 10 2\n1_0 2\n", "box 10 2\n\uff11 1\n",
           "box 10 2\n+3 1\n", "box 10 2\n3 -1\n", "box 10 2\n3 0x1\n"]
    for i, text in enumerate(bad):
        path = tmp_path / f"bad{i}.box"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(SetFileError):
            read_set(path)
        assert cli.main(["count", "--set", str(path), "--m", "1,2",
                         "--N", "1"]) == 2, text
        assert "bad set file" in capsys.readouterr().err
    good = tmp_path / "good.box"
    good.write_text("box 10 2\n3 1\n010 2\n", encoding="utf-8")
    A = read_set(good)
    assert A.box.dims == (10, 2)
    assert [tuple(p) for p in A.members()] == [(3, 1), (10, 2)]


def test_oversized_header_exit2(tmp_path):
    # refused from the header alone, before the mask is allocated
    header = b"box 100000 100000 100000\n"
    for name, data in (("text.box", header + b"1 1 1\n"),
                       ("binary.box", b"HOFA1\n" + header + b"\x01")):
        path = tmp_path / name
        path.write_bytes(data)
        proc = run_cli("popdiff", "--set", str(path), "--m", "1,2,3")
        assert proc.returncode == 2
        assert "bad set file" in proc.stderr
        assert "Traceback" not in proc.stderr
    assert _parse_header("box 2048 65536").cells == 1 << 27  # at the cap
    with pytest.raises(SetFileError):
        _parse_header("box 2048 65537")


def test_non_utf8_set_exit2(tmp_path):
    # undecodable header or member bytes are malformed input, in both formats
    for name, data in (("binary.box", b"HOFA1\n\xff\xfe box\n\x00"),
                       ("text.box", b"\xff\xfebox 3 9\n1 1\n"),
                       ("body.box", b"box 3 9\n1 1\n\xff\n")):
        path = tmp_path / name
        path.write_bytes(data)
        proc = run_cli("count", "--set", str(path), "--m", "1,2", "--N", "1")
        assert proc.returncode == 2, name
        assert "bad set file" in proc.stderr and "UTF-8" in proc.stderr
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("magic", [b"HOFA1\n", b""])
def test_long_header_read_is_bounded(tmp_path, capsys, magic):
    # a header line with no end is refused after a few KiB, not read whole
    import tracemalloc
    path = tmp_path / "long.box"
    with open(path, "wb") as fh:
        fh.write(magic + b"box ")
        block = b"7" * (1 << 20)
        for _ in range(32):
            fh.write(block)
    del block
    tracemalloc.start()
    try:
        code = cli.main(["popdiff", "--set", str(path), "--m", "1,2"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 1 << 20
    assert "header line longer" in capsys.readouterr().err


def test_usage_error_exit2():
    proc = run_cli("count", "--set", "nowhere.box")
    assert proc.returncode == 2


def test_stdout_single_json_document(tmp_path):
    out = tmp_path / "s.box"
    run_cli("gen", "full", "--box", "4,8", "--out", str(out))
    proc = run_cli("count", "--set", str(out), "--m", "1,2", "--N", "2")
    json.loads(proc.stdout)  # exactly one parseable document
    assert proc.stderr == ""


def test_incompatible_box_exit3(tmp_path):
    out = tmp_path / "s.box"
    run_cli("gen", "full", "--box", "4,16", "--out", str(out))
    proc = run_cli("count", "--set", str(out), "--m", "1,2", "--N", "2")
    assert proc.returncode == 3
    assert "precondition" in proc.stderr


def test_count_N_refuses_q_and_M(tmp_path):
    # --q and --M belong to the general operator; with --N they are refused
    # instead of being ignored
    out = tmp_path / "r.box"
    run_cli("gen", "random", "--box", "3,9", "--p", "0.5", "--seed", "1",
            "--out", str(out))
    count = ("count", "--set", str(out), "--m", "1,2", "--N", "3")
    for extra in (("--q", "0", "--M", "100000000000"), ("--q", "1"),
                  ("--M", "3"), ("--q", "2", "--oracle")):
        proc = run_cli(*count, *extra, timeout=60)
        assert proc.returncode == 2, extra
        assert "usage error" in proc.stderr and "--N" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""
    assert run_cli(*count).returncode == 0


def test_count_oracle_size_cap(tmp_path, schema):
    # cells x M = 64 x 16384 = 2^20 is the cap: it runs (the oracle stops
    # after r = 3, the last r with r < 4 and r^2 < 16) and one more is exit 3
    out = tmp_path / "r.box"
    run_cli("gen", "random", "--box", "4,16", "--p", "0.7", "--seed", "1",
            "--out", str(out))
    count = ("count", "--set", str(out), "--m", "1,2", "--oracle")
    proc = run_cli(*count, "--M", "16384", timeout=60)
    assert proc.returncode == 0
    doc = check_json(proc, schema)
    assert doc["ok"] is True and doc["oracle"]["max_dev"] <= 1e-9
    assert doc["normalization"] == counting.ORACLE_MAX_TERMS
    for M in ("16385", "100000000"):
        proc = run_cli(*count, "--M", M, timeout=60)
        assert proc.returncode == 3
        assert "precondition violated" in proc.stderr and "--oracle" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""


def test_popdiff_out_streams_zero_tail(tmp_path):
    # the file is what json.dump of all M entries writes, byte for byte,
    # while the histogram itself keeps only the counted prefix
    out = tmp_path / "r.box"
    run_cli("gen", "random", "--box", "4,16", "--p", "0.7", "--seed", "1",
            "--out", str(out))
    A = read_set(out)
    for M in (1, 2, 3, 4, 70000, 200000):
        hist = tmp_path / f"h{M}.json"
        proc = run_cli("popdiff", "--set", str(out), "--m", "1,2", "--M",
                       str(M), "--out", str(hist), timeout=60)
        assert proc.returncode == 0
        res = counting.best_popular_difference(A, (1, 2), M)
        assert len(res.histogram.counts) == min(M, 3) and len(res.histogram) == M
        naive = [counting.popular_count_naive(A, (1, 2), r)
                 for r in range(1, min(M, 3) + 1)]
        want = naive + [0] * (M - len(naive))
        assert hist.read_text() == json.dumps({"histogram": want})
    # an empty counted prefix: no r has r^2 < 1
    for M in (1, 5):
        h = counting.Histogram(np.zeros(0, dtype=np.int64), M)
        buf = io.StringIO()
        cli._write_histogram(buf, h)
        assert buf.getvalue() == json.dumps({"histogram": [0] * M})


# modules that only `verify` or `popdiff --pipeline` runs, and the pool that
# only a multi-threaded run starts
LAZY_MODULES = ("hofa.verify", "hofa.energy", "hofa.gowers", "hofa.expsum",
                "hofa.partition", "concurrent.futures")

IMPORT_PROBE = """
import json, sys
import hofa.cli
before = sorted(sys.modules)
rc = hofa.cli.main(sys.argv[1:])
print(json.dumps({"rc": rc, "before": before, "after": sorted(sys.modules)}))
"""


def test_cli_imports_only_the_layers_a_command_runs(tmp_path):
    out = tmp_path / "r.box"
    run_cli("gen", "random", "--box", "4,16", "--p", "0.7", "--seed", "1",
            "--out", str(out))
    hist = tmp_path / "h.json"
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, "popdiff", "--set", str(out),
         "--m", "1,2", "--M", "3", "--out", str(hist)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert doc["rc"] == 0
    for key in ("before", "after"):
        loaded = [m for m in LAZY_MODULES if m in doc[key]]
        assert loaded == [], (key, loaded)
    assert sorted(m for m in doc["after"] if m.startswith("hofa")) == [
        "hofa", "hofa.cli", "hofa.core", "hofa.counting", "hofa.kernels",
        "hofa.rng", "hofa.setfile"]


def test_popdiff_default_M_is_integer_root(tmp_path):
    # without --M the range is floor(N_n^(1/m_n)): 10 for N_2 = 100 and 120
    for width in (100, 120):
        out = tmp_path / f"w{width}.box"
        run_cli("gen", "full", "--box", f"12,{width}", "--out", str(out))
        hist = tmp_path / f"h{width}.json"
        proc = run_cli("popdiff", "--set", str(out), "--m", "1,2", "--out",
                       str(hist))
        assert proc.returncode == 0
        assert len(json.loads(hist.read_text())["histogram"]) == 10


def test_thread_count_validated_exit2(tmp_path, capsys, monkeypatch):
    # every value here is refused before a pool exists; none starts a run
    out = tmp_path / "r.box"
    run_cli("gen", "random", "--box", "4,16", "--p", "0.7", "--seed", "1",
            "--out", str(out))
    popdiff = ["popdiff", "--set", str(out), "--m", "1,2", "--M", "3"]
    for value in ("0", "-3", str(counting.MAX_THREADS + 1), "1000000000"):
        assert cli.main(popdiff + ["--threads", value]) == 2, value
        err = capsys.readouterr().err
        assert "usage error" in err and "thread count" in err
    for value in ("abc", "0", "-1", "2.5", str(counting.MAX_THREADS + 1)):
        monkeypatch.setenv("HOFA_THREADS", value)
        for argv in (popdiff, ["verify", "partition", "--trials", "1"]):
            assert cli.main(argv) == 2, (value, argv)
            err = capsys.readouterr().err
            assert "usage error" in err and "HOFA_THREADS" in err
    monkeypatch.setenv("HOFA_THREADS", "abc")
    proc = run_cli(*popdiff)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr and proc.stdout == ""
    with pytest.raises(ValueError):
        counting.set_threads(0)
    assert counting._threads == 1


@pytest.fixture(scope="module")
def sets_4x16(tmp_path_factory):
    """Seeded 4x16 sets at density 0.7 (vacuous at delta 0.5) and 0.9."""
    paths = {}
    for p in (0.7, 0.9):
        paths[p] = tmp_path_factory.mktemp("sets") / f"s{p}.box"
        mask = make_rng(1).random((4, 16)) < p
        write_set(SetIndicator(BoxSpec((4, 16)), mask), paths[p])
    return paths


HUGE_M = "1,1000000000"


@pytest.mark.parametrize("p, argv", [
    (0.7, ["popdiff", "--m", HUGE_M]),
    (0.7, ["popdiff", "--pipeline", "--delta", "0.5", "--fallback",
           "--m", HUGE_M]),
    (0.9, ["popdiff", "--pipeline", "--delta", "0.05", "--fallback",
           "--m", HUGE_M]),
    (0.9, ["popdiff", "--pipeline", "--delta", "0.05", "--fallback",
           "--m", "1000000000,1000000001"]),
    (0.7, ["count", "--m", HUGE_M, "--M", "2"]),
    (0.7, ["count", "--N", "3", "--m", HUGE_M]),
    (0.7, ["count", "--N", "2", "--m", "1,100000000"]),
    (None, ["bench", "--box", "4,16", "--m", HUGE_M]),
])
def test_exponents_past_max_exit3(sets_4x16, p, argv):
    # each raised 2 or 3 to a power of up to a billion (9 s to over 40 s)
    # or failed to print such a power; an exponent above core.MAX_EXPONENT
    # is refused before anything is raised to it
    where = [] if p is None else ["--set", str(sets_4x16[p])]
    proc = run_cli(*argv, *where, timeout=60)
    assert proc.returncode == 3
    assert "precondition violated" in proc.stderr
    assert f"at most {MAX_EXPONENT}" in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""


@pytest.mark.parametrize("argv", [
    ["gen", "empty", "--box", "1000000,1000000"],
    ["gen", "full", "--box", "1000000,1000000"],
    ["gen", "random", "--box", "1000000,1000000", "--p", "0.5"],
    ["gen", "empty", "--box", "2049,65536"],
    ["bench", "--box", "1000000,1000000"],
])
def test_boxes_past_cell_cap_exit3(tmp_path, argv):
    # 10^6 x 10^6 was a numpy memory error (exit 1), and 2049 x 65536 a set
    # file that read_set refuses; BoxSpec refuses both before allocating
    out = tmp_path / "o.box"
    if argv[0] == "gen":
        argv = argv + ["--out", str(out)]
    proc = run_cli(*argv, timeout=60)
    assert proc.returncode == 3
    assert "dense-storage cap of 2^27" in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""
    assert not out.exists()
