"""Banded reads and counts: a binary set file is read a band of rows along
axis 1 at a time, and the integer histogram counts every r on each band."""

import contextlib
import json
import math
import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hofa import cli, counting, kernels, setfile
from hofa.core import BoxSpec, ConfigSpec, SetIndicator
from hofa.rng import make_rng
from hofa.setfile import read_set, write_set


@contextlib.contextmanager
def _bands_of(rows, inds):
    """Count in bands of ``rows`` base rows, also shorter than the halo:
    one-word blocks, BAND_WORDS of ``rows`` rows of the widest set and no
    lower bound by the halo."""
    slab = max(math.prod(A.box.dims[1:-1]) * (-(-A.box.dims[-1] // 64) + 1)
               for A in inds)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "BLOCK_WORDS", 1)
        mp.setattr(kernels, "BAND_WORDS", rows * slab)
        mp.setattr(counting, "BAND_HALOS", 0)
        yield


def _stored(mask, storage, directory, name):
    """The set of ``mask`` as a boolean mask, as packed words, or read
    from a binary file (backed by its payload)."""
    box = BoxSpec(mask.shape)
    if storage == "mask":
        return SetIndicator(box, mask)
    if storage == "packed":
        return SetIndicator(box, kernels.pack_mask(mask))
    path = os.path.join(directory, name)
    write_set(SetIndicator(box, mask), path, binary=True)
    return read_set(path)


@settings(max_examples=120, deadline=None)
@given(n=st.integers(1, 3), q=st.integers(1, 2), M=st.integers(1, 12),
       lead=st.lists(st.integers(1, 13), min_size=2, max_size=2),
       width=st.sampled_from([5, 63, 64, 65, 130, 200]),
       m=st.lists(st.integers(1, 3), min_size=3, max_size=3),
       doubled=st.none() | st.tuples(st.integers(0, 3), st.integers(0, 2)),
       band=st.integers(1, 15), storage=st.sampled_from(["mask", "packed",
                                                          "file"]),
       p=st.sampled_from([0.5, 0.9]), seed=st.integers(0, 2**32 - 1))
def test_banded_histogram_equals_whole_grid_and_oracle(
        n, q, M, lead, width, m, doubled, band, storage, p, seed):
    # bands of 1 row, shorter than the halo (the largest axis-1 shift) and
    # not dividing N_1; middle axes at n = 3; one slot doubled along one
    # axis; sets held as masks, words or file payloads
    base = tuple(lead[:n - 1]) + (width,)
    spec = ConfigSpec(m[:n], BoxSpec(base), q=q, M=M)
    slot, axis = (-1, -1) if doubled is None else (doubled[0] % (n + 1),
                                                   doubled[1] % n)
    rng = make_rng(seed)
    masks = [rng.random(tuple(2 * d if (j, a) == (slot, axis) else d
                              for a, d in enumerate(base))) < p
             for j in range(n + 1)]
    with tempfile.TemporaryDirectory() as directory:
        # slots without a doubled axis share one set, as popdiff's do
        shared = _stored(masks[0], storage, directory, "shared.boxb")
        inds = [shared if j != slot else
                _stored(masks[j], storage, directory, f"{j}.boxb")
                for j in range(n + 1)]
        whole = counting.lambda_indicator_counts(inds, spec)  # one band
        with _bands_of(band, inds):
            banded = counting.lambda_indicator_counts(inds, spec)
            pointwise = counting.lambda_indicator_counts_pointwise(inds, spec)
    oracle = counting.lambda_indicator_counts_pointwise(
        [SetIndicator(BoxSpec(mk.shape), mk) for mk in
         [masks[0] if j != slot else masks[j] for j in range(n + 1)]], spec)
    want = oracle.counts.tolist()
    for hist in (whole, banded, pointwise):
        assert hist.M == M and hist.counts.tolist() == want


@pytest.mark.parametrize("threads", [1, 2])
def test_banded_histogram_on_threads(rng, threads):
    A = SetIndicator(BoxSpec((37, 700)), rng.random((37, 700)) < 0.6)
    spec = ConfigSpec((1, 2), A.box, 1, 20)
    want = counting.lambda_indicator_counts_pointwise([A] * 3, spec)
    counting.set_threads(threads)
    try:
        got = []
        for rows in (1, 6, 37):
            with _bands_of(rows, [A]):
                got.append(counting.lambda_indicator_counts([A] * 3, spec))
    finally:
        counting.set_threads(1)
    assert all(h.counts.tolist() == want.counts.tolist() for h in got)


@pytest.mark.parametrize("dims", [(9, 13), (5, 3, 7), (6, 200), (4, 2, 65),
                                  (3, 5000)])
def test_payload_rows_equal_mask_rows(tmp_path, rng, monkeypatch, dims):
    # every row range of a payload reads the words pack_mask builds for it,
    # also when a range starts inside a byte and a row spans read blocks
    monkeypatch.setattr(setfile, "READ_BLOCK_CELLS", 256)
    mask = rng.random(dims) < 0.5
    path = tmp_path / "a.boxb"
    write_set(SetIndicator(BoxSpec(dims), mask), path, binary=True)
    A = read_set(path)
    for a in range(dims[0]):
        for b in range(a + 1, dims[0] + 1):
            rows = A.packed_rows(a, b)
            assert rows.shape == (b - a,) + dims[1:]
            assert np.array_equal(rows.words,
                                  kernels.pack_mask(mask[a:b]).words)
            assert np.array_equal(A.mask_rows(a, b), mask[a:b])
    assert A._packed is None and A._mask is None  # nothing was cached
    # the member count streams the payload a band at a time
    monkeypatch.setattr(kernels, "BLOCK_WORDS", 1)
    monkeypatch.setattr(kernels, "BAND_WORDS", 1)
    assert kernels.band_rows(dims) == 1
    assert A.count == int(mask.sum())
    assert A._packed is None
    # packed and mask read the whole payload once and cache it
    assert np.array_equal(A.packed.words, kernels.pack_mask(mask).words)
    assert A.packed is A.packed and np.array_equal(A.mask, mask)


def test_one_dimensional_set_is_one_band(tmp_path, rng):
    mask = rng.random(300) < 0.7
    path = tmp_path / "a.boxb"
    write_set(SetIndicator(BoxSpec((300,)), mask), path, binary=True)
    A = read_set(path)
    assert kernels.band_rows((300,)) == 300
    with pytest.raises(ValueError, match="1-D"):
        A.packed_rows(0, 10)
    spec = ConfigSpec((1,), A.box, 1, 40)
    with _bands_of(1, [A]):
        assert kernels.band_rows((300,)) == 300
        hist = counting.lambda_indicator_counts([A] * 2, spec)
    assert hist.counts.tolist() == counting.lambda_indicator_counts_pointwise(
        [SetIndicator(A.box, mask)] * 2, spec).counts.tolist()


@pytest.mark.parametrize("m, M, reads, calls", [
    ((1, 1), 4, [(0, 20), (16, 36), (32, 52), (48, 64)], 16),
    ((2, 1), 6, [(0, 64)], 6)])
def test_band_is_four_halos_tall(tmp_path, monkeypatch, m, M, reads, calls):
    # bands of 2 rows grow to BAND_HALOS = 4 halos: at r^1 <= 4, bands of
    # 16 rows read 4 more each; at r^2 <= 36 the grid is one band, read
    # once, with one kernel call per r
    mask = make_rng(5).random((64, 100)) < 0.7
    path = tmp_path / "a.boxb"
    write_set(SetIndicator(BoxSpec(mask.shape), mask), path, binary=True)
    A = read_set(path)
    monkeypatch.setattr(kernels, "BLOCK_WORDS", 1)
    monkeypatch.setattr(kernels, "BAND_WORDS", 2 * 3)  # 3 words a row
    assert kernels.band_rows(mask.shape) == 2
    seen, kernel_calls = [], []
    read_words, count_fast = setfile._read_words, kernels.pattern_count_fast

    def record_read(fh, payload, dims, start, stop):
        seen.append((start, stop))
        return read_words(fh, payload, dims, start, stop)

    def record_call(*args):
        kernel_calls.append(args)
        return count_fast(*args)

    monkeypatch.setattr(setfile, "_read_words", record_read)
    monkeypatch.setattr(kernels, "pattern_count_fast", record_call)
    spec = ConfigSpec(m, A.box, 1, M)
    hist = counting.lambda_indicator_counts([A] * 3, spec)
    assert seen == reads and len(kernel_calls) == calls
    assert hist.counts.tolist() == counting.lambda_indicator_counts_pointwise(
        [SetIndicator(A.box, mask)] * 3, spec).counts.tolist()


@pytest.mark.parametrize("dims", [(16, 64), (8, 128), (16, 128)])
def test_count_power_box_doubled_axis_in_one_row_bands(tmp_path, capsys,
                                                       monkeypatch, dims):
    # count --N on a set doubled along axis 1, the last axis or both: the
    # integer count in bands of one row equals the one-band count and the
    # brute-force oracle
    mask = make_rng(7).random(dims) < 0.6
    path = tmp_path / "a.boxb"
    write_set(SetIndicator(BoxSpec(dims), mask), path, binary=True)
    argv = ["count", "--set", str(path), "--m", "1,2", "--N", "8", "--oracle"]
    assert cli.main(argv) == 0
    whole = json.loads(capsys.readouterr().out)
    monkeypatch.setattr(kernels, "BLOCK_WORDS", 1)
    monkeypatch.setattr(kernels, "BAND_WORDS", 1)
    assert kernels.band_rows(dims) == 1
    assert cli.main(argv) == 0
    banded = json.loads(capsys.readouterr().out)
    assert banded == whole and whole["ok"] and whole["integer_count"] > 0


def _rewrite_after_read(monkeypatch, change):
    """Make the commands read their set, then ``change`` its file."""
    def read_then_change(path):
        A = read_set(path)
        change(path)
        return A

    monkeypatch.setattr(cli, "read_set", read_then_change)


def _truncate(path):
    with open(path, "r+b") as fh:
        fh.truncate(os.path.getsize(path) - 1)


def _rewrite_same_size(path):
    data = bytearray(open(path, "rb").read())
    data[-1] ^= 0xFF
    st = os.stat(path)
    with open(path, "wb") as fh:
        fh.write(data)
    # a later write, whatever the granularity of the file system's clock
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))


@pytest.mark.parametrize("change", [_truncate, _rewrite_same_size])
@pytest.mark.parametrize("command", [["popdiff", "--m", "1,2", "--M", "3"],
                                     ["count", "--m", "1,2", "--M", "3"]])
def test_set_file_changed_after_read_exit2(tmp_path, capsys, monkeypatch,
                                           change, command):
    path = tmp_path / "a.boxb"
    write_set(SetIndicator(BoxSpec((8, 64)), make_rng(3).random((8, 64)) < 0.5),
              path, binary=True)
    _rewrite_after_read(monkeypatch, change)
    assert cli.main(command + ["--set", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bad set file" in captured.err and "changed" in captured.err
    assert "Traceback" not in captured.err


def test_set_file_removed_after_read_exit2(tmp_path, capsys, monkeypatch):
    path = tmp_path / "a.boxb"
    write_set(SetIndicator.full(BoxSpec((8, 64))), path, binary=True)
    _rewrite_after_read(monkeypatch, os.remove)
    assert cli.main(["popdiff", "--set", str(path), "--m", "1,2"]) == 2
    assert "bad set file" in capsys.readouterr().err


def test_popdiff_peak_is_a_band_not_the_words(tmp_path, capsys):
    # 1024x32768 cells hold 4.1 MiB of words; popdiff holds one band of
    # them (1 MiB and a halo of 16 rows), the read buffer and the kernel's
    # block buffers, where reading the whole set held every word
    dims = (1024, 32768)
    path = tmp_path / "big.boxb"
    with open(path, "wb") as fh:
        fh.write(b"HOFA1\nbox 1024 32768\n")
        fh.write(make_rng(11).integers(0, 256, math.prod(dims) // 8,
                                       dtype=np.uint8).tobytes())
    row = (dims[-1] // 64 + 1) * 8  # bytes of words per row
    assert dims[0] * row >= 4 << 20
    argv = ["popdiff", "--set", str(path), "--m", "1,2", "--M", "16",
            "--threads", "1"]
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a band is 1 MiB of words (kernels.BAND_WORDS) and a halo of r^1 <= 16
    # rows; the kernel holds two blocks of words, the read one block of bits
    band = (1 << 20) + 16 * row
    buffers = 2 * kernels.BLOCK_WORDS * 8 + setfile.READ_BLOCK_CELLS // 8
    assert peak <= band + buffers + (1 << 19)
    assert kernels.band_rows(dims) * row <= 1 << 20
    assert json.loads(capsys.readouterr().out)["count"] > 0
