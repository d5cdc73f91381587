"""The benchmark's workloads: seeded inputs, the commands run on them, the
work they count, and the oracles their outputs are checked against.

Inputs are built through hofa's public API (``SetIndicator``, ``write_set``)
from Philox streams keyed by the benchmark seed; the program sees only the
files written here.  Oracle checks run in the benchmark process, outside the
timed region.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import numpy as np

from hofa import kernels
from hofa.core import BoxSpec, SetIndicator
from hofa.rng import make_rng
from hofa.setfile import write_set

M12 = (1, 2)

# Input sizes per scale.  "full" is what BENCHMARK.json measures; "toy" keeps
# every code path at a size the self-test runs in seconds.
SCALES = {
    "full": {"direct_box": (2048, 32768), "direct_M": 60, "direct_samples": 1,
             "trials": 20},
    "toy": {"direct_box": (64, 1024), "direct_M": 8, "direct_samples": 2,
            "trials": 4},
}

ORACLE_BAND_CELLS = 1 << 22  # bounds the pointwise oracle's memory


def seeded_mask(seed: int, stream: int, dims, p: float) -> np.ndarray:
    """Bernoulli(p) mask drawn row block by row block (bounded memory)."""
    rng = make_rng(seed, stream)
    mask = np.empty(dims, dtype=bool)
    rows = max(1, (1 << 23) // int(np.prod(dims[1:])))
    for a in range(0, dims[0], rows):
        block = mask[a:a + rows]
        block[...] = rng.random(block.shape) < p
    return mask


def write_seeded_set(path: Path, seed: int, stream: int, dims, p: float):
    A = SetIndicator(BoxSpec(dims), seeded_mask(seed, stream, dims, p))
    write_set(A, path, binary=True)
    return A


def pointwise_count(mask: np.ndarray, m, r: int) -> int:
    """``counting.popular_count_naive`` evaluated band by band.

    The count over base points whose first coordinate lies in rows [a, b)
    equals the pointwise count on the masks cut at row a with b - a base
    rows, so summing bands gives the same integer with bounded memory.
    """
    shifts = tuple(r ** mi for mi in m)
    n = mask.ndim
    band = max(1, ORACLE_BAND_CELLS // int(np.prod(mask.shape[1:])))
    total = 0
    for a in range(0, mask.shape[0], band):
        sub = mask[a:]
        base = (min(band, mask.shape[0] - a),) + mask.shape[1:]
        total += kernels.pattern_count_pointwise([sub] * (n + 1), base, shifts)
    return total


class OracleCache:
    """Pointwise counts keyed by the input file's digest, kept across runs."""

    def __init__(self, directory: Path):
        self.directory = directory

    def count(self, path: Path, mask: np.ndarray, m, r: int) -> int:
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        file = self.directory / f"{digest}-m{'_'.join(map(str, m))}.json"
        cached = json.loads(file.read_text()) if file.exists() else {}
        if str(r) not in cached:
            cached[str(r)] = pointwise_count(mask, m, r)
            self.directory.mkdir(parents=True, exist_ok=True)
            file.write_text(json.dumps(cached))
        return cached[str(r)]


class Workload:
    """One workload: ``prepare`` writes inputs and returns the commands,
    ``check`` compares one repetition's outputs with the oracles."""

    name = ""
    unit = ""

    def __init__(self, work: Path, seed: int, scale: str, oracle: OracleCache):
        self.work, self.seed, self.size, self.oracle = (
            work, seed, SCALES[scale], oracle)
        self.commands: list[list[str]] = []
        self.hist_paths: list[str] = []

    def prepare(self) -> None:
        raise NotImplementedError

    def work_units(self, docs: list[dict]) -> float:
        raise NotImplementedError

    def check(self, docs: list[dict], hists: list) -> list[str]:
        raise NotImplementedError


class PopdiffDirect(Workload):
    name = "popdiff-direct"
    unit = "pair-checks"

    def prepare(self):
        self.M = self.size["direct_M"]
        self.path = self.work / "direct.box"
        self.A = write_seeded_set(self.path, self.seed, 0,
                                  self.size["direct_box"], 0.5)
        hist = str(self.work / "direct-hist.json")
        self.hist_paths = [hist]
        self.commands = [["popdiff", "--set", str(self.path), "--m", "1,2",
                          "--M", str(self.M), "--threads", "1", "--out", hist]]

    def work_units(self, docs):
        return self.A.box.cells * self.M

    def check(self, docs, hists):
        doc, hist = docs[0], hists[0]
        errs = []
        if doc["mode"] != "direct" or len(hist) != self.M:
            return [f"direct: mode {doc['mode']}, histogram of {len(hist)}"]
        r_star = doc["r_star"]
        if r_star != int(np.argmax(hist)) + 1 or doc["count"] != hist[r_star - 1]:
            errs.append(f"direct: r_star {r_star}/count {doc['count']} "
                        f"do not match the histogram's first maximum")
        rng = random.Random(self.seed)
        rs = {r_star} | set(rng.sample(range(1, self.M + 1),
                                       self.size["direct_samples"]))
        for r in sorted(rs):
            want = self.oracle.count(self.path, self.A.mask, M12, r)
            if hist[r - 1] != want:
                errs.append(f"direct: histogram[{r}] = {hist[r - 1]}, "
                            f"pointwise oracle {want}")
        return errs


class VerifyAll(Workload):
    name = "verify-all"
    unit = "property-trials"

    def prepare(self):
        self.trials = self.size["trials"]
        self.commands = [["verify", "all", "--seed", str(self.seed),
                          "--trials", str(self.trials)]]

    def work_units(self, docs):
        return len(docs[0]["properties"]) * self.trials

    def check(self, docs, hists):
        doc = docs[0]
        if (doc["suite"], doc["seed"], doc["trials"]) != (
                "all", self.seed, self.trials) or not doc["properties"]:
            return ["verify: report is for another suite, seed or trials"]
        if doc["failures"] != 0:
            bad = [p["name"] for p in doc["properties"] if p["failed"]]
            return [f"verify: {doc['failures']} failures in {bad}"]
        return []


WORKLOADS = {w.name: w for w in (PopdiffDirect, VerifyAll)}
