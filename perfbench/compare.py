"""Compare two result records written by run.py.

    python3 perfbench/compare.py BASE.json NEW.json

Records live in ``.perfbench_work/results/``.  The comparison is refused
(exit 3) when the records differ in kernel selection, because a numba
install, or ``HOFA_NO_NUMBA``, times a different counting kernel; or when
they measure different workloads, scales or run lengths.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

KERNEL_SELECTION = ("using_numba", "hofa_no_numba_set")
SAME_RUN = ("workload", "trace", "seconds")


def refusal(base: dict, new: dict) -> str | None:
    for key in SAME_RUN:
        if base[key] != new[key]:
            return f"{key} differs: {base[key]!r} vs {new[key]!r}"
    for key in KERNEL_SELECTION + ("scale",):
        if base["env"].get(key) != new["env"].get(key):
            return (f"environment {key} differs: {base['env'].get(key)!r} vs "
                    f"{new['env'].get(key)!r}")
    return None


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text(encoding="utf-8"))
                 for p in argv)
    reason = refusal(base, new)
    if reason:
        print(f"compare: refused, {reason}", file=sys.stderr)
        return 3
    print(f"{'metric':40s} {'base':>14s} {'new':>14s} {'new/base':>9s}")
    for name, m in base["metrics"].items():
        if name not in new["metrics"]:
            continue
        a, b = m["value"], new["metrics"][name]["value"]
        ratio = f"{b / a:9.3f}" if a else "        -"
        print(f"{name:40s} {a:14.6g} {b:14.6g} {ratio} {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
