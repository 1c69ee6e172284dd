#!/usr/bin/env python3
"""Checks that two google-benchmark JSON outputs carry the same results.

Usage: scripts/bench_counters_equal.py A.json B.json

Compares every field of every benchmark entry (names, labels, counters,
iteration counts) except the wall and CPU times, and ignores the
`context` block (host, pool width, build provenance). Exits 1 and names
each difference when the two runs disagree, 0 when they match.

CI runs each experiment bench at two pool widths and compares the
outputs: the figure counters must not depend on JAMELECT_THREADS.
"""
import json
import math
import sys

IGNORED = {"real_time", "cpu_time"}


def same(a, b):
    # NaN marks "not applicable" counters; it must match itself.
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    return a == b


def main():
    if len(sys.argv) != 3:
        print("usage: bench_counters_equal.py A.json B.json", file=sys.stderr)
        return 2
    runs = []
    for path in sys.argv[1:]:
        with open(path) as f:
            runs.append(json.load(f)["benchmarks"])
    a, b = runs
    diffs = []
    if len(a) != len(b):
        diffs.append(f"{len(a)} cases against {len(b)}")
    for ca, cb in zip(a, b):
        name = ca.get("name", "?")
        for key in sorted((set(ca) | set(cb)) - IGNORED):
            va, vb = ca.get(key), cb.get(key)
            if not same(va, vb):
                diffs.append(f"{name}: {key} {va!r} != {vb!r}")
    for d in diffs:
        print(d, file=sys.stderr)
    if diffs:
        print(f"error: {sys.argv[1]} and {sys.argv[2]} differ in "
              f"{len(diffs)} field(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
