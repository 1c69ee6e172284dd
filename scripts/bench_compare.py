#!/usr/bin/env python3
"""Compares two benchmark ledgers written by scripts/bench_ledger.py.

Usage:

    python3 scripts/bench_compare.py BASE.json CHANGE.json

For every workload and end-to-end metric of BENCHMARK.json it prints
the two medians, their ratio (change / base) and a verdict:

- "worse" when the change is worse by more than the combined spread
  (the base's Q3 - Q1 plus the change's) AND by more than the metric's
  relative bound in BENCHMARK.json;
- "better" when it is better by more than the combined spread;
- "~" otherwise: the difference is inside the noise or the bound.

The per-layer metrics (one traced run per ledger, so no spread) are
listed with their ratios for reading, never flagged. Exits 1 when any
end-to-end metric is "worse", 0 otherwise.
"""
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def verdict(base, change, better, bound):
    delta = change["median"] - base["median"]
    worse = delta > 0 if better == "lower" else delta < 0
    spread = (base["q3"] - base["q1"]) + (change["q3"] - change["q1"])
    if abs(delta) <= spread:
        return "~"
    if not worse:
        return "better"
    rel = abs(delta) / abs(base["median"]) if base["median"] else float("inf")
    return "worse" if rel > bound else "~"


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    with open(argv[1]) as f:
        base = json.load(f)
    with open(argv[2]) as f:
        change = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    for side, ledger in (("base", base), ("change", change)):
        c = ledger["context"]
        print(f"{side}: git_sha {c['git_sha']} dirty {c['git_dirty']} "
              f"source_sha256 {c['source_sha256'][:12]} nproc {c['nproc']} "
              f"isa {c['jamelect_wide_isa']}")
    print()
    print("| workload | metric | base | change | ratio | verdict |")
    print("|---|---|---|---|---|---|")
    failed = False
    for w in bench["workloads"]:
        name = w["name"]
        for m in bench["end_to_end"]:
            b = base["end_to_end"][name][m["name"]]
            c = change["end_to_end"][name][m["name"]]
            v = verdict(b, c, m["better"], m["bound"])
            failed |= v == "worse"
            ratio = c["median"] / b["median"] if b["median"] else float("nan")
            print(f"| {name} | {m['name']} | {b['median']:.4g} | "
                  f"{c['median']:.4g} | x{ratio:.3f} | {v} |")
    print()
    print("| per-layer metric | base | change | ratio |")
    print("|---|---|---|---|")
    bl = base["per_layer"]["metrics"]
    cl = change["per_layer"]["metrics"]
    for m in bench["per_layer"]:
        if m["name"] not in bl or m["name"] not in cl:
            continue
        b, c = bl[m["name"]]["value"], cl[m["name"]]["value"]
        ratio = f"x{c / b:.3f}" if b else "-"
        print(f"| {m['name']} | {b:.4g} | {c:.4g} | {ratio} |")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
