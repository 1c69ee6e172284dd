#!/usr/bin/env python3
"""Writes BENCH_perfbench.json, the committed benchmark ledger.

Usage (from anywhere; no flags):

    python3 scripts/bench_ledger.py

Runs perfbench/run.py five times per workload (seeds 1-5, round-robin
over the workloads, --seconds from BENCHMARK.json's run_seconds) and
once with --trace 1, then records every run of every end-to-end metric
with its median and quartiles (statistics.quantiles, n=4, as
perfbench/README.md reads spreads), and the traced run's per-layer
values. Refuses to write when a run is not correct or when the runs
disagree on the measured sources (perfbench's source_sha256).
"""
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "BENCH_perfbench.json")
SEEDS = range(1, 6)
CONTEXT_KEYS = ("source_sha256", "git_sha", "git_dirty", "nproc",
                "jamelect_wide_isa", "pool_width")


def perfbench(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    print("$ " + " ".join(cmd), file=sys.stderr, flush=True)
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True).stdout
    lines = out.strip().splitlines()
    context = [json.loads(l.split(" ", 2)[2]) for l in lines
               if l.startswith("perfbench context ")]
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {}
    if not context or not result.get("correct"):
        sys.exit(f"bench_ledger: {workload} seed {seed} trace {trace} was not "
                 f"correct; nothing written\n{out[-2000:]}")
    return context[0], result["metrics"]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    contexts, runs = [], {w: [] for w in workloads}
    for seed in SEEDS:
        for w in workloads:
            context, metrics = perfbench(w, seed, seconds, 0)
            contexts.append(context)
            runs[w].append(metrics)
    context, layers = perfbench(workloads[0], SEEDS[0], seconds, 1)
    contexts.append(context)
    shas = {c["source_sha256"] for c in contexts}
    if len(shas) != 1:
        sys.exit(f"bench_ledger: runs measured different sources {sorted(shas)}; "
                 "nothing written")

    end_to_end = {}
    for w in workloads:
        end_to_end[w] = {}
        for m in bench["end_to_end"]:
            values = [r[m["name"]]["value"] for r in runs[w]]
            q1, med, q3 = statistics.quantiles(values, n=4)
            end_to_end[w][m["name"]] = {
                "unit": m["unit"], "better": m["better"], "runs": values,
                "median": med, "q1": q1, "q3": q3}
    ledger = {
        "context": {k: contexts[0].get(k) for k in CONTEXT_KEYS},
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "end_to_end": end_to_end,
        "per_layer": {"workload": workloads[0], "seed": SEEDS[0],
                      "metrics": layers},
    }
    with open(OUT, "w") as f:
        json.dump(ledger, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"bench_ledger: wrote {OUT}", file=sys.stderr)


if __name__ == "__main__":
    main()
