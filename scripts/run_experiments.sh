#!/usr/bin/env sh
# Regenerates every experiment series (EXPERIMENTS.md) from a fresh
# build. Usage:
#   scripts/run_experiments.sh [build-dir] [out-dir] [--max-fallback-share X]
# Environment: JAMELECT_BENCH_TRIALS to raise trial counts.
#
# --max-fallback-share X: fail (exit 1) when more than fraction X of the
# sweep's batched work fell off the batch engine onto the sequential
# path (share = fallback runs / (fallback runs + batched chunks), from
# the manifest rollup below). Without the flag the script only warns:
# local iteration stays unblocked, while CI passes --max-fallback-share 0
# — every built-in adversary policy and protocol kernel has a batch
# engine, so any fallback there is a routing regression.
set -eu

BUILD_DIR="${1:-build}"
OUT_DIR="${2:-experiment-results}"
MAX_FALLBACK_SHARE=""
if [ "${3:-}" = "--max-fallback-share" ]; then
  MAX_FALLBACK_SHARE="${4:?--max-fallback-share needs a value}"
fi

# JAMELECT_OBS=ON: the default RelWithDebInfo build compiles the
# metric macros out (NDEBUG), which left every manifest's counter
# rollup empty — the fallback gate below never had anything to gate.
cmake -B "$BUILD_DIR" -G Ninja -DJAMELECT_OBS=ON
cmake --build "$BUILD_DIR"
ctest --test-dir "$BUILD_DIR" --output-on-failure

mkdir -p "$OUT_DIR"
# Run manifests (provenance: config, seed, git SHA, metric rollup) land
# next to the series they describe.
JAMELECT_MANIFEST_DIR="$OUT_DIR"
export JAMELECT_MANIFEST_DIR
for b in "$BUILD_DIR"/bench/bench_*; do
  [ -x "$b" ] || continue
  name=$(basename "$b")
  echo "== $name"
  # One run writes both series: the console table to the .txt, and the
  # JSON to the file --benchmark_out names. JSON, not CSV: the CSV
  # reporter aborts when benches carry different counter sets.
  # Write to the file first, then echo it: a pipeline into tee would
  # report tee's exit status and let a crashing bench pass silently.
  # Keep stderr visible — hiding it used to mask failures; set -e plus
  # the un-redirected exit status abort the sweep on any error.
  "$b" --benchmark_out="$OUT_DIR/$name.json" --benchmark_out_format=json \
    > "$OUT_DIR/$name.txt"
  cat "$OUT_DIR/$name.txt"
done
# Aggregate batch-kernel counters across every run manifest: how much
# of the sweep ran on the wide (SIMD) kernel vs the scalar path, and how
# often a config fell back off the batch engine entirely — broken down
# by the reason-labeled mc.batch_fallback.* partition. A sudden jump in
# fallbacks or scalar share is a perf regression even when wall-clock
# noise hides it; the optional --max-fallback-share gate turns that
# signal into a hard failure (CI passes 0).
python3 - "$OUT_DIR" "${MAX_FALLBACK_SHARE:-}" <<'PYEOF'
import glob, json, os, sys

out_dir = sys.argv[1]
max_share = float(sys.argv[2]) if len(sys.argv) > 2 and sys.argv[2] else None
totals = {"mc.batch_fallbacks": 0,
          "mc.batch_fallback.protocol": 0,
          "mc.batch_fallback.observer": 0,
          "mc.batch_fallback.cohort": 0,
          "mc.batch_wide_slots": 0,
          "mc.batch_scalar_slots": 0,
          "engine.batch.aggregate_chunks": 0,
          "engine.batch.hybrid_chunks": 0,
          "engine.batch.station_chunks": 0,
          "engine.batch.cohort_chunks": 0,
          "engine.station.lockstep_exits": 0,
          "binom.regime.loop": 0,
          "binom.regime.inversion": 0,
          "binom.regime.btpe": 0,
          "engine.memo.evictions": 0}
# Per-thread memo budget (kMemoBudgetBytes, src/sim/batch.hpp): the
# largest engine.memo.bytes gauge across manifests is the sweep's
# headroom under it. Report only.
MEMO_BUDGET_BYTES = 4 << 20
memo_peak, memo_peak_name = 0, ""
manifests = sorted(glob.glob(os.path.join(out_dir, "*.manifest.json")))
for path in manifests:
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        print(f"warning: skipping {path}: {e}", file=sys.stderr)
        continue
    counters = doc.get("metrics", {}).get("counters", {})
    for key in totals:
        totals[key] += int(counters.get(key, 0))
    gauges = doc.get("metrics", {}).get("gauges", {})
    memo = int(gauges.get("engine.memo.bytes", 0))
    if memo > memo_peak:
        memo_peak, memo_peak_name = memo, os.path.basename(path)

wide = totals["mc.batch_wide_slots"]
scalar = totals["mc.batch_scalar_slots"]
slots = wide + scalar
fallbacks = totals["mc.batch_fallbacks"]
chunks = (totals["engine.batch.aggregate_chunks"] +
          totals["engine.batch.hybrid_chunks"] +
          totals["engine.batch.station_chunks"] +
          totals["engine.batch.cohort_chunks"])
print(f"== batch kernel rollup ({len(manifests)} manifests)")
print(f"   mc.batch_fallbacks            {fallbacks}")
print(f"     .protocol                   {totals['mc.batch_fallback.protocol']}")
print(f"     .observer                   {totals['mc.batch_fallback.observer']}")
print(f"     .cohort                     {totals['mc.batch_fallback.cohort']}")
print(f"   batched chunks                {chunks}")
print(f"   mc.batch_wide_slots           {wide}")
print(f"   mc.batch_scalar_slots         {scalar}")
print(f"   engine.station.lockstep_exits {totals['engine.station.lockstep_exits']}")
if slots:
    print(f"   wide share                    {wide / slots:.1%}")
regimes = (totals["binom.regime.loop"] + totals["binom.regime.inversion"] +
           totals["binom.regime.btpe"])
if regimes:
    print(f"   binom.regime.loop             {totals['binom.regime.loop']}")
    print(f"   binom.regime.inversion        {totals['binom.regime.inversion']}")
    print(f"   binom.regime.btpe             {totals['binom.regime.btpe']}")
print(f"   engine.memo.evictions         {totals['engine.memo.evictions']}")
print(f"   engine.memo.bytes (max)       {memo_peak} of {MEMO_BUDGET_BYTES} "
      f"({memo_peak / MEMO_BUDGET_BYTES:.0%}, {memo_peak_name or 'none'})")
# Fallback share: whole runs that dropped to the sequential path vs
# chunks that actually ran batched. Denominator of 0 means the sweep
# never engaged the batch engine at all — nothing to gate on.
if fallbacks + chunks:
    share = fallbacks / (fallbacks + chunks)
    print(f"   fallback share                {share:.1%}")
    if max_share is not None and share > max_share:
        print(f"error: fallback share {share:.4f} exceeds "
              f"--max-fallback-share {max_share}", file=sys.stderr)
        sys.exit(1)
    if max_share is None and fallbacks:
        print(f"warning: {fallbacks} batch fallback(s); rerun with "
              f"--max-fallback-share to gate", file=sys.stderr)
PYEOF
echo "results in $OUT_DIR/"
