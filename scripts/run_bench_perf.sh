#!/usr/bin/env sh
# Measures engine throughput (bench_perf_engines) from a Release build
# and records the JSON series quoted in CHANGES.md. Usage:
#   scripts/run_bench_perf.sh [build-dir] [out-file]
# Extra arguments after the first two are passed through to the bench
# binary (e.g. --benchmark_filter=Cohort --benchmark_repetitions=3).
#
# Refuses to record numbers from anything but an NDEBUG build: the
# binary's own JAMELECT_BUILD_PROBE mode reports how the bench code was
# actually compiled (the library_build_type line in the JSON describes
# libbenchmark's packaging, not our flags, and is "debug" on Debian even
# for fully optimised builds).
set -eu

BUILD_DIR="${1:-build-release}"
OUT_FILE="${2:-BENCH_perf_engines.json}"
[ "$#" -ge 1 ] && shift
[ "$#" -ge 1 ] && shift

cmake -B "$BUILD_DIR" -G Ninja -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" --target bench_perf_engines

BENCH="$BUILD_DIR/bench/bench_perf_engines"
BUILD_TYPE="$(JAMELECT_BUILD_PROBE=1 "$BENCH")"
if [ "$BUILD_TYPE" != "release" ]; then
  echo "error: $BENCH was compiled without NDEBUG (probe says" \
    "'$BUILD_TYPE'); refusing to record debug timings" >&2
  exit 1
fi

# Record the SIMD feature set the batch engine can draw on: the wide
# lane path's numbers are only comparable across machines with the same
# backend (the binary also stamps jamelect_wide_isa into the JSON).
if [ -r /proc/cpuinfo ]; then
  CPU_FEATURES="$(grep -m1 '^flags' /proc/cpuinfo \
    | tr ' ' '\n' | grep -E '^(avx|avx2|avx512[a-z]*|sse4_[12]|fma)$' \
    | tr '\n' ' ' || true)"
  echo "cpu simd features: ${CPU_FEATURES:-none detected}"
fi

"$BENCH" \
  --benchmark_format=console \
  --benchmark_out="$OUT_FILE" \
  --benchmark_out_format=json \
  "$@"

if ! grep -q '"jamelect_build_type": "release"' "$OUT_FILE"; then
  echo "error: $OUT_FILE does not carry jamelect_build_type=release" >&2
  exit 1
fi
if ! grep -q '"jamelect_wide_isa"' "$OUT_FILE"; then
  echo "error: $OUT_FILE does not record jamelect_wide_isa" >&2
  exit 1
fi
# The parallel-orchestration cases are only interpretable with the
# fan-out width on record.
if ! grep -q '"jamelect_threads"' "$OUT_FILE"; then
  echo "error: $OUT_FILE does not record jamelect_threads" >&2
  exit 1
fi
echo "results in $OUT_FILE"

# Append one line per run to the benchmark history (BENCH_history.jsonl
# next to the out file): run context + the headline items/sec of every
# benchmark in this run. Append-only so regressions stay diffable
# across commits; failures here never invalidate the run above.
HISTORY_FILE="$(dirname "$OUT_FILE")/BENCH_history.jsonl"
python3 - "$OUT_FILE" "$HISTORY_FILE" <<'PYEOF' || \
  echo "warning: could not append $HISTORY_FILE" >&2
import json, subprocess, sys

out_file, history_file = sys.argv[1], sys.argv[2]
with open(out_file) as f:
    doc = json.load(f)
ctx = doc.get("context", {})
try:
    sha = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                         capture_output=True, text=True,
                         check=True).stdout.strip()
except Exception:
    sha = ""
entry = {
    "date": ctx.get("date", ""),
    "git_sha": sha,
    "host_cpus": ctx.get("num_cpus", 0),
    "build_type": ctx.get("jamelect_build_type", ""),
    "wide_isa": ctx.get("jamelect_wide_isa", ""),
    "threads": ctx.get("jamelect_threads", ""),
    "benchmarks": {
        b["name"]: round(b.get("items_per_second", 0.0))
        for b in doc.get("benchmarks", [])
        if b.get("run_type", "iteration") == "iteration"
    },
}
with open(history_file, "a") as f:
    f.write(json.dumps(entry, sort_keys=True) + "\n")
print(f"history appended to {history_file}")
PYEOF
