#!/usr/bin/env bash
# Sweep-service smoke test (CI: the service job; also runnable locally).
#
#   scripts/service_smoke.sh [build-dir]
#
# Exercises the full daemon lifecycle:
#   1. start jamelectd on an ephemeral port, disk cache in a temp dir;
#   2. replay a mixed loadgen trace (hot-config skew), asserting the
#      cache actually hits;
#   3. check the drained cache directory (16 envelopes, no temp file),
#      damage two envelopes, and repeat the trace against the warm disk
#      cache after a restart: both are rejected, the rest still hit;
#   4. SIGTERM the daemon mid-sweep and assert it drains and exits 0;
#   5. run a traced daemon (--trace, --flight-capacity): a SIGUSR1 dump
#      passes scripts/validate_events.py, and the Chrome trace written at
#      SIGTERM parses and ties one request's trace id to its svc.*,
#      mc.batch and pool_task spans.
set -eu

BUILD_DIR="${1:-build}"
DAEMON="$BUILD_DIR/tools/jamelectd"
LOADGEN="$BUILD_DIR/tools/jamelect_loadgen"
[ -x "$DAEMON" ] || { echo "missing $DAEMON (build first)"; exit 1; }
[ -x "$LOADGEN" ] || { echo "missing $LOADGEN (build first)"; exit 1; }

WORK=$(mktemp -d)
LOG="$WORK/jamelectd.log"
export JAMELECT_MANIFEST_DIR="$WORK"

cleanup() {
  [ -n "${DPID:-}" ] && kill "$DPID" 2>/dev/null || true
  wait 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

# Extra flags ("$@") go to the daemon.
start_daemon() {
  "$DAEMON" --port=0 --workers=4 --cache-dir="$WORK/cache" \
    --flight="$WORK/flight" "$@" > "$LOG" 2>&1 &
  DPID=$!
  # The listening line carries the ephemeral port; wait for it.
  for _ in $(seq 1 50); do
    PORT=$(sed -n 's/.*listening on [0-9.]*:\([0-9]*\).*/\1/p' "$LOG")
    [ -n "$PORT" ] && return 0
    kill -0 "$DPID" 2>/dev/null || { cat "$LOG"; echo "daemon died"; exit 1; }
    sleep 0.1
  done
  cat "$LOG"; echo "daemon never reported its port"; exit 1
}

echo "== cold trace (computes, then hits)"
start_daemon
"$LOADGEN" --port="$PORT" --requests=10000 --concurrency=8 --configs=16 \
  --hot-frac=0.9 --trials=32 --max-slots=20000 --min-hit-rate=0.5

echo "== warm restart (disk cache only, hit rate ~1.0)"
kill -TERM "$DPID"; wait "$DPID"
# Stores are written behind the reply; the SIGTERM drain must have put
# every config's envelope on disk, and no temp file may be left.
ENVELOPES=$(find "$WORK/cache" -name '*.result.json' | wc -l)
TEMPS=$(find "$WORK/cache" -name '*.tmp' | wc -l)
if [ "$ENVELOPES" -ne 16 ] || [ "$TEMPS" -ne 0 ]; then
  ls -l "$WORK/cache"
  echo "cache holds $ENVELOPES envelopes and $TEMPS temp files (want 16, 0)"
  exit 1
fi
# Damage two envelopes: the restarted daemon must reject both (a miss
# each, recomputed) and still serve the rest from disk.
python3 - "$WORK/cache" <<'PYEOF'
import glob, os, sys
envelopes = glob.glob(os.path.join(sys.argv[1], "*", "*.result.json"))
first, second = sorted(envelopes)[:2]
data = open(first, "rb").read()
open(first, "wb").write(data[: len(data) // 2])
data = bytearray(open(second, "rb").read())
data[-5] ^= 0x01  # inside the result, which ends at data[-3]
open(second, "wb").write(bytes(data))
PYEOF
start_daemon
"$LOADGEN" --port="$PORT" --requests=2000 --concurrency=8 --configs=16 \
  --hot-frac=0.9 --trials=32 --max-slots=20000 --min-hit-rate=0.99
python3 - "$PORT" <<'PYEOF'
import json, socket, sys
s = socket.create_connection(("127.0.0.1", int(sys.argv[1])))
s.sendall(b'{"op":"metrics"}\n')
counters = json.loads(s.makefile().readline())["metrics"]["counters"]
disk = {k: v for k, v in counters.items() if k.startswith("svc.cache_disk")}
print("restart disk tier:", disk)
assert disk.get("svc.cache_disk_rejects") == 2, disk
assert disk.get("svc.cache_disk_write_failures") == 0, disk
PYEOF

echo "== kill mid-sweep drains and exits 0"
# A heavy sweep (fire-and-forget) occupies a worker, then SIGTERM lands
# while it runs; graceful drain must still end with exit status 0.
python3 - "$PORT" <<'PYEOF'
import json, socket, sys
s = socket.create_connection(("127.0.0.1", int(sys.argv[1])))
req = {"op": "sweep", "wait": False,
       "params": {"n": 4096, "trials": 500000, "seed": 424242,
                  "adversary": "saturating", "T": 512,
                  "max_slots": 1000000}}
s.sendall((json.dumps(req) + "\n").encode())
line = s.makefile().readline()
resp = json.loads(line)
assert resp.get("type") == "ack", line
PYEOF
sleep 0.3
kill -TERM "$DPID"
RC=0; wait "$DPID" || RC=$?
if [ "$RC" -ne 0 ]; then
  cat "$LOG"; echo "daemon exited $RC after SIGTERM mid-sweep"; exit 1
fi
grep -q "draining" "$LOG" || { cat "$LOG"; echo "no drain message"; exit 1; }
[ -f "$WORK/jamelectd.manifest.json" ] || {
  echo "daemon manifest not flushed on shutdown"; exit 1; }
DPID=""

echo "== traced daemon: SIGUSR1 dump and Chrome trace share one store"
# A fresh cache directory, so every config computes and records its
# MC chunk and pool task spans; the store holds the whole run.
rm -rf "$WORK/cache"
start_daemon --trace="$WORK/trace.json" --flight-capacity=16384
"$LOADGEN" --port="$PORT" --requests=200 --concurrency=4 --configs=8 \
  --hot-frac=0.5 --trials=256 --max-slots=20000
kill -USR1 "$DPID"
DUMP=""
for _ in $(seq 1 50); do
  DUMP=$(sed -n 's/.*SIGUSR1 flight dump \(.*\.ndjson\).*/\1/p' "$LOG")
  [ -n "$DUMP" ] && break
  sleep 0.1
done
[ -n "$DUMP" ] && [ -f "$DUMP" ] || {
  cat "$LOG"; echo "no SIGUSR1 dump"; exit 1; }
python3 "$(dirname "$0")/validate_events.py" "$DUMP"
kill -TERM "$DPID"
RC=0; wait "$DPID" || RC=$?
DPID=""
[ "$RC" -eq 0 ] || { cat "$LOG"; echo "traced daemon exited $RC"; exit 1; }
python3 - "$WORK/trace.json" <<'PYEOF'
import json, sys
doc = json.load(open(sys.argv[1]))
print("trace:", len(doc["traceEvents"]), "spans,", doc["otherData"])
assert doc["otherData"]["overwritten"] == 0, doc["otherData"]
names = {}
for ev in doc["traceEvents"]:
    trace = ev.get("args", {}).get("trace")
    if trace:
        names.setdefault(trace, set()).add(ev["name"])
whole = [t for t, n in names.items()
         if "mc.batch" in n and "pool_task" in n
         and {"svc.compute", "svc.queue_wait"} <= n]
assert whole, f"no trace id spans svc.*, mc.batch and pool_task: {names}"
print(f"{len(whole)} of {len(names)} trace ids reach svc.*, mc.batch "
      "and pool_task spans")
PYEOF

echo "service smoke OK"
