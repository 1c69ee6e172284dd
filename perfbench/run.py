#!/usr/bin/env python3
"""The jamelect benchmark: paper-figure sweep and jamelectd requests.

Usage (from the repository root):

    python3 perfbench/run.py --workload figure_sweep|service_cold|service_warm
                             --seed N --seconds S --trace 0|1

Builds the repository (Release, and Release with JAMELECT_OBS=ON for the
traced run) plus this directory's C++ package into $CARGO_TARGET_DIR
(default .bench_build), runs the named workload for S seconds, checks
every output against a reference, and prints one JSON object as the last
line of standard output. --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer ones. `--record-reference` rewrites the
figure_sweep counter reference after an intended change of results.
See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import random
import re
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
REFERENCE = os.path.join(HERE, "reference", "figure_sweep.json")
REFERENCES = {mode: os.path.join(HERE, "reference", f"service_{mode}.txt")
              for mode in ("cold", "warm")}

WORKLOADS = ("figure_sweep", "service_cold", "service_warm")
# Paper-figure sweep: every experiment binary at this many trials/point.
SWEEP_TRIALS = 32
EXPERIMENTS = [
    "bench_e01_lesk_scaling_n", "bench_e02_lesk_eps_sweep",
    "bench_e03_lesk_T_sweep", "bench_e04_estimation_accuracy",
    "bench_e05_lesu_unknown_eps", "bench_e06_lesu_large_T",
    "bench_e07_weakcd_overhead", "bench_e08_baseline_comparison",
    "bench_e09_lower_bound", "bench_e10_success_probability",
    "bench_e11_slot_taxonomy", "bench_e12_ablation_asymmetry",
    "bench_e13_energy", "bench_e14_fair_throughput", "bench_e15_extensions",
]
# Case family -> engine layer, for the traced run's busy-time split.
BUSY_LAYERS = {
    "sim.station_batch.busy_s": {"E08_Arss", "E08_ArssLargeN",
                                 "E13_ArssEnergy", "E14_ArssMac"},
    "sim.batch.busy_s": {"E07_WeakCdOverhead", "E08_Lesk", "E08_Lesu",
                         "E08_Willard", "E08_NakanoOlariu", "E08_NoCd"},
    "sim.other.busy_s": {"E04_EstimationAccuracy", "E14_RotationMac",
                         "E15_KSelection"},
}
AGGREGATE_LAYER = "sim.aggregate.busy_s"  # every other family
TIMING_KEYS = {"real_time", "cpu_time"}

# Service workloads: the daemon's shape. The client's (connections, the
# 256 warm configs and their Zipf skew) is fixed in client.cpp.
WORKERS = 2
WARM_MEMORY_ENTRIES = 128  # below the 256 warm configs: the Zipf tail reloads from disk
# Cold rounds are a third of the 720-cell request grid; warm rounds are
# short (about 50 ms) so that the median round skips bursts of stalls.
ROUND = {"service_cold": 240, "service_warm": 1024}
# Requests per second of --seconds, about the measured throughput: the
# window is a fixed request count, so every run serves identical work.
NOMINAL_RATE = {"service_cold": 300, "service_warm": 30000}
# Set-ups per run; setup_s is their median. figure_sweep probes every
# binary this many times before each pass; a service set-up fills the
# 256 warm configs.
SETUPS = {"figure_sweep": 4, "service_cold": 9, "service_warm": 9}
# Source files whose digest identifies the code measured.
SOURCE_DIRS = ("src", "tools", "bench", "cmake")

class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def median(xs):
    return statistics.median(xs) if xs else 0.0


# --------------------------------------------------------------- build

def run_logged(cmd, logf, cwd=ROOT):
    with open(logf, "a") as f:
        f.write("$ " + " ".join(cmd) + "\n")
        f.flush()
        rc = subprocess.call(cmd, cwd=cwd, stdout=f, stderr=subprocess.STDOUT)
    if rc != 0:
        with open(logf) as f:
            tail = f.read()[-4000:]
        raise BenchError(f"build step failed: {' '.join(cmd)}\n{tail}")


def build(flavor, obs):
    """Builds one flavor; returns {name: path} of the binaries used."""
    base = os.path.join(BUILD, flavor)
    repo, prefix, pkg = (os.path.join(base, d)
                         for d in ("jamelect", "prefix", "perfbench"))
    logf = os.path.join(BUILD, f"build-{flavor}.log")
    gen = ["-G", "Ninja"] if subprocess.call(
        ["ninja", "--version"], stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL) == 0 else []
    jobs = ["-j", str(nproc())]
    if not os.path.exists(os.path.join(repo, "CMakeCache.txt")):
        run_logged(["cmake", "-S", ROOT, "-B", repo, *gen,
                    "-DCMAKE_BUILD_TYPE=Release",
                    "-DJAMELECT_BUILD_TESTS=OFF",
                    "-DJAMELECT_BUILD_EXAMPLES=OFF",
                    f"-DJAMELECT_OBS={'ON' if obs else 'OFF'}",
                    f"-DCMAKE_INSTALL_PREFIX={prefix}"], logf)
    run_logged(["cmake", "--build", repo, *jobs], logf)
    run_logged(["cmake", "--install", repo], logf)
    if not os.path.exists(os.path.join(pkg, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", pkg, *gen,
                    "-DCMAKE_BUILD_TYPE=Release",
                    f"-DJAMELECT_PREFIX={prefix}"], logf)
    run_logged(["cmake", "--build", pkg, *jobs], logf)
    bins = {name: os.path.join(repo, "bench", name) for name in EXPERIMENTS}
    bins["jamelectd"] = os.path.join(repo, "tools", "jamelectd")
    bins["client"] = os.path.join(pkg, "perfbench_client")
    bins["layers"] = os.path.join(pkg, "perfbench_layers")
    # Refuse anything but an NDEBUG build with the requested OBS setting.
    probe = bins[EXPERIMENTS[0]]
    for mode, want in (("1", "release"), ("obs", "obs=on" if obs else "obs=off")):
        got = subprocess.run([probe], env=dict(os.environ, JAMELECT_BUILD_PROBE=mode),
                             capture_output=True, text=True).stdout.strip()
        if got != want:
            raise BenchError(f"{flavor} build probe {mode!r}: {got!r}, want {want!r}")
    return bins


def source_revision():
    """Git SHA and dirty flag of the tree (None outside a git checkout),
    and a SHA-256 over the sources that are built, which identifies the
    code measured either way."""
    h = hashlib.sha256()
    tops = [os.path.join(ROOT, "CMakeLists.txt")]
    for d in SOURCE_DIRS:
        for base, dirs, files in os.walk(os.path.join(ROOT, d)):
            dirs.sort()
            tops += [os.path.join(base, f) for f in sorted(files)]
    for path in tops:
        h.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    rev = {"git_sha": None, "git_dirty": None, "source_sha256": h.hexdigest()}
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if head.returncode == 0:
            status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                    capture_output=True, text=True).stdout
            rev.update(git_sha=head.stdout.strip(), git_dirty=bool(status.strip()))
    except OSError:
        pass  # no git on this machine
    return rev


def provenance(bins):
    # The smallest experiment binary reports the runtime dispatch choices.
    out = subprocess.run([bins["bench_e10_success_probability"],
                          "--benchmark_format=json"],
                         env=child_env(nproc(), manifest_dir=None),
                         capture_output=True, text=True).stdout
    ctx = json.loads(out).get("context", {}) if out.strip() else {}
    return {"nproc": nproc(), **source_revision(),
            "jamelect_wide_isa": ctx.get("jamelect_wide_isa"),
            "jamelect_rng_backend_aes": ctx.get("jamelect_rng_backend_aes"),
            "pool_width": ctx.get("jamelect_threads"), "daemon_workers": WORKERS,
            "sweep_trials": SWEEP_TRIALS}


def child_env(width, manifest_dir):
    """Environment for a jamelect process whose pool is `width` threads
    wide (JAMELECT_THREADS workers plus the participating caller)."""
    env = dict(os.environ)
    env["JAMELECT_THREADS"] = str(max(1, width - 1))
    env["JAMELECT_BENCH_TRIALS"] = str(SWEEP_TRIALS)
    for k in ("JAMELECT_FORCE_SCALAR", "JAMELECT_FORCE_SOFT_AES",
              "JAMELECT_CACHE_DIR", "JAMELECT_OBS_PROF", "JAMELECT_BUILD_PROBE"):
        env.pop(k, None)
    if manifest_dir:
        env["JAMELECT_MANIFEST_DIR"] = manifest_dir
        env.pop("JAMELECT_MANIFEST", None)
    else:
        env["JAMELECT_MANIFEST"] = "off"
    return env


def wait_child(proc):
    """Reaps `proc`; returns (exit code, peak RSS in MB)."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


# -------------------------------------------------------- figure sweep

def family(case_name):
    return case_name.split("/")[0]


def sweep_setup(bins, order, width, tmp, rounds):
    """Per round, the summed set-up and tear-down of every experiment
    binary: a run with no case selected."""
    env = child_env(width, None)
    sums = []
    for _ in range(rounds):
        total = 0.0
        for name in order:
            t = time.perf_counter()
            proc = subprocess.Popen([bins[name], "--benchmark_filter=^$"], env=env,
                                    stdout=subprocess.DEVNULL,
                                    stderr=subprocess.DEVNULL, cwd=tmp)
            if wait_child(proc)[0] != 0:
                raise BenchError(f"{name} failed with no case selected")
            total += time.perf_counter() - t
        sums.append(total)
    return sums


def sweep_pass(bins, order, width, tmp, manifest_dir=None):
    """Runs every experiment binary once; returns per-pass measurements."""
    env = child_env(width, manifest_dir)
    res = {"walls": [], "rss_mb": 0.0, "cases": {}, "crashed": []}
    for name in order:
        out_path = os.path.join(tmp, name + ".json")
        with open(out_path, "w") as out, open(os.path.join(tmp, "stderr.log"), "a") as err:
            t = time.perf_counter()
            proc = subprocess.Popen([bins[name], "--benchmark_format=json"],
                                    env=env, stdout=out, stderr=err, cwd=tmp)
            rc, rss = wait_child(proc)
            wall = time.perf_counter() - t
        res["walls"].append(wall)
        res["rss_mb"] = max(res["rss_mb"], rss)
        try:
            with open(out_path) as f:
                doc = json.load(f)
        except ValueError:
            doc = None
        if rc != 0 or doc is None:
            res["crashed"].append(name)
            continue
        if doc["context"].get("jamelect_build_type") != "release":
            raise BenchError(f"{name}: not a release build")
        scale = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}
        for case in doc["benchmarks"]:
            res["cases"][(name, case["name"])] = {
                "real_s": case["real_time"] * scale[case["time_unit"]],
                "counters": {k: v for k, v in case.items() if k not in TIMING_KEYS},
            }
    res["wall_s"] = sum(res["walls"])
    return res


def check_sweep(res, reference):
    """Returns (attempted, failed) case counts against the reference."""
    attempted = failed = 0
    for name, cases in reference.items():
        for case_name, counters in cases.items():
            attempted += 1
            got = res["cases"].get((name, case_name))
            if got is None or got["counters"] != counters:
                failed += 1
    extra = set(res["cases"]) - {(n, c) for n, cs in reference.items() for c in cs}
    return attempted + len(extra), failed + len(extra)


def load_reference():
    with open(REFERENCE) as f:
        doc = json.load(f)
    if doc.get("trials") != SWEEP_TRIALS:
        raise BenchError("reference was recorded at another trial count")
    return doc["cases"]


def figure_sweep(bins, seed, seconds, tmp):
    reference = load_reference()
    order = list(EXPERIMENTS)
    random.Random(seed).shuffle(order)
    # Set-up rounds run before every pass, so that their median spans the
    # run rather than one stretch of it.
    setups, passes = [], []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < seconds:
        setups += sweep_setup(bins, order, nproc(), tmp, SETUPS["figure_sweep"])
        passes.append(sweep_pass(bins, order, nproc(), tmp))
    attempted = failed = 0
    for p in passes:
        a, f = check_sweep(p, reference)
        attempted, failed = attempted + a, failed + f
    # A request is one figure data point (one case), timed by its
    # google-benchmark real_time. The sweep's hundreds of sub-millisecond
    # cases are dominated by pool wake-ups, so the quantiles are weighted
    # by time: latency_p50_ms is the case time below which half of the
    # sweep's compute time is spent. Each metric is the median over
    # passes, so a stall elsewhere on the machine moves one pass only.
    def per_pass(fn):
        return median([fn(p) for p in passes])

    def case_ms(p, q):
        # Interpolated between neighbouring cases by how far into the
        # crossing case's share of time the target falls.
        times = sorted(c["real_s"] for c in p["cases"].values())
        target, acc, prev = q * sum(times), 0.0, 0.0
        for t in times:
            if acc + t >= target:
                return 1e3 * (prev + (t - prev) * (target - acc) / t)
            acc, prev = acc + t, t
        return 1e3 * prev

    metrics = {
        "setup_s": median(setups),
        "wall_s": per_pass(lambda p: p["wall_s"]),
        "req_per_s": per_pass(lambda p: len(p["cases"]) / p["wall_s"]),
        "latency_p50_ms": per_pass(lambda p: case_ms(p, 0.5)),
        "latency_p90_ms": per_pass(lambda p: case_ms(p, 0.9)),
        "peak_rss_mb": max(p["rss_mb"] for p in passes),
    }
    return metrics, attempted, failed


def figure_sweep_traced(bins, obs_bins, seed, tmp):
    """Busy time per engine layer, parallel efficiency; fails on any
    batch-engine fallback."""
    reference = load_reference()
    order = list(EXPERIMENTS)
    random.Random(seed).shuffle(order)
    plain = sweep_pass(bins, order, nproc(), tmp)
    # The narrowest pool the library offers: one worker plus the caller.
    narrow = sweep_pass(bins, order, 2, tmp)
    mdir = os.path.join(tmp, "manifests")
    os.makedirs(mdir, exist_ok=True)
    traced_setup_s = median(sweep_setup(obs_bins, order, nproc(), tmp,
                                         SETUPS["figure_sweep"]))
    traced = sweep_pass(obs_bins, order, nproc(), tmp, manifest_dir=mdir)
    attempted = failed = 0
    for p in (plain, narrow, traced):
        a, f = check_sweep(p, reference)
        attempted, failed = attempted + a, failed + f
    # The batch engines must take every MC run: a fallback fails the run.
    fallbacks, chunks = fallback_counts(mdir)
    log(f"perfbench: {fallbacks} batch-engine fallbacks, {chunks} batched chunks")
    attempted, failed = attempted + 1, failed + (fallbacks > 0)
    busy = {k: 0.0 for k in (*BUSY_LAYERS, AGGREGATE_LAYER)}
    for (_, case_name), case in traced["cases"].items():
        layer = next((k for k, fams in BUSY_LAYERS.items()
                      if family(case_name) in fams), AGGREGATE_LAYER)
        busy[layer] += case["real_s"]
    metrics = dict(busy)
    metrics["support.thread_pool.parallel_efficiency"] = (
        narrow["wall_s"] / plain["wall_s"]) / (nproc() / 2)
    metrics["figure_sweep.unexplained_s"] = (
        traced["wall_s"] - traced_setup_s - sum(busy.values()))
    metrics["figure_sweep.trace_overhead_s"] = traced["wall_s"] - plain["wall_s"]
    return metrics, attempted, failed


def fallback_counts(mdir):
    """(runs that fell off the batch engines, batched chunks), manifests."""
    fallbacks = chunks = 0
    for name in os.listdir(mdir):
        with open(os.path.join(mdir, name)) as f:
            counters = json.load(f).get("metrics", {}).get("counters", {})
        fallbacks += int(counters.get("mc.batch_fallbacks", 0))
        chunks += sum(int(counters.get(f"engine.batch.{k}_chunks", 0))
                      for k in ("aggregate", "hybrid", "station", "cohort"))
    if fallbacks + chunks == 0:
        raise BenchError("no OBS batch counters in the traced sweep manifests")
    return fallbacks, chunks


def quantile(xs, q):
    xs = sorted(xs)
    if not xs:
        return 0.0
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (pos - lo) * (xs[hi] - xs[lo])


# ------------------------------------------------------------- service

class Daemon:
    """One jamelectd on an ephemeral port with a disk tier under `tmp`."""

    def __init__(self, bins, tmp, tag, max_entries=0):
        self.dir = os.path.join(tmp, tag)
        os.makedirs(self.dir)
        args = [bins["jamelectd"], "--port=0", f"--workers={WORKERS}",
                f"--cache-dir={os.path.join(self.dir, 'cache')}",
                f"--flight={os.path.join(self.dir, 'flight')}"]
        if max_entries:
            args.append(f"--cache-max-entries={max_entries}")
        self.proc = subprocess.Popen(args, cwd=self.dir,
                                     env=child_env(nproc(), self.dir),
                                     stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, text=True)
        try:
            self._connect()
        except BaseException:
            self.kill()
            raise

    def _connect(self):
        self.port = None
        deadline = time.monotonic() + 30
        while self.port is None:
            if not select.select([self.proc.stdout], [], [],
                                 max(0.0, deadline - time.monotonic()))[0]:
                raise BenchError("jamelectd did not start")
            line = self.proc.stdout.readline()
            if not line:
                raise BenchError("jamelectd exited during start-up")
            m = re.search(r"listening on [^:]+:(\d+)", line)
            if m:
                self.port = int(m.group(1))
        self.sock = socket.create_connection(("127.0.0.1", self.port), timeout=30)
        self.reader = self.sock.makefile("r")

    def call(self, op):
        self.sock.sendall((json.dumps({"op": op}) + "\n").encode())
        return json.loads(self.reader.readline())

    def counters(self):
        return self.call("metrics")["metrics"]["counters"]

    def stop(self):
        """SIGINT drain; returns the daemon's peak RSS in MB."""
        if self.proc.returncode is not None:
            return 0.0
        self.reader.close()
        self.sock.close()
        self.proc.send_signal(signal.SIGINT)
        self.proc.stdout.read()
        rc, rss = wait_child(self.proc)
        if rc != 0:
            raise BenchError(f"jamelectd exited with {rc}")
        return rss

    def kill(self):
        if self.proc.returncode is None:
            self.proc.kill()
            wait_child(self.proc)


def run_client(bins, mode, daemon, seed, requests, tmp, fill_file):
    """Runs the client; returns its summary (cold, warm), or whether every
    fill result was right (fill)."""
    out = os.path.join(tmp, f"client-{mode}.json")
    args = [bins["client"], f"--mode={mode}", f"--port={daemon.port}",
            f"--seed={seed}", f"--requests={requests}",
            f"--fill-file={fill_file}",
            f"--reference={REFERENCES['cold' if mode == 'cold' else 'warm']}",
            f"--out={out}"]
    if mode != "fill":
        args.append(f"--round={ROUND['service_' + mode]}")
    # A blocking wait: subprocess's wait with a timeout polls at up to
    # 50 ms steps, which would quantize the set-up times.
    proc = subprocess.Popen(args, env=child_env(nproc(), None), cwd=tmp)
    timer = threading.Timer(170, proc.kill)
    timer.start()
    try:
        rc = wait_child(proc)[0]
    finally:
        timer.cancel()
    if rc == 3:
        raise BenchError("refused: the client's threads plus connections "
                         f"exceed nproc={nproc()}")
    if mode == "fill" and rc in (0, 1):
        return rc == 0
    if rc != 0:
        raise BenchError(f"perfbench_client --mode={mode} exited with {rc}")
    with open(out) as f:
        return json.load(f)


def start_service(bins, workload, seed, tmp, tag, daemons):
    """Launch -> first ping -> fill. Returns (daemon, set-up s, fill file,
    whether the fill was correct)."""
    t = time.perf_counter()
    d = Daemon(bins, tmp, tag,
               WARM_MEMORY_ENTRIES if workload == "service_warm" else 0)
    daemons.append(d)
    if d.call("ping").get("type") != "pong":
        raise BenchError("jamelectd did not answer ping")
    fill = os.path.join(d.dir, "fill.txt")
    ok = run_client(bins, "fill", d, seed, 0, d.dir, fill)
    return d, time.perf_counter() - t, fill, ok


def service_window(bins, workload, seed, seconds, tmp, tag, daemons, setups=1):
    """One timed window on a freshly set-up daemon. With several set-ups,
    half run before the window and half after it, so that their median
    spans the run rather than one stretch of it; all but the window's
    daemon are killed once timed (their drain is not set-up)."""
    setup_times, setup_wrong = [], 0

    def set_up(i):
        nonlocal setup_wrong
        d, setup_s, fill, ok = start_service(bins, workload, seed, tmp,
                                             f"{tag}{i}", daemons)
        setup_times.append(setup_s)
        setup_wrong += not ok
        return d, fill

    for i in range(setups // 2):
        set_up(i)[0].kill()
    d, fill = set_up(setups // 2)
    before = d.counters()
    requests = max(3 * ROUND[workload], int(seconds * NOMINAL_RATE[workload]))
    summary = run_client(bins, workload.split("_")[1], d, seed, requests, tmp,
                         fill)
    after = d.counters()
    summary["rss_mb"] = d.stop()
    for i in range(setups // 2 + 1, setups):
        set_up(i)[0].kill()
    summary["setup_s"] = median(setup_times)
    # Set-ups count as answered requests; a failed fill fails the run.
    summary["attempted"] += setups
    summary["wrong"] += setup_wrong
    delta = {k: after.get(k, 0) - before.get(k, 0) for k in after}
    summary["daemon"] = delta
    return summary


def service_metrics(s):
    return {
        "setup_s": s["setup_s"],
        "wall_s": s["round_s"],
        "req_per_s": s["req_per_s"],
        "latency_p50_ms": s["latency_p50_ms"],
        "latency_p90_ms": s["latency_p90_ms"],
        "peak_rss_mb": s["rss_mb"],
    }


def service_failed(s):
    """Errors, 429 refusals and wrong results. Requests the client's time
    cap cut off are not failures; they are logged."""
    if s["cut_off"]:
        log(f"perfbench: {s['cut_off']} of {s['requested']} requests cut off "
            "by the client's time cap")
    return s["errors"] + s["rejected"] + s["wrong"]


def service_traced(bins, obs_bins, workload, seed, seconds, tmp, daemons):
    """Untraced vs OBS-build windows on the same stream; layer split."""
    short = max(2.0, seconds / 3)
    plain = service_window(bins, workload, seed, short, tmp,
                           f"{workload}-plain", daemons)
    traced = service_window(obs_bins, workload, seed, short, tmp,
                            f"{workload}-traced", daemons)
    attempted = plain["attempted"] + traced["attempted"]
    failed = service_failed(plain) + service_failed(traced)
    t = traced
    if workload == "service_cold":
        # Coalesced answers and 429 refusals already fail the run.
        m = {
            "service.service.cache_probe_us": t["cache_probe_us"],
            "service.service.queue_us": t["queue_us"],
            "service.sweep_runner.compute_ms": t["compute_us"] / 1e3,
            "service.sweep_runner.serialize_us": t["serialize_us"],
            "service_cold.transport_us": t["transport_us"],
        }
    else:
        hits = t["daemon"].get("svc.cache_hits", 0)
        disk = t["daemon"].get("svc.cache_evictions", 0)
        m = {
            "service.server.transport_us": t["transport_us"],
            "service.result_cache.mem_hit_share": 1.0 - disk / max(1, hits),
        }
    m[f"{workload}.ping_rtt_us"] = t["ping_rtt_us"]
    m[f"{workload}.unexplained_us"] = t["transport_us"] - t["ping_rtt_us"]
    m[f"{workload}.latency_p99_ms"] = t["latency_p99_ms"]
    m[f"{workload}.trace_overhead_ms"] = (t["latency_p50_ms"] -
                                          plain["latency_p50_ms"])
    return m, attempted, failed


# ---------------------------------------------------------------- main

def record_reference(bins, tmp):
    res = sweep_pass(bins, EXPERIMENTS, nproc(), tmp)
    if res["crashed"]:
        raise BenchError(f"crashed: {res['crashed']}")
    cases = {}
    for (name, case_name), case in sorted(res["cases"].items()):
        cases.setdefault(name, {})[case_name] = case["counters"]
    os.makedirs(os.path.dirname(REFERENCE), exist_ok=True)
    with open(REFERENCE, "w") as f:
        json.dump({"trials": SWEEP_TRIALS, "cases": cases}, f, indent=1,
                  sort_keys=True)
        f.write("\n")
    log(f"wrote {REFERENCE}: {len(res['cases'])} cases")
    for mode, path in REFERENCES.items():
        subprocess.run([bins["client"], f"--mode=reference-{mode}",
                        f"--reference={path}"],
                       env=child_env(nproc(), None), check=True)
        log(f"wrote {path}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args()
    if not args.workload and not args.record_reference:
        ap.error("--workload is required")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError(f"no jamelect sources under {ROOT}")
    if not 0 <= args.seed < 2**31:
        raise BenchError("--seed must be in [0, 2^31)")
    os.makedirs(BUILD, exist_ok=True)
    bins = build("release", obs=False)
    obs_bins = build("obs", obs=True)
    tmp_root = os.path.join(BUILD, "tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=tmp_root)
    daemons = []
    try:
        if args.record_reference:
            record_reference(bins, tmp)
            return 0
        context = provenance(bins)
        context.update(workload=args.workload, seed=args.seed,
                       seconds=args.seconds, trace=args.trace)
        print("perfbench context " + json.dumps(context, sort_keys=True),
              flush=True)
        metrics, attempted, failed = run_workload(args, bins, obs_bins, tmp,
                                                  daemons)
    finally:
        for d in daemons:
            d.kill()
        shutil.rmtree(tmp, ignore_errors=True)

    # Report exactly the metrics BENCHMARK.json declares for this mode.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise BenchError("metrics differ from BENCHMARK.json: "
                         f"{sorted(set(units) ^ set(metrics))}")
    share = failed / max(1, attempted)
    for k in sorted(metrics):
        print(f"{k:44s} {metrics[k]:16.6g} {units[k]}")
    print(f"{'failed_share':44s} {share:16.6g} 1  ({failed}/{attempted})")
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run_workload(args, bins, obs_bins, tmp, daemons):
    """Returns (metrics, attempted, failed) for the requested mode."""
    if not args.trace:
        if args.workload == "figure_sweep":
            return figure_sweep(bins, args.seed, args.seconds, tmp)
        s = service_window(bins, args.workload, args.seed, args.seconds, tmp,
                           "svc", daemons, setups=SETUPS[args.workload])
        return service_metrics(s), s["attempted"], service_failed(s)
    # The traced run covers every layer, whichever workload is named.
    layers = subprocess.run(
        [bins["layers"], f"--tmp={tmp}", f"--seed={args.seed}"],
        env=child_env(nproc(), None), capture_output=True, text=True,
        check=True, timeout=120).stdout
    metrics, attempted, failed = json.loads(layers), 0, 0
    parts = [
        lambda: figure_sweep_traced(bins, obs_bins, args.seed, tmp),
        lambda: service_traced(bins, obs_bins, "service_cold", args.seed,
                               args.seconds, tmp, daemons),
        lambda: service_traced(bins, obs_bins, "service_warm", args.seed,
                               args.seconds, tmp, daemons),
    ]
    for part in parts:
        m, a, f = part()
        metrics.update(m)
        attempted, failed = attempted + a, failed + f
    return metrics, attempted, failed


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.SubprocessError, OSError) as e:
        log(f"perfbench: error: {e}")
        sys.exit(2)
