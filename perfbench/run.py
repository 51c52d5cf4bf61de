#!/usr/bin/env python3
"""The repository benchmark: three workloads through the user-facing tools.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 15

Run it from the repository root. It builds the tools and the layer probe
under $CARGO_TARGET_DIR (default .bench_build), then measures one
workload for --seconds seconds:

  sweep      nvmr_sweep --jobs 1 over its default grid and K traces
  crashtest  nvmr_crashtest with a fresh --journal per campaign
  serve      nvmr_serve fed by an open loop of one-cell sweep jobs

--trace 0 prints the end-to-end metrics of untraced runs; --trace 1 runs
the workload once more with the tools' telemetry and the in-process
layer probe (probe/layer_probe.cc) and prints the per-layer metrics.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Every output is checked (checks.py); the
exit code is 0 only when every check passed. README.md maps each
metric to the layer and workload it belongs to.
"""

import argparse
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True  # write nothing next to the sources
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import checks  # noqa: E402

WORKLOADS = ("sweep", "crashtest", "serve")

SWEEP_TRACES = 2
SWEEP_WORKLOADS = ("adpcm_encode", "basicmath", "blowfish", "dijkstra",
                   "picojpeg", "qsort", "stringsearch", "2dconv", "dwt",
                   "hist")
SWEEP_ARCHS = ("clank", "nvmr", "hoop")
SWEEP_POLICIES = ("jit", "watchdog")

CRASH_WORKLOADS = ("picojpeg", "qsort", "dwt")
CRASH_ARCHS = ("nvmr", "clank", "hoop")
# Every tool run forks a crash point and runs it to the program's end.
# Persist-boundary points sit in the first --max-backups backup windows,
# so their forked tails are nearly whole runs; the sampled crash cycles
# spread over the whole run, so their tails average half a run.
CRASH_DEPTH = ["--max-backups", "6", "--stride", "32", "--cycle-samples",
               "16", "--seed", "1"]

# Serve jobs are one-cell sweeps of the shortest workload, so per-job
# fixed costs weigh most; the open loop keeps the daemon about 10% busy,
# so queueing behind a burst of host contention stays rare.
SERVE_WORKLOAD = "hist"
SERVE_DRAIN_JOBS = 60
SERVE_POLL_MS = 10
SERVE_RATE_PER_S = 4.0
SERVE_SEGMENTS = 3
SERVE_DRAINS_PER_SEGMENT = 2
SERVE_RESULT_WAIT_S = 20.0

# Set-up launches per run: sweep's each run ten cells, the others' are
# cheap and noisier, so they take more samples.
SETUP_LAUNCHES = {"sweep": 5, "crashtest": 21, "serve": 21}
# A run must end within 180 s; no child of a healthy run takes a minute.
CHILD_TIMEOUT_S = 60.0

# The configuration each workload's outputs are checked under: the key
# of its entry in BASELINE.json's "expected" table.
SWEEP_CONFIG = "nvmr_sweep --traces %d --workloads %s" % (
    SWEEP_TRACES, ",".join(sorted(SWEEP_WORKLOADS)))
CRASH_CONFIG = "nvmr_crashtest -w %s -a %s %s" % (
    ",".join(sorted(CRASH_WORKLOADS)), ",".join(sorted(CRASH_ARCHS)),
    " ".join(CRASH_DEPTH))
SERVE_CONFIG = "nvmr_serve one-cell %s jobs, 1 trace" % SERVE_WORKLOAD

HERE = os.path.dirname(os.path.abspath(__file__))

END_TO_END = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "isa.assemble_ms": "ms", "power.trace_gen_ms": "ms",
    "cpu.golden_ms": "ms", "cpu.golden_share": "share",
    "sim.ctor_us": "us", "sim.run_ns_per_instr": "ns",
    "arch.clank.ns_per_instr": "ns", "arch.nvmr.ns_per_instr": "ns",
    "arch.hoop.ns_per_instr": "ns", "policy.jit.ns_per_instr": "ns",
    "policy.watchdog.ns_per_instr": "ns",
    "arch.clank.backup_cost_ns": "ns", "arch.nvmr.backup_cost_ns": "ns",
    "arch.hoop.backup_cost_ns": "ns",
    "mem.cache_ns_per_access": "ns", "core.maptable_ns_per_op": "ns",
    "core.mtc_ns_per_lookup": "ns", "core.freelist_ns_per_op": "ns",
    "mem.cache_hits": "count", "mem.cache_misses": "count",
    "mem.nvm_reads": "count", "mem.nvm_writes": "count",
    "arch.violations": "count", "core.renames": "count",
    "core.reclaims": "count", "power.backups": "count",
    "power.power_failures": "count", "power.restores": "count",
    "snapshot.capture_us": "us", "snapshot.fork_us": "us",
    "snapshot.pages": "count", "fault.fired_share": "share",
    "campaign.journal_appends": "count", "campaign.journal_bytes": "bytes",
    "campaign.journal_write_us_p50": "us",
    "campaign.journal_write_us_p99": "us", "campaign.queue_ms_p50": "ms",
    "par.tasks": "count", "par.steals": "count", "par.busy_share": "share",
    "serve.parse_us": "us", "serve.job_run_ms": "ms", "serve.wait_ms": "ms",
    "serve.deferrals": "count", "serve.resident_bytes": "bytes",
    "obs.trace_overhead_pct": "%", "loadgen.late_ms_max": "ms",
}


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, bad build)."""


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------

_children = set()


class Child:
    def __init__(self, rc, t_spawn, t_exit, maxrss_mb, out_path):
        self.rc = rc
        self.t_spawn = t_spawn
        self.t_exit = t_exit
        self.maxrss_mb = maxrss_mb
        self.out_path = out_path
        self.t_seen = None  # see run_child's `watch`

    @property
    def wall_s(self):
        return self.t_exit - self.t_spawn

    def stdout(self):
        with open(self.out_path, errors="replace") as f:
            return f.read()


def spawn(cmd, out_path, log):
    with open(out_path, "wb") as out:
        p = subprocess.Popen(cmd, stdout=out, stderr=log,
                             stdin=subprocess.DEVNULL)
    _children.add(p)
    return p


def reap(p, t_spawn, out_path):
    """Wait for p with rusage; kill it if it outlives CHILD_TIMEOUT_S."""
    timer = threading.Timer(CHILD_TIMEOUT_S, p.kill)
    timer.start()
    try:
        _, status, ru = os.wait4(p.pid, 0)
    finally:
        timer.cancel()
    t_exit = time.monotonic()
    p.returncode = os.waitstatus_to_exitcode(status)
    _children.discard(p)
    return Child(p.returncode, t_spawn, t_exit, ru.ru_maxrss / 1024.0,
                 out_path)


def exited(p):
    """Whether p has exited, leaving it for reap() to collect."""
    return os.waitid(os.P_PID, p.pid,
                     os.WEXITED | os.WNOHANG | os.WNOWAIT) is not None


def wait_for_path(p, paths, deadline):
    """Host time at which the first of `paths` exists, or None if p
    exits or the deadline passes first."""
    while time.monotonic() < deadline:
        if any(os.path.exists(path) for path in paths):
            return time.monotonic()
        if exited(p):
            return None
        time.sleep(0.00005)
    return None


def run_child(cmd, out_path, log, watch=()):
    """Run cmd to its end. With `watch`, the Child's t_seen is the host
    time at which the first of those paths appeared."""
    t0 = time.monotonic()
    p = spawn(cmd, out_path, log)
    t_seen = wait_for_path(p, watch, t0 + CHILD_TIMEOUT_S) if watch else None
    child = reap(p, t0, out_path)
    child.t_seen = t_seen
    return child


def stop_children():
    for p in list(_children):
        if p.poll() is None:
            p.kill()
        p.wait()
        _children.discard(p)


# ----------------------------------------------------------------------
# Build, build guard and host fingerprint
# ----------------------------------------------------------------------

def check_sources(root):
    for need in ("CMakeLists.txt", "src/sim/simulator.hh",
                 "tools/nvmr_sweep.cc"):
        if not os.path.exists(os.path.join(root, need)):
            raise BenchError("no nvmr sources in %s (missing %s); run from "
                             "the repository root" % (root, need))


def build(root, bdir, log):
    jobs = str(min(4, os.cpu_count() or 1))
    repo_b = os.path.join(bdir, "repo")
    probe_b = os.path.join(bdir, "probe")
    steps = []
    if not os.path.exists(os.path.join(repo_b, "CMakeCache.txt")):
        steps.append(["cmake", "-S", root, "-B", repo_b,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", repo_b, "-j", jobs, "--target",
                  "nvmr", "nvmr_sweep", "nvmr_crashtest", "nvmr_serve"])
    if not os.path.exists(os.path.join(probe_b, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(root, "perfbench", "probe"),
                      "-B", probe_b, "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                      "-DNVMR_SOURCE_DIR=" + root,
                      "-DNVMR_BUILD_DIR=" + repo_b])
    steps.append(["cmake", "--build", probe_b, "-j", jobs])
    for cmd in steps:
        log.flush()
        rc = subprocess.call(cmd, stdout=log, stderr=log,
                             stdin=subprocess.DEVNULL)
        if rc != 0:
            raise BenchError("build step failed (%s); see %s"
                             % (" ".join(cmd), log.name))
    return {
        "sweep": os.path.join(repo_b, "tools", "nvmr_sweep"),
        "crashtest": os.path.join(repo_b, "tools", "nvmr_crashtest"),
        "serve": os.path.join(repo_b, "tools", "nvmr_serve"),
        "probe": os.path.join(probe_b, "layer_probe"),
    }


def build_fingerprint(bdir):
    """Compiler and effective flags of the built library; refuses
    sanitizer and unoptimized builds."""
    repo_b = os.path.join(bdir, "repo")
    flags_make = os.path.join(repo_b, "src", "CMakeFiles", "nvmr.dir",
                              "flags.make")
    flags = ""
    with open(flags_make) as f:
        for line in f:
            if line.startswith("CXX_FLAGS"):
                flags = line.split("=", 1)[1].strip()
    compiler = ""
    with open(os.path.join(repo_b, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_CXX_COMPILER:"):
                compiler = line.split("=", 1)[1].strip()
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()[:1]
    words = flags.split()
    if any(w.startswith("-fsanitize") for w in words):
        raise BenchError("refusing a sanitizer build (%s)" % flags)
    opt = [w for w in words if w.startswith("-O")]
    if not opt or opt[-1] == "-O0":
        raise BenchError("refusing an unoptimized build (%s)" % flags)
    return {"compiler": version[0] if version else compiler,
            "cxx_flags": flags}


def _spin(n=400000):
    x = 0
    for i in range(n):
        x += i * i
    return x


def spin_probe(workers):
    """Wall seconds of a fixed spin alone and on `workers` cores at once."""
    t0 = time.perf_counter()
    _spin()
    alone = time.perf_counter() - t0
    t0 = time.perf_counter()
    pids = []
    for _ in range(workers):
        pid = os.fork()
        if pid == 0:
            _spin()
            os._exit(0)
        pids.append(pid)
    for pid in pids:
        os.waitpid(pid, 0)
    together = time.perf_counter() - t0
    return {"alone_ms": alone * 1e3, "parallel_ms": together * 1e3}


def cpu_jiffies():
    """(steal, total) jiffies of all CPUs since boot (/proc/stat)."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7], sum(fields)


def contention(before, after, steal_share):
    """A window is contended when the parallel spin ran much slower than
    the lone one, the lone spin slowed down across the run, or the
    hypervisor stole more than 5% of the CPU time."""
    reasons = []
    if steal_share > 0.05:
        reasons.append("%.0f%% of CPU time stolen" % (100 * steal_share))
    for name, s in (("before", before), ("after", after)):
        if s["parallel_ms"] > 1.6 * s["alone_ms"]:
            reasons.append("parallel spin %s the run %.0f ms vs %.0f ms alone"
                           % (name, s["parallel_ms"], s["alone_ms"]))
    if after["alone_ms"] > 1.25 * before["alone_ms"]:
        reasons.append("lone spin slowed from %.0f to %.0f ms"
                       % (before["alone_ms"], after["alone_ms"]))
    return reasons


def load_expected():
    """BASELINE.json's table of exact outputs, keyed by configuration."""
    with open(os.path.join(HERE, "BASELINE.json")) as f:
        return json.load(f)["expected"]


def expect(ctx, config, observed):
    """Count one failure per output that differs from the committed
    expectation for `config` (see checks.expected_findings)."""
    for f in checks.expected_findings(ctx.expected, config, observed):
        ctx.fail(f)


def exact_counts(layer):
    return {k: int(layer[k]) for k in checks.EXACT_COUNTS}


# ----------------------------------------------------------------------
# Telemetry helpers
# ----------------------------------------------------------------------

def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def prof_durations(prof, name):
    return [e["dur"] for e in prof["traceEvents"]
            if e.get("ph") == "X" and e.get("name") == name]


def setup_launch(ctx, cmd, d):
    """Spawn-to-first-cell seconds of one tool launch, or None if it failed.

    The launch runs with --metrics (no heartbeat) and --prof-json. The
    first `run` span is relative to the metrics registry's epoch. The
    epoch is placed on the host clock by the final snapshot, whose
    elapsed time is read just before its file is created: the host
    watches for that file (or its .tmp), so the telemetry writes and
    the process exit after it do not count.
    """
    m, p = os.path.join(d, "m.json"), os.path.join(d, "p.json")
    child = run_child(cmd + ["--metrics", m, "--metrics-interval", "3600",
                             "--prof-json", p],
                      os.path.join(d, "out.txt"), ctx.log,
                      watch=(m + ".tmp", m))
    metrics, prof = load_json(m), load_json(p)
    ctx.attempted += 1
    runs = [e["ts"] for e in (prof or {}).get("traceEvents", [])
            if e.get("ph") == "X" and e.get("name") == "run"]
    if child.rc != 0 or metrics is None or not runs or child.t_seen is None:
        ctx.fail("set-up launch %s exited %d" % (cmd[0], child.rc))
        return None
    epoch = child.t_seen - metrics["elapsed_seconds"]
    return (epoch - child.t_spawn) + min(runs) / 1e6


def campaign_layer(metrics, prof):
    c = metrics["counters"]
    busy, idle = c["par_busy_ns"], c["par_idle_ns"]
    jw = prof_durations(prof, "journal_write")
    q = prof_durations(prof, "queue")
    return {
        "campaign.journal_appends": c["journal_appends"],
        "campaign.journal_bytes": c["journal_bytes"],
        "campaign.journal_write_us_p50": checks.percentile(jw, 50) if jw else 0,
        "campaign.journal_write_us_p99": checks.percentile(jw, 99) if jw else 0,
        "campaign.queue_ms_p50": checks.median(q) / 1e3 if q else 0,
        "par.tasks": c["par_tasks"],
        "par.steals": c["par_steals"],
        "par.busy_share": busy / (busy + idle) if busy + idle else 0,
    }


def run_probe(ctx, args, tag):
    spans = os.path.join(ctx.dir, "spans-%s.json" % tag)
    out = os.path.join(ctx.dir, "probe-%s.out" % tag)
    child = run_child([ctx.bins["probe"]] + args + ["--spans", spans], out,
                      ctx.log)
    lines = child.stdout().strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if result is None:
        raise BenchError("layer probe printed nothing (exit %d)" % child.rc)
    for c in result["checks"]:
        ctx.fail("probe self-check: " + c)
    if child.rc != 0 and not result["checks"]:
        ctx.fail("layer probe exited %d" % child.rc)
    shutil.copy(spans, os.path.join(ctx.bdir, "perfbench",
                                    "spans-%s.json" % tag))
    return result


# ----------------------------------------------------------------------
# Run context
# ----------------------------------------------------------------------

class Ctx:
    def __init__(self, bdir, bins, workload, seed, seconds, log):
        self.bdir = bdir
        self.bins = bins
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.log = log
        self.rng = random.Random("%s:%d" % (workload, seed))
        self.expected = load_expected()
        self.dir = os.path.join(bdir, "perfbench", "run-%d" % os.getpid())
        self.attempted = 0
        self.failed = 0
        self.findings = []
        self.info = {}
        self.seq = 0

    def fresh(self, name):
        self.seq += 1
        path = os.path.join(self.dir, "%s-%d" % (name, self.seq))
        os.makedirs(path)
        return path

    def fail(self, what):
        self.findings.append(what)
        self.failed += 1


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------

def sweep_cmd(ctx, workloads, out_dir, extra=()):
    return [ctx.bins["sweep"], "--jobs", "1", "--traces", str(SWEEP_TRACES),
            "--workloads", ",".join(workloads),
            "--stats-json", os.path.join(out_dir, "manifest.json")] + list(extra)


def sweep_campaign(ctx, workloads, extra=()):
    """One checked nvmr_sweep campaign; returns (child, rows, manifest)."""
    d = ctx.fresh("sweep")
    cells = len(workloads) * len(SWEEP_ARCHS) * len(SWEEP_POLICIES)
    child = run_child(sweep_cmd(ctx, workloads, d, extra),
                      os.path.join(d, "out.csv"), ctx.log)
    text = child.stdout()
    rows, findings, failed = checks.check_sweep(text, cells)
    if child.rc != 0:
        findings.append("nvmr_sweep exited %d" % child.rc)
        failed = max(failed, 1)
    ctx.attempted += cells
    ctx.findings.extend(findings)
    ctx.failed += failed
    expect(ctx, SWEEP_CONFIG, {"csv_digest": checks.csv_digest(text)})
    return child, rows, load_json(os.path.join(d, "manifest.json")) or {}


def sweep_workloads(ctx):
    names = list(SWEEP_WORKLOADS)
    ctx.rng.shuffle(names)  # the seed orders the grid; work is unchanged
    return names


def sweep_setup_s(ctx, workloads):
    """Spawn to first cell, over launches that keep the full set-up
    (all workloads assembled, all traces generated) but run one arch and
    policy per workload."""
    samples = []
    for _ in range(SETUP_LAUNCHES[ctx.workload]):
        d = ctx.fresh("sweep-setup")
        samples.append(setup_launch(
            ctx, sweep_cmd(ctx, workloads, d,
                           ["--archs", "nvmr", "--policies", "jit"]), d))
    return checks.median([s for s in samples if s is not None])


def run_sweep(ctx, trace):
    workloads = sweep_workloads(ctx)
    cells = len(workloads) * len(SWEEP_ARCHS) * len(SWEEP_POLICIES)
    if trace:
        return trace_sweep(ctx, workloads)
    setup = sweep_setup_s(ctx, workloads)
    walls, rss = [], []
    t_end = time.monotonic() + ctx.seconds
    rows, manifest = [], {}
    while not walls or time.monotonic() < t_end:
        child, rows, manifest = sweep_campaign(ctx, workloads)
        walls.append(child.wall_s)
        rss.append(child.maxrss_mb)
    instr = checks.manifest_totals(manifest)["instructions"]
    wall = checks.median(walls)
    ctx.info.update({
        "campaigns": len(walls), "cells_per_campaign": cells,
        "cells_per_s": cells / wall, "sim_instr_per_s": instr / wall,
        "fig10_jit_err_pp": checks.fig10_jit_err_pp(rows),
    })
    return {
        "setup_s": setup,
        "work_per_s": cells / wall,
        "latency_p50_ms": checks.percentile(walls, 50) * 1e3,
        "latency_p90_ms": checks.percentile(walls, 90) * 1e3,
        "peak_rss_mb": checks.median(rss),
    }


def trace_sweep(ctx, workloads):
    plain, _, _ = sweep_campaign(ctx, workloads)
    d = ctx.fresh("sweep-traced")
    m, p = os.path.join(d, "m.json"), os.path.join(d, "p.json")
    traced, _, manifest = sweep_campaign(
        ctx, workloads, ["--metrics", m, "--metrics-interval", "3600",
                         "--prof-json", p])
    layer = campaign_layer(load_json(m), load_json(p))
    layer["obs.trace_overhead_pct"] = 100.0 * (traced.wall_s / plain.wall_s - 1)
    probe = run_probe(ctx, ["sweep", "--traces", str(SWEEP_TRACES),
                            "--workloads", ",".join(workloads)], "sweep")
    mismatch = checks.totals_mismatch(probe["totals"],
                                      checks.manifest_totals(manifest))
    if mismatch:
        ctx.fail("probe counts drift from the sweep manifest on "
                 + ", ".join(mismatch))
    layer.update(probe["metrics"])
    expect(ctx, SWEEP_CONFIG, exact_counts(layer))
    # serve is not in BENCHMARK.json (its latencies spread too far on a
    # shared host), so the serve layer is measured here as well.
    serve = trace_serve(ctx)
    layer.update({k: v for k, v in serve.items()
                  if k.startswith(("serve.", "loadgen."))})
    return layer


# ----------------------------------------------------------------------
# crashtest
# ----------------------------------------------------------------------

def crash_cmd(ctx, d, workloads, archs, depth, extra=()):
    return [ctx.bins["crashtest"], "-w", ",".join(workloads),
            "-a", ",".join(archs), "--jobs", "1",
            "--journal", os.path.join(d, "c.jrn")] + depth + list(extra)


def crash_archs(ctx):
    archs = list(CRASH_ARCHS)
    ctx.rng.shuffle(archs)  # the seed orders the combos; work is unchanged
    return archs


def crash_campaign(ctx, extra=()):
    d = ctx.fresh("crash")
    child = run_child(crash_cmd(ctx, d, CRASH_WORKLOADS, ctx.info["archs"],
                                CRASH_DEPTH, extra),
                      os.path.join(d, "out.txt"), ctx.log)
    points, fired, findings = checks.check_crashtest(child.stdout(), child.rc)
    ctx.attempted += max(points, 1)
    if findings:
        ctx.findings.extend(findings)
        ctx.failed += max(1, min(len(findings), max(points, 1)))
    expect(ctx, CRASH_CONFIG, {"points": points})
    return child, points, fired


def crash_setup_s(ctx):
    """Spawn to the first census cell: journal open, assembly and the
    golden run of the first workload."""
    samples = []
    for _ in range(SETUP_LAUNCHES[ctx.workload]):
        d = ctx.fresh("crash-setup")
        samples.append(setup_launch(
            ctx, crash_cmd(ctx, d, CRASH_WORKLOADS[:1], CRASH_ARCHS[:1],
                           ["--max-backups", "0", "--cycle-samples", "0"]),
            d))
    return checks.median([s for s in samples if s is not None])


def run_crashtest(ctx, trace):
    ctx.info["archs"] = crash_archs(ctx)
    if trace:
        return trace_crashtest(ctx)
    setup = crash_setup_s(ctx)
    walls, rss = [], []
    t_end = time.monotonic() + ctx.seconds
    points = 0
    while not walls or time.monotonic() < t_end:
        child, points, _ = crash_campaign(ctx)
        walls.append(child.wall_s)
        rss.append(child.maxrss_mb)
    wall = checks.median(walls)
    ctx.info.update({"campaigns": len(walls), "points_per_campaign": points,
                     "crash_points_per_s": points / wall})
    return {
        "setup_s": setup,
        "work_per_s": points / wall,
        "latency_p50_ms": checks.percentile(walls, 50) * 1e3,
        "latency_p90_ms": checks.percentile(walls, 90) * 1e3,
        "peak_rss_mb": checks.median(rss),
    }


def trace_crashtest(ctx):
    plain, _, _ = crash_campaign(ctx)
    d = ctx.fresh("crash-traced")
    m, p = os.path.join(d, "m.json"), os.path.join(d, "p.json")
    traced, points, fired = crash_campaign(
        ctx, ["--metrics", m, "--metrics-interval", "3600", "--prof-json", p])
    layer = campaign_layer(load_json(m), load_json(p))
    layer["obs.trace_overhead_pct"] = 100.0 * (traced.wall_s / plain.wall_s - 1)
    layer["fault.fired_share"] = fired / points if points else 0
    probe = run_probe(ctx, ["crashtest", "--workloads", ",".join(CRASH_WORKLOADS),
                            "--archs", ",".join(ctx.info["archs"])],
                      "crashtest")
    layer.update(probe["metrics"])
    expect(ctx, CRASH_CONFIG, exact_counts(layer))
    return layer


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------

def serve_cells():
    return [(SERVE_WORKLOAD, a, p) for a in SWEEP_ARCHS
            for p in SWEEP_POLICIES]


def job_text(cell):
    w, a, p = cell
    return json.dumps({"schema": "nvmr-job-v1", "type": "sweep",
                       "workloads": [w], "archs": [a], "policies": [p],
                       "traces": 1}) + "\n"


def drop_job(spool, name, cell):
    tmp = os.path.join(spool, "." + name + ".tmp")
    with open(tmp, "w") as f:
        f.write(job_text(cell))
    os.replace(tmp, os.path.join(spool, name + ".job"))


class Daemon:
    def __init__(self, ctx, spool, once, extra=()):
        self.state = os.path.join(spool, ".nvmr_serve")
        self.out = os.path.join(ctx.dir, "serve-%d.log" % ctx.seq)
        cmd = [ctx.bins["serve"], "--spool", spool, "--jobs", "1",
               "--poll-ms", str(SERVE_POLL_MS)] + list(extra)
        if once:
            cmd.append("--once")
        self.t_spawn = time.monotonic()
        self.proc = spawn(cmd, self.out, ctx.log)
        # Ready once it starts writing its first serve.json snapshot.
        snap = os.path.join(self.state, "serve.json")
        self.t_ready = wait_for_path(self.proc, (snap + ".tmp", snap),
                                     self.t_spawn + CHILD_TIMEOUT_S)

    def wait(self, stop=False):
        if stop and not exited(self.proc):
            self.proc.send_signal(signal.SIGTERM)
        return reap(self.proc, self.t_spawn, self.out)

    def final_state(self):
        return load_json(os.path.join(self.state, "serve.json"))

    def result(self, name, ext):
        try:
            with open(os.path.join(self.state, "out", name + ext)) as f:
                return f.read()
        except OSError:
            return None


def check_jobs(ctx, daemon, jobs, child):
    """Count each job that failed or whose CSV is not the expected one."""
    ctx.attempted += len(jobs)
    if child.rc != 0:
        ctx.fail("nvmr_serve exited %d" % child.rc)
    for f in checks.check_serve_state(daemon.final_state(), len(jobs)):
        ctx.fail(f)
    for name, cell in jobs:
        csv = daemon.result(name, ".csv")
        findings = checks.check_serve_job(csv)
        if findings:
            ctx.fail("job %s: %s" % (name, "; ".join(findings)))
            continue
        expect(ctx, SERVE_CONFIG,
               {"/".join(cell) + " csv_digest": checks.csv_digest(csv)})


def serve_setup_s(ctx):
    samples = []
    for _ in range(SETUP_LAUNCHES[ctx.workload]):
        daemon = Daemon(ctx, ctx.fresh("serve-setup"), once=True)
        child = daemon.wait()
        ctx.attempted += 1
        if child.rc != 0 or daemon.t_ready is None:
            ctx.fail("serve set-up launch exited %d" % child.rc)
            continue
        samples.append(daemon.t_ready - daemon.t_spawn)
    return checks.median(samples)


def serve_drain(ctx, extra=()):
    """Pre-filled spool of SERVE_DRAIN_JOBS jobs, every cell equally
    often in seeded order, drained with --once; returns (jobs/s, spool)."""
    spool = ctx.fresh("serve-drain")
    cells = serve_cells() * (SERVE_DRAIN_JOBS // len(serve_cells()))
    ctx.rng.shuffle(cells)
    jobs = [("d%03d" % i, c) for i, c in enumerate(cells)]
    for name, cell in jobs:
        drop_job(spool, name, cell)
    daemon = Daemon(ctx, spool, once=True, extra=extra)
    child = daemon.wait()
    check_jobs(ctx, daemon, jobs, child)
    if daemon.t_ready is None:
        return float("nan"), spool
    return len(jobs) / (child.t_exit - daemon.t_ready), spool


def serve_open_loop(ctx, seconds):
    """Poisson arrivals at SERVE_RATE_PER_S for `seconds`; each job's
    latency runs from its due time until its outputs have landed."""
    spool = ctx.fresh("serve-open")
    daemon = Daemon(ctx, spool, once=False)
    if daemon.t_ready is None:
        child = daemon.wait(stop=True)
        ctx.fail("nvmr_serve never became ready (exit %d)" % child.rc)
        return None
    cells = serve_cells()
    ctx.rng.shuffle(cells)
    due, t = [], ctx.rng.expovariate(SERVE_RATE_PER_S)
    while t < seconds:
        due.append(t)
        t += ctx.rng.expovariate(SERVE_RATE_PER_S)
    jobs = [("o%05d" % i, cells[i % len(cells)]) for i in range(len(due))]
    t0 = time.monotonic()
    pending, latency, late = {}, {}, []
    out_dir = os.path.join(daemon.state, "out")
    i = 0
    while i < len(jobs) or pending:
        now = time.monotonic()
        if i < len(jobs) and now >= t0 + due[i]:
            drop_job(spool, jobs[i][0], jobs[i][1])
            late.append(time.monotonic() - (t0 + due[i]))
            pending[jobs[i][0]] = t0 + due[i]
            i += 1
            continue
        for name in list(pending):
            if os.path.exists(os.path.join(out_dir, name + ".stats.json")):
                latency[name] = time.monotonic() - pending.pop(name)
        if i >= len(jobs) and now > t0 + seconds + SERVE_RESULT_WAIT_S:
            break
        nap = 0.002
        if i < len(jobs):
            nap = min(nap, max(0.0, t0 + due[i] - time.monotonic()))
        time.sleep(nap)
    child = daemon.wait(stop=True)
    check_jobs(ctx, daemon, jobs, child)
    return {"daemon": daemon, "child": child, "jobs": jobs,
            "latency_s": latency, "late_s": late}


def run_serve(ctx, trace):
    if trace:
        return trace_serve(ctx)
    setup = serve_setup_s(ctx)
    # Drains and open-loop stretches alternate, so both sample the whole
    # run rather than one end of it.
    rates, lat, rss = [], [], []
    for _ in range(SERVE_SEGMENTS):
        rates += [serve_drain(ctx)[0]
                  for _ in range(SERVE_DRAINS_PER_SEGMENT)]
        loop = serve_open_loop(ctx, ctx.seconds / SERVE_SEGMENTS)
        if loop:
            lat += [x * 1e3 for x in loop["latency_s"].values()]
            rss.append(loop["child"].maxrss_mb)
    ctx.info.update({"jobs_per_s": checks.median(rates),
                     "latency_samples": len(lat),
                     "rate_per_s": SERVE_RATE_PER_S,
                     "poll_ms": SERVE_POLL_MS})
    return {
        "setup_s": setup,
        "work_per_s": checks.median(rates),
        "latency_p50_ms": checks.percentile(lat, 50),
        "latency_p90_ms": checks.percentile(lat, 90),
        "peak_rss_mb": checks.median(rss) if rss else float("nan"),
    }


def trace_serve(ctx):
    plain, _ = serve_drain(ctx, ["--no-job-metrics"])
    traced, spool = serve_drain(ctx)
    layer = {"obs.trace_overhead_pct": 100.0 * (plain / traced - 1)}
    loop = serve_open_loop(ctx, max(2.0, ctx.seconds / 2))
    if loop:
        runs, waits, totals = [], [], {}
        lat = loop["latency_s"]
        jw50, jw99, q50 = [], [], []
        for name, _ in loop["jobs"]:
            m = load_json(os.path.join(loop["daemon"].state, "out",
                                       name + ".metrics.json"))
            if m is None:
                continue
            runs.append(m["elapsed_seconds"] * 1e3)
            if name in lat:
                waits.append(lat[name] * 1e3 - runs[-1])
            for k in ("journal_appends", "journal_bytes", "par_tasks",
                      "par_steals", "par_busy_ns", "par_idle_ns"):
                totals[k] = totals.get(k, 0) + m["counters"][k]
            phases = {ph["name"]: ph for ph in m["phases"]}
            jw50.append(phases["journal_write"]["p50_ns"] / 1e3)
            jw99.append(phases["journal_write"]["p99_ns"] / 1e3)
            q50.append(phases["queue"]["p50_ns"] / 1e6)
        state = loop["daemon"].final_state() or {}
        busy = totals.get("par_busy_ns", 0) + totals.get("par_idle_ns", 0)
        layer.update({
            "serve.job_run_ms": checks.median(runs) if runs else 0,
            "serve.wait_ms": checks.median(waits) if waits else 0,
            "serve.deferrals": state.get("deferrals", 0),
            "serve.resident_bytes": state.get("resident_bytes", 0),
            "loadgen.late_ms_max": max(loop["late_s"]) * 1e3,
            "campaign.journal_appends": totals.get("journal_appends", 0),
            "campaign.journal_bytes": totals.get("journal_bytes", 0),
            "campaign.journal_write_us_p50": checks.median(jw50) if jw50 else 0,
            "campaign.journal_write_us_p99": checks.median(jw99) if jw99 else 0,
            "campaign.queue_ms_p50": checks.median(q50) if q50 else 0,
            "par.tasks": totals.get("par_tasks", 0),
            "par.steals": totals.get("par_steals", 0),
            "par.busy_share": totals.get("par_busy_ns", 0) / busy if busy else 0,
        })
    probe = run_probe(ctx, ["serve", "--job-dir", spool, "--traces", "1"],
                      "serve")
    layer.update(probe["metrics"])
    return layer


RUNNERS = {"sweep": run_sweep, "crashtest": run_crashtest, "serve": run_serve}


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------

def measure(bdir, bins, fingerprint, workload, seed, seconds, trace, log):
    ctx = Ctx(bdir, bins, workload, seed, seconds, log)
    os.makedirs(ctx.dir)
    workers = min(4, os.cpu_count() or 1)
    try:
        before = spin_probe(workers)
        steal0, total0 = cpu_jiffies()
        values = RUNNERS[workload](ctx, trace)
        steal1, total1 = cpu_jiffies()
        after = spin_probe(workers)
    finally:
        stop_children()
        shutil.rmtree(ctx.dir, ignore_errors=True)
    steal_share = (steal1 - steal0) / max(1, total1 - total0)
    names = PER_LAYER if trace else END_TO_END
    metrics = {}
    for name, unit in names.items():
        # A layer the workload leaves idle reads 0 on the per-layer list.
        value = float(values.get(name, 0.0))
        if value != value:
            ctx.fail("metric %s could not be measured" % name)
            value = 0.0  # keep the result line valid JSON
        metrics[name] = {"value": value, "unit": unit}
    record = {
        "schema": "perfbench-record-v1", "workload": workload, "seed": seed,
        "seconds": seconds, "trace": trace,
        "host": dict(fingerprint, nproc=os.cpu_count()),
        "spin": {"before": before, "after": after},
        "steal_share": steal_share,
        "contended": contention(before, after, steal_share),
        "info": ctx.info, "findings": ctx.findings[:20],
        "metrics": {k: v["value"] for k, v in metrics.items()},
    }
    with open(os.path.join(bdir, "perfbench", "records.jsonl"), "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
    return ctx, metrics, record


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true",
                    help="run every workload, untraced then traced")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.all and not args.workload:
        ap.error("give --workload or --all")

    root = os.getcwd()
    bdir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        check_sources(root)
        os.makedirs(os.path.join(bdir, "perfbench"), exist_ok=True)
        with open(os.path.join(bdir, "perfbench", "build.log"), "a") as blog:
            bins = build(root, bdir, blog)
            fingerprint = build_fingerprint(bdir)
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2

    plan = ([(w, t) for w in WORKLOADS for t in (0, 1)] if args.all
            else [(args.workload, args.trace)])
    attempted = failed = 0
    merged = {}
    with open(os.path.join(bdir, "perfbench", "tools.log"), "a") as log:
        for workload, trace in plan:
            try:
                ctx, metrics, record = measure(bdir, bins, fingerprint,
                                               workload, args.seed,
                                               args.seconds, trace, log)
            except BenchError as e:
                print("perfbench: %s" % e, file=sys.stderr)
                return 2
            for f in ctx.findings[:20]:
                print("FAIL %s: %s" % (workload, f))
            for name, m in metrics.items():
                print("%-10s %-32s %16.6g %s"
                      % (workload, name, m["value"], m["unit"]))
            for k, v in sorted(ctx.info.items()):
                print("%-10s %-32s %16s" % (workload, "info." + k, v))
            if record["contended"]:
                print("%-10s contended: %s"
                      % (workload, "; ".join(record["contended"])))
            attempted += ctx.attempted
            failed += ctx.failed
            for name, m in metrics.items():
                merged[name if not args.all else workload + "/" + name] = m
    result = {"correct": failed == 0, "attempted": max(attempted, 1),
              "failed": failed, "metrics": merged}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
