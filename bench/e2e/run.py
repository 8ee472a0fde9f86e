#!/usr/bin/env python3
"""End-to-end benchmark: color_server latency and throughput, offline JPL
throughput, and a traced per-layer breakdown (see README.md).

  python3 bench/e2e/run.py --workload NAME|all --seed N [--seconds S]
                           [--trace 0|1] [--out FILE]
  python3 bench/e2e/run.py --smoke
  python3 bench/e2e/run.py compare BASE NEW

A run builds the programs into .bench_build/ (CMake, Release), makes the
workload's inputs from --seed, measures for --seconds, checks every
coloring, prints each metric by name with its unit, and prints as its
last line one JSON object: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
its per-layer metrics (the run then also replays jobs in-process with a
span around every layer call). `compare` applies BENCHMARK.json's bounds
to two sets of --out files. Exits non-zero on any failed check.
"""

import argparse
import glob
import json
import math
import os
import random
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
BUILD = ".bench_build"                      # relative to ROOT
WORK = os.path.join(BUILD, "e2e")
SOCKET = os.path.join(WORK, "svc.sock")    # relative: AF_UNIX paths are short
TARGETS = ["color_server", "e2e_loadgen", "e2e_inproc"]

SUITE = ["ecology-like", "circuit-like", "road-like", "rgg-like",
         "coauthor-like", "er-like", "citation-like", "kron-like"]
# Server shape for a 4-core machine: 2 dispatchers x 2 threads per job.
SERVER_ARGS = ["--dispatchers", "2", "--threads-per-job", "2",
               "--queue", "256", "--shard-workers", "0"]
CLOSED_CONNECTIONS = 4
SETUPS = 3            # set-ups per run; setup_s is their median
OPEN_SHARE = 0.6      # share of --seconds spent in the open-loop phase
TRACE_JOBS = 64       # jobs replayed in-process by a traced svc run
WARM_BLOCKS = 4       # untimed closed-loop blocks (every graph once) first

WORKLOADS = {
    # Default service traffic: every suite graph, steal, natural order.
    "svc-steal-mix": dict(kind="svc", scale=1.0, graph_seeds=[1],
                          store=False, algorithm="steal", order="natural",
                          rate=12.0, cache_graphs=16),
    # Reorder + validation dominate; graphs served mmap'd from .gbin v2.
    "svc-reorder-mapped": dict(kind="svc", scale=1.0, graph_seeds=[1],
                               store=True, algorithm="speculative",
                               order="degree-desc", rate=20.0,
                               cache_graphs=16),
    # 16 files through a 4-entry registry: most jobs evict and open.
    "svc-cold-churn": dict(kind="svc", scale=1.0, graph_seeds=[1, 2],
                           store=True, algorithm="speculative",
                           order="natural", rate=None, cache_graphs=4),
    # The offline user: in-process JPL on one ThreadPool(4), CSR > L2.
    "batch-jpl": dict(kind="batch", scale=4.0, graph_seeds=[1],
                      algorithm="jpl", order="natural", threads=4),
}
# The two graphs every workload runs (batch-jpl only these): skewed with
# hub passes, and uniform without.
PER_GRAPH = ["kron-like", "er-like"]


class BenchError(Exception):
    pass


# --------------------------------------------------------------------- stats

def pct(values, p):
    """p-th percentile, linear interpolation between closest ranks."""
    v = sorted(values)
    if not v:
        raise BenchError("no samples")
    if len(v) == 1:
        return v[0]
    return statistics.quantiles(v, n=100, method="inclusive")[p - 1]


def ratio(num, den):
    return num / den if den else 0.0


def iqr_share(values):
    """Distance between the first and third quartile over the median."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return ratio(q[2] - q[0], statistics.median(values))


# ------------------------------------------------------------ build & procs

def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    os.makedirs(WORK, exist_ok=True)
    build_log = os.path.join(WORK, "build.log")
    with open(build_log, "w") as out:
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", ".", "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release",
                          "-DGCGPU_CHECK_HEADERS=OFF",
                          "-DCMAKE_PROJECT_gcgpu_INCLUDE=" +
                          os.path.join(HERE, "inject.cmake")])
        steps.append(["cmake", "--build", BUILD, "-j",
                      str(os.cpu_count() or 1), "--target"] + TARGETS)
        for cmd in steps:
            if subprocess.call(cmd, stdout=out, stderr=subprocess.STDOUT):
                with open(build_log) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError("build failed: " + " ".join(cmd))


def binary(name):
    return os.path.join(BUILD, "examples" if name == "color_server" else "",
                        name)


def run_lines(cmd, timeout):
    """Runs a benchmark program; returns its stdout JSON lines."""
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=timeout,
                          text=True)
    if proc.returncode:
        raise BenchError(f"{cmd[0]} exited with {proc.returncode}")
    return [json.loads(line) for line in proc.stdout.splitlines() if line]


def rpc(request, timeout=30.0):
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
        s.settimeout(timeout)
        s.connect(SOCKET)
        s.sendall((json.dumps(request) + "\n").encode())
        buf = b""
        while not buf.endswith(b"\n"):
            chunk = s.recv(65536)
            if not chunk:
                raise BenchError("server closed the connection")
            buf += chunk
    return json.loads(buf)


class Server:
    """A color_server process; ready once every preload is resident."""

    def __init__(self, cache_graphs, preload):
        self.log = open(os.path.join(WORK, "server.log"), "w")
        cmd = [binary("color_server"), "--socket", SOCKET,
               "--cache-graphs", str(cache_graphs)] + SERVER_ARGS
        if preload:
            cmd += ["--preload", ",".join(preload)]
        self.proc = subprocess.Popen(cmd, stdout=self.log,
                                     stderr=subprocess.STDOUT)

    def wait_ready(self, preload):
        deadline = time.monotonic() + 120.0
        while True:
            if self.proc.poll() is not None:
                raise BenchError("color_server exited during start-up")
            if time.monotonic() > deadline:
                raise BenchError("color_server start-up timed out")
            try:
                stats = rpc({"op": "stats"})
                if stats["registry"]["entries"] >= len(preload):
                    return
            except OSError:
                pass
            time.sleep(0.002)

    def peak_rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for color_server")

    def stop(self):
        if self.proc.poll() is None:
            try:
                rpc({"op": "shutdown"}, timeout=5.0)
                self.proc.wait(timeout=30.0)
            except (OSError, subprocess.TimeoutExpired, BenchError):
                self.proc.kill()
                self.proc.wait()
        self.log.close()


# ----------------------------------------------------------------- schedule

def write_schedule(path, jobs):
    with open(path, "w") as f:
        for due, name, spec, algorithm, order, seed in jobs:
            f.write(f"{due:.3f}\t{name}\t{spec}\t{algorithm}\t{order}\t"
                    f"{seed}\n")


def make_jobs(rng, graphs, w, count, rate=None, shuffle=True):
    """`count` jobs in blocks holding every graph once (shuffled per block
    unless `shuffle` is off), with Poisson arrival times at `rate`/s.
    Job seeds stay below 2**63: submit rejects larger ones."""
    jobs, due = [], 0.0
    while len(jobs) < count:
        block = list(graphs)
        if shuffle:
            rng.shuffle(block)
        for name, spec in block:
            if rate:
                due += rng.expovariate(rate) * 1000.0
            jobs.append((due, name, spec, w["algorithm"], w["order"],
                         rng.randrange(1, 2 ** 63)))
    return jobs[:count]


def gen_spec(name, scale, seed):
    return f"gen:{name}?scale={scale:g}&seed={seed}"


# ---------------------------------------------------------------- workloads

def job_ok(rec):
    reply = rec["reply"]
    return (reply.get("ok") is True and reply.get("status") == "done"
            and reply.get("result", {}).get("verified") is True)


def loadgen(schedule, mode, seconds, connections, out, block=1):
    cmd = [binary("e2e_loadgen"), "--socket", SOCKET, "--schedule", schedule,
           "--mode", mode, "--seconds", str(seconds), "--connections",
           str(connections), "--block", str(block), "--out", out]
    if subprocess.call(cmd, timeout=seconds + 120):
        raise BenchError(f"e2e_loadgen --mode {mode} failed")
    with open(out) as f:
        return [json.loads(line) for line in f if line.strip()]


def replay_layers(lines, validate_ms):
    """Per-layer metrics from the in-process replay's job/speedup lines."""
    jobs = [x for x in lines if x["kind"] == "job"]
    total = sum(j["job_ms"] for j in jobs)

    def share(span):
        return ratio(sum(j["spans"].get(span, 0.0) for j in jobs), total)

    def runs(name=None):
        return [j["run"] for j in jobs if name in (None, j["name"])]

    m = {
        "store.open_share": share("registry.acquire"),
        "check.validate_share": share("check.validate_csr"),
        "graph.make_order_share": share("graph.make_order"),
        "graph.apply_order_share": share("graph.apply_order"),
        "par.share": share("par.run_par_coloring"),
        "job.unattributed_share": ratio(
            sum(j["job_ms"] - sum(j["spans"].values()) for j in jobs), total),
        "check.validate_ms_p50": pct(validate_ms, 50),
        "check.verify_ms_p50": pct(
            [j["spans"]["check.verify_coloring"] for j in jobs], 50),
        "par.run_ms_p50": pct([r["wall_ms"] for r in runs()], 50),
    }
    for g in PER_GRAPH:
        rs = runs(g)
        if not rs:
            raise BenchError(f"replay ran no {g} job")
        m[f"par.run_ms.{g}"] = pct([r["wall_ms"] for r in rs], 50)
        m[f"par.rounds.{g}"] = pct([r["iterations"] for r in rs], 50)
        m[f"par.ms_per_round.{g}"] = pct(
            [r["wall_ms"] / max(r["iterations"], 1) for r in rs], 50)
        m[f"par.hub_passes.{g}"] = pct([r["hub_vertices"] for r in rs], 50)
    m["par.utilization"] = ratio(
        sum(sum(r["busy_ms"]) for r in runs()),
        sum(r["threads"] * r["wall_ms"] for r in runs()))
    m["par.busy_max_over_mean"] = pct(
        [ratio(max(r["busy_ms"]), statistics.mean(r["busy_ms"]))
         for r in runs()], 50)
    m["par.steal_hit_ratio"] = ratio(
        sum(r["steal_hits"] for r in runs()),
        sum(r["steal_attempts"] for r in runs()))
    speedups = [x for x in lines if x["kind"] == "speedup"]
    m["par.speedup_4t_vs_1t"] = statistics.geometric_mean(
        [x["ms_1t"] / x["ms_4t"] for x in speedups])
    return m


def replay_checks(lines, algorithm):
    """Failures in replay output: unverified jobs, and JPL colorings that
    differ between 1 and 4 threads (JPL is deterministic per seed)."""
    failed = sum(1 for x in lines if x["kind"] in ("job", "warmup")
                 and not x["verified"])
    if algorithm == "jpl":
        failed += sum(1 for x in lines
                      if x["kind"] == "speedup" and not x["identical"])
    attempted = sum(1 for x in lines
                    if x["kind"] in ("job", "warmup", "speedup"))
    return attempted, failed


def run_svc(name, w, seed, seconds, trace, scale, setups, trace_jobs):
    rng = random.Random(seed)
    graphs, packs = [], []
    for gseed in w["graph_seeds"]:
        for g in SUITE:
            spec = gen_spec(g, scale, gseed)
            if w["store"]:
                path = os.path.join(WORK, f"{g}-s{gseed}.gbin")
                packs.append((spec, path))
                graphs.append((g, path))
            else:
                graphs.append((g, spec))
    if not w["store"]:     # arcs for throughput_arcs_s, off the clock
        info = run_lines([binary("e2e_inproc"), "graphs", "--specs",
                          ",".join(s for _, s in graphs)], 300)
        arcs = {x["spec"]: x["arcs"] for x in info}

    open_s = seconds * OPEN_SHARE if w["rate"] else 0.0
    closed_s = seconds - open_s
    warm = make_jobs(rng, graphs, w, len(graphs) * WARM_BLOCKS, shuffle=False)
    opened = make_jobs(rng, graphs, w, int(w["rate"] * open_s * 2) + 64,
                       rate=w["rate"]) if w["rate"] else []
    closed = make_jobs(rng, graphs, w, len(graphs) * (25 * int(closed_s) + 8))
    files = {}
    for phase, jobs in (("warm", warm), ("open", opened), ("closed", closed)):
        if jobs:
            files[phase] = os.path.join(WORK, f"{phase}.tsv")
            write_schedule(files[phase], jobs)

    setup_s, pack_share, server = [], 0.0, None
    preload = [s for _, s in graphs] if w["cache_graphs"] >= len(graphs) else []
    try:
        for k in range(setups):
            t0 = time.monotonic()
            if packs:
                info = run_lines([binary("e2e_inproc"), "graphs", "--specs",
                                  ",".join(s for s, _ in packs), "--paths",
                                  ",".join(p for _, p in packs)], 300)
                arcs = {x["path"]: x["arcs"] for x in info}
                write_s = sum(x["write_ms"] for x in info) / 1000.0
            server = Server(w["cache_graphs"], preload)
            server.wait_ready(preload)
            setup_s.append(time.monotonic() - t0)
            if packs:
                pack_share = write_s / setup_s[-1]
            if k + 1 < setups:
                server.stop()

        # Warm-up under full load: a server started and first driven one
        # job at a time can keep every thread on one CPU through a light
        # open loop, which then runs about half as fast.
        warm_recs = loadgen(files["warm"], "closed", 600, CLOSED_CONNECTIONS,
                            os.path.join(WORK, "warm.jsonl"))
        open_recs = loadgen(files["open"], "open", open_s, 2,
                            os.path.join(WORK, "open.jsonl")) if opened else []
        # Whole blocks, so every closed-loop phase colors the same graph mix.
        closed_recs = loadgen(files["closed"], "closed", closed_s,
                              CLOSED_CONNECTIONS,
                              os.path.join(WORK, "closed.jsonl"),
                              block=len(graphs))
        stats = rpc({"op": "stats"})
        rss_mb = server.peak_rss_mb()
    finally:
        if server:
            server.stop()

    timed = open_recs + closed_recs
    records = warm_recs + timed
    attempted = len(records)
    failed = sum(1 for r in records if not job_ok(r))
    ok_timed = [r for r in timed if job_ok(r)]

    # Latency: open loop from the due time; closed loop (churn) as seen by
    # the client. The median is taken per graph, then averaged over graphs:
    # the eight graphs' latencies form separate clusters, and a pooled
    # median would sit in the gap between two of them.
    if w["rate"]:
        measured = [(r, r["ack_ms"] - r["due_ms"] +
                     r["reply"]["result"]["latency_ms"])
                    for r in open_recs if job_ok(r)]
    else:
        measured = [(r, r["done_ms"] - r["send_ms"])
                    for r in closed_recs if job_ok(r)]
    lat = [ms for _, ms in measured]
    lat_by_graph = {}
    for r, ms in measured:
        lat_by_graph.setdefault(r["name"], []).append(ms)
    done = [r for r in closed_recs if job_ok(r)]
    elapsed_s = (max(r["done_ms"] for r in closed_recs) -
                 min(r["send_ms"] for r in closed_recs)) / 1000.0
    colors = {}
    for r in ok_timed:
        colors.setdefault(r["name"], []).append(
            r["reply"]["result"]["num_colors"])
    e2e = {
        "latency_p50_ms": statistics.geometric_mean(
            pct(v, 50) for v in lat_by_graph.values()),
        "latency_p95_ms": pct(lat, 95),
        "throughput_jobs_s": len(done) / elapsed_s,
        "throughput_arcs_s": sum(arcs[closed[r["index"]][2]]
                                 for r in done) / elapsed_s,
        "colors_mean": statistics.mean(
            statistics.mean(c) for c in colors.values()),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": rss_mb,
    }
    if not trace:
        return e2e, None, attempted, failed

    results = [r["reply"]["result"] for r in ok_timed]
    lat_sum = sum(x["latency_ms"] for x in results)
    reg = stats["registry"]
    layers = {
        "svc.queue_share": ratio(sum(x["queue_ms"] for x in results), lat_sum),
        "svc.other_share": ratio(
            sum(x["latency_ms"] - x["queue_ms"] - x["run_ms"]
                for x in results), lat_sum),
        "svc.batched_share": ratio(stats["batched_jobs"], stats["completed"]),
        "svc.registry_hit_ratio": ratio(reg["hits"],
                                        reg["hits"] + reg["misses"]),
        "svc.registry_evictions": reg["evictions"],
        "store.pack_share": pack_share,
        "bench.send_lag_p99_ms": pct([r["send_ms"] - r["due_ms"]
                                      for r in timed], 99),
        "bench.samples": len(lat),
    }
    replay = os.path.join(WORK, "replay.tsv")
    write_schedule(replay, opened or closed)
    lines = run_lines([binary("e2e_inproc"), "replay", "--schedule", replay,
                       "--threads", "2", "--jobs", str(trace_jobs),
                       "--cache-graphs", str(w["cache_graphs"]),
                       "--setups", "1" if preload else "0",
                       "--validate-each", "--speedup", "--trace-out",
                       os.path.join(WORK, f"trace-{name}.json")], 600)
    jobs = [x for x in lines if x["kind"] == "job"]
    layers.update(replay_layers(
        lines, [j["spans"]["check.validate_csr"] for j in jobs]))
    more_attempted, more_failed = replay_checks(lines, w["algorithm"])
    return e2e, layers, attempted + more_attempted, failed + more_failed


def run_batch(name, w, seed, seconds, trace, scale, setups):
    rng = random.Random(seed)
    graphs = [(g, gen_spec(g, scale, w["graph_seeds"][0])) for g in PER_GRAPH]
    schedule = os.path.join(WORK, "batch.tsv")
    write_schedule(schedule, make_jobs(rng, graphs, w, 4096, shuffle=False))
    cmd = [binary("e2e_inproc"), "replay", "--schedule", schedule,
           "--threads", str(w["threads"]), "--setups", str(setups),
           "--warmup", "--seconds", str(seconds)]
    if trace:
        cmd += ["--speedup", "--trace-out",
                os.path.join(WORK, f"trace-{name}.json")]
    lines = run_lines(cmd, seconds + 600)
    attempted, failed = replay_checks(lines, w["algorithm"])

    jobs = [x for x in lines if x["kind"] == "job"]
    per = {g: [j for j in jobs if j["name"] == g] for g in PER_GRAPH}
    if any(not js for js in per.values()):
        raise BenchError("batch run colored too few jobs")
    call = {g: [j["spans"]["par.run_par_coloring"] for j in js]
            for g, js in per.items()}
    setup = [x for x in lines if x["kind"] == "setup"]
    rss = [x for x in lines if x["kind"] == "rss"][0]
    e2e = {
        "latency_p50_ms": statistics.geometric_mean(
            pct(c, 50) for c in call.values()),
        "latency_p95_ms": statistics.geometric_mean(
            pct(c, 95) for c in call.values()),
        "throughput_jobs_s": len(jobs) / (sum(sum(c) for c in call.values())
                                          / 1000.0),
        "throughput_arcs_s": statistics.geometric_mean(
            per[g][0]["arcs"] / (pct(c, 50) / 1000.0)
            for g, c in call.items()),
        "colors_mean": statistics.mean(
            statistics.mean(j["run"]["num_colors"] for j in js)
            for js in per.values()),
        "setup_s": statistics.median(x["ms"] for x in setup) / 1000.0,
        "peak_rss_mb": rss["max_rss_kb"] / 1024.0,
    }
    if not trace:
        return e2e, None, attempted, failed
    layers = {     # no service in this workload's path
        "svc.queue_share": 0.0, "svc.other_share": 0.0,
        "svc.batched_share": 0.0, "svc.registry_hit_ratio": 0.0,
        "svc.registry_evictions": 0, "store.pack_share": 0.0,
        "bench.send_lag_p99_ms": pct([j["gap_ms"] for j in jobs], 99),
        "bench.samples": len(jobs),
    }
    layers.update(replay_layers(
        lines, [v for x in setup for v in x["validate_ms"]]))
    return e2e, layers, attempted, failed


# --------------------------------------------------------------------- main

def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_workload(name, seed, seconds, trace, smoke=False):
    w = WORKLOADS[name]
    scale = 0.05 if smoke else w["scale"]
    setups = 1 if smoke else SETUPS
    trace_jobs = 16 if smoke else TRACE_JOBS
    if w["kind"] == "batch":
        return run_batch(name, w, seed, seconds, trace, scale, setups)
    return run_svc(name, w, seed, seconds, trace, scale, setups, trace_jobs)


def result_object(spec, section, values, attempted, failed):
    """The result object of the last output line; checks every metric is
    present and finite."""
    metrics, correct = {}, failed == 0
    for m in spec[section]:
        v = values.get(m["name"])
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            log(f"metric {m['name']} missing or not finite: {v!r}")
            correct = False
            continue
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    extra = set(values) - {m["name"] for m in spec[section]}
    if extra:
        log(f"metrics not in BENCHMARK.json: {sorted(extra)}")
        correct = False
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def print_metrics(name, result):
    for metric, v in result["metrics"].items():
        print(f"{name:20s} {metric:32s} {v['value']:14.6g} {v['unit']}")


def main_run(args):
    spec = load_spec()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        raise BenchError(f"unknown workload; choose from {list(WORKLOADS)}")
    seconds = args.seconds or spec["run_seconds"]
    section = "per_layer" if args.trace else "end_to_end"
    build()
    results = {}
    for name in names:
        e2e, layers, attempted, failed = run_workload(
            name, args.seed, seconds, args.trace)
        results[name] = result_object(spec, section,
                                      layers if args.trace else e2e,
                                      attempted, failed)
        print_metrics(name, results[name])
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1, sort_keys=True)
            f.write("\n")
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{m}": v for n, r in results.items()
                             for m, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


def main_smoke():
    """Every workload at scale 0.05 for 3 s, traced, with schema checks."""
    spec = load_spec()
    build()
    t0, ok = time.monotonic(), True
    for name in WORKLOADS:
        e2e, layers, attempted, failed = run_workload(name, 1, 3, True,
                                                      smoke=True)
        for section, values in (("end_to_end", e2e), ("per_layer", layers)):
            res = result_object(spec, section, values, attempted, failed)
            print_metrics(name, res)
            ok = ok and res["correct"]
    print(f"smoke {'passed' if ok else 'FAILED'} in "
          f"{time.monotonic() - t0:.1f} s")
    return 0 if ok else 1


# ------------------------------------------------------------------ compare

def load_runs(path):
    files = (sorted(glob.glob(os.path.join(path, "*.json")))
             if os.path.isdir(path) else [path])
    if not files:
        raise BenchError(f"no result files in {path}")
    runs = []
    for fn in files:
        with open(fn) as f:
            runs.append(json.load(f))
    return runs


def compare(spec, base_runs, new_runs, out=sys.stdout):
    """Per-workload, per-metric verdicts; returns True if NEW regressed.

    A metric regresses when NEW's median is worse than BASE's by more than
    its bound. When either side's run-to-run spread (IQR over median)
    exceeds the bound the metric is `unresolved` instead, unless every NEW
    run beats every BASE run. A higher error ratio always regresses."""
    regressed = False
    workloads = sorted(set().union(*base_runs) & set().union(*new_runs))
    print(f"{'workload':20s} {'metric':20s} {'base':>12s} {'new':>12s} "
          f"{'new/base':>9s} {'spread':>7s} {'bound':>6s}  verdict", file=out)
    for w in workloads:
        base = [r[w] for r in base_runs if w in r]
        new = [r[w] for r in new_runs if w in r]

        def err(rs):
            return ratio(sum(r["failed"] for r in rs),
                         sum(r["attempted"] for r in rs))
        bad = err(new) > err(base) or not all(r["correct"] for r in new)
        regressed |= bad
        print(f"{w:20s} {'error_ratio':20s} {err(base):12.4g} "
              f"{err(new):12.4g} {'':>9s} {'':>7s} {'0':>6s}  "
              f"{'regression' if bad else 'within'}", file=out)
        for m in spec["end_to_end"]:
            bv = [r["metrics"][m["name"]]["value"] for r in base
                  if m["name"] in r["metrics"]]
            nv = [r["metrics"][m["name"]]["value"] for r in new
                  if m["name"] in r["metrics"]]
            if not bv or not nv:
                continue
            bm, nm = statistics.median(bv), statistics.median(nv)
            lower = m["better"] == "lower"
            worse = ratio(nm - bm if lower else bm - nm, bm)
            spread = max(iqr_share(bv), iqr_share(nv))
            all_better = (max(nv) < min(bv)) if lower else (min(nv) > max(bv))
            if spread > m["bound"]:
                verdict = "better" if all_better else "unresolved"
            elif worse > m["bound"]:
                verdict = "regression"
            elif -worse > m["bound"]:
                verdict = "better"
            else:
                verdict = "within"
            regressed |= verdict == "regression"
            print(f"{w:20s} {m['name']:20s} {bm:12.4g} {nm:12.4g} "
                  f"{ratio(nm, bm):9.3f} {spread:7.3f} {m['bound']:6.2f}  "
                  f"{verdict}", file=out)
    return regressed


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        ap = argparse.ArgumentParser(prog="run.py compare")
        ap.add_argument("base")
        ap.add_argument("new")
        args = ap.parse_args(sys.argv[2:])
        base, new = load_runs(args.base), load_runs(args.new)
        os.chdir(ROOT)
        return 1 if compare(load_spec(), base, new) else 0
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", default=None)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if args.out:
        args.out = os.path.abspath(args.out)
    os.chdir(ROOT)
    return main_smoke() if args.smoke else main_run(args)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, subprocess.SubprocessError,
            json.JSONDecodeError, KeyError) as e:
        log(f"run.py: {e}")
        sys.exit(1)
