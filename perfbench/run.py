#!/usr/bin/env python3
"""dvpd benchmark driver (see perfbench/README.md).

    python3 perfbench/run.py --workload wire_wide --seed 1 --seconds 10 --trace 0

Builds dvpd and pbtool from the checkout (Release, cached under
$CARGO_TARGET_DIR or .bench_build), generates seeded NoBench input,
runs one workload against dvpd over TCP and prints one JSON line:
{"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones.
"""

import argparse
import bisect
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Fixed settings (README.md "Fixed settings").
DOCS = 50000              # documents LOADed into dvpd
# Documents INSERTed: concurrently with the reads on ingest_durable, as
# a burst after the read window in traced wire_* runs.
INSERT_DOCS = {"ingest_durable": 48000}
BURST_DOCS = 16000
INSERT_BATCH = 20         # documents per INSERT statement
CONNECTIONS = 2           # read connections for the wire_* workloads
DVPD_FLAGS = ["--workers", "2", "--threads", "2"]
DURABLE_FLAGS = ["--allow-insert", "--fsync", "always",
                 "--checkpoint-wal-mb", "8"]
SETUPS = 3                # dvpd launches per run (see setup_s)
RESTARTS = 3              # kill -9 restarts per traced run (restart_s)
REPLAY_PASSES = 3         # in-process replay passes (traced runs)
PROBE_LOADS = 2           # in-process LOADs timed (traced runs)
PROBE_INSERT_DOCS = 8000  # documents through the in-process write path

WORKLOADS = ("wire_wide", "wire_narrow", "ingest_durable")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def fail(msg):
    log("perfbench: " + msg)
    sys.exit(1)


# ---------------------------------------------------------------------
# Statistics (self-tested in test_perfbench.py).
# ---------------------------------------------------------------------

def percentile(values, p):
    """Nearest-rank percentile: the smallest value with at least p% of
    the samples at or below it."""
    if not values:
        raise ValueError("no samples")
    s = sorted(values)
    rank = max(1, -(-len(s) * p // 100))  # ceil(n * p / 100)
    return s[int(rank) - 1]


def samples_beyond(n, p):
    """Samples strictly above the nearest-rank p-th percentile."""
    return n - max(1, -(-n * p // 100))


def self_times(spans):
    """Self time per span: its duration minus the union of its
    children's intervals, clipped to it.  spans are
    [name, start, end, parent, request] lists; returns a list of
    (name, self) in span order."""
    children = {}
    for i, sp in enumerate(spans):
        if sp[3] >= 0:
            children.setdefault(sp[3], []).append(i)
    out = []
    for i, (name, start, end, _parent, _req) in enumerate(spans):
        covered, cur_s, cur_e = 0.0, None, None
        for s, e in sorted((max(spans[c][1], start), min(spans[c][2], end))
                           for c in children.get(i, [])):
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append((name, (end - start) - covered))
    return out


def median(values):
    return statistics.median(values) if values else 0.0


CLEAN_STEAL_PCT = 3.0     # pbtool.cc kCleanStealPct


def least_stolen(samples):
    """The samples (tuples whose last item is a steal %) taken while
    the host stole under CLEAN_STEAL_PCT of the CPU; when those are
    fewer than a third, the least-stolen third instead."""
    clean = [x for x in samples if x[-1] < CLEAN_STEAL_PCT]
    if 3 * len(clean) >= len(samples):
        return clean
    return sorted(samples, key=lambda x: x[-1])[:max(1, len(samples) // 3)]


def clean_reads(window):
    """Latencies of the reads that completed in the least-stolen
    250 ms slices of a timed window, and the seconds those slices
    cover.  pbtool keeps a window open until it holds --seconds of
    slices under CLEAN_STEAL_PCT, or for 1.25 times --seconds."""
    slices = sorted(least_stolen(window["steal"]))
    starts = [a for a, _, _ in slices]
    keep = []
    for lat, done in zip(window["latency_ms"], window["done_ms"]):
        i = bisect.bisect_right(starts, done) - 1
        if i >= 0 and done <= slices[i][1]:
            keep.append(lat)
    return keep, sum(b - a for a, b, _ in slices) / 1e3


def clean_median(samples):
    """Median value of the least-stolen (value, steal %) samples."""
    return median([v for v, _ in least_stolen(samples)])


# ---------------------------------------------------------------------
# Build and processes.
# ---------------------------------------------------------------------

def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(os.getcwd(), d)


def build(bdir):
    cmake_dir = os.path.join(bdir, "perfbench")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", cmake_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", cmake_dir, "-j",
                    str(os.cpu_count() or 1), "--target", "dvpd", "pbtool"],
                   stdout=sys.stderr, check=True)
    return (os.path.join(cmake_dir, "dvpdb", "examples", "dvpd"),
            os.path.join(cmake_dir, "pbtool"))


class Bench:
    def __init__(self, workload, seed, seconds, trace):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        bdir = build_dir()
        self.dvpd_bin, self.pbtool_bin = build(bdir)
        self.work = os.path.join(bdir, "perfbench-work",
                                 "%s-%d-%d" % (workload, seed, os.getpid()))
        self.outdir = os.path.join(bdir, "perfbench-out")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        os.makedirs(self.outdir, exist_ok=True)
        self.procs = []
        self.failures = []
        self.attempted = 0
        self.failed = 0

    def path(self, name):
        return os.path.join(self.work, name)

    def pbtool(self, *args):
        out = self.path("pbtool-%s.json" % args[0])
        cmd = [self.pbtool_bin, *map(str, args), "--out", out]
        t0 = time.perf_counter()
        subprocess.run(cmd, stdout=sys.stderr, check=True, timeout=170)
        log("pbtool %s: %.1f s" % (args[0], time.perf_counter() - t0))
        with open(out) as f:
            return json.load(f)

    def tally(self, t, what):
        self.attempted += t["attempted"]
        self.failed += t["failed"]
        if t["failed"]:
            self.failures.append("%s: %s" % (what, t["failure_examples"]))

    # -- dvpd ----------------------------------------------------------

    def launch(self, data_dir):
        """Start dvpd; return (process, seconds to first answer)."""
        pf = self.path("port")
        if os.path.exists(pf):
            os.remove(pf)
        cmd = [self.dvpd_bin, "--load", self.load_file, "--port", "0",
               "--port-file", pf, *DVPD_FLAGS,
               "--data-dir", data_dir, *DURABLE_FLAGS]
        logf = open(self.path("dvpd.log"), "a")
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, stdout=logf, stderr=logf)
        self.procs.append(p)
        ping = subprocess.run([self.pbtool_bin, "ping", "--port-file", pf],
                              stdout=subprocess.PIPE, timeout=175)
        elapsed = time.perf_counter() - t0
        if ping.returncode != 0 or p.poll() is not None:
            fail("dvpd did not come up (see %s)" % self.path("dvpd.log"))
        self.port = int(ping.stdout.decode().strip())
        return p, elapsed

    def stop(self, p, hard=False):
        if p.poll() is None:
            if hard:
                p.kill()
            else:
                p.send_signal(signal.SIGTERM)
            try:
                p.wait(timeout=60)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
        self.procs.remove(p)

    def stop_all(self):
        for p in list(self.procs):
            self.stop(p, hard=True)

    @staticmethod
    def peak_rss_mb(p):
        with open("/proc/%d/status" % p.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        fail("no VmHWM for dvpd")

    # -- the run -------------------------------------------------------

    def run(self):
        self.load_file = self.path("load.jsonl")
        self.insert_file = self.path("insert.jsonl")
        self.pbtool("gen", "--seed", self.seed, "--docs", DOCS, "--extra",
                    INSERT_DOCS.get(self.workload, BURST_DOCS),
                    "--load-out", self.load_file,
                    "--extra-out", self.insert_file)
        stmts = statements(self.workload, self.seed)
        self.stmt_file = self.path("statements.sql")
        with open(self.stmt_file, "w") as f:
            f.write("\n".join(stmts) + "\n")

        # Set-up: several launches on fresh data directories.
        setup = []
        for i in range(SETUPS):
            data_dir = self.path("data-%d" % i)
            steal = StealMeter()
            p, s = self.launch(data_dir)
            setup.append((s, steal.percent()))
            if i + 1 < SETUPS:
                self.stop(p)
                shutil.rmtree(data_dir)
        m = {"setup_s": clean_median(setup)}

        common = ["--port", self.port, "--stmts", self.stmt_file,
                  "--seconds", self.seconds, "--trace", self.trace,
                  "--refs-out", self.path("refs.json")]
        ins = ["--inserts", self.insert_file, "--base-docs", DOCS,
               "--batch", INSERT_BATCH]
        if self.workload == "ingest_durable":
            r = w = self.pbtool("ingest", *common, *ins)
            window = r
        else:
            r = self.pbtool("read", *common, "--conns", CONNECTIONS)
            window = r["plain"]
            w = None
        reads, read_s = clean_reads(window)
        self.tally(r["total"], self.workload)
        log("warm-up: %d statements in %.1f s%s; window: %d of %d reads in "
            "%.1f clean s of %.1f s" % (
                r["warmup_statements"], r["warmup_seconds"],
                " (capped)" if r["warmup_capped"] else "", len(reads),
                len(window["latency_ms"]), read_s,
                window.get("seconds", window.get("read_seconds"))))
        if w is None and window["repartitions"]:
            log("note: %d repartitions inside the timed read window"
                % window["repartitions"])
        m["qps"] = len(reads) / read_s
        m["latency_p50_ms"] = percentile(reads, 50)
        m["latency_p95_ms"] = percentile(reads, 95)
        m["server_rss_mb"] = self.peak_rss_mb(self.procs[-1])
        if w is None and self.trace:
            # Wire write metrics for the traced run: a solo burst.
            w = self.pbtool("ingest", *common, *ins, "--reader", 0)
            self.tally(w["total"], "writes")
        if w is not None:
            log("writes: %d docs in %.1f s, %d folds, %d checkpoints" % (
                w["acked_docs"], w["write_seconds"], w["repartitions"],
                w["checkpoints"]))
        user_bytes = os.path.getsize(self.load_file) + (
            os.path.getsize(self.insert_file) if w else 0)
        self.samples = {"reads": len(reads),
                        "reads beyond p95": samples_beyond(len(reads), 95)}

        # Space, then crash and restart.
        p = self.procs[-1]
        data_dir = self.path("data-%d" % (SETUPS - 1))
        m["disk_bytes_per_user_byte"] = settled_dir_bytes(data_dir) / user_bytes
        self.stop(p, hard=True)
        restart = []
        for i in range(RESTARTS if self.trace else 1):
            if i:
                self.stop(p, hard=True)
            steal = StealMeter()
            p, s = self.launch(data_dir)
            restart.append((s, steal.percent()))
        self.restart_s = clean_median(restart)
        log("set-up %s, restarts %s (seconds, steal %%)" % (
            [(round(a, 3), round(b)) for a, b in setup],
            [(round(a, 3), round(b)) for a, b in restart]))
        v = self.pbtool("verify", "--port", self.port, "--stmts",
                        self.stmt_file, "--refs", self.path("refs.json"),
                        "--inserts", self.insert_file, "--base-docs", DOCS,
                        "--acked", w["acked_docs"] if w else 0)
        self.tally(v, "verify after kill -9")
        self.stop(p)

        # In-process cross-check (and, traced, the layer probe).
        probe_args = ["--load", self.load_file, "--stmts", self.stmt_file]
        if w is not None:
            probe_args += ["--inserts", self.insert_file]
        if self.trace:
            probe_args += ["--passes", REPLAY_PASSES, "--loads", PROBE_LOADS,
                           "--dir", self.path("probe"),
                           "--batch", INSERT_BATCH,
                           "--ingest-docs", PROBE_INSERT_DOCS,
                           "--checkpoint-wal-mb", 1]
        probe = self.pbtool("probe", *probe_args)
        self.cross_check(r, w, probe)

        if not self.trace:
            return m
        return self.layers(m, r, w, probe)

    def cross_check(self, r, w, probe):
        """Row counts over the wire against sql::runStatement: before
        the INSERTs and, when there were any, after them."""
        def rows(digests):
            return [d[0] if d else None for d in digests]
        pairs = [(rows(r["refs"]), probe["base_rows"], "base")]
        if w is not None:
            with open(self.path("refs.json")) as f:
                pairs.append((rows(json.load(f)), probe["final_rows"],
                              "final"))
        for wire, local, what in pairs:
            self.attempted += len(local)
            for i, (a, b) in enumerate(zip(wire, local)):
                if a != b:
                    self.failed += 1
                    self.failures.append("%s row count of statement %d: "
                                         "wire %s, in-process %s"
                                         % (what, i, a, b))

    # -- per-layer metrics ---------------------------------------------

    def layers(self, e2e, r, w, probe):
        m = {}
        # Twin read windows of the traced run: untraced, then traced.
        plain, t = r["plain"], r["traced"]
        plain_lat, plain_s = clean_reads(plain)
        traced_lat, traced_s = clean_reads(t)
        m["trace_overhead_pct"] = (len(plain_lat) / plain_s /
                                   (len(traced_lat) / traced_s) - 1) * 100
        # Per-response split of every traced request.
        lat, exec_ms = t["latency_ms"], t["exec_ms"]
        m["client.request_ms_p50"] = percentile(lat, 50)
        m["server.exec_ms_p50"] = percentile(exec_ms, 50)
        m["server.non_exec_ms_p50"] = percentile(
            [a - b for a, b in zip(lat, exec_ms)], 50)
        m["net.result_bytes_mean"] = statistics.fmean(t["result_bytes"])
        m["net.encode_ms_p50"] = percentile(t["encode_ms"], 50)
        m["net.decode_ms_p50"] = percentile(t["decode_ms"], 50)
        m["server.busy_rejects"] = t["server_rejects"] + t["busy"]
        m["adaptive.repartitions"] = (plain["repartitions"] +
                                      t["repartitions"])
        spans = t["spans"]

        rp = probe["replay"]
        m["sql.run_ms_p50"] = percentile(rp["run_ms"], 50)
        m["engine.exec_ms_p50"] = percentile(rp["exec_ms"], 50)
        m["engine.plan_us_p50"] = percentile(rp["plan_us"], 50)
        m["engine.digest_ms_p50"] = percentile(rp["digest_ms"], 50)
        for phase in ("filter", "retrieve", "project", "join"):
            m["engine.%s_ms" % phase] = median(rp["pass_%s_ms" % phase])
        m["engine.rows_scanned"] = rp["rows_scanned"]
        m["engine.partition_touches"] = rp["partition_touches"]
        m["engine.blocks_total"] = rp["blocks_total"]
        m["engine.blocks_skipped_ratio"] = (
            rp["blocks_skipped"] / rp["blocks_total"]
            if rp["blocks_total"] else 0.0)
        m["engine.rows_out"] = rp["rows_out"]

        m["restart_s"] = self.restart_s
        m["engine.load_ms"] = median(probe["load_ms"])
        m["json.index_ms"] = median(probe["index_ms"])
        m["json.walk_ms"] = median(probe["walk_ms"])
        m["storage.encode_ms"] = median(probe["encode_ms"])
        m["dvp.partition_ms"] = probe["partition_ms"]
        m["engine.build_ms"] = probe["build_ms"]
        m["layout.tables"] = probe["layout_tables"]
        m["storage.bytes_per_doc"] = probe["bytes_per_doc"]

        ig = probe["ingest"]
        m["adaptive.ingest_ms_p50"] = percentile(ig["ingest_ms"], 50)
        m["adaptive.fold_ms"] = median(ig["fold_ms"])
        m["adaptive.folds"] = len(ig["fold_ms"])
        m["durability.append_us_p50"] = percentile(ig["append_us"], 50)
        m["durability.commit_ms_p50"] = percentile(ig["commit_ms"], 50)
        m["durability.commit_ms_p95"] = percentile(ig["commit_ms"], 95)
        m["durability.checkpoint_ms"] = median(ig["checkpoint_ms"])
        m["durability.checkpoints"] = ig["checkpoints"]
        m["durability.recover_ms"] = ig["recover_ms"]
        m["durability.replayed_records"] = ig["replayed_records"]
        m["durability.wal_bytes_per_doc"] = ig["wal_bytes_per_doc"]

        # The wire write phase: acknowledged INSERTs, and the background
        # work inside it.
        m["insert_docs_per_s"] = w["acked_docs"] / w["write_seconds"]
        m["insert_p50_ms"] = percentile(w["insert_ms"], 50)
        m["insert_p95_ms"] = percentile(w["insert_ms"], 95)
        m["window.checkpoints"] = w["checkpoints"]
        m["window.folds"] = w["repartitions"]
        m["warmup.statements"] = r["warmup_statements"]

        # Self time per span name, summed over the traced spans.
        selfs = {}
        for name, st in (self_times(spans) + self_times(w["spans"]) +
                         self_times(rp["spans"])):
            selfs[name] = selfs.get(name, 0.0) + st
        for name in ("wire.request", "client.query", "bench.check",
                     "client.insert", "replay.statement", "sql.run",
                     "engine.digest"):
            m["self.%s_ms" % name] = selfs.get(name, 0.0) / 1e3
        trace_file = os.path.join(self.outdir, "spans-%s-%d.json"
                                  % (self.workload, self.seed))
        with open(trace_file, "w") as f:
            json.dump({"wire": spans, "writes": w["spans"],
                       "replay": rp["spans"]}, f)
        return m


class StealMeter:
    """Share of CPU time the hypervisor stole since construction."""

    def __init__(self):
        self.start = self.read()

    @staticmethod
    def read():
        with open("/proc/stat") as f:
            v = [int(x) for x in f.readline().split()[1:]]
        return v[7], sum(v)

    def percent(self):
        s, t = self.read()
        return 100.0 * (s - self.start[0]) / max(1, t - self.start[1])


def settled_dir_bytes(path, quiet_s=1.0, limit_s=20.0):
    """Bytes under path once no background checkpoint is changing it."""
    def size():
        total = 0
        for d, _, files in os.walk(path):
            for f in files:
                try:
                    total += os.path.getsize(os.path.join(d, f))
                except FileNotFoundError:
                    pass
        return total
    last, since, t0 = size(), time.monotonic(), time.monotonic()
    while time.monotonic() - since < quiet_s and time.monotonic() - t0 < limit_s:
        time.sleep(0.1)
        cur = size()
        if cur != last:
            last, since = cur, time.monotonic()
    return last


# ---------------------------------------------------------------------
# Statements: NoBench Table III templates with seeded parameters.
# ---------------------------------------------------------------------

NUM_RANGE = 1000000   # nobench::Config::numRange
ARR_POOL = 4000       # nobench::Config::arrPool
SPARSE_POOL = 10      # nobench::Config::sparsePool
INSTANCES = 8         # parameter sets per parametrised template


def statements(workload, seed):
    rng = random.Random("%s/%d" % (workload, seed))

    def between(width):
        lo = rng.randrange(0, NUM_RANGE - width)
        return lo, lo + width - 1

    def q5():
        return "SELECT * FROM t WHERE str1 = 'str1_%d'" % rng.randrange(DOCS)

    def q6():
        return "SELECT * FROM t WHERE num BETWEEN %d AND %d" % between(1000)

    def q7():
        return "SELECT * FROM t WHERE dyn1 BETWEEN %d AND %d" % between(2000)

    def q8():
        return ("SELECT sparse_330, num FROM t WHERE 'arr_%d' = ANY "
                "nested_arr" % rng.randrange(ARR_POOL))

    def q9():
        return ("SELECT * FROM t WHERE sparse_300 = 'sparse_val_%d'"
                % rng.randrange(SPARSE_POOL))

    def q10():
        return ("SELECT COUNT(*) FROM t WHERE num BETWEEN %d AND %d "
                "GROUP BY thousandth" % between(NUM_RANGE // 20))

    def q11():
        return ("SELECT * FROM t AS l INNER JOIN t AS r ON "
                "l.nested_obj.str = r.str1 WHERE l.num BETWEEN %d AND %d"
                % between(1000))

    if workload == "wire_wide":
        mix = [lambda: "SELECT str1, num FROM t",
               lambda: "SELECT nested_obj.str, sparse_300 FROM t",
               q6, q7, q9]
    else:
        mix = [lambda: "SELECT sparse_110, sparse_119 FROM t",
               lambda: "SELECT sparse_110, sparse_220 FROM t",
               q5, q8, q10, q11]
    return [make() for _ in range(INSTANCES) for make in mix]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bench = Bench(args.workload, args.seed, args.seconds, args.trace)
    try:
        metrics = bench.run()
    finally:
        bench.stop_all()
    shutil.rmtree(bench.work, ignore_errors=True)

    for f in bench.failures:
        log(f)
    log("samples: %s" % bench.samples)
    failed = bench.failed
    units = UNITS
    print(json.dumps({
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


def _units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        fail("no dvpdb source tree next to perfbench/")
    UNITS = _units()
    sys.exit(main())
