#!/usr/bin/env python3
"""The repository benchmark: the Table V grid, serially and sharded, and
a certified CT fuzz campaign.  Run it from the repository root:

    python3 perfbench/run.py --workload tablev-serial --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload fuzz-ct-certs --seed 3 --seconds 25 --trace 1
    python3 perfbench/run.py --workload tablev-shards2 --steadiness
    python3 perfbench/run.py --make-reference

It builds perfbench/perfbench.exe and bin/protean_tables.exe from source
(release profile), runs the workload for --seconds, checks every output
against perfbench/reference.json, and prints one JSON object as the last
line of stdout.  --trace 0 reports the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer metrics of a separate traced run.
Scratch output goes to .perfbench/.  See perfbench/README.md.
"""

import argparse
import ctypes
import hashlib
import http.client
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time

OUT = ".perfbench"
BENCH_EXE = "_build/default/perfbench/perfbench.exe"
TABLES_EXE = "_build/default/bin/protean_tables.exe"
REFERENCE = "perfbench/reference.json"
REQUIRED = ("BENCHMARK.json", "dune-project", "lib", "bin/protean_tables.ml",
            "perfbench/dune")

# The grid has no randomness.  The fuzz campaign seed is drawn from this
# rotation by --seed; HELD_OUT_SEED is kept out of it for checking claims.
FUZZ_SEEDS = (1, 2, 3, 4, 5, 6, 7, 8)
HELD_OUT_SEED = 101
FUZZ_PROGRAMS = 300
SETUP_PROBES = 10
MIN_PASSES = 3
PROCESS_TIMEOUT = 120
# How often a set-up probe asks the sharded binary for its heartbeat count.
HEARTBEAT_POLL = 0.002
STEADY_RUNS = 10
STEADY_SETS = 2
PR_SET_CHILD_SUBREAPER = 36
CHECKED_COUNTERS = ("tests", "skipped", "violations", "false_positives",
                    "certs_checked", "cert_claims", "cert_violations",
                    "sim_cycles")
DEFENSES = ("unsafe", "stt", "spt", "spt-sb", "prot-delay", "prot-track")


class BenchError(Exception):
    pass


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def check_layout():
    missing = [p for p in REQUIRED if not os.path.exists(p)]
    if missing:
        raise BenchError("not a repository checkout (missing %s); run from "
                         "the repository root" % ", ".join(missing))


def build():
    argv = ["dune", "build", "--root", ".", "--profile", "release",
            "--cache=disabled", "./perfbench/perfbench.exe",
            "./bin/protean_tables.exe"]
    try:
        r = subprocess.run(argv, env=dict(os.environ, DUNE_CACHE="disabled"),
                           stdout=sys.stderr, stdin=subprocess.DEVNULL)
    except FileNotFoundError:
        raise BenchError("dune not found on PATH")
    if r.returncode != 0:
        raise BenchError("build failed: " + " ".join(argv))


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError("cannot read %s: %s" % (path, e))


def last_json(text):
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        raise BenchError("no output")
    return json.loads(lines[-1])


def pct(values, q):
    """The q-quantile of values, by linear interpolation."""
    xs = sorted(values)
    k = (len(xs) - 1) * q
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def ratio(a, b):
    return a / b if b else 0.0


def adopt_orphans():
    """Make this process the subreaper of its descendants (Linux), so the
    workers of a killed supervisor are re-parented here and can be
    waited for."""
    try:
        ctypes.CDLL(None).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def reap_group(pgid):
    """Wait until every process left in a child's process group ended."""
    while True:
        try:
            os.waitpid(-pgid, 0)
        except ChildProcessError:
            return


class Proc:
    """One child run to completion: launch and exit times, peak RSS of it
    and its reaped descendants, and its output.  A non-zero exit raises.
    With until_heartbeat, the child is killed as soon as its live
    /metrics endpoint counts a worker heartbeat, and t_setup is the time
    from launch to that heartbeat."""

    def __init__(self, argv, tag, until_heartbeat=False):
        out_path = os.path.join(OUT, tag + ".out")
        self.t_setup = None
        self.err_lines = []
        self.killed = None
        with open(out_path, "wb") as so:
            self.t0 = time.time()
            # Its own process group, so a stuck run and every worker it
            # spawned can be killed together.
            p = subprocess.Popen(argv, stdout=so, stdin=subprocess.DEVNULL,
                                 stderr=subprocess.PIPE,
                                 start_new_session=True)
            watchdog = threading.Timer(PROCESS_TIMEOUT, self._kill,
                                       (p.pid, "timeout"))
            watchdog.start()
            reader = threading.Thread(target=self._drain, args=(p.stderr,))
            reader.start()
            if until_heartbeat:
                self._watch_first_heartbeat(p.pid)
            _, status, ru = os.wait4(p.pid, 0)
            self.t1 = time.time()
            reap_group(p.pid)
            watchdog.cancel()
            p.returncode = os.waitstatus_to_exitcode(status)
            reader.join()
            p.stderr.close()
        with open(out_path, "rb") as f:
            self.stdout = f.read()
        with open(os.path.join(OUT, tag + ".err"), "w") as f:
            f.writelines(self.err_lines)
        self.rss_mb = ru.ru_maxrss / 1024.0
        if self.killed == "timeout":
            raise BenchError("%s killed after %ds"
                             % (" ".join(argv), PROCESS_TIMEOUT))
        if p.returncode != 0 and self.killed != "heartbeat":
            raise BenchError("%s exited %d: %s" % (
                " ".join(argv), p.returncode,
                "".join(self.err_lines[-5:]).strip()))

    @property
    def wall(self):
        return self.t1 - self.t0

    def json(self):
        return last_json(self.stdout.decode())

    def stderr(self):
        return "".join(self.err_lines)

    def _kill(self, pid, why):
        self.killed = why
        try:
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def _drain(self, stream):
        for raw in stream:
            self.err_lines.append(raw.decode(errors="replace"))

    def _watch_first_heartbeat(self, pid):
        """Poll the binary's live /metrics endpoint until a worker has sent
        its first heartbeat, which it does as it starts its first cell,
        then kill the run."""
        def alive():
            return os.waitid(os.P_PID, pid,
                             os.WEXITED | os.WNOHANG | os.WNOWAIT) is None
        port = None
        while port is None and alive():
            for line in list(self.err_lines):
                m = re.search(r"serving /metrics on port (\d+)", line)
                if m:
                    port = int(m.group(1))
            time.sleep(HEARTBEAT_POLL)
        while port is not None and alive():
            try:
                c = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
                c.request("GET", "/metrics")
                body = c.getresponse().read().decode()
                c.close()
            except (OSError, http.client.HTTPException):
                body = ""
            m = re.search(r"^protean_supervisor_heartbeats_total(?:\{[^}]*\})?"
                          r" (\d+)$", body, re.M)
            if m and int(m.group(1)) >= 1:
                self.t_setup = time.time() - self.t0
                self._kill(pid, "heartbeat")
                return
            time.sleep(HEARTBEAT_POLL)


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------

class Workload:
    """Passes of one workload, each checked against the reference.  A
    pass is one whole workload; a run repeats passes for --seconds.
    Set-up time is sampled by set-up-only probes."""

    def __init__(self, ref):
        self.ref = ref
        self.passes = []  # dicts: wall, ops, failed, sim_cycles, rss
        self.setups = []
        self.errors = []

    def check(self, ok, what):
        if not ok:
            self.errors.append(what)
        return ok

    def measure(self, seconds):
        for _ in range(SETUP_PROBES):
            self.setups.append(self.probe())
        t_begin = time.time()
        while (len(self.passes) < MIN_PASSES
               or time.time() - t_begin < seconds):
            self.passes.append(self.run_pass())

    def end_to_end(self):
        attempted = sum(p["ops"] for p in self.passes)
        failed = sum(p["failed"] for p in self.passes)
        cycles = {p["sim_cycles"] for p in self.passes}
        self.check(len(cycles) == 1, "sim_cycles differ between passes")
        sim_cycles = min(cycles)
        metrics = {
            "wall_s": statistics.median(p["wall"] for p in self.passes),
            "setup_s": statistics.median(self.setups),
            "ops_per_s": statistics.median(p["ops"] / p["wall"]
                                           for p in self.passes),
            "sim_cycles_per_s": statistics.median(sim_cycles / p["wall"]
                                                  for p in self.passes),
            "peak_rss_mb": max(p["rss"] for p in self.passes),
            "ok_ratio": 1.0 - failed / attempted,
            "sim_cycles": sim_cycles,
        }
        return attempted, failed, metrics


class InProcess(Workload):
    """A workload perfbench.exe runs in process, one fresh process per
    pass.  Every pass adds a set-up sample to those of the probes."""

    def probe(self):
        p = Proc(self.argv() + ["--setup-only"], self.tag + "-probe")
        return p.json()["t_first_op"] - p.t0

    def run_pass(self):
        p = Proc(self.argv(), self.tag + "-pass")
        j = self.last = p.json()
        self.setups.append(j["t_first_op"] - p.t0)
        ops, failed = self.outcome(j)
        return {"wall": p.wall, "ops": ops, "failed": failed,
                "sim_cycles": j["sim_cycles"], "rss": p.rss_mb}


class TablevSerial(InProcess):
    tag = "serial"

    def argv(self):
        return [BENCH_EXE, "grid"]

    def grid_ok(self, j):
        t = self.ref["tablev"]
        return (self.check(j["table_md5"] == t["table_md5"],
                           "table differs from the reference")
                and self.check(j["sim_cycles"] == t["sim_cycles"],
                               "grid sim_cycles %d != reference %d"
                               % (j["sim_cycles"], t["sim_cycles"]))
                and self.check(j["overhead_track"] == t["overhead_track"]
                               and j["overhead_delay"] == t["overhead_delay"],
                               "sim_overhead track %r delay %r != reference"
                               % (j["overhead_track"], j["overhead_delay"]))
                and self.check(j["faulted"] == 0,
                               "%d faulted cells" % j["faulted"]))

    def outcome(self, j):
        return j["cells"], 0 if self.grid_ok(j) else j["cells"]


SHARDS_ARGV = [TABLES_EXE, "table-v", "--shards", "2"]


def family_sum(rows, family):
    return sum(r["value"] for r in rows if r["family"] == family)


class TablevShards2(TablevSerial):
    """The shipped binary: protean-tables table-v --shards 2, timed as a
    user runs it, with no telemetry flags."""

    def measure(self, seconds):
        # The plain binary does not print its simulated total: one untimed
        # pass with --metrics-out reads it, and warms the host up.
        path = os.path.join(OUT, "shards-cycles.metrics.json")
        self.binary_ok(Proc(SHARDS_ARGV + ["--metrics-out", path],
                            "shards-cycles"))
        self.sim_cycles = family_sum(load_json(path),
                                     "protean_pipeline_cycles_total")
        self.check(self.sim_cycles == self.ref["tablev"]["sim_cycles"],
                   "sharded sim_cycles %d != reference" % self.sim_cycles)
        Workload.measure(self, seconds)

    def binary_ok(self, p):
        md5 = hashlib.md5(p.stdout).hexdigest()
        poisoned = len(re.findall(r"poisoned after", p.stderr()))
        return (self.check(md5 == self.ref["tablev"]["table_md5"],
                           "sharded table differs from the serial reference")
                and self.check(poisoned == 0, "%d poisoned cells" % poisoned))

    def probe(self):
        """Launch to the first worker heartbeat, read from the binary's
        live --metrics-listen endpoint; the run is killed there."""
        p = Proc(SHARDS_ARGV + ["--metrics-listen", "127.0.0.1:0"],
                 "shards-probe", until_heartbeat=True)
        if self.check(p.t_setup is not None, "no worker heartbeat observed"):
            return p.t_setup
        return p.wall

    def run_pass(self):
        p = Proc(SHARDS_ARGV, "shards-pass")
        ok = self.binary_ok(p)
        cells = self.ref["tablev"]["cells"]
        return {"wall": p.wall, "ops": cells, "failed": 0 if ok else cells,
                "sim_cycles": self.sim_cycles, "rss": p.rss_mb}


class FuzzCtCerts(InProcess):
    tag = "fuzz"

    def __init__(self, ref, seed, campaign_seed=None):
        InProcess.__init__(self, ref)
        if campaign_seed is None:
            campaign_seed = FUZZ_SEEDS[seed % len(FUZZ_SEEDS)]
        self.campaign_seed = campaign_seed
        self.expected = ref["fuzz"].get(str(campaign_seed))
        if self.expected is None:
            raise BenchError("no reference for campaign seed %d"
                             % campaign_seed)

    def argv(self):
        return [BENCH_EXE, "fuzz", "--seed", str(self.campaign_seed),
                "--programs", str(FUZZ_PROGRAMS)]

    def counters_ok(self, j):
        bad = [k for k in CHECKED_COUNTERS if j[k] != self.expected[k]]
        return self.check(not bad, "fuzz counters differ from the reference: "
                          + ", ".join("%s %d != %d" % (k, j[k],
                                                      self.expected[k])
                                      for k in bad))

    def outcome(self, j):
        ok = self.counters_ok(j)
        return j["programs"], j["dropped"] if ok else j["programs"]


def make_workload(name, ref, seed, campaign_seed=None):
    if name == "tablev-serial":
        return TablevSerial(ref)
    if name == "tablev-shards2":
        return TablevShards2(ref)
    return FuzzCtCerts(ref, seed, campaign_seed)


# --------------------------------------------------------------------------
# Traced runs: one untraced pass, then a replay with spans per layer call
# --------------------------------------------------------------------------

def span(j, name, field="total_s"):
    return j["spans"].get(name, {}).get(field, 0)


def layer_metrics(j):
    """Per-layer metrics common to the grid and fuzz replays."""
    st = j["stats"]
    run_s = span(j, "ooo.run")
    m = {
        "ooo.run_s": run_s,
        "ooo.runs": span(j, "ooo.run", "count"),
        "ooo.sim_cycles": st["cycles"],
        "ooo.cycles_per_s": ratio(st["cycles"], run_s),
        "ooo.minor_words_per_cycle": ratio(span(j, "ooo.run", "words"),
                                           st["cycles"]),
        "ooo.decode_s": span(j, "ooo.decode"),
        "ooo.skipped_ratio": ratio(st["skipped_cycles"], st["cycles"]),
        "ooo.ipc": ratio(st["committed"], st["cycles"]),
        "ooo.squash_ratio": ratio(st["squashed_insns"], st["fetched"]),
        "ooo.l1d_miss_ratio": ratio(st["l1d_misses"], st["l1d_accesses"]),
        "protcc.instrument_s": span(j, "protcc.instrument"),
        "protcc.compiles": span(j, "protcc.instrument", "count"),
        "protcc.minor_words": span(j, "protcc.instrument", "words"),
        "protcc.certify_s": span(j, "protcc.certify"),
        "protcc.cert_claims": j.get("cert_claims", 0),
        "protcc.cert_violations": j.get("cert_violations", 0),
        "workloads.build_s": span(j, "workloads.build"),
        "workloads.builds": span(j, "workloads.build", "count"),
        "trace.spans": j["span_count"],
    }
    for d in DEFENSES:
        cost = j["per_defense"].get(d, {"s": 0.0, "cycles": 0})
        m["defense.%s.ns_per_cycle" % d] = ratio(cost["s"], cost["cycles"]) * 1e9
    return m


def traced_grid(w, trace_path):
    """The grid replay, checked like a pass; its per-layer metrics."""
    p = Proc([BENCH_EXE, "grid", "--trace", trace_path], "grid-trace")
    j = p.json()
    w.check(j["codec"]["mismatches"] == 0,
            "%d results changed through the frame codec"
            % j["codec"]["mismatches"])
    w.grid_ok(j)
    m = layer_metrics(j)
    m.update({
        "harness.discover_s": span(j, "harness.discover"),
        "harness.render_s": span(j, "harness.render"),
        "harness.cells": j["cells"],
        "harness.frontend_groups": j["frontend_groups"],
        "harness.frontend_reuse_ratio": ratio(j["cells"],
                                              m["workloads.builds"]),
        "harness.codec_s": span(j, "harness.codec"),
        "harness.frame_bytes": j["codec"]["frame_bytes"],
        "sim_overhead.track": j["overhead_track"],
        "sim_overhead.delay": j["overhead_delay"],
    })
    return p, j, m


def trace_tablev_serial(w):
    u = w.run_pass()
    untraced = w.last
    p, j, m = traced_grid(w, os.path.join(OUT, "tablev-serial.trace.json"))
    a = {c["key"]: c["cycles"] for c in untraced["per_cell"]}
    b = {c["key"]: c["cycles"] for c in j["per_cell"]}
    diff = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
    w.check(not diff, "replay cycles diverge on %d cells (%s)"
            % (len(diff), ", ".join(diff[:3])))
    cell_s = [c["s"] for c in untraced["per_cell"]]
    m.update({
        "harness.worker_busy_ratio": ratio(sum(cell_s), u["wall"]),
        "cell_s.p50": pct(cell_s, 0.5),
        "cell_s.p90": pct(cell_s, 0.9),
        "trace.untraced_wall_s": u["wall"],
        "trace.traced_wall_s": p.wall,
        "trace.overhead_s": p.wall - u["wall"],
    })
    return 2 * j["cells"], m


def worker_lives(trace_path):
    """Seconds from each shard worker's first spawn to its last exit, from
    the supervisor's own Chrome-trace events."""
    spawned, exited = {}, {}
    for e in load_json(trace_path):
        m = re.match(r"shard (\d+): (spawn attempt|exited)", e.get("name", ""))
        if m and m.group(2) == "spawn attempt":
            spawned.setdefault(m.group(1), e["ts"])
        elif m:
            exited[m.group(1)] = e["ts"]
    return [(exited[k] - spawned[k]) / 1e6 for k in spawned if k in exited]


def trace_tablev_shards2(w):
    plain = Proc(SHARDS_ARGV, "shards-untraced")
    w.binary_ok(plain)
    metrics_out = os.path.join(OUT, "tablev-shards2.metrics.json")
    trace_out = os.path.join(OUT, "tablev-shards2.trace.json")
    traced = Proc(SHARDS_ARGV + ["--trace-out", trace_out,
                                 "--metrics-out", metrics_out],
                  "shards-traced")
    w.binary_ok(traced)
    rows = load_json(metrics_out)
    lives = worker_lives(trace_out)
    w.check(len(lives) == 2, "%d shard workers traced, not 2" % len(lives))
    p, j, m = traced_grid(w, os.path.join(OUT, "tablev-shards2.replay.json"))
    # The binary's per-cell cycle counters against the replay's cells.
    binary = {}
    for r in rows:
        if r["family"] == "protean_pipeline_cycles_total":
            lab = r["labels"]
            k = (lab["bench"], lab["defense"], lab["core"])
            binary[k] = binary.get(k, 0) + r["value"]
    replay = {tuple(c["key"].split("|")[:3]): c["cycles"]
              for c in j["per_cell"]}
    w.check(binary == replay, "sharded per-cell cycles differ from the replay")
    m.update({
        "harness.worker_busy_ratio": ratio(sum(lives),
                                           len(lives) * traced.wall),
        "harness.retries": (
            family_sum(rows, "protean_supervisor_retries_total")
            + family_sum(rows, "protean_supervisor_poisoned_cells_total")),
        "harness.spawns": family_sum(rows, "protean_supervisor_spawns_total"),
        "trace.untraced_wall_s": plain.wall,
        "trace.traced_wall_s": traced.wall,
        "trace.overhead_s": traced.wall - plain.wall,
    })
    return 3 * j["cells"], m


def trace_fuzz(w):
    u = w.run_pass()
    untraced = w.last
    p = Proc(w.argv() + ["--trace",
                         os.path.join(OUT, "fuzz-ct-certs.trace.json")],
             "fuzz-trace")
    j = p.json()
    w.counters_ok(j)
    diff = [k for k in CHECKED_COUNTERS if j[k] != untraced[k]]
    w.check(not diff, "replay counters diverge: " + ", ".join(diff))
    m = layer_metrics(j)
    contract_s = span(j, "arch.contract")
    pairs = j["tests"] + j["skipped"]
    m.update({
        "arch.contract_s": contract_s,
        "arch.contract_runs": j["contract_runs"],
        "arch.seq_steps": j["seq_steps"],
        "arch.seq_steps_per_s": ratio(j["seq_steps"], contract_s),
        "arch.minor_words": span(j, "arch.contract", "words"),
        "amulet.gen_s": span(j, "amulet.gen"),
        "amulet.programs": j["programs"],
        "amulet.tests": j["tests"],
        "amulet.pairs": pairs,
        "amulet.pair_yield": ratio(j["tests"], pairs),
        "program_s.p50": pct(untraced["program_s"], 0.5),
        "program_s.p95": pct(untraced["program_s"], 0.95),
        "trace.untraced_wall_s": u["wall"],
        "trace.traced_wall_s": p.wall,
        "trace.overhead_s": p.wall - u["wall"],
    })
    return 2 * j["programs"], m


TRACED = {"tablev-serial": trace_tablev_serial,
          "tablev-shards2": trace_tablev_shards2,
          "fuzz-ct-certs": trace_fuzz}


# --------------------------------------------------------------------------
# Entry points
# --------------------------------------------------------------------------

def provenance():
    p = Proc([BENCH_EXE, "info"], "info")
    info = p.json()
    return {
        "nproc": os.cpu_count(),
        "ocaml": info["ocaml"],
        "rev": info["rev"],
        "profile": "release",
        "hatches": sorted(k for k, v in os.environ.items()
                          if k.startswith("PROTEAN_") and v not in ("", "0")),
    }


def run_workload(name, seed, seconds, trace, campaign_seed=None):
    """One benchmark run: the result object printed as the last line of
    stdout, and the workload with its passes and failed checks."""
    ref = load_json(REFERENCE)
    bench = load_json("BENCHMARK.json")
    w = make_workload(name, ref, seed, campaign_seed)
    if trace:
        attempted, metrics = TRACED[name](w)
        failed = attempted if w.errors else 0
        metrics["failed_ratio"] = failed / attempted
        wanted = bench["per_layer"]
    else:
        w.measure(seconds)
        attempted, failed, metrics = w.end_to_end()
        if w.errors:
            failed = attempted
            metrics["ok_ratio"] = 0.0
        wanted = bench["end_to_end"]
    result = {"correct": not w.errors, "attempted": attempted,
              "failed": failed,
              "metrics": {m["name"]: {"value": metrics.get(m["name"], 0),
                                      "unit": m["unit"]} for m in wanted}}
    return result, w


def steadiness(name, seconds, first_seed):
    """Run the untraced workload in STEADY_SETS sets of STEADY_RUNS runs,
    with consecutive seeds.  Print each end-to-end metric's median,
    quartiles and spread ((Q3 - Q1) / median) per set, and whether the
    sets agree: every spread but setup_s's within the metric's bound, and
    each later set's median no worse than the first's by more than it.
    Returns the exit code: 0 if they agree, 1 if not."""
    bench = {m["name"]: m for m in load_json("BENCHMARK.json")["end_to_end"]}
    per_set = []
    for s in range(STEADY_SETS):
        values = {k: [] for k in bench}
        for i in range(STEADY_RUNS):
            seed = first_seed + s * STEADY_RUNS + i
            result, w = run_workload(name, seed, seconds, False)
            if not result["correct"]:
                raise BenchError("incorrect run (seed %d): %s"
                                 % (seed, "; ".join(w.errors)))
            for k in bench:
                values[k].append(result["metrics"][k]["value"])
            log("%s set %d run %d seed %d: %s" % (
                name, s + 1, i + 1, seed,
                " ".join("%s=%.6g" % (k, v[-1]) for k, v in values.items())))
        per_set.append(values)
    report = {"workload": name, "runs": STEADY_RUNS, "seconds": seconds,
              "provenance": provenance(), "metrics": {}}
    agree = True
    for k, m in bench.items():
        rows = []
        for values in per_set:
            q1, med, q3 = statistics.quantiles(values[k], n=4)
            rows.append({"q1": q1, "median": med, "q3": q3,
                         "spread": ratio(q3 - q1, med), "values": values[k]})
        steady = k == "setup_s" or all(r["spread"] <= m["bound"]
                                       for r in rows)
        first = rows[0]["median"]
        worse = [(r["median"] - first) / first if m["better"] == "lower"
                 else (first - r["median"]) / first for r in rows[1:]]
        ok = steady and all(x <= m["bound"] for x in worse)
        agree = agree and ok
        report["metrics"][k] = {"bound": m["bound"], "sets": rows,
                                "later_vs_first": worse, "agree": ok}
        print("%-18s %s  later vs first %s  bound %.3f %s" % (
            k, "  ".join("median %.6g [%.6g, %.6g] spread %.4f" % (
                r["median"], r["q1"], r["q3"], r["spread"]) for r in rows),
            " ".join("%+.4f" % x for x in worse), m["bound"],
            "ok" if ok else "DISAGREE"))
    with open(os.path.join(OUT, "steadiness-%s.json" % name), "w") as f:
        json.dump(report, f, indent=1)
    return 0 if agree else 1


def make_reference():
    """Record the reference outputs every run is checked against."""
    j = Proc([BENCH_EXE, "grid"], "reference-grid").json()
    sharded = Proc(SHARDS_ARGV, "reference-shards")
    if hashlib.md5(sharded.stdout).hexdigest() != j["table_md5"]:
        raise BenchError("sharded table differs from the serial table")
    ref = {
        "tablev": {k: j[k] for k in ("table_md5", "cells", "sim_cycles",
                                     "overhead_track", "overhead_delay")},
        "fuzz_programs": FUZZ_PROGRAMS,
        "fuzz_seeds": list(FUZZ_SEEDS),
        "held_out_seed": HELD_OUT_SEED,
        "fuzz": {},
    }
    for s in FUZZ_SEEDS + (HELD_OUT_SEED,):
        f = Proc([BENCH_EXE, "fuzz", "--seed", str(s), "--programs",
                  str(FUZZ_PROGRAMS)], "reference-fuzz").json()
        ref["fuzz"][str(s)] = {k: f[k] for k in CHECKED_COUNTERS}
    with open(REFERENCE, "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")
    log("wrote " + REFERENCE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(TRACED))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--campaign-seed", type=int,
                    help="fuzz campaign seed, overriding the rotation "
                         "(e.g. the held-out seed %d)" % HELD_OUT_SEED)
    ap.add_argument("--steadiness", action="store_true",
                    help="run the workload %d x %d times and report each "
                         "metric's quartiles and the sets' agreement"
                         % (STEADY_SETS, STEADY_RUNS))
    ap.add_argument("--make-reference", action="store_true")
    a = ap.parse_args()
    try:
        check_layout()
        adopt_orphans()
        build()
        os.makedirs(OUT, exist_ok=True)
        if a.make_reference:
            make_reference()
            return 0
        if a.workload is None:
            raise BenchError("--workload is required")
        if a.steadiness:
            return steadiness(a.workload, a.seconds, a.seed)
        result, w = run_workload(a.workload, a.seed, a.seconds, a.trace,
                                 a.campaign_seed)
        prov = provenance()
    except BenchError as e:
        log(str(e))
        return 2
    for e in w.errors:
        log("check failed: " + e)
    with open(os.path.join(OUT, "%s-trace%d.json" % (a.workload, a.trace)),
              "w") as f:
        json.dump({"provenance": prov, "seed": a.seed, "result": result,
                   "passes": w.passes, "setups": w.setups,
                   "errors": w.errors}, f, indent=1)
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
