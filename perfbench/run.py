#!/usr/bin/env python3
"""End-to-end campaign benchmark of otisnet.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the harness (perfbench/CMakeLists.txt, otisnet compiled from src/)
under .bench_build/ (or $CARGO_TARGET_DIR), generates the workload's
campaign spec from --seed, and runs it through the public campaign API:

  --trace 0  end-to-end metrics: set-up and campaign wall time (medians
             over repetitions until --seconds elapsed), ns per delivered
             packet, node-slots per second, peak RSS.
  --trace 1  per-layer metrics: untraced, checkpoint-ablated and traced
             campaigns in rounds, plus a checkpoint drill, the serial
             phase split and timed workload builds (workloads.LAYER_MAP).

Every result row is checked against model invariants, and every
repetition's results.jsonl must be byte-identical (the seed fixes the
outputs). Failed cells are counted, never retried; any failure makes the
run exit 1. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. Outputs go to .bench_out/.

--tiny (short cells) and --fault (a corrupted or unreadable row, or a
forced digest mismatch) exist for perfbench/selfcheck.py.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import LAYER_MAP, WORKLOADS  # noqa: E402

CHILD_TIMEOUT_S = 170
E2E_UNITS = {
    "campaign_s": "s",
    "setup_s": "s",
    "ns_per_delivered": "ns/packet",
    "node_slots_per_s": "1/s",
    "peak_rss_mib": "MiB",
}
MIB = 1024.0 * 1024.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT,
                                                                ".bench_build")
    build_dir = os.path.join(os.path.abspath(target), "perfbench")
    jobs = str(max(1, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build_dir, "-j", jobs]):
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            raise SystemExit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "campaign_bench")


def harness(binary, *args, allow_crash=False):
    """Runs one harness subcommand; returns (parsed JSON, exit code).
    With allow_crash, a run that printed nothing returns ({}, code)."""
    done = subprocess.run([binary, *map(str, args)], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if done.stderr:
        log(done.stderr.rstrip())
    lines = done.stdout.strip().splitlines()
    if not lines and allow_crash:
        return {}, done.returncode
    if not lines:
        raise SystemExit("perfbench: harness %s printed nothing (exit %d)" %
                         (args[0], done.returncode))
    return json.loads(lines[-1]), done.returncode


def write_spec(path, spec):
    with open(path, "w") as f:
        json.dump(spec, f, indent=1)
    return path


# ------------------------------------------------------------ correctness

def processor_count(topology):
    kind, params = topology.split("(")
    p = [int(x) for x in params.rstrip(")").split(",")]
    if kind == "SK":
        return p[0] * p[1] ** (p[2] - 1) * (p[1] + 1)
    return p[0] * p[-1]  # POPS(t,g) and SII(s,d,n)


def row_problems(row, spec, wl):
    """Invariants the model guarantees for one results.jsonl row."""
    bad = []
    closed = row["workload"] != "none"
    if row["nodes"] != processor_count(row["topology"]):
        bad.append("nodes")
    if row["dropped"] != 0:
        bad.append("dropped with unbounded queues")
    if not 0.0 <= row["coupler_utilization"] <= row["wavelengths"]:
        bad.append("coupler_utilization outside [0, W]")
    if row["arbitration"] != "aloha" and row["collisions"] != 0:
        bad.append("collisions without aloha")
    if row["coupler_transmissions"] < row["delivered"]:
        bad.append("fewer transmissions than deliveries")
    if min(row["offered"], row["delivered"], row["backlog"]) < 0:
        bad.append("negative counter")
    if closed:
        if row["backlog"] != 0 or row["makespan"] <= 0:
            bad.append("closed-loop cell did not complete")
    else:
        if row["slots"] != spec["measure_slots"] or row["makespan"] != 0:
            bad.append("open-loop window")
        if (row["arbitration"] != "aloha" and row["load"] <= wl["low_load"]
                and row["delivered_fraction"] <
                wl["min_delivered_fraction"]):
            bad.append("delivered_fraction %.6f" % row["delivered_fraction"])
    return bad


def inject_fault(path, fault, rep):
    """Self-check hooks: damage one rep's results.jsonl on purpose."""
    if rep != (1 if fault == "digest_mismatch" else 0):
        return
    with open(path) as f:
        lines = f.readlines()
    if fault == "garble_row":
        lines[0] = lines[0][:len(lines[0]) // 2] + "\n"
    else:
        row = json.loads(lines[0])
        if fault == "corrupt_row":
            row["coupler_utilization"] = row["wavelengths"] + 1.0
        else:
            row["mean_latency"] += 1.0  # no invariant covers it: digest only
        lines[0] = json.dumps(row) + "\n"
    with open(path, "w") as f:
        f.writelines(lines)


class Checker:
    """Accumulates failed cells over every repetition of one run."""

    def __init__(self, spec, wl, cell_ids):
        self.spec = spec
        self.wl = wl
        self.cell_ids = cell_ids
        self.reference = None  # cell id -> row text of the first rep
        self.digest = None
        self.failed = {}  # cell id -> first reason

    def fail(self, cell, reason):
        self.failed.setdefault(cell, reason)

    def check_rep(self, out_dir, result):
        """Checks one campaign's outputs; returns (rows, digest)."""
        path = os.path.join(out_dir, "results.jsonl")
        data = open(path, "rb").read() if os.path.exists(path) else b""
        digest = hashlib.sha256(data).hexdigest()
        rows, lines = [], []
        for line in data.decode(errors="replace").splitlines():
            try:
                rows.append(json.loads(line))
                lines.append(line)
            except json.JSONDecodeError:
                pass  # an unreadable row leaves its cell missing
        by_id = dict(zip((str(r.get("cell_id")) for r in rows), lines))
        manifest_path = os.path.join(out_dir, "manifest.txt")
        manifest = (set(open(manifest_path).read().split("\n"))
                    if os.path.exists(manifest_path) else set())
        if result.get("error"):
            log("perfbench: run() threw: " + result["error"])
        for cell in self.cell_ids:
            if cell not in by_id:
                self.fail(cell, "missing from results.jsonl" +
                          (" (run threw)" if result.get("error") else ""))
            elif cell not in manifest:
                self.fail(cell, "missing from manifest")
        if len(by_id) != len(rows) or set(by_id) - set(self.cell_ids):
            for cell in by_id:
                self.fail(cell, "duplicate or unexpected row")
        for row in rows:
            try:
                problems = row_problems(row, self.spec, self.wl)
            except (KeyError, TypeError, ValueError):
                problems = ["malformed row"]
            for problem in problems:
                self.fail(str(row.get("cell_id")), problem)
        if self.reference is None:
            self.reference, self.digest = by_id, digest
        elif digest != self.digest:
            for cell in set(self.reference) | set(by_id):
                if self.reference.get(cell) != by_id.get(cell):
                    self.fail(cell, "results differ between repetitions")
        return rows, digest


# ------------------------------------------------------------ runs

class Bench:
    def __init__(self, args):
        self.args = args
        self.wl = WORKLOADS[args.workload]
        if args.tiny:
            self.wl = dict(self.wl, setup_reps=1, min_reps=2)
        self.pool = self.wl["pool"]()
        self.spec = self.wl["spec"](args.seed, args.tiny)
        self.out = os.path.join(ROOT, ".bench_out", "%s-s%d-t%d" % (
            args.workload, args.seed, args.trace))
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.out)
        self.spec_path = write_spec(os.path.join(self.out, "spec.json"),
                                    self.spec)
        self.binary = build()
        self.reps = 0
        self.setup = None
        self.checker = None

    def run_setup(self):
        self.setup, _ = harness(self.binary, "setup", "--spec",
                                self.spec_path, "--pool", self.pool, "--reps",
                                self.wl["setup_reps"], "--min-ms",
                                0 if self.args.tiny else 1000)
        self.checker = Checker(self.spec, self.wl, self.setup["cell_ids"])

    def campaign(self, spec_path, extra=()):
        """One checked campaign in a fresh out_dir; returns its record."""
        out_dir = os.path.join(self.out, "rep%d" % self.reps)
        self.reps += 1
        result, code = harness(self.binary, "campaign", "--spec", spec_path,
                               "--out", out_dir, "--pool", self.pool, *extra,
                               allow_crash=True)
        if not result:
            result = {"error": "harness exited %d without a report" % code}
        if self.args.fault:
            inject_fault(os.path.join(out_dir, "results.jsonl"),
                         self.args.fault, self.reps - 1)
        rows, digest = self.checker.check_rep(out_dir, result)
        result.update(rows=rows, digest=digest, out_dir=out_dir)
        return result

    def totals(self, rows):
        delivered = sum(r["delivered"] for r in rows)
        node_slots = 0
        for r in rows:
            warmup = 0 if r["workload"] != "none" else self.spec[
                "warmup_slots"]
            node_slots += r["nodes"] * (warmup + r["slots"])
        return delivered, node_slots

    def loop(self, kinds):
        """Runs each (key, spec, extra) in turn, in rounds, until
        --seconds elapsed and min_reps rounds are done."""
        results = {key: [] for key, _, _ in kinds}
        timed = {key: [] for key, _, _ in kinds}
        start = time.monotonic()
        rounds = 0
        min_rounds = 1 if self.args.trace else self.wl["min_reps"]
        while rounds < min_rounds or (
                time.monotonic() - start < self.args.seconds and
                rounds < 50):
            for key, spec_path, extra in kinds:
                rep = self.campaign(spec_path, extra)
                results[key].append(rep)
                if not rep.get("error"):
                    timed[key].append(rep)
            rounds += 1
        # Failed repetitions count their cells as failed; they give no time.
        for key, reps in timed.items():
            if not reps:
                raise SystemExit("perfbench: every %s repetition failed: %s" %
                                 (key, results[key][0]["error"]))
        return timed

    def end_to_end(self):
        self.run_setup()
        reps = self.loop([("A", self.spec_path, ())])["A"]
        delivered, node_slots = self.totals(reps[0]["rows"])
        campaign = [r["campaign_s"] for r in reps]
        med = statistics.median
        return {
            "campaign_s": med(campaign),
            "setup_s": med(self.setup["setup_s"]),
            "ns_per_delivered": med(c * 1e9 / delivered for c in campaign),
            "node_slots_per_s": med(node_slots / c for c in campaign),
            "peak_rss_mib": med(r["peak_rss_kib"] / 1024.0 for r in reps),
        }, {"repetitions": len(reps), "digest": reps[0]["digest"],
            "campaign_s_reps": campaign}

    def per_layer(self):
        self.run_setup()
        spec = self.spec
        ablation = dict(spec, checkpoint_every=0)
        traced = dict(spec, telemetry={"runtime_stats": "runtime.jsonl"})
        notes = {}
        if spec.get("checkpoint_every", 0) > 0:
            # A trace sink turns checkpoints off, so this workload's traced
            # run carries the runtime rows only.
            notes["campaign.cell_s_p50"] = notes["campaign.cell_s_p90"] = (
                "source: runtime cell_summary rows (spans would turn "
                "checkpoints off)")
            notes["sim.ns_per_hop"] = "source: sharded wall, runtime rows"
        else:
            traced["telemetry"]["trace"] = "campaign.trace.json"
        runs = self.loop([
            ("A", self.spec_path, ()),
            ("B", write_spec(os.path.join(self.out, "ablation.json"),
                             ablation), ()),
            ("T", write_spec(os.path.join(self.out, "traced.json"), traced),
             ("--timed-sinks",)),
        ])
        med = statistics.median
        rows = runs["A"][0]["rows"]
        m = {}
        builds = self.setup["topologies"]
        m["routing.compile_s"] = statistics.mean(
            med(t["compile_s"]) for t in builds)
        m["routing.table_mib"] = sum(t["table_bytes"] for t in builds) / MIB

        layer = [traced_layers(t, rows) for t in runs["T"]]
        for key in layer[0]:
            m[key] = med(x[key] for x in layer)
        if not any(r["type"] == "shard" for r in
                   read_jsonl(runs["T"][0]["out_dir"], "runtime.jsonl")):
            for key in ("sim.barrier_wait_frac", "sim.shard_work_imbalance",
                        "sim.lookahead_use", "sim.mailbox_msgs",
                        "sim.calendar_peak"):
                notes[key] = "unavailable: serial engine, no shard rows"

        transmissions = sum(r["coupler_transmissions"] for r in rows)
        collisions = sum(r["collisions"] for r in rows)
        delivered = sum(r["delivered"] for r in rows)
        m["sim.hops_per_delivered"] = transmissions / max(1, delivered)
        m["sim.collision_frac"] = collisions / max(1,
                                                   collisions + transmissions)
        full = sorted((r["delivered"] * 8 for r in rows
                       if full_latency_mode(spec, r["nodes"])), reverse=True)
        m["sim.latency_samples_mib"] = sum(full[:self.pool]) / MIB
        if not full:
            notes["sim.latency_samples_mib"] = (
                "unavailable: every cell uses the sketch")
        makespans = [r["makespan"] for r in rows if r["workload"] != "none"]
        m["workload.makespan_slots_p50"] = med(makespans) if makespans else 0
        if not makespans:
            notes["workload.makespan_slots_p50"] = (
                "unavailable: open-loop cells only")

        base = med(r["campaign_s"] for r in runs["A"])
        m["sim.checkpoint_s"] = base - med(r["campaign_s"] for r in runs["B"])
        m["obs.trace_overhead_frac"] = med(
            r["campaign_s"] for r in runs["T"]) / base - 1.0
        m["sim.checkpoint_mib"] = self.checkpoint_drill(notes)

        cell, slots = self.wl["phase_cell"]
        phases, _ = harness(self.binary, "phases", "--spec", self.spec_path,
                            "--cell", cell, "--slots",
                            max(10, slots // (100 if self.args.tiny else 1)),
                            "--pool", self.pool)
        for key in ("generate_s", "arbitrate_s", "receive_s"):
            m["sim." + key] = phases[key]
        notes["sim.generate_s"] = ("source: cell %s run open loop, uniform, "
                                   "serial phased" % phases["cell"])
        built, _ = harness(self.binary, "workloads", "--spec",
                           self.spec_path)
        m["workload.build_s"] = built["build_s"]
        m["workload.packets"] = built["packets"]
        if built["packets"] == 0:
            notes["workload.packets"] = (
                "unavailable: open-loop cells; build_s times their traffic "
                "generators")
        return m, {"repetitions": {k: len(v) for k, v in runs.items()},
                   "digest": runs["A"][0]["digest"], "notes": notes}

    def checkpoint_drill(self, notes):
        every = self.spec.get("checkpoint_every", 0)
        if every <= 0:
            notes["sim.checkpoint_mib"] = notes["sim.checkpoint_s"] = (
                "unavailable: spec writes no checkpoints (checkpoint_s is "
                "then the noise between two runs of one spec)")
            return 0.0
        stop = self.spec["warmup_slots"] + self.spec["measure_slots"] // 2
        out_dir = os.path.join(self.out, "drill")
        result, _ = harness(self.binary, "campaign", "--spec",
                            self.spec_path, "--out", out_dir, "--pool",
                            self.pool, "--checkpoint-stop", stop)
        ckpt = os.path.join(out_dir, "checkpoints")
        sizes = [os.path.getsize(os.path.join(ckpt, f))
                 for f in sorted(os.listdir(ckpt))] if os.path.isdir(
                     ckpt) else []
        shutil.rmtree(ckpt, ignore_errors=True)  # sized; nothing resumes them
        if result.get("error") or result["interrupted_cells"] != len(
                self.checker.cell_ids) or len(sizes) != len(
                    self.checker.cell_ids):
            for cell in self.checker.cell_ids:
                self.checker.fail(cell, "checkpoint drill did not leave one "
                                        "blob per cell")
        return max(sizes, default=0) / MIB


def read_jsonl(out_dir, name):
    path = os.path.join(out_dir, name)
    if not os.path.exists(path):
        return []
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def full_latency_mode(spec, nodes):
    """Whether a cell keeps every latency sample: LatencyMode::kAuto
    switches to the sketch at sim::kAutoLatencySketchNodes (32768)."""
    mode = spec.get("latency_stats", "auto")
    return mode == "full" or (mode == "auto" and nodes < 32768)


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def traced_layers(run, rows):
    """Per-layer numbers of one traced campaign: its spans (when traced),
    runtime rows and timed sinks."""
    runtime = read_jsonl(run["out_dir"], "runtime.jsonl")
    shards = [r for r in runtime if r["type"] == "shard"]
    summaries = [r for r in runtime if r["type"] == "cell_summary"]
    workers = [r for r in runtime if r["type"] == "workers"]
    trace_path = os.path.join(run["out_dir"], "campaign.trace.json")
    spans = []
    if os.path.exists(trace_path):
        with open(trace_path) as f:
            spans = json.load(f)["traceEvents"]
    transmissions = max(1, sum(r["coupler_transmissions"] for r in rows))
    if spans:
        cells = [e["dur"] / 1e6 for e in spans if e["cat"] == "cell"]
        sim_ns = sum(e["dur"] * 1e3 for e in spans if e["name"] == "sim.run")
    else:
        cells = [r["wall_ns"] / 1e9 for r in summaries]
        sim_ns = sum(r["wall_ns"] for r in summaries)
    busy = sum(w["busy_ns"] for w in workers)
    total = sum(w["busy_ns"] + w["idle_ns"] + w["steal_ns"] for w in workers)
    imbalance = []
    by_cell = {}
    for s in shards:
        by_cell.setdefault(s["cell"], []).append(s["work_ns"])
    for work in by_cell.values():
        mean = sum(work) / len(work)
        imbalance.append(max(work) / mean if mean > 0 else 1.0)
    wait = sum(s["barrier_wait_ns"] for s in shards)
    shard_time = sum(s["barrier_wait_ns"] + s["work_ns"] for s in shards)
    return {
        "campaign.cell_s_p50": percentile(cells, 0.5),
        "campaign.cell_s_p90": percentile(cells, 0.9),
        "campaign.pool_busy_frac": busy / max(1, total),
        "campaign.pool_idle_s": sum(w["idle_ns"] for w in workers) / 1e9,
        "campaign.pool_steals": sum(w["steals"] for w in workers),
        "campaign.sink_s": run["sink_s"],
        "sim.ns_per_hop": sim_ns / transmissions,
        "sim.barrier_wait_frac": wait / max(1, shard_time),
        "sim.shard_work_imbalance": (statistics.mean(imbalance)
                                     if imbalance else 1.0),
        "sim.lookahead_use": sum(s["lookahead_used"] for s in shards) / max(
            1, sum(s["lookahead_available"] for s in shards)),
        "sim.mailbox_msgs": sum(s["mailbox_msgs_sent"] for s in shards),
        "sim.calendar_peak": max((s["calendar_peak"] for s in shards),
                                 default=0),
    }


# ------------------------------------------------------------ host

def host_metadata(bench):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    fs = "unknown"
    try:
        real = os.path.realpath(bench.out)
        best = ""
        with open("/proc/mounts") as f:
            for line in f:
                parts = line.split()
                if (real == parts[1] or real.startswith(
                        parts[1].rstrip("/") + "/")) and len(parts[1]) >= len(
                            best):
                    best, fs = parts[1], parts[2]
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "compiler": bench.setup["compiler"],
        "build_type": bench.setup["build_type"],
        "out_dir_fs": fs,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-check length: short cells")
    parser.add_argument("--fault", choices=("corrupt_row", "garble_row",
                                            "digest_mismatch"),
                        help="self-check: damage a result on purpose")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    bench = Bench(args)
    if args.trace:
        values, info = bench.per_layer()
        units = {name: entry[0] for name, entry in LAYER_MAP.items()}
    else:
        values, info = bench.end_to_end()
        units = E2E_UNITS
    checker = bench.checker
    failed = len(checker.failed)
    attempted = len(checker.cell_ids)
    summary = {
        "workload": args.workload,
        "why": bench.wl["why"],
        "seed": args.seed,
        "spec_seeds": bench.spec["seeds"],
        "host": host_metadata(bench),
        "cells_attempted": attempted,
        "cells_failed": failed,
        "failures": dict(sorted(checker.failed.items())[:20]),
        **info,
    }
    with open(os.path.join(bench.out, "summary.json"), "w") as f:
        json.dump(dict(summary, metrics=values), f, indent=1)
    for key in ("workload", "spec_seeds", "host", "repetitions", "digest",
                "campaign_s_reps", "notes", "failures"):
        if summary.get(key):
            print("%s: %s" % (key, json.dumps(summary[key])))
    for name in units:
        print("%-28s %16.6g %s" % (name, values[name], units[name]))
    print("%-28s %16d count" % ("cells_attempted", attempted))
    print("%-28s %16d count" % ("cells_failed", failed))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
