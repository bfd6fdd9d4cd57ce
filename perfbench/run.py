#!/usr/bin/env python3
"""The FractOS repository benchmark (see perfbench/README.md).

Builds perfbench/ (Release) into .bench_build/perfbench, then runs one workload (or, with
no --workload, each of them in turn):

  python3 perfbench/run.py --workload facever_fattree --seed 1 --seconds 30 --trace 0

--trace 0 repeats the untraced workload process until --seconds have passed (at least
three times) and reports the end-to-end metrics as medians over those processes.
--trace 1 runs the traced process (spans, metrics registry, per-layer probes) once and
untraced processes for the rest of --seconds, and reports the per-layer metrics.

The last stdout line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
A wrong result, a failed or unresolved op, or a workload process that dies makes the run
incorrect: it still prints that line, then exits 1. Set-up problems (no sources, a failed
build) exit 2 without printing it.

  python3 perfbench/run.py --record 0-20,7919

re-records perfbench/golden.json: each workload's simulated results for those seeds.
The default seed is 1; seed 7919 is held out from tuning, to confirm claims on.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
GOLDEN = HERE / "golden.json"

WORKLOADS = ("facever_fattree", "capability_1m", "openloop_lossy")
DEFAULT_SEED = 1
MIN_REPS = 3
PROCESS_TIMEOUT_S = 150
BUDGET_S = 165  # no new process starts past this point of a run

# End-to-end metrics: name -> (unit, how it is read from the untraced processes).
# "host" fields take the median over processes; "sim" fields are identical in every process.
END_TO_END = {
    "setup_s": ("s", lambda h, s: h["setup_s"]),
    "host_ops_per_s": ("ops/s", lambda h, s: h["ops_per_s"]),
    "peak_rss_mb": ("MB", lambda h, s: h["peak_rss_mb"]),
    "sim_p50_us": ("sim_us", lambda h, s: s["p50_us"]),
    "sim_p99_us": ("sim_us", lambda h, s: s["p99_us"]),
    "sim_ops_per_s": ("ops/sim_s", lambda h, s: s["ops_per_s"]),
    "fabric_bytes_per_op": ("B/op", lambda h, s: s["fabric_bytes_per_op"]),
    "slo_ok_ratio": ("ratio", lambda h, s: 1 - s["slo_miss"] / s["attempted"]),
}


def fail_setup(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail_setup(f"no FractOS sources under {ROOT / 'src'}")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    with open(log, "w") as out:
        steps = [["cmake", "--build", str(BUILD), "-j", str(min(4, os.cpu_count() or 1))]]
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(BUILD),
                             "-DCMAKE_BUILD_TYPE=Release"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                tail = log.read_text().splitlines()[-30:]
                fail_setup("build failed:\n" + "\n".join(tail))
    return BUILD / "perfbench_workload"


def run_process(binary, workload, seed, extra=(), timeout=PROCESS_TIMEOUT_S):
    """One workload process. Returns (report, error); report is None when it failed."""
    cmd = [str(binary), workload, "--seed", str(seed), *extra]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                           timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        err = (p.stderr.strip().splitlines() or ["(no output)"])[-1]
        return None, f"exit code {p.returncode}: {err}"
    return json.loads(lines[-1]), None


def op_failures(sim):
    """Ops of one process that did not complete correctly, and why (empty when clean)."""
    bad = int(sim["failed"] + sim["wrong"] + sim["unresolved"] + sim.get("misdelivered", 0))
    why = []
    for key in ("failed", "wrong", "unresolved", "misdelivered"):
        if sim.get(key, 0):
            why.append(f"{int(sim[key])} {key}")
    if sim["attempted"] != sim["ok"] + sim["failed"] + sim["unresolved"]:
        why.append("op accounting does not reconcile")
        bad = max(bad, 1)
    return bad, ", ".join(why)


def golden_drift(workload, seed, sim):
    """Fields whose simulated value differs from the one recorded for this seed."""
    if not GOLDEN.is_file():
        return None
    recorded = json.loads(GOLDEN.read_text()).get(workload, {}).get(str(seed))
    if recorded is None:
        return None
    return sorted(k for k in set(recorded) | set(sim)
                  if k in recorded and recorded[k] != sim.get(k))


class Run:
    """Accounting of one benchmark run: processes, ops, failures."""

    def __init__(self, binary, workload, seed):
        self.binary, self.workload, self.seed = binary, workload, seed
        self.reports = []  # untraced processes that completed cleanly
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self.started = time.monotonic()

    def elapsed(self):
        return time.monotonic() - self.started

    def process(self, extra=()):
        t0 = time.monotonic()
        rep, err = run_process(self.binary, self.workload, self.seed, extra)
        took = time.monotonic() - t0
        if rep is None:
            # A dead process resolved none of its ops that we can see: count them all.
            planned = self.planned_ops()
            self.attempted += planned
            self.failed += planned
            self.problems.append(f"{self.workload} seed {self.seed}: process failed ({err}); "
                                 f"{planned} ops counted as failed")
            return None, took
        bad, why = op_failures(rep["sim"])
        self.attempted += int(rep["sim"]["attempted"])
        self.failed += bad
        if bad:
            self.problems.append(f"{self.workload} seed {self.seed}: {why}")
            return None, took
        return rep, took

    def planned_ops(self):
        if self.reports:
            return int(self.reports[0]["sim"]["attempted"])
        if GOLDEN.is_file():
            rec = json.loads(GOLDEN.read_text()).get(self.workload, {}).get(str(self.seed))
            if rec:
                return int(rec["attempted"])
        return 1

    def untraced(self, seconds, min_reps):
        """Untraced processes until `seconds` have passed and at least `min_reps` ran."""
        longest = 0.0
        while True:
            rep, took = self.process()
            if rep is None:
                return
            self.reports.append(rep)
            longest = max(longest, took)
            n = len(self.reports)
            if n >= min_reps and self.elapsed() >= seconds:
                return
            if self.elapsed() + longest > BUDGET_S:
                return

    def check_same_sim(self, rep, what):
        base = self.reports[0]["sim"]
        diff = sorted(k for k in base if rep["sim"].get(k) != base[k])
        if diff:
            self.problems.append(f"{self.workload} seed {self.seed}: {what} differs in "
                                 f"simulated results: {', '.join(diff[:8])}")


def host_median(reports, key):
    return statistics.median(r["host"].get(key, 0.0) for r in reports)


def end_to_end(run):
    host = {k: host_median(run.reports, k) for k in ("setup_s", "ops_per_s", "peak_rss_mb")}
    sim = run.reports[0]["sim"]
    return {name: (fn(host, sim), unit) for name, (unit, fn) in END_TO_END.items()}


def per_layer(run, traced):
    s = traced["sim"]
    h = traced["host"]
    ok = s["ok"] or 1
    lookups = s["xlate_hits"] + s["xlate_misses"]
    untraced_window = host_median(run.reports, "window_s")
    m = {}
    for phase in ("fabric", "deploy", "ingest", "warmup", "fill", "teardown"):
        m[f"setup.{phase}_s"] = (host_median(run.reports, f"setup.{phase}_s"), "s")
    m.update({
        "sim.events_per_op": (s["events"] / ok, "events/op"),
        "sim.host_ns_per_event": (host_median(run.reports, "ns_per_event"), "ns"),
        "sim.schedule_fire_ns": (h["probe.sim.schedule_fire_ns"], "ns"),
        "sim.latency_samples": (s["latency_samples"], "count"),
        "futures.then_ns": (h["probe.futures.then_ns"], "ns"),
        "wire.encode_ns": (h["probe.wire.encode_ns"], "ns"),
        "wire.decode_ns": (h["probe.wire.decode_ns"], "ns"),
        "fabric.send_ns": (h["probe.fabric.send_ns"], "ns"),
        "fabric.control_msgs_per_op": (s["control_msgs_per_op"], "msgs/op"),
        "fabric.data_msgs_per_op": (s["data_msgs_per_op"], "msgs/op"),
        "fabric.cross_rack_bytes_per_op": (s["cross_rack_bytes_per_op"], "B/op"),
        "fabric.max_port_queue_kb": (s["max_port_queue_kb"], "KiB"),
        "fabric.faults_injected": (s["faults_injected"], "count"),
        "fabric.rdma_retransmits": (s["rdma_retransmits"], "count"),
        "fabric.qp_retransmits": (s["qp_retransmits"], "count"),
        "fabric.rc_exhausted": (s["rc_exhausted"], "count"),
        "tax.fabric_us": (s["tax.fabric_us"], "sim_us"),
        "tax.fabric_queue_us": (s["tax.fabric.queue_us"], "sim_us"),
        "tax.controller_us": (s["tax.controller_us"], "sim_us"),
        "tax.translation_us": (s["tax.translation_us"], "sim_us"),
        "tax.queue_us": (s["tax.queue_us"], "sim_us"),
        "tax.device_us": (s["tax.device_us"], "sim_us"),
        "tax.other_us": (s["tax.other_us"], "sim_us"),
        "tax.tail_us": (s["tax.tail_us"], "sim_us"),
        "cap.table_new_us": (h["probe.cap.table_new_us"], "us"),
        "cap.insert_ns.n10": (h["probe.cap.insert_ns.n10"], "ns"),
        "cap.insert_ns.n1k": (h["probe.cap.insert_ns.n1k"], "ns"),
        "cap.insert_ns.n1m": (h["probe.cap.insert_ns.n1m"], "ns"),
        "cap.resolve_ns.n1m": (h["probe.cap.resolve_ns.n1m"], "ns"),
        "cap.revoke_ns.n1m": (h["probe.cap.revoke_ns.n1m"], "ns"),
        "cap.objects_live": (s["objects_live"], "count"),
        "cap.xlate_hit_ratio": (s["xlate_hits"] / lookups if lookups else 0.0, "ratio"),
        "cap.xlate_lookups": (lookups, "count"),
        "core.null_invoke_ns": (h["probe.core.null_invoke_ns"], "ns"),
        "core.syscalls_per_op": (s["syscalls_per_op"], "calls/op"),
        "core.invokes_forwarded_per_op": (s["invokes_forwarded_per_op"], "invokes/op"),
        "core.revocations_per_op": (s["revocations_per_op"], "revokes/op"),
        "core.peer_retries": (s["peer_retries"], "count"),
        "core.peer_dedup_hits": (s["peer_dedup_hits"], "count"),
        "core.peer_op_timeouts": (s["peer_op_timeouts"], "count"),
        "core.late_replies": (s["late_replies"], "count"),
        "apps.face_image_us": (h["probe.apps.face_image_us"], "us"),
        "workload.generator_late_us": (s["generator_late_us"], "sim_us"),
        "workload.shed": (s["shed"], "count"),
        "workload.fail_ratio": ((s["failed"] + s["unresolved"]) / s["attempted"], "ratio"),
        "workload.slo_miss_ratio": (s["slo_miss"] / s["attempted"], "ratio"),
        "trace.overhead_ratio": (h["window_s"] / untraced_window, "ratio"),
        "trace.spans_per_op": (s["spans_per_op"], "spans/op"),
    })
    return m


def print_table(title, metrics, notes=None):
    print(f"\n=== {title} ===")
    for name, (value, unit) in metrics.items():
        note = (notes or {}).get(name, "")
        print(f"  {name:<32} {value:>16.6g} {unit:<10} {note}")


def result_line(run, metrics):
    correct = not run.problems
    for p in run.problems:
        print(f"perfbench: FAILED: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, run.attempted),
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    sys.stdout.flush()
    return 0 if correct else 1


def drift_report(run, sim):
    drift = golden_drift(run.workload, run.seed, sim)
    if drift is None:
        print(f"(no simulated results recorded for {run.workload} seed {run.seed}; "
              f"nothing to compare)")
        return 0
    if drift:
        print(f"MODEL CHANGE: {len(drift)} simulated fields differ from perfbench/golden.json "
              f"for {run.workload} seed {run.seed}: {', '.join(drift)}")
    else:
        print(f"simulated results match perfbench/golden.json for seed {run.seed}")
    return len(drift)


def benchmark(binary, workload, seed, seconds, trace, chrome_trace):
    run = Run(binary, workload, seed)
    traced = None
    if trace:
        extra = ["--trace"]
        if chrome_trace:
            extra += ["--chrome-trace", str(Path(chrome_trace).resolve())]
        traced, _ = run.process(extra)
        run.untraced(seconds, min_reps=1)
    else:
        run.untraced(seconds, min_reps=MIN_REPS)
    if not run.reports or (trace and traced is None):
        return result_line(run, {})

    for rep in run.reports[1:]:
        run.check_same_sim(rep, "an untraced repetition")
    sim = run.reports[0]["sim"]
    drift = drift_report(run, sim)
    print(f"{workload} seed {seed}: {len(run.reports)} untraced process(es) in "
          f"{run.elapsed():.1f} s")
    if not trace:
        notes = {"sim_p50_us": f"(n={int(sim['latency_samples'])})",
                 "sim_p99_us": f"(n={int(sim['latency_samples'])})",
                 "slo_ok_ratio": f"(fail_ratio {(sim['failed'] + sim['unresolved']) / sim['attempted']:.6g}, "
                                 f"slo_miss_ratio {sim['slo_miss'] / sim['attempted']:.6g})"}
        metrics = end_to_end(run)
        print_table(f"{workload}: end-to-end (median of {len(run.reports)} processes)",
                    metrics, notes)
        return result_line(run, metrics)

    run.check_same_sim(traced, "the traced run")
    metrics = per_layer(run, traced)
    metrics["drift.fields"] = (drift, "count")
    print_table(f"{workload}: per layer (traced run + {len(run.reports)} untraced)", metrics)
    return result_line(run, metrics)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record(binary, seeds):
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    for workload in WORKLOADS:
        for seed in seeds:
            rep, err = run_process(binary, workload, seed)
            if rep is None or op_failures(rep["sim"])[0]:
                fail_setup(f"{workload} seed {seed} did not run cleanly: {err or rep['sim']}")
            golden.setdefault(workload, {})[str(seed)] = rep["sim"]
            print(f"recorded {workload} seed {seed}")
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--chrome-trace", help="with --trace 1: write the window's spans here")
    ap.add_argument("--record", metavar="SEEDS",
                    help="re-record perfbench/golden.json for these seeds, e.g. 0-20,7919")
    args = ap.parse_args()
    binary = build()
    if args.record is not None:
        return record(binary, parse_seeds(args.record))
    workloads = [args.workload] if args.workload else WORKLOADS
    return max(benchmark(binary, w, args.seed, args.seconds, args.trace, args.chrome_trace)
               for w in workloads)


if __name__ == "__main__":
    sys.exit(main())
