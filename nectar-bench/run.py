#!/usr/bin/env python3
"""nectar-bench: end-to-end and per-layer benchmark of nectar-sim.

Builds the nectar_bench program (CMake package beside this file) from the
checkout's sources, runs one workload for a fixed host time, checks its
outputs and prints the metrics.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 nectar-bench/run.py --workload sweep-fabric16 --seed 1 \\
        --seconds 10 --trace 0

--trace 0 reports the end-to-end metrics; --trace 1 runs traced and
untraced repetitions alternately and reports the per-layer metrics.
--workload all runs every workload in turn.  See README.md.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "nectar-bench"
BINARY = BUILD / "nectar_bench"
FABRIC = ROOT / "examples" / "fabrics" / "fabric16.topo"
BUILD_TYPE = "RelWithDebInfo"

# Host times are reported in reference seconds: seconds on a host that
# runs the reference loop (src/refloop.cc) in this many seconds.  A
# run's times are scaled by REF_LOOP_S / its mean loop time.
REF_LOOP_S = 0.05

WORKLOADS = ["sweep-fabric16", "pingpong-star", "allreduce-fabric16"]

# Published numbers the simulated ones are set beside.  The model is
# validated only against these.
REFERENCES = {
    "pingpong-star": [
        ("sim_p50_us", 30.0, "paper Section 2.3 goal: CAB-to-CAB < 30 us"),
        ("sim_p50_us", 27.5, "E4 measured (64 B, zero-length fibers)"),
    ],
    "sweep-fabric16": [
        ("sim_rate_per_s", 151e3, "E19 fabric16 knee (seed 42): 151 k rps"),
    ],
}

# End-to-end metrics: name, unit.  Reported with --trace 0.
END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_p50_us", "us"),
    ("sim_p95_us", "us"),
    ("sim_rate_per_s", "1/s"),
    ("sim_makespan_ms", "ms"),
    ("ok_frac", "fraction"),
]

# Host phases nectar_bench times (see nectar-bench/src); each names a
# per-layer metric with an _s suffix.
SETUP_PHASES = ["topo.load", "nectarine.build", "serving.setup",
                "collectives.setup", "workload.setup"]
HOST_LAYER_PHASES = SETUP_PHASES + ["sim.run", "nectarine.teardown"]

# Per-layer metrics: name, unit.  Reported with --trace 1; a layer a
# workload does not use reads 0.
PER_LAYER = [
    ("topo.load_s", "s"),
    ("topo.route_compiles", "count"),
    ("nectarine.build_s", "s"),
    ("nectarine.build_heap_mb", "MiB"),
    ("nectarine.teardown_s", "s"),
    ("serving.setup_s", "s"),
    ("serving.completed", "count"),
    ("serving.failed", "count"),
    ("serving.shed", "count"),
    ("serving.peak_flow_table", "count"),
    ("serving.p99_us", "us"),
    ("collectives.setup_s", "s"),
    ("collectives.ok_members", "count"),
    ("collectives.wrong_members", "count"),
    ("collectives.op_p99_us", "us"),
    ("workload.setup_s", "s"),
    ("sim.events", "count"),
    ("sim.run_s", "s"),
    ("sim.ns_per_event", "ns"),
    ("hub.packets_forwarded", "count"),
    ("hub.data_bytes", "bytes"),
    ("hub.opens_ok", "count"),
    ("hub.opens_failed", "count"),
    ("hub.open_success_ratio", "fraction"),
    ("hub.queue_overflows", "count"),
    ("hub.stuck_drops", "count"),
    ("hub.cmd_abandons", "count"),
    ("hub.idle_closes", "count"),
    ("phys.trunk_busy_frac_max", "fraction"),
    ("phys.trunk_busy_frac_mean", "fraction"),
    ("phys.trunk_bytes", "bytes"),
    ("phys.cab_link_busy_frac_max", "fraction"),
    ("cab.cpu_busy_frac_max", "fraction"),
    ("cab.cpu_busy_frac_mean", "fraction"),
    ("cab.tx_packets", "count"),
    ("cab.rx_packets", "count"),
    ("cab.rx_dropped", "count"),
    ("cabos.thread_switches", "count"),
    ("cabos.switches_per_msg", "count"),
    ("datalink.packets_sent", "count"),
    ("datalink.route_timeouts", "count"),
    ("datalink.ready_timeouts", "count"),
    ("datalink.recoveries", "count"),
    ("datalink.send_failures", "count"),
    ("transport.messages_sent", "count"),
    ("transport.packets_sent", "count"),
    ("transport.retransmissions", "count"),
    ("transport.retx_ratio", "fraction"),
    ("transport.requests_sent", "count"),
    ("transport.responses_served", "count"),
    ("transport.request_retries", "count"),
    ("transport.requests_failed", "count"),
    ("transport.duplicates", "count"),
    ("transport.mcast_hw_packets", "count"),
    ("transport.mcast_unicast_packets", "count"),
    ("transport.mcast_fallbacks", "count"),
    ("transport.deliver_p50_us", "us"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
    ("trace.message_spans", "count"),
    ("host.ref_loop_ms", "ms"),
    ("host.raw_wall_s", "s"),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build nectar_bench; build output to stderr."""
    if not (ROOT / "src" / "sim" / "event_queue.hh").is_file():
        log("nectar-bench: simulator sources (src/) not found")
        return False
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", str(BUILD), "-j",
                  str(os.cpu_count() or 1)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          check=False).returncode != 0:
            log(f"nectar-bench: build step failed: {' '.join(cmd)}")
            return False
    return True


def source_digest():
    """SHA-256 over the simulator and benchmark sources: identifies the
    code measured when the checkout is not a git repository."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in (".cc", ".hh", ".py",
                                                  ".txt", ".topo"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    h.update(FABRIC.read_bytes())
    return h.hexdigest()[:16]


def git_revision():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=False)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def median(values):
    return statistics.median(values) if values else 0.0


def speed(reps):
    """Factor that takes the repetitions' host seconds to reference
    seconds.  A shared host slows the simulator by up to 2x for minutes
    at a time, and the reference loop timed before each repetition
    slows with it.  The mean over the run tracks the host better than
    per-repetition ratios: a 60 ms loop sample is noisier than a
    repetition."""
    return REF_LOOP_S / statistics.mean(r["host"]["ref_loop"] for r in reps)


def reference_seconds(reps, phase):
    """Mean host seconds of one phase per repetition, in reference
    seconds."""
    return speed(reps) * statistics.mean(r["host"].get(phase, 0.0)
                                         for r in reps)


def ratio(num, den):
    return num / den if den else 0.0


def deterministic_layers(rep):
    """Layer counters that must repeat exactly: all but the heap one,
    which depends on what earlier repetitions left in the allocator."""
    return {k: v for k, v in rep["layers"].items()
            if k != "nectarine.build_heap_mb"}


def check(reps):
    """Correctness gate: every repetition passed nectar_bench's checks and
    reproduced rep 0 exactly (traced or not).  Returns {index: problem}
    for the repetitions that failed."""
    bad = {}
    for rep in reps:
        kind = "traced" if rep["traced"] else "untraced"
        if rep["error"]:
            bad[rep["index"]] = rep["error"]
        elif rep["sim"] != reps[0]["sim"]:
            bad[rep["index"]] = (f"{kind} rep: simulated outcome or "
                                 "digest differs from rep 0")
        elif deterministic_layers(rep) != deterministic_layers(reps[0]):
            bad[rep["index"]] = (f"{kind} rep: layer counters differ "
                                 "from rep 0")
    return bad


def end_to_end(reps, peak_rss):
    sim = reps[0]["sim"]
    plain = [r for r in reps if not r["traced"]]
    setup = [sum(r["host"].get(p, 0.0) for p in SETUP_PHASES)
             for r in plain]
    ok = sim["ops_ok"] / sim["ops_attempted"] if sim["ops_attempted"] else 0
    return {
        "wall_s": reference_seconds(plain, "rep"),
        "setup_s": speed(plain) * median(setup),
        "peak_rss_mb": peak_rss,
        "sim_p50_us": sim["p50_us"],
        "sim_p95_us": sim["p95_us"],
        "sim_rate_per_s": sim["rate_per_s"],
        "sim_makespan_ms": sim["makespan_ms"],
        "ok_frac": ok,
    }


def per_layer(reps):
    traced = [r for r in reps if r["traced"]]
    plain = [r for r in reps if not r["traced"]]
    out = {name: 0.0 for name, _ in PER_LAYER}
    for phase in HOST_LAYER_PHASES:
        out[phase + "_s"] = reference_seconds(traced, phase)
    out.update({k: v for k, v in traced[0]["layers"].items() if k in out})
    out["nectarine.build_heap_mb"] = max(
        r["layers"].get("nectarine.build_heap_mb", 0.0) for r in reps)
    out["trace.spans"] = median([r["trace"]["spans"] for r in traced])
    out["trace.message_spans"] = traced[0]["trace"]["message_spans"]
    out["transport.deliver_p50_us"] = traced[0]["trace"]["deliver_p50_us"]
    events = reps[0]["sim"]["events"]
    out["sim.events"] = events
    out["sim.ns_per_event"] = ratio(out["sim.run_s"] * 1e9, events)

    out["hub.open_success_ratio"] = ratio(
        out["hub.opens_ok"], out["hub.opens_ok"] + out["hub.opens_failed"])
    out["transport.retx_ratio"] = ratio(out["transport.retransmissions"],
                                        out["transport.packets_sent"])
    out["cabos.switches_per_msg"] = ratio(
        out["cabos.thread_switches"],
        out["transport.messages_sent"] + out["transport.requests_sent"]
        + out["transport.responses_served"])
    out["trace.overhead_s"] = (reference_seconds(traced, "rep")
                               - reference_seconds(plain, "rep"))
    out["host.ref_loop_ms"] = 1e3 * REF_LOOP_S / speed(reps)
    out["host.raw_wall_s"] = median([r["host"]["rep"] for r in plain])
    return out


def run_workload(args, workload):
    """Run one workload; returns (result, record) or None on failure."""
    trace_out = BUILD / "traces" / f"{workload}-seed{args.seed}.json"
    cmd = [str(BINARY), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--fabric", str(FABRIC)]
    if args.trace:
        trace_out.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(trace_out)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, check=False,
                              timeout=args.seconds + 120)
    except subprocess.TimeoutExpired:
        log(f"nectar-bench: {workload}: nectar_bench timed out")
        return None
    lines = [json.loads(l) for l in proc.stdout.splitlines() if l.strip()]
    host = next((l for l in lines if l["kind"] == "host"), None)
    end = next((l for l in lines if l["kind"] == "end"), None)
    reps = [l for l in lines if l["kind"] == "rep"]
    if host is None:
        log(f"nectar-bench: nectar_bench failed to start ({proc.returncode})")
        return None

    bad = check(reps)
    problems = [f"rep {i}: {why}" for i, why in sorted(bad.items())]
    if proc.returncode != 0:
        problems.append(f"nectar_bench exited with {proc.returncode}")
    if end is None or not reps:
        problems.append("nectar_bench stopped before the end of its run")
    if args.trace and not any(r["traced"] for r in reps):
        problems.append("no traced repetition ran")
    for p in problems:
        log(f"nectar-bench: {workload}: {p}")

    if problems:
        metrics = {}
    elif args.trace:
        metrics = per_layer(reps)
    else:
        metrics = end_to_end(reps, end["peak_rss_mb"])
    units = dict(PER_LAYER if args.trace else END_TO_END)
    attempted = max(len(reps), 1)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(bad) or (attempted if problems else 0),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }
    sim = reps[0]["sim"] if reps else {}
    record = {
        "workload": workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "host": {
            "nproc": os.cpu_count(),
            "build_type": host["build_type"],
            "compiler": host["compiler"],
            "git_revision": git_revision(),
            "source_digest": source_digest(),
        },
        "repetitions": {"untraced": sum(1 for r in reps if not r["traced"]),
                        "traced": sum(1 for r in reps if r["traced"])},
        "rep_wall_s": [r["host"]["rep"] for r in reps],
        "rep_ref_loop_s": [r["host"]["ref_loop"] for r in reps],
        "digest": {"sim.events": sim.get("events"),
                   "report_fp": sim.get("report_fp"),
                   "latency_fp": sim.get("latency_fp")},
        "latency_samples": sim.get("latency_samples"),
        "rungs": sim.get("rungs"),
        "trace_file": str(trace_out.relative_to(ROOT))
        if args.trace else None,
        "problems": problems,
        "result": result,
    }
    return result, record


def report(workload, result, record):
    """Human-readable summary on stdout (before the JSON result line)."""
    print(f"== {workload} seed={record['seed']} trace={record['trace']} "
          f"reps={record['repetitions']}")
    h = record["host"]
    print(f"   host: nproc={h['nproc']} {h['build_type']} {h['compiler']} "
          f"rev={h['git_revision'] or 'n/a'} src={h['source_digest']}")
    d = record["digest"]
    print(f"   digest: sim.events={d['sim.events']} "
          f"report_fp={d['report_fp']} latency_fp={d['latency_fp']}")
    for name, m in result["metrics"].items():
        print(f"   {name:34s} {m['value']:>16.6g} {m['unit']}")
    if not record["trace"]:
        for metric, ref, what in REFERENCES.get(workload, []):
            if metric in result["metrics"]:
                value = result["metrics"][metric]["value"]
                print(f"   reference: {metric}={value:.6g} vs {ref:g} "
                      f"({what}); model validated only against published "
                      "numbers")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        return 2

    results = {}
    for workload in (WORKLOADS if args.workload == "all"
                     else [args.workload]):
        got = run_workload(args, workload)
        if got is None:
            return 1
        result, record = got
        out = BUILD / "results" / (f"{workload}-seed{args.seed}"
                                   f"-trace{args.trace}.json")
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(record, indent=2) + "\n")
        report(workload, result, record)
        print(json.dumps({"kind": "record", **record}))
        results[workload] = result

    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": m for w, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    else:
        final = results[args.workload]
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
