#!/usr/bin/env python3
"""bench_pairs: compare two checkouts on nectar-bench in alternating pairs.

Runs the benchmark command from BENCHMARK.json (nectar-bench/run.py) in
two checkouts, one workload at a time, for N pairs: the parent runs first
on even pairs and the change first on odd ones, so a slow stretch of the
host lands on both sides.  Then, for each workload and each end-to-end
metric of BENCHMARK.json, it prints both medians, the parent's
interquartile range and how many pairs the change won (a tie counts for
neither side), followed by every pair's values, and says whether the
simulated outcome (sim.events, report_fp, latency_fp) differs between the
two sides.

    python3 tools/bench_pairs.py --parent ../parent --change . \\
        --pairs 10 --seconds 30

Metric names and directions, the workloads and the default --seconds come
from the change checkout's BENCHMARK.json.  Each run writes only what
nectar-bench/run.py writes, under its own checkout's .bench_build/; this
script writes nothing.  Exit status: 0 when every run was correct and the
two sides' digests agree, 1 otherwise, 2 on bad arguments.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

DIGEST = ("sim.events", "report_fp", "latency_fp")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_once(bench, checkout, workload, seconds, seed):
    """One benchmark run; returns {"correct", "metrics", "digest"}."""
    cmd = list(bench["command"]) + ["--workload", workload, "--seed",
                                    str(seed), "--seconds", str(seconds),
                                    "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True,
                          text=True, check=False)
    if proc.returncode != 0:
        log(proc.stderr[-2000:])
    objs = [json.loads(l) for l in proc.stdout.splitlines()
            if l.startswith("{")]
    record = next((o for o in objs if o.get("kind") == "record"), {})
    final = objs[-1] if objs else {}
    return {
        "correct": proc.returncode == 0 and bool(final.get("correct")),
        "metrics": {k: m["value"]
                    for k, m in final.get("metrics", {}).items()},
        "digest": record.get("digest", {}),
    }


def iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def wins(parent, change, better):
    """Pairs the change wins and pairs it loses, in that order."""
    won = lost = 0
    for p, c in zip(parent, change):
        if p == c:
            continue
        if (c < p) == (better == "lower"):
            won += 1
        else:
            lost += 1
    return won, lost


def summarize(workload, metrics, runs, args):
    """Print one workload's table; returns True if all is well."""
    side = {s: [r for r in runs if r["side"] == s]
            for s in ("parent", "change")}
    print(f"== {workload}: {args.pairs} pairs, {args.seconds:g} s, "
          f"seed {args.seed}")
    failed = {s: sum(not r["correct"] for r in rs)
              for s, rs in side.items()}
    ok = not any(failed.values())
    if not ok:
        print(f"   failed runs: parent {failed['parent']}, "
              f"change {failed['change']}")
    digests = {s: {tuple(r["digest"].get(k) for k in DIGEST)
                   for r in rs if r["correct"]}
               for s, rs in side.items()}

    def show(d):
        return " ".join(f"{k}={v}" for k, v in zip(DIGEST, d))

    if len(digests["parent"]) == 1 and digests["parent"] == digests["change"]:
        print(f"   digest: {show(next(iter(digests['parent'])))}, "
              "equal on both sides")
    else:
        ok = False
        for s, ds in digests.items():
            for d in sorted(ds, key=str):
                print(f"   digest {s}: {show(d)}")
        print("   digest: DIFFERS")

    pairs = [(p, c) for p, c in zip(side["parent"], side["change"])
             if p["correct"] and c["correct"]]
    print(f"   {'metric':16s} {'parent med':>12s} {'change med':>12s} "
          f"{'change':>8s} {'parent IQR':>11s} {'won-lost':>9s}")
    varying = []
    for m in metrics:
        name, better = m["name"], m["better"]
        pv = [p["metrics"].get(name, 0.0) for p, _ in pairs]
        cv = [c["metrics"].get(name, 0.0) for _, c in pairs]
        if not pv:
            continue
        pm, cm = statistics.median(pv), statistics.median(cv)
        rel = f"{100.0 * (cm / pm - 1.0):+.1f}%" if pm else "n/a"
        won, lost = wins(pv, cv, better)
        print(f"   {name:16s} {pm:12.6g} {cm:12.6g} {rel:>8s} "
              f"{iqr(pv):11.4g} {won:>4d}-{lost:<4d}")
        if len(set(pv + cv)) > 1:
            varying.append((name, pv, cv))
    for name, pv, cv in varying:
        print(f"   {name} per pair (parent/change): " +
              " ".join(f"{p:.4g}/{c:.4g}" for p, c in zip(pv, cv)))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path,
                    help="checkout of the parent commit")
    ap.add_argument("--change", required=True, type=Path,
                    help="checkout of the change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=None,
                    help="per run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", action="append", default=None,
                    help="repeatable (default: every BENCHMARK.json "
                    "workload)")
    args = ap.parse_args()

    bench = json.loads((args.change / "BENCHMARK.json").read_text())
    known = [w["name"] for w in bench["workloads"]]
    workloads = args.workload or known
    if args.pairs < 1 or any(w not in known for w in workloads):
        ap.error(f"--pairs must be >= 1 and --workload one of {known}")
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    checkouts = {"parent": args.parent.resolve(),
                 "change": args.change.resolve()}

    runs = {w: [] for w in workloads}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for w in workloads:
            for s in order:
                r = run_once(bench, checkouts[s], w, args.seconds,
                             args.seed)
                r["side"] = s
                runs[w].append(r)
                wall = r["metrics"].get("wall_s")
                log(f"pair {i} {w} {s}: "
                    + (f"wall_s={wall:.4g}" if r["correct"] else "FAILED"))

    ok = True
    for w in workloads:
        ok = summarize(w, bench["end_to_end"], runs[w], args) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
