#!/usr/bin/env python3
"""Steadiness check for the benchmark declared in BENCHMARK.json.

Runs the benchmark command on each workload with several seeds, then
reports, per end-to-end metric, the median, the quartiles (Python's
statistics.quantiles(values, n=4)) and the spread: the distance between
the quartiles as a share of the median. A spread at or above a third of
the metric's bound is flagged (setup_s is exempt from the spread rule).
With --counters it also runs the traced mode twice on one seed and
checks that every deterministic counter reads the same both times.

Run from the repository root:

    python3 perfbench/steady.py --seeds 1-10
    python3 perfbench/steady.py --workloads stream-hpc8-journal --seeds 1-5
    python3 perfbench/steady.py --seeds 1-10 --counters 1 --out runs.jsonl
"""

import argparse
import json
import statistics
import subprocess
import sys

# Counters that are a pure function of workload and seed (see layers.rs).
DETERMINISTIC = (
    "netsim.stream_steps",
    "vstats.sketch_encoded_bytes",
    "journal.appends",
    "journal.write_bytes",
    "journal.file_bytes",
    "journal.read_bytes",
    "netsim.fabric.steps",
    "netsim.fabric.event_jumps",
    "netsim.fabric.event_steps",
    "netsim.fabric.rate_recomputes",
    "netsim.fabric.rate_cache_hits",
    "netsim.fabric.link_recomputes",
    "netsim.fabric.link_cache_hits",
    "netsim.fabric.steps_per_jump",
)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", str(trace),
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        print(f"  {workload} seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}\n{out.stderr}")
    return result


def spread_table(spec, workload, results):
    ok = True
    for m in spec["end_to_end"]:
        vals = [r["metrics"][m["name"]]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        limit = m["bound"] / 3
        flag = "" if m["name"] == "setup_s" or spread < limit else "  <-- above bound/3"
        ok &= not flag
        print(f"  {m['name']:14s} median {med:.6g} q1 {q1:.6g} q3 {q3:.6g} "
              f"spread {spread:.4f} (bound/3 {limit:.4f}){flag}")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", help="comma-separated; default all")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--counters", type=int, metavar="SEED",
                    help="also run two traced passes on SEED and compare counters")
    ap.add_argument("--out", help="append every result line to this JSONL file")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    seeds = parse_seeds(args.seeds)
    sink = open(args.out, "a") if args.out else None
    steady = True
    for w in workloads:
        results = []
        for s in seeds:
            r = run_once(spec, w, s, 0)
            results.append(r)
            if sink:
                sink.write(json.dumps({"workload": w, "seed": s, "trace": 0, **r}) + "\n")
                sink.flush()
        print(f"{w}: {len(seeds)} seeds")
        steady &= spread_table(spec, w, results)
        if args.counters is not None:
            traced = [run_once(spec, w, args.counters, 1) for _ in range(2)]
            for r in traced:
                if sink:
                    sink.write(json.dumps({"workload": w, "seed": args.counters, "trace": 1, **r}) + "\n")
            for name in DETERMINISTIC:
                a, b = (t["metrics"][name]["value"] for t in traced)
                if a != b:
                    steady = False
                    print(f"  counter {name} differs between traced runs: {a} vs {b}")
            print(f"  traced counters on seed {args.counters}: " + ", ".join(
                f"{n}={traced[0]['metrics'][n]['value']:g}" for n in DETERMINISTIC
                if traced[0]["metrics"][n]["value"]))
    print("STEADY" if steady else "NOT STEADY")
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
