#!/usr/bin/env python3
"""Check that the benchmark is steady enough to gate changes.

Runs `perfbench/run.py` once per (workload, seed) and reports, for each
end-to-end metric, the interquartile range of its values across seeds
as a share of their median (`statistics.quantiles(values, n=4)`),
against the metric's bound in BENCHMARK.json. It also checks the
exact-count ledger: every count must repeat bit for bit, within a set
when a seed repeats and across sets when `--compare` names an earlier
set's output.

    python3 perfbench/steadiness.py --seeds 1-10 --out set1.json
    python3 perfbench/steadiness.py --seeds 1-10 --out set2.json --compare set1.json

Run from the repository root. Exits 1 if a run fails, is incorrect, a
spread exceeds its bound, a median moved by more than its bound against
`--compare`, or an exact count differs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {out.returncode}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    ledger = json.loads(lines[-2])["ledger"]["exact"]
    return result, ledger


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads", default="", help="comma list (default: all)")
    p.add_argument("--trace", default="0", choices=["0", "1"])
    p.add_argument("--out", required=True, help="JSON file for this set's values")
    p.add_argument("--compare", help="an earlier --out file to compare medians and ledgers")
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    metrics = bench["end_to_end"] if args.trace == "0" else bench["per_layer"]
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)

    ok = True
    record = {}
    for w in workloads:
        values = {m["name"]: [] for m in metrics}
        ledgers = {}
        for seed in seeds:
            result, ledger = run_once(w, seed, bench["run_seconds"], args.trace)
            if not result["correct"] or result["failed"]:
                print(f"{w} seed {seed}: {result['failed']} of {result['attempted']} "
                      "operations failed")
                ok = False
            for m in metrics:
                values[m["name"]].append(result["metrics"][m["name"]]["value"])
            key = str(seed)
            if key in ledgers and ledgers[key] != ledger:
                print(f"{w} seed {seed}: exact counts differ between runs")
                ok = False
            ledgers[key] = ledger
            print(f"{w} seed {seed}: " + " ".join(
                f"{m['name']}={result['metrics'][m['name']]['value']:.6g}" for m in metrics),
                flush=True)
        record[w] = {"values": values, "ledgers": ledgers}
        if args.trace != "0":
            continue
        for m in metrics:
            xs = values[m["name"]]
            s = spread(xs)
            bound = m["bound"]
            flag = ""
            if s > bound:
                flag = "  EXCEEDS BOUND"
                ok = False
            elif s > bound / 3:
                flag = "  above a third of the bound"
            print(f"  {w} {m['name']}: median {statistics.median(xs):.6g} "
                  f"spread {s:.4f} (bound {bound}){flag}")

    if args.compare:
        with open(args.compare) as f:
            before = json.load(f)
        for w, rec in record.items():
            if w not in before:
                continue
            for seed, ledger in rec["ledgers"].items():
                old = before[w]["ledgers"].get(seed)
                if old is not None and old != ledger:
                    print(f"{w} seed {seed}: exact counts differ from --compare: "
                          f"{old} vs {ledger}")
                    ok = False
            if args.trace != "0":
                continue
            for m in metrics:
                m1 = statistics.median(before[w]["values"][m["name"]])
                m2 = statistics.median(rec["values"][m["name"]])
                change = (m2 - m1) / m1
                flag = "  WORSE THAN BOUND" if change > m["bound"] else ""
                if flag:
                    ok = False
                print(f"  {w} {m['name']}: median {m1:.6g} -> {m2:.6g} "
                      f"({change:+.2%}, bound {m['bound']}){flag}")

    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
