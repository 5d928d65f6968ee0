#!/usr/bin/env python3
"""Runs one workload several times and reports each metric's spread.

    python3 perfbench/spread.py --workload keyed_oltp --runs 10 [--seed0 1]
                                [--seconds 15] [--trace 0] [--save runs.json]

Run it from the root of the repository. Run i uses seed seed0 + i. For every
metric of the result line, and for the workload's statement-class metrics of
the DETAIL line, it prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the interquartile range as a share of
the median. For end-to-end metrics it also prints the bound from
BENCHMARK.json and marks a spread above a third of it ("wide") or above
the bound itself ("UNRESOLVED"): a change to such a metric smaller than the
spread cannot be told from noise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def check_result(result, bench, trace):
    """The result line carries exactly the metrics BENCHMARK.json names."""
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise SystemExit(f"result keys {sorted(result)}")
    want = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        raise SystemExit(f"metrics differ from BENCHMARK.json: {set(got) ^ set(want)}")
    for k, v in result["metrics"].items():
        if not isinstance(v["value"], (int, float)):
            raise SystemExit(f"metric {k} is not a number: {v['value']}")


def run_once(workload, seed, seconds, trace):
    here = os.path.dirname(os.path.abspath(__file__))
    cmd = [sys.executable, os.path.join(here, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run with seed {seed} failed (exit {proc.returncode})")
    result = json.loads(lines[-1])
    detail = {}
    for line in lines:
        if line.startswith("DETAIL "):
            detail = json.loads(line[len("DETAIL "):])
    if not result["correct"]:
        raise SystemExit(f"run with seed {seed} failed its correctness checks")
    return result, detail


def spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--save", help="write the raw values of every run here")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = []
    for i in range(args.runs):
        seed = args.seed0 + i
        result, detail = run_once(args.workload, seed, seconds, args.trace)
        check_result(result, bench, args.trace)
        runs.append({"seed": seed, "result": result, "detail": detail})
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']}",
              file=sys.stderr)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(runs, f, indent=1)

    def table(title, getter):
        names = list(getter(runs[0]).keys())
        print(f"{title} ({len(runs)} runs of {args.workload}, {seconds} s each)")
        print(f"  {'metric':<42} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'bound':>6}")
        for name in names:
            vals = [getter(r)[name]["value"] for r in runs]
            vals = [v for v in vals if v is not None]
            if not vals:
                continue
            med, q1, q3, rel = spread(vals)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "UNRESOLVED" if rel > bound else ("wide" if rel > bound / 3 else "")
            b = f"{bound:.2f}" if bound is not None else ""
            print(f"  {name:<42} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} {rel:>8.3f} {b:>6} {flag}")

    table("result metrics", lambda r: r["result"]["metrics"])
    if runs[0]["detail"].get("classes"):
        table("statement-class metrics", lambda r: r["detail"]["classes"])


if __name__ == "__main__":
    main()
