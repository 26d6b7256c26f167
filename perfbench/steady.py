#!/usr/bin/env python3
"""Steadiness tooling for the benchmark.

Run one workload N times on consecutive seeds and summarise every
end-to-end metric as median, quartiles and spread against its bound:

    python3 perfbench/steady.py run --workload koe-mega --runs 10 --first-seed 1 \
        --save .perfbench/koe-a.json

Compare two saved sets (the second against the first):

    python3 perfbench/steady.py compare .perfbench/koe-a.json .perfbench/koe-b.json

The spread is the distance between the first and third quartile, as
`statistics.quantiles(values, n=4)` gives them, as a share of the median. A
set is steady when every spread is within its bound; two sets agree when no
median got worse by more than its bound. Run from the root of a checkout;
bounds and the run length come from BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(workload, seed, seconds):
    started = time.time()
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["seed"] = seed
    result["invalid"] = [line for line in lines if line.startswith("# INVALID")]
    result["wall_s"] = time.time() - started
    return result


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def report(workload, runs, bench):
    print(f"{workload}: {len(runs)} runs, seeds {[r['seed'] for r in runs]}")
    bad = [r["seed"] for r in runs if not r["correct"] or r["failed"]]
    if bad:
        print(f"  INCORRECT runs on seeds {bad}")
    invalid = [r["seed"] for r in runs if r.get("invalid")]
    if invalid:
        print(f"  INVALID measurements (generator fell behind) on seeds {invalid}")
    steady = not bad
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [r["metrics"][name]["value"] for r in runs]
        median, q1, q3, spread = summarise(values)
        verdict = "ok" if spread <= bound / 3 else ("within bound" if spread <= bound else "OVER BOUND")
        if spread > bound:
            steady = False
        print(f"  {name:<16} median {median:12.4f}  q1 {q1:12.4f}  q3 {q3:12.4f}  "
              f"spread {spread:6.3f} / bound {bound:.3f}  {verdict}")
    print(f"  wall per run: median {statistics.median(r['wall_s'] for r in runs):.1f} s, "
          f"max {max(r['wall_s'] for r in runs):.1f} s")
    return steady


def cmd_run(args):
    bench = load_benchmark()
    seconds = bench["run_seconds"]
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result = run_once(args.workload, seed, seconds)
        runs.append(result)
        values = ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        flag = " INVALID" if result["invalid"] else ""
        print(f"  seed {seed}: correct={result['correct']}{flag} {values} ({result['wall_s']:.1f} s)",
              flush=True)
    if args.save:
        os.makedirs(os.path.dirname(args.save) or ".", exist_ok=True)
        with open(args.save, "w") as f:
            json.dump({"workload": args.workload, "seconds": seconds, "runs": runs}, f, indent=1)
    return 0 if report(args.workload, runs, bench) else 1


def cmd_compare(args):
    bench = load_benchmark()
    sets = []
    for path in (args.first, args.second):
        with open(path) as f:
            sets.append(json.load(f))
    if sets[0]["workload"] != sets[1]["workload"]:
        raise SystemExit("the two sets ran different workloads")
    agree = True
    print(f"{sets[0]['workload']}: second set against the first")
    for metric in bench["end_to_end"]:
        name, bound, better = metric["name"], metric["bound"], metric["better"]
        a, b = (statistics.median(r["metrics"][name]["value"] for r in s["runs"]) for s in sets)
        worse = (b - a) / a if better == "lower" else (a - b) / a
        verdict = "ok" if worse <= bound else "WORSE BEYOND BOUND"
        agree &= worse <= bound
        print(f"  {name:<16} {a:12.4f} -> {b:12.4f}  worse by {worse:+.3f} / bound {bound:.3f}  {verdict}")
    return 0 if agree else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one workload N times and report spreads")
    run.add_argument("--workload", required=True)
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--first-seed", type=int, default=1)
    run.add_argument("--save", default=None)
    run.set_defaults(func=cmd_run)
    compare = sub.add_parser("compare", help="compare two saved sets of runs")
    compare.add_argument("first")
    compare.add_argument("second")
    compare.set_defaults(func=cmd_compare)
    args = parser.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
