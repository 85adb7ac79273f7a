#!/usr/bin/env python3
"""Steadiness runner: repeats each workload N times with one seed and
reports, for every end-to-end metric, its median, quartiles and
spread ((Q3 - Q1) / median) against the bound in BENCHMARK.json.

    python3 perfbench/steady.py --seed 1 --runs 10 --save a.json
    python3 perfbench/steady.py --seed 1 --runs 10 --against a.json

Run from the root of a checkout. Every workload in BENCHMARK.json runs
at its run_seconds. Since every run does the same work, the spread is
run-to-run noise. A spread within a third of the bound is steady;
within the bound is accepted; beyond it is too noisy. With --against,
each median is also compared with the median of an earlier --save
file: a metric that got worse by more than its bound is flagged.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed}: run.py exited {done.returncode}")
    return json.loads(done.stdout.rstrip("\n").split("\n")[-1])


def worse_by(metric, before, after):
    """Relative worsening of `after` against `before` (negative = better)."""
    change = (after - before) / abs(before)
    return change if metric["better"] == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--save", help="write every value to this file")
    parser.add_argument("--against", help="compare medians with a --save file")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    earlier = {}
    if args.against:
        with open(args.against) as f:
            earlier = json.load(f)

    values = {}
    flagged = 0
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for i in range(args.runs):
            result = run_once(workload, args.seed, spec["run_seconds"])
            runs.append(result)
            print(f"{workload} run {i + 1}: failed {result['failed']}/"
                  f"{result['attempted']} " + " ".join(
                      f"{k}={v['value']:.4g}"
                      for k, v in result["metrics"].items()), flush=True)
        values[workload] = {m["name"]: [r["metrics"][m["name"]]["value"]
                                        for r in runs]
                            for m in spec["end_to_end"]}
        failed = sum(r["failed"] for r in runs)
        print(f"\n{workload}: {args.runs} runs of seed {args.seed}, "
              f"{failed} failed operations")
        print(f"  {'metric':<14} {'median':>10} {'q1':>10} {'q3':>10} "
              f"{'spread':>8} {'bound':>6}  verdict")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            vals = values[workload][name]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            if spread <= bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound"
            else:
                verdict = "TOO NOISY"
                flagged += 1
            old = earlier.get(workload, {}).get(name)
            if old:
                change = worse_by(metric, statistics.median(old), med)
                verdict += f"; {100 * change:+.1f}% vs earlier"
                if change > bound:
                    verdict += " WORSE THAN BOUND"
                    flagged += 1
            print(f"  {name:<14} {med:>10.4g} {q1:>10.4g} {q3:>10.4g} "
                  f"{spread:>8.3f} {bound:>6.2f}  {verdict}")
        print(flush=True)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f, indent=1)
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
