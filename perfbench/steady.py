#!/usr/bin/env python3
"""Steadiness self-check: runs each workload repeatedly and reports spreads.

    python3 perfbench/steady.py [--other CHECKOUT] [--sets 1|2]

Runs every workload of BENCHMARK.json ten times, with seeds 1 to 10, for
its run_seconds each. For every end-to-end metric it prints the median, the
quartiles (statistics.quantiles, n=4) and the spread (Q3-Q1)/median, next to
the metric's bound; a spread above the bound fails the check.

With --other, every seed is also run on a second checkout (its own
perfbench/run.py builds it into its own .bench_build/), alternating which
build goes first, and the second set's median is compared with the first's:
a metric "agrees" when the second median is not worse than the first by
more than the bound. With --sets 2 and no --other the same checkout is
measured twice, which is how the bounds were set: two sets of the same code
must agree. Also compares the share of failed operations between the sets.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    # Each checkout builds into its own directory, so that two checkouts
    # never share (and overwrite) one build.
    env = {**os.environ,
           "CARGO_TARGET_DIR": os.path.join(checkout, ".bench_build")}
    out = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"run failed: {' '.join(cmd)}")
    return json.loads(lines[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--other", help="second checkout to compare against")
    p.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = p.parse_args()

    checkouts = [ROOT]
    if args.other:
        checkouts.append(os.path.abspath(args.other))
    elif args.sets == 2:
        checkouts.append(ROOT)
    metrics = bench["end_to_end"]
    all_ok = True
    seconds = bench["run_seconds"]
    for workload in (w["name"] for w in bench["workloads"]):
        sets = [[] for _ in checkouts]
        for i in range(RUNS):
            seed = 1 + i
            order = list(range(len(checkouts)))
            if i % 2 == 1:
                order.reverse()
            for k in order:
                r = run_once(checkouts[k], workload, seed, seconds)
                if not r["correct"]:
                    print(f"{workload} seed {seed}: outputs incorrect")
                    all_ok = False
                sets[k].append(r)
        print(f"\n== {workload}: {RUNS} runs per set, {seconds:g} s each")
        shares = [sum(r["failed"] for r in s) / sum(r["attempted"] for r in s)
                  for s in sets]
        print("failed share: " + ", ".join(f"{x:.6f}" for x in shares))
        if len(sets) == 2 and shares[0] != shares[1]:
            print("  failed shares differ between the sets")
            all_ok = False
        print(f"{'metric':<20}{'set':>4}{'median':>16}{'q1':>16}{'q3':>16}"
              f"{'spread':>9}{'bound':>7}  verdict")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            meds = []
            for k, s in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in s]
                med, q1, q3, spread = summary(values)
                meds.append(med)
                ok = spread <= bound
                verdict = "ok" if ok else "SPREAD"
                if ok and spread > bound / 3:
                    verdict = "ok (above bound/3)"
                all_ok &= ok
                print(f"{name:<20}{k + 1:>4}{med:>16.6g}{q1:>16.6g}"
                      f"{q3:>16.6g}{spread:>9.4f}{bound:>7}  {verdict}")
            if len(meds) == 2:
                w = worse_by(meds[0], meds[1], m["better"])
                agree = w <= bound
                all_ok &= agree
                print(f"{'':<20}  second set worse by {w:+.4f}: "
                      f"{'agrees' if agree else 'DISAGREES'}")
    print("\nall within bounds" if all_ok else "\nNOT within bounds")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
