"""Steadiness check: repeated runs of every workload, against the bounds.

Usage (from the repository root)::

    python3 perfbench/steady.py run --runs 10 --out set-a.json
    python3 perfbench/steady.py run --runs 10 --out set-b.json
    python3 perfbench/steady.py compare set-a.json set-b.json

``run`` alternates between every workload in ``BENCHMARK.json`` (one
run of each, then the next seed), each run ``run_seconds`` long, using
seeds ``--seed0``, ``--seed0 + 1``, ...  It prints each end-to-end
metric's median, quartiles and spread (inter-quartile distance over the
median) beside the metric's bound, and saves the raw results.
``compare`` checks that the two sets' medians are no further apart, in
either direction, than the bound (a share of the first set's median),
and that both sets failed the same share of operations.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=200)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited with "
                         f"{done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def cmd_run(args):
    bench = _benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    results = {workload: [] for workload in workloads}
    for index in range(args.runs):
        for workload in workloads:
            seed = args.seed0 + index
            result = _run_once(workload, seed, seconds)
            result["seed"] = seed
            results[workload].append(result)
            shown = " ".join(f"{k}={v['value']:.4g}"
                             for k, v in result["metrics"].items())
            print(f"[{index + 1}/{args.runs}] {workload} seed={seed} "
                  f"correct={result['correct']} failed={result['failed']}/"
                  f"{result['attempted']} {shown}", flush=True)
    with open(args.out, "w") as handle:
        json.dump(results, handle, indent=1)
    report(results, bench)


def report(results, bench):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"{'workload':14} {'metric':12} {'median':>10} {'q1':>10} "
          f"{'q3':>10} {'spread':>7} {'bound':>6}  verdict")
    for workload, runs in results.items():
        for name, bound in bounds.items():
            values = [run["metrics"][name]["value"] for run in runs]
            median, q1, q3, spread = _summary(values)
            verdict = ("over bound" if spread > bound else
                       "over a third of bound" if spread > bound / 3 else
                       "steady")
            if name == "setup_s":
                verdict += " (spread not gated)"
            print(f"{workload:14} {name:12} {median:10.4f} {q1:10.4f} "
                  f"{q3:10.4f} {spread:7.3f} {bound:6.2f}  {verdict}")


def cmd_compare(args):
    bench = _benchmark()
    with open(args.first) as handle:
        first = json.load(handle)
    with open(args.second) as handle:
        second = json.load(handle)
    ok = True
    for workload in first:
        for metric in bench["end_to_end"]:
            name = metric["name"]
            a = statistics.median(r["metrics"][name]["value"]
                                  for r in first[workload])
            b = statistics.median(r["metrics"][name]["value"]
                                  for r in second[workload])
            moved = (b - a) / a
            verdict = "ok" if abs(moved) <= metric["bound"] else "MOVED"
            ok &= verdict == "ok"
            print(f"{workload:14} {name:12} first {a:10.4f} second "
                  f"{b:10.4f} moved {moved:+.3f} (bound "
                  f"{metric['bound']:.2f}) {verdict}")
        shares = [sum(r["failed"] for r in runs)
                  / sum(r["attempted"] for r in runs)
                  for runs in (first[workload], second[workload])]
        if shares[0] != shares[1]:
            ok = False
            print(f"{workload:14} failed share differs: {shares}")
    print("sets agree" if ok else "sets DISAGREE")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="repeated runs, alternating workloads")
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--seed0", type=int, default=1000)
    run.add_argument("--out", required=True)
    compare = sub.add_parser("compare", help="compare two saved sets")
    compare.add_argument("first")
    compare.add_argument("second")
    args = parser.parse_args(argv)
    if args.command == "run":
        cmd_run(args)
        return 0
    return cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
