"""The repository benchmark: spec-to-table wall time and simulator speed.

Usage (from the repository root)::

    python3 perfbench/run.py --workload suite-cold --seed 12345 \\
        --seconds 30 --trace 0

Runs whole rounds of one workload, each in a fresh process
(``round.py``), until ``--seconds`` have passed, then prints the
operation counts, the digest of every simulated statistic, the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) by name and unit, and as its last line one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 1`` repeats three rounds: untraced, spans only, and spans plus
a profiler.  It reports the span round's per-layer split, the profiled
round's self time per package, and each traced round's wall-time
overhead over the untraced one.  ``--tiny`` shrinks every workload for
the benchmark's own tests.  The program under test is the ``repro``
package in ``src/`` next to this directory; without it the command
fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")
WORKLOADS = ("suite-cold", "suite-pool", "sim-complete")
#: Every run, rounds included, ends well inside this many seconds.
RUN_DEADLINE_S = 170.0


def _declared_units():
    """``(end-to-end, per-layer)`` name -> unit, from ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    return tuple({m["name"]: m["unit"] for m in bench[kind]}
                 for kind in ("end_to_end", "per_layer"))


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        description="spec-to-table wall time and simulator speed")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=12345)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs (the benchmark's own tests)")
    return parser.parse_args(argv)


def _fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _run_round(args, work, trace, deadline):
    """One round in a fresh process group; returns its JSON result."""
    os.makedirs(work)
    command = [sys.executable, os.path.join(HERE, "round.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--trace", str(trace), "--work", work]
    if args.tiny:
        command.append("--tiny")
    env = dict(os.environ, REPRO_PROGRESS="0")
    t0 = time.perf_counter()
    process = subprocess.Popen(command + ["--t0", repr(t0)],
                               stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True, env=env,
                               start_new_session=True)
    try:
        out, err = process.communicate(
            timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        _fail(f"{args.workload} round did not finish before the run's "
              f"deadline")
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
    if process.returncode != 0 or not out.strip():
        sys.stderr.write(err)
        _fail(f"{args.workload} round exited with code "
              f"{process.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _rounds(args, work_dir):
    """Run rounds until ``--seconds`` have passed; returns them in order.

    Untraced runs repeat one round; traced runs repeat an (untraced,
    spans, profiled) triple, so every run attempts whole rounds.
    """
    pattern = (0, 1, 2) if args.trace else (0,)
    start = time.perf_counter()
    deadline = start + RUN_DEADLINE_S
    rounds = []
    longest = 0.0
    while True:
        for trace in pattern:
            round_start = time.perf_counter()
            result = _run_round(args, os.path.join(
                work_dir, f"round-{len(rounds)}"), trace, deadline)
            result["trace"] = trace
            rounds.append(result)
            longest = max(longest, time.perf_counter() - round_start)
        elapsed = time.perf_counter() - start
        if (elapsed >= args.seconds
                or elapsed + len(pattern) * longest > RUN_DEADLINE_S - 10):
            return rounds


def _end_to_end(rounds):
    """Median over rounds (peak memory: the largest of any round)."""
    return {
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "sim_kips": statistics.median(r["kinst"] / r["run_s"]
                                      for r in rounds),
        "peak_rss_mb": max(r["rss_kb"] for r in rounds) / 1024.0,
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
    }


def _per_layer(rounds):
    """Medians of the span rounds' split and the profiled rounds' self
    times, and the wall-time overhead of each traced level."""
    def level(n):
        return [r for r in rounds if r["trace"] == n]

    def median(key, selected):
        return statistics.median(r[key] for r in selected)

    layers = {}
    for key, selected in (("layers", level(1)), ("profile", level(2))):
        for name in selected[0][key]:
            layers[name] = statistics.median(r[key][name] for r in selected)
    plain = median("wall_s", level(0))
    layers["trace.wall_s"] = median("wall_s", level(1))
    layers["trace.overhead"] = layers["trace.wall_s"] / plain
    layers["trace.profile_overhead"] = median("wall_s", level(2)) / plain
    return layers


def main(argv=None):
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        _fail(f"no program to measure: {os.path.join(ROOT, 'src', 'repro')} "
              f"is missing")
    if args.seconds <= 0:
        _fail("--seconds must be positive")
    work_dir = os.path.join(WORK_ROOT, f"run-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    try:
        rounds = _rounds(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass                     # another run still uses it

    ops = {}
    for result in rounds:
        for key, value in result["ops"].items():
            ops[key] = ops.get(key, 0) + value
    attempted = ops["sims_attempted"] + ops["analyses_attempted"]
    failed = ops["sims_failed"] + ops["analyses_skipped"]
    failures = [f for result in rounds for f in result["failures"]]
    digests = sorted({result["digest"] for result in rounds})
    if len(digests) != 1:
        failures.append(f"rounds disagree on the statistics digest: "
                        f"{digests}")
    for failure in failures[:20]:
        print(f"check failed: {failure}")

    print(f"ops {args.workload}: rounds={len(rounds)} "
          f"sims attempted={ops['sims_attempted']} "
          f"executed={ops['sims_executed']} cached={ops['sims_cached']} "
          f"failed={ops['sims_failed']}; "
          f"analyses attempted={ops['analyses_attempted']} "
          f"skipped={ops['analyses_skipped']}")
    print(f"digest {args.workload} seed={args.seed}: {digests[0]}")
    if rounds[0]["speedups"]:
        print(f"speedups {args.workload} seed={args.seed} (h-mean over "
              f"OoO, simulated): " + " ".join(
                  f"{name}={value:.3f}"
                  for name, value in rounds[0]["speedups"].items()))
    # Counts of the modelled design: equal digests imply equal counts.
    print(f"simulated {args.workload} seed={args.seed}: " + " ".join(
        f"{name}={value:.6g}"
        for name, value in rounds[0]["simulated"].items()))
    end_to_end, per_layer = _declared_units()
    units = per_layer if args.trace else end_to_end
    values = _per_layer(rounds) if args.trace else _end_to_end(rounds)
    if set(values) != set(units):
        _fail(f"measured metrics {sorted(values)} differ from those "
              f"BENCHMARK.json declares: {sorted(units)}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    for name, metric in metrics.items():
        print(f"metric {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
