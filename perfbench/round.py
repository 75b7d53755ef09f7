"""One benchmark round, in a fresh process.

``run.py`` starts one of these per round so that every round pays the
costs a user pays once per command: interpreter start, imports, graph
generation and a cold result cache.  Usage::

    python3 perfbench/round.py --workload suite-cold --seed 12345 \\
        --trace 0 --work DIR --t0 <time.perf_counter() at launch> [--tiny]

The last line of standard output is one JSON object: the round's times,
simulated-instruction totals, peak memory, operation counts, check
failures and statistics digest.  ``--trace 1`` adds the per-layer spans
(``layers``); ``--trace 2`` adds them and the profiled self time per
package (``profile``); see ``instrument.py``.
"""

from __future__ import annotations

import argparse
import cProfile
import importlib
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import instrument  # noqa: E402

#: The suites' specs, run in this order through one execution context.
SUITE_SPECS = ("suite_fig7.toml", "suite_fig12.toml")
#: Committed-instruction budget of every suite simulation (the ROI).
SUITE_BUDGET = 10000
#: The ROB size every spec point without a ROB knob runs at.
DEFAULT_ROB = 350
#: Process-pool width of ``suite-pool`` (the host has two cores).
POOL_WORKERS = 2

SIM_KERNELS = ("bfs", "pr", "cc", "bc")
SIM_TECHNIQUES = ("ooo", "dvr")
#: Commit limit far above any kernel's length: sims stop at HALT.
SIM_LIMIT = 10_000_000
#: (log2 nodes, average degree) of the sim-complete RMAT input.
SIM_GRAPH = (10, 8)

#: ``--tiny`` (the benchmark's own tests): one hpc-db kernel per suite
#: spec, a short ROI, and a 64-node graph.
TINY_LABELS = ("camel",)
TINY_BUDGET = 500
TINY_GRAPH = (6, 4)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("suite-cold", "suite-pool", "sim-complete"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1, 2), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--tiny", action="store_true")
    return parser.parse_args(argv)


def _peak_rss_kb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children)


def _simulated_counts(metrics_list):
    """Modelled-design totals over the round's distinct simulations."""
    issued = {}
    used = {}
    for metrics in metrics_list:
        for source, count in metrics.prefetch_issued.items():
            issued[source] = issued.get(source, 0) + count
        for source, count in metrics.prefetch_used.items():
            used[source] = used.get(source, 0) + count
    counts = {
        "uarch.cycles": sum(m.cycles for m in metrics_list),
        "uarch.committed": sum(m.committed for m in metrics_list),
        "memsys.dram_accesses": sum(sum(m.dram_accesses.values())
                                    for m in metrics_list),
        "branch.mispredicts": sum(m.branch_mispredicts
                                  for m in metrics_list),
    }
    for source in ("stride", "vr", "dvr"):
        total = issued.get(source, 0)
        counts[f"memsys.prefetch_accuracy.{source}"] = (
            used.get(source, 0) / total if total else 0.0)
    return counts


# ---------------------------------------------------------------------------
# Suites: two pinned specs through DagRunner
# ---------------------------------------------------------------------------
def _suite_document(name, seed, tiny):
    """Load a pinned spec and seed its GAP graph inputs."""
    from repro.specs.format import parse_toml
    with open(os.path.join(HERE, "specs", name)) as handle:
        document = parse_toml(handle.read())
    for group in document["matrix"]:
        entries = group["workloads"]
        if tiny:
            entries = [e for e in entries if e["label"] in TINY_LABELS]
            group["workloads"] = entries
        for entry in entries:
            if "graph" in entry.get("params", {}):
                entry["params"]["seed"] = seed
    return document


def run_suite(args, profiler):
    from repro.harness.experiments import ExperimentScale
    from repro.jobs.context import ExecutionContext
    from repro.jobs.executor import Executor
    from repro.jobs.ledger import RunLedger
    from repro.specs.dag import DagRunner
    concretize_mod = importlib.import_module("repro.specs.concretize")

    budget = TINY_BUDGET if args.tiny else SUITE_BUDGET
    jobs = POOL_WORKERS if args.workload == "suite-pool" else 1
    context = ExecutionContext(jobs=jobs,
                               cache_dir=os.path.join(args.work, "cache"),
                               store="", on_failure="report")
    scale = ExperimentScale(max_instructions=budget, seed=args.seed)

    # Keep the executor's (spec, metrics) pairs for the checks.
    returned = []
    executor_run = Executor.run

    def capture(self, specs):
        results = executor_run(self, specs)
        returned.extend(zip(specs, results))
        return results

    Executor.run = capture

    wall_start = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    runs = []
    for name in SUITE_SPECS:
        document = _suite_document(name, args.seed, args.tiny)
        dag = concretize_mod.concretize(document, scale)
        result = DagRunner(dag, context=context).run()
        result.render()              # the table text ends the user's wait
        runs.append((document, dag, result))
    if profiler is not None:
        profiler.disable()
    wall_s = time.perf_counter() - wall_start
    context.close()
    Executor.run = executor_run

    distinct = {}
    for spec, metrics in returned:
        if metrics is not None:
            distinct.setdefault(spec.key, (spec, metrics))
    sim_nodes = sum(len(dag.sim_nodes) for _doc, dag, _res in runs)
    analyses = sum(len(dag.analyses) for _doc, dag, _res in runs)
    skipped = sum(len(res.stats["skipped"]) for _doc, _dag, res in runs)

    # Each sim's disposition as the program recorded it: one ledger row
    # per job, with its cache column ("hit" or "miss") and its status.
    jobs = [row for row in RunLedger.read(context.ledger_path)
            if row.get("key")]
    cached = sum(row["cache"] == "hit" for row in jobs)
    failed_sims = sum(row["status"] == "failed" for row in jobs)
    executed = len(jobs) - cached - failed_sims

    failures = checks.check_ledger(
        [set(dag.sim_nodes) for _doc, dag, _res in runs], jobs)
    for spec, metrics in distinct.values():
        label = (f"{spec.label}/{spec.technique}/"
                 f"rob{spec.config.core.rob_size}")
        failures += checks.check_sim_metrics(label, metrics, budget,
                                             spec.config.core.width)
    ipc = {(spec.label, spec.technique, spec.config.core.rob_size):
           metrics.ipc for spec, metrics in distinct.values()}
    failures += _check_tables(runs, ipc)

    speedups = {}
    fig7_rows = runs[0][2].artifacts.get("table", {}).get("rows", [])
    if fig7_rows:
        headers = runs[0][2].artifacts["table"]["headers"]
        speedups = dict(zip(headers[1:], fig7_rows[-1][1:]))
    payload = {
        "sims": sorted([spec.key, metrics.to_dict()]
                       for spec, metrics in distinct.values()),
        "tables": [res.artifacts for _doc, _dag, res in runs],
    }
    return {
        "wall_s": wall_s,
        "ops": {"sims_attempted": sim_nodes, "sims_executed": executed,
                "sims_cached": cached, "sims_failed": failed_sims,
                "analyses_attempted": analyses,
                "analyses_skipped": skipped},
        "expected_timed_sims": executed,
        "failures": failures,
        "digest": checks.digest(payload),
        "speedups": speedups,
        "simulated": _simulated_counts(
            [metrics for _spec, metrics in distinct.values()]),
    }


def _check_tables(runs, ipc):
    failures = []
    for document, _dag, result in runs:
        for name, definition in document["analysis"].items():
            artifact = result.artifacts.get(name)
            title = f"{document['spec']['name']}.{name}"
            if artifact is None:
                failures.append(f"{title}: no table was produced")
                continue
            args = definition["args"]
            needs = definition["needs"]
            groups = {g["name"]: g for g in document["matrix"]}
            labels = [e["label"] for e in groups[needs[-1]]["workloads"]]
            try:
                if definition["fn"] == "speedup_table":
                    expected = checks.expected_speedup_rows(
                        ipc, labels, args["baseline"], args["columns"],
                        DEFAULT_ROB)
                else:
                    robs = groups[needs[-1]]["knobs"][args["rob_knob"]]
                    expected = checks.expected_rob_rows(
                        ipc, labels, robs, args["techniques"], DEFAULT_ROB)
            except KeyError as missing:
                failures.append(f"{title}: no simulation for {missing}")
                continue
            failures += checks.compare_rows(title, artifact["rows"],
                                            expected)
    return failures


# ---------------------------------------------------------------------------
# sim-complete: GAP kernels to HALT through build_spec_workload + run_built
# ---------------------------------------------------------------------------
def run_sim_complete(args, profiler):
    from repro.config import SimConfig
    from repro.harness import runner
    from repro.jobs.spec import JobSpec
    from repro.workloads.graphs import GRAPH_INPUTS, GraphSpec

    log2_nodes, degree = TINY_GRAPH if args.tiny else SIM_GRAPH
    graph = f"BENCH-RMAT{log2_nodes}"
    GRAPH_INPUTS[graph] = GraphSpec(graph, "rmat", log2_nodes, degree)
    specs = [JobSpec(workload=kernel,
                     params={"graph": graph, "seed": args.seed},
                     config=SimConfig(max_instructions=SIM_LIMIT)
                     .with_technique(technique),
                     seed=args.seed, label=f"{kernel}_{graph}")
             for kernel in SIM_KERNELS for technique in SIM_TECHNIQUES]

    failures = []
    committed = {}
    metrics_list = []
    failed = 0
    wall_start = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    for spec in specs:
        try:
            built = runner.build_spec_workload(spec)
            metrics = runner.run_built(built, spec.config)
        except Exception as error:   # counted, reported, round continues
            failed += 1
            failures.append(f"{spec.label}/{spec.technique}: {error!r}")
            continue
        failures += checks.check_guest_image(
            f"{spec.label}/{spec.technique}", built)
        del built
        committed[(spec.workload, spec.technique)] = metrics.committed
        metrics_list.append(metrics)
    if profiler is not None:
        profiler.disable()
    wall_s = time.perf_counter() - wall_start
    failures += checks.check_halted_pairs(committed, SIM_LIMIT)

    return {
        "wall_s": wall_s,
        "ops": {"sims_attempted": len(specs),
                "sims_executed": len(specs) - failed,
                "sims_cached": 0, "sims_failed": failed,
                "analyses_attempted": 0, "analyses_skipped": 0},
        "expected_timed_sims": len(specs) - failed,
        "failures": failures,
        "digest": checks.digest(sorted(
            [m.workload, m.technique, m.to_dict()] for m in metrics_list)),
        "speedups": {},
        "simulated": _simulated_counts(metrics_list),
    }


# ---------------------------------------------------------------------------
# Per-layer figures (traced rounds)
# ---------------------------------------------------------------------------
def _layers(records):
    """Span and GC figures of a traced round."""
    def span(name):
        return sum(r["spans"].get(name, [0.0, 0])[0] for r in records)

    def calls(name):
        return sum(r["spans"].get(name, [0.0, 0])[1] for r in records)

    sims = [sim for r in records for sim in r["sims"]]
    cycles = sum(sim[1] for sim in sims)
    guest = [size for r in records for size in r["guest_bytes"]]
    layers = {
        "workloads.build_s": span("workloads.build"),
        "workloads.builds": calls("workloads.build"),
        "isa.guest_mb": (statistics.median(guest) / 2 ** 20
                         if guest else 0.0),
        "harness.assemble_s": span("harness.assemble"),
        "harness.collect_s": span("harness.collect"),
        "runtime.gc_pause_s": sum(r["gc_pause_s"] for r in records),
        "runtime.gc_full_collections": sum(r["gc_full"] for r in records),
        "runtime.gc_collections": sum(r["gc_collections"] for r in records),
        "runtime.gc_in_run_s": sum(r["gc_in_run_s"] for r in records),
        "uarch.run_s": sum(sim[3] for sim in sims),
        "uarch.ff_cycle_ratio": (sum(sim[2] for sim in sims) / cycles
                                 if cycles else 0.0),
        "jobs.cache_s": span("jobs.cache"),
        "jobs.cache_hits": sum(r["counts"].get("jobs.cache_hits", 0)
                               for r in records),
        "jobs.ledger_s": span("jobs.ledger"),
        "specs.concretize_s": span("specs.concretize"),
        "specs.analysis_s": span("specs.analysis"),
        "specs.artifact_s": span("specs.artifact"),
    }
    return layers


def _profile(records, profiles):
    """Profiled self time per package, and call-count ratios."""
    self_s, call_counts = instrument.self_time_by_package(profiles)
    accesses = call_counts.get("memsys/hierarchy.py:access", 0)
    lookups = call_counts.get("memsys/cache.py:lookup", 0)
    figures = {"memsys.lookups_per_access":
               lookups / accesses if accesses else 0.0}
    # Self time less the GC pauses the package's own allocations set off
    # (those are reported once, under runtime).
    for package in ("workloads", "isa", "harness", "uarch", "memsys",
                    "branch", "runahead", "core"):
        gc_s = sum(r["gc_by_package"].get(package, 0.0) for r in records)
        figures[f"{package}.self_s"] = self_s.get(package, 0.0) - gc_s
    return figures


def main(argv=None):
    args = _parse_args(argv)
    os.environ["REPRO_PROGRESS"] = "0"
    os.makedirs(args.work, exist_ok=True)
    instrument.install(args.work, level=args.trace)
    profiler = cProfile.Profile() if args.trace == 2 else None
    body = run_sim_complete if args.workload == "sim-complete" else run_suite
    result = body(args, profiler)

    own = instrument.recorder().to_dict()
    records = [own] + instrument.worker_records(args.work)
    sims = [sim for record in records for sim in record["sims"]]
    executed = result.pop("expected_timed_sims")
    if len(sims) != executed:
        result["failures"].append(
            f"timed {len(sims)} simulations across {len(records)} "
            f"process(es), but the round records {executed} executed")
    starts = [r["first_sim_start"] for r in records
              if r["first_sim_start"] is not None]
    result["setup_s"] = min(starts) - args.t0 if starts else None
    result["kinst"] = sum(sim[0] for sim in sims) / 1000.0
    result["run_s"] = sum(sim[3] for sim in sims)
    result["rss_kb"] = _peak_rss_kb()
    if args.trace:
        result["layers"] = _layers(records)
    if args.trace == 2:
        profiles = [profiler] + instrument.worker_profiles(args.work)
        result["profile"] = _profile(records, profiles)
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
