"""Per-process instrumentation for benchmark rounds.

Everything here wraps the simulator's public entry points from outside:
no file under ``src/`` is changed.  :func:`install` patches the layer
entry points in the round process before any pool worker is forked, so
forked workers inherit the same wrappers.

Three levels:

- 0 (the end-to-end run): only the per-simulation timer that
  ``sim_kips`` needs (host seconds inside ``OoOCore.run`` plus the
  committed count) and a stamp of the first simulation's start, which
  ends ``setup_s``.
- 1 (spans): adds a span around each layer's entry point and
  ``gc.callbacks`` pause accounting.  Cheap, so its split matches the
  untraced run's wall time.
- 2 (profile): level 1 plus one deterministic profiler per process,
  aggregated by package afterwards.  The profiler slows Python code
  several-fold but not GC or NumPy, so only its self times are used.

Each process keeps its records in memory.  The round process reads its
own directly; a pool worker writes its records to ``proc-<pid>.json``
(and its profile to ``proc-<pid>.pstats``) in the round's work directory
when it exits.
"""

from __future__ import annotations

import cProfile
import gc
import importlib
import json
import os
import pstats
import re
import sys
import time
from multiprocessing import util as mp_util

_PACKAGE_RE = re.compile(r"[/\\]repro[/\\]([A-Za-z_]+)(?:[/\\]|\.py$)")


class Recorder:
    """One process's measurements, kept in memory until the round ends."""

    def __init__(self):
        self.pid = os.getpid()
        self.first_sim_start = None
        self.sims = []            # [committed, cycles, ff_cycles, run_s]
        self.spans = {}           # span name -> [seconds, calls]
        self.counts = {}          # counter name -> value
        self.guest_bytes = []     # guest image size of every build
        self.gc_pause_s = 0.0
        self.gc_full = 0
        self.gc_collections = 0
        self.gc_by_package = {}   # package that triggered -> pause seconds
        self.gc_in_run_s = 0.0    # pauses inside OoOCore.run
        self.in_run = False
        self._gc_start = None
        self._gc_package = None
        self.profile = None

    def span(self, name, seconds):
        entry = self.spans.setdefault(name, [0.0, 0])
        entry[0] += seconds
        entry[1] += 1

    def count(self, name, amount=1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def to_dict(self):
        return {"pid": self.pid, "first_sim_start": self.first_sim_start,
                "sims": self.sims, "spans": self.spans,
                "counts": self.counts, "guest_bytes": self.guest_bytes,
                "gc_pause_s": self.gc_pause_s, "gc_full": self.gc_full,
                "gc_collections": self.gc_collections,
                "gc_by_package": self.gc_by_package,
                "gc_in_run_s": self.gc_in_run_s}


class _State:
    """Process-wide instrumentation state.

    Module-level on purpose: the wrappers are installed on shared
    classes and modules, and must find this process's recorder from any
    pool worker forked after :func:`install`.
    """

    recorder = None           # this process's Recorder
    root_pid = None           # the round process
    work_dir = None
    profile = False           # pool workers profile their jobs
    installed = False


def recorder():
    """This process's recorder; a forked worker gets a fresh one."""
    rec = _State.recorder
    if rec is None or rec.pid != os.getpid():
        rec = Recorder()
        _State.recorder = rec
        if rec.pid != _State.root_pid:
            if _State.profile:
                rec.profile = cProfile.Profile()
            # Runs when the pool worker exits (multiprocessing finalizer).
            mp_util.Finalize(None, _flush_worker, exitpriority=100)
    return rec


def _flush_worker():
    rec = _State.recorder
    if rec is None or rec.pid != os.getpid():
        return
    base = os.path.join(_State.work_dir, f"proc-{rec.pid}")
    if rec.profile is not None:
        rec.profile.dump_stats(base + ".pstats")
    with open(base + ".json.tmp", "w") as handle:
        json.dump(rec.to_dict(), handle)
    os.replace(base + ".json.tmp", base + ".json")


def worker_records(work_dir):
    """Records every pool worker of this round wrote on exit."""
    records = []
    for name in sorted(os.listdir(work_dir)):
        if name.startswith("proc-") and name.endswith(".json"):
            with open(os.path.join(work_dir, name)) as handle:
                records.append(json.load(handle))
    return records


def worker_profiles(work_dir):
    return [os.path.join(work_dir, name)
            for name in sorted(os.listdir(work_dir))
            if name.startswith("proc-") and name.endswith(".pstats")]


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------
def _timed(fn, name, after=None):
    """``fn`` wrapped to record every call as a span named ``name``."""
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        rec = recorder()
        rec.span(name, time.perf_counter() - start)
        if after is not None:
            after(rec, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _wrap(owner, attr, name, after=None):
    setattr(owner, attr, _timed(getattr(owner, attr), name, after))


def _on_gc(phase, info):
    rec = _State.recorder
    if rec is None or rec.pid != os.getpid():
        return
    if phase == "start":
        # The frame whose allocation triggered the collection: the
        # profiler charges the pause to it, so record whose it was.
        try:
            caller = sys._getframe(1).f_code.co_filename
        except ValueError:           # no Python frame (interpreter exit)
            caller = ""
        rec._gc_package = package_of(caller) or "other"
        rec._gc_start = time.perf_counter()
    elif rec._gc_start is not None:
        pause = time.perf_counter() - rec._gc_start
        rec.gc_pause_s += pause
        rec.gc_by_package[rec._gc_package] = (
            rec.gc_by_package.get(rec._gc_package, 0.0) + pause)
        if rec.in_run:
            rec.gc_in_run_s += pause
        rec._gc_start = None
        rec.gc_collections += 1
        if info.get("generation") == 2:
            rec.gc_full += 1


def install(work_dir, level=0):
    """Patch the layer entry points (once per round process)."""
    if _State.installed:
        raise RuntimeError("instrumentation is already installed")
    _State.installed = True
    _State.root_pid = os.getpid()
    _State.work_dir = work_dir
    _State.profile = level >= 2
    trace = level >= 1
    recorder()

    from repro.harness import runner
    from repro.uarch.core import OoOCore

    build = runner.build_spec_workload

    def build_spec_workload(spec):
        rec = recorder()
        if rec.first_sim_start is None:
            rec.first_sim_start = time.perf_counter()
        if not trace:
            return build(spec)
        start = time.perf_counter()
        built = build(spec)
        rec.span("workloads.build", time.perf_counter() - start)
        rec.guest_bytes.append(sys.getsizeof(built.memory.words))
        return built

    build_spec_workload.__wrapped__ = build
    runner.build_spec_workload = build_spec_workload

    core_run = OoOCore.run

    def run(self, max_instructions=None):
        rec = recorder()
        rec.in_run = True
        start = time.perf_counter()
        try:
            result = core_run(self, max_instructions)
        finally:
            rec.in_run = False
        elapsed = time.perf_counter() - start
        stats = self.stats
        rec.sims.append([stats.committed, stats.cycles,
                         stats.fast_forward_cycles, elapsed])
        return result

    run.__wrapped__ = core_run
    OoOCore.run = run

    if not trace:
        return

    from repro.jobs.cache import ResultCache
    from repro.jobs.ledger import RunLedger
    concretize_mod = importlib.import_module("repro.specs.concretize")
    from repro.specs.artifacts import ArtifactStore
    from repro.specs.registry import ANALYSES

    def cache_hit(rec, result):
        if result is not None:
            rec.count("jobs.cache_hits")

    _wrap(runner, "build_sim", "harness.assemble")
    _wrap(runner, "collect_metrics", "harness.collect")
    _wrap(ResultCache, "get", "jobs.cache", after=cache_hit)
    _wrap(ResultCache, "put", "jobs.cache")
    _wrap(RunLedger, "_append", "jobs.ledger")
    _wrap(ArtifactStore, "get", "specs.artifact")
    _wrap(ArtifactStore, "put", "specs.artifact")
    _wrap(concretize_mod, "concretize", "specs.concretize")
    for name in list(ANALYSES):
        ANALYSES[name] = _timed(ANALYSES[name], "specs.analysis")
    gc.callbacks.append(_on_gc)
    if level < 2:
        return

    # Pool workers profile each job; the round process profiles the whole
    # round itself (one profiler per thread can be active).
    run_spec = runner.run_spec

    def profiled_run_spec(spec):
        rec = recorder()
        if rec.profile is None:
            return run_spec(spec)
        rec.profile.enable()
        try:
            return run_spec(spec)
        finally:
            rec.profile.disable()

    profiled_run_spec.__wrapped__ = run_spec
    runner.run_spec = profiled_run_spec


# ---------------------------------------------------------------------------
# Profile aggregation by package
# ---------------------------------------------------------------------------
def package_of(filename):
    """The ``repro`` package a source file belongs to, else None."""
    if f"{os.sep}perfbench{os.sep}" in filename:
        return "bench"
    match = _PACKAGE_RE.search(filename)
    return match.group(1) if match else None


def self_time_by_package(profile_sources):
    """Aggregate profiles into ``(self seconds, call counts)`` per package.

    ``profile_sources`` are ``cProfile.Profile`` objects or ``.pstats``
    paths.  Self time of code outside the ``repro`` package (builtins,
    the standard library, NumPy) is charged to the package that called
    it, split by the time each caller accounted for, so a list
    comprehension's builtins count toward the layer that ran it.
    """
    merged = None
    for source in profile_sources:
        stats = pstats.Stats(source)
        if merged is None:
            merged = stats
        else:
            merged.add(stats)
    if merged is None:
        return {}, {}
    table = merged.stats
    shares_memo = {}

    def shares(func, depth, seen):
        pkg = package_of(func[0])
        if pkg is not None:
            return {pkg: 1.0}
        if func in shares_memo:
            return shares_memo[func]
        callers = table.get(func, (0, 0, 0.0, 0.0, {}))[4]
        if depth >= 8 or not callers or func in seen:
            return {"other": 1.0}
        weights = {caller: edge[2] for caller, edge in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            weights = {caller: edge[1] for caller, edge in callers.items()}
            total = sum(weights.values()) or 1
        result = {}
        for caller, weight in weights.items():
            for pkg, share in shares(caller, depth + 1,
                                     seen | {func}).items():
                result[pkg] = result.get(pkg, 0.0) + share * weight / total
        if depth == 0:
            shares_memo[func] = result
        return result

    self_s = {}
    for func, (_cc, _nc, tottime, _ct, _callers) in table.items():
        for pkg, share in shares(func, 0, frozenset()).items():
            self_s[pkg] = self_s.get(pkg, 0.0) + tottime * share
    calls = {}
    for func, entry in table.items():
        match = _PACKAGE_RE.search(func[0])
        if match:
            where = func[0][match.start() + len("/repro/"):]
            key = f"{where}:{func[2]}"
            calls[key] = calls.get(key, 0) + entry[1]
    return self_s, calls
