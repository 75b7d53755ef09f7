"""Each correctness check passes on a real result and fails on a
corrupted one (one guest word flipped, one IPC or count changed)."""

from types import SimpleNamespace

import pytest

import checks
from repro.config import SimConfig
from repro.harness.metrics import Metrics
from repro.harness.runner import build_spec_workload, run_built
from repro.jobs.spec import JobSpec
from repro.specs.registry import rob_sweep, speedup_table
from repro.workloads.graphs import GRAPH_INPUTS, GraphSpec

GRAPH = "PERFBENCH-TEST6"
GRAPH_INPUTS[GRAPH] = GraphSpec(GRAPH, "rmat", 6, 4)


def _config(technique, limit):
    config = SimConfig(max_instructions=limit).with_technique(technique)
    config.memsys.guest_memory_bytes = 1 << 20
    return config


def _run(kernel, technique, limit=1_000_000):
    spec = JobSpec(workload=kernel, params={"graph": GRAPH, "seed": 3},
                   config=_config(technique, limit), seed=3)
    built = build_spec_workload(spec)
    before = list(built.memory.words)
    metrics = run_built(built, spec.config)
    return built, before, metrics


def test_guest_image_check_catches_one_flipped_word():
    built, before, _metrics = _run("cc", "dvr")
    assert checks.check_guest_image("cc", built) == []
    words = built.memory.words
    changed = next(i for i, (old, new) in enumerate(zip(before, words))
                   if old != new)
    words[changed] ^= 1
    assert checks.check_guest_image("cc", built)


def test_halted_pairs_check():
    _b, _w, ooo = _run("bfs", "ooo")
    _b, _w, dvr = _run("bfs", "dvr")
    good = {("bfs", "ooo"): ooo.committed, ("bfs", "dvr"): dvr.committed}
    assert checks.check_halted_pairs(good, 1_000_000) == []
    assert checks.check_halted_pairs(
        {**good, ("bfs", "dvr"): dvr.committed - 1}, 1_000_000)
    assert checks.check_halted_pairs(good, ooo.committed)   # hit the limit


@pytest.fixture(scope="module")
def roi_metrics():
    _b, _w, metrics = _run("pr", "dvr", limit=400)
    return metrics


def _copy(metrics, **changes):
    data = metrics.to_dict()
    data.update(changes)
    return Metrics.from_dict(data)


def test_sim_metrics_check_passes_on_a_real_roi(roi_metrics):
    assert checks.check_sim_metrics("bfs", roi_metrics, 400, 5) == []


def test_sim_metrics_check_catches_budget_overrun(roi_metrics):
    bad = _copy(roi_metrics, committed=405)
    assert checks.check_sim_metrics("bfs", bad, 400, 5)


def test_sim_metrics_check_catches_cpi_stack_mismatch(roi_metrics):
    stack = dict(roi_metrics.cpi_stack)
    stack["base"] += 0.01
    bad = _copy(roi_metrics, cpi_stack=stack)
    assert checks.check_sim_metrics("bfs", bad, 400, 5)


def test_sim_metrics_check_catches_overused_prefetches(roi_metrics):
    used = dict(roi_metrics.prefetch_used)
    used["stride"] = roi_metrics.prefetch_issued.get("stride", 0) + 1
    bad = _copy(roi_metrics, prefetch_used=used)
    assert checks.check_sim_metrics("bfs", bad, 400, 5)


def test_ledger_check_catches_a_lost_cache_hit():
    nodes = [{"sim:a", "sim:b"}, {"sim:b", "sim:c"}]
    rows = [{"key": "a", "cache": "miss"}, {"key": "b", "cache": "miss"},
            {"key": "b", "cache": "hit"}, {"key": "c", "cache": "miss"}]
    assert checks.check_ledger(nodes, rows) == []
    assert checks.check_ledger(nodes, rows[:2] + [
        {"key": "b", "cache": "miss"}] + rows[3:])
    assert checks.check_ledger(nodes, rows[:3])


# ---------------------------------------------------------------------------
# Tables: the program's analysis functions against the recomputation
# ---------------------------------------------------------------------------
LABELS = ["bfs_KR", "camel"]
IPC = {("bfs_KR", "ooo", 350): 0.31, ("bfs_KR", "dvr", 350): 0.77,
       ("bfs_KR", "ooo", 128): 0.22, ("bfs_KR", "dvr", 128): 0.52,
       ("camel", "ooo", 350): 0.45, ("camel", "dvr", 350): 0.47,
       ("camel", "ooo", 128): 0.30, ("camel", "dvr", 128): 0.41}


class _Group:
    """Duck-typed matrix group over an IPC map (what analyses read)."""

    def __init__(self, ipc, techniques, axes):
        self.ipc = ipc
        self.labels = LABELS
        self.techniques = techniques
        self.axes = axes

    def metrics(self, label, technique, point=None):
        rob = (point or {}).get("core.rob_size", 350)
        ipc = self.ipc[(label, technique, rob)]
        return SimpleNamespace(
            ipc=ipc, rob_full_fraction=0.0,
            speedup_over=lambda base: ipc / base.ipc)


def _fig7(ipc):
    group = _Group(ipc, ["ooo", "dvr"], {})
    return speedup_table({"grid": group}, {"baseline": "ooo",
                                           "columns": ["dvr"]})["rows"]


def _fig12(ipc):
    base = _Group(ipc, ["ooo"], {})
    sweep = _Group(ipc, ["ooo", "dvr"], {"core.rob_size": [128, 350]})
    return rob_sweep({"base": base, "sweep": sweep},
                     {"techniques": ["ooo", "dvr"],
                      "rob_knob": "core.rob_size",
                      "extra": "ratio"})["rows"]


def _one_ipc_changed():
    corrupted = dict(IPC)
    corrupted[("camel", "dvr", 350)] *= 1.01
    return corrupted


def test_speedup_table_matches_recomputation():
    expected = checks.expected_speedup_rows(IPC, LABELS, "ooo", ["dvr"], 350)
    assert checks.compare_rows("fig7", _fig7(IPC), expected) == []
    assert checks.compare_rows("fig7", _fig7(_one_ipc_changed()), expected)


def test_rob_sweep_matches_recomputation():
    expected = checks.expected_rob_rows(IPC, LABELS, [128, 350],
                                        ["ooo", "dvr"], 350)
    assert checks.compare_rows("fig12", _fig12(IPC), expected) == []
    assert checks.compare_rows("fig12", _fig12(_one_ipc_changed()), expected)
