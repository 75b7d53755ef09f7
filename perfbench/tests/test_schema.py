"""Run every workload at a tiny size and check the output contract."""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(workload, trace, seed=12345, cwd=ROOT, bench=BENCH):
    command = [sys.executable, os.path.join(bench, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def _result(done):
    assert done.returncode == 0, done.stderr
    return done.stdout, json.loads(done.stdout.strip().splitlines()[-1])


def _check_schema(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float))


@pytest.fixture(scope="module")
def untraced():
    return {workload: _result(_run(workload, 0)) for workload in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_schema(untraced, workload):
    stdout, result = untraced[workload]
    _check_schema(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert f"digest {workload} seed=12345: " in stdout
    assert f"ops {workload}: " in stdout


def test_serial_and_pool_suites_simulate_identically(untraced):
    def digest(stdout):
        return next(line.split(": ")[1] for line in stdout.splitlines()
                    if line.startswith("digest "))
    assert (digest(untraced["suite-cold"][0])
            == digest(untraced["suite-pool"][0]))


def test_seed_changes_the_inputs(untraced):
    stdout, _result_ = _result(_run("sim-complete", 0, seed=4242))
    assert "digest sim-complete seed=4242: " in stdout
    assert stdout.split("digest ")[1] != untraced["sim-complete"][0] \
        .split("digest ")[1]


def test_traced_run_reports_every_layer_metric():
    stdout, result = _result(_run("suite-pool", 1))
    _check_schema(result, SPEC["per_layer"])
    simulated = next(line for line in stdout.splitlines()
                     if line.startswith("simulated suite-pool "))
    for name in ("uarch.cycles", "uarch.committed", "memsys.dram_accesses",
                 "memsys.prefetch_accuracy.dvr", "branch.mispredicts"):
        assert f" {name}=" in simulated


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("suite-cold", 0, cwd=tmp_path,
                bench=str(tmp_path / "perfbench"))
    assert done.returncode != 0
    assert done.stdout.strip() == ""
