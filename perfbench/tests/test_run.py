import json
import shutil
import subprocess
import sys
import time

import pytest

import reference
import run
import spans
import workloads


def bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_smoke_end_to_end():
    out = bench("--workload", "small", "--seed", "5", "--seconds", "0", "--trace", "0")
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0
    assert res["attempted"] == 3 * run.MIN_REPS
    assert list(res["metrics"]) == [name for name, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_smoke_traced():
    out = bench("--workload", "small", "--seed", "5", "--seconds", "0", "--trace", "1")
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.splitlines()[-1])
    assert res["correct"] and res["attempted"] == 6
    assert list(res["metrics"]) == [name for name, _ in spans.PER_LAYER]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "small", "--seed", "0", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""


def test_benchmark_json_matches_the_benchmark():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == list(workloads.WHY.items())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(spans.PER_LAYER)


def test_stuck_process_is_killed_and_counted(tmp_path):
    runner = run.Runner(tmp_path, time.monotonic() + 0.5)
    assert runner.rep(workloads.configs("oracle", 0)) is None
    assert (runner.attempted, runner.failed) == (1, 1)
    assert runner.problems[0].startswith("OracleCompare: timed out")


def test_failing_scenario_is_counted(tmp_path):
    runner = run.Runner(tmp_path, time.monotonic() + 60)
    assert runner.rep([{"scenario": "NoSuchScenario"}]) is None
    assert (runner.attempted, runner.failed) == (1, 1)
    assert runner.problems[0].startswith("NoSuchScenario: exit code 2")


def test_times_are_scaled_by_the_reference(tmp_path):
    runner = run.Runner(tmp_path, time.monotonic() + 120)
    res = runner.rep(workloads.configs("small", 0)[:1])
    assert res is not None and res["ref_s"] > 0
    scale = reference.REF_S / res["ref_s"]
    for key in run.SCALED:
        assert res[key] == pytest.approx(res["raw"][key] * scale)
