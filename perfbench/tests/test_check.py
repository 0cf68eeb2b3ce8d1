import json

import pytest

import check

GOOD = {"scenario": "RateSweep1D", "fitted_exponent": 2.9927, "gamma": 1e-3,
        "files": ["rates.csv"]}


def write_run(tmp_path, summary=GOOD, csv_body="omega_m,rate\n0.001,1e-20\n"):
    (tmp_path / "summary.json").write_text(json.dumps(summary))
    (tmp_path / "rates.csv").write_text(csv_body)
    return tmp_path


def test_good_run_passes(tmp_path):
    assert check.check_run("RateSweep1D", 0, write_run(tmp_path)) == []


def test_nonzero_exit_fails(tmp_path):
    assert check.check_run("RateSweep1D", 3, write_run(tmp_path)) == ["exit code 3"]


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_summary_fails(tmp_path, bad):
    problems = check.check_run("RateSweep1D", 0,
                               write_run(tmp_path, {**GOOD, "gamma": bad}))
    assert any("non-finite" in p for p in problems)


@pytest.mark.parametrize("bad", ["nan", "inf", "NaN", "-Infinity"])
def test_non_finite_csv_fails(tmp_path, bad):
    problems = check.check_run("RateSweep1D", 0,
                               write_run(tmp_path, csv_body=f"omega_m,rate\n0.001,{bad}\n"))
    assert problems == ["rates.csv: non-finite number"]


def test_nested_nan_fails(tmp_path):
    summary = {**GOOD, "grid": {"length": [1.0, float("nan")]}}
    assert check.check_run("RateSweep1D", 0, write_run(tmp_path, summary))


def test_invariant_violation_fails(tmp_path):
    problems = check.check_run("RateSweep1D", 0,
                               write_run(tmp_path, {**GOOD, "fitted_exponent": 2.5}))
    assert problems == ["RateSweep1D: invariant failed: fitted_exponent within 0.05 of 3.0"]


def test_missing_summary_field_fails(tmp_path):
    summary = {k: v for k, v in GOOD.items() if k != "fitted_exponent"}
    assert check.check_run("RateSweep1D", 0, write_run(tmp_path, summary))


def test_missing_listed_file_fails(tmp_path):
    summary = {**GOOD, "files": ["rates.csv", "absent.csv"]}
    assert check.check_run("RateSweep1D", 0, write_run(tmp_path, summary))


def test_missing_summary_fails(tmp_path):
    assert check.check_run("RateSweep1D", 0, tmp_path)
