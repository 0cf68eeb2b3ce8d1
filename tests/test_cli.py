import json
import math
from pathlib import Path

import pytest

from vacuum_shake import cli

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
SCENARIO_CONFIGS = sorted(p for p in CONFIG_DIR.glob("*.json")
                          if "scenario" in json.loads(p.read_text()))


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def write_csv(path, rows):
    path.write_text("".join(",".join(r) + "\n" for r in [["x", "y"], *rows]))
    return str(path)


class TestCompare:
    def test_equal_json_passes(self, tmp_path):
        a = write_json(tmp_path / "a.json", {"P3": 1.0, "n": 3})
        b = write_json(tmp_path / "b.json", {"P3": 1.0 + 1e-12, "n": 3})
        assert cli.main(["compare", a, b]) == cli.EXIT_OK

    def test_deviating_json_fails(self, tmp_path):
        a = write_json(tmp_path / "a.json", {"P3": 1.0})
        b = write_json(tmp_path / "b.json", {"P3": 1.1})
        assert cli.main(["compare", a, b]) == cli.EXIT_COMPARE_FAIL

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("side", [0, 1])
    def test_non_finite_json_fails(self, tmp_path, bad, side):
        vals = [1.0, 1.0]
        vals[side] = bad
        a = write_json(tmp_path / "a.json", {"nested": {"P3": vals[0]}})
        b = write_json(tmp_path / "b.json", {"nested": {"P3": vals[1]}})
        assert cli.main(["compare", a, b]) == cli.EXIT_COMPARE_FAIL

    def test_nan_against_nan_json_fails(self, tmp_path):
        a = write_json(tmp_path / "a.json", {"P3": math.nan})
        b = write_json(tmp_path / "b.json", {"P3": math.nan})
        assert cli.main(["compare", a, b]) == cli.EXIT_COMPARE_FAIL

    def test_equal_csv_passes(self, tmp_path):
        a = write_csv(tmp_path / "a.csv", [["0.5", "2e-3"]])
        b = write_csv(tmp_path / "b.csv", [["0.5", "2e-3"]])
        assert cli.main(["compare", a, b]) == cli.EXIT_OK

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("side", [0, 1])
    def test_non_finite_csv_fails(self, tmp_path, bad, side):
        cells = ["1.0", "1.0"]
        cells[side] = bad
        a = write_csv(tmp_path / "a.csv", [["0.5", cells[0]]])
        b = write_csv(tmp_path / "b.csv", [["0.5", cells[1]]])
        assert cli.main(["compare", a, b]) == cli.EXIT_COMPARE_FAIL

    def test_inf_against_inf_csv_fails(self, tmp_path):
        a = write_csv(tmp_path / "a.csv", [["0.5", "inf"]])
        b = write_csv(tmp_path / "b.csv", [["0.5", "inf"]])
        assert cli.main(["compare", a, b]) == cli.EXIT_COMPARE_FAIL

    def test_tolerance_file_applies_per_field(self, tmp_path):
        a = write_json(tmp_path / "a.json", {"rate": 1.0})
        b = write_json(tmp_path / "b.json", {"rate": 1.0 + 1e-7})
        tol = write_json(tmp_path / "tol.json", {"fields": {"rate": {"rel": 1e-6}}})
        assert cli.main(["compare", a, b]) == cli.EXIT_COMPARE_FAIL
        assert cli.main(["compare", a, b, "--tol-file", tol]) == cli.EXIT_OK


class TestValidateConfig:
    BASE = {"scenario": "AppendixAVerify",
            "residual": {"xi_values": [0.04], "n_modes": 1, "n_max": 2}}

    @pytest.mark.parametrize("extra", [
        {"seed": 0},
        {"tolerances": {"quadrature_rel": 1e-9}},
        {"scattering": {"gamma": 0.01, "gamma_prime": 0.01,
                        "band_halfwidth_over_gamma": 20.0}},
    ], ids=["seed", "quadrature_rel", "band_halfwidth_over_gamma"])
    def test_removed_keys_exit_2(self, tmp_path, extra):
        cli.validate_config(json.loads(json.dumps(self.BASE)))  # valid without it
        cfg = write_json(tmp_path / "cfg.json", {**self.BASE, **extra})
        rc = cli.main(["run", cfg, "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_CONFIG == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("path", SCENARIO_CONFIGS, ids=lambda p: p.stem)
    def test_shipped_config_is_valid(self, path):
        cli.validate_config(json.loads(path.read_text()))

    def test_every_scenario_kind_is_shipped(self):
        kinds = {json.loads(p.read_text())["scenario"] for p in SCENARIO_CONFIGS}
        assert kinds == set(cli._SCENARIOS)
