import copy
import json
import math
import subprocess
import sys
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

    def test_pass_reports_largest_deviation(self, tmp_path, capsys):
        a = write_json(tmp_path / "a.json", {"P3": 1.0, "rate": 2.0, "n": 3})
        b = write_json(tmp_path / "b.json", {"P3": 1.0, "rate": 2.0 * (1 + 1e-10),
                                             "n": 3})
        assert cli.main(["compare", a, b]) == cli.EXIT_OK
        assert capsys.readouterr().out == (
            "PASS: 3 fields within tolerance, largest relative deviation "
            "1e-10 at rate\n")

    def test_pass_reports_largest_csv_deviation(self, tmp_path, capsys):
        a = write_csv(tmp_path / "a.csv", [["0.5", "2e-3"], ["0.25", "4e-3"]])
        b = write_csv(tmp_path / "b.csv", [["0.5", "2e-3"], ["0.25", "4.0000000002e-3"]])
        assert cli.main(["compare", a, b]) == cli.EXIT_OK
        assert capsys.readouterr().out == (
            "PASS: 4 fields within tolerance, largest relative deviation "
            "5e-11 at row 1 col y\n")

    @pytest.mark.parametrize("side", [0, 1])
    def test_short_csv_row_is_schema_mismatch(self, tmp_path, capsys, side):
        # zip over a row shorter than the header dropped the missing cell
        rows = [[["3"]], [["3", "4"]]]
        a = write_csv(tmp_path / "a.csv", rows[side])
        b = write_csv(tmp_path / "b.csv", rows[1 - side])
        assert cli.main(["compare", a, b]) == cli.EXIT_CONFIG == 2
        assert "cell count" in capsys.readouterr().err

    # the malformed CSV is not UTF-8
    UNREADABLE = {".json": {"empty": b"", "malformed": b'{"P3": 1.0,'},
                  ".csv": {"empty": b"", "malformed": b"x,y\n\xff,1\n"}}

    @pytest.mark.parametrize("case", ["missing", "empty", "malformed"])
    @pytest.mark.parametrize("suffix", [".json", ".csv"])
    @pytest.mark.parametrize("side", [0, 1])
    def test_unreadable_input_exits_2(self, tmp_path, capsys, case, suffix, side):
        good = tmp_path / f"good{suffix}"
        good.write_text('{"P3": 1.0}' if suffix == ".json" else "x,y\n0.5,1.0\n")
        bad = tmp_path / f"bad{suffix}"
        if case != "missing":
            bad.write_bytes(self.UNREADABLE[suffix][case])
        files = [str(good), str(good)]
        files[side] = str(bad)
        assert cli.main(["compare", *files]) == cli.EXIT_CONFIG == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot read {bad}")
        assert captured.out == ""

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

    @pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, number):
        # NaN passes every schema bound and crashed this run with exit 1
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"scenario": "Scattering3Photon", '
                       '"scattering": {"gamma": %s, "n_modes": 60}}' % number)
        rc = cli.main(["run", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == cli.EXIT_CONFIG == 2
        assert f"non-finite number {number}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("path", SCENARIO_CONFIGS, ids=lambda p: p.stem)
    def test_shipped_config_is_valid(self, path):
        cli.validate_config(json.loads(path.read_text()))

    def test_unknown_schema_keyword_is_refused(self, monkeypatch):
        schema = cli.load_schema()
        schema["properties"]["grid"]["properties"]["n_modes"]["multipleOf"] = 2
        monkeypatch.setattr(cli, "load_schema", lambda: schema)
        with pytest.raises(NotImplementedError, match="multipleOf"):
            cli.validate_config({"scenario": "DressingDump"})

    def test_validation_imports_no_jsonschema(self):
        code = ("import sys, json; from vacuum_shake import cli; "
                f"cli.validate_config(json.loads({json.dumps(json.dumps(self.BASE))})); "
                "assert 'jsonschema' not in sys.modules")
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={"PYTHONPATH": str(CONFIG_DIR.parent / "src")})

    def test_every_scenario_kind_is_shipped(self):
        kinds = {json.loads(p.read_text())["scenario"] for p in SCENARIO_CONFIGS}
        assert kinds == set(cli._SCENARIOS)


def _mutations():
    """(id, config) pairs: shipped configs and invalid variants of them."""
    shipped = {p.stem: json.loads(p.read_text()) for p in SCENARIO_CONFIGS}
    yield from shipped.items()

    def mutate(name, stem, edit):
        cfg = copy.deepcopy(shipped[stem])
        edit(cfg)
        return name, cfg

    yield mutate("string_n_modes", "scattering_3photon",
                 lambda c: c["scattering"].update(n_modes="700"))
    yield mutate("bool_gamma", "scattering_3photon",
                 lambda c: c["scattering"].update(gamma=True))
    yield mutate("float_n_max", "oracle_compare",
                 lambda c: c["oracle"].update(n_max=2.5))
    yield mutate("integral_float_n_max", "oracle_compare",
                 lambda c: c["oracle"].update(n_max=2.0))
    yield mutate("huge_int_n_max", "oracle_compare",
                 lambda c: c["oracle"].update(n_max=10 ** 400))
    yield mutate("zero_gamma_prime", "scattering_3photon",
                 lambda c: c["scattering"].update(gamma_prime=0.0))
    yield mutate("k_m_r_m_above_maximum", "rate_sweep_3d",
                 lambda c: c["profile"].update(k_m_r_m=0.2))
    yield mutate("x0_above_maximum", "scattering_3photon",
                 lambda c: c["scattering"].update(x0_over_packet_length=-0.5))
    yield mutate("unknown_top_level_key", "dressing_dump",
                 lambda c: c.update(seed=1))
    yield mutate("unknown_nested_key", "rate_sweep_1d",
                 lambda c: c.setdefault("sweep", {}).update(points=3))
    yield mutate("unknown_scenario", "dressing_dump",
                 lambda c: c.update(scenario="Dressing"))
    yield mutate("missing_scattering", "scattering_3photon",
                 lambda c: c.pop("scattering"))
    yield mutate("missing_residual", "transform_residual",
                 lambda c: c.pop("residual"))
    yield mutate("missing_scenario", "dressing_dump",
                 lambda c: c.pop("scenario"))
    yield mutate("short_dipole", "rate_sweep_3d",
                 lambda c: c["profile"].update(dipole_direction=[0.0, 1.0]))
    yield mutate("long_rhat", "rate_sweep_3d",
                 lambda c: c["profile"].update(rhat_m=[0.0, 0.0, 1.0, 0.0]))
    yield mutate("empty_xi_values", "transform_residual",
                 lambda c: c["residual"].update(xi_values=[]))
    yield mutate("string_in_array", "scattering_3photon",
                 lambda c: c["scattering"].update(slice_omegas=[0.5, "x"]))
    yield mutate("object_not_array", "oracle_compare",
                 lambda c: c["oracle"].update(mode_frequencies={"a": 1.0}))
    yield mutate("negative_time", "dressing_dump",
                 lambda c: c.setdefault("profile", {}).update(times=[0.0, -1.0]))


@pytest.mark.parametrize("cfg", [c for _, c in _mutations()],
                         ids=[name for name, _ in _mutations()])
def test_validator_agrees_with_jsonschema(cfg):
    jsonschema = pytest.importorskip("jsonschema")
    expected = jsonschema.Draft7Validator(cli.load_schema()).is_valid(cfg)
    try:
        cli.validate_config(copy.deepcopy(cfg))
    except cli.ConfigError:
        assert not expected
    else:
        assert expected
