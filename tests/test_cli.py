import copy
import decimal
import importlib.util
import json
import math
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from vacuum_shake import cli

from conftest import subprocess_env

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

    @pytest.mark.parametrize("pair", [(1, True), (0, False), (1.0, True),
                                      (True, 1), (False, 0.0), ("1", 1)])
    def test_type_change_json_fails(self, tmp_path, pair):
        # bool is an int subclass: True == 1 must not pass as equal numbers
        a = write_json(tmp_path / "a.json", {"x": pair[0]})
        b = write_json(tmp_path / "b.json", {"x": pair[1]})
        assert cli.main(["compare", a, b]) == cli.EXIT_COMPARE_FAIL

    def test_equal_booleans_pass(self, tmp_path):
        a = write_json(tmp_path / "a.json", {"x": True, "n": 1})
        b = write_json(tmp_path / "b.json", {"x": True, "n": 1.0})
        assert cli.main(["compare", a, b]) == cli.EXIT_OK

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

    # one file has a row more, other columns, or the same rows under other
    # columns; a repeated column would let one column's cells go unread
    @pytest.mark.parametrize("texts", [
        ("x,y\n1,2\n", "x,y\n1,2\n3,4\n"), ("x,y\n1,2\n", "x,z\n1,2\n"),
        ("x,y\n", "x,z\n"), ("x,y\n", "y,x\n"), ("x,x\n1,2\n", "x,x\n1,2\n"),
        ("x,y\n1,2\n", '{"x": 1, "y": 2}'),
    ], ids=["rows", "columns", "columns_no_rows", "column_order", "repeated_column",
            "csv_json"])
    def test_csv_schema_mismatch_exits_2(self, tmp_path, texts):
        files = []
        for name, text in zip("ab", texts):
            path = tmp_path / (name + (".json" if text.startswith("{") else ".csv"))
            path.write_text(text)
            files.append(str(path))
        assert cli.main(["compare", *files]) == cli.EXIT_CONFIG == 2

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

    def test_list_element_takes_its_list_tolerance(self, tmp_path):
        # an element of a list once took the tolerance of its index, "0"
        a = write_json(tmp_path / "a.json", {"r": [1.0], "s": 1.0})
        b = write_json(tmp_path / "b.json", {"r": [1.0000001], "s": 1.0000001})
        tol = write_json(tmp_path / "tol.json",
                         {"fields": {"r": {"rel": 1e-6}, "s": {"rel": 1e-6}}})
        assert cli.main(["compare", a, b, "--tol-file", tol]) == cli.EXIT_OK

    # a 33% deviation (2 against 3) that passes only if a bound is ignored
    # or made NaN or inf
    @pytest.mark.parametrize("text", [
        "[1]", '{"fields": {"rate": 0.5}}', '{"default_rel": "x"}',
        '{"default_rel": NaN}', '{"default_rel": Infinity}', '{"default_abs": -1}',
        '{"fields": {"y": {"rel": true}}}', '{"fields": [1]}', '{"default_rell": 1}',
    ], ids=["list", "bare_field_bound", "string", "nan", "inf", "negative",
            "boolean", "fields_list", "unknown_key"])
    def test_malformed_tolerance_file_exits_2(self, tmp_path, capsys, text):
        a = write_csv(tmp_path / "a.csv", [["2", "2"]])
        b = write_csv(tmp_path / "b.csv", [["3", "3"]])
        tol = tmp_path / "tol.json"
        tol.write_text(text)
        assert cli.main(["compare", a, b, "--tol-file", str(tol)]) == cli.EXIT_CONFIG == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot read tolerance file")
        assert captured.err.count("\n") == 1 and captured.out == ""

    def test_shipped_tolerance_file_loads(self):
        path = CONFIG_DIR / "compare_tolerances.json"
        assert cli._load_tolerances(path) == json.loads(path.read_text())


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

    def test_schema_is_a_fresh_copy_per_call(self):
        # the file is read once per process; a caller's edits stay its own
        schema = cli.load_schema()
        schema["properties"].clear()
        assert cli.load_schema()["properties"]
        assert cli.load_schema() is not cli.load_schema()

    def test_unknown_schema_keyword_is_refused(self, monkeypatch):
        schema = cli.load_schema()
        schema["properties"]["grid"]["properties"]["n_modes"]["multipleOf"] = 2
        monkeypatch.setattr(cli, "load_schema", lambda: schema)
        cli._checked_schema.cache_clear()  # the shipped schema passed
        with pytest.raises(NotImplementedError, match="multipleOf"):
            cli.validate_config({"scenario": "DressingDump"})

    def test_schema_keywords_are_checked_once(self, monkeypatch):
        walked = []
        walk = cli._unsupported_keywords
        monkeypatch.setattr(cli, "_unsupported_keywords",
                            lambda schema: walked.append(1) or walk(schema))
        cli._checked_schema.cache_clear()
        cli.validate_config(json.loads(json.dumps(self.BASE)))
        first = len(walked)
        cli.validate_config(json.loads(json.dumps(self.BASE)))
        assert first > 0 and len(walked) == first

    def test_validation_imports_no_jsonschema(self):
        code = ("import sys, json; from vacuum_shake import cli; "
                f"cli.validate_config(json.loads({json.dumps(json.dumps(self.BASE))})); "
                "assert 'jsonschema' not in sys.modules")
        subprocess.run([sys.executable, "-c", code], check=True,
                       env=subprocess_env())

    def test_scenario_run_imports_stay_within_budget(self):
        # a scenario run needs none of these modules; ``-S`` because ``site``
        # may import importlib.resources itself, so numpy's directory goes
        # on PYTHONPATH by hand
        code = ("import sys, json; from vacuum_shake import cli; cli.load_schema(); "
                f"cli.validate_config(json.loads({json.dumps(json.dumps(self.BASE))})); "
                "print([m for m in ('dataclasses', 'argparse', 'csv', 'importlib.resources',"
                "'pathlib')"
                " if m in sys.modules])")
        out = subprocess.run([sys.executable, "-S", "-c", code], check=True,
                             capture_output=True, text=True,
                             env=subprocess_env(str(Path(np.__file__).parents[1])))
        assert out.stdout == "[]\n"

    @pytest.mark.parametrize("workload", ["scatter3", "oracle", "rates3d", "small"])
    def test_benchmark_configs_are_valid(self, workload):
        # the benchmark's seeded configs, read from ``perfbench/workloads.py``
        # without importing its package; a refused one fails its run there
        path = CONFIG_DIR.parent / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        assert workload in workloads.WORKLOADS
        for seed in range(50):
            for cfg in workloads.configs(workload, seed):
                cli.validate_config(cfg)

    def test_every_scenario_kind_is_shipped(self):
        kinds = {json.loads(p.read_text())["scenario"] for p in SCENARIO_CONFIGS}
        assert kinds == set(cli._SCENARIOS)


@pytest.mark.parametrize("path", SCENARIO_CONFIGS, ids=lambda p: p.stem)
def test_runner_writes_exactly_the_listed_tables(tmp_path, monkeypatch, path):
    written = []
    write = cli.write_csv
    monkeypatch.setattr(cli, "write_csv",
                        lambda p, *table: written.append(Path(p).name) or write(p, *table))
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--out", str(out)]) == cli.EXIT_OK
    files = json.loads((out / "summary.json").read_text())["files"]
    assert written == files
    assert sorted(p.name for p in out.glob("*.csv")) == sorted(files)


@pytest.mark.parametrize("path", SCENARIO_CONFIGS, ids=lambda p: p.stem)
def test_scenario_returns_tables_and_writes_nothing(tmp_path, monkeypatch, path):
    cfg = cli.validate_config(json.loads(path.read_text()))
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        summary, tables = cli._SCENARIOS[cfg["scenario"]](cfg)
    assert summary["scenario"] == cfg["scenario"] and "files" not in summary
    assert tables and all(len(header) == len(columns)
                          for header, columns in tables.values())
    assert list(tmp_path.iterdir()) == []


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
    # keys of the shared schema that the scenario does not read
    yield mutate("foreign_grid_omega_max", "rate_sweep_3d",
                 lambda c: c.setdefault("grid", {}).update(omega_max=0.5))
    yield mutate("foreign_grid_volume", "dressing_dump",
                 lambda c: c["grid"].update(volume=8.0))
    yield mutate("foreign_grid_omega_min", "rate_sweep_1d",
                 lambda c: c.setdefault("grid", {}).update(omega_min=0.1))
    yield mutate("foreign_sweep", "oracle_compare",
                 lambda c: c.update(sweep={"n_points": 3}))
    yield mutate("foreign_tolerances", "scattering_3photon",
                 lambda c: c.update(tolerances={"propagation": 1e-10}))
    yield mutate("foreign_profile", "transform_residual",
                 lambda c: c.update(profile={"gamma": 1e-3}))
    # settings that changed no number
    yield mutate("grid_area", "dressing_dump",
                 lambda c: c["grid"].update(area=2.0))
    yield mutate("oracle_k_m_r_m_above_guard", "oracle_compare",
                 lambda c: c["oracle"].update(k_m_r_m=0.105))
    yield mutate("static_dump_k_m_r_m", "dressing_dump",
                 lambda c: c["profile"].pop("omega_m"))


# ids of the ``_mutations`` that are outside their scenario's surface
REFUSED = {"foreign_grid_omega_max", "foreign_grid_volume", "foreign_grid_omega_min",
           "foreign_sweep", "foreign_tolerances", "foreign_profile", "grid_area",
           "oracle_k_m_r_m_above_guard", "static_dump_k_m_r_m"}


@pytest.mark.parametrize("name, cfg", list(_mutations()),
                         ids=[name for name, _ in _mutations()])
def test_validator_agrees_with_jsonschema(name, cfg):
    try:
        cli.validate_config(copy.deepcopy(cfg))
    except cli.ConfigError:
        valid = False
    else:
        valid = True
    assert not (valid and name in REFUSED)
    jsonschema = pytest.importorskip("jsonschema")
    assert jsonschema.Draft7Validator(cli.load_schema()).is_valid(cfg) == valid


def test_import_loads_no_heavy_scipy_modules(tmp_path):
    # scipy.integrate pulls in optimize, special, spatial and fft (about 0.4 s
    # of every process's start-up), and scipy.sparse another 0.2 s: fock
    # imports scipy.sparse on first use, for the CSR products beyond
    # fock.DENSE_ENTRIES_MAX; the AppendixAVerify residual and OracleCompare
    # up to n_max 4 (the shipped 15-state sector, and 70 states) are dense
    # and need numpy alone, while the 252-state displacement generator of
    # n_max 5 takes the CSR path.  numpy.ma (about 10 ms, imported by
    # np.unique's first call) stays unloaded until scipy.sparse brings it
    oracle = {"scenario": "OracleCompare",
              "oracle": {"t_final": 3.0, "n_max": 2, "mode_frequencies": [0.5, 2.0]}}
    small = write_json(tmp_path / "oracle.json", oracle)
    oracle["oracle"]["n_max"] = 4
    medium = write_json(tmp_path / "oracle_medium.json", oracle)
    oracle["oracle"]["n_max"] = 5
    large = write_json(tmp_path / "oracle_large.json", oracle)
    plain = [str(CONFIG_DIR / f"{name}.json") for name in
             ("dressing_dump", "rate_sweep_1d", "rate_sweep_3d", "scattering_3photon")]
    residual = [str(CONFIG_DIR / "transform_residual.json")]
    scipy_modules = ("print(sorted(m for m in sys.modules"
                     " if m.split('.')[0] == 'scipy' or m == 'numpy.ma'))")
    heavy = ("print([m in sys.modules for m in"
             " ('scipy.sparse', 'scipy.linalg', 'scipy.sparse.linalg')])")
    code = "\n".join([
        "import sys",
        "from vacuum_shake import cli",
        "def run(cfgs):",
        "    for i, cfg in enumerate(cfgs):",
        f"        assert cli.run_scenario(cfg, {str(tmp_path)!r} + f'/{{i}}') == 0",
        f"run({plain!r})",
        scipy_modules,
        f"run({residual!r})",
        scipy_modules,
        f"run({[small]!r})",
        scipy_modules,
        f"run({[medium]!r})",
        scipy_modules,
        f"run({[large]!r})",
        heavy,
    ])
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=subprocess_env())
    printed = [ln for ln in out.stdout.splitlines() if ln.startswith("[")]
    assert printed == ["[]", "[]", "[]", "[]", "[True, False, False]"]


@pytest.mark.parametrize("name", ["rate_sweep_1d", "rate_sweep_3d"])
def test_rate_sweep_run_loads_no_numpy_polynomial(tmp_path, name):
    # numpy imports numpy.polynomial on first use (about 7 ms, more than a
    # shipped sweep's rates); neither the radial rule nor the sweep grid
    # uses it
    code = "\n".join([
        "import sys",
        "from vacuum_shake import cli",
        f"assert cli.main(['run', {str(CONFIG_DIR / (name + '.json'))!r},"
        f" '--out', {str(tmp_path / 'out')!r}]) == 0",
        "assert 'numpy.polynomial' not in sys.modules",
    ])
    subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                   env=subprocess_env())


@pytest.mark.parametrize("lo, hi, n", [(1e-3, 1e-2, 16), (3e-4, 0.7, 2),
                                       (0.1, 0.3, 7), (1e-5, 0.9, 101)])
def test_sweep_values_are_geometric_with_exact_ends(lo, hi, n):
    wms, _ = cli._sweep_values({"sweep": {"omega_m_min": lo, "omega_m_max": hi,
                                          "n_points": n}})
    assert (wms[0], wms[-1]) == (lo, hi)
    # lo (hi/lo)^(i/(n - 1)) in 40-digit decimals; np.geomspace itself is off
    # by 1.6e-15 at (1e-5, 0.9, 101)
    ctx = decimal.Context(prec=40)
    D = ctx.create_decimal_from_float
    exact = [float(ctx.multiply(D(lo), ctx.power(ctx.divide(D(hi), D(lo)),
                                                  ctx.divide(i, n - 1))))
             for i in range(n)]
    np.testing.assert_allclose(wms, exact, rtol=1e-15, atol=0)


def test_residual_over_the_dense_cap_exits_4(tmp_path, capsys):
    # 4 modes at n_max 13 are 4760 states, over the residual's cap of 4000;
    # it refuses them before a single 4760 x 4760 array (363 MB) is allocated
    cfg = write_json(tmp_path / "cfg.json", {
        "scenario": "AppendixAVerify",
        "residual": {"xi_values": [0.04], "n_modes": 4, "n_max": 13}})
    tracemalloc.start()
    try:
        rc = cli.run_scenario(cfg, str(tmp_path / "out"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == cli.EXIT_CAPACITY == 4
    assert "dense computation" in capsys.readouterr().err
    assert peak < 16 * 4760 ** 2 / 10


@pytest.mark.parametrize("case", ["file", "under_a_file", "output_is_a_directory"])
def test_unwritable_output_exits_2(tmp_path, capsys, case):
    # --out names a file or a path under one (the directory cannot be made),
    # or an output file's name is taken by a directory (it cannot be written)
    taken = tmp_path / "taken"
    if case == "output_is_a_directory":
        (taken / "summary.json").mkdir(parents=True)
    else:
        taken.write_text("")
    out = taken / "out" if case == "under_a_file" else taken
    cfg = write_json(tmp_path / "cfg.json", TestValidateConfig.BASE)
    assert cli.main(["run", cfg, "--out", str(out)]) == cli.EXIT_CONFIG == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot write output")
    assert captured.err.count("\n") == 1 and captured.out == ""
