"""End-to-end runs of ``vacuum-shake run`` at small sizes."""

import csv
import json
import math
from pathlib import Path

import pytest

from vacuum_shake import cli

ROOT = Path(__file__).resolve().parents[1]

# One small config per scenario kind; each runs in about a second or less.
SMALL = {
    "DressingDump": {
        "grid": {"n_modes": 8, "omega_max": 2.0},
        "profile": {"gamma": 1e-3, "omega_m": 0.2, "k_m_r_m": 0.05,
                    "times": [0.0, 3.0]},
    },
    "RateSweep1D": {
        "profile": {"gamma": 1e-3, "k_m_r_m": 0.05},
        "sweep": {"omega_m_min": 1e-3, "omega_m_max": 1e-2, "n_points": 3,
                  "n_radial": 8},
    },
    "RateSweep3D": {
        "grid": {"n_radial": 2, "n_polar": 6, "n_azimuthal": 4},
        "profile": {"gamma": 1e-3, "k_m_r_m": 0.05},
        "sweep": {"omega_m_min": 1e-3, "omega_m_max": 1e-2, "n_points": 3,
                  "n_radial": 6},
    },
    "Scattering3Photon": {
        "scattering": {"gamma": 0.01, "gamma_prime": 0.01, "n_modes": 60,
                       "slice_omegas": [0.5]},
    },
    "OracleCompare": {
        "oracle": {"xi_max": 0.03, "t_final": 3.0, "n_max": 2,
                   "mode_frequencies": [0.5, 2.0], "k_m_r_m": 0.1},
    },
    "AppendixAVerify": {
        "residual": {"xi_values": [0.04, 0.02], "n_modes": 2, "n_max": 4,
                     "mode_omega": 1.2, "shell_margin": 2},
    },
}


def run(tmp_path, scenario, doc=None):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": scenario, **(doc or SMALL[scenario])}))
    out = tmp_path / "out"
    rc = cli.main(["run", str(cfg), "--out", str(out)])
    return rc, out


def numbers(doc):
    if isinstance(doc, dict):
        for v in doc.values():
            yield from numbers(v)
    elif isinstance(doc, list):
        for v in doc:
            yield from numbers(v)
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        yield float(doc)


def csv_numbers(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) > 1, path
    for row in rows[1:]:
        for cell in row:
            try:
                yield float(cell)
            except ValueError:
                continue


@pytest.mark.parametrize("scenario", sorted(SMALL))
def test_scenario_runs_and_writes_finite_outputs(tmp_path, scenario):
    rc, out = run(tmp_path, scenario)
    assert rc == cli.EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    manifest = json.loads((out / "manifest.json").read_text())
    assert summary["scenario"] == scenario
    assert summary["files"]
    for name in summary["files"]:
        assert (out / name).is_file(), name
        assert all(math.isfinite(x) for x in csv_numbers(out / name)), name
    assert all(math.isfinite(x) for x in numbers(summary))
    assert all(math.isfinite(x) for x in numbers(manifest))
    assert manifest["peak_rss_mb"] > 0


def test_wall_time_survives_a_clock_step(tmp_path, monkeypatch):
    # the wall clock steps back an hour after its first reading (an NTP
    # correction, a resumed VM); the run time must not go negative
    readings = iter([1.7e9])
    monkeypatch.setattr(cli.time, "time", lambda: next(readings, 1.7e9 - 3600.0))
    rc, out = run(tmp_path, "DressingDump")
    assert rc == cli.EXIT_OK
    assert json.loads((out / "manifest.json").read_text())["wall_time_s"] >= 0.0


# one count per scenario, to be written as an integer-valued float, which
# the schema accepts as an integer (draft 7) and the scenario must run with
INTEGRAL_FLOATS = {
    "DressingDump": ("grid", "n_modes"),
    "RateSweep1D": ("sweep", "n_points"),
    "RateSweep3D": ("grid", "n_polar"),
    "Scattering3Photon": ("scattering", "n_modes"),
    "OracleCompare": ("oracle", "n_max"),
    "AppendixAVerify": ("residual", "n_modes"),
}


@pytest.mark.parametrize("scenario", sorted(INTEGRAL_FLOATS))
def test_integral_float_count_runs(tmp_path, scenario):
    section, key = INTEGRAL_FLOATS[scenario]
    doc = json.loads(json.dumps(SMALL[scenario]))
    doc[section][key] = float(doc[section][key])
    rc, out = run(tmp_path, scenario, doc)
    assert rc == cli.EXIT_OK
    if scenario == "OracleCompare":
        as_int = tmp_path / "int"
        as_int.mkdir()
        assert run(as_int, scenario)[0] == cli.EXIT_OK
        csv_name = "pair_amplitudes.csv"
        assert (out / csv_name).read_bytes() == (as_int / "out" / csv_name).read_bytes()


@pytest.mark.parametrize("zero", ["gamma", "k_m_r_m"])
@pytest.mark.parametrize("dim", [1, 3])
def test_zero_rate_sweep_exits_2(tmp_path, capsys, dim, zero):
    # the schema allows both at 0; every rate is then 0 and has no log-log fit
    scenario = f"RateSweep{dim}D"
    doc = json.loads(json.dumps(SMALL[scenario]))
    doc["profile"][zero] = 0.0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": scenario, **doc}))
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG == 2
    assert "all rates must be positive" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


@pytest.mark.parametrize("omega", [-0.5, 1.06])
def test_slice_outside_band_exits_2(tmp_path, capsys, omega):
    # the 60-mode band is [0, 1.048]; argmin once snapped these to its edge
    doc = json.loads(json.dumps(SMALL["Scattering3Photon"]))
    doc["scattering"]["slice_omegas"] = [0.5, omega]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "Scattering3Photon", **doc}))
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == cli.EXIT_CONFIG == 2
    assert "outside the grid band" in capsys.readouterr().err
    assert not (out / "summary.json").exists()


def test_warnings_recorded_in_manifest(tmp_path, capsys):
    # 60 modes over (0, 1.05] are spaced 0.035, far coarser than gamma = 0.01
    rc, out = run(tmp_path, "Scattering3Photon")
    assert rc == cli.EXIT_OK
    manifest = json.loads((out / "manifest.json").read_text())
    spacing = [w for w in manifest["warnings"] if "mode spacing" in w]
    assert len(spacing) == 1
    assert spacing[0].startswith("UserWarning: ")
    assert "mode spacing" in capsys.readouterr().err
    assert "warnings" not in json.loads((out / "summary.json").read_text())


def test_oracle_pair_amplitudes_match_golden_output(tmp_path, capsys):
    # OracleCompare at the benchmark's seed-0 size; the golden CSV was written
    # by `vacuum-shake run` on this config at commit f97fb34
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "scenario": "OracleCompare",
        "oracle": {"xi_max": 0.03, "k_m_r_m": 0.1, "t_final": 12.0,
                   "n_max": 2, "mode_frequencies": [0.5, 2.0]},
    }))
    out = tmp_path / "out"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    tolerances = json.loads((ROOT / "configs" / "compare_tolerances.json").read_text())
    rc = cli.compare_baseline(out / "pair_amplitudes.csv",
                              ROOT / "tests" / "data" / "oracle_seed0_pair_amplitudes.csv",
                              tolerances)
    assert rc == cli.EXIT_OK, capsys.readouterr().out


def test_appendix_residuals_match_golden_output(tmp_path, capsys):
    # AppendixAVerify as shipped, which is the benchmark's seed-0 size; the
    # golden CSV was written by `vacuum-shake run` on this config at commit
    # 2f73693, before the Fock basis was stored as photons x atom
    out = tmp_path / "out"
    cfg = ROOT / "configs" / "transform_residual.json"
    assert cli.main(["run", str(cfg), "--out", str(out)]) == cli.EXIT_OK
    tolerances = json.loads((ROOT / "configs" / "compare_tolerances.json").read_text())
    rc = cli.compare_baseline(out / "residuals.csv",
                              ROOT / "tests" / "data" / "appendix_seed0_residuals.csv",
                              tolerances)
    assert rc == cli.EXIT_OK, capsys.readouterr().out


# Golden files of the remaining scenario kinds, written by `vacuum-shake run`:
# the shipped DressingDump and rate sweeps at commit c0d379c, and the
# shipped Scattering3Photon once its outputs became O(n) spectra.  Before
# that, a 40-mode run's n^2 slice; its rows summed over omega_k matched the
# new slice weights within 4e-16 of their maximum, and the shipped run's P3,
# on_shell_mass_fraction and mean_total_frequency did not change a bit.
# Its spectrum and summary were written again when the total-frequency
# spectrum moved to the extended-precision FFT: 27 far-tail rows moved by
# up to 6e-5 relative, and P3 by 3e-14 relative to 6x the marginal sum.
GOLDEN = {
    "DressingDump": ("dressing_dump.json", {
        "lambda_t0.csv": "dressing_lambda_t0.csv",
        "lambda_t1.csv": "dressing_lambda_t1.csv",
        "ground_state_pairs.csv": "dressing_ground_state_pairs.csv",
    }),
    "RateSweep1D": ("rate_sweep_1d.json", {"rates.csv": "rate_sweep_1d_rates.csv"}),
    "RateSweep3D": ("rate_sweep_3d.json", {"rates.csv": "rate_sweep_3d_rates.csv"}),
    "Scattering3Photon": ("scattering_3photon.json", {
        "three_photon_spectrum.csv": "scattering_3photon_spectrum.csv",
        "three_photon_marginal.csv": "scattering_3photon_marginal.csv",
        "three_photon_slice_0.csv": "scattering_3photon_slice_0.csv",
        "summary.json": "scattering_3photon_summary.json",
    }),
}


@pytest.mark.parametrize("scenario", sorted(GOLDEN))
def test_outputs_match_golden_files(tmp_path, capsys, scenario):
    config, files = GOLDEN[scenario]
    out = tmp_path / "out"
    assert cli.main(["run", str(ROOT / "configs" / config),
                     "--out", str(out)]) == cli.EXIT_OK
    tolerances = json.loads((ROOT / "configs" / "compare_tolerances.json").read_text())
    for name, golden in files.items():
        rc = cli.compare_baseline(out / name, ROOT / "tests" / "data" / golden,
                                  tolerances)
        assert rc == cli.EXIT_OK, (name, capsys.readouterr().out)


def test_scattering_spectra(tmp_path):
    rc, out = run(tmp_path, "Scattering3Photon")
    assert rc == cli.EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["files"] == ["three_photon_spectrum.csv",
                                "three_photon_marginal.csv",
                                "three_photon_slice_0.csv"]
    headers = {}
    for name in summary["files"]:
        with open(out / name, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        headers[name] = rows[0]
        weights = [float(row[1]) for row in rows[1:]]
        if name != "three_photon_slice_0.csv":
            assert math.fsum(weights) == pytest.approx(summary["P3"] / 6,
                                                       rel=1e-12), name
    assert headers == {"three_photon_spectrum.csv": ["omega_total", "weight"],
                       "three_photon_marginal.csv": ["omega", "weight"],
                       "three_photon_slice_0.csv": ["omega_j", "weight"]}
    # the slice sits on the grid mode nearest the requested 0.5
    with open(out / "three_photon_slice_0.csv", newline="", encoding="utf-8") as fh:
        omegas = [float(row[0]) for row in list(csv.reader(fh))[1:]]
    (omega_l,) = summary["slice_omega_l"]
    assert omega_l in omegas
    assert all(abs(w - 0.5) >= abs(omega_l - 0.5) for w in omegas)
    # 60 modes do not resolve the linewidth: doubling them moves P3
    assert summary["P3_rel_change"] == summary["P3_2n"] / summary["P3"] - 1
    assert abs(summary["P3_rel_change"]) > 1e-3


def test_oracle_period_statistics_in_manifest(tmp_path):
    # t_final 12 holds four drive periods of 2 pi / 2.5
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "scenario": "OracleCompare",
        "oracle": {**SMALL["OracleCompare"]["oracle"], "t_final": 12.0},
    }))
    assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == cli.EXIT_OK
    solver = json.loads((tmp_path / "out" / "manifest.json").read_text())["solver"]
    assert solver["n_periods"] == 4
    assert isinstance(solver["period_rhs_evals"], int)
    # U(r) and U(T) come from one integration of the identity; no vector is stepped
    assert solver["period_rhs_evals"] == solver["n_rhs_evals"] > 0
    assert 0.0 < solver["unitarity_defect"] <= 1e-10


def test_oracle_solver_statistics_in_manifest(tmp_path):
    rc, out = run(tmp_path, "OracleCompare")
    assert rc == cli.EXIT_OK
    solver = json.loads((out / "manifest.json").read_text())["solver"]
    assert sorted(solver) == ["expm_matvecs", "n_periods", "n_rejected", "n_rhs_evals",
                              "n_steps", "norm_drift", "period_rhs_evals",
                              "truncation_estimates", "unitarity_defect"]
    assert isinstance(solver["n_rhs_evals"], int) and solver["n_rhs_evals"] > 0
    assert isinstance(solver["n_steps"], int) and solver["n_steps"] > 0
    assert isinstance(solver["n_rejected"], int) and solver["n_rejected"] >= 0
    # t_final 3 is about one drive period (2 pi / 2.5): stepped, no period propagator
    assert (solver["n_periods"], solver["period_rhs_evals"]) == (0, 0)
    assert solver["unitarity_defect"] == 0.0
    assert 0.0 <= solver["norm_drift"] <= 1e-9
    assert len(solver["truncation_estimates"]) == 2
    assert all(x >= 0.0 for x in solver["truncation_estimates"])
    assert len(solver["expm_matvecs"]) == 2
    assert all(isinstance(n, int) and n > 0 for n in solver["expm_matvecs"])
    assert "solver" not in json.loads((out / "summary.json").read_text())
