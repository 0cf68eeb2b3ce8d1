"""End-to-end runs of ``vacuum-shake run`` at small sizes."""

import csv
import json
import math

import pytest

from vacuum_shake import cli

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


def run(tmp_path, scenario, *extra):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": scenario, **SMALL[scenario]}))
    out = tmp_path / "out"
    rc = cli.main(["run", str(cfg), "--out", str(out), *extra])
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


def test_threads_flag_overrides_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("VACUUM_SHAKE_THREADS", "3")
    rc, out = run(tmp_path, "AppendixAVerify", "--threads", "2")
    assert rc == cli.EXIT_OK
    assert json.loads((out / "manifest.json").read_text())["threads"] == 2


def test_threads_environment_applies_without_flag(tmp_path, monkeypatch):
    monkeypatch.setenv("VACUUM_SHAKE_THREADS", "3")
    rc, out = run(tmp_path, "AppendixAVerify")
    assert rc == cli.EXIT_OK
    assert json.loads((out / "manifest.json").read_text())["threads"] == 3


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
