"""Scenario runner behind the ``vacuum-shake`` command.

Subcommands::

    vacuum-shake run <config.json> [--out DIR] [--threads N]
    vacuum-shake compare <result> <baseline> [--tol-file F]
    vacuum-shake schema

A scenario config is a single JSON document validated against the shipped
schema (``vacuum-shake schema`` prints it).  Every run writes its artifacts
plus a ``manifest.json`` (config echo, package version, tolerances, wall
time) into the output directory and nowhere else.  CSV bodies are
deterministic: fixed column order, 17 significant digits, UTF-8, no locale
dependence.

Exit codes: 0 success, 1 comparison failure, 2 configuration/schema error,
3 numerical failure, 4 capacity overrun.

The ``--threads`` option (or, when it is absent, ``VACUUM_SHAKE_THREADS``)
bounds the worker pool used for sweep points; all numerical kernels are
deterministic regardless of the pool size.  Warnings a scenario raises are
printed to stderr and listed under ``warnings`` in ``manifest.json``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from . import coupling as cp
from . import dressing as dr
from . import fock as fk
from . import modes
from . import radiation as rad
from . import scattering as sc
from .errors import (CapacityError, ConfigError, DomainError, FitQualityError,
                     NumericalError, VacuumShakeError)

EXIT_OK = 0
EXIT_COMPARE_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_CAPACITY = 4

_FMT = "%.17g"


def _fmt(x) -> str:
    return _FMT % float(x)


def load_schema() -> dict:
    with resources.files("vacuum_shake").joinpath("config_schema.json").open() as fh:
        return json.load(fh)


def validate_config(cfg: dict) -> dict:
    import jsonschema

    try:
        jsonschema.validate(cfg, load_schema())
    except jsonschema.ValidationError as exc:
        raise ConfigError(f"config schema violation at {list(exc.absolute_path)}: "
                          f"{exc.message}")
    merged = {"seed": 0, "omega_e": 1.0, "output_directory": "results"}
    merged.update(cfg)
    merged.setdefault("tolerances", {})
    merged["tolerances"].setdefault("quadrature_rel", 1e-9)
    merged["tolerances"].setdefault("propagation", 1e-10)
    return merged


def _write_csv(path: Path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([c if isinstance(c, str) else _fmt(c) for c in row])


def _write_json(path: Path, doc: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def _scenario_dressing_dump(cfg, outdir, threads):
    omega_e = cfg["omega_e"]
    g = cfg.get("grid", {})
    p = cfg.get("profile", {})
    n_modes = g.get("n_modes", 16)
    grid = modes.build_waveguide_grid(
        n_modes, g.get("omega_max", 2.0 * omega_e),
        g.get("length", n_modes * np.pi), g.get("area", 1.0),
        omega_min=g.get("omega_min", 0.0),
    )
    gamma = p.get("gamma", 1e-3)
    omega_m = p.get("omega_m")
    if omega_m:
        km_rm = p.get("k_m_r_m", 0.05)
        profile = cp.CouplingProfile.oscillating_1d(
            omega_e, r_m=km_rm * grid.c / omega_m, omega_m=omega_m,
            gamma=gamma, A=grid.geometry.area, L=grid.geometry.length, c=grid.c,
        )
        frame = dr.DressedFrame(grid, profile, xi_mode="floquet")
    else:
        profile = cp.CouplingProfile.waveguide_1d(
            omega_e, gamma=gamma, A=grid.geometry.area,
            L=grid.geometry.length, c=grid.c,
        )
        frame = dr.DressedFrame(grid, profile)

    times = p.get("times", [0.0])
    for i, t in enumerate(times):
        pm = dr.lambda_matrix(frame, t)
        pm.to_csv(outdir / f"lambda_t{i}.csv")
    table = dr.ground_state_pairs(frame)
    table.to_csv(outdir / "ground_state_pairs.csv")
    return {
        "scenario": "DressingDump",
        "gamma": gamma,
        "times": list(map(float, times)),
        "two_photon_weight": table.total_two_photon_weight(),
        "sum_xi_squared": frame.check_smallness(0.0),
        "files": [f"lambda_t{i}.csv" for i in range(len(times))]
        + ["ground_state_pairs.csv"],
    }


def _sweep_values(cfg):
    s = cfg.get("sweep", {})
    lo = s.get("omega_m_min", 1e-3)
    hi = s.get("omega_m_max", 1e-2)
    n = s.get("n_points", 16)
    if hi <= lo:
        raise ConfigError("sweep needs omega_m_max > omega_m_min")
    return np.geomspace(lo, hi, n), s.get("n_radial", 48)


def _run_sweep(grid, wms, build_profile, n_radial, gamma, threads):
    def one(wm):
        return rad.golden_rule_rate(grid, build_profile(wm),
                                    n_radial=n_radial, gamma=gamma)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one, wms))
    else:
        results = [one(wm) for wm in wms]
    lw, lr = np.log(wms), np.log([r.rate for r in results])
    slope = float(np.polyfit(lw, lr, 1)[0])
    for r in results:
        r.fitted_exponent = slope
    return rad.RateSweep(results=results, fitted_exponent=slope,
                         pointwise_slopes=np.gradient(lr, lw))


def _scenario_rate_sweep(cfg, outdir, threads, dim):
    omega_e = cfg["omega_e"]
    p = cfg.get("profile", {})
    g = cfg.get("grid", {})
    gamma = p.get("gamma", 1e-3)
    km_rm = p.get("k_m_r_m", 0.05)
    wms, n_radial = _sweep_values(cfg)

    if dim == 3:
        V = g.get("volume", (2.0 * np.pi) ** 3)
        grid = modes.build_freespace_quadrature(
            g.get("n_radial", 8), g.get("n_polar", 24), g.get("n_azimuthal", 12),
            g.get("omega_max", 2.0 * omega_e), V,
        )
        dhat = p.get("dipole_direction", [0.0, 0.0, 1.0])
        rhat = p.get("rhat_m", [0.0, 0.0, 1.0])

        def build(wm):
            return cp.CouplingProfile.oscillating_3d(
                omega_e, dhat, rhat, r_m=km_rm / wm, omega_m=wm,
                gamma=gamma, V=V,
            )
    else:
        n_modes = g.get("n_modes", 64)
        grid = modes.build_waveguide_grid(
            n_modes, g.get("omega_max", 2.0 * omega_e),
            g.get("length", n_modes * np.pi), g.get("area", 1.0),
        )

        def build(wm):
            return cp.CouplingProfile.oscillating_1d(
                omega_e, r_m=km_rm * grid.c / wm, omega_m=wm, gamma=gamma,
                A=grid.geometry.area, L=grid.geometry.length, c=grid.c,
            )

    sweep = _run_sweep(grid, wms, build, n_radial, gamma, threads)
    _write_csv(
        outdir / "rates.csv",
        ["omega_m", "rate", "pointwise_slope"],
        [(r.omega_m, r.rate, s)
         for r, s in zip(sweep.results, sweep.pointwise_slopes)],
    )
    summary = {
        "scenario": f"RateSweep{dim}D",
        "fitted_exponent": sweep.fitted_exponent,
        "gamma": gamma,
        "k_m_r_m": km_rm,
        "n_points": len(wms),
        "n_radial": n_radial,
        "grid": json.loads(grid.to_json())["geometry"],
        "polarization_sum": "included in all 3D rate integrals" if dim == 3
        else "single polarization (waveguide)",
        "files": ["rates.csv"],
    }
    if dim == 3:
        summary["constant_C"] = rad.extract_rate_constant(sweep.results)
    else:
        summary["sideband_model"] = (
            "translation-phase expansion of the waveguide coupling; "
            "no transverse magnetic term in 1D"
        )
    return summary


def _scenario_scattering(cfg, outdir, threads):
    omega_e = cfg["omega_e"]
    s = cfg["scattering"]
    gamma = s.get("gamma", 1e-2 * omega_e)
    gamma_p = s.get("gamma_prime", gamma)
    n_modes = s.get("n_modes", 700)
    # the emitted triple spreads over (0, omega_e); the grid must both cover
    # that band and resolve the linewidth, or on-shell sums are unstable
    grid = modes.build_waveguide_grid(
        n_modes, 1.05 * omega_e, n_modes * np.pi, 1.0,
        omega_min=0.2 * min(gamma, gamma_p),
    )
    spacing = grid.omega[1] - grid.omega[0]
    # worst-case P3 error over pole offsets against the spacing / linewidth
    # ratio: 17% at 0.75, 13% at 0.70, 3.5% at 0.50, 1% at 0.40, 0.6% at 0.35
    if spacing > 0.4 * min(gamma, gamma_p):
        warnings.warn(
            f"mode spacing {spacing:.3g} does not resolve the linewidth "
            f"{min(gamma, gamma_p):.3g}; raise n_modes", stacklevel=2,
        )
    profile = cp.CouplingProfile.waveguide_1d(
        omega_e, gamma=gamma, A=1.0, L=grid.geometry.length, c=grid.c,
    )
    gamma_eff = sc.gamma_from_coupling(grid, profile)

    x0 = s.get("x0_over_packet_length", -16.0) * grid.c / gamma_p
    packet = sc.lorentzian_wavepacket(grid, gamma_p, x0, omega_e=omega_e)
    # mode-sum reconstruction is only meaningful when the quantization box
    # comfortably contains the packet; otherwise report the ideal envelope
    box_fits = 0.5 * grid.geometry.length > abs(x0) + 20.0 * grid.c / gamma_p
    overlap = sc.packet_dressing_overlap(
        packet, omega_e, method="modes" if box_fits else "envelope",
    )

    tensor = sc.three_photon_coefficients(grid, profile, gamma_eff, gamma_p)
    p3 = sc.three_photon_probability(tensor)
    frac = tensor.mass_fraction_within(10.0 * max(gamma_eff, gamma_p))
    mean_w = tensor.mean_total_frequency()

    slice_ws = s.get("slice_omegas", [0.5 * omega_e])
    files = []
    for i, wl in enumerate(slice_ws):
        l = int(np.argmin(np.abs(grid.omega - wl)))
        name = f"three_photon_slice_{i}.csv"
        tensor.slice_to_csv(outdir / name, l, which="sym")
        files.append(name)

    return {
        "scenario": "Scattering3Photon",
        "gamma": gamma_eff,
        "gamma_prime": gamma_p,
        "P3": p3,
        "on_shell_mass_fraction": frac,
        "mean_total_frequency": mean_w,
        "packet_norm": packet.norm_squared,
        "packet_dressing_overlap": overlap,
        "packet_overlap_method": "modes" if box_fits else "envelope",
        "packet_front_edge_in_decay_lengths": abs(x0) * gamma_p / grid.c,
        "n_modes": n_modes,
        "directions": "both propagation directions included in all sums",
        "grid": json.loads(grid.to_json())["geometry"],
        "files": files,
    }


def _scenario_oracle_compare(cfg, outdir, threads):
    omega_e = cfg["omega_e"]
    o = cfg.get("oracle", {})
    xi_max = o.get("xi_max", 0.03)
    t_final = o.get("t_final", 200.0)
    n_max = o.get("n_max", 2)
    freqs = o.get("mode_frequencies", [0.5 * omega_e, 2.0 * omega_e])
    km_rm = o.get("k_m_r_m", 0.1)

    grid = modes.few_mode_waveguide_grid(freqs)
    omega_m = freqs[0] + freqs[-1]
    w0 = freqs[0]
    chi_scale = xi_max * (w0 + omega_e) / np.sqrt(w0)
    profile = cp.CouplingProfile(
        kind=cp.CouplingKind.OSCILLATING_1D, omega_e=omega_e,
        chi_scale=chi_scale, c=1.0, r_m=km_rm / omega_m, omega_m=omega_m,
        km_rm_guard=max(0.1, km_rm) + 1e-9,
    )
    frame = dr.DressedFrame(grid, profile, xi_mode="floquet")
    basis = fk.enumerate_basis(grid.n_modes, n_max)
    report = rad.oracle_compare_pair_production(
        basis, frame, grid, t_final, tol=cfg["tolerances"]["propagation"],
    )
    _write_csv(
        outdir / "pair_amplitudes.csv",
        ["mode_j", "mode_k", "omega_sum", "oracle_re", "oracle_im",
         "perturbative_re", "perturbative_im", "rel_deviation"],
        [
            (str(r["pair"][0]), str(r["pair"][1]), r["omega_sum"],
             r["oracle"].real, r["oracle"].imag,
             r["perturbative"].real, r["perturbative"].imag,
             r["rel_deviation"])
            for r in report["resonant_pairs"]
        ],
    )
    return {
        "scenario": "OracleCompare",
        "xi_max": xi_max,
        "t_final": t_final,
        "max_rel_deviation": report["max_rel_deviation"],
        "max_mag_deviation": report["max_mag_deviation"],
        "norm_drift": report["norm_drift"],
        "mode_frequencies": list(map(float, freqs)),
        "omega_m": omega_m,
        "files": ["pair_amplitudes.csv"],
    }


def _scenario_transform_residual(cfg, outdir, threads):
    omega_e = cfg["omega_e"]
    r = cfg["residual"]
    xi_values = r.get("xi_values", [0.04, 0.02])
    n_modes = r.get("n_modes", 2)
    n_max = r.get("n_max", 4)
    mode_omega = r.get("mode_omega", 1.2 * omega_e)
    margin = r.get("shell_margin", 2)

    directions = "both" if n_modes % 2 == 0 else "positive"
    grid = modes.build_waveguide_grid(n_modes, mode_omega, 2.0 * np.pi, 1.0,
                                      directions=directions)
    basis = fk.enumerate_basis(grid.n_modes, n_max)

    rows = []
    for xi in xi_values:
        chi_scale = xi * (grid.omega[0] + omega_e) / np.sqrt(grid.omega[0])
        profile = cp.CouplingProfile(
            kind=cp.CouplingKind.WAVEGUIDE_1D, omega_e=omega_e,
            chi_scale=chi_scale, c=grid.c,
        )
        frame = dr.DressedFrame(grid, profile)
        R = fk.transformed_residual_norm(basis, frame, 0.0, shell_margin=margin)
        rows.append((xi, R))
    _write_csv(outdir / "residuals.csv", ["xi_max", "residual_max_norm"], rows)

    summary = {
        "scenario": "AppendixAVerify",
        "n_modes": n_modes,
        "n_max": n_max,
        "shell_margin": margin,
        "residuals": {str(x): v for x, v in rows},
        "files": ["residuals.csv"],
    }
    if len(rows) >= 2:
        summary["scaling_ratios"] = [
            rows[i][1] / rows[i + 1][1] for i in range(len(rows) - 1)
        ]
    return summary


_SCENARIOS = {
    "DressingDump": _scenario_dressing_dump,
    "RateSweep1D": lambda c, o, t: _scenario_rate_sweep(c, o, t, 1),
    "RateSweep3D": lambda c, o, t: _scenario_rate_sweep(c, o, t, 3),
    "Scattering3Photon": _scenario_scattering,
    "OracleCompare": _scenario_oracle_compare,
    "AppendixAVerify": _scenario_transform_residual,
}


def run_scenario(config_path, out_override=None, threads=1) -> int:
    """Execute one scenario config; returns the process exit code."""
    t_start = time.time()
    try:
        with open(config_path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = validate_config(cfg)
        outdir = Path(out_override or cfg["output_directory"])
        runner = _SCENARIOS[cfg["scenario"]]
    except (ConfigError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    np.random.seed(cfg["seed"])
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            summary = runner(cfg, outdir, threads)
    except (ConfigError, DomainError) as exc:
        print(f"error: configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalError, FitQualityError) as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except CapacityError as exc:
        print(f"error: capacity: {exc}", file=sys.stderr)
        return EXIT_CAPACITY

    for w in caught:
        sys.stderr.write(warnings.formatwarning(w.message, w.category,
                                                w.filename, w.lineno))
    _write_json(outdir / "summary.json", summary)
    _write_json(outdir / "manifest.json", {
        "package": "vacuum-shake",
        "version": __version__,
        "config": cfg,
        "threads": threads,
        "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
        "wall_time_s": time.time() - t_start,
        "generated_unix": int(time.time()),
    })
    print(f"{cfg['scenario']}: ok ({outdir})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# baseline comparison
# ---------------------------------------------------------------------------

def _load_table(path: Path):
    if path.suffix == ".json":
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return {"__csv_header__": rows[0], "__csv_rows__": rows[1:]}


def _flatten(doc, prefix=""):
    out = {}
    if isinstance(doc, dict):
        for k, v in doc.items():
            out.update(_flatten(v, f"{prefix}{k}."))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            out.update(_flatten(v, f"{prefix}{i}."))
    else:
        out[prefix[:-1]] = doc
    return out


def _deviates(a: float, b: float, tol: dict, default_rel: float,
              default_abs: float) -> bool:
    """True when a and b differ beyond tolerance or either is NaN or inf."""
    if not (math.isfinite(a) and math.isfinite(b)):
        return True
    rel = tol.get("rel", default_rel)
    return abs(a - b) > rel * max(abs(a), abs(b)) + tol.get("abs", default_abs)


def compare_baseline(result_file, baseline_file, tolerances=None) -> int:
    """Field-wise relative comparison; prints a report, returns an exit code."""
    tolerances = tolerances or {}
    default_rel = tolerances.get("default_rel", 1e-9)
    default_abs = tolerances.get("default_abs", 1e-300)
    per_field = tolerances.get("fields", {})

    res = _load_table(Path(result_file))
    base = _load_table(Path(baseline_file))

    is_csv = "__csv_header__" in res
    if is_csv != ("__csv_header__" in base):
        print("schema mismatch: one file is CSV, the other JSON", file=sys.stderr)
        return EXIT_CONFIG

    failures = []
    checked = 0
    if is_csv:
        if res["__csv_header__"] != base["__csv_header__"]:
            print("schema mismatch: CSV headers differ", file=sys.stderr)
            return EXIT_CONFIG
        if len(res["__csv_rows__"]) != len(base["__csv_rows__"]):
            print("schema mismatch: row counts differ", file=sys.stderr)
            return EXIT_CONFIG
        header = res["__csv_header__"]
        for i, (ra, rb) in enumerate(zip(res["__csv_rows__"], base["__csv_rows__"])):
            for col, (a, b) in enumerate(zip(ra, rb)):
                name = header[col]
                try:
                    fa, fb = float(a), float(b)
                except ValueError:
                    if a != b:
                        failures.append((f"row {i} col {name}", a, b, 0.0))
                    continue
                checked += 1
                if _deviates(fa, fb, per_field.get(name, {}), default_rel,
                             default_abs):
                    failures.append((f"row {i} col {name}", fa, fb, abs(fa - fb)))
    else:
        fa, fb = _flatten(res), _flatten(base)
        if set(fa) != set(fb):
            print("schema mismatch: JSON field sets differ", file=sys.stderr)
            return EXIT_CONFIG
        for key in sorted(fa):
            a, b = fa[key], fb[key]
            if isinstance(a, (int, float)) and isinstance(b, (int, float)) \
                    and not isinstance(a, bool):
                checked += 1
                if _deviates(a, b, per_field.get(key.split(".")[-1], {}),
                             default_rel, default_abs):
                    failures.append((key, a, b, abs(a - b)))
            elif a != b:
                failures.append((key, a, b, 0.0))

    if failures:
        print(f"FAIL: {len(failures)} of {checked} compared fields deviate")
        for name, a, b, dev in failures[:20]:
            print(f"  {name}: result={a} baseline={b} |dev|={dev}")
        return EXIT_COMPARE_FAIL
    print(f"PASS: {checked} fields within tolerance, max deviation reported 0 failures")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vacuum-shake",
        description="Quantum radiation scenarios for a modulated two-level emitter",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="output directory override")
    p_run.add_argument("--threads", type=int, default=None)

    p_cmp = sub.add_parser("compare", help="compare a result against a baseline")
    p_cmp.add_argument("result")
    p_cmp.add_argument("baseline")
    p_cmp.add_argument("--tol-file", default=None)

    sub.add_parser("schema", help="print the config schema")

    args = parser.parse_args(argv)

    if args.command == "schema":
        json.dump(load_schema(), sys.stdout, indent=1, sort_keys=True)
        print()
        return EXIT_OK

    if args.command == "run":
        threads = args.threads
        env = os.environ.get("VACUUM_SHAKE_THREADS")
        if threads is None and env is not None:
            try:
                threads = int(env)
            except ValueError:
                print("error: VACUUM_SHAKE_THREADS must be an integer",
                      file=sys.stderr)
                return EXIT_CONFIG
        if threads is None:
            threads = 1
        if threads < 1:
            print("error: thread count must be >= 1", file=sys.stderr)
            return EXIT_CONFIG
        return run_scenario(args.config, args.out, threads)

    tolerances = None
    if args.tol_file:
        try:
            with open(args.tol_file, encoding="utf-8") as fh:
                tolerances = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read tolerance file: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    return compare_baseline(args.result, args.baseline, tolerances)


if __name__ == "__main__":
    sys.exit(main())
