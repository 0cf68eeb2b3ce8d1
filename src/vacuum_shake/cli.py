"""Scenario runner behind the ``vacuum-shake`` command.

Subcommands::

    vacuum-shake run <config.json> [--out DIR]
    vacuum-shake compare <result> <baseline> [--tol-file F]
    vacuum-shake schema

A scenario config is a single JSON document validated against the shipped
schema (``vacuum-shake schema`` prints it).  Every run writes its artifacts
plus a ``manifest.json`` (config echo, package version, tolerances, wall
time, peak memory) into the output directory and nowhere else.  Every CSV
artifact is written by :func:`vacuum_shake.table.write_csv`: a header row,
fixed column order, integers as digits and floats as the shortest string
that reads back to the same float64 (``repr``), UTF-8, ``\n`` line ends, no
locale dependence.

Exit codes: 0 success, 1 comparison failure, 2 configuration/schema error,
3 numerical failure, 4 capacity overrun.

Every scenario runs in a single thread.  Warnings a scenario raises are
printed to stderr and listed under ``warnings`` in ``manifest.json``.
The manifest's ``wall_time_s`` is read from the monotonic
``time.perf_counter``, and ``peak_rss_mb`` is the process's peak resident
set size so far (``ru_maxrss``, kilobytes on Linux, over 1024).
A scenario's solver statistics (a ``"solver"`` entry of its summary, so far
only OracleCompare's) go to ``manifest.json`` under ``solver``, not to
``summary.json``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import resource
import sys
import time
import warnings
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
from .table import write_csv

EXIT_OK = 0
EXIT_COMPARE_FAIL = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_CAPACITY = 4


def load_schema() -> dict:
    with resources.files("vacuum_shake").joinpath("config_schema.json").open() as fh:
        return json.load(fh)


# JSON Schema keywords that ``validate_config`` interprets, and annotations
# it ignores; a schema using any other keyword is refused
_ANNOTATIONS = {"$schema", "title", "description", "default"}
_KEYWORDS = {"type", "enum", "const", "required", "properties",
             "additionalProperties", "minimum", "maximum", "exclusiveMinimum",
             "items", "minItems", "maxItems", "allOf", "if", "then"}


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "number": _is_number,
    # draft 7: a float with no fractional part is an integer
    "integer": lambda x: _is_number(x) and (isinstance(x, int) or x.is_integer()),
}


def _subschemas(schema: dict):
    yield from schema.get("properties", {}).values()
    yield from schema.get("allOf", [])
    yield from (schema[k] for k in ("items", "if", "then") if k in schema)


def _unsupported_keywords(schema: dict) -> set:
    own = set(schema) - _KEYWORDS - _ANNOTATIONS
    if schema.get("type", "object") not in _TYPES:
        own.add(f"type {schema['type']!r}")
    return own.union(*(_unsupported_keywords(sub) for sub in _subschemas(schema)))


def _schema_error(value, schema: dict, path: list):
    """``(path, message)`` of the first violation of ``schema``, else None."""
    if "type" in schema and not _TYPES[schema["type"]](value):
        return path, f"{value!r} is not of type {schema['type']!r}"
    if "enum" in schema and value not in schema["enum"]:
        return path, f"{value!r} is not one of {schema['enum']!r}"
    if "const" in schema and value != schema["const"]:
        return path, f"{schema['const']!r} was expected"
    if isinstance(value, dict):
        props = schema.get("properties", {})
        for key in schema.get("required", []):
            if key not in value:
                return path, f"{key!r} is a required property"
        if schema.get("additionalProperties", True) is False:
            extra = sorted(set(value) - set(props))
            if extra:
                return path, f"additional properties are not allowed: {extra}"
        for key, sub in props.items():
            if key in value:
                err = _schema_error(value[key], sub, path + [key])
                if err:
                    return err
    if _is_number(value):
        if "minimum" in schema and value < schema["minimum"]:
            return path, f"{value!r} is less than the minimum of {schema['minimum']!r}"
        if "maximum" in schema and value > schema["maximum"]:
            return path, f"{value!r} is greater than the maximum of {schema['maximum']!r}"
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            return path, (f"{value!r} is less than or equal to the minimum of "
                          f"{schema['exclusiveMinimum']!r}")
    if isinstance(value, list):
        if len(value) < schema.get("minItems", 0):
            return path, f"{value!r} has fewer than {schema['minItems']} items"
        if len(value) > schema.get("maxItems", len(value)):
            return path, f"{value!r} has more than {schema['maxItems']} items"
        for i, item in enumerate(value):
            err = _schema_error(item, schema.get("items", {}), path + [i])
            if err:
                return err
    for sub in schema.get("allOf", []):
        err = _schema_error(value, sub, path)
        if err:
            return err
    if "if" in schema and _schema_error(value, schema["if"], path) is None:
        return _schema_error(value, schema.get("then", {}), path)
    return None


def _integers_as_int(value, schema: dict):
    """``value`` with each number that ``schema`` types ``integer``, such as
    an integer-valued 16.0, as an int; the scenarios count with them."""
    if schema.get("type") == "integer":
        return int(value)
    if isinstance(value, dict):
        return {k: _integers_as_int(v, schema.get("properties", {}).get(k, {}))
                for k, v in value.items()}
    if isinstance(value, list):
        return [_integers_as_int(v, schema.get("items", {})) for v in value]
    return value


def validate_config(cfg: dict) -> dict:
    """Check ``cfg`` against the shipped schema and fill in defaults.

    Interprets the subset of JSON Schema (draft 7) that the schema uses:
    ``type``, ``enum``, ``const``, ``required``, ``properties`` with
    ``additionalProperties: false``, ``minimum``, ``maximum``,
    ``exclusiveMinimum``, ``items``, ``minItems``, ``maxItems`` and
    ``allOf`` of ``if``/``then``.  Values typed ``integer`` come back as ints.
    """
    schema = load_schema()
    unknown = _unsupported_keywords(schema)
    if unknown:
        raise NotImplementedError(
            f"config schema uses keywords the validator does not know: {sorted(unknown)}")
    err = _schema_error(cfg, schema, [])
    if err:
        raise ConfigError(f"config schema violation at {err[0]}: {err[1]}")
    merged = {"omega_e": 1.0, "output_directory": "results"}
    merged.update(_integers_as_int(cfg, schema))
    merged.setdefault("tolerances", {})
    merged["tolerances"].setdefault("propagation", 1e-10)
    return merged


def _write_json(path: Path, doc: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def _scenario_dressing_dump(cfg, outdir):
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
            gamma=gamma, L=grid.geometry.length, c=grid.c,
        )
        frame = dr.DressedFrame(grid, profile, xi_mode="floquet")
    else:
        profile = cp.CouplingProfile.waveguide_1d(
            omega_e, gamma=gamma, L=grid.geometry.length, c=grid.c,
        )
        frame = dr.DressedFrame(grid, profile)

    times = p.get("times", [0.0])
    header = ["k_index", "k_prime_index", "re", "im"]
    j, k = np.triu_indices(grid.n_modes)
    for i, t in enumerate(times):
        lam = dr.lambda_matrix(frame, t)[j, k]
        write_csv(outdir / f"lambda_t{i}.csv", header, [j, k, lam.real, lam.imag])
    pairs = dr.ground_state_pairs(frame)
    write_csv(outdir / "ground_state_pairs.csv", header,
              [j, k, pairs.real, pairs.imag])
    return {
        "scenario": "DressingDump",
        "gamma": gamma,
        "times": list(map(float, times)),
        "two_photon_weight": float(np.sum(np.abs(pairs) ** 2)),
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


def _scenario_rate_sweep(cfg, outdir, dim):
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
                L=grid.geometry.length, c=grid.c,
            )

    rates, exponent, slopes = rad.rate_sweep(grid, wms, build, n_radial=n_radial)
    write_csv(outdir / "rates.csv", ["omega_m", "rate", "pointwise_slope"],
              [wms, rates, slopes])
    summary = {
        "scenario": f"RateSweep{dim}D",
        "fitted_exponent": exponent,
        "gamma": gamma,
        "k_m_r_m": km_rm,
        "n_points": len(wms),
        "n_radial": n_radial,
        "grid": grid.geometry_dict(),
        "polarization_sum": "included in all 3D rate integrals" if dim == 3
        else "single polarization (waveguide)",
        "files": ["rates.csv"],
    }
    if dim == 3:
        summary["constant_C"] = rad.extract_rate_constant(
            wms, rates, k_m_r_m=km_rm, gamma=gamma, omega_e=omega_e)
    else:
        summary["sideband_model"] = (
            "translation-phase expansion of the waveguide coupling; "
            "no transverse magnetic term in 1D"
        )
    return summary


def _three_photon_tensor(n_modes, omega_e, gamma, gamma_p):
    """The scenario's three-photon tensor on ``n_modes`` modes."""
    # the emitted triple spreads over (0, omega_e); the grid must both cover
    # that band and resolve the linewidth, or on-shell sums are unstable
    grid = modes.build_waveguide_grid(
        n_modes, 1.05 * omega_e, n_modes * np.pi, 1.0,
        omega_min=0.2 * min(gamma, gamma_p),
    )
    profile = cp.CouplingProfile.waveguide_1d(
        omega_e, gamma=gamma, L=grid.geometry.length, c=grid.c,
    )
    gamma_eff = sc.gamma_from_coupling(grid, profile)
    return sc.three_photon_coefficients(grid, profile, gamma_eff, gamma_p)


def _scenario_scattering(cfg, outdir):
    omega_e = cfg["omega_e"]
    s = cfg["scattering"]
    gamma = s.get("gamma", 1e-2 * omega_e)
    gamma_p = s.get("gamma_prime", gamma)
    n_modes = s.get("n_modes", 700)
    tensor = _three_photon_tensor(n_modes, omega_e, gamma, gamma_p)
    grid, gamma_eff = tensor.grid, tensor.gamma
    slice_omegas = s.get("slice_omegas", [0.5 * omega_e])
    outside = [w for w in slice_omegas if not grid.omega_min <= w <= grid.omega_max]
    if outside:
        raise DomainError(f"slice_omegas {outside} outside the grid band "
                          f"[{grid.omega_min}, {grid.omega_max}]")
    spacing = grid.omega[1] - grid.omega[0]
    # worst-case P3 error over pole offsets against the spacing / linewidth
    # ratio: 17% at 0.75, 13% at 0.70, 3.5% at 0.50, 1% at 0.40, 0.6% at 0.35
    if spacing > 0.4 * min(gamma, gamma_p):
        warnings.warn(
            f"mode spacing {spacing:.3g} does not resolve the linewidth "
            f"{min(gamma, gamma_p):.3g}; raise n_modes", stacklevel=2,
        )

    x0 = s.get("x0_over_packet_length", -16.0) * grid.c / gamma_p
    packet = sc.lorentzian_wavepacket(grid, gamma_p, x0, omega_e=omega_e)
    # mode-sum reconstruction is only meaningful when the quantization box
    # comfortably contains the packet; otherwise report the ideal envelope
    box_fits = 0.5 * grid.geometry.length > abs(x0) + 20.0 * grid.c / gamma_p
    overlap = sc.packet_dressing_overlap(
        packet, omega_e, method="modes" if box_fits else "envelope",
    )

    p3 = sc.three_photon_probability(tensor)
    # P3 on the same band at half the spacing: 6 times its spectrum's sum, as
    # in three_photon_probability, whose perfbench span counts n^3 triples
    # per call and so stays on the scenario's own tensor
    tensor_2n = _three_photon_tensor(2 * n_modes, omega_e, gamma, gamma_p)
    p3_2n = 6.0 * float(np.sum(tensor_2n.spectrum[1]))
    frac = tensor.mass_fraction_within(10.0 * max(gamma_eff, gamma_p))
    mean_w = tensor.mean_total_frequency()

    files = ["three_photon_spectrum.csv", "three_photon_marginal.csv"]
    write_csv(outdir / files[0], ["omega_total", "weight"], tensor.spectrum)
    write_csv(outdir / files[1], ["omega", "weight"], tensor.marginal_spectrum())
    slice_ls = [int(np.argmin(np.abs(grid.omega - wl))) for wl in slice_omegas]
    for i, l in enumerate(slice_ls):
        files.append(f"three_photon_slice_{i}.csv")
        tensor.slice_to_csv(outdir / files[-1], l)

    return {
        "scenario": "Scattering3Photon",
        "gamma": gamma_eff,
        "gamma_prime": gamma_p,
        "P3": p3,
        "P3_2n": p3_2n,
        "P3_rel_change": p3_2n / p3 - 1.0,
        "on_shell_mass_fraction": frac,
        "mean_total_frequency": mean_w,
        "packet_norm": packet.norm_squared,
        "packet_dressing_overlap": overlap,
        "packet_overlap_method": "modes" if box_fits else "envelope",
        "packet_front_edge_in_decay_lengths": abs(x0) * gamma_p / grid.c,
        "n_modes": n_modes,
        "directions": "both propagation directions included in all sums",
        "grid": grid.geometry_dict(),
        "slice_omega_l": [float(grid.omega[l]) for l in slice_ls],
        "files": files,
    }


def _scenario_oracle_compare(cfg, outdir):
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
    rows = [(*r["pair"], r["omega_sum"], r["oracle"].real, r["oracle"].imag,
             r["perturbative"].real, r["perturbative"].imag, r["rel_deviation"])
            for r in report["resonant_pairs"]]
    write_csv(
        outdir / "pair_amplitudes.csv",
        ["mode_j", "mode_k", "omega_sum", "oracle_re", "oracle_im",
         "perturbative_re", "perturbative_im", "rel_deviation"],
        list(zip(*rows)),
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
        "solver": {
            "n_rhs_evals": report["n_rhs_evals"],
            "n_steps": report["n_steps"],
            "n_rejected": report["n_rejected"],
            "n_periods": report["n_periods"],
            "period_rhs_evals": report["period_rhs_evals"],
            "unitarity_defect": report["unitarity_defect"],
            "norm_drift": report["norm_drift"],
            "truncation_estimates": report["truncation_estimates"],
            "expm_matvecs": report["expm_matvecs"],
        },
    }


def _scenario_transform_residual(cfg, outdir):
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
    write_csv(outdir / "residuals.csv", ["xi_max", "residual_max_norm"],
              list(zip(*rows)))

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
    "RateSweep1D": lambda c, o: _scenario_rate_sweep(c, o, 1),
    "RateSweep3D": lambda c, o: _scenario_rate_sweep(c, o, 3),
    "Scattering3Photon": _scenario_scattering,
    "OracleCompare": _scenario_oracle_compare,
    "AppendixAVerify": _scenario_transform_residual,
}


def _finite_number(text: str) -> float:
    """``json.load`` number hook: a config number must be a finite float.

    Serves as ``parse_constant`` (``NaN``, ``Infinity``, ``-Infinity``) and as
    ``parse_float`` (literals such as ``1e999`` that overflow to inf).  A
    non-finite value passes every schema bound, since comparisons with NaN are
    false, and then fails deep inside a scenario or never returns.
    """
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text} is not allowed")
    return value


def run_scenario(config_path, out_override=None, threads=1) -> int:
    """Execute one scenario config; returns the process exit code.

    ``threads`` is ignored; it is kept only because the scenario benchmark
    (``perfbench/child.py``) still passes ``threads=1``, and goes with that
    call.
    """
    t_start = time.perf_counter()
    try:
        with open(config_path, encoding="utf-8") as fh:
            cfg = json.load(fh, parse_float=_finite_number,
                            parse_constant=_finite_number)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        cfg = validate_config(cfg)
        outdir = Path(out_override or cfg["output_directory"])
        runner = _SCENARIOS[cfg["scenario"]]
    except (ConfigError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        outdir.mkdir(parents=True, exist_ok=True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            summary = runner(cfg, outdir)
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
    solver = summary.pop("solver", {})
    _write_json(outdir / "summary.json", summary)
    _write_json(outdir / "manifest.json", {
        "package": "vacuum-shake",
        "version": __version__,
        "config": cfg,
        "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
        "solver": solver,
        "wall_time_s": time.perf_counter() - t_start,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "generated_unix": int(time.time()),
    })
    print(f"{cfg['scenario']}: ok ({outdir})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# baseline comparison
# ---------------------------------------------------------------------------

def _load_table(path: Path):
    """The parsed JSON document, or a CSV's header and rows.

    Raises ``OSError``, ``ValueError`` or ``csv.Error`` when the file is
    missing, empty or malformed.
    """
    if path.suffix == ".json":
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError("empty file")
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

    tables = []
    for path in (result_file, baseline_file):
        try:
            tables.append(_load_table(Path(path)))
        except (OSError, ValueError, csv.Error) as exc:
            print(f"error: cannot read {path}: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    res, base = tables

    is_csv = "__csv_header__" in res
    if is_csv != ("__csv_header__" in base):
        print("schema mismatch: one file is CSV, the other JSON", file=sys.stderr)
        return EXIT_CONFIG

    failures = []
    checked = 0
    worst = (0.0, None)  # largest relative deviation and its field

    def compare(name, a, b, tol):
        nonlocal checked, worst
        checked += 1
        scale = max(abs(a), abs(b))
        rel = abs(a - b) / scale if scale > 0 else 0.0
        if rel > worst[0]:
            worst = (rel, name)
        if _deviates(a, b, tol, default_rel, default_abs):
            failures.append((name, a, b, abs(a - b)))

    if is_csv:
        if res["__csv_header__"] != base["__csv_header__"]:
            print("schema mismatch: CSV headers differ", file=sys.stderr)
            return EXIT_CONFIG
        if len(res["__csv_rows__"]) != len(base["__csv_rows__"]):
            print("schema mismatch: row counts differ", file=sys.stderr)
            return EXIT_CONFIG
        header = res["__csv_header__"]
        if any(len(row) != len(header)
               for row in res["__csv_rows__"] + base["__csv_rows__"]):
            print("schema mismatch: a CSV row's cell count differs from the header's",
                  file=sys.stderr)
            return EXIT_CONFIG
        for i, (ra, rb) in enumerate(zip(res["__csv_rows__"], base["__csv_rows__"])):
            for col, (a, b) in enumerate(zip(ra, rb)):
                name = header[col]
                try:
                    fa, fb = float(a), float(b)
                except ValueError:
                    if a != b:
                        failures.append((f"row {i} col {name}", a, b, 0.0))
                    continue
                compare(f"row {i} col {name}", fa, fb, per_field.get(name, {}))
    else:
        fa, fb = _flatten(res), _flatten(base)
        if set(fa) != set(fb):
            print("schema mismatch: JSON field sets differ", file=sys.stderr)
            return EXIT_CONFIG
        for key in sorted(fa):
            a, b = fa[key], fb[key]
            if _is_number(a) and _is_number(b):
                compare(key, a, b, per_field.get(key.split(".")[-1], {}))
            elif type(a) is not type(b) or a != b:
                failures.append((key, a, b, 0.0))

    if failures:
        print(f"FAIL: {len(failures)} of {checked} compared fields deviate")
        for name, a, b, dev in failures[:20]:
            print(f"  {name}: result={a} baseline={b} |dev|={dev}")
        return EXIT_COMPARE_FAIL
    where = f" at {worst[1]}" if worst[1] is not None else ""
    print(f"PASS: {checked} fields within tolerance, "
          f"largest relative deviation {worst[0]:.3g}{where}")
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
        return run_scenario(args.config, args.out)

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
