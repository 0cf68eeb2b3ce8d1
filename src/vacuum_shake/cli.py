"""Scenario runner behind the ``vacuum-shake`` command.

Subcommands::

    vacuum-shake run <config.json> [--out DIR]
    vacuum-shake compare <result> <baseline> [--tol-file F]
    vacuum-shake schema

A scenario config is a single JSON document validated against the shipped
schema, ``config_schema.json`` beside this file, read once per process
(``vacuum-shake schema`` prints it).  The schema declares each
scenario's surface, the sections and keys it reads, in one ``if``/``then``
branch per scenario; any other key exits 2.  RateSweep3D, for example,
reads ``grid.volume`` alone: its rates need no mode grid and no direction
rule.  A scenario writes nothing: it returns its summary and its tables, a
dict of file name to ``(header, columns)``.  The runner writes each table,
``summary.json`` (whose ``files`` lists the tables in order) and
``manifest.json`` (the validated config, package version, warnings, wall
time, peak memory, import time) into the output directory and nowhere
else.  The manifest's config fills in only the top-level ``omega_e`` and
``output_directory``: a section key left out, such as ``grid.length``, takes
its default inside its scenario and is not recorded.  Every CSV artifact is
written by :func:`vacuum_shake.table.write_csv`: a header row, fixed column order,
integers as digits and floats as the shortest string that reads back to the
same float64 (``repr``), UTF-8, ``\n`` line ends, no locale dependence.

Exit codes: 0 success, 1 comparison failure, 2 configuration/schema error
(also an unreadable or malformed ``--tol-file`` and an output directory that
cannot be written), 3 numerical failure, 4 capacity overrun.

Every scenario runs in a single thread.  Warnings a scenario raises are
printed to stderr, one line each with no source line, and listed under
``warnings`` in ``manifest.json``.
The manifest's ``wall_time_s`` is read from the monotonic
``time.perf_counter``, and ``peak_rss_mb`` is the process's peak resident
set size so far (``ru_maxrss``, kilobytes on Linux, over 1024).
``stages.import_s`` is the time the package's ``__init__`` took to run (see
:mod:`vacuum_shake`), numpy's import included where nothing imported numpy
before; it is taken once per process, so every run in one process records
the same value.
A scenario's solver statistics (a ``"solver"`` entry of its summary: the
propagator's of OracleCompare, the sweep size and radial order of
RateSweep1D/3D) go to ``manifest.json`` under ``solver``, not to
``summary.json``.
"""

from __future__ import annotations

import functools
import json
import math
import os
import resource
import sys
import time
import warnings

import numpy as np

from . import __version__, _import_s
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


@functools.cache
def _schema_text() -> str:
    path = os.path.join(os.path.dirname(__file__), "config_schema.json")
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def load_schema() -> dict:
    """The packaged config schema, a fresh dict per call; the file is read
    once per process."""
    return json.loads(_schema_text())


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


def _unsupported_keywords(schema: dict) -> set:
    unknown, stack = set(), [schema]
    while stack:  # one pass over the schema and all its subschemas
        node = stack.pop()
        unknown |= node.keys() - _KEYWORDS - _ANNOTATIONS
        if node.get("type", "object") not in _TYPES:
            unknown.add(f"type {node['type']!r}")
        stack += node.get("properties", {}).values()
        stack += node.get("allOf", [])
        stack += [node[k] for k in ("items", "if", "then") if k in node]
    return unknown


@functools.cache
def _checked_schema() -> dict:
    """The schema that ``validate_config`` reads (and never changes), parsed
    and checked for keywords the validator does not know once per process."""
    schema = load_schema()
    unknown = _unsupported_keywords(schema)
    if unknown:
        raise NotImplementedError(
            f"config schema uses keywords the validator does not know: {sorted(unknown)}")
    return schema


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
    The only defaults filled in are the top-level ``omega_e`` (1.0) and
    ``output_directory`` ("results"); each scenario applies the defaults of
    its own section keys.
    """
    schema = _checked_schema()
    err = _schema_error(cfg, schema, [])
    if err:
        raise ConfigError(f"config schema violation at {err[0]}: {err[1]}")
    return {"omega_e": 1.0, "output_directory": "results",
            **_integers_as_int(cfg, schema)}


def _write_json(path, doc: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# scenarios
# ---------------------------------------------------------------------------

def _scenario_dressing_dump(cfg):
    omega_e = cfg["omega_e"]
    g = cfg.get("grid", {})
    p = cfg.get("profile", {})
    n_modes = g.get("n_modes", 16)
    grid = modes.build_waveguide_grid(
        n_modes, g.get("omega_max", 2.0 * omega_e),
        g.get("length", n_modes * np.pi), 1.0, omega_min=g.get("omega_min", 0.0),
    )
    gamma = p.get("gamma", 1e-3)
    omega_m = p.get("omega_m")
    if omega_m:
        km_rm = p.get("k_m_r_m", 0.05)
        profile = cp.CouplingProfile.oscillating_1d(
            omega_e, r_m=km_rm * grid.c / omega_m, omega_m=omega_m,
            gamma=gamma, L=grid.geometry.length, c=grid.c,
        )
    else:
        profile = cp.CouplingProfile.waveguide_1d(
            omega_e, gamma=gamma, L=grid.geometry.length, c=grid.c,
        )
    frame = dr.DressedFrame(grid, profile)

    times = p.get("times", [0.0])
    header = ["k_index", "k_prime_index", "re", "im"]
    j, k = np.triu_indices(grid.n_modes)
    tables = {}
    for i, t in enumerate(times):
        lam = dr.lambda_matrix(frame, t)[j, k]
        tables[f"lambda_t{i}.csv"] = header, [j, k, lam.real, lam.imag]
    pairs = dr.ground_state_pairs(frame)
    tables["ground_state_pairs.csv"] = header, [j, k, pairs.real, pairs.imag]
    return {
        "scenario": "DressingDump",
        "gamma": gamma,
        "times": list(map(float, times)),
        "two_photon_weight": float(np.sum(np.abs(pairs) ** 2)),
        # ground_state_pairs has run check_smallness(0.0) and warned once
        "sum_xi_squared": float(np.sum(np.abs(frame.xi_all(0.0)) ** 2)),
    }, tables


def _sweep_values(cfg):
    s = cfg.get("sweep", {})
    lo = s.get("omega_m_min", 1e-3)
    hi = s.get("omega_m_max", 1e-2)
    n = s.get("n_points", 16)
    if hi <= lo:
        raise ConfigError("sweep needs omega_m_max > omega_m_min")
    # not np.geomspace, whose first call in a process takes about 0.3 ms,
    # twice this form's
    wms = lo * (hi / lo) ** np.linspace(0.0, 1.0, n)
    wms[[0, -1]] = lo, hi
    return wms, s.get("n_radial", 48)


def _scenario_rate_sweep(cfg, dim):
    omega_e = cfg["omega_e"]
    p = cfg.get("profile", {})
    g = cfg.get("grid", {})
    gamma = p.get("gamma", 1e-3)
    km_rm = p.get("k_m_r_m", 0.05)
    wms, n_radial = _sweep_values(cfg)

    if dim == 3:
        geometry = modes.FreeSpace3D(g.get("volume", (2.0 * np.pi) ** 3))
        dhat = p.get("dipole_direction", [0.0, 0.0, 1.0])
        rhat = p.get("rhat_m", [0.0, 0.0, 1.0])

        def build(wm):
            return cp.CouplingProfile.oscillating_3d(
                omega_e, dhat, rhat, r_m=km_rm / wm, omega_m=wm,
                gamma=gamma, V=geometry.volume,
            )
    else:
        n_modes = g.get("n_modes", 64)
        # c comes from the box lattice that tiles (0, omega_max]
        geometry = modes.build_waveguide_grid(
            n_modes, g.get("omega_max", 2.0 * omega_e),
            g.get("length", n_modes * np.pi), 1.0,
        ).geometry

        def build(wm):
            return cp.CouplingProfile.oscillating_1d(
                omega_e, r_m=km_rm * geometry.c / wm, omega_m=wm, gamma=gamma,
                L=geometry.length, c=geometry.c,
            )

    rates, exponent, slopes = rad.rate_sweep(geometry, wms, build,
                                             n_radial=n_radial)
    summary = {
        "scenario": f"RateSweep{dim}D",
        "fitted_exponent": exponent,
        "gamma": gamma,
        "k_m_r_m": km_rm,
        "n_points": len(wms),
        "n_radial": n_radial,
        "grid": geometry.as_dict(),
        "polarization_sum": "included in all 3D rate integrals" if dim == 3
        else "single polarization (waveguide)",
        "solver": {"n_points": len(wms), "n_radial": n_radial},
    }
    if dim == 3:
        summary["constant_C"] = rad.extract_rate_constant(
            wms, rates, k_m_r_m=km_rm, gamma=gamma, omega_e=omega_e)
    else:
        summary["sideband_model"] = (
            "translation-phase expansion of the waveguide coupling; "
            "no transverse magnetic term in 1D"
        )
    return summary, {"rates.csv": (["omega_m", "rate", "pointwise_slope"],
                                   [wms, rates, slopes])}


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


def _scenario_scattering(cfg):
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

    tables = {"three_photon_spectrum.csv": (["omega_total", "weight"], tensor.spectrum),
              "three_photon_marginal.csv": (["omega", "weight"],
                                            tensor.marginal_spectrum())}
    slice_ls = [int(np.argmin(np.abs(grid.omega - wl))) for wl in slice_omegas]
    for i, l in enumerate(slice_ls):
        tables[f"three_photon_slice_{i}.csv"] = (
            ["omega_j", "weight"], [grid.omega, tensor.slice_spectrum(l)])

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
        "grid": grid.geometry.as_dict(),
        "slice_omega_l": [float(grid.omega[l]) for l in slice_ls],
    }, tables


def _scenario_oracle_compare(cfg):
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
    )
    frame = dr.DressedFrame(grid, profile)
    basis = fk.enumerate_basis(grid.n_modes, n_max)
    tol = cfg.get("tolerances", {}).get("propagation", 1e-10)
    report = rad.oracle_compare_pair_production(basis, frame, t_final, tol=tol)
    rows = [(*r["pair"], r["omega_sum"], r["oracle"].real, r["oracle"].imag,
             r["perturbative"].real, r["perturbative"].imag, r["rel_deviation"])
            for r in report["resonant_pairs"]]
    header = ["mode_j", "mode_k", "omega_sum", "oracle_re", "oracle_im",
              "perturbative_re", "perturbative_im", "rel_deviation"]
    return {
        "scenario": "OracleCompare",
        "xi_max": xi_max,
        "t_final": t_final,
        "max_rel_deviation": report["max_rel_deviation"],
        "max_mag_deviation": report["max_mag_deviation"],
        "norm_drift": report["norm_drift"],
        "mode_frequencies": list(map(float, freqs)),
        "omega_m": omega_m,
        "solver": report["solver"],
    }, {"pair_amplitudes.csv": (header, list(zip(*rows)))}


def _scenario_transform_residual(cfg):
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

    summary = {
        "scenario": "AppendixAVerify",
        "n_modes": n_modes,
        "n_max": n_max,
        "shell_margin": margin,
        "residuals": {str(x): v for x, v in rows},
    }
    if len(rows) >= 2:
        summary["scaling_ratios"] = [
            rows[i][1] / rows[i + 1][1] for i in range(len(rows) - 1)
        ]
    return summary, {"residuals.csv": (["xi_max", "residual_max_norm"],
                                       list(zip(*rows)))}


_SCENARIOS = {
    "DressingDump": _scenario_dressing_dump,
    "RateSweep1D": lambda c: _scenario_rate_sweep(c, 1),
    "RateSweep3D": lambda c: _scenario_rate_sweep(c, 3),
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
        outdir = os.fspath(out_override or cfg["output_directory"]) or os.curdir
        runner = _SCENARIOS[cfg["scenario"]]
    except (ConfigError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        os.makedirs(outdir, exist_ok=True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            summary, tables = runner(cfg)
        for w in caught:
            sys.stderr.write(warnings.formatwarning(w.message, w.category,
                                                    w.filename, w.lineno, line=""))
        for name, (header, columns) in tables.items():
            write_csv(os.path.join(outdir, name), header, columns)
        summary["files"] = list(tables)
        solver = summary.pop("solver", {})
        _write_json(os.path.join(outdir, "summary.json"), summary)
        _write_json(os.path.join(outdir, "manifest.json"), {
            "package": "vacuum-shake",
            "version": __version__,
            "config": cfg,
            "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
            "solver": solver,
            "stages": {"import_s": _import_s},
            "wall_time_s": time.perf_counter() - t_start,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "generated_unix": int(time.time()),
        })
    except (ConfigError, DomainError) as exc:
        print(f"error: configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericalError, FitQualityError) as exc:
        print(f"error: numerical: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except CapacityError as exc:
        print(f"error: capacity: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except OSError as exc:  # the output directory or an output file cannot be made
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"{cfg['scenario']}: ok ({outdir})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# baseline comparison
# ---------------------------------------------------------------------------

def _leaves(doc, prefix: str, name):
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _leaves(v, f"{prefix}{k}.", k)
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _leaves(v, f"{prefix}{i}.", name)
    else:
        yield prefix[:-1], name, doc


def _fields(path):
    """Yield ``(field, tolerance name, value)`` for each value of a CSV or
    JSON artifact: a CSV cell is ``row i col c``, named ``c``, a float if it
    parses as one; each header column is a field with no value.  A JSON leaf
    is its dotted path, named by its key, or by its list's key in a list.
    Raises ``OSError``, ``ValueError`` or ``csv.Error`` when the file is
    missing, empty or malformed, or a CSV's columns or cell counts are not
    one header's."""
    import csv

    with open(path, newline="", encoding="utf-8") as fh:
        if os.path.splitext(path)[1] == ".json":
            yield from _leaves(json.load(fh), "", None)
            return
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError("empty file")
    header = rows[0]
    if len(set(header)) < len(header):
        raise ValueError("a CSV header names a column twice")
    if any(len(row) != len(header) for row in rows):
        raise ValueError("a CSV row's cell count differs from the header's")
    for j, col in enumerate(header):
        yield f"header col {j} = {col}", None, None
    for i, row in enumerate(rows[1:]):
        for col, cell in zip(header, row):
            try:
                value = float(cell)
            except ValueError:
                value = cell
            yield f"row {i} col {col}", col, value


def _check_bounds(doc, keys, where: str):
    """Raise ``ValueError`` unless ``doc`` is an object with keys among
    ``keys``, each a finite number >= 0."""
    if not isinstance(doc, dict) or not doc.keys() <= set(keys):
        raise ValueError(f"{where} must be an object with keys among {', '.join(keys)}")
    for key, value in doc.items():
        if not (_is_number(value) and 0 <= value <= sys.float_info.max):
            raise ValueError(f"{where}: {key} must be a number >= 0, not {value!r}")


def _load_tolerances(path) -> dict:
    """A ``--tol-file``: an object of ``default_rel``, ``default_abs`` and
    ``fields`` (field name -> object of ``rel`` and ``abs``), every bound a
    finite number >= 0.  Raises ``OSError`` or ``ValueError``; a NaN or inf
    bound would let any deviation pass."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh, parse_float=_finite_number,
                        parse_constant=_finite_number)
    fields = doc.get("fields", {}) if isinstance(doc, dict) else None
    if not isinstance(fields, dict):
        raise ValueError("a tolerance file is an object, and its fields one too")
    _check_bounds({k: v for k, v in doc.items() if k != "fields"},
                  ("default_rel", "default_abs", "fields"), "tolerance file")
    for name, tol in fields.items():
        _check_bounds(tol, ("rel", "abs"), f"tolerance of field {name!r}")
    return doc


def compare_baseline(result_file, baseline_file, tolerances=None) -> int:
    """Compare two CSV or two JSON artifacts field by field (see ``_fields``);
    prints a report, returns an exit code.  A field's tolerance is
    ``tolerances["fields"][name]`` for its name: a CSV cell's column, a JSON
    leaf's own key, or for an element of a JSON list the list's key; other
    fields take ``default_rel`` and ``default_abs``.  Numbers pass when
    |a - b| <= rel max(|a|, |b|) + abs, never when NaN or inf; a bool never
    equals a number and other values must be equal.  Differing field sets,
    like an unreadable file, exit 2."""
    import csv

    tolerances = tolerances or {}
    default_rel = tolerances.get("default_rel", 1e-9)
    default_abs = tolerances.get("default_abs", 1e-300)
    per_field = tolerances.get("fields", {})

    docs = []
    for path in (result_file, baseline_file):
        try:
            docs.append({field: (name, v) for field, name, v in _fields(path)})
        except (OSError, ValueError, csv.Error) as exc:
            print(f"error: cannot read {path}: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    res, base = docs
    one_sided = sorted(res.keys() ^ base.keys())
    if one_sided:
        print(f"schema mismatch: {len(one_sided)} fields are in one file only, "
              f"such as {one_sided[0]!r}", file=sys.stderr)
        return EXIT_CONFIG

    failures, checked = [], 0
    worst = (0.0, None)  # largest relative deviation and its field
    for field, (name, a) in res.items():
        b = base[field][1]
        if not (_is_number(a) and _is_number(b)):
            if type(a) is not type(b) or a != b:
                failures.append((field, a, b, 0.0))
            continue
        checked += 1
        dev, scale = abs(a - b), max(abs(a), abs(b))
        if scale > 0 and dev / scale > worst[0]:
            worst = (dev / scale, field)
        tol = per_field.get(name, {})
        if not (math.isfinite(a) and math.isfinite(b)) or dev > (
                tol.get("rel", default_rel) * scale + tol.get("abs", default_abs)):
            failures.append((field, a, b, dev))

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
    import argparse

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
            tolerances = _load_tolerances(args.tol_file)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read tolerance file: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    return compare_baseline(args.result, args.baseline, tolerances)


if __name__ == "__main__":
    sys.exit(main())
