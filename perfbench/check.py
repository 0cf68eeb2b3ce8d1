"""Output check of one scenario run, independent of ``vacuum-shake compare``.

A run passes when it exited 0, wrote ``summary.json`` and every file the
summary lists, every number in its JSON and CSV outputs is finite, and its
summary meets the physics invariants of its scenario.  No invariant is a
bit-exact reference: P3 and the oracle deviation are expected to move when
the program gets more accurate.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path


def _near(key, target, tol):
    return (f"{key} within {tol} of {target}",
            lambda s: abs(s[key] - target) <= tol)


INVARIANTS = {
    "DressingDump": [
        ("two_photon_weight > 0", lambda s: s["two_photon_weight"] > 0),
        ("sum_xi_squared < 0.1", lambda s: s["sum_xi_squared"] < 0.1),
    ],
    "RateSweep1D": [_near("fitted_exponent", 3.0, 0.05)],
    "RateSweep3D": [
        _near("fitted_exponent", 7.0, 0.05),
        ("constant_C > 0", lambda s: s["constant_C"] > 0),
    ],
    "Scattering3Photon": [
        ("on_shell_mass_fraction >= 0.9",
         lambda s: s["on_shell_mass_fraction"] >= 0.9),
        ("P3 > 0", lambda s: s["P3"] > 0),
    ],
    "OracleCompare": [
        ("norm_drift < 1e-8", lambda s: s["norm_drift"] < 1e-8),
        ("max_rel_deviation < 0.5", lambda s: s["max_rel_deviation"] < 0.5),
    ],
    # the residual is third order in xi and the config halves xi
    "AppendixAVerify": [
        ("scaling_ratios within 1 of 8",
         lambda s: all(abs(r - 8.0) <= 1.0 for r in s["scaling_ratios"])),
    ],
}


def _numbers(doc):
    if isinstance(doc, dict):
        for v in doc.values():
            yield from _numbers(v)
    elif isinstance(doc, list):
        for v in doc:
            yield from _numbers(v)
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        yield doc


def _csv_numbers(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        next(rows, None)
        for row in rows:
            for cell in row:
                try:
                    yield float(cell)
                except ValueError:
                    pass  # a label column


def check_run(scenario: str, rc: int, outdir: Path) -> list[str]:
    """Problems found in one run's outputs; empty when the run passes."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        with open(outdir / "summary.json", encoding="utf-8") as fh:
            summary = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"summary.json unreadable: {exc}"]
    problems = []
    missing = [f for f in summary.get("files", []) if not (outdir / f).is_file()]
    if missing:
        problems.append(f"listed files missing: {missing}")
    for path in sorted(outdir.iterdir()):
        if path.suffix == ".json":
            with open(path, encoding="utf-8") as fh:
                values = _numbers(json.load(fh))
        elif path.suffix == ".csv":
            values = _csv_numbers(path)
        else:
            continue
        if not all(math.isfinite(v) for v in values):
            problems.append(f"{path.name}: non-finite number")
    if problems:
        return problems
    for what, holds in INVARIANTS.get(scenario, []):
        try:
            ok = holds(summary)
        except (KeyError, TypeError) as exc:
            ok, what = False, f"{what} ({exc!r})"
        if not ok:
            problems.append(f"{scenario}: invariant failed: {what}")
    return problems
