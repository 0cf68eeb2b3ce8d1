"""Layer spans recorded around the public functions of ``vacuum_shake``.

``Tracer.install`` wraps each target below at every module that binds it
(``fock`` binds ``coupling.eval_g``; ``radiation`` binds
``dressing.lambda_matrix`` and ``dressing.ground_state_pairs``), so a call
is recorded whichever name it goes through.  Spans stay in memory as
``[name, start, end, parent, note]`` lists; the parent index is the span
open when the call began, or -1.  A target the package no longer has is
listed in ``Tracer.absent`` and skipped.

``layer_metrics`` turns the spans of one repetition into per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# layer -> public functions; "Class.method" wraps a method on the class.
TARGETS = {
    "modes": ["build_waveguide_grid", "build_freespace_quadrature",
              "grid_from_json", "density_of_states"],
    "coupling": ["eval_g", "dg_dt", "g_fourier_components",
                 "eta_components_1d", "eta_components_3d",
                 "eta_components_arrays_1d", "eta_components_arrays_3d",
                 "eta_waveguide", "eta_of_t"],
    "dressing": ["DressedFrame.__init__", "xi_adiabatic", "xi_exact",
                 "counter_rotating_residual", "lambda_matrix",
                 "ground_state_pairs", "phase_E"],
    "fock": ["enumerate_basis", "build_original_hamiltonian",
             "build_transformed_hamiltonian", "apply_T", "propagate",
             "transformed_residual_norm"],
    "radiation": ["pair_amplitude", "golden_rule_rate", "rate_sweep",
                  "extract_rate_constant", "oracle_compare_pair_production"],
    "scattering": ["gamma_from_coupling", "eta_array", "lorentzian_wavepacket",
                   "packet_dressing_overlap", "decay_amplitudes",
                   "three_photon_coefficients", "three_photon_probability",
                   "ThreePhotonTensor.mass_fraction_within",
                   "ThreePhotonTensor.mean_total_frequency",
                   "ThreePhotonTensor.total_sym_weight",
                   "ThreePhotonTensor.slice_to_csv"],
    "cli": ["run_scenario", "validate_config"],
}

_REDUCTIONS = ("scattering.ThreePhotonTensor.mass_fraction_within",
               "scattering.ThreePhotonTensor.mean_total_frequency",
               "scattering.ThreePhotonTensor.total_sym_weight")


def _propagate_note(args, out):
    return {"rhs_evals": out.info.get("n_rhs_evals", 0),
            "norm_drift": out.info.get("norm_drift", 0.0)}


def _reduction_note(args, out):
    return {"triples": args[0].n_modes ** 3}


# What a span keeps from its call's arguments and result.
_NOTES = {"fock.propagate": _propagate_note,
          **{name: _reduction_note for name in _REDUCTIONS}}


class Tracer:
    """Records a span for each call of a wrapped layer function."""

    def __init__(self):
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        spans, open_ = self.spans, self._open
        note = _NOTES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, open_[-1] if open_ else -1, None]
            open_.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                open_.pop()
                rec[2] = clock()
            if note is not None:
                rec[4] = note(args, out)
            return out

        return traced

    def install(self):
        """Wrap every target at every ``vacuum_shake`` module that binds it."""
        for layer in TARGETS:
            importlib.import_module(f"vacuum_shake.{layer}")
        package = [m for n, m in sys.modules.items()
                   if n == "vacuum_shake" or n.startswith("vacuum_shake.")]
        for layer, names in TARGETS.items():
            module = sys.modules[f"vacuum_shake.{layer}"]
            for target in names:
                full = f"{layer}.{target}"
                owner, _, attr = target.rpartition(".")
                if owner:
                    cls = getattr(module, owner, None)
                    fn = getattr(cls, "__dict__", {}).get(attr)
                    if not callable(fn):
                        self.absent.append(full)
                        continue
                    setattr(cls, attr, self.wrap(full, fn))
                    continue
                fn = getattr(module, attr, None)
                if not callable(fn):
                    self.absent.append(full)
                    continue
                wrapped = self.wrap(full, fn)
                for mod in package:
                    for key, val in list(vars(mod).items()):
                        if val is fn:
                            setattr(mod, key, wrapped)


PER_LAYER = (
    ("modes.build_s", "s"),
    ("coupling.calls", "count"),
    ("coupling.s", "s"),
    ("dressing.calls", "count"),
    ("dressing.s", "s"),
    ("fock.hamiltonian_builds", "count"),
    ("fock.hamiltonian_s", "s"),
    ("fock.propagate_self_s", "s"),
    ("fock.rhs_evals", "count"),
    ("fock.norm_drift", "1"),
    ("fock.transform_s", "s"),
    ("fock.residual_s", "s"),
    ("radiation.rate_calls", "count"),
    ("radiation.rate_s", "s"),
    ("radiation.rate_self_s", "s"),
    ("radiation.pair_amplitude_s", "s"),
    ("scattering.reduce_s", "s"),
    ("scattering.triples", "count"),
    ("scattering.slice_csv_s", "s"),
    ("cli.validate_s", "s"),
    ("cli.run_self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("trace.coverage", "1"),
    ("trace.overhead_s", "s"),
    ("trace.absent_targets", "count"),
)

_BUILDERS = ("modes.build_waveguide_grid", "modes.build_freespace_quadrature")
_HAMILTONIANS = ("fock.build_original_hamiltonian",
                 "fock.build_transformed_hamiltonian")


def layer_metrics(processes: list[list[list]]) -> dict[str, float]:
    """Per-layer metrics of one repetition from the spans of its processes.

    A layer's seconds count only its outermost spans, so a layer function
    calling another of the same layer is not counted twice; self time is a
    span's duration minus that of its direct children.  ``trace.coverage``
    is the share of ``run_scenario`` spent inside non-cli layer spans.
    ``cli.output_bytes``, ``trace.overhead_s`` and ``trace.absent_targets``
    come from outside the spans and stay 0 here.
    """
    m = {name: 0.0 for name, _ in PER_LAYER}
    run_s = 0.0
    for spans in processes:
        run_s += _add_process(m, spans)
    m["trace.coverage"] = m["trace.coverage"] / run_s if run_s > 0 else 0.0
    return m


def _add_process(m: dict, spans: list[list]) -> float:
    """Add one process's spans to ``m``; returns its ``run_scenario`` seconds."""
    dur = [s[2] - s[1] for s in spans]
    layer = [s[0].split(".", 1)[0] for s in spans]
    child = [0.0] * len(spans)
    layer_child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
            if layer[i] != "cli":
                layer_child[s[3]] += dur[i]

    def outermost(i):
        p = spans[i][3]
        while p >= 0:
            if layer[p] == layer[i]:
                return False
            p = spans[p][3]
        return True

    run_s = 0.0
    for i, s in enumerate(spans):
        name, d, self_s = s[0], dur[i], dur[i] - child[i]
        if layer[i] in ("coupling", "dressing"):
            m[f"{layer[i]}.calls"] += 1
            if outermost(i):
                m[f"{layer[i]}.s"] += d
        if name in _BUILDERS:
            m["modes.build_s"] += d
        elif name in _HAMILTONIANS:
            m["fock.hamiltonian_builds"] += 1
            m["fock.hamiltonian_s"] += d
        elif name == "fock.propagate":
            m["fock.propagate_self_s"] += self_s
            m["fock.rhs_evals"] += s[4]["rhs_evals"]
            m["fock.norm_drift"] = max(m["fock.norm_drift"], s[4]["norm_drift"])
        elif name == "fock.apply_T":
            m["fock.transform_s"] += d
        elif name == "fock.transformed_residual_norm":
            m["fock.residual_s"] += d
        elif name == "radiation.golden_rule_rate":
            m["radiation.rate_calls"] += 1
            m["radiation.rate_s"] += d
            m["radiation.rate_self_s"] += self_s
        elif name == "radiation.pair_amplitude":
            m["radiation.pair_amplitude_s"] += d
        elif name in _REDUCTIONS:
            m["scattering.reduce_s"] += d
            m["scattering.triples"] += s[4]["triples"]
        elif name == "scattering.ThreePhotonTensor.slice_to_csv":
            m["scattering.slice_csv_s"] += d
        elif name == "cli.validate_config":
            m["cli.validate_s"] += d
        elif name == "cli.run_scenario":
            run_s += d
            m["cli.run_self_s"] += self_s
            m["trace.coverage"] += layer_child[i]
    return run_s
