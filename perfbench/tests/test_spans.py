import json
import subprocess
import sys
import time

import pytest

import run
import spans
import workloads


def test_layer_metrics_self_time_and_nesting():
    recorded = [
        ["cli.run_scenario", 0.0, 10.0, -1, None],
        ["cli.validate_config", 0.0, 1.0, 0, None],
        ["radiation.golden_rule_rate", 1.0, 9.0, 0, None],
        ["coupling.eta_components_arrays_3d", 2.0, 3.0, 2, None],
        ["coupling.eval_g", 2.25, 2.5, 3, None],
    ]
    m = spans.layer_metrics([recorded, recorded])
    assert m["coupling.calls"] == 4
    assert m["coupling.s"] == 2.0  # the nested coupling call is not counted twice
    assert m["radiation.rate_calls"] == 2
    assert m["radiation.rate_s"] == 16.0
    assert m["radiation.rate_self_s"] == 14.0
    assert m["cli.validate_s"] == 2.0
    assert m["cli.run_self_s"] == 2.0
    assert m["trace.coverage"] == 0.8


INSTALL = """
import spans
from vacuum_shake import coupling, dressing, fock, radiation
spans.TARGETS["coupling"].append("no_such_function")
spans.TARGETS["scattering"].append("ThreePhotonTensor.no_such_method")
t = spans.Tracer()
t.install()
assert fock.eval_g is coupling.eval_g and hasattr(fock.eval_g, "__wrapped__")
assert radiation.lambda_matrix is dressing.lambda_matrix
assert hasattr(radiation.lambda_matrix, "__wrapped__")
assert radiation.ground_state_pairs is dressing.ground_state_pairs
assert hasattr(radiation.ground_state_pairs, "__wrapped__")
print(sorted(t.absent))
"""


def test_install_wraps_every_binding_and_reports_absent_targets():
    out = subprocess.run([sys.executable, "-c", INSTALL], env=run.child_env(),
                         cwd=run.HERE, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split("\n")[-2] == str(sorted(
        ["coupling.no_such_function", "scattering.ThreePhotonTensor.no_such_method"]))


# Work cut to about a second a scenario; the output check still holds.
SMALLER = {"Scattering3Photon": ("scattering", {"n_modes": 120}),
           "OracleCompare": ("oracle", {"t_final": 5.0}),
           "RateSweep3D": ("sweep", {"n_points": 3, "n_radial": 8})}


def shrink(cfg):
    cfg = json.loads(json.dumps(cfg))
    if cfg["scenario"] in SMALLER:
        body, sizes = SMALLER[cfg["scenario"]]
        cfg[body].update(sizes)
    return cfg


# Each layer counter must be non-zero on the workload meant to exercise it.
EXERCISED = {
    "scatter3": ["modes.build_s", "scattering.reduce_s", "scattering.triples",
                 "scattering.slice_csv_s"],
    "oracle": ["coupling.calls", "coupling.s", "dressing.calls", "dressing.s",
               "fock.hamiltonian_builds", "fock.hamiltonian_s",
               "fock.propagate_self_s", "fock.rhs_evals", "fock.norm_drift",
               "fock.transform_s", "radiation.pair_amplitude_s"],
    "rates3d": ["modes.build_s", "coupling.calls", "coupling.s",
                "radiation.rate_calls", "radiation.rate_s",
                "radiation.rate_self_s"],
    "small": ["modes.build_s", "dressing.calls", "dressing.s",
              "fock.hamiltonian_builds", "fock.residual_s",
              "radiation.rate_calls"],
}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_layer_counters_exercised(name, tmp_path):
    runner = run.Runner(tmp_path, time.monotonic() + 120)
    cfgs = [shrink(c) for c in workloads.configs(name, 1)]
    rep = runner.rep(cfgs, trace=True)
    assert rep is not None, runner.problems
    m = rep["layers"]
    assert rep["absent"] == []
    for key in EXERCISED[name] + ["cli.validate_s", "cli.run_self_s",
                                  "trace.coverage"]:
        assert m[key] > 0, key
    if name == "oracle":
        # eval_g is reached through fock's own binding, 4 modes per build
        assert m["coupling.calls"] >= 4 * m["fock.hamiltonian_builds"]
    if name == "scatter3":
        n = cfgs[0]["scattering"]["n_modes"]
        assert m["scattering.triples"] == 3 * n ** 3
