import importlib
import importlib.util
from pathlib import Path

import pytest

from vacuum_shake import coupling, dressing, fock, modes, radiation, scattering, table


@pytest.mark.parametrize("module", [modes, coupling, dressing, fock, radiation,
                                    scattering, table],
                         ids=lambda m: m.__name__.rsplit(".", 1)[-1])
def test_every_export_exists(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def traced_targets():
    """``TARGETS`` of ``perfbench/spans.py``, the functions the benchmark
    wraps in each layer, read from that file without importing its package."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


# the 11 traced names that ``TARGETS`` lists but the package no longer
# defines; ROADMAP item 8 drops them from ``TARGETS``
ALREADY_ABSENT = {
    "modes": ["grid_from_json"],
    "coupling": ["eval_g", "dg_dt", "g_fourier_components", "eta_components_1d",
                 "eta_components_3d", "eta_waveguide", "eta_of_t"],
    "dressing": ["xi_adiabatic", "xi_exact", "counter_rotating_residual"],
}


@pytest.mark.parametrize("layer", ["modes", "coupling", "dressing", "fock",
                                   "radiation", "scattering", "cli"])
def test_traced_names_resolve(layer):
    # a renamed or deleted function would drop out of the benchmark's
    # per-layer spans with no other test failing
    module = importlib.import_module(f"vacuum_shake.{layer}")
    missing = []
    for target in traced_targets()[layer]:
        owner, _, attr = target.rpartition(".")
        scope = vars(getattr(module, owner, object)) if owner else vars(module)
        if not callable(scope.get(attr)) and target not in ALREADY_ABSENT.get(layer, []):
            missing.append(target)
    assert missing == []
