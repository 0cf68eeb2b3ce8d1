import json
from pathlib import Path

import pytest

import workloads

CONFIGS = Path(__file__).resolve().parents[2] / "configs"
SHIPPED = {"scatter3": ["scattering_3photon.json"],
           "oracle": ["oracle_compare.json"],
           "rates3d": ["rate_sweep_3d.json"],
           "small": ["dressing_dump.json", "rate_sweep_1d.json",
                     "transform_residual.json"]}
# keys that set the amount of work; everything else is physics
WORK = {"n_modes", "t_final", "n_points", "n_radial", "n_max"}


def physics(cfg):
    return {sec: {k: v for k, v in body.items() if k not in WORK}
            for sec, body in cfg.items() if isinstance(body, dict)}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_configs(name):
    assert json.dumps(workloads.configs(name, 7)) == json.dumps(workloads.configs(name, 7))
    assert workloads.configs(name, 7) != workloads.configs(name, 8)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seeds_keep_work_sizes(name):
    def sizes(cfgs):
        return [{sec: {k: v for k, v in body.items() if k in WORK}
                 for sec, body in c.items() if isinstance(body, dict)}
                for c in cfgs]

    assert all(sizes(workloads.configs(name, s)) == sizes(workloads.configs(name, 0))
               for s in range(1, 20))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_zero_is_shipped_physics(name):
    for cfg, fname in zip(workloads.configs(name, 0), SHIPPED[name]):
        shipped = json.loads((CONFIGS / fname).read_text())
        assert cfg["scenario"] == shipped["scenario"]
        if name == "scatter3":
            # 240 modes resolve a linewidth of 0.0117 and up, not the shipped 0.01
            shipped["scattering"].update(gamma=0.012, gamma_prime=0.012)
        assert physics(cfg) == physics(shipped)


def test_scatter3_linewidth_stays_resolved():
    for s in range(200):
        sc = workloads.configs("scatter3", s)[0]["scattering"]
        assert min(sc["gamma"], sc["gamma_prime"]) >= 0.0117
