"""Seeded scenario configs for the benchmark workloads.

Seed 0 reproduces the physics of the shipped configs in ``configs/`` (the
linewidth of ``scatter3`` excepted, see below); any other seed draws the
physical parameters from the ranges below.  Work sizes (mode counts, sweep
points, quadrature nodes, propagation time, basis truncation) never depend on
the seed, so seeds vary the inputs, not the amount of work.  The work sizes
are cut from the shipped configs to about two seconds a scenario, so that a
run of the benchmark holds enough repetitions for a steady median.
"""

from __future__ import annotations

import math
import random

# Why each workload exists; BENCHMARK.json carries the same sentences.
WHY = {
    "scatter3": "Scattering3Photon at 240 modes: three O(n^3) tensor passes "
                "and the CSV slice dominate; fock and coupling barely run",
    "oracle": "OracleCompare to t=12: Hamiltonian builds inside the Fock "
              "propagator dominate; scattering never runs",
    "rates3d": "RateSweep3D at 3 points: the golden-rule Python loop over "
               "polarization frames dominates",
    "small": "DressingDump, RateSweep1D and AppendixAVerify at shipped sizes: "
             "tiny grids and many cheap calls, where fixed set-up cost shows",
}

WORKLOADS = tuple(WHY)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _scatter3(rng, shipped):
    # n_modes=240 gives a mode spacing of 0.00873; the scenario resolves the
    # linewidth when spacing <= 0.75 * min(gamma, gamma'), hence
    # gamma, gamma' >= 0.0117 (the shipped 0.01 would need 300 modes).
    s = {"gamma": 0.012, "gamma_prime": 0.012, "x0_over_packet_length": -16.0,
         "slice_omegas": [0.5]}
    if not shipped:
        s = {"gamma": rng.uniform(0.0117, 0.015),
             "gamma_prime": rng.uniform(0.0117, 0.015),
             "x0_over_packet_length": rng.uniform(-20.0, -12.0),
             "slice_omegas": [rng.uniform(0.4, 0.6)]}
    s["n_modes"] = 240
    return [{"scenario": "Scattering3Photon", "scattering": s}]


def _oracle(rng, shipped):
    # The mode frequencies set the drive and xi_max the coupling strength,
    # and with them the propagator's step count: the frequencies stay fixed
    # and xi_max varies by +-10%, which moves the step count by under 4%.
    o = {"xi_max": 0.03, "k_m_r_m": 0.1}
    if not shipped:
        o = {"xi_max": rng.uniform(0.027, 0.033),
             "k_m_r_m": rng.uniform(0.06, 0.1)}
    o.update(t_final=12.0, n_max=2, mode_frequencies=[0.5, 2.0])
    return [{"scenario": "OracleCompare", "oracle": o}]


def _rate_profile(rng, shipped):
    if shipped:
        return {"gamma": 1e-3, "k_m_r_m": 0.05}
    return {"gamma": _log_uniform(rng, 5e-4, 2e-3),
            "k_m_r_m": rng.uniform(0.03, 0.08)}


def _rates3d(rng, shipped):
    return [{"scenario": "RateSweep3D",
             "profile": _rate_profile(rng, shipped),
             "sweep": {"omega_m_min": 1e-3, "omega_m_max": 1e-2,
                       "n_points": 3, "n_radial": 24}}]


def _small(rng, shipped):
    dump = {"gamma": 1e-3, "omega_m": 0.2, "k_m_r_m": 0.05, "times": [0.0, 10.0]}
    xi, mode_omega = 0.04, 1.2
    if not shipped:
        dump = {"gamma": _log_uniform(rng, 5e-4, 2e-3),
                "omega_m": rng.uniform(0.15, 0.3),
                "k_m_r_m": rng.uniform(0.03, 0.08),
                "times": [0.0, rng.uniform(5.0, 15.0)]}
        xi, mode_omega = rng.uniform(0.03, 0.05), rng.uniform(1.1, 1.3)
    return [
        {"scenario": "DressingDump",
         "grid": {"n_modes": 16, "omega_max": 2.0}, "profile": dump},
        {"scenario": "RateSweep1D",
         "profile": _rate_profile(rng, shipped),
         "sweep": {"omega_m_min": 1e-3, "omega_m_max": 1e-2,
                   "n_points": 16, "n_radial": 48}},
        # halving xi must scale the third-order residual by 8
        {"scenario": "AppendixAVerify",
         "residual": {"xi_values": [xi, xi / 2.0], "n_modes": 2, "n_max": 4,
                      "mode_omega": mode_omega, "shell_margin": 2}},
    ]


_BUILDERS = {"scatter3": _scatter3, "oracle": _oracle,
             "rates3d": _rates3d, "small": _small}


def configs(workload: str, seed: int) -> list[dict]:
    """Scenario configs of one workload repetition; each runs in its own process."""
    rng = random.Random(f"{workload}/{seed}")
    return _BUILDERS[workload](rng, shipped=seed == 0)

