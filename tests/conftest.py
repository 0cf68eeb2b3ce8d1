import numpy as np
import pytest

from vacuum_shake import coupling as cp
from vacuum_shake import modes

OMEGA_E = 1.0


@pytest.fixture(scope="session")
def small_waveguide():
    """Four modes: omega = 1, 2 in both directions, c = 2."""
    return modes.build_waveguide_grid(4, 2.0, 4.0 * np.pi, 1.0)


@pytest.fixture(scope="session")
def freespace_grid():
    return modes.build_freespace_quadrature(6, 16, 8, 2.0, V=(2.0 * np.pi) ** 3)


def oscillating_1d_profile(grid, *, omega_m, km_rm=0.05, gamma=1e-3,
                           omega_e=OMEGA_E):
    return cp.CouplingProfile.oscillating_1d(
        omega_e, r_m=km_rm * grid.c / omega_m, omega_m=omega_m, gamma=gamma,
        L=grid.geometry.length, c=grid.c,
    )


def static_1d_profile(grid, *, gamma=1e-3, omega_e=OMEGA_E):
    return cp.CouplingProfile.waveguide_1d(
        omega_e, gamma=gamma, L=grid.geometry.length, c=grid.c,
    )
