import numpy as np
import pytest

from vacuum_shake import coupling as cp
from vacuum_shake import modes
from vacuum_shake.fock import EXCITED, GROUND

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


def dense_tensors(tensor):
    """The dense three-photon tensors (raw, sym), indexed [j, k, l], stacked
    from ``raw_slice`` and ``sym_slice`` of a ``ThreePhotonTensor``."""
    ls = range(tensor.n_modes)
    return (np.stack([tensor.raw_slice(l) for l in ls], axis=2),
            np.stack([tensor.sym_slice(l) for l in ls], axis=2))


def dense_annihilator(basis, k):
    """a_k on both atom levels of a Fock ``basis``, dense, built by lowering
    each photon configuration and looking both states up with ``index``."""
    a = np.zeros((basis.dimension, basis.dimension), dtype=complex)
    for occ in basis.photons:
        if occ[k]:
            lowered = occ.copy()
            lowered[k] -= 1
            for atom in (GROUND, EXCITED):
                a[basis.index(atom, lowered), basis.index(atom, occ)] = np.sqrt(occ[k])
    return a


def dense_sigma_x(basis):
    """The atom flip |e><g| + |g><e| on a Fock ``basis``, dense."""
    sx = np.zeros((basis.dimension, basis.dimension), dtype=complex)
    for occ in basis.photons:
        ig, ie = basis.index(GROUND, occ), basis.index(EXCITED, occ)
        sx[ig, ie] = sx[ie, ig] = 1.0
    return sx
