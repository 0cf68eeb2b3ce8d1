import os
from pathlib import Path

import numpy as np
import pytest

from vacuum_shake import coupling as cp
from vacuum_shake import modes
from vacuum_shake.fock import EXCITED, GROUND

OMEGA_E = 1.0

SRC = Path(__file__).resolve().parents[1] / "src"


def subprocess_env(*paths):
    """The caller's environment with ``src`` and then ``paths`` as
    PYTHONPATH, for a test's Python subprocess: it keeps the caller's
    settings, such as PYTHONDONTWRITEBYTECODE and OPENBLAS_NUM_THREADS."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC), *paths])}


@pytest.fixture(scope="session")
def small_waveguide():
    """Four modes: omega = 1, 2 in both directions, c = 2."""
    return modes.build_waveguide_grid(4, 2.0, 4.0 * np.pi, 1.0)


@pytest.fixture
def no_large_rules(monkeypatch):
    """Make ``np.linalg.eigh`` fail for any matrix over ``modes.RULE_ORDER_CAP``
    rows, so no rule over the cap is built; smaller rules still are."""
    eigh = np.linalg.eigh

    def guarded(a, *args, **kwargs):
        assert len(a) <= modes.RULE_ORDER_CAP, f"eigh of {len(a)} rows was called"
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", guarded)


def assert_only_rule_built(n):
    """Assert that since ``modes.gauss_legendre``'s cache was last cleared
    exactly one rule was built, and that it was the rule of order ``n``:
    asking for that order again is a cache hit."""
    assert modes.gauss_legendre.cache_info().misses == 1
    modes.gauss_legendre(n)
    assert modes.gauss_legendre.cache_info().misses == 1


def angular_rule(n_polar, n_azimuthal):
    """(Direction, polarization) nodes ``(khat, eps, weight)`` on the unit
    sphere: (2 m, 3), (2 m, 3) and (2 m,) arrays, m = n_polar n_azimuthal.

    Directions are Gauss-Legendre in cos(theta) (polar-major) times the
    uniform azimuthal rule (exact for trigonometric polynomials up to degree
    ``n_azimuthal - 1``).  Each direction has two nodes, polarization
    fastest, eps1 = z x khat normalized (x along +-z) and eps2 = khat x eps1,
    both carrying the direction's weight, so ``weight[::2]`` sums to 4 pi.
    """
    mu, wmu = modes.gauss_legendre(n_polar)  # mu = cos(theta)
    phi = (np.arange(n_azimuthal) + 0.5) * (2.0 * np.pi / n_azimuthal)
    sin_th = np.repeat(np.sqrt(1.0 - mu**2), n_azimuthal)
    az = np.tile(phi, n_polar)
    dirs = np.stack([sin_th * np.cos(az), sin_th * np.sin(az),
                     np.repeat(mu, n_azimuthal)], axis=1)
    e1 = np.cross([0.0, 0.0, 1.0], dirs)
    n1 = np.linalg.norm(e1, axis=1, keepdims=True)
    along_z = n1 < 1e-12
    e1 = np.where(along_z, [1.0, 0.0, 0.0], e1 / np.where(along_z, 1.0, n1))
    e2 = np.cross(dirs, e1)
    # completeness: sum_s eps_a eps_b = delta_ab - khat_a khat_b per direction
    frames = np.stack([dirs, e1, e2], axis=1)
    np.testing.assert_allclose(np.einsum("nsa,nsb->nab", frames, frames),
                               np.broadcast_to(np.eye(3), (len(dirs), 3, 3)),
                               rtol=0, atol=1e-12)
    weight = np.repeat(wmu, n_azimuthal) * (2.0 * np.pi / n_azimuthal)
    return (np.repeat(dirs, 2, axis=0), np.stack([e1, e2], axis=1).reshape(-1, 3),
            np.repeat(weight, 2))


def node_grid_3d(omega, khat, eps, volume=(2.0 * np.pi) ** 3):
    """Free-space grid of hand-picked modes: mode i at omega[i] along khat[i]
    with polarization eps[i] (rows normalized here), c = 1.  Scalars and
    single vectors make a one-node grid."""
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    khat = np.atleast_2d(np.asarray(khat, dtype=float))
    eps = np.atleast_2d(np.asarray(eps, dtype=float))
    khat = khat / np.linalg.norm(khat, axis=1, keepdims=True)
    eps = eps / np.linalg.norm(eps, axis=1, keepdims=True)
    return modes.ModeGrid(
        geometry=modes.FreeSpace3D(volume=volume), omega=omega,
        wavevectors=omega[:, None] * khat, polarizations=eps,
        direction_signs=None, omega_min=float(omega.min()),
        omega_max=float(omega.max()))


def chi(profile, omega):
    """Mode normalization chi = sqrt(omega) chi_scale of a profile's coupling."""
    return np.sqrt(omega) * profile.chi_scale


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
