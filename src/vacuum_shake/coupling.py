"""Atom-field coupling models g_k(t) and their co-rotating counterparts eta_k(t).

Three coupling kinds are supported:

* ``OSCILLATING_3D`` -- atom on the prescribed trajectory
  ``r_A(t) = r_m cos(omega_m t) rhat_m`` in free space.  The coupling carries
  the translation phase ``exp(i k . r_A)`` and the velocity-dependent
  magnetic (Roentgen) correction ``beta(t) . [eps (dhat.khat) - khat
  (dhat.eps)]``.  In the long-wavelength regime the expansion
  ``exp(i k . r_A) ~ 1 + i k . r_A`` turns the co-rotating coupling into a
  carrier plus two sidebands at ``+-omega_m`` with real amplitudes
  ``eta0`` and ``eta_plus``/``eta_minus``.
* ``WAVEGUIDE_1D`` -- atom at rest at x = 0 in a single-polarization
  waveguide, ``eta_k = [2 omega_e/(omega_e+omega_k)] sqrt(omega_k/(2 A L)) d``
  (units with epsilon_0 = hbar = 1).
* ``OSCILLATING_1D`` -- the waveguide coupling with the same prescribed
  harmonic motion along the guide axis; sidebands follow from the
  ``exp(i k x_A(t))`` phase alone (scalar polarization, no transverse
  magnetic term).

Units: hbar = epsilon_0 = 1, frequencies in units of the transition
frequency omega_e unless configured otherwise, c explicit.  The per-mode
normalization ``chi_k = sqrt(omega_k) * chi_scale`` absorbs the dipole matrix
element and quantization volume; ``chi_scale`` is most conveniently set by
targeting a spontaneous decay rate: the constructors
``CouplingProfile.oscillating_3d``, ``waveguide_1d`` and ``oscillating_1d``
take it as ``gamma=``.

The expanded coupling of every kind is exactly a three-term Fourier series
g_k(t) = g0 + g+ e^{i omega_m t} + g- e^{-i omega_m t}.  One kernel maps node
arrays (frequency, direction, polarization) to those components; the
grid-wide (3, n) array of :func:`grid_fourier` and the co-rotating
amplitudes of ``eta_components_arrays_1d/3d`` both derive from it.  A
coupling at one time is ``harmonic_phases(omega_m, t) @ grid_fourier(...)``.
Profiles are immutable and safe to share.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError
from .modes import ModeGrid

__all__ = [
    "CouplingKind",
    "CouplingProfile",
    "HARMONICS",
    "grid_fourier",
    "harmonic_phases",
    "eta_from_g",
    "eta_components_arrays_3d",
    "eta_components_arrays_1d",
]

#: harmonic order nu of the rows of a Fourier array: g(t) = sum_nu g_nu e^{i nu w_m t}
HARMONICS = np.array([0, 1, -1])


class CouplingKind(enum.Enum):
    OSCILLATING_3D = "OscillatingPosition3D"
    WAVEGUIDE_1D = "Waveguide1D"
    OSCILLATING_1D = "OscillatingPosition1D"


def _unit(v, name):
    v = np.asarray(v, dtype=float)
    n = np.linalg.norm(v)
    if n < 1e-12:
        raise ConfigError(f"{name} must be a nonzero vector")
    return v / n


@dataclass(frozen=True)
class CouplingProfile:
    """Immutable description of one coupling scenario.

    ``chi_scale`` sets chi_k = sqrt(omega_k) * chi_scale.  For oscillating
    kinds the trajectory is r_m cos(omega_m t) along ``rhat_m`` (a signed
    scalar axis in 1D); ``k_m = omega_m / c``.
    """

    kind: CouplingKind
    omega_e: float
    chi_scale: float
    c: float = 1.0
    dipole_direction: Optional[np.ndarray] = None  # unit 3-vector, OSCILLATING_3D
    r_m: float = 0.0
    omega_m: float = 0.0
    rhat_m: Optional[np.ndarray] = None  # unit 3-vector, OSCILLATING_3D
    km_rm_guard: float = 0.1  # OracleCompare raises it to its own k_m r_m

    def __post_init__(self):
        if self.omega_e <= 0:
            raise ConfigError("omega_e must be positive")
        if self.chi_scale < 0:
            raise ConfigError("chi_scale must be >= 0")
        if self.kind is CouplingKind.OSCILLATING_3D:
            if self.dipole_direction is None:
                raise ConfigError("3D profiles need a dipole direction")
            object.__setattr__(self, "dipole_direction",
                               _unit(self.dipole_direction, "dipole_direction"))
            if self.rhat_m is None:
                raise ConfigError("oscillating 3D profile needs rhat_m")
            object.__setattr__(self, "rhat_m", _unit(self.rhat_m, "rhat_m"))
        if self.kind in (CouplingKind.OSCILLATING_3D, CouplingKind.OSCILLATING_1D):
            if self.r_m < 0 or self.omega_m <= 0:
                raise ConfigError("oscillating profiles need r_m >= 0 and omega_m > 0")
            km = self.omega_m / self.c
            if km * self.r_m > self.km_rm_guard:
                raise ConfigError(
                    f"k_m*r_m = {km * self.r_m:.3g} exceeds the long-wavelength "
                    f"guard {self.km_rm_guard}"
                )
            beta_max = self.r_m * self.omega_m / self.c
            if beta_max >= 1.0:
                raise ConfigError(f"beta_max = {beta_max:.3g} is not non-relativistic")

    @property
    def k_m(self) -> float:
        return self.omega_m / self.c

    @property
    def is_1d(self) -> bool:
        return self.kind in (CouplingKind.WAVEGUIDE_1D, CouplingKind.OSCILLATING_1D)

    def chi(self, omega):
        return np.sqrt(np.asarray(omega, dtype=float)) * self.chi_scale

    # -- normalization helpers ------------------------------------------------

    @staticmethod
    def oscillating_3d(omega_e, dipole_direction, rhat_m, r_m, omega_m, *,
                       gamma, V, c=1.0):
        scale = np.sqrt(3.0 * np.pi * c**3 * gamma / (2.0 * V * omega_e**3))
        return CouplingProfile(
            kind=CouplingKind.OSCILLATING_3D, omega_e=omega_e, chi_scale=scale,
            c=c, dipole_direction=dipole_direction, rhat_m=rhat_m,
            r_m=r_m, omega_m=omega_m,
        )

    @staticmethod
    def waveguide_1d(omega_e, *, gamma, L, c=1.0):
        """Waveguide profile normalized so the total (two-direction) decay rate
        at resonance is ``gamma``;  gamma = 2 L eta(omega_e)^2 / c."""
        scale = np.sqrt(c * gamma / (2.0 * L * omega_e))
        return CouplingProfile(
            kind=CouplingKind.WAVEGUIDE_1D, omega_e=omega_e, chi_scale=scale, c=c,
        )

    @staticmethod
    def oscillating_1d(omega_e, r_m, omega_m, *, gamma, L, c=1.0):
        scale = np.sqrt(c * gamma / (2.0 * L * omega_e))
        return CouplingProfile(
            kind=CouplingKind.OSCILLATING_1D, omega_e=omega_e, chi_scale=scale,
            c=c, r_m=r_m, omega_m=omega_m,
        )


def _amplitudes(profile: CouplingProfile, omega, direction, polarization):
    """Real carrier and sideband amplitudes (a0, a+, a-) over nodes.

    The expanded coupling is g_k(t) = g0 + g+ e^{i w_m t} + g- e^{-i w_m t}
    with g0 = chi a0 and g+- = (i k_m r_m / 2) chi a+-; the co-rotating
    amplitudes are eta0 = 2 pref a0 and eta+- = pref a+-, pref = chi/(1 +
    omega/omega_e).  ``direction`` holds the signed propagation direction
    (shape (n,)) of waveguide modes or the unit wavevector (n, 3) in free
    space, where ``polarization`` is (n, 3); it is unused in 1D.

    In free space the translation phase i k.r_A gives the Doppler-like term
    (k/k_m)(khat.rhat_m)(dhat.eps) and the velocity the magnetic bracket
    rhat_m.[eps (dhat.khat) - khat (dhat.eps)], entering a+ and a- with
    opposite signs; in 1D the phase alone gives a+- = k_signed/k_m.  The
    static waveguide has no sidebands.
    """
    omega = np.asarray(omega, dtype=float)
    if profile.is_1d:
        a0 = np.ones_like(omega)
        if profile.kind is CouplingKind.WAVEGUIDE_1D:
            return a0, np.zeros_like(omega), np.zeros_like(omega)
        side = np.asarray(direction, dtype=float) * omega / profile.omega_m
        return a0, side, side
    dhat = profile.dipole_direction
    d_eps = polarization @ dhat
    rm = profile.rhat_m
    rm_khat = direction @ rm
    doppler = (omega / profile.omega_m) * rm_khat * d_eps  # |k|/k_m, shared c
    magnetic = (polarization @ rm) * (direction @ dhat) - rm_khat * d_eps
    return d_eps, doppler + magnetic, doppler - magnetic


def grid_fourier(profile: CouplingProfile, grid: ModeGrid) -> np.ndarray:
    """(3, n) Fourier components g_nu,k of the coupling over all grid modes.

    Row nu of ``HARMONICS`` = (0, +1, -1) holds g_nu, so g_k(t) = sum_nu
    g_nu,k e^{i nu w_m t} exactly (the long-wavelength expansion is first
    order in r_m).
    """
    if profile.is_1d != grid.is_waveguide:
        raise ConfigError(
            f"profile kind {profile.kind.value} is incompatible with a "
            f"{'1D' if grid.is_waveguide else '3D'} grid"
        )
    if grid.is_waveguide:
        a0, ap, am = _amplitudes(profile, grid.omega, grid.direction_signs, None)
    else:
        k = grid.wavevectors
        khat = k / np.linalg.norm(k, axis=1, keepdims=True)
        a0, ap, am = _amplitudes(profile, grid.omega, khat, grid.polarizations)
    chi = profile.chi(grid.omega)
    side = 0.5j * profile.k_m * profile.r_m * chi
    return np.array([chi * a0, side * ap, side * am])


def harmonic_phases(omega_m: float, t: float) -> np.ndarray:
    """e^{i nu w_m t} over nu = ``HARMONICS``.

    Its product with a Fourier array (``phases @ g``) is the series at t.
    """
    return np.exp(1j * (HARMONICS * omega_m) * t)


def eta_from_g(profile: CouplingProfile, omega, g):
    """Co-rotating image 2 omega_e g / (omega + omega_e) of a coupling g at omega."""
    return 2.0 * g / (1.0 + np.asarray(omega, dtype=float) / profile.omega_e)


def _eta_arrays(profile: CouplingProfile, omega, direction, polarization=None):
    e = eta_from_g(profile, omega, profile.chi(omega))  # 2 pref
    a0, ap, am = _amplitudes(profile, omega, direction, polarization)
    return e * a0, 0.5 * e * ap, 0.5 * e * am


def eta_components_arrays_3d(profile: CouplingProfile, omega, khat, eps):
    """Vectorized (eta0, eta_plus, eta_minus) over arrays of nodes.

    ``khat`` and ``eps`` have shape (n, 3); ``omega`` shape (n,).  Used by
    the rate quadrature at radii that are not grid nodes.
    """
    if profile.kind is not CouplingKind.OSCILLATING_3D:
        raise ConfigError("sideband components are defined for the oscillating 3D kind")
    return _eta_arrays(profile, omega, khat, eps)


def eta_components_arrays_1d(profile: CouplingProfile, omega, sign):
    """Vectorized (eta0, eta_plus, eta_minus) for signed-direction 1D modes.

    The oscillating-waveguide sidebands come from the translation phase only:
    eta_pm = (k_signed / 2 k_m) * eta0 with k_signed = sign * omega / c.
    """
    if profile.kind is not CouplingKind.OSCILLATING_1D:
        raise ConfigError("1D sideband components need the oscillating 1D kind")
    return _eta_arrays(profile, omega, sign)
