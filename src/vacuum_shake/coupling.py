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
g_k(t) = g0 + g+ e^{i omega_m t} + g- e^{-i omega_m t}, whose sideband
amplitudes are affine in x = omega/omega_m: a+- = x P +- Q, with the
carrier a0 and the factors P and Q depending on direction and polarization
alone.  :func:`angular_factors` maps direction (and polarization) nodes to
(a0, P, Q) and is the only copy of the Doppler and magnetic terms;
:func:`fourier_rows` composes the rows g_nu of any factor set and is the
only copy of chi_k and of the sideband composition.  The periodic
:mod:`dressing` frame divides row nu by omega + omega_e - nu omega_m, and
the golden-rule rates of :mod:`radiation` read its rows of the unit
factors.  A coupling at one time is ``harmonic_phases(omega_m, t) @
grid_fourier(...)``.  Profiles are immutable and safe to share.
"""

from __future__ import annotations

import enum
from typing import Optional

import numpy as np

from .errors import ConfigError
from .modes import ModeGrid, _Frozen

__all__ = [
    "CouplingKind",
    "CouplingProfile",
    "HARMONICS",
    "angular_factors",
    "fourier_rows",
    "grid_fourier",
    "harmonic_phases",
]

#: largest k_m r_m of an oscillating profile: the expansion of the
#: translation phase exp(i k.r_A) is first order in k r_m
KM_RM_GUARD = 0.1

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


class CouplingProfile(_Frozen):
    """Immutable description of one coupling scenario.

    ``chi_scale`` sets chi_k = sqrt(omega_k) * chi_scale.  For oscillating
    kinds the trajectory is r_m cos(omega_m t) along ``rhat_m`` (a signed
    scalar axis in 1D); ``k_m = omega_m / c``, and k_m r_m may not exceed
    ``KM_RM_GUARD``.  ``dipole_direction`` and ``rhat_m`` are unit
    3-vectors of OSCILLATING_3D, normalized here.
    """

    def __init__(self, kind: CouplingKind, omega_e: float, chi_scale: float,
                 c: float = 1.0, dipole_direction: Optional[np.ndarray] = None,
                 r_m: float = 0.0, omega_m: float = 0.0,
                 rhat_m: Optional[np.ndarray] = None):
        if omega_e <= 0:
            raise ConfigError("omega_e must be positive")
        if chi_scale < 0:
            raise ConfigError("chi_scale must be >= 0")
        if kind is CouplingKind.OSCILLATING_3D:
            if dipole_direction is None:
                raise ConfigError("3D profiles need a dipole direction")
            dipole_direction = _unit(dipole_direction, "dipole_direction")
            if rhat_m is None:
                raise ConfigError("oscillating 3D profile needs rhat_m")
            rhat_m = _unit(rhat_m, "rhat_m")
        if kind in (CouplingKind.OSCILLATING_3D, CouplingKind.OSCILLATING_1D):
            if r_m < 0 or omega_m <= 0:
                raise ConfigError("oscillating profiles need r_m >= 0 and omega_m > 0")
            km = omega_m / c
            # a few ulp of slack: (w_m/c) (k_m r_m c/w_m) may round above k_m r_m
            if km * r_m > KM_RM_GUARD * (1.0 + 1e-15):
                raise ConfigError(
                    f"k_m*r_m = {km * r_m:.3g} exceeds the long-wavelength "
                    f"guard {KM_RM_GUARD}"
                )
            beta_max = r_m * omega_m / c
            if beta_max >= 1.0:
                raise ConfigError(f"beta_max = {beta_max:.3g} is not non-relativistic")
        vars(self).update(kind=kind, omega_e=omega_e, chi_scale=chi_scale, c=c,
                          dipole_direction=dipole_direction, r_m=r_m,
                          omega_m=omega_m, rhat_m=rhat_m)

    @property
    def k_m(self) -> float:
        return self.omega_m / self.c

    @property
    def is_1d(self) -> bool:
        return self.kind in (CouplingKind.WAVEGUIDE_1D, CouplingKind.OSCILLATING_1D)

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


def angular_factors(profile: CouplingProfile, direction, polarization=None):
    """Angular factors (a0, P, Q) of the coupling at direction nodes.

    The carrier amplitude is a0 and the sideband amplitudes are affine in
    x = omega/omega_m, a+- = x P +- Q (see :func:`grid_fourier`), with a0, P
    and Q independent of the frequency.  ``direction`` holds the signed
    propagation direction s (shape (n,)) of waveguide modes or the unit
    wavevector khat (n, 3) in free space, where ``polarization`` is eps
    (n, 3); it is unused in 1D.

    In free space the translation phase i k.r_A gives the Doppler-like term
    x P with P = (rhat_m.khat)(dhat.eps), and the velocity the magnetic
    bracket Q = rhat_m.[eps (dhat.khat) - khat (dhat.eps)], which enters a+
    and a- with opposite signs; a0 = dhat.eps.  In 1D the phase alone gives
    a0 = 1, P = s and Q = 0.  The static waveguide has no sidebands.
    """
    if profile.is_1d:
        s = np.asarray(direction, dtype=float)
        if profile.kind is CouplingKind.WAVEGUIDE_1D:
            return np.ones_like(s), np.zeros_like(s), np.zeros_like(s)
        return np.ones_like(s), s, np.zeros_like(s)
    dhat, rm = profile.dipole_direction, profile.rhat_m
    d_eps = polarization @ dhat
    doppler = (direction @ rm) * d_eps
    return d_eps, doppler, (polarization @ rm) * (direction @ dhat) - doppler


def fourier_rows(profiles, omega, a0, P, Q) -> np.ndarray:
    """Fourier rows (g0, g+, g-), stacked on a new first axis, of couplings
    at the frequencies ``omega`` with the angular factors (a0, P, Q).

    g0 = chi a0 and g+- = (i k_m r_m / 2) chi (x P +- Q), with x =
    omega/omega_m and chi = sqrt(omega) chi_scale.  The ``profiles`` share
    a kind, and profile i's parameters index the first axis of ``omega``
    (one profile serves all of it); every argument broadcasts.
    """
    omega = np.asarray(omega, dtype=float)
    chi_scale, omega_m, k_m, r_m = np.array(
        [(p.chi_scale, p.omega_m, p.k_m, p.r_m) for p in profiles]
    ).T.reshape(4, -1, *(1,) * (omega.ndim - 1))
    if profiles[0].kind is not CouplingKind.WAVEGUIDE_1D:  # else P = Q = 0
        P = (omega / omega_m) * P  # x P, x = |k|/k_m
    chi = np.sqrt(omega) * chi_scale
    side = 0.5j * k_m * r_m * chi
    return np.array([chi * a0, side * (P + Q), side * (P - Q)])


def grid_fourier(profile: CouplingProfile, grid: ModeGrid) -> np.ndarray:
    """(3, n) Fourier components g_nu,k of the coupling over all grid modes:
    row nu of ``HARMONICS`` = (0, +1, -1) holds g_nu, so g_k(t) = sum_nu
    g_nu,k e^{i nu w_m t} exactly (the long-wavelength expansion is first
    order in r_m), from the :func:`angular_factors` of the modes."""
    if profile.is_1d != grid.is_waveguide:
        raise ConfigError(
            f"profile kind {profile.kind.value} is incompatible with a "
            f"{'1D' if grid.is_waveguide else '3D'} grid"
        )
    if grid.is_waveguide:
        factors = angular_factors(profile, grid.direction_signs)
    else:
        k = grid.wavevectors
        khat = k / np.linalg.norm(k, axis=1, keepdims=True)
        factors = angular_factors(profile, khat, grid.polarizations)
    return fourier_rows([profile], grid.omega, *factors)


def harmonic_phases(omega_m: float, t: float) -> np.ndarray:
    """e^{i nu w_m t} over nu = ``HARMONICS``.

    Its product with a Fourier array (``phases @ g``) is the series at t.
    """
    return np.exp(1j * (HARMONICS * omega_m) * t)

