"""Time-dependent dressing frame for a two-level emitter coupled to many modes.

The frame tracks per-mode displacement amplitudes xi_k(t) that remove the
excitation-non-conserving (counter-rotating) coupling terms.  The coupling
is the harmonic series g_k(t) = sum_nu g_nu,k e^{i nu omega_m t} (nu = 0,
+1, -1), and so is xi, with xi_nu,k = g_nu,k / D_nu,k.  Three evaluation
modes differ in the denominator:

* ``adiabatic`` -- D = omega_k + omega_e, so xi_k(t) = g_k(t) / (omega_k +
  omega_e), valid when the coupling varies slowly on the 1/omega_e
  timescale;
* ``floquet`` -- D = omega_k + omega_e - nu omega_m, the periodic
  steady-state solution of the first-order elimination condition
  (omega_k + omega_e) xi - i d(xi)/dt = g;
* ``exact`` -- the floquet series plus the homogeneous transient
  (xi_k(0) - sum_nu xi_nu,k) e^{i(omega_k+omega_e)t}, which is the closed
  form of xi_k(0) e^{i(omega_k+omega_e)t}
  - i integral_0^t g_k(t') e^{i(omega_k+omega_e)(t-t')} dt'.

Derived quantities, each a plain numpy array or float: the co-rotating
coupling eta_k(t) = 2 omega_e xi_k(t), the (n, n) pair-creation kernel
Lambda_kk'(t) = eta_k*(t) eta_k'*(t) / (4 omega_e'), the dressed-vacuum
two-photon amplitudes over the mode pairs ``np.triu_indices(n)``, and the
scalar phase E(t) accumulated by the transformation.  Nothing here writes
files: the scenario runner writes these arrays with
:func:`vacuum_shake.table.write_csv`.

The shifted transition frequency omega_e' is held equal to omega_e: the
associated correction is a small fraction of omega_e in the regimes treated
here and its renormalization is out of scope.
"""

from __future__ import annotations

import warnings
from typing import Optional

import numpy as np

from . import coupling as cp
from .errors import ConfigError, NumericalError
from .modes import ModeGrid

__all__ = [
    "DressedFrame",
    "lambda_matrix",
    "ground_state_pairs",
    "phase_E",
]


def _periodic_xi(g: np.ndarray, omega: np.ndarray, omega_e: float,
                 omega_m: float) -> np.ndarray:
    """Fourier array xi_nu,k = g_nu,k / (omega_k + omega_e - nu omega_m).

    Raises :class:`ConfigError` where a present sideband is resonant with a
    counter-rotating transition: no periodic solution exists there.
    """
    denom = omega + omega_e - cp.HARMONICS[:, None] * omega_m
    if np.any((np.abs(denom) < 1e-12 * omega_e) & (np.abs(g) > 0)):
        raise ConfigError(
            "drive resonant with a counter-rotating transition "
            "(omega_k + omega_e = omega_m): no periodic dressing"
        )
    return g / denom


class DressedFrame:
    """Evaluator bundle for xi, eta, Lambda and E over one grid + profile.

    ``xi_mode`` is ``"adiabatic"``, ``"floquet"`` or ``"exact"`` (see the
    module docstring).  The frame stores the (3, n) Fourier array of g, and
    xi as a sum of exponentials, xi_k(t) = sum_a X_ak e^{i F_ak t}, with the
    coefficients X in ``xi_coeffs`` and the frequencies F in ``xi_freqs``,
    both (m, n).  Rows 0-2 are the harmonics at 0, +omega_m and -omega_m
    (``coupling.HARMONICS``); exact mode adds a fourth row, the transient
    at omega_k + omega_e.  Every evaluator is a closed-form sum over the
    rows.  In exact mode ``xi0`` gives the initial displacement per mode;
    it defaults to the adiabatic value at t = 0, which suppresses the
    transient oscillation entirely for slowly varying couplings.
    """

    def __init__(self, grid: ModeGrid, profile: cp.CouplingProfile, *,
                 xi_mode: str = "adiabatic", xi0: Optional[np.ndarray] = None,
                 omega_e_prime: Optional[float] = None, smallness_guard: float = 0.1):
        if xi_mode not in ("adiabatic", "exact", "floquet"):
            raise ConfigError(f"unknown xi_mode {xi_mode!r}")
        self.grid = grid
        self.profile = profile
        self.omega_e = profile.omega_e
        self.omega_e_prime = self.omega_e if omega_e_prime is None else omega_e_prime
        if self.omega_e_prime == 0:
            raise ConfigError("omega_e_prime must be nonzero")
        self.xi_mode = xi_mode
        self.smallness_guard = smallness_guard
        self._omega_m = profile.omega_m
        w = grid.omega + self.omega_e
        self._g = cp.grid_fourier(profile, grid)
        if xi_mode == "adiabatic":
            xi = self._g / w
        else:
            xi = _periodic_xi(self._g, grid.omega, self.omega_e, self._omega_m)
        freqs = np.repeat(cp.HARMONICS[:, None] * self._omega_m, grid.n_modes, axis=1)
        if xi_mode == "exact":
            if xi0 is None:
                xi0 = self._g.sum(axis=0) / w
            else:
                xi0 = np.asarray(xi0, dtype=complex)
                if xi0.shape != (grid.n_modes,):
                    raise ConfigError("xi0 must have one entry per grid mode")
            xi = np.vstack([xi, xi0 - xi.sum(axis=0)])
            freqs = np.vstack([freqs, w])
        self.xi_coeffs = xi
        self.xi_freqs = freqs
        self.xi0 = xi0

    def _xi_at(self, t: float, order: int = 0) -> np.ndarray:
        """xi (order 0) or d xi/dt (order 1) of all modes at t."""
        F = self.xi_freqs
        return np.sum(self.xi_coeffs * (1j * F) ** order * np.exp(1j * F * t), axis=0)

    def g_all(self, t: float) -> np.ndarray:
        return cp.harmonic_phases(self._omega_m, t) @ self._g

    def xi_all(self, t: float) -> np.ndarray:
        return self._xi_at(t)

    def xi_dot_all(self, t: float) -> np.ndarray:
        return self._xi_at(t, order=1)

    def eta_all(self, t: float) -> np.ndarray:
        return 2.0 * self.omega_e * self.xi_all(t)

    def check_smallness(self, t: float) -> float:
        """Sum_k |xi_k(t)|^2, with a warning when the expansion budget is exceeded."""
        s = float(np.sum(np.abs(self.xi_all(t)) ** 2))
        if s >= self.smallness_guard:
            warnings.warn(
                f"sum|xi|^2 = {s:.3g} at t={t:.3g} exceeds the smallness guard "
                f"{self.smallness_guard}; second-order accuracy is not guaranteed",
                stacklevel=2,
            )
        return s


def lambda_matrix(frame: DressedFrame, t: float) -> np.ndarray:
    """Pair-creation kernel Lambda_kk'(t) = eta_k* eta_k'* / (4 omega_e'),
    an (n, n) complex array, exactly symmetric."""
    eta_conj = np.conj(frame.eta_all(t))
    lam = np.outer(eta_conj, eta_conj) / (4.0 * frame.omega_e_prime)
    return 0.5 * (lam + lam.T)  # exact symmetry against rounding asymmetries


def ground_state_pairs(frame: DressedFrame) -> np.ndarray:
    """Two-photon content of the dressed vacuum at t = 0, one amplitude per
    mode pair (k, k') of ``np.triu_indices(n)``, in that order.

    Entries are amplitudes in the orthonormal two-photon basis: the pair
    with k < k' carries 2 Lambda_kk' / (omega_k + omega_k'); the diagonal
    (k, k) carries sqrt(2) Lambda_kk / (2 omega_k).  Dividing out those
    factors gives the bare value Lambda/(omega + omega').
    """
    frame.check_smallness(0.0)
    lam = lambda_matrix(frame, 0.0)
    omega = frame.grid.omega
    j, k = np.triu_indices(len(omega))
    norm_factor = np.where(j == k, np.sqrt(2.0), 2.0)
    return lam[j, k] / (omega[j] + omega[k]) * norm_factor


def phase_E(frame: DressedFrame, t: float) -> float:
    """Scalar phase rate E(t) = sum_k [ (i/2) xi* dxi - g xi* + c.c. + omega |xi|^2 ]."""
    xi = frame.xi_all(t)
    xid = frame.xi_dot_all(t)
    g = frame.g_all(t)
    terms = 0.5j * np.conj(xi) * xid - g * np.conj(xi)
    total = np.sum(terms + np.conj(terms) + frame.grid.omega * np.abs(xi) ** 2)
    if abs(total.imag) > 1e-13 * max(1.0, abs(total.real)):
        raise NumericalError("phase E(t) acquired a non-negligible imaginary part",
                             details={"imag": total.imag, "t": t})
    return float(total.real)
