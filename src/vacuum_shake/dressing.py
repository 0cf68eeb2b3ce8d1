"""Time-dependent dressing frame for a two-level emitter coupled to many modes.

The frame tracks per-mode displacement amplitudes xi_k(t) that remove the
excitation-non-conserving (counter-rotating) coupling terms.  The coupling
is the harmonic series g_k(t) = sum_nu g_nu,k e^{i nu omega_m t} (nu = 0,
+1, -1), and so is xi: its Fourier array xi_nu,k = g_nu,k / (omega_k +
omega_e - nu omega_m) is the periodic steady-state solution of the
first-order elimination condition (omega_k + omega_e) xi + i d(xi)/dt = g.
A static coupling has only the nu = 0 row, where this is g / (omega_k +
omega_e).  :func:`_periodic_xi` is the one copy of that denominator; the
golden-rule rates of :mod:`radiation` and the static three-photon tensor
read their eta = 2 omega_e xi from it too.

Derived quantities, each a plain numpy array or float: the co-rotating
coupling eta_k(t) = 2 omega_e xi_k(t), the (n, n) pair-creation kernel
Lambda_kk'(t) = eta_k*(t) eta_k'*(t) / (4 omega_e), the dressed-vacuum
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

SMALLNESS_GUARD = 0.1


def _periodic_xi(g: np.ndarray, omega, omega_e, omega_m) -> np.ndarray:
    """Fourier array xi_nu = g_nu / (omega + omega_e - nu omega_m) of rows
    g_nu of the first ``len(g)`` ``coupling.HARMONICS``; ``omega``,
    ``omega_e`` and ``omega_m`` broadcast against one row.

    Raises :class:`ConfigError` where a present sideband is resonant with a
    counter-rotating transition: no periodic solution exists there.
    """
    nu = cp.HARMONICS[:len(g)].reshape(-1, *(1,) * (np.ndim(g) - 1))
    denom = omega + omega_e - nu * omega_m
    resonant = np.abs(denom) < 1e-12 * omega_e
    if np.any(resonant) and np.any(resonant & (np.abs(g) > 0)):
        raise ConfigError(
            "drive resonant with a counter-rotating transition "
            "(omega_k + omega_e = omega_m): no periodic dressing"
        )
    return g / denom


class DressedFrame:
    """Evaluator bundle for xi, eta, Lambda and E over one grid + profile.

    The frame stores the (3, n) Fourier arrays of g and of xi (the latter
    in ``xi_coeffs``), both with the rows of ``coupling.HARMONICS``, and
    evaluates each series at t as ``harmonic_phases(omega_m, t) @ array``.
    """

    def __init__(self, grid: ModeGrid, profile: cp.CouplingProfile):
        self.grid = grid
        self.profile = profile
        self.omega_e = profile.omega_e
        self._omega_m = profile.omega_m
        self._g = cp.grid_fourier(profile, grid)
        self.xi_coeffs = _periodic_xi(self._g, grid.omega, self.omega_e,
                                      self._omega_m)

    def g_all(self, t: float) -> np.ndarray:
        return cp.harmonic_phases(self._omega_m, t) @ self._g

    def xi_all(self, t: float) -> np.ndarray:
        return cp.harmonic_phases(self._omega_m, t) @ self.xi_coeffs

    def xi_dot_all(self, t: float) -> np.ndarray:
        f = cp.harmonic_phases(self._omega_m, t) * (1j * cp.HARMONICS * self._omega_m)
        return f @ self.xi_coeffs

    def eta_all(self, t: float) -> np.ndarray:
        return 2.0 * self.omega_e * self.xi_all(t)

    def check_smallness(self, t: float) -> float:
        """Sum_k |xi_k(t)|^2, with a warning when the expansion budget is exceeded."""
        s = float(np.sum(np.abs(self.xi_all(t)) ** 2))
        if s >= SMALLNESS_GUARD:
            warnings.warn(
                f"sum|xi|^2 = {s:.3g} at t={t:.3g} exceeds the smallness guard "
                f"{SMALLNESS_GUARD}; second-order accuracy is not guaranteed",
                stacklevel=2,
            )
        return s


def lambda_matrix(frame: DressedFrame, t: float) -> np.ndarray:
    """Pair-creation kernel Lambda_kk'(t) = eta_k* eta_k'* / (4 omega_e),
    an (n, n) complex array, exactly symmetric."""
    eta_conj = np.conj(frame.eta_all(t))
    lam = np.outer(eta_conj, eta_conj) / (4.0 * frame.omega_e)
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
