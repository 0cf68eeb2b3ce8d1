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

Derived objects: the co-rotating coupling eta_k(t) = 2 omega_e xi_k(t), the
pair-creation kernel Lambda_kk'(t) = eta_k*(t) eta_k'*(t) / (4 omega_e'), the
dressed-vacuum two-photon amplitudes, and the scalar phase E(t) accumulated
by the transformation.

The shifted transition frequency omega_e' is held equal to omega_e: the
associated correction is a small fraction of omega_e in the regimes treated
here and its renormalization is out of scope.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import coupling as cp
from .errors import ConfigError, NumericalError
from .modes import Mode, ModeGrid

__all__ = [
    "DressedFrame",
    "PairMatrix",
    "AmplitudeTable",
    "xi_adiabatic",
    "xi_exact",
    "counter_rotating_residual",
    "lambda_matrix",
    "ground_state_pairs",
    "phase_E",
]

@dataclass(frozen=True)
class PairMatrix:
    """Symmetric pair-creation kernel Lambda_kk'(t) over grid mode pairs."""

    lam: np.ndarray  # (n, n) complex, symmetric by construction
    t: float

    def __post_init__(self):
        self.lam.setflags(write=False)

    def to_csv(self, path):
        _write_pair_csv(path, *np.triu_indices(self.lam.shape[0]), self.lam)

    def to_json(self) -> str:
        j, k = np.triu_indices(self.lam.shape[0])
        return json.dumps({
            "t": self.t,
            "pairs": [
                {"k_index": int(a), "k_prime_index": int(b),
                 "re": float(self.lam[a, b].real), "im": float(self.lam[a, b].imag)}
                for a, b in zip(j, k)
            ],
        })


@dataclass(frozen=True)
class AmplitudeTable:
    """Sparse table of complex amplitudes indexed by unordered mode pairs."""

    j_indices: np.ndarray
    k_indices: np.ndarray
    amplitudes: np.ndarray
    metadata: dict = field(default_factory=dict)

    def to_csv(self, path):
        _write_pair_csv(path, self.j_indices, self.k_indices, None, self.amplitudes)

    def to_json(self) -> str:
        return json.dumps({
            "metadata": self.metadata,
            "pairs": [
                {"k_index": int(a), "k_prime_index": int(b),
                 "re": float(z.real), "im": float(z.imag)}
                for a, b, z in zip(self.j_indices, self.k_indices, self.amplitudes)
            ],
        })

    def total_two_photon_weight(self) -> float:
        return float(np.sum(np.abs(self.amplitudes) ** 2))


def _write_pair_csv(path, j_idx, k_idx, matrix=None, amps=None):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["k_index", "k_prime_index", "re", "im"])
        for row, (a, b) in enumerate(zip(j_idx, k_idx)):
            z = matrix[a, b] if matrix is not None else amps[row]
            w.writerow([int(a), int(b), repr(float(z.real)), repr(float(z.imag))])


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
    module docstring).  The frame stores the (3, n) Fourier arrays of g and
    xi; every evaluator is a closed-form slice of them.  In exact mode
    ``xi0`` gives the initial displacement per mode; it defaults to the
    adiabatic value at t = 0, which suppresses the transient oscillation
    entirely for slowly varying couplings.
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
        self._w = grid.omega + self.omega_e
        self._g = cp.grid_fourier(profile, grid)
        if xi_mode == "adiabatic":
            self._xi = self._g / self._w
        else:
            self._xi = _periodic_xi(self._g, grid.omega, self.omega_e, self._omega_m)
        self._transient = None
        if xi_mode == "exact":
            if xi0 is None:
                xi0 = self._g.sum(axis=0) / self._w
            else:
                xi0 = np.asarray(xi0, dtype=complex)
                if xi0.shape != (grid.n_modes,):
                    raise ConfigError("xi0 must have one entry per grid mode")
            self._transient = xi0 - self._xi.sum(axis=0)
        self.xi0 = xi0

    def _xi_at(self, t: float, i=slice(None), order: int = 0):
        """xi (order 0) or d xi/dt (order 1) at t for mode ``i`` or all modes."""
        out = cp.harmonic_phases(self._omega_m, t, order) @ self._xi[:, i]
        if self._transient is not None:
            w = self._w[i]
            out = out + (1j * w) ** order * self._transient[i] * np.exp(1j * w * t)
        return out

    # -- per-mode evaluators ---------------------------------------------------

    def g(self, i: int, t: float) -> complex:
        return complex(cp.harmonic_phases(self._omega_m, t) @ self._g[:, i])

    def xi(self, i: int, t: float) -> complex:
        return complex(self._xi_at(t, i))

    def xi_dot(self, i: int, t: float) -> complex:
        return complex(self._xi_at(t, i, 1))

    def eta(self, i: int, t: float) -> complex:
        return 2.0 * self.omega_e * self.xi(i, t)

    # -- all modes at once -------------------------------------------------------

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


def xi_adiabatic(frame: DressedFrame, mode: Mode, t: float) -> complex:
    """Instantaneous-following displacement g_k(t)/(omega_k + omega_e)."""
    g = cp.eval_g(frame.profile, mode, t)
    return g / (mode.omega + frame.omega_e)


def xi_exact(frame: DressedFrame, mode: Mode, t: float, xi0: complex) -> complex:
    """Full solution of the counter-rotating elimination condition from
    xi(0) = xi0, in closed form: the periodic series plus the homogeneous
    transient (xi0 - sum_nu xi_nu) e^{i(omega_k+omega_e)t}.

    Raises :class:`ConfigError` at omega_k + omega_e = omega_m.
    """
    w = mode.omega + frame.omega_e
    g = np.array(cp.g_fourier_components(frame.profile, mode))[:, None]
    xi = _periodic_xi(g, np.array([mode.omega]), frame.omega_e,
                      frame.profile.omega_m)[:, 0]
    return complex(cp.harmonic_phases(frame.profile.omega_m, t) @ xi
                   + (xi0 - xi.sum()) * np.exp(1j * w * t))


def counter_rotating_residual(frame: DressedFrame, mode: Mode, t: float) -> complex:
    """Residual of the counter-rotating elimination condition,
    (-omega_e - omega_k) xi + g - i d(xi)/dt.

    Zero to solver tolerance for exact xi; for adiabatic xi it measures the
    neglected -i d(xi)/dt term.
    """
    i = mode.index
    return (
        (-frame.omega_e - mode.omega) * frame.xi(i, t)
        + frame.g(i, t)
        - 1j * frame.xi_dot(i, t)
    )


def lambda_matrix(frame: DressedFrame, t: float) -> PairMatrix:
    """Pair-creation kernel Lambda_kk'(t) = eta_k* eta_k'* / (4 omega_e')."""
    eta_conj = np.conj(frame.eta_all(t))
    lam = np.outer(eta_conj, eta_conj) / (4.0 * frame.omega_e_prime)
    lam = 0.5 * (lam + lam.T)  # exact symmetry against rounding asymmetries
    return PairMatrix(lam=lam, t=t)


def ground_state_pairs(frame: DressedFrame) -> AmplitudeTable:
    """Two-photon content of the dressed vacuum at t = 0.

    Entries are amplitudes in the orthonormal two-photon basis: the pair
    ``(k, k')`` with k < k' carries 2 Lambda_kk' / (omega_k + omega_k');
    the diagonal ``(k, k)`` carries sqrt(2) Lambda_kk / (2 omega_k).  The
    bare table value Lambda/(omega+omega') is recoverable from the recorded
    convention.
    """
    frame.check_smallness(0.0)
    lam = lambda_matrix(frame, 0.0).lam
    omega = frame.grid.omega
    j, k = np.triu_indices(len(omega))
    denom = omega[j] + omega[k]
    bare = lam[j, k] / denom
    norm_factor = np.where(j == k, np.sqrt(2.0), 2.0)
    return AmplitudeTable(
        j_indices=j,
        k_indices=k,
        amplitudes=bare * norm_factor,
        metadata={
            "t": 0.0,
            "normalization": "orthonormal two-photon basis; diagonal pairs "
                             "carry sqrt(2)*Lambda/(2*omega), off-diagonal "
                             "2*Lambda/(omega+omega')",
        },
    )


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
