"""First-order pair emission from a modulated coupling.

The pair amplitude over mode pairs,

    C_kk'(t) = Lambda_kk'(0)/(w_k+w_k') e^{-i(w_k+w_k')t}
               + i * integral_0^t Lambda_kk'(tau) e^{-i(w_k+w_k')(t-tau)} dtau,

splits into the instantaneous dressing Lambda_kk'(t)/(w_k+w_k') plus a freely
propagating remainder.  For static couplings the remainder cancels exactly;
under periodic modulation it grows secularly at pair resonances and the
continuum limit gives a golden-rule emission rate

    R = pi (k_m r_m)^2 / (4 w_e^2) * int d^Dk d^Dk' rho rho'
        (eta+_k eta0_k' + eta+_k' eta0_k)^2 delta(w_k + w_k' - w_m).

The energy delta is always resolved analytically into a single radial
integral over w in (0, w_m); angular and polarization sums reuse the grid's
angular quadrature.  Sweeps over the drive frequency extract the scaling
exponent (3 in a waveguide, 7 in free space) and the dimensionless rate
constant in front of the free-space law.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import coupling as cp
from . import fock as fk
from .dressing import DressedFrame, ground_state_pairs, lambda_matrix
from .errors import ConfigError, DomainError, FitQualityError, NumericalError
from .modes import FreeSpace3D, ModeGrid, Waveguide1D, _polarization_pair

__all__ = [
    "PairAmplitudeResult",
    "RateResult",
    "RateSweep",
    "pair_amplitude",
    "golden_rule_rate",
    "rate_sweep",
    "extract_rate_constant",
    "oracle_compare_pair_production",
]


@dataclass(frozen=True)
class PairAmplitudeResult:
    """Pair amplitudes over mode pairs at one time, split into total and
    freely propagating parts (both symmetric in the two mode indices)."""

    t: float
    C: np.ndarray
    freely_propagating_part: np.ndarray

    def max_free_magnitude(self) -> float:
        return float(np.max(np.abs(self.freely_propagating_part)))


@dataclass
class RateResult:
    rate: float
    omega_m: float
    parameters: dict = field(default_factory=dict)
    fitted_exponent: Optional[float] = None
    constant_C: Optional[float] = None

    def __post_init__(self):
        if self.rate < -1e-300:
            raise NumericalError(f"negative emission rate {self.rate}")


@dataclass
class RateSweep:
    results: list
    fitted_exponent: float
    pointwise_slopes: np.ndarray

    @property
    def omega_m(self) -> np.ndarray:
        return np.array([r.omega_m for r in self.results])

    @property
    def rates(self) -> np.ndarray:
        return np.array([r.rate for r in self.results])


def _adaptive_panel_integral(f_matrix, a, b, rel_tol, *, phase_scale=None,
                             order=16, max_doublings=9):
    """Adaptive composite Gauss-Legendre quadrature of a matrix-valued
    integrand, refined by panel doubling until the elementwise change is
    below ``rel_tol`` relative to the running magnitude scale.

    ``phase_scale`` is the total accumulated phase of the fastest oscillation
    over [a, b]; it sets the initial panel count at roughly one period per
    panel.
    """
    x0, w0 = np.polynomial.legendre.leggauss(order)
    probe = f_matrix(0.5 * (a + b))

    def evaluate(n_panels):
        edges = np.linspace(a, b, n_panels + 1)
        total = np.zeros_like(probe, dtype=complex)
        for lo, hi in zip(edges[:-1], edges[1:]):
            xm = 0.5 * (hi + lo) + 0.5 * (hi - lo) * x0
            wm = 0.5 * (hi - lo) * w0
            for xv, wv in zip(xm, wm):
                total = total + wv * f_matrix(xv)
        return total

    phase = abs(b - a) if phase_scale is None else phase_scale
    n = max(4, int(np.ceil(phase / (2.0 * np.pi))))
    prev = evaluate(n)
    for _ in range(max_doublings):
        n *= 2
        cur = evaluate(n)
        scale = max(float(np.max(np.abs(cur))), 1e-300)
        if float(np.max(np.abs(cur - prev))) <= rel_tol * scale:
            return cur
        prev = cur
    raise NumericalError(
        "pair-amplitude quadrature did not converge",
        details={"panels": n, "interval": (a, b)},
    )


def pair_amplitude(frame: DressedFrame, t: float, *, rel_tol: float = 1e-9) -> PairAmplitudeResult:
    """Perturbative pair amplitude C_kk'(t) and its freely propagating part.

    The memory integral is evaluated by adaptive panel quadrature shared
    across all mode pairs.  ``freely_propagating_part`` subtracts the
    instantaneous dressing Lambda_kk'(t)/(w_k + w_k').
    """
    omega = frame.grid.omega
    Omega = omega[:, None] + omega[None, :]
    lam0 = lambda_matrix(frame, 0.0).lam
    if t == 0.0:
        C = lam0 / Omega
        return PairAmplitudeResult(t=0.0, C=C,
                                   freely_propagating_part=C - C)

    def integrand(tau):
        return lambda_matrix(frame, tau).lam * np.exp(1j * Omega * tau)

    drive = getattr(frame.profile, "omega_m", 0.0) or 0.0
    max_phase = (float(np.max(Omega)) + 2.0 * drive) * t
    integral = _adaptive_panel_integral(
        integrand, 0.0, t, rel_tol, phase_scale=max_phase, max_doublings=10,
    )
    phase_now = np.exp(-1j * Omega * t)
    C = lam0 / Omega * phase_now + 1j * phase_now * integral
    lam_t = lambda_matrix(frame, t).lam
    free = C - lam_t / Omega
    return PairAmplitudeResult(t=t, C=C, freely_propagating_part=free)


def _angular_moments_3d(profile, grid, omega):
    """Angular+polarization moments of the sideband couplings at radius omega:
    (sum eta+^2, sum eta0^2, sum eta+ eta0), each over the grid's angular rule."""
    dirs = grid.angular_directions
    wts = grid.angular_weights
    if dirs is None:
        raise ConfigError("grid carries no angular quadrature rule")
    pol = np.empty((2 * len(dirs), 3))
    khat = np.repeat(dirs, 2, axis=0)
    w2 = np.repeat(wts, 2)
    for i, d in enumerate(dirs):
        e1, e2 = _polarization_pair(d)
        pol[2 * i] = e1
        pol[2 * i + 1] = e2
    om = np.full(len(khat), omega)
    eta0, etap, _ = cp.eta_components_arrays_3d(profile, om, khat, pol)
    return (
        float(np.sum(w2 * etap**2)),
        float(np.sum(w2 * eta0**2)),
        float(np.sum(w2 * etap * eta0)),
    )


def golden_rule_rate(grid: ModeGrid, profile: cp.CouplingProfile, *,
                     n_radial: int = 48, omega_min: Optional[float] = None,
                     gamma: Optional[float] = None) -> RateResult:
    """Photon-pair emission rate of an oscillating emitter by the golden rule.

    The energy-conservation delta is removed analytically: with w' = w_m - w
    the double continuum integral collapses to one radial integral over
    w in (0, w_m), evaluated by Gauss-Legendre; the angular and polarization
    structure enters through moments taken with the grid's angular rule.
    ``gamma`` is recorded in the result parameters for later constant
    extraction.
    """
    omega_e = profile.omega_e
    omega_m = profile.omega_m
    if omega_m <= 0:
        raise ConfigError("profile must carry a positive drive frequency")
    if omega_min is None:
        omega_min = 1e-6 * omega_e
    if omega_m <= 2.0 * omega_min:
        raise DomainError(
            f"drive frequency {omega_m} leaves no pair band above the "
            f"infrared cutoff {omega_min}"
        )
    if omega_m >= 0.5 * omega_e:
        warnings.warn(
            "omega_m >= omega_e/2: long-wavelength and adiabatic assumptions "
            "are strained", stacklevel=2,
        )

    km_rm = profile.k_m * profile.r_m
    c = profile.c
    k_m = profile.k_m
    x, wq = np.polynomial.legendre.leggauss(n_radial)
    k_nodes = 0.5 * k_m * (x + 1.0)
    k_wts = 0.5 * k_m * wq

    if isinstance(grid.geometry, FreeSpace3D):
        if profile.kind is not cp.CouplingKind.OSCILLATING_3D:
            raise ConfigError("3D rate needs an oscillating free-space profile")
        dens = grid.geometry.volume / (2.0 * np.pi) ** 3
        Ip = np.empty(n_radial)
        I0 = np.empty(n_radial)
        J = np.empty(n_radial)
        Ipp = np.empty(n_radial)
        I0p = np.empty(n_radial)
        Jp = np.empty(n_radial)
        for i, k in enumerate(k_nodes):
            Ip[i], I0[i], J[i] = _angular_moments_3d(profile, grid, c * k)
            Ipp[i], I0p[i], Jp[i] = _angular_moments_3d(profile, grid, c * (k_m - k))
        kp = k_m - k_nodes
        integrand = (k_nodes**2) * (kp**2) * (Ip * I0p + 2.0 * J * Jp + Ipp * I0)
        if np.min(integrand) < -1e-12 * max(np.max(np.abs(integrand)), 1e-300):
            raise NumericalError("rate integrand went negative")
        radial = float(np.sum(k_wts * integrand))
        rate = np.pi * km_rm**2 / (4.0 * omega_e**2) * dens**2 / c * radial
    elif isinstance(grid.geometry, Waveguide1D):
        if profile.kind is not cp.CouplingKind.OSCILLATING_1D:
            raise ConfigError("1D rate needs an oscillating waveguide profile")
        dens = grid.geometry.length / (2.0 * np.pi)
        signs = np.array([1.0, -1.0])
        total = np.zeros(n_radial)
        for i, k in enumerate(k_nodes):
            w, wp = c * k, c * (k_m - k)
            e0, ep, _ = cp.eta_components_arrays_1d(profile, np.full(2, w), signs)
            f0, fp, _ = cp.eta_components_arrays_1d(profile, np.full(2, wp), signs)
            acc = 0.0
            for s in range(2):
                for sp in range(2):
                    acc += (ep[s] * f0[sp] + fp[sp] * e0[s]) ** 2
            total[i] = acc
        radial = float(np.sum(k_wts * total))
        rate = np.pi * km_rm**2 / (4.0 * omega_e**2) * dens**2 / c * radial
    else:
        raise ConfigError("unsupported grid geometry")

    params = {
        "k_m_r_m": km_rm,
        "omega_e": omega_e,
        "geometry": type(grid.geometry).__name__,
    }
    if gamma is not None:
        params["gamma"] = gamma
    return RateResult(rate=rate, omega_m=omega_m, parameters=params)


def rate_sweep(grid: ModeGrid, omega_m_values: Sequence[float],
               build_profile: Callable[[float], cp.CouplingProfile], *,
               n_radial: int = 48, gamma: Optional[float] = None) -> RateSweep:
    """Golden-rule rates over a set of drive frequencies plus a log-log slope fit."""
    results = [
        golden_rule_rate(grid, build_profile(wm), n_radial=n_radial, gamma=gamma)
        for wm in omega_m_values
    ]
    lw = np.log(np.array([r.omega_m for r in results]))
    lr = np.log(np.array([r.rate for r in results]))
    slope, _ = np.polyfit(lw, lr, 1)
    point = np.gradient(lr, lw)
    for r in results:
        r.fitted_exponent = float(slope)
    return RateSweep(results=results, fitted_exponent=float(slope),
                     pointwise_slopes=point)


def extract_rate_constant(rates: Sequence[RateResult], *,
                          exponent: float = 7.0,
                          min_r2: float = 0.999) -> float:
    """Dimensionless constant of the free-space scaling law.

    Fits R = C (k_m r_m)^2 (gamma/w_e) (w_m/w_e)^exponent * gamma with the
    exponent pinned, in log space.  Raises :class:`FitQualityError` when the
    pinned-slope model explains less than ``min_r2`` of the variance.
    """
    if len(rates) < 2:
        raise ConfigError("need at least two sweep points")
    wm = np.array([r.omega_m for r in rates])
    R = np.array([r.rate for r in rates])
    if np.any(R <= 0):
        raise DomainError("all rates must be positive for a log-space fit")
    p = rates[0].parameters
    try:
        gamma = p["gamma"]
        km_rm = p["k_m_r_m"]
        omega_e = p["omega_e"]
    except KeyError as exc:
        raise ConfigError(f"rate parameters missing {exc} for constant extraction")

    model_no_c = km_rm**2 * (gamma / omega_e) * (wm / omega_e) ** exponent * gamma
    logc = np.log(R) - np.log(model_no_c)
    C = float(np.exp(np.mean(logc)))

    pred = np.log(model_no_c) + np.log(C)
    ss_res = float(np.sum((np.log(R) - pred) ** 2))
    ss_tot = float(np.sum((np.log(R) - np.mean(np.log(R))) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    if r2 < min_r2:
        raise FitQualityError(
            f"pinned-exponent fit quality R^2 = {r2:.6f} below {min_r2}"
        )
    return C


def oracle_compare_pair_production(
    basis: fk.FockBasis,
    frame: DressedFrame,
    grid: ModeGrid,
    t_final: float,
    *,
    tol: float = 1e-11,
    resonance_tol: Optional[float] = None,
) -> dict:
    """Compare perturbative pair amplitudes against the brute-force propagator.

    The dressed vacuum is built to first order, carried to the lab frame,
    propagated under the full Hamiltonian, and transformed back; its
    two-photon content (normalized by the vacuum amplitude, which removes
    all global phases) is compared pair by pair with the freely propagating
    part of the perturbative amplitude.  Reports the maximum relative
    deviation over resonant pairs, plus magnitude-only deviations that are
    insensitive to secular phase drifts.
    """
    profile = frame.profile
    omega = grid.omega
    omega_m = profile.omega_m
    n = grid.n_modes
    if basis.n_max < 2:
        raise ConfigError("pair production needs a basis with n_max >= 2")
    if resonance_tol is None:
        gaps = np.diff(np.sort(np.unique(omega)))
        resonance_tol = 0.25 * float(gaps.min()) if len(gaps) else 0.1 * omega_m

    resonant = [
        (j, k)
        for j in range(n)
        for k in range(j + 1, n)
        if abs(omega[j] + omega[k] - omega_m) < resonance_tol
    ]
    if not resonant:
        raise ConfigError("no mode pair is resonant with the drive")

    # dressed vacuum, first order in the pair kernel
    table = ground_state_pairs(frame)
    psi0 = basis.vacuum(fk.GROUND).amplitudes.copy()
    for a, b, amp in zip(table.j_indices, table.k_indices, table.amplitudes):
        occ = [0] * n
        occ[a] += 1
        occ[b] += 1
        psi0[basis.index(fk.GROUND, occ)] += amp
    psi0 /= np.linalg.norm(psi0)
    dressed0 = fk.FockStateVector(basis, psi0)

    lab0 = fk.apply_T(basis, frame, 0.0, dressed0, direction=-1,
                      truncation_action="warn")

    H_of_t = fk.original_hamiltonian_series(basis, grid, profile)
    final_lab = fk.propagate(H_of_t, lab0, 0.0, t_final, tol,
                             interaction_picture=True)
    final_dressed = fk.apply_T(basis, frame, t_final, final_lab, direction=+1,
                               truncation_action="warn")

    vac_amp = final_dressed.amplitude(fk.GROUND, (0,) * n)
    pert = pair_amplitude(frame, t_final, rel_tol=1e-10)
    lam_t = lambda_matrix(frame, t_final).lam
    Omega = omega[:, None] + omega[None, :]

    rows = []
    for (j, k) in resonant:
        occ = [0] * n
        occ[j] += 1
        occ[k] += 1
        a_orac = final_dressed.amplitude(fk.GROUND, occ) / vac_amp
        dressing = 2.0 * lam_t[j, k] / Omega[j, k]
        d_orac = a_orac - dressing
        d_pert = 2.0 * pert.freely_propagating_part[j, k]
        rows.append({
            "pair": (j, k),
            "omega_sum": float(omega[j] + omega[k]),
            "oracle": d_orac,
            "perturbative": d_pert,
            "rel_deviation": abs(d_orac - d_pert) / abs(d_pert),
            "mag_deviation": abs(abs(d_orac) - abs(d_pert)) / abs(d_pert),
        })

    return {
        "resonant_pairs": rows,
        "max_rel_deviation": max(r["rel_deviation"] for r in rows),
        "max_mag_deviation": max(r["mag_deviation"] for r in rows),
        "vacuum_amplitude": vac_amp,
        "norm_drift": final_lab.info.get("norm_drift"),
        "t_final": t_final,
    }
