"""First-order pair emission from a modulated coupling.

The pair amplitude over mode pairs,

    C_kk'(t) = Lambda_kk'(0)/(w_k+w_k') e^{-i(w_k+w_k')t}
               + i * integral_0^t Lambda_kk'(tau) e^{-i(w_k+w_k')(t-tau)} dtau,

splits into the instantaneous dressing Lambda_kk'(t)/(w_k+w_k') plus a freely
propagating remainder.  The dressing displacement xi is a sum of three
exponentials, one per drive harmonic, so Lambda_kk'(tau) e^{i(w_k+w_k')tau}
is one of at most 9 terms per pair, and the memory integral is exact: each
term at frequency x contributes I(x, t) = t e^{ixt/2} sinc(xt/2pi), which
tends to t at resonance.  For static couplings the remainder cancels
exactly; under periodic modulation it grows secularly at pair resonances
and the continuum limit gives a golden-rule emission rate

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
from typing import Callable, Sequence

import numpy as np

from . import coupling as cp
from . import fock as fk
from .dressing import DressedFrame, ground_state_pairs, lambda_matrix
from .errors import ConfigError, DomainError, FitQualityError, NumericalError
from .modes import FreeSpace3D, ModeGrid, Waveguide1D, gauss_legendre

__all__ = [
    "pair_amplitude",
    "golden_rule_rate",
    "rate_sweep",
    "extract_rate_constant",
    "oracle_compare_pair_production",
]


def pair_amplitude(frame: DressedFrame, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Perturbative pair amplitude C_kk'(t) and its freely propagating part,
    the (n, n) arrays ``(C, free)``, both symmetric in the two mode indices.

    With xi_k(t) = sum_a X_ak e^{i F_ak t} (the frame's ``xi_coeffs`` and
    ``xi_freqs``), Lambda_kk'(tau) e^{i Omega tau} is a sum of exponentials
    and the memory integral is, in closed form,

        w_e sum_ab X_ak* X_bk'* I(Omega_kk' - F_ak - F_bk', t),
        I(x, t) = integral_0^t e^{i x tau} dtau = t e^{i x t/2} sinc(x t/2 pi),

    with Omega_kk' = w_k + w_k' and sinc(y) = sin(pi y)/(pi y).  I is finite
    at resonance (I(0, t) = t, the secular growth) and never divides by x;
    at t = 0 it vanishes, so C = Lambda(0)/Omega.  ``free`` subtracts the
    instantaneous dressing Lambda_kk'(t)/Omega_kk'.
    """
    omega = frame.grid.omega
    Omega = omega[:, None] + omega[None, :]
    X = np.conj(frame.xi_coeffs)
    F = frame.xi_freqs
    x = Omega - (F[:, None, :, None] + F[None, :, None, :])  # (a, b, k, k')
    kernel = t * np.exp(0.5j * x * t) * np.sinc(x * t / (2.0 * np.pi))
    memory = np.einsum("ak,bl,abkl->kl", X, X, kernel)
    memory = frame.omega_e * 0.5 * (memory + memory.T)
    phase_now = np.exp(-1j * Omega * t)
    C = lambda_matrix(frame, 0.0) / Omega * phase_now + 1j * phase_now * memory
    return C, C - lambda_matrix(frame, t) / Omega


def _angular_moments_3d(profile, grid, omega):
    """Angular+polarization moments of the sideband couplings at the radii
    ``omega`` (shape (r,)): the arrays (sum eta+^2, sum eta0^2, sum eta+ eta0),
    each of shape (r,) and summed over the grid's angular rule.

    The polarization frames do not depend on the radius: they are the grid's
    own, read from its first radial shell (``grid.polarizations[:2 n_dir]``,
    see :class:`ModeGrid` for the layout), and all radii are evaluated in
    one (r, 2 n_dir) pass.
    """
    dirs = grid.angular_directions
    if dirs is None:
        raise ConfigError("grid carries no angular quadrature rule")
    khat = np.repeat(dirs, 2, axis=0)
    pol = grid.polarizations[:2 * len(dirs)]
    w2 = np.repeat(grid.angular_weights, 2)
    eta0, etap, _ = cp.eta_components_arrays_3d(profile, omega[:, None], khat, pol)
    return (etap**2) @ w2, (eta0**2) @ w2, (etap * eta0) @ w2


def golden_rule_rate(grid: ModeGrid, profile: cp.CouplingProfile, *,
                     n_radial: int = 48) -> float:
    """Photon-pair emission rate of an oscillating emitter by the golden rule.

    The energy-conservation delta is removed analytically: with w' = w_m - w
    the double continuum integral collapses to one radial integral over
    w in (0, w_m), evaluated by the ``n_radial``-point Gauss-Legendre rule of
    :func:`modes.gauss_legendre` (built once per order and process, so a
    sweep pays for it once); the angular and polarization structure enters
    through moments taken with the grid's angular rule and frames.
    Each call evaluates the couplings at all radial nodes w and w' in one
    array pass.  Both photons of a pair must lie above the infrared cutoff
    1e-6 w_e, so w_m must exceed 2e-6 w_e.

    Low-frequency laws (w_m << w_e), which the quadrature reproduces:

    * free space, dipole along dhat moving along rhat_m at the angle alpha
      (cos alpha = dhat.rhat_m):
      R = C(alpha) (k_m r_m)^2 (gamma/w_e) (w_m/w_e)^7 gamma with
      C(alpha) = (11 - 10 cos^2 alpha) / (5040 pi), i.e. 1/(5040 pi) for
      motion along the dipole and 11/(5040 pi) across it;
    * waveguide: the same form with (w_m/w_e)^3 and C = 1/(40 pi).

    The factor (1 + w/w_e)^-2 in each |eta|^2 makes the product over a pair
    (w + w' = w_m) equal 1 - 2 w_m/w_e to first order, so R is proportional
    to w_m^7 (1 - 2 w_m/w_e) (w_m^3 (1 - 2 w_m/w_e) in 1D): a fitted
    log-log slope falls short of 7 (3) by about 2 w_m/w_e at the sweep's
    typical w_m.
    """
    omega_e = profile.omega_e
    omega_m = profile.omega_m
    if omega_m <= 0:
        raise ConfigError("profile must carry a positive drive frequency")
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
    x, wq = gauss_legendre(n_radial)
    k_nodes = 0.5 * k_m * (x + 1.0)
    k_wts = 0.5 * k_m * wq
    kp = k_m - k_nodes
    # radii of both photons of a pair: w = c k (first half), w' = c (k_m - k)
    radii = c * np.concatenate([k_nodes, kp])

    if isinstance(grid.geometry, FreeSpace3D):
        if profile.kind is not cp.CouplingKind.OSCILLATING_3D:
            raise ConfigError("3D rate needs an oscillating free-space profile")
        dens = grid.geometry.volume / (2.0 * np.pi) ** 3
        Ip, I0, J = (m.reshape(2, n_radial)
                     for m in _angular_moments_3d(profile, grid, radii))
        integrand = (k_nodes**2) * (kp**2) * (Ip[0] * I0[1] + 2.0 * J[0] * J[1]
                                              + Ip[1] * I0[0])
        if np.min(integrand) < -1e-12 * max(np.max(np.abs(integrand)), 1e-300):
            raise NumericalError("rate integrand went negative")
        radial = float(np.sum(k_wts * integrand))
    elif isinstance(grid.geometry, Waveguide1D):
        if profile.kind is not cp.CouplingKind.OSCILLATING_1D:
            raise ConfigError("1D rate needs an oscillating waveguide profile")
        dens = grid.geometry.length / (2.0 * np.pi)
        # one call over (radius, direction) nodes, direction minor
        e0, ep, _ = cp.eta_components_arrays_1d(
            profile, np.repeat(radii, 2), np.tile([1.0, -1.0], 2 * n_radial))
        e0, ep = e0.reshape(2, n_radial, 2), ep.reshape(2, n_radial, 2)
        # (eta+_s(w) eta0_s'(w') + eta+_s'(w') eta0_s(w))^2 over s, s'
        pair = (ep[0][:, :, None] * e0[1][:, None, :]
                + ep[1][:, None, :] * e0[0][:, :, None])
        radial = float(np.sum(k_wts * np.sum(pair**2, axis=(1, 2))))
    else:
        raise ConfigError("unsupported grid geometry")

    rate = np.pi * km_rm**2 / (4.0 * omega_e**2) * dens**2 / c * radial
    if rate < -1e-300:
        raise NumericalError(f"negative emission rate {rate}")
    return rate


def rate_sweep(grid: ModeGrid, omega_m_values: Sequence[float],
               build_profile: Callable[[float], cp.CouplingProfile], *,
               n_radial: int = 48) -> tuple:
    """Golden-rule rates over a set of drive frequencies plus a log-log slope fit.

    Returns ``(rates, fitted_exponent, pointwise_slopes)``: the rate at each
    entry of ``omega_m_values``, the slope of the least-squares line through
    (log w_m, log R), and the local slopes d log R / d log w_m at each point.
    Raises :class:`DomainError` when a rate is not positive (a zero coupling
    or amplitude), since the slope is fitted to log rates.
    """
    rates = np.array([golden_rule_rate(grid, build_profile(wm), n_radial=n_radial)
                      for wm in omega_m_values])
    if np.any(rates <= 0):
        raise DomainError("all rates must be positive for a log-space fit")
    lw = np.log(np.asarray(omega_m_values, dtype=float))
    lr = np.log(rates)
    slope, _ = np.polyfit(lw, lr, 1)
    return rates, float(slope), np.gradient(lr, lw)


def extract_rate_constant(omega_m: Sequence[float], rates: Sequence[float], *,
                          k_m_r_m: float, gamma: float, omega_e: float,
                          exponent: float = 7.0) -> float:
    """Dimensionless constant of the free-space scaling law.

    Fits R = C (k_m r_m)^2 (gamma/w_e) (w_m/w_e)^exponent * gamma to the
    rates at the drive frequencies ``omega_m`` with the exponent pinned, in
    log space.  Raises :class:`FitQualityError` when the pinned-slope model
    explains less than 0.999 of the variance.

    Reference values (see :func:`golden_rule_rate`): C(alpha) = (11 - 10
    cos^2 alpha)/(5040 pi) in free space and 1/(40 pi) in the waveguide for
    w_m << w_e.  Since R is proportional to w_m^p (1 - 2 w_m/w_e), a sweep
    fitted with the pinned exponent p returns that constant times the
    geometric mean of (1 - 2 w_m/w_e) over its points: 6.2649e-5 for the
    shipped 3D sweep (w_m from 1e-3 to 1e-2, motion along the dipole).
    """
    wm = np.asarray(omega_m, dtype=float)
    R = np.asarray(rates, dtype=float)
    if len(R) < 2:
        raise ConfigError("need at least two sweep points")
    if np.any(R <= 0):
        raise DomainError("all rates must be positive for a log-space fit")

    model_no_c = k_m_r_m**2 * (gamma / omega_e) * (wm / omega_e) ** exponent * gamma
    logc = np.log(R) - np.log(model_no_c)
    C = float(np.exp(np.mean(logc)))

    pred = np.log(model_no_c) + np.log(C)
    ss_res = float(np.sum((np.log(R) - pred) ** 2))
    ss_tot = float(np.sum((np.log(R) - np.mean(np.log(R))) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    if r2 < 0.999:
        raise FitQualityError(
            f"pinned-exponent fit quality R^2 = {r2:.6f} below 0.999"
        )
    return C


def oracle_compare_pair_production(
    basis: fk.FockBasis,
    frame: DressedFrame,
    grid: ModeGrid,
    t_final: float,
    *,
    tol: float = 1e-11,
) -> dict:
    """Compare perturbative pair amplitudes against the brute-force propagator.

    The dressed vacuum is built to first order, carried to the lab frame,
    propagated under the full Hamiltonian, and transformed back; its
    two-photon content (normalized by the vacuum amplitude, which removes
    all global phases) is compared pair by pair with the freely propagating
    part of the perturbative amplitude.  Reports the maximum relative
    deviation over resonant pairs, plus magnitude-only deviations that are
    insensitive to secular phase drifts, and the solver statistics: the
    propagator's norm drift, RHS evaluations, accepted and rejected steps,
    the number of whole drive periods taken by the one-period propagator
    and that propagator's RHS evaluations and unitarity defect (see
    :func:`fock.propagate`), and the truncation estimates and
    sparse-product counts of the transforms into and out of the lab frame.
    A pair (j, k) is resonant when |w_j + w_k - w_m| is below a quarter of
    the smallest gap between distinct grid frequencies (0.1 w_m on a
    one-frequency grid).
    """
    profile = frame.profile
    omega = grid.omega
    omega_m = profile.omega_m
    n = grid.n_modes
    if basis.n_max < 2:
        raise ConfigError("pair production needs a basis with n_max >= 2")
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
    psi0 = basis.vacuum(fk.GROUND).amplitudes.copy()
    for a, b, amp in zip(*np.triu_indices(n), ground_state_pairs(frame)):
        occ = [0] * n
        occ[a] += 1
        occ[b] += 1
        psi0[basis.index(fk.GROUND, occ)] += amp
    psi0 /= np.linalg.norm(psi0)
    dressed0 = fk.FockStateVector(basis, psi0)

    lab0 = fk.apply_T(basis, frame, 0.0, dressed0, direction=-1)

    H = fk.original_hamiltonian_series(basis, grid, profile)
    final_lab = fk.propagate(H, lab0, 0.0, t_final, tol)
    final_dressed = fk.apply_T(basis, frame, t_final, final_lab, direction=+1)

    vac_amp = final_dressed.amplitude(fk.GROUND, (0,) * n)
    free = pair_amplitude(frame, t_final)[1]
    lam_t = lambda_matrix(frame, t_final)
    Omega = omega[:, None] + omega[None, :]

    rows = []
    for (j, k) in resonant:
        occ = [0] * n
        occ[j] += 1
        occ[k] += 1
        a_orac = final_dressed.amplitude(fk.GROUND, occ) / vac_amp
        dressing = 2.0 * lam_t[j, k] / Omega[j, k]
        d_orac = a_orac - dressing
        d_pert = 2.0 * free[j, k]
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
        "norm_drift": final_lab.info["norm_drift"],
        "n_rhs_evals": final_lab.info["n_rhs_evals"],
        "n_steps": final_lab.info["n_steps"],
        "n_rejected": final_lab.info["n_rejected"],
        "n_periods": final_lab.info["n_periods"],
        "period_rhs_evals": final_lab.info["period_rhs_evals"],
        "unitarity_defect": final_lab.info["unitarity_defect"],
        "truncation_estimates": [lab0.info["truncation_estimate"],
                                 final_dressed.info["truncation_estimate"]],
        "expm_matvecs": [lab0.info["expm_matvecs"],
                         final_dressed.info["expm_matvecs"]],
        "t_final": t_final,
    }
