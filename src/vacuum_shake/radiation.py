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

    R = pi / (4 w_e^2) * int d^Dk d^Dk' rho rho'
        |eta+_k eta0_k' + eta+_k' eta0_k|^2 delta(w_k + w_k' - w_m).

Its eta0 = 2 w_e xi_0 and eta+ = 2 w_e xi_+ are the carrier and sideband
rows of the periodic frame that ``pair_amplitude`` uses; eta+ carries the
drive amplitude i k_m r_m / 2.

A rate reads no mode grid: :func:`golden_rule_rate` takes the geometry
(``Waveguide1D`` or ``FreeSpace3D``) alone.  The energy delta leaves one
radial integral over w in (0, w_m), and the angular and polarization sums
are closed-form moments of the coupling's angular factors, so a rate costs
O(n_radial) with no direction rule.
:func:`rate_sweep` takes a sweep over the drive frequency in one array pass
and fits the scaling exponent (3 in a waveguide, 7 in free space) to
(log w_m, log R); :func:`extract_rate_constant` gives the constant of the
free-space law.
"""

from __future__ import annotations

import warnings
from typing import Callable, Sequence

import numpy as np

from . import coupling as cp
from . import fock as fk
from .dressing import DressedFrame, _periodic_xi, ground_state_pairs, lambda_matrix
from .errors import ConfigError, DomainError, FitQualityError, NumericalError
from .modes import FreeSpace3D, Waveguide1D, gauss_legendre

__all__ = [
    "pair_amplitude",
    "golden_rule_rate",
    "rate_sweep",
    "extract_rate_constant",
    "oracle_compare_pair_production",
]

#: the unit factor basis (a0, P, Q) = e_0, e_1, e_2, each a (3, 1) column:
#: the Fourier rows of these factors are the rows' coefficient vectors
_UNIT_FACTORS = tuple(np.eye(3)[:, :, None])


def pair_amplitude(frame: DressedFrame, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Perturbative pair amplitude C_kk'(t) and its freely propagating part,
    the (n, n) arrays ``(C, free)``, both symmetric in the two mode indices.

    With xi_k(t) = sum_a X_ak e^{i f_a t}, the frame's ``xi_coeffs`` X and
    the harmonic frequencies f = ``coupling.HARMONICS`` omega_m,
    Lambda_kk'(tau) e^{i Omega tau} is a sum of exponentials and the memory
    integral is, in closed form,

        w_e sum_ab X_ak* X_bk'* I(Omega_kk' - f_a - f_b, t),
        I(x, t) = integral_0^t e^{i x tau} dtau = t e^{i x t/2} sinc(x t/2 pi),

    with Omega_kk' = w_k + w_k' and sinc(y) = sin(pi y)/(pi y).  I is finite
    at resonance (I(0, t) = t, the secular growth) and never divides by x;
    at t = 0 it vanishes, so C = Lambda(0)/Omega.  ``free`` subtracts the
    instantaneous dressing Lambda_kk'(t)/Omega_kk'.

    The frequency f_a of row a is the same for every mode, so f_a + f_b
    takes only the values (nu_a + nu_b) omega_m, five of them for the
    harmonics 0, +1, -1 (one for a static frame).  The sum is therefore taken
    one s = f_a + f_b at a time, over the (n, n) kernel I(Omega - s, t)
    times the sum of the outer products X_a* X_b* over the pairs (a, b) of
    that s, so that one kernel is held at a time.
    """
    omega = frame.grid.omega
    Omega = omega[:, None] + omega[None, :]
    X = np.conj(frame.xi_coeffs)
    f = cp.HARMONICS * frame.profile.omega_m
    sums = f[:, None] + f[None, :]
    memory = np.zeros(Omega.shape, complex)
    # the distinct sums in ascending order; np.unique would import numpy.ma
    for s in sorted(set(sums.ravel().tolist())):
        a, b = np.nonzero(sums == s)
        x = Omega - s
        memory += (X[a].T @ X[b]) * (t * np.exp(0.5j * x * t)
                                     * np.sinc(x * t / (2.0 * np.pi)))
    memory = frame.omega_e * 0.5 * (memory + memory.T)
    phase_now = np.exp(-1j * Omega * t)
    C = lambda_matrix(frame, 0.0) / Omega * phase_now + 1j * phase_now * memory
    return C, C - lambda_matrix(frame, t) / Omega


def _angular_sums(geometry: Waveguide1D | FreeSpace3D,
                  profiles: Sequence[cp.CouplingProfile]) -> tuple:
    """(D, density, M): the dimension, the box-counting density of the
    geometry and the symmetric moment matrices M_fg = sum F_f F_g of the
    :func:`coupling.angular_factors` F = (a0, P, Q) over one photon's
    directions and polarizations, one per profile, as a (rows, 3, 3) array;
    see :func:`golden_rule_rate` for their closed forms.

    In 3D a matrix depends on its profile through c = dhat.rhat_m alone, so
    a profile may turn its geometry with w_m.  In 1D the sums over s = +-1
    do not depend on the profile, and one matrix serves every profile.
    """
    kind = profiles[0].kind
    if isinstance(geometry, FreeSpace3D):
        if kind is not cp.CouplingKind.OSCILLATING_3D:
            raise ConfigError("3D rate needs an oscillating free-space profile")
        c2 = np.array([np.dot(p.dipole_direction, p.rhat_m) for p in profiles]) ** 2
        M = np.zeros((len(profiles), 3, 3))
        M[:, 0, 0] = np.pi * (8.0 / 3.0)
        M[:, 1, 1] = np.pi * (8.0 / 15.0 * (2.0 - c2))
        M[:, 1, 2] = M[:, 2, 1] = np.pi * (-4.0 / 3.0 * (1.0 - c2))
        M[:, 2, 2] = np.pi * (8.0 / 3.0 * (1.0 - c2))
        dim, dens = 3, geometry.volume / (2.0 * np.pi) ** 3
    elif isinstance(geometry, Waveguide1D):
        if kind is not cp.CouplingKind.OSCILLATING_1D:
            raise ConfigError("1D rate needs an oscillating waveguide profile")
        M = np.diag([2.0, 2.0, 0.0])[None]
        dim, dens = 1, geometry.length / (2.0 * np.pi)
    else:
        raise ConfigError("unsupported rate geometry")
    return dim, dens, M


def _rates(geometry: Waveguide1D | FreeSpace3D,
           profiles: Sequence[cp.CouplingProfile], n_radial: int) -> np.ndarray:
    """Golden-rule rates of ``profiles`` in one array pass, one rate per
    profile (see :func:`golden_rule_rate` for the integral).

    Row i of every array belongs to profile i: the moments M of
    ``_angular_sums`` and the periodic-frame rows xi at the n_radial radii
    w = c k of the rule on (0, k_m), with the row's k_m and w_e.  Each row
    is computed exactly as a pass with that profile alone would compute it,
    so a sweep point is bitwise the rate of its profile.  Every check
    applies per profile: a non-positive drive frequency, a drive at or above
    w_e (where the sideband photon's denominator vanishes inside the pair
    band), a pair band below the infrared cutoff, the w_m >= w_e/2 warning
    (once per offending profile) and a negative integrand or rate.
    """
    if len({p.kind for p in profiles}) > 1:
        raise ConfigError("the profiles of one rate pass must share a kind")
    if any(p.omega_m <= 0 for p in profiles):
        raise ConfigError("profile must carry a positive drive frequency")
    for p in profiles:
        if p.omega_m >= p.omega_e:
            raise ConfigError(
                f"drive frequency {p.omega_m} >= omega_e {p.omega_e}: the "
                "sideband denominator w + omega_e - omega_m vanishes inside the "
                "pair band (resonant with a counter-rotating transition)"
            )
    for p in profiles:
        if p.omega_m <= 2.0 * (1e-6 * p.omega_e):
            raise DomainError(
                f"drive frequency {p.omega_m} leaves no pair band above the "
                f"infrared cutoff {1e-6 * p.omega_e}"
            )
    for p in profiles:
        if p.omega_m >= 0.5 * p.omega_e:
            warnings.warn(
                f"omega_m = {p.omega_m:.6g} >= omega_e/2: the sideband "
                "denominator w + omega_e - omega_m falls below omega_e/2 near "
                "its resonance at omega_m = omega_e; first-order rates are "
                "strained", stacklevel=3,
            )
    dim, dens, M = _angular_sums(geometry, profiles)
    # per-row columns (rows, 1)
    omega_e, omega_m, c = np.array(
        [(p.omega_e, p.omega_m, p.c) for p in profiles], dtype=float).T[:, :, None]
    k_m = omega_m / c
    xq, wq = gauss_legendre(n_radial)
    k = 0.5 * k_m * (xq + 1.0)
    k_wts = 0.5 * k_m * wq
    # the nodes are symmetric about k_m/2: the partner w' = c (k_m - k) of
    # node i is node n_radial - 1 - i
    radii = (c * k)[:, None]  # behind an axis over the unit factors
    g = cp.fourier_rows(profiles, radii, *_UNIT_FACTORS)
    # carrier (nu = 0) and sideband (nu = +1) rows of the unit factors
    xi = _periodic_xi(g[:2], radii, omega_e[:, :, None], omega_m[:, :, None])
    # M is real, so it acts alike on the real and imaginary parts of a view
    xi_M = (M @ xi.view(float)).view(complex)
    xi0_bar, xip_bar = xi.conj()
    Ip = np.sum(xip_bar * xi_M[1], axis=1).real  # xi+^H M xi+
    I0 = np.sum(xi0_bar * xi_M[0], axis=1).real
    J = np.sum(xi0_bar * xi_M[1], axis=1)  # xi0^H M xi+ = xi+^T M xi0*
    # Ip I0' + Re J J'*, plus its image at the partner radii
    pair = Ip * I0[:, ::-1] + (J * J[:, ::-1].conj()).real
    integrand = (k * k[:, ::-1]) ** (dim - 1) * (pair + pair[:, ::-1])
    scale = np.maximum(np.max(np.abs(integrand), axis=1), 1e-300)
    negative = np.min(integrand, axis=1) < -1e-12 * scale
    if np.any(negative):
        raise NumericalError("rate integrand went negative",
                             {"omega_m": omega_m[negative, 0].tolist()})
    radial = np.sum(k_wts * integrand, axis=1, keepdims=True)

    # pi/(4 w_e^2) times (2 w_e)^4 from eta = 2 w_e xi
    rate = (4.0 * np.pi * omega_e**2 * dens**2 / c * radial)[:, 0]
    if np.any(rate < -1e-300):
        raise NumericalError(f"negative emission rate {rate[rate < -1e-300][0]}")
    return rate


def golden_rule_rate(geometry: Waveguide1D | FreeSpace3D,
                     profile: cp.CouplingProfile, *,
                     n_radial: int = 48) -> float:
    """Photon-pair emission rate of an oscillating emitter by the golden rule.

    ``geometry`` is a ``modes.Waveguide1D`` or ``modes.FreeSpace3D``; it
    needs no direction rule in either dimension.

    The energy-conservation delta is removed analytically: with w' = w_m - w
    the double continuum integral collapses to one radial integral over
    w in (0, w_m), evaluated by the ``n_radial``-point Gauss-Legendre rule of
    :func:`modes.gauss_legendre` (built once per order and process, so a
    sweep pays for it once).  Both photons of a pair must lie above the
    infrared cutoff 1e-6 w_e, so w_m must exceed 2e-6 w_e; and w_m must lie
    below w_e, where the sideband denominator w + w_e - w_m would vanish
    inside the band.

    The co-rotating rows eta_nu = 2 w_e xi_nu of the periodic frame are
    linear in the :func:`coupling.angular_factors` F = (a0, P, Q): eta_nu =
    sum_f eta_nu,f F_f, with eta_nu,f the rows of the unit factor F = e_f
    (:func:`coupling.fourier_rows`).  Summing |eta+(w) eta0(w') + eta+(w')
    eta0(w)|^2 over both photons' directions and polarizations leaves the
    moments M_fg = sum F_f F_g of one photon, and at each radius

        Ip = eta+^T M eta+*,   I0 = eta0^T M eta0*,   J = eta+^T M eta0*,

    with the integrand (k k')^(D-1) (Ip I0' + Ip' I0 + 2 Re J J'*), primes
    at w'.  The kernel does not ask which factors a row uses, so it keeps J
    where parity makes it vanish; it contracts the rows xi_nu themselves,
    which moves (2 w_e)^4 into the prefactor, pi/(4 w_e^2) -> 4 pi w_e^2.

    In 3D the factors are polynomials of degree at most 4 in khat, the
    polarization sum is delta_ab - khat_a khat_b, and the isotropic moments
    of khat make the sums exact: with c = dhat.rhat_m = cos alpha,

        M_00 = 8 pi/3,              M_PP = 8 pi (2 - c^2)/15,
        M_PQ = -4 pi (1 - c^2)/3,   M_QQ = 8 pi (1 - c^2)/3.

    In 1D the sums over s = +-1 give M = diag(2, 2, 0).  M_0P and M_0Q vanish
    in both geometries (the summand is odd in khat or s), so J = 0 for
    position shaking.

    Low-frequency laws (w_m << w_e), which the radial quadrature reproduces:

    * free space, dipole along dhat moving along rhat_m at the angle alpha:
      R = C(alpha) (k_m r_m)^2 (gamma/w_e) (w_m/w_e)^7 gamma with
      C(alpha) = (11 - 10 cos^2 alpha) / (5040 pi), i.e. 1/(5040 pi) for
      motion along the dipole and 11/(5040 pi) across it;
    * waveguide: the same form with (w_m/w_e)^3 and C = 1/(40 pi).

    C(alpha) follows from the moments.  To lowest order eta0 = 2 chi a0 and
    eta+ = i k_m r_m chi (x P + Q), x = w/w_m, with chi^2 = chi_scale^2 w;
    with u = x, c = 1 and w = k the pair (u, 1 - u) contributes 4 (k_m
    r_m)^2 chi_scale^4 k_m^6 u^3 (1 - u)^3 M_00 ((u^2 + (1 - u)^2) M_PP +
    2 M_PQ + 2 M_QQ).  With dk = k_m du, the Beta integrals 1/140 and 1/252
    of u^3 (1 - u)^3 times 1 and times u^2 + (1 - u)^2, the prefactor
    pi/(4 w_e^2) (V/(2 pi)^3)^2 and chi_scale^2 = 3 pi gamma/(2 V w_e^3)
    turn this into C(alpha) above.

    Beyond lowest order, a pair (w + w' = w_m) carries |eta+(w)|^2
    |eta0(w')|^2 proportional to (1 - w'^2/w_e^2)^-2, since w + w_e - w_m =
    w_e - w'.  That has no first-order term, so R = C w_m^7 (1 +
    O((w_m/w_e)^2)) (w_m^3 in 1D), and a fitted log-log slope equals 7 (3)
    to O((w_m/w_e)^2): 7.0000127 and 3.0000099 over the shipped sweeps (w_m
    from 1e-3 to 1e-2).
    """
    return float(_rates(geometry, [profile], n_radial)[0])


def rate_sweep(geometry: Waveguide1D | FreeSpace3D,
               omega_m_values: Sequence[float],
               build_profile: Callable[[float], cp.CouplingProfile], *,
               n_radial: int = 48) -> tuple:
    """Golden-rule rates over a set of drive frequencies plus a log-log slope fit.

    ``geometry`` is that of :func:`golden_rule_rate`.

    Returns ``(rates, fitted_exponent, pointwise_slopes)``: the rate at each
    entry of ``omega_m_values``, the slope of the least-squares line through
    (log w_m, log R), and the local slopes d log R / d log w_m at each point
    (``np.gradient``).  The rates come from one array pass over all points,
    O(points n_radial) operations, and each equals
    :func:`golden_rule_rate` of its profile bitwise.  The slope is the
    closed form sum(dX dY) / sum(dX^2) of the mean-centred X = log w_m and
    Y = log R.

    Raises :class:`ConfigError` for fewer than two drive frequencies or a
    repeated one, and :class:`DomainError` when a rate is not positive (a
    zero coupling or amplitude), since the slope is fitted to log rates.
    """
    wm = np.asarray(omega_m_values, dtype=float)
    if wm.ndim != 1 or len(wm) < 2:
        raise ConfigError("a rate sweep needs at least two drive frequencies")
    if np.any(np.diff(np.sort(wm)) == 0):
        raise ConfigError("the drive frequencies of a rate sweep must be distinct")
    rates = _rates(geometry, [build_profile(w) for w in omega_m_values],
                   n_radial)
    if np.any(rates <= 0):
        raise DomainError("all rates must be positive for a log-space fit")
    lw = np.log(wm)
    lr = np.log(rates)
    dx = lw - np.mean(lw)
    slope = np.sum(dx * (lr - np.mean(lr))) / np.sum(dx * dx)
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
    w_m << w_e.  Since R = C w_m^p (1 + O((w_m/w_e)^2)), a sweep fitted with
    the pinned exponent p returns that constant to O((w_m/w_e)^2):
    6.3157e-5 for the shipped 3D sweep (w_m from 1e-3 to 1e-2, motion along
    the dipole), 1/(5040 pi) to 8.5e-6.
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
    insensitive to secular phase drifts, the propagator's norm drift, and
    in ``"solver"`` the solver statistics: the ``info`` of
    :func:`fock.propagate` with the truncation estimates and product counts
    of the transforms into and out of the lab frame.
    A pair (j, k) is resonant when |w_j + w_k - w_m| is below a quarter of
    the smallest gap between distinct grid frequencies (0.1 w_m on a
    one-frequency grid).
    """
    grid, profile = frame.grid, frame.profile
    omega = grid.omega
    omega_m = profile.omega_m
    n = grid.n_modes
    if basis.n_max < 2:
        raise ConfigError("pair production needs a basis with n_max >= 2")
    gaps = np.diff(np.sort(omega))
    gaps = gaps[gaps > 0]  # between distinct frequencies
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
        "solver": {
            **final_lab.info,
            "truncation_estimates": [lab0.info["truncation_estimate"],
                                     final_dressed.info["truncation_estimate"]],
            "expm_matvecs": [lab0.info["expm_matvecs"],
                             final_dressed.info["expm_matvecs"]],
        },
        "t_final": t_final,
    }
