import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vacuum_shake import coupling as cp
from vacuum_shake import dressing as dr
from vacuum_shake import fock as fk
from vacuum_shake import modes
from vacuum_shake import radiation as rad
from vacuum_shake.errors import (ConfigError, DomainError, FitQualityError)

from conftest import (OMEGA_E, angular_rule, assert_only_rule_built, node_grid_3d,
                      oscillating_1d_profile, static_1d_profile)

V = (2.0 * np.pi) ** 3
GAMMA = 1e-3
FREE = modes.FreeSpace3D(V)


def loop_rate(geometry, profile, n_radial, rule=None):
    """Golden-rule rate summed radius by radius and direction by direction,
    over the (direction, polarization) nodes of ``rule`` in 3D (the loop
    form of ``rad.golden_rule_rate``).  At each radius the amplitudes are
    read from the rows of the dressing frame on a grid of those nodes: the
    carrier photon's eta0 = 2 w_e xi_0 and the sideband photon's Floquet
    eta+ = 2 w_e xi_+ / (i k_m r_m)."""
    k_m, c = profile.k_m, profile.c
    km_rm = k_m * profile.r_m
    x, wq = np.polynomial.legendre.leggauss(n_radial)
    k_nodes, k_wts = 0.5 * k_m * (x + 1.0), 0.5 * k_m * wq
    total = np.zeros(n_radial)

    def etas(grid):
        eta = 2.0 * profile.omega_e * dr.DressedFrame(grid, profile).xi_coeffs[:2]
        eta[1] /= 1j * km_rm
        assert not np.any(eta.imag)
        return eta.real

    if isinstance(geometry, modes.Waveguide1D):
        dens = geometry.length / (2.0 * np.pi)
        for i, k in enumerate(k_nodes):
            # both directions of each photon, at w and at w' = w_m - w
            e0, ep = etas(modes.few_mode_waveguide_grid([c * k], c=c))
            f0, fp = etas(modes.few_mode_waveguide_grid([c * (k_m - k)], c=c))
            for s in range(2):
                for sp in range(2):
                    total[i] += (ep[s] * f0[sp] + fp[sp] * e0[s]) ** 2
    else:
        dens = geometry.volume / (2.0 * np.pi) ** 3
        khat, pol, w2 = rule

        def moments(omega):
            e0, ep = etas(node_grid_3d(np.full(len(khat), omega), khat, pol))
            return np.sum(w2 * ep**2), np.sum(w2 * e0**2), np.sum(w2 * ep * e0)

        for i, k in enumerate(k_nodes):
            Ip, I0, J = moments(c * k)
            Ipp, I0p, Jp = moments(c * (k_m - k))
            total[i] = k**2 * (k_m - k) ** 2 * (Ip * I0p + 2.0 * J * Jp + Ipp * I0)
    return (np.pi * km_rm**2 / (4.0 * profile.omega_e**2) * dens**2 / c
            * np.sum(k_wts * total))


def quadrature_pair_amplitude(frame, t, panel_width=0.25, order=16):
    """C_kk'(t) with the memory integral of Lambda_kk'(tau) e^{i Omega tau}
    by composite Gauss-Legendre over fixed panels (the quadrature form of
    ``rad.pair_amplitude``)."""
    omega = frame.grid.omega
    Omega = omega[:, None] + omega[None, :]
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(0.0, t, int(np.ceil(t / panel_width)) + 1)
    integral = np.zeros(Omega.shape, dtype=complex)
    for lo, hi in zip(edges[:-1], edges[1:]):
        panel = np.zeros(Omega.shape, dtype=complex)
        for tau, wt in zip(0.5 * (lo + hi) + 0.5 * (hi - lo) * x,
                           0.5 * (hi - lo) * w):
            panel += wt * dr.lambda_matrix(frame, tau) * np.exp(1j * Omega * tau)
        integral += panel
    phase = np.exp(-1j * Omega * t)
    return dr.lambda_matrix(frame, 0.0) / Omega * phase + 1j * phase * integral


def einsum_pair_amplitude(frame, t):
    """``rad.pair_amplitude`` with the memory sum over all 3 x 3 pairs of
    series rows as one (3, 3, n, n) kernel (its einsum form)."""
    omega = frame.grid.omega
    Omega = omega[:, None] + omega[None, :]
    X = np.conj(frame.xi_coeffs)
    f = cp.HARMONICS * frame.profile.omega_m
    x = Omega - (f[:, None] + f[None, :])[:, :, None, None]
    kernel = t * np.exp(0.5j * x * t) * np.sinc(x * t / (2.0 * np.pi))
    memory = np.einsum("ak,bl,abkl->kl", X, X, kernel)
    memory = frame.omega_e * 0.5 * (memory + memory.T)
    phase_now = np.exp(-1j * Omega * t)
    C = dr.lambda_matrix(frame, 0.0) / Omega * phase_now + 1j * phase_now * memory
    return C, C - dr.lambda_matrix(frame, t) / Omega


def osc3d_profile(omega_m, *, alpha=0.0, km_rm=0.05, gamma=GAMMA):
    """Oscillating free-space profile; alpha is the dipole-motion angle."""
    rhat = [np.sin(alpha), 0.0, np.cos(alpha)]
    return cp.CouplingProfile.oscillating_3d(
        OMEGA_E, [0, 0, 1], rhat, r_m=km_rm / omega_m, omega_m=omega_m,
        gamma=gamma, V=V,
    )


class TestPairAmplitude:
    @pytest.mark.parametrize("omega_m, t", [
        (0.55, 37.0),
        # Omega = 0.4 + 0.9 = omega_m: those pairs grow like t
        (1.3, 200.0),
    ], ids=["off-resonant", "resonant"])
    def test_matches_quadrature(self, omega_m, t):
        grid = modes.few_mode_waveguide_grid([0.4, 0.9])
        prof = cp.CouplingProfile(
            kind=cp.CouplingKind.OSCILLATING_1D, omega_e=OMEGA_E,
            chi_scale=0.05, c=1.0, r_m=0.09 / omega_m, omega_m=omega_m,
        )
        frame = dr.DressedFrame(grid, prof)
        C, _ = rad.pair_amplitude(frame, t)
        ref = quadrature_pair_amplitude(frame, t)
        assert C == pytest.approx(ref, rel=1e-12, abs=0)

    @pytest.mark.parametrize("omega_m", [0.0, 0.05])
    def test_matches_einsum_on_a_dense_lattice(self, omega_m):
        # five kernels of the distinct harmonic sums against the 3 x 3 pairs
        n, L = 120, 2000.0
        grid = modes.build_waveguide_grid(n, (n // 2) * 2 * np.pi / L, L, 1.0)
        if omega_m:
            prof = oscillating_1d_profile(grid, omega_m=omega_m)
            frame = dr.DressedFrame(grid, prof)
        else:
            frame = dr.DressedFrame(grid, static_1d_profile(grid))
        for t in (7.0, 300.0):
            (C, free), (C_ref, free_ref) = (rad.pair_amplitude(frame, t),
                                            einsum_pair_amplitude(frame, t))
            # free = C - Lambda(t)/Omega cancels, so both are measured on C's scale
            scale = np.max(np.abs(C_ref))
            assert np.max(np.abs(C - C_ref)) <= 1e-14 * scale
            assert np.max(np.abs(free - free_ref)) <= 1e-14 * scale

    def test_zero_time_is_the_dressing(self, small_waveguide):
        prof = oscillating_1d_profile(small_waveguide, omega_m=0.08)
        frame = dr.DressedFrame(small_waveguide, prof)
        C, free = rad.pair_amplitude(frame, 0.0)
        omega = small_waveguide.omega
        Omega = omega[:, None] + omega[None, :]
        assert np.array_equal(C, dr.lambda_matrix(frame, 0.0) / Omega)
        assert np.all(free == 0.0)

    def test_static_coupling_cancellation(self, small_waveguide):
        frame = dr.DressedFrame(small_waveguide,
                                static_1d_profile(small_waveguide))
        lam_max = np.max(np.abs(dr.lambda_matrix(frame, 0.0)))
        for t in (0.0, 13.0, 77.0):
            C, free = rad.pair_amplitude(frame, t)
            assert np.max(np.abs(free)) <= 1e-13 * lam_max
            # total amplitude equals the instantaneous dressing
            Omega = small_waveguide.omega[:, None] + small_waveguide.omega[None, :]
            assert np.allclose(C, dr.lambda_matrix(frame, t) / Omega,
                               rtol=0, atol=1e-13 * lam_max)

    def test_zero_dipole(self, small_waveguide):
        frame = dr.DressedFrame(small_waveguide,
                                static_1d_profile(small_waveguide, gamma=0.0))
        C, _ = rad.pair_amplitude(frame, 5.0)
        assert np.all(C == 0.0)

    def test_symmetry(self, small_waveguide):
        prof = oscillating_1d_profile(small_waveguide, omega_m=0.08)
        frame = dr.DressedFrame(small_waveguide, prof)
        C, free = rad.pair_amplitude(frame, 9.0)
        assert np.array_equal(C, C.T)
        assert np.array_equal(free, free.T)

    def test_resonant_secular_growth(self):
        # pair resonance Omega = omega_m: over an integer number of drive
        # periods the amplitude grows by exactly |Lambda_minus| * interval
        grid = modes.build_waveguide_grid(2, 0.15, 2 * np.pi, 1.0)
        wm = 0.3
        prof = oscillating_1d_profile(grid, omega_m=wm, km_rm=0.1)
        frame = dr.DressedFrame(grid, prof)
        T = 2 * np.pi / wm
        ts = np.linspace(0, T, 601)[:-1]
        lam_t = np.array([dr.lambda_matrix(frame, t)[0, 0] for t in ts])
        lam_minus = np.mean(lam_t * np.exp(1j * wm * ts))
        c1 = rad.pair_amplitude(frame, 5 * T)[0][0, 0]
        c2 = rad.pair_amplitude(frame, 15 * T)[0][0, 0]
        assert abs(c2 - c1) == pytest.approx(abs(lam_minus) * 10 * T, rel=1e-6)

    def test_against_closed_form(self):
        # independent oracle: with the carrier/sideband structure the memory
        # integral evaluates in closed form per Fourier component
        grid = modes.few_mode_waveguide_grid([0.4, 0.9])
        wm = 0.55
        prof = cp.CouplingProfile(
            kind=cp.CouplingKind.OSCILLATING_1D, omega_e=OMEGA_E,
            chi_scale=0.05, c=1.0, r_m=0.09 / wm, omega_m=wm,
        )
        frame = dr.DressedFrame(grid, prof)
        t = 37.0
        C, _ = rad.pair_amplitude(frame, t)

        # Fourier components of Lambda over one period
        T = 2 * np.pi / wm
        ts = np.linspace(0, T, 1024)[:-1]
        lam_series = np.stack([dr.lambda_matrix(frame, x) for x in ts])
        omega = grid.omega
        Om = omega[:, None] + omega[None, :]
        C_ref = np.zeros_like(C)
        lam0 = dr.lambda_matrix(frame, 0.0)
        C_ref += lam0 / Om * np.exp(-1j * Om * t)
        for m in (-2, -1, 0, 1, 2):
            lam_m = np.mean(lam_series
                            * np.exp(-1j * m * wm * ts)[:, None, None], axis=0)
            nu = Om + m * wm
            kernel = np.where(
                np.abs(nu) < 1e-12, t,
                (np.exp(1j * nu * t) - 1.0) / (1j * np.where(nu == 0, 1, nu)),
            )
            C_ref += 1j * np.exp(-1j * Om * t) * lam_m * kernel
        assert np.max(np.abs(C - C_ref)) < 1e-13 * np.max(np.abs(C_ref))

    def test_off_resonant_bound(self):
        # no secular growth off resonance: |C| bounded uniformly in t
        grid = modes.few_mode_waveguide_grid([0.4, 0.9])
        wm = 0.7  # no pair sum equals 0.7... pairs: 0.8, 1.3, 1.8
        prof = cp.CouplingProfile(
            kind=cp.CouplingKind.OSCILLATING_1D, omega_e=OMEGA_E,
            chi_scale=0.05, c=1.0, r_m=0.09 / wm, omega_m=wm,
        )
        frame = dr.DressedFrame(grid, prof)
        omega = grid.omega
        Om = omega[:, None] + omega[None, :]
        lam_scale = np.max(np.abs(dr.lambda_matrix(frame, 0.0)))
        detune = np.min(np.abs(Om - wm))
        bound = 4.0 * lam_scale / detune
        for t in (40.0, 160.0):
            C, _ = rad.pair_amplitude(frame, t)
            assert np.max(np.abs(C)) < bound


class TestGoldenRuleRate:
    def test_zero_amplitude(self):
        prof = osc3d_profile(5e-3, km_rm=0.0)
        assert rad.golden_rule_rate(FREE, prof) == 0.0

    def test_parallel_geometry_constant(self):
        # closed-form reduction of the rate integral for dipole parallel to
        # the motion axis: C = 1/(5040 pi) in the low-frequency limit
        wm = 2e-4
        prof = osc3d_profile(wm, alpha=0.0)
        rate = rad.golden_rule_rate(FREE, prof, n_radial=40)
        C = rate / (0.05**2 * GAMMA**2 / OMEGA_E * (wm / OMEGA_E) ** 7)
        assert C == pytest.approx(1.0 / (5040.0 * np.pi), rel=2e-3)

    def test_perpendicular_geometry_constant(self):
        # perpendicular geometry keeps the magnetic sideband: 11/(5040 pi)
        wm = 2e-4
        prof = osc3d_profile(wm, alpha=np.pi / 2)
        rate = rad.golden_rule_rate(FREE, prof, n_radial=40)
        C = rate / (0.05**2 * GAMMA**2 / OMEGA_E * (wm / OMEGA_E) ** 7)
        assert C == pytest.approx(11.0 / (5040.0 * np.pi), rel=2e-3)

    def test_waveguide_constant(self):
        # 1D closed form: C = 1/(40 pi)
        grid = modes.build_waveguide_grid(16, 2.0, 16 * np.pi, 1.0)
        wm = 2e-4
        prof = oscillating_1d_profile(grid, omega_m=wm, km_rm=0.05)
        rate = rad.golden_rule_rate(grid.geometry, prof, n_radial=40)
        C = rate / (0.05**2 * GAMMA**2 / OMEGA_E * (wm / OMEGA_E) ** 3)
        assert C == pytest.approx(1.0 / (40.0 * np.pi), rel=2e-3)

    @pytest.mark.parametrize("alpha", [np.pi / 6, np.pi / 4, np.pi / 3, 2.0])
    def test_oblique_geometry_constant(self, alpha):
        # C(alpha) = (11 - 10 cos^2 alpha)/(5040 pi), 8.5/(5040 pi) at pi/3.
        # Over a pair w + w' = w_m the Floquet factors (w_e + w')^-2 of eta0
        # and (w_e - w')^-2 of eta+ leave no first-order term, so the
        # constant holds to O((w_m/w_e)^2): 2.2e-8 to 2.4e-8 here (the
        # adiabatic eta+ gave law (1 - 2 w_m/w_e), 4e-4 off)
        wm = 2e-4
        rate = rad.golden_rule_rate(FREE, osc3d_profile(wm, alpha=alpha),
                                    n_radial=40)
        C = rate / (0.05**2 * GAMMA**2 / OMEGA_E * (wm / OMEGA_E) ** 7)
        law = (11.0 - 10.0 * np.cos(alpha) ** 2) / (5040.0 * np.pi)
        assert C == pytest.approx(law, rel=1e-7)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(0.0, 2.0 * np.pi), min_size=4, max_size=4),
           st.floats(1e-4, 0.2), st.integers(1, 40), st.integers(3, 8),
           st.integers(5, 8))
    def test_matches_loop_form_3d(self, angles, wm, n_radial, n_polar,
                                  n_azimuthal):
        # dhat and rhat from (polar, azimuthal) angle pairs; the loop form
        # sums over direction rules that are exact for the degree-4 angular
        # integrands (3 or more polar and 5 or more azimuthal nodes), while
        # the rate uses the closed-form sums
        def unit(theta, phi):
            return [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                    np.cos(theta)]

        rule = angular_rule(n_polar, n_azimuthal)
        prof = cp.CouplingProfile.oscillating_3d(
            OMEGA_E, unit(*angles[:2]), unit(*angles[2:]), r_m=0.05 / wm,
            omega_m=wm, gamma=GAMMA, V=V)
        rate = rad.golden_rule_rate(FREE, prof, n_radial=n_radial)
        # abs=0: rates are ~1e-20, far below approx's default absolute 1e-12
        assert rate == pytest.approx(loop_rate(FREE, prof, n_radial, rule),
                                     rel=1e-12, abs=0)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(1e-4, 0.2), st.integers(1, 60), st.integers(1, 8))
    def test_matches_loop_form_1d(self, wm, n_radial, half_modes):
        grid = modes.build_waveguide_grid(2 * half_modes, 2.0,
                                          2 * half_modes * np.pi, 1.0)
        prof = oscillating_1d_profile(grid, omega_m=wm)
        rate = rad.golden_rule_rate(grid.geometry, prof, n_radial=n_radial)
        assert rate == pytest.approx(loop_rate(grid.geometry, prof, n_radial),
                                     rel=1e-12, abs=0)

    def test_quadratic_in_drive_amplitude(self):
        wm = 1e-3
        r1 = rad.golden_rule_rate(FREE, osc3d_profile(wm, km_rm=0.02), n_radial=24)
        r2 = rad.golden_rule_rate(FREE, osc3d_profile(wm, km_rm=0.04), n_radial=24)
        assert r2 / r1 == pytest.approx(4.0, rel=1e-10)

    def test_independent_of_mode_list(self):
        # the rate integral is continuum-based: grids differing only in their
        # mode lists give identical rates
        wm = 1e-3
        for n in (8, 64):
            grid = modes.build_waveguide_grid(n, 2.0, n * np.pi, 1.0)
            prof = oscillating_1d_profile(grid, omega_m=wm)
            r = rad.golden_rule_rate(grid.geometry, prof, n_radial=24)
            if n == 8:
                first = r
        assert r == pytest.approx(first, rel=1e-12, abs=0)

    def test_band_error(self):
        # both photons of a pair must lie above the cutoff 1e-6 w_e
        prof = osc3d_profile(2e-6)
        with pytest.raises(DomainError):
            rad.golden_rule_rate(FREE, prof)

    def test_fast_drive_warns(self):
        prof = osc3d_profile(0.6, km_rm=0.05)
        with pytest.warns(UserWarning, match="strained"):
            rad.golden_rule_rate(FREE, prof, n_radial=16)

    @pytest.mark.parametrize("wm", [1.0, 1.5])
    def test_drive_at_or_above_omega_e_is_refused(self, wm):
        # eta+ at w = w_m - w_e, inside the band (0, w_m), divides by zero
        with pytest.raises(ConfigError, match="sideband denominator"):
            rad.golden_rule_rate(FREE, osc3d_profile(wm), n_radial=16)
        with pytest.raises(ConfigError, match="sideband denominator"):
            rad.rate_sweep(FREE, [0.1, wm], osc3d_profile, n_radial=16)


class TestLatticeRate:
    @pytest.mark.parametrize("wm", [0.005, 0.05, 0.2])
    def test_pair_growth_on_a_lattice_matches_the_rate(self, wm):
        # the growth of the first-order pair probability on a 1D box lattice
        # of 700 modes (spacing 2 w_m/350) against the golden-rule rate.  P
        # sums |free|^2 over the resonant pairs, Omega < 1.5 w_m, with the
        # diagonal pairs at weight 1/2, so 4 P is the probability in the
        # orthonormal two-photon basis of ground_state_pairs (2 free off the
        # diagonal, sqrt(2) free on it).  The ratio reads 0.9955, 0.9959 and
        # 0.9968, a finite-t offset; the adiabatic eta+ gave 1.0055, 1.0997
        # and 1.4706
        L = 350 * np.pi / wm
        grid = modes.build_waveguide_grid(700, 2.0 * wm, L, 1.0)
        prof = cp.CouplingProfile.oscillating_1d(
            OMEGA_E, r_m=0.05 / wm, omega_m=wm, gamma=GAMMA, L=L, c=1.0)
        frame = dr.DressedFrame(grid, prof)
        j, k = np.triu_indices(grid.n_modes)
        resonant = grid.omega[j] + grid.omega[k] < 1.5 * wm
        j, k = j[resonant], k[resonant]
        weight = np.where(j == k, 0.5, 1.0)

        def P(t):
            free = rad.pair_amplitude(frame, t)[1]
            return np.sum(weight * np.abs(free[j, k]) ** 2)

        t = 200.0 / wm
        growth = 4.0 * (P(2.0 * t) - P(t)) / t
        rate = rad.golden_rule_rate(grid.geometry, prof)
        assert growth / rate == pytest.approx(1.0, abs=1e-2)


class TestSweepAndConstant:
    def test_slopes(self):
        wms = np.geomspace(1e-3, 1e-2, 6)
        _, exponent3, _ = rad.rate_sweep(FREE, wms, lambda wm: osc3d_profile(wm),
                                         n_radial=32)
        assert exponent3 == pytest.approx(7.0, abs=0.1)

        grid1 = modes.build_waveguide_grid(8, 2.0, 8 * np.pi, 1.0)
        _, exponent1, _ = rad.rate_sweep(
            grid1.geometry, wms, lambda wm: oscillating_1d_profile(grid1, omega_m=wm),
            n_radial=32)
        assert exponent1 == pytest.approx(3.0, abs=0.1)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_shipped_sweep_matches_first_order_law(self, dim):
        # configs/rate_sweep_{1d,3d}.json: R = C w_m^p (1 + O((w_m/w_e)^2))
        # with p = 3 (C = 1/(40 pi)) or 7 (C = 1/(5040 pi)); the Floquet eta+
        # leaves no first-order term, so the slope is p to O((w_m/w_e)^2)
        # (the adiabatic eta+ gave w_m^p (1 - 2 w_m/w_e), a slope 7e-3 short)
        wms = np.geomspace(1e-3, 1e-2, 16)
        if dim == 3:
            geometry = FREE
            p, C0 = 7.0, 1.0 / (5040.0 * np.pi)

            def build(wm):
                return osc3d_profile(wm)
        else:
            grid = modes.build_waveguide_grid(64, 2.0, 64 * np.pi, 1.0)
            geometry = grid.geometry
            p, C0 = 3.0, 1.0 / (40.0 * np.pi)

            def build(wm):
                return oscillating_1d_profile(grid, omega_m=wm)
        rates, exponent, _ = rad.rate_sweep(geometry, wms, build, n_radial=48)
        assert exponent == pytest.approx(p, abs=1e-4)
        C = rad.extract_rate_constant(wms, rates, k_m_r_m=0.05, gamma=GAMMA,
                                      omega_e=OMEGA_E, exponent=p)
        assert C == pytest.approx(C0, rel=1e-4)

    def test_constant_invariant_under_amplitude(self):
        wms = np.geomspace(1e-3, 1e-2, 5)
        cvals = []
        for km_rm in (0.02, 0.04):
            rates, _, _ = rad.rate_sweep(FREE, wms,
                                         lambda wm: osc3d_profile(wm, km_rm=km_rm),
                                         n_radial=32)
            cvals.append(rad.extract_rate_constant(
                wms, rates, k_m_r_m=km_rm, gamma=GAMMA, omega_e=OMEGA_E))
        assert cvals[1] == pytest.approx(cvals[0], rel=1e-6)

    def test_fit_quality_guard(self):
        wms = np.geomspace(1e-3, 1e-2, 5)
        rates, _, _ = rad.rate_sweep(FREE, wms, lambda wm: osc3d_profile(wm),
                                     n_radial=32)
        rates[2] *= 3.0  # corrupt one point
        with pytest.raises(FitQualityError):
            rad.extract_rate_constant(wms, rates, k_m_r_m=0.05, gamma=GAMMA,
                                      omega_e=OMEGA_E)


def turning_profile(omega_m):
    """Oscillating free-space profile whose dipole and motion axes turn with
    the drive frequency, at different rates."""
    a = np.log(omega_m)
    return cp.CouplingProfile.oscillating_3d(
        OMEGA_E, [np.sin(a) * np.cos(2 * a), np.sin(a) * np.sin(2 * a), np.cos(a)],
        [np.cos(3 * a), np.sin(3 * a), 0.5], r_m=0.05 / omega_m,
        omega_m=omega_m, gamma=GAMMA, V=V)


class TestSweepKernel:
    def test_turning_geometry_matches_loop_form(self):
        # (5, 5) is the coarsest rule exact for the degree-4 angular integrands
        rule = angular_rule(5, 5)
        wms = np.geomspace(1e-3, 1e-1, 7)
        rates, _, _ = rad.rate_sweep(FREE, wms, turning_profile, n_radial=12)
        for wm, rate in zip(wms, rates):
            assert rate == pytest.approx(
                loop_rate(FREE, turning_profile(wm), 12, rule), rel=1e-12, abs=0)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_sweep_point_is_the_single_rate_bitwise(self, dim):
        wms = np.geomspace(1e-3, 1e-2, 16)
        if dim == 3:
            geometry, build = FREE, turning_profile
        else:
            grid = modes.build_waveguide_grid(64, 2.0, 64 * np.pi, 1.0)
            geometry = grid.geometry

            def build(wm):
                return oscillating_1d_profile(grid, omega_m=wm)
        rates, _, _ = rad.rate_sweep(geometry, wms, build, n_radial=48)
        single = [rad.golden_rule_rate(geometry, build(wm), n_radial=48) for wm in wms]
        assert rates.tolist() == single

    def test_slope_matches_polyfit(self):
        wms = np.geomspace(2e-4, 0.3, 9)
        rates, exponent, slopes = rad.rate_sweep(FREE, wms, turning_profile,
                                                 n_radial=16)
        lw, lr = np.log(wms), np.log(rates)
        assert exponent == pytest.approx(np.polyfit(lw, lr, 1)[0], rel=1e-12, abs=0)
        np.testing.assert_array_equal(slopes, np.gradient(lr, lw))

    def test_fast_drive_warns_once_per_point(self):
        wms = [0.1, 0.55, 0.6, 0.7]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rad.rate_sweep(FREE, wms, osc3d_profile, n_radial=8)
        messages = [str(w.message) for w in caught]
        assert len(messages) == 3
        assert all("strained" in m for m in messages)
        assert [m.split(" >=")[0] for m in messages] == [
            "omega_m = 0.55", "omega_m = 0.6", "omega_m = 0.7"]
        assert {w.filename for w in caught} == {__file__}

    @pytest.mark.parametrize("wms", [[3e-3], [2e-3, 2e-3, 5e-3], []])
    def test_too_few_or_repeated_points(self, wms):
        built = []

        def build(wm):
            built.append(wm)
            return osc3d_profile(wm)

        with pytest.raises(ConfigError, match="at least two|distinct"):
            rad.rate_sweep(FREE, wms, build, n_radial=8)
        assert built == []

    def test_mixed_kinds_rejected(self):
        grid1 = modes.build_waveguide_grid(8, 2.0, 8 * np.pi, 1.0)

        def build(wm):
            if wm > 5e-3:
                return oscillating_1d_profile(grid1, omega_m=wm)
            return osc3d_profile(wm)

        with pytest.raises(ConfigError, match="share a kind"):
            rad.rate_sweep(FREE, [1e-3, 1e-2], build, n_radial=8)

    def test_rate_takes_a_geometry_and_a_3d_rule(self):
        # a 3D rate needs the free-space geometry alone, with no direction
        # rule, and a mode grid is not a rate geometry
        grid1 = modes.build_waveguide_grid(8, 2.0, 8 * np.pi, 1.0)
        prof1 = oscillating_1d_profile(grid1, omega_m=1e-3)
        assert rad.golden_rule_rate(modes.FreeSpace3D(V), osc3d_profile(1e-3),
                                    n_radial=8) > 0.0
        with pytest.raises(ConfigError, match="unsupported rate geometry"):
            rad.golden_rule_rate(grid1, prof1, n_radial=8)


#: the six distinct entries (f, g) of a symmetric moment matrix over (a0, P, Q)
MOMENT_ENTRIES = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]


class TestAngularSums:
    @pytest.mark.parametrize("case", range(12))
    def test_3d_closed_forms_match_a_fine_rule(self, case):
        # the moments M_fg = sum F_f F_g of F = (a0, P, Q) over
        # angular_rule(24, 12), exact for these degree-4 integrands, against
        # the closed forms, the zero cross moments M_0P and M_0Q included;
        # random axes, then dhat parallel and perpendicular to rhat_m
        rng = np.random.default_rng(case)
        dhat, rhat = rng.normal(size=(2, 3))
        if case == 0:
            rhat = -dhat
        elif case == 1:
            rhat = np.cross(dhat, rng.normal(size=3))
        prof = cp.CouplingProfile.oscillating_3d(
            OMEGA_E, dhat, rhat, r_m=50.0, omega_m=1e-3, gamma=GAMMA, V=V)
        khat, eps, weight = angular_rule(24, 12)
        F = np.array(cp.angular_factors(prof, khat, eps))
        rule = (F * weight) @ F.T
        dim, dens, M = rad._angular_sums(FREE, [prof])
        assert (dim, dens) == (3, 1.0)
        assert M.shape == (1, 3, 3)
        np.testing.assert_array_equal(M[0], M[0].T)
        assert M[0, 0, 1] == M[0, 0, 2] == 0.0
        # the rule's own rounding reaches 1.2e-14 on moments of size 8 pi/3
        for f, g in MOMENT_ENTRIES:
            assert M[0, f, g] == pytest.approx(rule[f, g], rel=0, abs=2e-14), (f, g)
        c2 = np.dot(prof.dipole_direction, prof.rhat_m) ** 2
        if case == 0:
            assert c2 == pytest.approx(1.0, rel=1e-15)
        elif case == 1:
            assert c2 < 1e-30

    def test_1d_sums(self):
        grid = modes.build_waveguide_grid(8, 2.0, 8 * np.pi, 1.0)
        prof = oscillating_1d_profile(grid, omega_m=1e-3)
        F = np.array(cp.angular_factors(prof, np.array([1.0, -1.0])))
        rule = F @ F.T
        assert [rule[f, g] for f, g in MOMENT_ENTRIES] == [2.0, 0.0, 0.0, 2.0, 0.0, 0.0]
        dim, dens, M = rad._angular_sums(grid.geometry, [prof])
        assert (dim, dens) == (1, grid.geometry.length / (2.0 * np.pi))
        assert M.tolist() == [rule.tolist()]


def right_mover_loop_rate(geometry, profile, n_radial):
    """1D golden-rule rate summed radius by radius over right-moving photons
    (s = +1) alone: the pair term (eta+_k eta0_k' + eta+_k' eta0_k)^2 of
    ``loop_rate`` with both photons moving along +x."""
    k_m, c = profile.k_m, profile.c
    km_rm = k_m * profile.r_m
    x, wq = np.polynomial.legendre.leggauss(n_radial)
    total = 0.0
    for xi, wi in zip(x, wq):
        k = 0.5 * k_m * (xi + 1.0)
        e0, ep, f0, fp = [], [], [], []
        for w, (carrier, side) in ((c * k, (e0, ep)), (c * (k_m - k), (f0, fp))):
            grid = modes.few_mode_waveguide_grid([w], c=c, directions=(1,))
            eta = 2.0 * profile.omega_e * dr.DressedFrame(grid, profile).xi_coeffs[:2, 0]
            carrier.append(eta[0].real)
            side.append((eta[1] / (1j * km_rm)).real)
        total += 0.5 * k_m * wi * (ep[0] * f0[0] + fp[0] * e0[0]) ** 2
    dens = geometry.length / (2.0 * np.pi)
    return np.pi * km_rm**2 / (4.0 * profile.omega_e**2) * dens**2 / c * total


class TestCrossMoment:
    def test_cross_term_is_live(self, monkeypatch):
        # right-movers alone (a0 = P = 1, Q = 0) have the cross moment
        # M_0P = 1, so J = eta+^T M eta0* does not vanish and the 2 Re J J'*
        # term of the integrand carries a share of the rate
        grid = modes.build_waveguide_grid(8, 2.0, 8 * np.pi, 1.0)
        real_sums = rad._angular_sums

        def right_movers(geometry, profiles):
            dim, dens, _ = real_sums(geometry, profiles)
            F = np.array(cp.angular_factors(profiles[0], np.array([1.0])))
            return dim, dens, (F @ F.T)[None]

        monkeypatch.setattr(rad, "_angular_sums", right_movers)
        assert right_movers(grid.geometry, [oscillating_1d_profile(
            grid, omega_m=1e-3)])[2][0, 0, 1] == 1.0
        profiles = [oscillating_1d_profile(grid, omega_m=wm)
                    for wm in (1e-3, 3e-2, 0.2)]
        rates = rad._rates(grid.geometry, profiles, 16)
        for prof, rate in zip(profiles, rates):
            assert rate == pytest.approx(
                right_mover_loop_rate(grid.geometry, prof, 16), rel=1e-12, abs=0)


class TestRuleBuiltOnce:
    def test_1d_sweep(self):
        modes.gauss_legendre.cache_clear()
        grid = modes.build_waveguide_grid(64, 2.0, 64 * np.pi, 1.0)
        rad.rate_sweep(grid.geometry, np.geomspace(1e-3, 1e-2, 16),
                       lambda wm: oscillating_1d_profile(grid, omega_m=wm),
                       n_radial=48)
        assert_only_rule_built(48)

    def test_3d_sweep_builds_only_its_radial_rule(self):
        modes.gauss_legendre.cache_clear()
        rad.rate_sweep(FREE, np.geomspace(1e-3, 1e-2, 3), osc3d_profile,
                       n_radial=24)
        assert_only_rule_built(24)


@pytest.mark.slow
class TestOracleComparison:
    def test_quick_resonant_run(self):
        # abbreviated version of the acceptance scenario: reciprocal pair,
        # exact periodic frame, moderate time
        grid = modes.few_mode_waveguide_grid([0.5, 2.0])
        wm = 2.5
        xi_max = 0.03
        chi_scale = xi_max * (0.5 + OMEGA_E) / np.sqrt(0.5)
        prof = cp.CouplingProfile(
            kind=cp.CouplingKind.OSCILLATING_1D, omega_e=OMEGA_E,
            chi_scale=chi_scale, c=1.0, r_m=0.1 / wm, omega_m=wm,
        )
        frame = dr.DressedFrame(grid, prof)
        basis = fk.enumerate_basis(4, 2)
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = rad.oracle_compare_pair_production(
                basis, frame, 60.0, tol=1e-11)
        assert report["max_rel_deviation"] < 0.15
        assert len(report["resonant_pairs"]) == 4

    def test_short_time_xi_ladder(self):
        # four periods of the OracleCompare physics: the deviation from
        # first-order perturbation theory is the next order, so it falls by
        # 4 per halving of xi, with no truncation warning at n_max 4 and the
        # same deviation at n_max 6
        grid = modes.few_mode_waveguide_grid([0.5, 2.0])
        wm = 2.5
        t_final = 4 * 2.0 * np.pi / wm

        def deviation(xi, n_max):
            prof = cp.CouplingProfile(
                kind=cp.CouplingKind.OSCILLATING_1D, omega_e=OMEGA_E,
                chi_scale=xi * (0.5 + OMEGA_E) / np.sqrt(0.5), c=1.0,
                r_m=0.1 / wm, omega_m=wm,
            )
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                report = rad.oracle_compare_pair_production(
                    fk.enumerate_basis(4, n_max), dr.DressedFrame(grid, prof),
                    t_final, tol=1e-10)
            return report["max_rel_deviation"]

        ladder = [deviation(xi, 4) for xi in (0.015, 0.0075, 0.00375)]
        falls = [a / b for a, b in zip(ladder, ladder[1:])]
        assert all(3.5 <= f <= 4.5 for f in falls), falls
        assert deviation(0.00375, 6) == pytest.approx(ladder[-1], rel=1e-4, abs=0)

    def test_requires_resonance(self):
        grid = modes.few_mode_waveguide_grid([0.4, 0.9])
        # pair sums are 0.8, 1.3 and 1.8: a drive at 0.55 misses them all
        prof = cp.CouplingProfile(
            kind=cp.CouplingKind.OSCILLATING_1D, omega_e=OMEGA_E,
            chi_scale=0.05, c=1.0, r_m=0.01, omega_m=0.55,
        )
        frame = dr.DressedFrame(grid, prof)
        basis = fk.enumerate_basis(4, 2)
        with pytest.raises(ConfigError):
            rad.oracle_compare_pair_production(basis, frame, 10.0)

    def test_requires_pair_capacity(self):
        grid = modes.few_mode_waveguide_grid([0.4, 0.9])
        prof = cp.CouplingProfile(
            kind=cp.CouplingKind.OSCILLATING_1D, omega_e=OMEGA_E,
            chi_scale=0.05, c=1.0, r_m=0.01, omega_m=0.8,
        )
        frame = dr.DressedFrame(grid, prof)
        basis = fk.enumerate_basis(4, 1)
        with pytest.raises(ConfigError):
            rad.oracle_compare_pair_production(basis, frame, 10.0)
