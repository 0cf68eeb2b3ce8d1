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

from conftest import OMEGA_E, oscillating_1d_profile, static_1d_profile

V = (2.0 * np.pi) ** 3
GAMMA = 1e-3


def loop_rate(grid, profile, n_radial):
    """Golden-rule rate summed radius by radius and direction by direction
    (the loop form of ``rad.golden_rule_rate``)."""
    k_m, c = profile.k_m, profile.c
    x, wq = np.polynomial.legendre.leggauss(n_radial)
    k_nodes, k_wts = 0.5 * k_m * (x + 1.0), 0.5 * k_m * wq
    total = np.zeros(n_radial)
    if grid.is_waveguide:
        dens = grid.geometry.length / (2.0 * np.pi)
        signs = np.array([1.0, -1.0])
        for i, k in enumerate(k_nodes):
            e0, ep, _ = cp.eta_components_arrays_1d(profile, np.full(2, c * k), signs)
            f0, fp, _ = cp.eta_components_arrays_1d(
                profile, np.full(2, c * (k_m - k)), signs)
            for s in range(2):
                for sp in range(2):
                    total[i] += (ep[s] * f0[sp] + fp[sp] * e0[s]) ** 2
    else:
        dens = grid.geometry.volume / (2.0 * np.pi) ** 3
        khat = np.repeat(grid.angular_directions, 2, axis=0)
        w2 = np.repeat(grid.angular_weights, 2)

        def moments(omega):
            pol = np.array([e for d in grid.angular_directions
                            for e in modes._polarization_pair(d)])
            e0, ep, _ = cp.eta_components_arrays_3d(
                profile, np.full(len(khat), omega), khat, pol)
            return np.sum(w2 * ep**2), np.sum(w2 * e0**2), np.sum(w2 * ep * e0)

        for i, k in enumerate(k_nodes):
            Ip, I0, J = moments(c * k)
            Ipp, I0p, Jp = moments(c * (k_m - k))
            total[i] = k**2 * (k_m - k) ** 2 * (Ip * I0p + 2.0 * J * Jp + Ipp * I0)
    km_rm = k_m * profile.r_m
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


def osc3d_profile(omega_m, *, alpha=0.0, km_rm=0.05, gamma=GAMMA):
    """Oscillating free-space profile; alpha is the dipole-motion angle."""
    rhat = [np.sin(alpha), 0.0, np.cos(alpha)]
    return cp.CouplingProfile.oscillating_3d(
        OMEGA_E, [0, 0, 1], rhat, r_m=km_rm / omega_m, omega_m=omega_m,
        gamma=gamma, V=V,
    )


class TestPairAmplitude:
    @pytest.mark.parametrize("xi_mode", ["adiabatic", "floquet"])
    @pytest.mark.parametrize("omega_m, t", [
        (0.55, 37.0),
        # Omega = 0.4 + 0.9 = omega_m: those pairs grow like t
        (1.3, 200.0),
    ], ids=["off-resonant", "resonant"])
    def test_matches_quadrature(self, xi_mode, omega_m, t):
        grid = modes.few_mode_waveguide_grid([0.4, 0.9])
        prof = cp.CouplingProfile(
            kind=cp.CouplingKind.OSCILLATING_1D, omega_e=OMEGA_E,
            chi_scale=0.05, c=1.0, r_m=0.09 / omega_m, omega_m=omega_m,
        )
        frame = dr.DressedFrame(grid, prof, xi_mode=xi_mode)
        C, _ = rad.pair_amplitude(frame, t)
        ref = quadrature_pair_amplitude(frame, t)
        assert C == pytest.approx(ref, rel=1e-12, abs=0)

    @pytest.mark.parametrize("xi_mode", ["adiabatic", "floquet"])
    def test_zero_time_is_the_dressing(self, small_waveguide, xi_mode):
        prof = oscillating_1d_profile(small_waveguide, omega_m=0.08)
        frame = dr.DressedFrame(small_waveguide, prof, xi_mode=xi_mode)
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
        frame = dr.DressedFrame(small_waveguide, prof, xi_mode="floquet")
        C, free = rad.pair_amplitude(frame, 9.0)
        assert np.array_equal(C, C.T)
        assert np.array_equal(free, free.T)

    def test_resonant_secular_growth(self):
        # pair resonance Omega = omega_m: over an integer number of drive
        # periods the amplitude grows by exactly |Lambda_minus| * interval
        grid = modes.build_waveguide_grid(2, 0.15, 2 * np.pi, 1.0)
        wm = 0.3
        prof = oscillating_1d_profile(grid, omega_m=wm, km_rm=0.1)
        frame = dr.DressedFrame(grid, prof, xi_mode="floquet")
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
        frame = dr.DressedFrame(grid, prof, xi_mode="floquet")
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
        frame = dr.DressedFrame(grid, prof, xi_mode="floquet")
        omega = grid.omega
        Om = omega[:, None] + omega[None, :]
        lam_scale = np.max(np.abs(dr.lambda_matrix(frame, 0.0)))
        detune = np.min(np.abs(Om - wm))
        bound = 4.0 * lam_scale / detune
        for t in (40.0, 160.0):
            C, _ = rad.pair_amplitude(frame, t)
            assert np.max(np.abs(C)) < bound


class TestGoldenRuleRate:
    def test_zero_amplitude(self, freespace_grid):
        prof = osc3d_profile(5e-3, km_rm=0.0)
        assert rad.golden_rule_rate(freespace_grid, prof) == 0.0

    def test_parallel_geometry_constant(self, freespace_grid):
        # closed-form reduction of the rate integral for dipole parallel to
        # the motion axis: C = 1/(5040 pi) in the low-frequency limit
        wm = 2e-4
        prof = osc3d_profile(wm, alpha=0.0)
        rate = rad.golden_rule_rate(freespace_grid, prof, n_radial=40)
        C = rate / (0.05**2 * GAMMA**2 / OMEGA_E * (wm / OMEGA_E) ** 7)
        assert C == pytest.approx(1.0 / (5040.0 * np.pi), rel=2e-3)

    def test_perpendicular_geometry_constant(self, freespace_grid):
        # perpendicular geometry keeps the magnetic sideband: 11/(5040 pi)
        wm = 2e-4
        prof = osc3d_profile(wm, alpha=np.pi / 2)
        rate = rad.golden_rule_rate(freespace_grid, prof, n_radial=40)
        C = rate / (0.05**2 * GAMMA**2 / OMEGA_E * (wm / OMEGA_E) ** 7)
        assert C == pytest.approx(11.0 / (5040.0 * np.pi), rel=2e-3)

    def test_waveguide_constant(self):
        # 1D closed form: C = 1/(40 pi)
        grid = modes.build_waveguide_grid(16, 2.0, 16 * np.pi, 1.0)
        wm = 2e-4
        prof = oscillating_1d_profile(grid, omega_m=wm, km_rm=0.05)
        rate = rad.golden_rule_rate(grid, prof, n_radial=40)
        C = rate / (0.05**2 * GAMMA**2 / OMEGA_E * (wm / OMEGA_E) ** 3)
        assert C == pytest.approx(1.0 / (40.0 * np.pi), rel=2e-3)

    @pytest.mark.parametrize("alpha", [np.pi / 6, np.pi / 4, np.pi / 3, 2.0])
    def test_oblique_geometry_constant(self, freespace_grid, alpha):
        # C(alpha) = (11 - 10 cos^2 alpha)/(5040 pi), 8.5/(5040 pi) at pi/3;
        # each |eta|^2 carries (1 + w/w_e)^-2, which over a pair gives the
        # first-order correction 1 - 2 w_m/w_e
        wm = 2e-4
        rate = rad.golden_rule_rate(freespace_grid, osc3d_profile(wm, alpha=alpha),
                                    n_radial=40)
        C = rate / (0.05**2 * GAMMA**2 / OMEGA_E * (wm / OMEGA_E) ** 7)
        law = (11.0 - 10.0 * np.cos(alpha) ** 2) / (5040.0 * np.pi)
        assert C == pytest.approx(law, rel=2e-3)
        assert C == pytest.approx(law * (1.0 - 2.0 * wm / OMEGA_E), rel=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(0.0, 2.0 * np.pi), min_size=4, max_size=4),
           st.floats(1e-4, 0.2), st.integers(1, 40), st.integers(1, 8),
           st.integers(1, 6))
    def test_matches_loop_form_3d(self, angles, wm, n_radial, n_polar,
                                  n_azimuthal):
        # dhat and rhat from (polar, azimuthal) angle pairs; coarse angular
        # rules break the parity that zeroes sum eta+ eta0 on fine ones
        def unit(theta, phi):
            return [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
                    np.cos(theta)]

        grid = modes.build_freespace_quadrature(2, n_polar, n_azimuthal, 2.0, V)
        prof = cp.CouplingProfile.oscillating_3d(
            OMEGA_E, unit(*angles[:2]), unit(*angles[2:]), r_m=0.05 / wm,
            omega_m=wm, gamma=GAMMA, V=V)
        rate = rad.golden_rule_rate(grid, prof, n_radial=n_radial)
        # abs=0: rates are ~1e-20, far below approx's default absolute 1e-12
        assert rate == pytest.approx(loop_rate(grid, prof, n_radial),
                                     rel=1e-12, abs=0)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(1e-4, 0.2), st.integers(1, 60), st.integers(1, 8))
    def test_matches_loop_form_1d(self, wm, n_radial, half_modes):
        grid = modes.build_waveguide_grid(2 * half_modes, 2.0,
                                          2 * half_modes * np.pi, 1.0)
        prof = oscillating_1d_profile(grid, omega_m=wm)
        rate = rad.golden_rule_rate(grid, prof, n_radial=n_radial)
        assert rate == pytest.approx(loop_rate(grid, prof, n_radial),
                                     rel=1e-12, abs=0)

    def test_quadratic_in_drive_amplitude(self, freespace_grid):
        wm = 1e-3
        r1 = rad.golden_rule_rate(freespace_grid,
                                  osc3d_profile(wm, km_rm=0.02), n_radial=24)
        r2 = rad.golden_rule_rate(freespace_grid,
                                  osc3d_profile(wm, km_rm=0.04), n_radial=24)
        assert r2 / r1 == pytest.approx(4.0, rel=1e-10)

    def test_independent_of_mode_list(self):
        # the rate integral is continuum-based: grids differing only in their
        # mode lists give identical rates
        wm = 1e-3
        for n in (8, 64):
            grid = modes.build_waveguide_grid(n, 2.0, n * np.pi, 1.0)
            prof = oscillating_1d_profile(grid, omega_m=wm)
            r = rad.golden_rule_rate(grid, prof, n_radial=24)
            if n == 8:
                first = r
        assert r == pytest.approx(first, rel=1e-12, abs=0)

    def test_band_error(self, freespace_grid):
        # both photons of a pair must lie above the cutoff 1e-6 w_e
        prof = osc3d_profile(2e-6)
        with pytest.raises(DomainError):
            rad.golden_rule_rate(freespace_grid, prof)

    def test_fast_drive_warns(self, freespace_grid):
        prof = osc3d_profile(0.6, km_rm=0.05)
        with pytest.warns(UserWarning, match="strained"):
            rad.golden_rule_rate(freespace_grid, prof, n_radial=16)


class TestSweepAndConstant:
    def test_slopes(self, freespace_grid):
        wms = np.geomspace(1e-3, 1e-2, 6)
        _, exponent3, _ = rad.rate_sweep(freespace_grid, wms,
                                         lambda wm: osc3d_profile(wm), n_radial=32)
        assert exponent3 == pytest.approx(7.0, abs=0.1)

        grid1 = modes.build_waveguide_grid(8, 2.0, 8 * np.pi, 1.0)
        _, exponent1, _ = rad.rate_sweep(
            grid1, wms, lambda wm: oscillating_1d_profile(grid1, omega_m=wm),
            n_radial=32)
        assert exponent1 == pytest.approx(3.0, abs=0.1)

    @pytest.mark.parametrize("dim", [1, 3])
    def test_shipped_sweep_matches_first_order_law(self, dim):
        # configs/rate_sweep_{1d,3d}.json: R ~ w_m^p (1 - 2 w_m/w_e) with
        # p = 3 (C = 1/(40 pi)) or 7 (C = 1/(5040 pi)) explains the slope's
        # shortfall from p and the fitted constant
        wms = np.geomspace(1e-3, 1e-2, 16)
        if dim == 3:
            grid = modes.build_freespace_quadrature(8, 24, 12, 2.0, V)
            p, C0 = 7.0, 1.0 / (5040.0 * np.pi)

            def build(wm):
                return osc3d_profile(wm)
        else:
            grid = modes.build_waveguide_grid(64, 2.0, 64 * np.pi, 1.0)
            p, C0 = 3.0, 1.0 / (40.0 * np.pi)

            def build(wm):
                return oscillating_1d_profile(grid, omega_m=wm)
        rates, exponent, _ = rad.rate_sweep(grid, wms, build, n_radial=48)
        correction = np.log(1.0 - 2.0 * wms / OMEGA_E)
        slope = np.polyfit(np.log(wms), p * np.log(wms) + correction, 1)[0]
        assert exponent == pytest.approx(slope, abs=5e-4)
        C = rad.extract_rate_constant(wms, rates, k_m_r_m=0.05, gamma=GAMMA,
                                      omega_e=OMEGA_E, exponent=p)
        assert C == pytest.approx(C0 * np.exp(np.mean(correction)), rel=2e-4)

    def test_constant_invariant_under_amplitude(self, freespace_grid):
        wms = np.geomspace(1e-3, 1e-2, 5)
        cvals = []
        for km_rm in (0.02, 0.04):
            rates, _, _ = rad.rate_sweep(freespace_grid, wms,
                                         lambda wm: osc3d_profile(wm, km_rm=km_rm),
                                         n_radial=32)
            cvals.append(rad.extract_rate_constant(
                wms, rates, k_m_r_m=km_rm, gamma=GAMMA, omega_e=OMEGA_E))
        assert cvals[1] == pytest.approx(cvals[0], rel=1e-6)

    def test_fit_quality_guard(self, freespace_grid):
        wms = np.geomspace(1e-3, 1e-2, 5)
        rates, _, _ = rad.rate_sweep(freespace_grid, wms,
                                     lambda wm: osc3d_profile(wm), n_radial=32)
        rates[2] *= 3.0  # corrupt one point
        with pytest.raises(FitQualityError):
            rad.extract_rate_constant(wms, rates, k_m_r_m=0.05, gamma=GAMMA,
                                      omega_e=OMEGA_E)


def count_leggauss(monkeypatch):
    """Empty the rule cache and count the rules built from here on."""
    modes.gauss_legendre.cache_clear()
    calls = []
    leggauss = np.polynomial.legendre.leggauss

    def counting(n):
        calls.append(n)
        return leggauss(n)

    monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting)
    return calls


class TestRuleBuiltOnce:
    def test_1d_sweep(self, monkeypatch):
        calls = count_leggauss(monkeypatch)
        grid = modes.build_waveguide_grid(64, 2.0, 64 * np.pi, 1.0)
        rad.rate_sweep(grid, np.geomspace(1e-3, 1e-2, 16),
                       lambda wm: oscillating_1d_profile(grid, omega_m=wm),
                       n_radial=48)
        assert calls == [48]

    def test_3d_sweep_reuses_the_polar_rule(self, monkeypatch):
        calls = count_leggauss(monkeypatch)
        grid = modes.build_freespace_quadrature(8, 24, 12, 2.0, V)
        rad.rate_sweep(grid, np.geomspace(1e-3, 1e-2, 3), osc3d_profile,
                       n_radial=24)
        assert calls == [8, 24]


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
            km_rm_guard=0.1001,
        )
        frame = dr.DressedFrame(grid, prof, xi_mode="floquet")
        basis = fk.enumerate_basis(4, 2)
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = rad.oracle_compare_pair_production(
                basis, frame, grid, 60.0, tol=1e-11)
        assert report["max_rel_deviation"] < 0.15
        assert len(report["resonant_pairs"]) == 4

    def test_requires_resonance(self):
        grid = modes.few_mode_waveguide_grid([0.4, 0.9])
        # pair sums are 0.8, 1.3 and 1.8: a drive at 0.55 misses them all
        prof = cp.CouplingProfile(
            kind=cp.CouplingKind.OSCILLATING_1D, omega_e=OMEGA_E,
            chi_scale=0.05, c=1.0, r_m=0.01, omega_m=0.55,
        )
        frame = dr.DressedFrame(grid, prof, xi_mode="floquet")
        basis = fk.enumerate_basis(4, 2)
        with pytest.raises(ConfigError):
            rad.oracle_compare_pair_production(basis, frame, grid, 10.0)

    def test_requires_pair_capacity(self):
        grid = modes.few_mode_waveguide_grid([0.4, 0.9])
        prof = cp.CouplingProfile(
            kind=cp.CouplingKind.OSCILLATING_1D, omega_e=OMEGA_E,
            chi_scale=0.05, c=1.0, r_m=0.01, omega_m=0.8,
        )
        frame = dr.DressedFrame(grid, prof, xi_mode="floquet")
        basis = fk.enumerate_basis(4, 1)
        with pytest.raises(ConfigError):
            rad.oracle_compare_pair_production(basis, frame, grid, 10.0)
