import numpy as np
import pytest

from vacuum_shake import coupling as cp
from vacuum_shake import dressing as dr
from vacuum_shake import fock as fk
from vacuum_shake import modes
from vacuum_shake import radiation as rad
from vacuum_shake.errors import (ConfigError, DomainError, FitQualityError)

from conftest import OMEGA_E, oscillating_1d_profile, static_1d_profile

V = (2.0 * np.pi) ** 3
GAMMA = 1e-3


def osc3d_profile(omega_m, *, alpha=0.0, km_rm=0.05, gamma=GAMMA):
    """Oscillating free-space profile; alpha is the dipole-motion angle."""
    rhat = [np.sin(alpha), 0.0, np.cos(alpha)]
    return cp.CouplingProfile.oscillating_3d(
        OMEGA_E, [0, 0, 1], rhat, r_m=km_rm / omega_m, omega_m=omega_m,
        gamma=gamma, V=V,
    )


class TestPairAmplitude:
    def test_static_coupling_cancellation(self, small_waveguide):
        frame = dr.DressedFrame(small_waveguide,
                                static_1d_profile(small_waveguide))
        lam_max = np.max(np.abs(dr.lambda_matrix(frame, 0.0).lam))
        for t in (0.0, 13.0, 77.0):
            res = rad.pair_amplitude(frame, t, rel_tol=1e-11)
            assert res.max_free_magnitude() <= 1e-9 * lam_max
            # total amplitude equals the instantaneous dressing
            Omega = small_waveguide.omega[:, None] + small_waveguide.omega[None, :]
            assert np.allclose(res.C, dr.lambda_matrix(frame, t).lam / Omega,
                               atol=1e-9 * lam_max)

    def test_zero_dipole(self, small_waveguide):
        frame = dr.DressedFrame(small_waveguide,
                                static_1d_profile(small_waveguide, gamma=0.0))
        res = rad.pair_amplitude(frame, 5.0)
        assert np.all(res.C == 0.0)

    def test_symmetry(self, small_waveguide):
        prof = oscillating_1d_profile(small_waveguide, omega_m=0.08)
        frame = dr.DressedFrame(small_waveguide, prof, xi_mode="floquet")
        res = rad.pair_amplitude(frame, 9.0, rel_tol=1e-9)
        assert np.array_equal(res.C, res.C.T)
        assert np.array_equal(res.freely_propagating_part,
                              res.freely_propagating_part.T)

    def test_resonant_secular_growth(self):
        # pair resonance Omega = omega_m: over an integer number of drive
        # periods the amplitude grows by exactly |Lambda_minus| * interval
        grid = modes.build_waveguide_grid(2, 0.15, 2 * np.pi, 1.0)
        wm = 0.3
        prof = oscillating_1d_profile(grid, omega_m=wm, km_rm=0.1)
        frame = dr.DressedFrame(grid, prof, xi_mode="floquet")
        T = 2 * np.pi / wm
        ts = np.linspace(0, T, 601)[:-1]
        lam_t = np.array([dr.lambda_matrix(frame, t).lam[0, 0] for t in ts])
        lam_minus = np.mean(lam_t * np.exp(1j * wm * ts))
        c1 = rad.pair_amplitude(frame, 5 * T, rel_tol=1e-10).C[0, 0]
        c2 = rad.pair_amplitude(frame, 15 * T, rel_tol=1e-10).C[0, 0]
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
        res = rad.pair_amplitude(frame, t, rel_tol=1e-11)

        # Fourier components of Lambda over one period
        T = 2 * np.pi / wm
        ts = np.linspace(0, T, 1024)[:-1]
        lam_series = np.stack([dr.lambda_matrix(frame, x).lam for x in ts])
        omega = grid.omega
        Om = omega[:, None] + omega[None, :]
        C_ref = np.zeros_like(res.C)
        lam0 = dr.lambda_matrix(frame, 0.0).lam
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
        assert np.max(np.abs(res.C - C_ref)) < 1e-8 * np.max(np.abs(C_ref))

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
        lam_scale = np.max(np.abs(dr.lambda_matrix(frame, 0.0).lam))
        detune = np.min(np.abs(Om - wm))
        bound = 4.0 * lam_scale / detune
        for t in (40.0, 160.0):
            res = rad.pair_amplitude(frame, t, rel_tol=1e-9)
            assert np.max(np.abs(res.C)) < bound


class TestGoldenRuleRate:
    def test_zero_amplitude(self, freespace_grid):
        prof = osc3d_profile(5e-3, km_rm=0.0)
        res = rad.golden_rule_rate(freespace_grid, prof)
        assert res.rate == 0.0

    def test_parallel_geometry_constant(self, freespace_grid):
        # closed-form reduction of the rate integral for dipole parallel to
        # the motion axis: C = 1/(5040 pi) in the low-frequency limit
        wm = 2e-4
        prof = osc3d_profile(wm, alpha=0.0)
        res = rad.golden_rule_rate(freespace_grid, prof, n_radial=40)
        C = res.rate / (0.05**2 * GAMMA**2 / OMEGA_E * (wm / OMEGA_E) ** 7)
        assert C == pytest.approx(1.0 / (5040.0 * np.pi), rel=2e-3)

    def test_perpendicular_geometry_constant(self, freespace_grid):
        # perpendicular geometry keeps the magnetic sideband: 11/(5040 pi)
        wm = 2e-4
        prof = osc3d_profile(wm, alpha=np.pi / 2)
        res = rad.golden_rule_rate(freespace_grid, prof, n_radial=40)
        C = res.rate / (0.05**2 * GAMMA**2 / OMEGA_E * (wm / OMEGA_E) ** 7)
        assert C == pytest.approx(11.0 / (5040.0 * np.pi), rel=2e-3)

    def test_waveguide_constant(self):
        # 1D closed form: C = 1/(40 pi)
        grid = modes.build_waveguide_grid(16, 2.0, 16 * np.pi, 1.0)
        wm = 2e-4
        prof = oscillating_1d_profile(grid, omega_m=wm, km_rm=0.05)
        res = rad.golden_rule_rate(grid, prof, n_radial=40)
        C = res.rate / (0.05**2 * GAMMA**2 / OMEGA_E * (wm / OMEGA_E) ** 3)
        assert C == pytest.approx(1.0 / (40.0 * np.pi), rel=2e-3)

    def test_quadratic_in_drive_amplitude(self, freespace_grid):
        wm = 1e-3
        r1 = rad.golden_rule_rate(freespace_grid,
                                  osc3d_profile(wm, km_rm=0.02), n_radial=24)
        r2 = rad.golden_rule_rate(freespace_grid,
                                  osc3d_profile(wm, km_rm=0.04), n_radial=24)
        assert r2.rate / r1.rate == pytest.approx(4.0, rel=1e-10)

    def test_independent_of_mode_list(self):
        # the rate integral is continuum-based: grids differing only in their
        # mode lists give identical rates
        wm = 1e-3
        for n in (8, 64):
            grid = modes.build_waveguide_grid(n, 2.0, n * np.pi, 1.0)
            prof = oscillating_1d_profile(grid, omega_m=wm)
            r = rad.golden_rule_rate(grid, prof, n_radial=24).rate
            if n == 8:
                first = r
        assert r == pytest.approx(first, rel=1e-12)

    def test_band_error(self, freespace_grid):
        prof = osc3d_profile(1e-3)
        with pytest.raises(DomainError):
            rad.golden_rule_rate(freespace_grid, prof, omega_min=1e-3)

    def test_fast_drive_warns(self, freespace_grid):
        prof = osc3d_profile(0.6, km_rm=0.05)
        with pytest.warns(UserWarning, match="strained"):
            rad.golden_rule_rate(freespace_grid, prof, n_radial=16)


class TestSweepAndConstant:
    def test_slopes(self, freespace_grid):
        wms = np.geomspace(1e-3, 1e-2, 6)
        sw3 = rad.rate_sweep(freespace_grid, wms,
                             lambda wm: osc3d_profile(wm), n_radial=32,
                             gamma=GAMMA)
        assert sw3.fitted_exponent == pytest.approx(7.0, abs=0.1)

        grid1 = modes.build_waveguide_grid(8, 2.0, 8 * np.pi, 1.0)
        sw1 = rad.rate_sweep(grid1, wms,
                             lambda wm: oscillating_1d_profile(grid1, omega_m=wm),
                             n_radial=32, gamma=GAMMA)
        assert sw1.fitted_exponent == pytest.approx(3.0, abs=0.1)

    def test_constant_invariant_under_amplitude(self, freespace_grid):
        wms = np.geomspace(1e-3, 1e-2, 5)
        cvals = []
        for km_rm in (0.02, 0.04):
            sw = rad.rate_sweep(freespace_grid, wms,
                                lambda wm: osc3d_profile(wm, km_rm=km_rm),
                                n_radial=32, gamma=GAMMA)
            cvals.append(rad.extract_rate_constant(sw.results))
        assert cvals[1] == pytest.approx(cvals[0], rel=1e-6)

    def test_fit_quality_guard(self, freespace_grid):
        wms = np.geomspace(1e-3, 1e-2, 5)
        sw = rad.rate_sweep(freespace_grid, wms,
                            lambda wm: osc3d_profile(wm), n_radial=32,
                            gamma=GAMMA)
        sw.results[2].rate *= 3.0  # corrupt one point
        with pytest.raises(FitQualityError):
            rad.extract_rate_constant(sw.results)

    def test_missing_gamma_metadata(self, freespace_grid):
        wms = np.geomspace(1e-3, 1e-2, 3)
        sw = rad.rate_sweep(freespace_grid, wms,
                            lambda wm: osc3d_profile(wm), n_radial=16)
        with pytest.raises(ConfigError):
            rad.extract_rate_constant(sw.results)


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
