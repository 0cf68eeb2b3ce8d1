import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vacuum_shake import coupling as cp
from vacuum_shake import modes
from vacuum_shake import scattering as sc
from vacuum_shake.errors import ConfigError

from conftest import (OMEGA_E, chi, node_grid_3d, oscillating_1d_profile,
                      static_1d_profile)

V = (2.0 * np.pi) ** 3


def osc3d(dhat=(0, 0, 1), rhat=(0, 0, 1), r_m=0.5, omega_m=0.1, gamma=1e-3):
    return cp.CouplingProfile.oscillating_3d(
        OMEGA_E, dhat, rhat, r_m=r_m, omega_m=omega_m, gamma=gamma, V=V,
    )


def g_at(prof, grid, t):
    """Coupling g_k(t) of every grid mode from its Fourier array."""
    return cp.harmonic_phases(prof.omega_m, t) @ cp.grid_fourier(prof, grid)


def eta_at(prof, grid, t):
    """Co-rotating coupling eta_k(t) = 2 omega_e g_k(t) / (omega_k + omega_e)."""
    return 2.0 * g_at(prof, grid, t) / (1.0 + grid.omega / prof.omega_e)


def eta3d(prof, grid):
    """(eta0, eta_plus, eta_minus) of the first mode of a 3D grid, the
    adiabatic co-rotating amplitudes 2 omega_e g_nu / (omega + omega_e) of
    its Fourier rows, with the sidebands over i k_m r_m (so all three are
    real)."""
    eta = 2.0 * cp.grid_fourier(prof, grid)[:, 0] / (1.0 + grid.omega[0] / prof.omega_e)
    eta[1:] /= 1j * prof.k_m * prof.r_m
    assert not np.any(eta.imag)
    return tuple(eta.real)


class TestGuards:
    def test_long_wavelength_guard(self):
        with pytest.raises(ConfigError):
            osc3d(r_m=2.0, omega_m=0.1)  # k_m r_m = 0.2 > 0.1

    def test_long_wavelength_guard_has_only_rounding_slack(self):
        # (w_m/c) (0.1 c/w_m) rounds one ulp above 0.1 here; the guard
        # forgives that, and nothing as large as a relative 1e-9
        wm = np.geomspace(1e-3, 1e-2, 16)[6]
        assert wm * (0.1 / wm) > 0.1
        osc3d(r_m=0.1 / wm, omega_m=wm)
        with pytest.raises(ConfigError, match="long-wavelength"):
            osc3d(r_m=0.1 * (1.0 + 1e-9) / wm, omega_m=wm)

    def test_relativistic_guard(self, monkeypatch):
        # k_m r_m = beta = 1.2: past a raised long-wavelength guard, the
        # relativistic one refuses it
        monkeypatch.setattr(cp, "KM_RM_GUARD", 1.3)
        with pytest.raises(ConfigError, match="non-relativistic"):
            cp.CouplingProfile(
                kind=cp.CouplingKind.OSCILLATING_1D, omega_e=OMEGA_E,
                chi_scale=0.0, r_m=0.04, omega_m=30.0,
            )

    def test_geometry_mismatch(self):
        prof = osc3d()
        g1 = modes.build_waveguide_grid(2, 1.0, 2 * np.pi, 1.0)
        with pytest.raises(ConfigError):
            cp.grid_fourier(prof, g1)


class TestEvalG:
    def test_static_time_independent(self, small_waveguide):
        prof = static_1d_profile(small_waveguide)
        vals = {complex(g_at(prof, small_waveguide, t)[0]) for t in (0.0, 1.3, 97.2)}
        assert len(vals) == 1

    def test_zero_amplitude_reduces_to_static(self):
        prof = osc3d(r_m=0.0)
        m = node_grid_3d(0.7, [1, 0, 0], [0, 0, 1])
        g = g_at(prof, m, 2.1)[0]
        assert g == pytest.approx(chi(prof, 0.7) * 1.0)

    def test_periodicity(self):
        prof = osc3d(r_m=0.5, omega_m=0.13)
        m = node_grid_3d(0.4, [0.6, 0.0, 0.8], [0, 1, 0])
        T = 2 * np.pi / prof.omega_m
        for t in (0.3, 5.1):
            assert abs(g_at(prof, m, t)[0] - g_at(prof, m, t + T)[0]) < 1e-12


class TestEtaComponents3D:
    def test_orthogonal_dipole(self):
        # dhat perpendicular to eps and khat.rhat_m = 0: the carrier vanishes
        # and only the magnetic sideband survives, with opposite signs
        prof = osc3d(dhat=[0, 0, 1], rhat=[0, 1, 0])
        eta0, eta_plus, eta_minus = eta3d(prof, node_grid_3d(0.5, [0.6, 0, 0.8], [0, 1, 0]))
        pref = chi(prof, 0.5) / (1 + 0.5 / OMEGA_E)
        # bracket = (rhat.eps)(dhat.khat) - (rhat.khat)(dhat.eps) = 0.8
        assert eta0 == pytest.approx(0.0, abs=1e-15)
        assert eta_plus == pytest.approx(pref * 0.8, rel=1e-12)
        assert eta_minus == pytest.approx(-pref * 0.8, rel=1e-12)

    def test_general_geometry(self):
        prof = osc3d(dhat=[0, 0, 1], rhat=[0, 1, 0])
        m = node_grid_3d(0.5, [0, 0.6, 0.8], [0, 0.8, -0.6])
        eta0, eta_plus, eta_minus = eta3d(prof, m)
        pref = chi(prof, 0.5) / (1 + 0.5 / OMEGA_E)
        d_eps = -0.6
        dop = (0.5 / prof.omega_m) * 0.6 * d_eps
        mag = 0.8 * 0.8 - 0.6 * d_eps
        assert eta0 == pytest.approx(pref * 2.0 * d_eps, rel=1e-12)
        assert eta_plus == pytest.approx(pref * (dop + mag), rel=1e-12)
        assert eta_minus == pytest.approx(pref * (dop - mag), rel=1e-12)

    def test_k_parallel_motion(self):
        # k along the motion axis, dipole along the polarization: the
        # Doppler-like term (k/k_m) and the full magnetic bracket -(dhat.eps)
        prof = osc3d(dhat=[1, 0, 0], rhat=[0, 0, 1])
        _, eta_plus, eta_minus = eta3d(prof, node_grid_3d(0.5, [0, 0, 1], [1, 0, 0]))
        pref = chi(prof, 0.5) / (1 + 0.5 / OMEGA_E)
        k_over_km = 0.5 / prof.omega_m
        assert eta_plus == pytest.approx(pref * (k_over_km - 1.0), rel=1e-12)
        assert eta_minus == pytest.approx(pref * (k_over_km + 1.0), rel=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-1, 1), min_size=9, max_size=9),
           st.floats(0.05, 1.5))
    def test_sum_rule(self, raw, omega):
        # eta+ - eta- = 2 pref * rhat.[eps (dhat.khat) - khat (dhat.eps)]
        v = np.array(raw).reshape(3, 3) + np.array(
            [[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]]) * 1.5
        dhat, rhat, kdir = v
        if min(np.linalg.norm(x) for x in (dhat, rhat, kdir)) < 1e-3:
            return
        kdir = kdir / np.linalg.norm(kdir)
        eps = np.cross(kdir, dhat)
        if np.linalg.norm(eps) < 1e-6:
            eps = np.cross(kdir, rhat)
        if np.linalg.norm(eps) < 1e-6:
            return
        eps = eps / np.linalg.norm(eps)
        prof = osc3d(dhat=dhat, rhat=rhat)
        c = eta3d(prof, node_grid_3d(omega, kdir, eps))
        dhat_u = dhat / np.linalg.norm(dhat)
        rhat_u = rhat / np.linalg.norm(rhat)
        pref = chi(prof, omega) / (1 + omega / OMEGA_E)
        bracket = (rhat_u @ eps) * (dhat_u @ kdir) - (rhat_u @ kdir) * (dhat_u @ eps)
        assert c[1] - c[2] == pytest.approx(2 * pref * bracket, abs=1e-12)
        # all components real by construction
        for x in c:
            assert isinstance(x, float)


class TestEtaWaveguide:
    @staticmethod
    def eta(grid, d, A, L, omega_e):
        prof = cp.CouplingProfile(kind=cp.CouplingKind.WAVEGUIDE_1D, omega_e=omega_e,
                                  chi_scale=d / np.sqrt(2.0 * A * L))
        return sc.eta_array(grid, prof)

    def test_resonance_value(self):
        g = modes.build_waveguide_grid(2, 1.0, 2 * np.pi, 1.0)
        assert g.omega[0] == pytest.approx(1.0)
        val = self.eta(g, d=0.2, A=1.0, L=g.geometry.length, omega_e=1.0)[0]
        assert val == pytest.approx(np.sqrt(1.0 / (2 * g.geometry.length)) * 0.2)

    def test_low_frequency_scaling(self):
        g = modes.build_waveguide_grid(200, 1.0, 200 * np.pi, 1.0)
        lo = g.omega[0]
        assert self.eta(g, 0.2, 1.0, g.geometry.length, 1.0)[0] \
            == pytest.approx(2.0 * np.sqrt(lo / (2 * g.geometry.length)) * 0.2,
                             rel=0.01)

    def test_frequency_ratio(self):
        g = modes.build_waveguide_grid(6, 3.0, 6 * np.pi, 1.0)
        i1 = next(i for i in range(6) if abs(g.omega[i] - 1.0) < 1e-9)
        i3 = next(i for i in range(6) if abs(g.omega[i] - 3.0) < 1e-9)
        eta = self.eta(g, 1.0, 1.0, 1.0, 1.0)
        assert eta[i3] / eta[i1] == pytest.approx(0.5 * np.sqrt(3.0))


class TestEtaOfT:
    def test_t_zero(self):
        prof = osc3d(dhat=[1, 0, 0], rhat=[0, 0, 1], r_m=0.5, omega_m=0.1)
        m = node_grid_3d(0.5, [0, 0, 1], [1, 0, 0])
        eta0, eta_plus, eta_minus = eta3d(prof, m)
        km_rm = prof.k_m * prof.r_m
        expected = eta0 + 1j * km_rm * (eta_plus + eta_minus)
        assert eta_at(prof, m, 0.0)[0] == pytest.approx(expected)

    def test_period_average_is_carrier(self):
        prof = osc3d(dhat=[1, 0, 0], rhat=[0, 0, 1], r_m=0.5, omega_m=0.1)
        m = node_grid_3d(0.5, [0, 0.6, 0.8], [0, 0.8, -0.6])
        T = 2 * np.pi / prof.omega_m
        ts = np.linspace(0, T, 257)[:-1]
        avg = np.mean([eta_at(prof, m, t)[0] for t in ts])
        assert avg == pytest.approx(eta3d(prof, m)[0], abs=1e-12)

    def test_triangle_bound(self):
        prof = osc3d(dhat=[1, 0, 0], rhat=[0, 0, 1], r_m=0.5, omega_m=0.1)
        m = node_grid_3d(0.5, [0, 0.6, 0.8], [0, 0.8, -0.6])
        eta0, eta_plus, eta_minus = eta3d(prof, m)
        km_rm = prof.k_m * prof.r_m
        bound = abs(eta0) + km_rm * (abs(eta_plus) + abs(eta_minus))
        for t in np.linspace(0, 50, 23):
            assert abs(eta_at(prof, m, t)[0]) <= bound + 1e-14

    def test_matches_adiabatic_displacement(self, small_waveguide):
        # eta(t) = 2 omega_e g(t) / (omega + omega_e), the adiabatic
        # displacement of the rates, across kinds, modes and times
        profiles = [
            static_1d_profile(small_waveguide),
            oscillating_1d_profile(small_waveguide, omega_m=0.05),
        ]
        for prof in profiles:
            for t in (0.0, 2.2, 31.4):
                lhs = eta_at(prof, small_waveguide, t)
                rhs = (2.0 * OMEGA_E * g_at(prof, small_waveguide, t)
                       / (small_waveguide.omega + OMEGA_E))
                assert np.all(np.abs(lhs - rhs)
                              <= 1e-12 * np.maximum(np.abs(lhs), 1e-30))

    def test_matches_adiabatic_displacement_3d(self):
        prof = osc3d(dhat=[1, 0, 0], rhat=[0, 0, 1], r_m=0.5, omega_m=0.1)
        m = node_grid_3d(0.5, [0, 0.6, 0.8], [0, 0.8, -0.6])
        for t in (0.0, 3.3, 17.9):
            lhs = eta_at(prof, m, t)[0]
            rhs = 2.0 * OMEGA_E * g_at(prof, m, t)[0] / (m.omega[0] + OMEGA_E)
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1e-30)


class TestFourierComponents:
    def test_reconstruction(self):
        prof = osc3d(dhat=[0.2, 0.5, 0.9], rhat=[0.1, -0.7, 0.4],
                     r_m=0.4, omega_m=0.2)
        khat = np.array([0.3, -0.4, 0.86]) / np.linalg.norm([0.3, -0.4, 0.86])
        m = node_grid_3d(0.6, khat, np.cross(khat, [0.8, 0.6, 0.0]))
        g0, gp, gm = cp.grid_fourier(prof, m)[:, 0]
        for t in (0.0, 1.1, 4.4):
            direct = g_at(prof, m, t)[0]
            rebuilt = g0 + gp * np.exp(1j * prof.omega_m * t) \
                + gm * np.exp(-1j * prof.omega_m * t)
            assert abs(direct - rebuilt) < 1e-14

    def test_static_has_no_sidebands(self, small_waveguide):
        prof = static_1d_profile(small_waveguide)
        g0, gp, gm = cp.grid_fourier(prof, small_waveguide)[:, 0]
        assert gp == 0 and gm == 0
