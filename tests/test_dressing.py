import numpy as np
import pytest
from scipy.special import wofz

from vacuum_shake import coupling as cp
from vacuum_shake import dressing as dr
from vacuum_shake import modes
from vacuum_shake.errors import ConfigError

from conftest import OMEGA_E, oscillating_1d_profile, static_1d_profile


def ramp_xi(g0, T, w, t):
    """xi(t) = -i int_0^t g(tau) e^{i w (t - tau)} dtau for the ramp
    g(tau) = g0 (1 - e^{-(tau/T)^2}) with xi(0) = 0, in closed form.

    The Gaussian part is (sqrt(pi) T/2) e^{-a^2} [erf(t/T + i a) - erf(i a)]
    with a = w T/2.  It is written with the Faddeeva function
    w(z) = e^{-z^2} erfc(-i z), because e^{-a^2} and erf(i a) alone under-
    and overflow once a exceeds about 27 (here a reaches 125).
    """
    a, x = 0.5 * w * T, t / T
    step = (1.0 - np.exp(-1j * w * t)) / (1j * w)
    gauss = 0.5 * np.sqrt(np.pi) * T * (
        wofz(-a) - np.exp(-x * x - 1j * w * t) * wofz(-a + 1j * x))
    return -1j * g0 * np.exp(1j * w * t) * (step - gauss)


def elimination_residual(frame, t):
    """Residual of the counter-rotating elimination condition over all modes,
    (-omega_e - omega_k) xi + g - i d(xi)/dt.

    Zero to rounding for the Floquet xi; for adiabatic xi it measures the
    neglected -i d(xi)/dt term.
    """
    return ((-frame.omega_e - frame.grid.omega) * frame.xi_all(t)
            + frame.g_all(t) - 1j * frame.xi_dot_all(t))


@pytest.fixture(scope="module")
def static_frame(small_waveguide):
    return dr.DressedFrame(small_waveguide, static_1d_profile(small_waveguide))


@pytest.fixture(scope="module")
def driven_frame(small_waveguide):
    prof = oscillating_1d_profile(small_waveguide, omega_m=0.05)
    return dr.DressedFrame(small_waveguide, prof)


class TestXiAdiabatic:
    def test_arithmetic(self):
        grid = modes.build_waveguide_grid(2, 1.0, 2 * np.pi, 1.0)
        # chi(omega_e) = 0.01 -> xi = 0.01 / 2
        prof = cp.CouplingProfile(kind=cp.CouplingKind.WAVEGUIDE_1D,
                                  omega_e=1.0, chi_scale=0.01, c=grid.c)
        frame = dr.DressedFrame(grid, prof)
        assert frame.xi_all(0.0)[0] == pytest.approx(0.005)

    def test_zero_coupling(self, small_waveguide):
        prof = static_1d_profile(small_waveguide, gamma=0.0)
        frame = dr.DressedFrame(small_waveguide, prof)
        assert frame.xi_all(3.0)[1] == 0.0

    def test_constant_in_time(self, static_frame):
        vals = {complex(static_frame.xi_all(t)[0]) for t in (0.0, 5.0, 50.0)}
        assert len(vals) == 1


class TestXiExact:
    def test_constant_coupling_fixed_point(self, small_waveguide, static_frame):
        # a static coupling has no drive harmonics: the Floquet xi is the
        # adiabatic fixed point at every t
        frame = dr.DressedFrame(small_waveguide,
                                static_1d_profile(small_waveguide),
                                xi_mode="floquet")
        for t in (0.7, 4.0, 12.0):
            assert frame.xi_all(t)[0] == pytest.approx(static_frame.xi_all(0.0)[0],
                                                       abs=1e-12)

    def test_ramp_reference_matches_gauss_legendre(self):
        # ramp_xi against a composite Gauss-Legendre rule, whose panel
        # refinement shows its own error
        w = modes.build_waveguide_grid(2, 1.5, 2 * np.pi, 1.0).omega[0] + OMEGA_E
        nodes, weights = np.polynomial.legendre.leggauss(16)

        def gauss_legendre(g0, T, t, width):
            edges = np.linspace(0.0, t, int(np.ceil(t / width)) + 1)
            half = 0.5 * np.diff(edges)
            tau = (edges[:-1] + half)[:, None] + half[:, None] * nodes
            f = g0 * (1.0 - np.exp(-((tau / T) ** 2))) * np.exp(1j * w * (t - tau))
            return -1j * np.sum(half[:, None] * weights * f)

        for T in (25.0, 100.0):
            for t in (0.3 * T, T, 2.5 * T):
                fine = gauss_legendre(0.02, T, t, 0.5)
                assert abs(gauss_legendre(0.02, T, t, 1.0) - fine) <= 1e-13 * abs(fine)
                assert abs(ramp_xi(0.02, T, w, t) - fine) <= 1e-13 * abs(fine)

    def test_slow_ramp_tracks_adiabatic(self):
        # Gaussian-shouldered ramp over 100/omega_e: exact solution stays
        # within 2% of the instantaneous-following value
        grid = modes.build_waveguide_grid(2, 1.5, 2 * np.pi, 1.0)
        T = 100.0
        w = grid.omega[0] + OMEGA_E
        g0 = 0.02

        errs, scales = [], []
        for t in np.linspace(20.0, 250.0, 12):
            exact = ramp_xi(g0, T, w, t)  # xi(0) = g(0)/w = 0
            adiab = g0 * (1.0 - np.exp(-((t / T) ** 2))) / w
            errs.append(abs(exact - adiab))
            scales.append(abs(adiab))
        assert max(errs) <= 0.02 * max(scales)

    def test_convergence_with_drive_timescale(self):
        # doubling the ramp time monotonically shrinks exact-vs-adiabatic error
        grid = modes.build_waveguide_grid(2, 1.5, 2 * np.pi, 1.0)
        w = grid.omega[0] + OMEGA_E

        def max_err(T):
            worst = 0.0
            for t in np.linspace(0.3 * T, 2.5 * T, 7):
                adiab = 0.03 * (1.0 - np.exp(-((t / T) ** 2))) / w
                worst = max(worst, abs(ramp_xi(0.03, T, w, t) - adiab))
            return worst

        errs = [max_err(T) for T in (25.0, 50.0, 100.0)]
        assert errs[0] > errs[1] > errs[2]


class TestXiExactClosedForm:
    @pytest.mark.parametrize("omega_m", [0.05, 0.9])
    def test_matches_memory_integral(self, small_waveguide, omega_m):
        # the Floquet xi solves the elimination condition from its own
        # initial value, so the memory integral started there reproduces it
        from scipy.integrate import quad

        prof = oscillating_1d_profile(small_waveguide, omega_m=omega_m,
                                      km_rm=0.1)
        n = small_waveguide.n_modes
        frame = dr.DressedFrame(small_waveguide, prof, xi_mode="floquet")
        xi0 = frame.xi_all(0.0)
        for i in range(n):
            omega = small_waveguide.omega[i]
            w = omega + OMEGA_E
            k_rm = small_waveguide.wavevectors[i, 0] * prof.r_m

            def g(t):  # long-wavelength coupling chi (1 + i k x_A(t))
                return prof.chi(omega) * (1.0 + 1j * k_rm * np.cos(omega_m * t))

            for t in (0.7, 13.1):
                val, _ = quad(lambda tp: g(tp) * np.exp(1j * w * (t - tp)),
                              0.0, t, complex_func=True, epsabs=1e-14,
                              epsrel=1e-11, limit=800)
                ref = xi0[i] * np.exp(1j * w * t) - 1j * val
                assert abs(frame.xi_all(t)[i] - ref) <= 1e-12 * abs(ref)
                res = elimination_residual(frame, t)[i]
                assert abs(res) <= 1e-14

    @pytest.mark.parametrize("xi_mode", ["floquet"])
    def test_counter_rotating_resonance_rejected(self, small_waveguide, xi_mode):
        # omega_k + omega_e = 1 + 1 = omega_m for the two omega = 1 modes
        prof = oscillating_1d_profile(small_waveguide, omega_m=2.0)
        with pytest.raises(ConfigError, match="resonant"):
            dr.DressedFrame(small_waveguide, prof, xi_mode=xi_mode)


class TestCounterRotatingResidual:
    def test_exact_xi_solves_the_condition(self, small_waveguide):
        prof = oscillating_1d_profile(small_waveguide, omega_m=0.05)
        frame = dr.DressedFrame(small_waveguide, prof, xi_mode="floquet")
        rng = np.random.default_rng(7)
        for _ in range(6):
            i = int(rng.integers(0, small_waveguide.n_modes))
            t = float(rng.uniform(0.5, 15.0))
            res = elimination_residual(frame, t)[i]
            assert abs(res) <= 1e-9 * abs(frame.g_all(t)[i])

    def test_adiabatic_static_is_exact(self, static_frame):
        res = elimination_residual(static_frame, 1.3)[2]
        assert res == 0.0

    def test_adiabatic_slow_drive_bound(self, small_waveguide):
        # residual of the adiabatic frame is -i d(xi)/dt, of order
        # (relative drive rate) x omega_m / (omega_k + omega_e)
        wm = 0.01
        prof = oscillating_1d_profile(small_waveguide, omega_m=wm, km_rm=0.1)
        frame = dr.DressedFrame(small_waveguide, prof)
        for i in (0, 3):
            k_rm = abs(small_waveguide.wavevectors[i, 0]) * prof.r_m
            worst = max(
                abs(elimination_residual(frame, t)[i])
                / abs(frame.g_all(t)[i])
                for t in np.linspace(0.0, 2 * np.pi / wm, 9)
            )
            bound = 1.2 * k_rm * wm / (small_waveguide.omega[i] + OMEGA_E)
            assert worst <= bound

    def test_floquet_solves_fast_drive(self, small_waveguide):
        # the periodic steady-state displacement eliminates the condition
        # even when the drive is not slow
        prof = oscillating_1d_profile(small_waveguide, omega_m=0.9)
        frame = dr.DressedFrame(small_waveguide, prof, xi_mode="floquet")
        for i, t in ((0, 3.1), (3, 11.7)):
            res = elimination_residual(frame, t)[i]
            assert abs(res) < 1e-14


class TestLambdaMatrix:
    def test_arithmetic(self):
        grid = modes.build_waveguide_grid(2, 1.0, 2 * np.pi, 1.0)
        prof = cp.CouplingProfile(kind=cp.CouplingKind.WAVEGUIDE_1D,
                                  omega_e=1.0, chi_scale=0.01, c=grid.c)
        frame = dr.DressedFrame(grid, prof)
        # eta = 2*1*chi/(1+1) = chi = 0.01... scale chi so eta = 0.02
        prof2 = cp.CouplingProfile(kind=cp.CouplingKind.WAVEGUIDE_1D,
                                   omega_e=1.0, chi_scale=0.02, c=grid.c)
        frame2 = dr.DressedFrame(grid, prof2)
        lam = dr.lambda_matrix(frame2, 0.0)
        assert lam[0, 1] == pytest.approx(1e-4)

    def test_symmetry_exact(self, driven_frame):
        lam = dr.lambda_matrix(driven_frame, 3.7)
        assert np.array_equal(lam, lam.T)

    def test_rank_one(self, driven_frame):
        lam = dr.lambda_matrix(driven_frame, 1.1)
        s = np.linalg.svd(lam, compute_uv=False)
        assert s[1] < 1e-12 * s[0]


class TestGroundStatePairs:
    def test_two_mode_arithmetic(self):
        grid = modes.build_waveguide_grid(2, 1.0, 2 * np.pi, 1.0)
        prof = cp.CouplingProfile(kind=cp.CouplingKind.WAVEGUIDE_1D,
                                  omega_e=1.0, chi_scale=0.02, c=grid.c)
        frame = dr.DressedFrame(grid, prof)
        pairs = dr.ground_state_pairs(frame)
        # eta = 0.02 both modes, omega = 1: bare pair amplitude
        # Lambda/(omega+omega') = 1e-4 / 2 = 5e-5
        idx = {(int(a), int(b)): amp for a, b, amp in
               zip(*np.triu_indices(grid.n_modes), pairs)}
        # off-diagonal entry carries twice the bare value in the orthonormal basis
        assert idx[(0, 1)] == pytest.approx(2 * 5e-5)
        assert idx[(0, 1)] / 2 == pytest.approx(5e-5)
        # diagonal entry: sqrt(2) * Lambda/(2 omega)
        assert idx[(0, 0)] == pytest.approx(np.sqrt(2) * 1e-4 / 2)

    def test_zero_dipole_empty(self, small_waveguide):
        prof = static_1d_profile(small_waveguide, gamma=0.0)
        frame = dr.DressedFrame(small_waveguide, prof)
        assert np.all(dr.ground_state_pairs(frame) == 0.0)

    def test_norm_deficit_small(self, small_waveguide):
        # scale the coupling so sum |xi|^2 = 1e-3; the two-photon weight is
        # then of order 1e-6
        prof = static_1d_profile(small_waveguide)
        frame = dr.DressedFrame(small_waveguide, prof)
        s = frame.check_smallness(0.0)
        scale = np.sqrt(1e-3 / s)
        prof2 = cp.CouplingProfile(kind=cp.CouplingKind.WAVEGUIDE_1D,
                                   omega_e=OMEGA_E,
                                   chi_scale=prof.chi_scale * scale,
                                   c=small_waveguide.c)
        frame2 = dr.DressedFrame(small_waveguide, prof2)
        assert frame2.check_smallness(0.0) == pytest.approx(1e-3, rel=1e-9)
        w = np.sum(np.abs(dr.ground_state_pairs(frame2)) ** 2)
        assert w < 1e-5
        assert w > 1e-8

    def test_smallness_warning(self, small_waveguide):
        prof = cp.CouplingProfile(kind=cp.CouplingKind.WAVEGUIDE_1D,
                                  omega_e=OMEGA_E, chi_scale=0.5,
                                  c=small_waveguide.c)
        frame = dr.DressedFrame(small_waveguide, prof)
        with pytest.warns(UserWarning, match="smallness"):
            frame.check_smallness(0.0)


class TestPhaseE:
    def test_static_closed_form(self, static_frame, small_waveguide):
        g = static_frame.g_all(0.0)
        w = small_waveguide.omega
        expected = np.sum(-2 * np.abs(g) ** 2 / (w + OMEGA_E)
                          + w * np.abs(g) ** 2 / (w + OMEGA_E) ** 2)
        val = dr.phase_E(static_frame, 0.0)
        assert val == pytest.approx(float(expected.real), rel=1e-12)
        assert val < 0.0

    def test_zero_xi(self, small_waveguide):
        prof = static_1d_profile(small_waveguide, gamma=0.0)
        frame = dr.DressedFrame(small_waveguide, prof)
        assert dr.phase_E(frame, 0.0) == 0.0

    def test_real_under_drive(self, small_waveguide):
        prof = oscillating_1d_profile(small_waveguide, omega_m=0.3)
        frame = dr.DressedFrame(small_waveguide, prof, xi_mode="floquet")
        for t in (0.0, 1.7, 9.2):
            val = dr.phase_E(frame, t)
            assert isinstance(val, float)


class TestEtaIdentity:
    def test_eta_equals_2_omega_e_xi(self, driven_frame, small_waveguide):
        for i in range(small_waveguide.n_modes):
            for t in (0.0, 4.4):
                lhs = driven_frame.eta_all(t)[i]
                rhs = 2.0 * OMEGA_E * driven_frame.xi_all(t)[i]
                assert abs(lhs - rhs) <= 1e-14 * max(abs(lhs), 1e-30)

    def test_floquet_reduces_to_adiabatic_for_slow_drive(self, small_waveguide):
        wm = 1e-3
        prof = oscillating_1d_profile(small_waveguide, omega_m=wm)
        fa = dr.DressedFrame(small_waveguide, prof)
        ff = dr.DressedFrame(small_waveguide, prof, xi_mode="floquet")
        for t in (0.0, 700.0):
            a, f = fa.xi_all(t), ff.xi_all(t)
            assert np.max(np.abs(a - f)) <= 2e-3 * np.max(np.abs(a))

