import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from vacuum_shake import coupling as cp
from vacuum_shake import dressing as dr
from vacuum_shake import fock as fk
from vacuum_shake import modes
from vacuum_shake.errors import CapacityError, ConfigError

from conftest import OMEGA_E, oscillating_1d_profile, static_1d_profile


def frame_with_xi(grid, xi_target, xi_mode="adiabatic"):
    """Static waveguide frame whose per-mode displacement is xi_target."""
    w = grid.omega[0]
    chi_scale = xi_target * (w + OMEGA_E) / np.sqrt(w)
    prof = cp.CouplingProfile(kind=cp.CouplingKind.WAVEGUIDE_1D,
                              omega_e=OMEGA_E, chi_scale=chi_scale, c=grid.c)
    return dr.DressedFrame(grid, prof, xi_mode=xi_mode)


class TestBasis:
    def test_one_mode_enumeration(self):
        b = fk.enumerate_basis(1, 1)
        assert [b.state_label(i) for i in range(4)] == [
            (0, (0,)), (1, (0,)), (0, (1,)), (1, (1,))]
        with pytest.raises(KeyError):
            b.index(2, (0,))  # would be (0, (1,)) if the level were not checked

    def test_dimensions(self):
        assert fk.enumerate_basis(2, 2).dimension == 12
        assert fk.enumerate_basis(3, 3).dimension == 40

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            fk.enumerate_basis(2000, 3)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 3), st.data())
    def test_index_round_trip(self, n_modes, n_max, data):
        b = fk.enumerate_basis(n_modes, n_max)
        i = data.draw(st.integers(0, b.dimension - 1))
        atom, occ = b.state_label(i)
        assert b.index(atom, occ) == i

    def test_enumeration_is_number_major(self):
        b = fk.enumerate_basis(2, 2)
        totals = b.total_photons
        assert np.all(np.diff(totals) >= 0)


class TestTensorAlgebra:
    """Operators on (3 modes, n_max 3) x (atom) obey the algebra of bosons
    times a two-level atom."""

    @pytest.fixture
    def b(self):
        return fk.enumerate_basis(3, 3)

    def test_canonical_commutator_below_top_shell(self, b):
        below = np.ix_(b.total_photons < b.n_max, b.total_photons < b.n_max)
        for j in range(3):
            for k in range(3):
                a, adag = b.annihilator(j).toarray(), b.creator(k).toarray()
                comm = (a @ adag - adag @ a)[below]
                assert np.allclose(comm, np.eye(len(comm)) * (j == k),
                                   rtol=0, atol=1e-14)

    def test_modes_commute_with_atom_operators(self, b):
        for k in range(3):
            a = b.annihilator(k)
            for s in (b.sigma_x, b.sigma_plus, b.sigma_minus):
                assert abs(a @ s - s @ a).max() == 0.0

    def test_sigma_x_is_sum_of_ladder_operators(self, b):
        assert abs(b.sigma_x - b.sigma_plus - b.sigma_minus).max() == 0.0

    def test_raising_then_lowering_projects_on_excited(self, b):
        P = (b.sigma_plus @ b.sigma_minus).toarray()
        assert np.array_equal(P, np.diag((b.atom == fk.EXCITED).astype(float)))

    def test_mode_sum_is_weighted_sum_of_annihilators(self, b):
        c = np.array([0.3 - 0.1j, -1.2, 0.5j])
        ref = sum(c[k] * b.annihilator(k) for k in range(3))
        assert abs(b.mode_sum(c) - ref).max() <= 1e-15


class TestOriginalHamiltonian:
    def test_free_hamiltonian_diagonal(self, small_waveguide):
        prof = static_1d_profile(small_waveguide, gamma=0.0)
        b = fk.enumerate_basis(4, 2)
        H = fk.build_original_hamiltonian(b, small_waveguide, prof, 0.0)
        M = H.toarray()
        assert np.count_nonzero(M - np.diag(np.diag(M))) == 0
        expected = 0.5 * OMEGA_E * b.sigma_z_diagonal() \
            + b.mode_number_diagonal(small_waveguide.omega)
        assert np.allclose(np.diag(M).real, expected)

    def test_coupling_elements_including_counter_rotating(self):
        grid = modes.build_waveguide_grid(1, 1.0, 2 * np.pi, 1.0,
                                          directions="positive")
        prof = static_1d_profile(grid)
        b = fk.enumerate_basis(1, 1)
        H = fk.build_original_hamiltonian(b, grid, prof, 0.0).toarray()
        g = (cp.harmonic_phases(prof.omega_m, 0.0) @ cp.grid_fourier(prof, grid))[0]
        ie0 = b.index(fk.EXCITED, (0,))
        ig1 = b.index(fk.GROUND, (1,))
        ie1 = b.index(fk.EXCITED, (1,))
        ig0 = b.index(fk.GROUND, (0,))
        assert H[ie0, ig1] == pytest.approx(g)            # co-rotating
        assert H[ie1, ig0] == pytest.approx(np.conj(g))   # counter-rotating
        assert abs(H[ie1, ig0]) > 0

    @pytest.mark.parametrize("kind", ["static", "oscillating"])
    def test_matches_per_mode_sum(self, small_waveguide, kind):
        # H(t) from the harmonic operators against the per-mode sum
        # sum_k (g_k(t) a_k + h.c.) sigma_x with g_k(t) = chi (1 + i k x_A(t))
        if kind == "static":
            prof = static_1d_profile(small_waveguide, gamma=1e-2)
        else:
            prof = oscillating_1d_profile(small_waveguide, omega_m=0.3,
                                          km_rm=0.1, gamma=1e-2)
        b = fk.enumerate_basis(4, 2)
        H_of_t = fk.original_hamiltonian_series(b, small_waveguide, prof)
        sx = b.sigma_x.toarray()
        rng = np.random.default_rng(4)
        for t in rng.uniform(0.0, 40.0, size=5):
            ref = np.diag(0.5 * OMEGA_E * b.sigma_z_diagonal()
                          + b.mode_number_diagonal(small_waveguide.omega))
            ref = ref.astype(complex)
            for k in range(4):
                x_a = prof.r_m * np.cos(prof.omega_m * t)
                g = prof.chi(small_waveguide.omega[k]) \
                    * (1.0 + 1j * small_waveguide.wavevectors[k, 0] * x_a)
                a = b.annihilator(k).toarray()
                ref += (g * a + np.conj(g) * a.conj().T) @ sx
            scale = np.max(np.abs(ref - np.diag(np.diag(ref))))
            built = fk.build_original_hamiltonian(b, small_waveguide, prof, t)
            for M in (built.toarray(), H_of_t(t).toarray()):
                assert np.max(np.abs(M - ref)) <= 1e-14 * scale

    @pytest.mark.parametrize("n_max", [2, 4])
    @pytest.mark.parametrize("kind", ["static", "oscillating", "oscillating_3d"])
    def test_applied_series_matches_formed(self, small_waveguide, kind, n_max):
        # diag * y + the applied off-diagonal part against H(t) @ y
        grid = small_waveguide
        if kind == "static":
            prof = static_1d_profile(grid, gamma=1e-2)
        elif kind == "oscillating":
            prof = oscillating_1d_profile(grid, omega_m=0.3, km_rm=0.1,
                                          gamma=1e-2)
        else:
            # the magnetic term makes g+ != g-, which 1D motion never does
            grid = modes.build_freespace_quadrature(1, 2, 1, 2.0,
                                                    V=(2 * np.pi) ** 3)
            prof = cp.CouplingProfile.oscillating_3d(
                OMEGA_E, [0, 0, 1], [np.sin(1.0), 0.0, np.cos(1.0)],
                r_m=0.1 / 0.3, omega_m=0.3, gamma=1e-2, V=(2 * np.pi) ** 3)
        b = fk.enumerate_basis(grid.n_modes, n_max)
        H = fk.original_hamiltonian_series(b, grid, prof)
        rng = np.random.default_rng(n_max)
        for t in rng.uniform(0.0, 40.0, size=5):
            y = rng.normal(size=b.dimension) + 1j * rng.normal(size=b.dimension)
            ref = H(t) @ y
            applied = H.diag * y + H.apply_offdiagonal(t, y)
            assert np.linalg.norm(applied - ref) <= 1e-14 * np.linalg.norm(ref)

    def test_hermiticity_random_profiles(self, small_waveguide):
        rng = np.random.default_rng(3)
        b = fk.enumerate_basis(4, 2)
        for _ in range(4):
            wm = float(rng.uniform(0.05, 0.4))
            prof = oscillating_1d_profile(small_waveguide, omega_m=wm,
                                          gamma=float(rng.uniform(1e-4, 1e-2)))
            H = fk.build_original_hamiltonian(
                b, small_waveguide, prof, float(rng.uniform(0, 20)))
            assert abs(H - H.conj().T).max() <= 1e-13


class TestTransformedHamiltonian:
    def test_counter_rotating_block_vanishes_with_exact_xi(self, small_waveguide):
        prof = oscillating_1d_profile(small_waveguide, omega_m=0.4)
        frame = dr.DressedFrame(small_waveguide, prof, xi_mode="floquet")
        b = fk.enumerate_basis(4, 2)
        H = fk.build_transformed_hamiltonian(b, frame, 2.3, "FullOrder2").toarray()
        # <e,1_k|H'|g,0>: counter-rotating single-photon element
        ig0 = b.index(fk.GROUND, (0, 0, 0, 0))
        for k in range(4):
            occ = [0] * 4
            occ[k] = 1
            assert abs(H[b.index(fk.EXCITED, tuple(occ)), ig0]) < 1e-10

    def test_counter_rotating_block_present_with_adiabatic_xi(self, small_waveguide):
        prof = oscillating_1d_profile(small_waveguide, omega_m=0.4)
        frame = dr.DressedFrame(small_waveguide, prof)  # adiabatic
        b = fk.enumerate_basis(4, 2)
        H = fk.build_transformed_hamiltonian(b, frame, 2.3, "FullOrder2").toarray()
        ig0 = b.index(fk.GROUND, (0, 0, 0, 0))
        vals = [abs(H[b.index(fk.EXCITED, tuple(np.eye(4, dtype=int)[k])), ig0])
                for k in range(4)]
        assert max(vals) > 1e-10  # -i d(xi)/dt residue survives

    def test_pair_kernel_matrix_element(self, small_waveguide):
        frame = frame_with_xi(small_waveguide, 0.02)
        b = fk.enumerate_basis(4, 2)
        H = fk.build_transformed_hamiltonian(b, frame, 0.0, "NormalOrdered")
        M = H.toarray()
        eta = frame.eta_all(0.0)
        ig0 = b.index(fk.GROUND, (0, 0, 0, 0))
        # distinct pair: <g;1_0 1_1|sigma_z Gamma|g;0> = -2 eta0* eta1*/(4 we)
        ipair = b.index(fk.GROUND, (1, 1, 0, 0))
        assert M[ipair, ig0] == pytest.approx(
            -2 * np.conj(eta[0]) * np.conj(eta[1]) / (4 * OMEGA_E))
        # same-mode pair: sqrt(2) bosonic factor
        idiag = b.index(fk.GROUND, (2, 0, 0, 0))
        assert M[idiag, ig0] == pytest.approx(
            -np.sqrt(2) * np.conj(eta[0]) ** 2 / (4 * OMEGA_E))

    def test_h0h1_is_excitation_conserving(self, small_waveguide):
        frame = frame_with_xi(small_waveguide, 0.02)
        b = fk.enumerate_basis(4, 2)
        H = fk.build_transformed_hamiltonian(b, frame, 0.0, "H0H1only").toarray()
        n_exc = b.excitation_number_diagonal()
        rows, cols = np.nonzero(np.abs(H) > 1e-15)
        assert np.all(n_exc[rows] == n_exc[cols])
        # |e,0> couples exactly to the single-photon ground manifold
        ie0 = b.index(fk.EXCITED, (0, 0, 0, 0))
        coupled = [b.state_label(r) for r in rows[cols == ie0] if r != ie0]
        assert all(atom == fk.GROUND and sum(occ) == 1 for atom, occ in coupled)

    def test_spectral_match_at_small_xi(self):
        # single mode: dressed-frame eigenvalues approach the lab-frame ones
        # quadratically in xi
        grid = modes.build_waveguide_grid(1, 1.4, 2 * np.pi, 1.0,
                                          directions="positive")
        b = fk.enumerate_basis(1, 30)
        for xi in (2e-3, 1e-3):
            frame = frame_with_xi(grid, xi)
            prof = frame.profile
            H = fk.build_original_hamiltonian(b, grid, prof, 0.0).toarray()
            Hp = fk.build_transformed_hamiltonian(b, frame, 0.0,
                                                  "NormalOrdered").toarray()
            e1 = np.sort(np.linalg.eigvalsh(H))
            e2 = np.sort(np.linalg.eigvalsh(Hp))
            spread = e1[-1] - e1[0]
            # compare away from the truncation boundary
            sel = slice(0, b.dimension // 2)
            dev = np.max(np.abs(e1[sel] - e2[sel]))
            assert dev < 20.0 * xi**2 * spread

    def test_unknown_variant(self, small_waveguide):
        frame = frame_with_xi(small_waveguide, 0.01)
        b = fk.enumerate_basis(4, 1)
        with pytest.raises(ConfigError):
            fk.build_transformed_hamiltonian(b, frame, 0.0, "Nope")


class TestApplyT:
    @pytest.mark.filterwarnings("ignore:estimated displacement truncation error")
    def test_unitarity_on_random_states(self, small_waveguide):
        frame = frame_with_xi(small_waveguide, 0.05)
        b = fk.enumerate_basis(4, 3)
        rng = np.random.default_rng(11)
        for _ in range(3):
            amp = rng.normal(size=b.dimension) + 1j * rng.normal(size=b.dimension)
            amp /= np.linalg.norm(amp)
            st_in = fk.FockStateVector(b, amp)
            out = fk.apply_T(b, frame, 0.0, st_in, +1)
            back = fk.apply_T(b, frame, 0.0, out, -1)
            assert np.linalg.norm(back.amplitudes - amp) < 1e-10

    @pytest.mark.filterwarnings("ignore:estimated displacement truncation error")
    @pytest.mark.parametrize("n_max", [2, 4, 6, 7])
    def test_matches_dense_exponential(self, small_waveguide, n_max):
        # exp(+-sigma_x X) applied to a random state against the dense
        # exponential of the generator built here from the a_k; n_max 7 has
        # 660 states
        frame = frame_with_xi(small_waveguide, 0.3)
        b = fk.enumerate_basis(4, n_max)
        xi = frame.xi_all(0.0)
        X = sum(np.conj(xi[k]) * b.creator(k) - xi[k] * b.annihilator(k)
                for k in range(4))
        G = (b.sigma_x @ X).toarray()
        rng = np.random.default_rng(n_max)
        amp = rng.normal(size=b.dimension) + 1j * rng.normal(size=b.dimension)
        amp /= np.linalg.norm(amp)
        for direction in (+1, -1):
            out = fk.apply_T(b, frame, 0.0, fk.FockStateVector(b, amp), direction)
            ref = expm(direction * G) @ amp
            assert np.linalg.norm(out.amplitudes - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_first_order_expansion(self):
        grid = modes.build_waveguide_grid(1, 1.0, 2 * np.pi, 1.0,
                                          directions="positive")
        frame = frame_with_xi(grid, 0.004)
        b = fk.enumerate_basis(1, 5)
        out = fk.apply_T(b, frame, 0.0, b.vacuum(), -1)
        xi = frame.xi_all(0.0)[0]
        amp = out.amplitude(fk.EXCITED, (1,))
        assert amp == pytest.approx(-np.conj(xi), rel=5e-5)

    def test_displaced_statistics(self):
        # conditioned on the sigma_x eigenbasis, T displaces each branch by a
        # scalar coherent amplitude; photon statistics follow a Poisson law
        grid = modes.build_waveguide_grid(1, 1.0, 2 * np.pi, 1.0,
                                          directions="positive")
        frame = frame_with_xi(grid, 0.1)
        b = fk.enumerate_basis(1, 12)
        out = fk.apply_T(b, frame, 0.0, b.vacuum(), -1)
        xi = abs(frame.xi_all(0.0)[0])
        pn = np.zeros(5)
        for n in range(5):
            pn[n] = (abs(out.amplitude(fk.GROUND, (n,))) ** 2
                     + abs(out.amplitude(fk.EXCITED, (n,))) ** 2)
        from math import factorial
        poisson = np.exp(-xi**2) * xi ** (2 * np.arange(5)) \
            / [factorial(n) for n in range(5)]
        assert np.allclose(pn, poisson, atol=1e-10)

    def test_truncation_guard(self):
        grid = modes.build_waveguide_grid(1, 1.0, 2 * np.pi, 1.0,
                                          directions="positive")
        frame = frame_with_xi(grid, 0.3)
        b = fk.enumerate_basis(1, 1)  # absurdly tight cut
        top = b.basis_state(fk.GROUND, (1,))
        with pytest.warns(UserWarning, match="truncation error"):
            out = fk.apply_T(b, frame, 0.0, top, +1)
        assert out.info["truncation_estimate"] > 1e-6


class TestPropagate:
    def test_constant_diagonal_phases(self):
        grid = modes.build_waveguide_grid(2, 1.0, 2 * np.pi, 1.0)
        prof = static_1d_profile(grid, gamma=0.0)
        b = fk.enumerate_basis(2, 1)
        H = fk.build_original_hamiltonian(b, grid, prof, 0.0)
        amp = np.ones(b.dimension, dtype=complex) / np.sqrt(b.dimension)
        out = fk.propagate(H, fk.FockStateVector(b, amp), 0.0, 7.0,
                           1e-12)
        E = np.real(H.diagonal())
        expected = amp * np.exp(-1j * E * 7.0)
        assert np.max(np.abs(out.amplitudes - expected)) < 1e-10

    def test_resonant_rabi_transfer(self):
        grid = modes.build_waveguide_grid(1, 1.0, 2 * np.pi, 1.0,
                                          directions="positive")
        prof = static_1d_profile(grid, gamma=4e-4)
        frame = dr.DressedFrame(grid, prof)
        eta = abs(frame.eta_all(0.0)[0])
        b = fk.enumerate_basis(1, 1)
        H = fk.build_transformed_hamiltonian(b, frame, 0.0, "H0H1only")
        out = fk.propagate(H, b.basis_state(fk.EXCITED, (0,)), 0.0,
                           np.pi / (2 * eta), 1e-11)
        assert abs(out.amplitude(fk.GROUND, (1,))) ** 2 == pytest.approx(
            1.0, abs=1e-9)

    def test_norm_drift_regression(self, small_waveguide):
        frame = frame_with_xi(small_waveguide, 0.02)
        b = fk.enumerate_basis(4, 2)
        H = fk.build_transformed_hamiltonian(b, frame, 0.0, "NormalOrdered")
        psi = b.basis_state(fk.EXCITED, (0, 0, 0, 0))
        out = fk.propagate(H, psi, 0.0, 1000.0, 1e-11)
        assert out.info["norm_drift"] <= 1e-9

    def test_excitation_space_conservation(self, small_waveguide):
        frame = frame_with_xi(small_waveguide, 0.02)
        b = fk.enumerate_basis(4, 2)
        H = fk.build_transformed_hamiltonian(b, frame, 0.0, "H0H1only")
        amp = np.zeros(b.dimension, dtype=complex)
        amp[b.index(fk.EXCITED, (0, 0, 0, 0))] = 1 / np.sqrt(2)
        amp[b.index(fk.GROUND, (0, 1, 0, 0))] = 1 / np.sqrt(2)
        psi = fk.FockStateVector(b, amp)
        nexc = b.excitation_number_diagonal()
        before = float(np.sum(nexc * np.abs(amp) ** 2))
        out = fk.propagate(H, psi, 0.0, 300.0, 1e-11)
        after = float(np.sum(nexc * np.abs(out.amplitudes) ** 2))
        assert abs(after - before) <= 1e-10

    def test_full_hamiltonian_breaks_excitation_number(self, small_waveguide):
        prof = static_1d_profile(small_waveguide, gamma=5e-2)
        b = fk.enumerate_basis(4, 2)
        H = fk.build_original_hamiltonian(b, small_waveguide, prof, 0.0)
        psi = b.vacuum()
        nexc = b.excitation_number_diagonal()
        out = fk.propagate(H, psi, 0.0, 1.0 / OMEGA_E, 1e-11)
        p = np.abs(out.amplitudes) ** 2
        mean = float(np.sum(nexc * p))
        var = float(np.sum((nexc - mean) ** 2 * p))
        assert var > 1e-8  # strict growth from zero

    def test_convergence_in_n_max(self, small_waveguide):
        frame = frame_with_xi(small_waveguide, 0.02)
        vals = []
        for n_max in (2, 3):
            b = fk.enumerate_basis(4, n_max)
            H = fk.build_transformed_hamiltonian(b, frame, 0.0, "NormalOrdered")
            out = fk.propagate(H, b.vacuum(), 0.0, 50.0, 1e-12)
            vals.append(float(np.sum(b.total_photons
                                     * np.abs(out.amplitudes) ** 2)))
        assert abs(vals[1] - vals[0]) < 1e-8

    def test_series_matches_matrix_exponential(self, small_waveguide):
        # static coupling: H(t) is constant, so psi(t) = exp(-i H t) psi(0)
        prof = static_1d_profile(small_waveguide, gamma=5e-2)
        b = fk.enumerate_basis(4, 2)
        H = fk.original_hamiltonian_series(b, small_waveguide, prof)
        rng = np.random.default_rng(5)
        amp = rng.normal(size=b.dimension) + 1j * rng.normal(size=b.dimension)
        amp /= np.linalg.norm(amp)
        t = 15.0
        out = fk.propagate(H, fk.FockStateVector(b, amp), 0.0, t, 1e-12)
        expected = expm_multiply(-1j * t * H(0.0), amp)
        assert np.max(np.abs(out.amplitudes - expected)) <= 1e-9

    def test_time_reversed_interval_rejected(self, small_waveguide):
        b = fk.enumerate_basis(4, 1)
        with pytest.raises(ConfigError):
            fk.propagate(np.eye(b.dimension), b.vacuum(), 1.0, 0.0)


class TestTransformedResidual:
    def test_identity_at_zero_xi(self, small_waveguide):
        frame = frame_with_xi(small_waveguide, 0.0)
        b = fk.enumerate_basis(4, 2)
        R = fk.transformed_residual_norm(b, frame, 0.0)
        assert R < 1e-10

    def test_third_order_scaling(self):
        grid = modes.build_waveguide_grid(2, 1.2, 2 * np.pi, 1.0)
        b = fk.enumerate_basis(2, 4)
        r04 = fk.transformed_residual_norm(b, frame_with_xi(grid, 0.04), 0.0)
        r02 = fk.transformed_residual_norm(b, frame_with_xi(grid, 0.02), 0.0)
        assert 6.0 <= r04 / r02 <= 10.0

    def test_phase_term_reduces_residual(self):
        grid = modes.build_waveguide_grid(2, 1.2, 2 * np.pi, 1.0)
        b = fk.enumerate_basis(2, 4)
        frame = frame_with_xi(grid, 0.1)
        E = dr.phase_E(frame, 0.0)
        assert E != 0.0
        with_e = fk.transformed_residual_norm(b, frame, 0.0, include_phase=True)
        without_e = fk.transformed_residual_norm(b, frame, 0.0,
                                                 include_phase=False)
        assert with_e < without_e

    def test_driven_frame_residual(self, small_waveguide):
        # the residual also certifies time-dependent frames (finite-difference
        # derivative of the transform against the analytic phase bookkeeping)
        prof = oscillating_1d_profile(small_waveguide, omega_m=0.05)
        frame = dr.DressedFrame(small_waveguide, prof, xi_mode="floquet")
        b = fk.enumerate_basis(4, 3)
        R = fk.transformed_residual_norm(b, frame, 1.3)
        xi_scale = float(np.max(np.abs(frame.xi_all(1.3))))
        assert R < 50.0 * xi_scale**3 + 1e-9

