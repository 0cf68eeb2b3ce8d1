import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from vacuum_shake import coupling as cp
from vacuum_shake import dressing as dr
from vacuum_shake import fock as fk
from vacuum_shake import modes
from vacuum_shake.errors import CapacityError, ConfigError, NumericalError

from conftest import (OMEGA_E, dense_annihilator, dense_sigma_x, oscillating_1d_profile,
                      static_1d_profile)


def frame_with_xi(grid, xi_target):
    """Static waveguide frame whose per-mode displacement is xi_target."""
    w = grid.omega[0]
    chi_scale = xi_target * (w + OMEGA_E) / np.sqrt(w)
    prof = cp.CouplingProfile(kind=cp.CouplingKind.WAVEGUIDE_1D,
                              omega_e=OMEGA_E, chi_scale=chi_scale, c=grid.c)
    return dr.DressedFrame(grid, prof)


class TestBasis:
    def test_one_mode_enumeration(self):
        b = fk.enumerate_basis(1, 1)
        assert [(b.atom[i], tuple(b.occ[i])) for i in range(4)] == [
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
        assert b.index(b.atom[i], b.occ[i]) == i

    def test_enumeration_is_number_major(self):
        b = fk.enumerate_basis(2, 2)
        totals = b.total_photons
        assert np.all(np.diff(totals) >= 0)


class TestTensorAlgebra:
    """Operators on (3 modes, n_max 3) x (atom), built by the tests' own
    dense reference, obey the algebra of bosons times a two-level atom, and
    the entry table of the basis reproduces them."""

    @pytest.fixture
    def b(self):
        return fk.enumerate_basis(3, 3)

    def test_canonical_commutator_below_top_shell(self, b):
        below = np.ix_(b.total_photons < b.n_max, b.total_photons < b.n_max)
        for j in range(3):
            for k in range(3):
                a, adag = dense_annihilator(b, j), dense_annihilator(b, k).conj().T
                comm = (a @ adag - adag @ a)[below]
                assert np.allclose(comm, np.eye(len(comm)) * (j == k),
                                   rtol=0, atol=1e-14)

    def test_modes_commute_with_atom_operators(self, b):
        sx = dense_sigma_x(b)
        sigma_plus = np.diag(b.atom == fk.EXCITED) @ sx
        for k in range(3):
            a = dense_annihilator(b, k)
            for s in (sx, sigma_plus, sx - sigma_plus):
                assert np.max(np.abs(a @ s - s @ a)) == 0.0

    def test_mode_sum_is_weighted_sum_of_annihilators(self, b):
        # sum_k c_k a_k from the entry table against the dense reference
        c = np.array([0.3 - 0.1j, -1.2, 0.5j])
        ref = sum(c[k] * dense_annihilator(b, k) for k in range(3))
        rows, cols, vals, mode = b._lowering
        built = fk._dense(b.dimension, rows, cols, vals * c[mode])
        assert np.max(np.abs(built - ref)) <= 1e-15


class TestOriginalHamiltonian:
    def test_free_hamiltonian_diagonal(self, small_waveguide):
        prof = static_1d_profile(small_waveguide, gamma=0.0)
        b = fk.enumerate_basis(4, 2)
        M = fk.build_original_hamiltonian(b, small_waveguide, prof, 0.0)
        assert np.count_nonzero(M - np.diag(np.diag(M))) == 0
        expected = 0.5 * OMEGA_E * b.sigma_z_diagonal() \
            + b.mode_number_diagonal(small_waveguide.omega)
        assert np.allclose(np.diag(M).real, expected)

    def test_coupling_elements_including_counter_rotating(self):
        grid = modes.build_waveguide_grid(1, 1.0, 2 * np.pi, 1.0,
                                          directions="positive")
        prof = static_1d_profile(grid)
        b = fk.enumerate_basis(1, 1)
        H = fk.build_original_hamiltonian(b, grid, prof, 0.0)
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
        sx = dense_sigma_x(b)
        rng = np.random.default_rng(4)
        for t in rng.uniform(0.0, 40.0, size=5):
            ref = np.diag(0.5 * OMEGA_E * b.sigma_z_diagonal()
                          + b.mode_number_diagonal(small_waveguide.omega))
            ref = ref.astype(complex)
            for k in range(4):
                x_a = prof.r_m * np.cos(prof.omega_m * t)
                g = prof.chi(small_waveguide.omega[k]) \
                    * (1.0 + 1j * small_waveguide.wavevectors[k, 0] * x_a)
                a = dense_annihilator(b, k)
                ref += (g * a + np.conj(g) * a.conj().T) @ sx
            scale = np.max(np.abs(ref - np.diag(np.diag(ref))))
            built = fk.build_original_hamiltonian(b, small_waveguide, prof, t)
            for M in (built, H_of_t(t)):
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

    def test_offdiagonal_block_is_columnwise(self, small_waveguide):
        prof = oscillating_1d_profile(small_waveguide, omega_m=0.3, km_rm=0.1,
                                      gamma=1e-2)
        b = fk.enumerate_basis(4, 2)
        H = fk.original_hamiltonian_series(b, small_waveguide, prof)
        rng = np.random.default_rng(2)
        Y = rng.normal(size=(b.dimension, 3)) + 1j * rng.normal(size=(b.dimension, 3))
        block = H.apply_offdiagonal(1.7, Y)
        assert block.shape == Y.shape
        for j in range(3):
            assert np.allclose(block[:, j], H.apply_offdiagonal(1.7, Y[:, j]),
                               rtol=1e-14, atol=0.0)

    def test_series_conserves_parity(self):
        # sigma_x flips the atom and a_k changes N by one, so every V_nu keeps
        # (-1)^(N + atom); the dressed vacuum lies in the even half
        H, lab0 = oracle_series(2)
        b = lab0.basis
        parity = (b.total_photons + b.atom) % 2
        assert np.count_nonzero(H.vals, axis=1).tolist() == [len(H.rows)] * 3
        assert np.all(parity[H.rows] == parity[H.cols])
        (even,) = fk._parity_sectors(H, b, lab0.amplitudes)
        assert len(even) == 15 and np.all(parity[even] == 0)

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
        H = fk._order2_hamiltonian(b, frame, 2.3)
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
        H = fk._order2_hamiltonian(b, frame, 2.3)
        ig0 = b.index(fk.GROUND, (0, 0, 0, 0))
        vals = [abs(H[b.index(fk.EXCITED, tuple(np.eye(4, dtype=int)[k])), ig0])
                for k in range(4)]
        assert max(vals) > 1e-10  # -i d(xi)/dt residue survives

    def test_pair_kernel_matrix_element(self, small_waveguide):
        frame = frame_with_xi(small_waveguide, 0.02)
        b = fk.enumerate_basis(4, 2)
        M = fk.build_transformed_hamiltonian(b, frame, 0.0, "NormalOrdered")(0.0)
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
        H = fk.build_transformed_hamiltonian(b, frame, 0.0, "H0H1only")(0.0)
        n_exc = b.total_photons + b.atom
        rows, cols = np.nonzero(np.abs(H) > 1e-15)
        assert np.all(n_exc[rows] == n_exc[cols])
        # |e,0> couples exactly to the single-photon ground manifold
        ie0 = b.index(fk.EXCITED, (0, 0, 0, 0))
        coupled = [(b.atom[r], tuple(b.occ[r])) for r in rows[cols == ie0] if r != ie0]
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
            H = fk.build_original_hamiltonian(b, grid, prof, 0.0)
            Hp = fk.build_transformed_hamiltonian(b, frame, 0.0, "NormalOrdered")(0.0)
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
        a = [dense_annihilator(b, k) for k in range(4)]
        X = sum(np.conj(xi[k]) * a[k].conj().T - xi[k] * a[k] for k in range(4))
        G = dense_sigma_x(b) @ X
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


def oracle_frame():
    """The shipped OracleCompare's dressed frame: modes at 0.5 and 2.0 in both
    directions, xi_max 0.03, k_m r_m 0.1, omega_m 2.5."""
    grid = modes.few_mode_waveguide_grid([0.5, 2.0])
    wm = 2.5
    prof = cp.CouplingProfile(
        kind=cp.CouplingKind.OSCILLATING_1D, omega_e=OMEGA_E,
        chi_scale=0.03 * (0.5 + OMEGA_E) / np.sqrt(0.5), c=1.0, r_m=0.1 / wm,
        omega_m=wm, km_rm_guard=0.1001,
    )
    return dr.DressedFrame(grid, prof, xi_mode="floquet")


def random_generator(n, seed):
    """Traceless anti-Hermitian sparse n x n generator with 1-norm 1."""
    rng = np.random.default_rng(seed)
    A = (sp.random(n, n, density=0.05, random_state=rng, format="csr")
         + 1j * sp.random(n, n, density=0.05, random_state=rng, format="csr"))
    U = sp.triu(A, k=1, format="csr")
    G = (U - U.conj().T).tocsr()
    return G / max(abs(G).sum(axis=0).flat), rng


class TestExpmMultiply:
    @pytest.mark.parametrize("n_max", [2, 3, 4, 6])
    def test_bit_equal_to_scipy_on_oracle_generators(self, n_max):
        frame = oracle_frame()
        b = fk.enumerate_basis(4, n_max)
        rng = np.random.default_rng(n_max)
        v = rng.normal(size=b.dimension) + 1j * rng.normal(size=b.dimension)
        for t in (0.0, 12.0, 200.0):
            for direction in (+1, -1):
                # the port first: scipy sorts G's column indices in place
                G = fk._displacement_generator(b, frame, t, direction)
                out, n_products = fk._expm_multiply(G, v)
                assert np.array_equal(out, expm_multiply(G, v))
                assert n_products > 0

    def test_bit_equal_to_scipy_at_every_theta_switch(self):
        # just below and just above each theta_m the choice of (m, s) switches.
        # On a hopping chain started at one end, Taylor term j first reaches
        # site j, so a different number of terms shows in the last bits.
        n = 80
        rng = np.random.default_rng(3)
        U = sp.diags(np.exp(2j * np.pi * rng.random(n - 1)), 1, format="csr")
        chain = (U - U.conj().T).tocsr() / 2.0
        v = np.zeros(n, dtype=complex)
        v[0] = 1.0
        for theta in fk._THETA.values():
            for norm in (theta * (1 - 1e-6), theta * (1 + 1e-6)):
                G = norm * chain
                assert np.array_equal(fk._expm_multiply(G, v)[0],
                                      expm_multiply(G, v)), norm

    def test_bit_equal_to_scipy_over_several_steps(self):
        # at |G|_1 = 20 the series runs s = 3 steps of up to 55 terms
        G0, rng = random_generator(120, 7)
        G = 20.0 * G0
        v = rng.normal(size=120) + 1j * rng.normal(size=120)
        out, n_products = fk._expm_multiply(G, v)
        assert np.array_equal(out, expm_multiply(G, v))
        assert n_products > max(fk._THETA)

    def test_agrees_with_scipy_beyond_condition_3_13(self):
        # above |G|_1 ~ 63 scipy bounds s by estimated norms of powers of G;
        # the theta bound kept here takes more products to the same result
        G0, rng = random_generator(120, 8)
        G = 100.0 * G0
        v = rng.normal(size=120) + 1j * rng.normal(size=120)
        ref = expm_multiply(G, v)
        out, _ = fk._expm_multiply(G, v)
        assert np.linalg.norm(out - ref) <= 1e-13 * np.linalg.norm(ref)

    @pytest.mark.parametrize("case", ["appendix", "oracle"])
    def test_dense_T_matches_expm(self, case):
        # the residual's T: the exponential applied to the identity
        if case == "appendix":
            grid = modes.build_waveguide_grid(2, 1.2, 2 * np.pi, 1.0)
            frame, b, t = frame_with_xi(grid, 0.04), fk.enumerate_basis(2, 4), 0.0
        else:
            frame, b, t = oracle_frame(), fk.enumerate_basis(4, 4), 12.0
        G = fk._displacement_generator(b, frame, t, +1)
        T, _ = fk._expm_multiply(G, np.eye(b.dimension, dtype=complex))
        assert np.max(np.abs(T - expm(G.toarray()))) <= 1e-14


class TestPropagate:
    def test_constant_diagonal_phases(self):
        grid = modes.build_waveguide_grid(2, 1.0, 2 * np.pi, 1.0)
        prof = static_1d_profile(grid, gamma=0.0)
        b = fk.enumerate_basis(2, 1)
        H = fk.original_hamiltonian_series(b, grid, prof)
        amp = np.ones(b.dimension, dtype=complex) / np.sqrt(b.dimension)
        out = fk.propagate(H, fk.FockStateVector(b, amp), 0.0, 7.0,
                           1e-12)
        E = H.diag
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
        nexc = b.total_photons + b.atom
        before = float(np.sum(nexc * np.abs(amp) ** 2))
        out = fk.propagate(H, psi, 0.0, 300.0, 1e-11)
        after = float(np.sum(nexc * np.abs(out.amplitudes) ** 2))
        assert abs(after - before) <= 1e-10

    def test_full_hamiltonian_breaks_excitation_number(self, small_waveguide):
        prof = static_1d_profile(small_waveguide, gamma=5e-2)
        b = fk.enumerate_basis(4, 2)
        H = fk.original_hamiltonian_series(b, small_waveguide, prof)
        psi = b.vacuum()
        nexc = b.total_photons + b.atom
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

    def test_info_counts_steps(self, small_waveguide):
        prof = oscillating_1d_profile(small_waveguide, omega_m=3.0, km_rm=0.1,
                                      gamma=1e-2)
        b = fk.enumerate_basis(4, 2)
        H = fk.original_hamiltonian_series(b, small_waveguide, prof)
        info = fk.propagate(H, b.vacuum(), 0.0, 5.0, 1e-10).info
        assert info["n_steps"] > 0
        info = fk.propagate(H, b.vacuum(), 1.0, 1.0).info
        assert (info["n_rhs_evals"], info["n_steps"], info["n_rejected"]) == (0, 0, 0)

    def test_normal_ordered_series_splits_by_parity(self, small_waveguide):
        # sigma_+ a_k and the pair terms of Gamma keep (-1)^(N + atom), so the
        # static transformed series is propagated sector by sector
        frame = frame_with_xi(small_waveguide, 0.02)
        b = fk.enumerate_basis(4, 2)
        H = fk.build_transformed_hamiltonian(b, frame, 0.0, "NormalOrdered")
        rng = np.random.default_rng(6)
        amp = rng.normal(size=b.dimension) + 1j * rng.normal(size=b.dimension)
        amp /= np.linalg.norm(amp)
        assert len(fk._parity_sectors(H, b, amp)) == 2
        excited = b.basis_state(fk.EXCITED, (0, 0, 0, 0)).amplitudes
        assert len(fk._parity_sectors(H, b, excited)) == 1
        t = 50.0
        out = fk.propagate(H, fk.FockStateVector(b, amp), 0.0, t, 1e-12)
        expected = expm(-1j * t * H(0.0)) @ amp
        assert np.max(np.abs(out.amplitudes - expected)) <= 1e-9

    def test_time_reversed_interval_rejected(self, small_waveguide):
        b = fk.enumerate_basis(4, 1)
        H = fk.original_hamiltonian_series(b, small_waveguide,
                                           static_1d_profile(small_waveguide))
        with pytest.raises(ConfigError):
            fk.propagate(H, b.vacuum(), 1.0, 0.0)


def oracle_series(n_max):
    """The shipped OracleCompare's Hamiltonian series (omega_m 2.5) at
    ``n_max`` and its dressed vacuum carried to the lab frame."""
    frame = oracle_frame()
    b = fk.enumerate_basis(frame.grid.n_modes, n_max)
    H = fk.original_hamiltonian_series(b, frame.grid, frame.profile)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the truncation estimate at n_max 2
        lab0 = fk.apply_T(b, frame, 0.0, b.vacuum(), direction=-1)
    return H, lab0


class TestPeriodPropagator:
    PERIOD = 2 * np.pi / 2.5

    @pytest.mark.parametrize("n_max", [2, 4])
    def test_matches_stepping_over_many_periods(self, n_max, monkeypatch):
        H, psi = oracle_series(n_max)
        out = fk.propagate(H, psi, 0.0, 60.0, 1e-10)
        assert out.info["n_periods"] == 23
        assert 0.0 < out.info["unitarity_defect"] <= 1e-10
        monkeypatch.setattr(fk, "_period_pays", lambda n, d: False)
        stepped = fk.propagate(H, psi, 0.0, 60.0, 1e-10)
        assert stepped.info["n_periods"] == 0
        assert np.max(np.abs(out.amplitudes - stepped.amplitudes)) <= 1e-9

    @pytest.mark.parametrize("keeps_parity", [True, False])
    def test_both_sectors_match_expm_multiply(self, small_waveguide, keeps_parity):
        # a static coupling given a drive frequency: a harmonic series that
        # is trivially periodic, so exp(-i H t) is exact over whole periods.
        # Without sigma_x, on the raw columns of the a_k, the coupling
        # changes the parity, and the whole basis is one sector.
        prof = static_1d_profile(small_waveguide, gamma=5e-2)
        b = fk.enumerate_basis(4, 2)
        static = fk.original_hamiltonian_series(b, small_waveguide, prof)
        cols = static.cols if keeps_parity else b._lowering[1]
        H = fk.HarmonicHamiltonian(static.diag, static.rows, cols, static.vals,
                                   omega_m=3.0)
        rng = np.random.default_rng(8)
        amp = rng.normal(size=b.dimension) + 1j * rng.normal(size=b.dimension)
        amp /= np.linalg.norm(amp)
        assert len(fk._parity_sectors(H, b, amp)) == (2 if keeps_parity else 1)
        t = 20.0
        out = fk.propagate(H, fk.FockStateVector(b, amp), 0.0, t, 1e-12)
        assert out.info["n_periods"] == 9
        expected = expm_multiply(-1j * t * H(0.0), amp)
        assert np.max(np.abs(out.amplitudes - expected)) <= 1e-9

    @pytest.mark.parametrize("t0, periods, n_periods, both_parities", [
        (0.7, 4.4, 4, False),         # H(t) is periodic about t0, not only about 0
        (0.0, 4.0, 4, False),         # r = 0
        (0.0, 5 - 1e-6, 4, False),    # r just below T
        (0.7, 4.4, 4, True),          # a random state, on both parity sectors
    ])
    def test_factorisation_matches_stepping(self, t0, periods, n_periods, both_parities,
                                            monkeypatch):
        H, psi = oracle_series(2)
        b = psi.basis
        if both_parities:
            rng = np.random.default_rng(11)
            amp = rng.normal(size=b.dimension) + 1j * rng.normal(size=b.dimension)
            psi = fk.FockStateVector(b, amp / np.linalg.norm(amp))
        assert len(fk._parity_sectors(H, b, psi.amplitudes)) == (2 if both_parities else 1)
        t1 = t0 + periods * self.PERIOD
        out = fk.propagate(H, psi, t0, t1, 1e-10)
        assert out.info["n_periods"] == n_periods
        assert out.info["period_rhs_evals"] == out.info["n_rhs_evals"] > 0
        monkeypatch.setattr(fk, "_period_pays", lambda periods, d: False)
        stepped = fk.propagate(H, psi, t0, t1, 1e-10)
        assert stepped.info["n_periods"] == 0
        assert np.max(np.abs(out.amplitudes - stepped.amplitudes)) <= 1e-9

    @pytest.mark.parametrize("periods, takes_period", [(1.27, False), (1.30, True)])
    def test_cost_rule_breaks_even_at_d_15(self, periods, takes_period):
        # the even sector at n_max 2 holds 15 states: 1 + (15 / 28)^2 = 1.287 periods
        H, psi = oracle_series(2)
        assert [len(idx) for idx in fk._parity_sectors(H, psi.basis, psi.amplitudes)] == [15]
        info = fk.propagate(H, psi, 0.0, periods * self.PERIOD, 1e-10).info
        assert info["n_periods"] == (1 if takes_period else 0)
        assert info["period_rhs_evals"] == (info["n_rhs_evals"] if takes_period else 0)

    def test_cost_does_not_grow_with_periods(self):
        H, psi = oracle_series(2)
        r = 1.0
        short = fk.propagate(H, psi, 0.0, 4 * self.PERIOD + r, 1e-10).info
        long = fk.propagate(H, psi, 0.0, 40 * self.PERIOD + r, 1e-10).info
        assert (short["n_periods"], long["n_periods"]) == (4, 40)
        assert short["n_rhs_evals"] == long["n_rhs_evals"]
        assert short["period_rhs_evals"] == long["period_rhs_evals"] > 0

    def test_cost_rule_steps_a_large_sector_over_few_periods(self):
        # n_max 6: 210 even states, whose period costs more than 4 stepped ones
        H, psi = oracle_series(6)
        info = fk.propagate(H, psi, 0.0, 12.0, 1e-10).info
        assert (info["n_periods"], info["period_rhs_evals"]) == (0, 0)
        assert info["unitarity_defect"] == 0.0

    def test_short_interval_is_stepped(self):
        H, psi = oracle_series(2)
        info = fk.propagate(H, psi, 0.0, 0.9 * self.PERIOD, 1e-10).info
        assert info["n_periods"] == 0 and info["n_steps"] > 0


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

    @pytest.mark.parametrize("driven", [False, True])
    def test_static_frame_skips_the_derivative(self, small_waveguide, driven,
                                               monkeypatch):
        # a static xi has dT^+/dt = 0: only T(t) itself is exponentiated
        if driven:
            prof = oscillating_1d_profile(small_waveguide, omega_m=0.05)
            frame = dr.DressedFrame(small_waveguide, prof, xi_mode="floquet")
        else:
            frame = frame_with_xi(small_waveguide, 0.02)
        calls = []
        expm = fk._expm_multiply
        monkeypatch.setattr(fk, "_expm_multiply",
                            lambda G, B: calls.append(B.ndim) or expm(G, B))
        fk.transformed_residual_norm(fk.enumerate_basis(4, 2), frame, 0.7)
        assert calls == [2] * (3 if driven else 1)

    def test_driven_frame_residual(self, small_waveguide):
        # the residual also certifies time-dependent frames (finite-difference
        # derivative of the transform against the analytic phase bookkeeping)
        prof = oscillating_1d_profile(small_waveguide, omega_m=0.05)
        frame = dr.DressedFrame(small_waveguide, prof, xi_mode="floquet")
        b = fk.enumerate_basis(4, 3)
        R = fk.transformed_residual_norm(b, frame, 1.3)
        xi_scale = float(np.max(np.abs(frame.xi_all(1.3))))
        assert R < 50.0 * xi_scale**3 + 1e-9


class TestDenseResidualOperators:
    """The residual's dense arrays against the CSR operators they stand for."""

    @pytest.fixture(params=["oscillating", "oscillating_3d"])
    def frame(self, request, small_waveguide):
        if request.param == "oscillating":
            grid = small_waveguide
            prof = oscillating_1d_profile(grid, omega_m=0.3, km_rm=0.1, gamma=1e-2)
        else:
            # the magnetic term makes g+ != g-, which 1D motion never does
            grid = modes.build_freespace_quadrature(1, 2, 1, 2.0, V=(2 * np.pi) ** 3)
            prof = cp.CouplingProfile.oscillating_3d(
                OMEGA_E, [0, 0, 1], [np.sin(1.0), 0.0, np.cos(1.0)],
                r_m=0.1 / 0.3, omega_m=0.3, gamma=1e-2, V=(2 * np.pi) ** 3)
        return dr.DressedFrame(grid, prof, xi_mode="floquet")

    def test_generator_and_T_match_csr(self, frame):
        b = fk.enumerate_basis(frame.grid.n_modes, 2)
        eye = np.eye(b.dimension, dtype=complex)
        for t in (0.0, 1.3, 7.9):
            G = fk._displacement_generator(b, frame, t, +1)
            dense = fk._dense(b.dimension, *fk._generator_entries(b, frame.xi_all(t), +1))
            assert np.array_equal(dense, G.toarray())
            T, n_products = fk._expm_multiply(dense, eye)
            ref, n_ref = fk._expm_multiply(G, eye)
            assert n_products == n_ref > 0
            assert np.max(np.abs(T - ref)) <= 1e-15


def oracle_rhs(grid):
    """Interaction-picture right-hand side of the oracle propagation, as
    ``fk.propagate`` forms it, for an oscillating coupling on ``grid``."""
    prof = oscillating_1d_profile(grid, omega_m=3.0, km_rm=0.1, gamma=1e-2)
    b = fk.enumerate_basis(grid.n_modes, 3)
    H = fk.original_hamiltonian_series(b, grid, prof)

    def rhs(t, y):
        ph = np.exp(-1j * H.diag * t)
        return -1j * np.conj(ph) * H.apply_offdiagonal(t, ph * y)
    return rhs, b.vacuum().amplitudes


def stiff_linear_rhs():
    """y' = M y with decay rates from 1 to 1e3 and random complex coupling:
    DOP853's stability limit, not its accuracy, bounds the step, so steps
    get rejected."""
    rng = np.random.default_rng(11)
    n = 30
    M = (-np.diag(np.logspace(0, 3, n)) + 50j * np.diag(rng.normal(size=n))
         + 5.0 * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))))
    return (lambda t, y: M @ y), rng.normal(size=n) + 1j * rng.normal(size=n)


class TestDop853:
    @pytest.mark.parametrize("problem, t1, rtol", [
        ("oracle", 12.0, 1e-10), ("stiff", 2.0, 1e-6), ("stiff", 2.0, 1e-10)])
    def test_bit_equal_to_solve_ivp(self, small_waveguide, problem, t1, rtol):
        fun, y0 = (oracle_rhs(small_waveguide) if problem == "oracle"
                   else stiff_linear_rhs())
        y, stats = fk._dop853(fun, 0.0, y0, t1, rtol, rtol * 1e-2)
        sol = solve_ivp(fun, (0.0, t1), y0, method="DOP853", rtol=rtol,
                        atol=rtol * 1e-2)
        assert sol.status == 0
        assert np.array_equal(y, sol.y[:, -1])
        assert stats["n_rhs_evals"] == sol.nfev
        assert stats["n_steps"] == len(sol.t) - 1
        if problem == "stiff":
            assert stats["n_rejected"] > 0

    @pytest.mark.parametrize("problem, t1, rtol", [
        ("oracle", 12.0, 1e-10), ("stiff", 2.0, 1e-6)])
    def test_counts_every_rhs_evaluation(self, small_waveguide, problem, t1, rtol):
        # two evaluations pick the first step, then 12 per attempted step
        fun, y0 = (oracle_rhs(small_waveguide) if problem == "oracle"
                   else stiff_linear_rhs())
        calls = []
        _, stats = fk._dop853(lambda t, y: calls.append(t) or fun(t, y), 0.0, y0,
                              t1, rtol, rtol * 1e-2)
        assert stats["n_rhs_evals"] == len(calls)
        assert stats["n_rhs_evals"] == 2 + 12 * (stats["n_steps"] + stats["n_rejected"])

    def test_step_underflow_raises_with_time_reached(self):
        def fun(t, y):
            return np.full_like(y, np.nan) if t > 1.0 else -1j * y

        with np.errstate(invalid="ignore"), pytest.raises(NumericalError) as exc:
            fk._dop853(fun, 0.0, np.ones(3, dtype=complex), 3.0, 1e-8, 1e-10)
        assert exc.value.details["t_reached"] == pytest.approx(1.0, abs=1e-12)
