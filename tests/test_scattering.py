import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len
from scipy.integrate import quad

from vacuum_shake import cli
from vacuum_shake import coupling as cp
from vacuum_shake import dressing as dr
from vacuum_shake import fock as fk
from vacuum_shake import modes
from vacuum_shake import scattering as sc
from vacuum_shake.errors import ConfigError, DomainError
from vacuum_shake.modes import ModeGrid

from conftest import OMEGA_E, dense_annihilator, dense_tensors, static_1d_profile


def narrow_band_grid(gamma, n_modes=200, halfwidth=20.0):
    return modes.build_waveguide_grid(
        n_modes, OMEGA_E + halfwidth * gamma, 2 * n_modes * np.pi, 1.0,
        omega_min=OMEGA_E - halfwidth * gamma,
    )


def wide_band_grid(n_modes=300, top=1.4):
    return modes.build_waveguide_grid(n_modes, top, n_modes * np.pi, 1.0,
                                      directions="positive")


def permuted_grid(g, perm):
    """The same modes as ``g``, relabelled by ``perm``."""
    return ModeGrid(
        geometry=g.geometry, omega=g.omega[perm],
        wavevectors=g.wavevectors[perm], polarizations=None,
        direction_signs=g.direction_signs[perm],
        omega_min=g.omega_min, omega_max=g.omega_max,
    )


def dense_reductions(tensor, delta_cut):
    """(P3, mass fraction within delta_cut, mean total frequency) summed
    over the dense symmetrized tensor."""
    _, sym = dense_tensors(tensor)
    s2 = np.abs(sym) ** 2
    w = tensor.grid.omega
    wsum = w[:, None, None] + w[None, :, None] + w[None, None, :]
    total = np.sum(s2)
    inside = np.sum(s2[np.abs(wsum - tensor.omega_e) <= delta_cut])
    return 6.0 * total, inside / total, np.sum(s2 * wsum) / total


class TestGammaFromCoupling:
    def test_zero_coupling(self):
        g = narrow_band_grid(1e-3)
        prof = static_1d_profile(g, gamma=0.0)
        assert sc.gamma_from_coupling(g, prof) == 0.0

    def test_quadratic_in_dipole(self):
        g = narrow_band_grid(1e-3)
        # dipole d on a waveguide of area A = 1: chi_scale = d / sqrt(2 A L)
        p1, p2 = (cp.CouplingProfile(
            kind=cp.CouplingKind.WAVEGUIDE_1D, omega_e=OMEGA_E,
            chi_scale=d / np.sqrt(2.0 * g.geometry.length), c=g.c) for d in (0.01, 0.02))
        assert sc.gamma_from_coupling(g, p2) \
            == pytest.approx(4.0 * sc.gamma_from_coupling(g, p1))

    def test_normalization_round_trip(self):
        g = narrow_band_grid(1e-3)
        prof = static_1d_profile(g, gamma=2.5e-3)
        assert sc.gamma_from_coupling(g, prof) == pytest.approx(2.5e-3)

    def test_one_direction_halves_the_rate(self):
        # the same lattice, L and c with right-movers only: half the density
        both = narrow_band_grid(1e-3)
        right = modes.build_waveguide_grid(
            100, OMEGA_E + 20.0 * 1e-3, both.geometry.length, 1.0,
            omega_min=OMEGA_E - 20.0 * 1e-3, directions="positive")
        assert (right.c, right.geometry.length) == (both.c, both.geometry.length)
        prof = static_1d_profile(both, gamma=2.5e-3)
        assert sc.gamma_from_coupling(right, prof) \
            == 0.5 * sc.gamma_from_coupling(both, prof)

    def test_out_of_band(self):
        g = narrow_band_grid(1e-3)
        prof = cp.CouplingProfile.waveguide_1d(
            2.0, gamma=1e-3, L=g.geometry.length, c=g.c)
        with pytest.raises(DomainError):
            sc.gamma_from_coupling(g, prof)


class TestLorentzianWavepacket:
    def test_peak_value(self):
        gamma_p = 1e-3
        g = narrow_band_grid(gamma_p, n_modes=400, halfwidth=50.0)
        pk = sc.lorentzian_wavepacket(g, gamma_p, -20 * g.c / gamma_p,
                                      omega_e=OMEGA_E)
        k = g.wavevectors[:, 0]
        i_peak = np.argmin(np.abs(k - pk.k_e))
        L, c = g.geometry.length, g.c
        expected = np.sqrt(gamma_p / (c * L)) / abs(
            -1j * (k[i_peak] - pk.k_e) + gamma_p / (2 * c))
        assert abs(pk.W[i_peak]) == pytest.approx(expected)
        assert abs(pk.W[i_peak]) <= np.sqrt(gamma_p / (c * L)) * 2 * c / gamma_p

    def test_left_movers_empty(self):
        gamma_p = 1e-3
        g = narrow_band_grid(gamma_p)
        pk = sc.lorentzian_wavepacket(g, gamma_p, -15 * g.c / gamma_p,
                                      omega_e=OMEGA_E)
        assert np.all(pk.W[g.direction_signs == -1] == 0.0)

    def test_magnitude_symmetric_about_resonance(self):
        gamma_p = 1e-3
        g = narrow_band_grid(gamma_p, n_modes=200)
        pk = sc.lorentzian_wavepacket(g, gamma_p, -15 * g.c / gamma_p,
                                      omega_e=OMEGA_E)
        right = g.direction_signs == 1
        k = g.wavevectors[right, 0]
        W = np.abs(pk.W[right])
        # k_e sits on a node of the half-open band (k_e - 20 gamma'/c,
        # k_e + 20 gamma'/c], which holds 49 nodes below it and 50 above:
        # pair each node k_e + m dk with its mirror k_e - m dk
        i_e = int(np.argmin(np.abs(k - pk.k_e)))
        assert k[i_e] == pytest.approx(pk.k_e)
        m = min(i_e, len(k) - 1 - i_e)
        assert m == 49
        below, above = W[i_e - m:i_e][::-1], W[i_e + 1:i_e + 1 + m]
        assert np.allclose(k[i_e - m:i_e][::-1] + k[i_e + 1:i_e + 1 + m],
                           2 * pk.k_e)
        assert np.allclose(below, above, rtol=1e-2)

    def test_normalization_improves_with_band(self):
        gamma_p = 1e-3
        deficits = []
        for half in (40.0, 160.0, 640.0):
            g = narrow_band_grid(gamma_p, n_modes=int(16 * half), halfwidth=half)
            pk = sc.lorentzian_wavepacket(g, gamma_p, -15 * g.c / gamma_p,
                                          omega_e=OMEGA_E)
            deficit = abs(1.0 - pk.norm_squared)
            # analytic band capture of the Lorentzian
            analytic = 1.0 - (2 / np.pi) * np.arctan(2 * half)
            assert deficit == pytest.approx(analytic, rel=0.1, abs=2e-4)
            deficits.append(deficit)
        assert deficits[2] < deficits[1] < deficits[0]
        assert deficits[2] < 1e-3

    def test_far_packet_verification(self):
        gamma_p = 0.02
        n = 1600
        g = modes.build_waveguide_grid(n, 2.05, n * np.pi, 1.0, omega_min=0.05)
        pk = sc.lorentzian_wavepacket(g, gamma_p, -10.5 * g.c / gamma_p,
                                      omega_e=OMEGA_E)
        assert sc.packet_dressing_overlap(pk, OMEGA_E, method="modes") < 1e-6

    def test_near_packet_rejected(self):
        gamma_p = 0.02
        n = 800
        g = modes.build_waveguide_grid(n, 2.05, n * np.pi, 1.0, omega_min=0.05)
        with pytest.warns(UserWarning):
            sc.lorentzian_wavepacket(g, gamma_p, -2 * g.c / gamma_p, omega_e=OMEGA_E)

    def test_invalid_configs(self):
        g = narrow_band_grid(1e-3)
        with pytest.raises(ConfigError):
            sc.lorentzian_wavepacket(g, -1e-3, -100.0, omega_e=OMEGA_E)
        with pytest.raises(ConfigError):
            sc.lorentzian_wavepacket(g, 1e-3, +5.0, omega_e=OMEGA_E)


class TestDecayAmplitudes:
    def test_initial_condition(self):
        g = narrow_band_grid(1e-3)
        prof = static_1d_profile(g)
        mode_amps, excited = sc.decay_amplitudes(g, prof, 0.0)
        assert excited == 1.0
        assert np.all(mode_amps == 0.0)

    def test_long_time_unitarity(self):
        gamma = 1e-3
        g = narrow_band_grid(gamma, n_modes=200, halfwidth=20.0)
        prof = static_1d_profile(g, gamma=gamma)
        mode_amps, excited = sc.decay_amplitudes(g, prof, 30.0 / gamma)
        total = np.sum(np.abs(mode_amps) ** 2) + abs(excited) ** 2
        # the band captures (2/pi) arctan(2 * halfwidth) of the Lorentzian
        assert total == pytest.approx((2 / np.pi) * np.arctan(40.0), abs=2e-3)
        assert total > 0.98

    def test_against_oracle_propagation(self):
        gamma = 1e-3
        # narrow_band_grid's spacing, c and L, on a band symmetric about
        # omega_e: decay_amplitudes has no level shift, and the surplus mode
        # at the top of the half-open band would shift the level by -3.2e-6
        band = narrow_band_grid(gamma, n_modes=200, halfwidth=20.0)
        domega = band.omega[1] - band.omega[0]
        g = modes.few_mode_waveguide_grid(OMEGA_E + domega * np.arange(-50, 51),
                                          band.c, band.geometry.length)
        n = g.n_modes
        prof = static_1d_profile(g, gamma=gamma)
        frame = dr.DressedFrame(g, prof)
        b = fk.enumerate_basis(n, 1)
        H = fk.build_transformed_hamiltonian(b, frame, 0.0, "H0H1only")
        t = 2.0 / gamma
        out = fk.propagate(H, b.basis_state(fk.EXCITED, (0,) * n),
                           0.0, t, 1e-10)
        pred_modes, pred_e = sc.decay_amplitudes(g, prof, t)
        eye = np.eye(n, dtype=int)
        orac = np.array([out.amplitudes[b.index(fk.GROUND, tuple(eye[k]))]
                         for k in range(n)])
        rms = np.sqrt(np.mean(np.abs(orac - pred_modes) ** 2)
                      / np.mean(np.abs(pred_modes) ** 2))
        assert rms <= 0.02
        assert out.amplitude(fk.EXCITED, (0,) * n) \
            == pytest.approx(pred_e, rel=2e-3)


class TestExcitedAmplitudeScattering:
    def test_zero_at_arrival(self):
        assert sc.excited_amplitude_scattering(1e-3, 2e-3, 0.0) == 0.0

    def test_matched_width_maximum(self):
        gamma = 1e-3
        val = sc.excited_amplitude_scattering(gamma, gamma, 2.0 / gamma)
        assert abs(val) == pytest.approx(2.0 / np.e)
        # and it is the maximum over tau
        taus = np.linspace(0.1 / gamma, 8.0 / gamma, 60)
        mags = [abs(sc.excited_amplitude_scattering(gamma, gamma, t))
                for t in taus]
        assert max(mags) <= abs(val) + 1e-12

    @pytest.mark.parametrize("ratio", [0.5, 1.0, 2.0])
    def test_against_convolution_oracle(self, ratio):
        gamma = 1e-3
        gp = ratio * gamma

        def conv(tau):
            re, _ = quad(lambda s: np.exp(-gamma * (tau - s) / 2)
                         * np.exp(-gp * s / 2), 0.0, tau,
                         epsabs=1e-15, epsrel=1e-13)
            return -1j * np.sqrt(gamma * gp) * re * np.exp(-1j * OMEGA_E * tau / 2)

        for tau in np.linspace(0.05 / gamma, 6.0 / gamma, 20):
            a = sc.excited_amplitude_scattering(gamma, gp, tau)
            b = conv(tau)
            assert abs(a - b) <= 1e-6 * abs(b)

    def test_degenerate_branch_is_continuous(self):
        gamma = 1e-3
        a = sc.excited_amplitude_scattering(gamma, gamma * (1 + 2e-6),
                                            2.0 / gamma)
        b = sc.excited_amplitude_scattering(gamma, gamma * (1 + 0.5e-6),
                                            2.0 / gamma)
        assert abs(a - b) <= 1e-5 * abs(a)

    def test_negative_rates_rejected(self):
        with pytest.raises(DomainError):
            sc.excited_amplitude_scattering(-1e-3, 1e-3, 1.0)


class TestThreePhotonTensor:
    @pytest.fixture(scope="class")
    def tensor(self):
        g = wide_band_grid(n_modes=160, top=1.4)
        gamma = 0.02
        prof = static_1d_profile(g, gamma=gamma)
        return sc.three_photon_coefficients(g, prof, gamma, gamma)

    def test_first_pair_symmetry(self, tensor):
        raw, _ = dense_tensors(tensor)
        assert np.array_equal(raw[3, 7, 11], raw[7, 3, 11])
        assert np.max(np.abs(raw - raw.transpose(1, 0, 2))) == 0.0

    def test_sym_is_fully_symmetric(self, tensor):
        _, sym = dense_tensors(tensor)
        for perm in ((0, 2, 1), (2, 1, 0), (1, 2, 0)):
            assert np.allclose(sym, sym.transpose(perm), rtol=0, atol=1e-20)

    def test_on_shell_peak_location(self, tensor):
        # fixing omega_j = omega_k, the maximum over omega_l sits at the
        # three-photon shell Delta_jkl = 0 within a grid spacing
        g = tensor.grid
        j = int(np.argmin(np.abs(g.omega - 0.3)))
        col = np.array([np.abs(tensor.raw_slice(l)[j, j])
                        for l in range(g.n_modes)])
        l_star = int(np.argmax(col))
        target = OMEGA_E - 2 * g.omega[j]
        spacing = g.omega[1] - g.omega[0]
        assert abs(g.omega[l_star] - target) <= spacing + 1e-12

    def test_zero_coupling(self):
        g = wide_band_grid(n_modes=40)
        prof = static_1d_profile(g, gamma=0.0)
        t = sc.three_photon_coefficients(g, prof, 1e-3, 1e-3)
        assert np.max(np.abs(t.raw_slice(5))) == 0.0

    def test_no_packet_means_no_triples(self):
        g = wide_band_grid(n_modes=40)
        prof = static_1d_profile(g, gamma=1e-3)
        t = sc.three_photon_coefficients(g, prof, 1e-3, 0.0)
        assert sc.three_photon_probability(t) == 0.0

    def test_on_shell_magnitude_scale(self, tensor):
        # on the shell with omega_j = omega_k the coefficient magnitude stays
        # within an order-one factor of c^{3/2} gamma^{1/2} / (omega_e^2 L^{3/2})
        g = tensor.grid
        L, c, gamma = g.geometry.length, g.c, tensor.gamma
        scale = c**1.5 * gamma**0.5 / (OMEGA_E**2 * L**1.5)
        for wl in (0.3, 0.5, 0.8):
            l = int(np.argmin(np.abs(g.omega - wl)))
            wj = (OMEGA_E - g.omega[l]) / 2
            j = int(np.argmin(np.abs(g.omega - wj)))
            val = abs(tensor.raw_slice(l)[j, j])
            assert 0.05 * scale < val < 20.0 * scale

    def test_mass_fraction_and_energy_localization(self):
        gamma = 0.01
        g = wide_band_grid(n_modes=420, top=1.4)
        prof = static_1d_profile(g, gamma=gamma)
        t = sc.three_photon_coefficients(g, prof, gamma, gamma)
        frac = t.mass_fraction_within(10.0 * gamma)
        assert frac >= 0.9
        assert abs(t.mean_total_frequency() - OMEGA_E) <= 5.0 * gamma

    def test_probability_matches_bosonic_norm(self):
        # brute-force oracle: assemble the three-photon state in a Fock basis
        # and compare norms exactly
        g = wide_band_grid(n_modes=3, top=1.2)
        gamma = 0.05
        prof = static_1d_profile(g, gamma=gamma)
        t = sc.three_photon_coefficients(g, prof, gamma, gamma)
        raw, _ = dense_tensors(t)
        b = fk.enumerate_basis(3, 3)
        psi = np.zeros(b.dimension, dtype=complex)
        vac = b.vacuum().amplitudes
        adag = [dense_annihilator(b, k).conj().T for k in range(3)]
        for j in range(3):
            for k in range(3):
                for l in range(3):
                    vec = adag[j] @ (adag[k] @ (adag[l] @ vac))
                    psi += raw[j, k, l] * vec
        assert sc.three_photon_probability(t) == pytest.approx(
            float(np.linalg.norm(psi) ** 2), rel=1e-12)

    def test_probability_invariant_under_relabeling(self):
        g = wide_band_grid(n_modes=4, top=1.2)
        gamma = 0.05
        prof = static_1d_profile(g, gamma=gamma)
        t = sc.three_photon_coefficients(g, prof, gamma, gamma)
        p_ref = sc.three_photon_probability(t)
        # relabel modes by permuting the stored arrays
        g2 = permuted_grid(g, np.array([2, 0, 3, 1]))
        t2 = sc.three_photon_coefficients(g2, prof, gamma, gamma)
        assert sc.three_photon_probability(t2) == pytest.approx(p_ref,
                                                                rel=1e-12)

    def test_box_length_independence(self):
        # physical probability converges as the quantization box doubles.
        # Right-movers only: spacings 0.35 gamma and 0.175 gamma resolve the
        # double pole of half-width gamma/2, which 400 modes split over both
        # directions (0.70 gamma) do not; both directions give 2**3 times P3
        gamma = 0.01
        vals = []
        for n in (400, 800):
            g = modes.build_waveguide_grid(n, 1.4, n * np.pi, 1.0,
                                           omega_min=gamma / 5,
                                           directions="positive")
            prof = static_1d_profile(g, gamma=gamma)
            t = sc.three_photon_coefficients(g, prof, gamma, gamma)
            vals.append(sc.three_photon_probability(t))
        assert abs(vals[1] - vals[0]) <= 0.02 * abs(vals[0])

    def test_box_length_independence_both_directions(self):
        # both directions at spacings 0.35 gamma and 0.175 gamma
        gamma = 0.01
        vals = []
        for n in (800, 1600):
            g = modes.build_waveguide_grid(n, 1.4, n * np.pi, 1.0,
                                           omega_min=gamma / 5)
            prof = static_1d_profile(g, gamma=gamma)
            t = sc.three_photon_coefficients(g, prof, gamma, gamma)
            vals.append(sc.three_photon_probability(t))
        assert abs(vals[1] - vals[0]) <= 0.02 * abs(vals[0])

    def test_slice_csv_header_and_values(self, tmp_path):
        # the slice CSV that a Scattering3Photon run writes holds the grid
        # and the slice_spectrum of the mode nearest the requested frequency
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "scenario": "Scattering3Photon",
            "scattering": {"gamma": 0.01, "n_modes": 60, "slice_omegas": [0.5]}}))
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
        with open(tmp_path / "out" / "three_photon_slice_0.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["omega_j", "weight"]
        vals = np.array([[float(c) for c in row] for row in rows[1:]])
        tensor = cli._three_photon_tensor(60, OMEGA_E, 0.01, 0.01)
        l = int(np.argmin(np.abs(tensor.grid.omega - 0.5)))
        assert vals.shape == (tensor.n_modes, 2)
        assert np.array_equal(vals[:, 0], tensor.grid.omega)
        assert np.array_equal(vals[:, 1], tensor.slice_spectrum(l))


def dense_marginal(tensor):
    """sum_{k,l} |sym_jkl|^2 over modes j, from the dense tensor."""
    _, sym = dense_tensors(tensor)
    return np.sum(np.abs(sym) ** 2, axis=(1, 2))


# random box lattices: m modes per direction, band top, bottom / top, linewidths
lattices = given(st.integers(1, 10), st.sampled_from(["both", "positive"]),
                 st.floats(0.4, 1.6), st.floats(0.0, 0.3),
                 st.floats(0.005, 0.2), st.floats(0.005, 0.2), st.data())


def lattice_tensor(m, directions, top, bottom, gamma, gamma_prime, data):
    n = 2 * m if directions == "both" else m
    g = modes.build_waveguide_grid(n, top, n * np.pi, 1.0,
                                   omega_min=bottom * top,
                                   directions=directions)
    g = permuted_grid(g, np.array(data.draw(st.permutations(range(n)))))
    prof = static_1d_profile(g, gamma=gamma)
    t = sc.three_photon_coefficients(g, prof, gamma, gamma_prime)
    assert t._n is not None
    return t


class TestSpectrum:
    """The convolution spectra behind the |sym|^2 reductions."""

    @settings(max_examples=30, deadline=None)
    @lattices
    def test_matches_dense_sums(self, m, directions, top, bottom, gamma,
                                gamma_prime, data):
        t = lattice_tensor(m, directions, top, bottom, gamma, gamma_prime, data)
        # a cut half way between two distinct distances |Omega_s - omega_e|,
        # so that no total frequency sits on it up to rounding
        s = np.arange(3 * t._n.min(), 3 * t._n.max() + 1)
        d = np.sort(np.abs(t._domega * s - OMEGA_E))
        gaps = np.flatnonzero(np.diff(d) > 1e-9 * t._domega)
        cuts = np.append((d[gaps] + d[gaps + 1]) / 2, d[-1] + t._domega)
        cut = cuts[data.draw(st.integers(0, len(cuts) - 1))]
        p3, frac, mean = dense_reductions(t, cut)
        assert sc.three_photon_probability(t) == pytest.approx(p3, rel=1e-12, abs=0)
        assert t.mass_fraction_within(cut) == pytest.approx(frac, rel=1e-12, abs=0)
        assert t.mean_total_frequency() == pytest.approx(mean, rel=1e-12, abs=0)

    @settings(max_examples=30, deadline=None)
    @lattices
    def test_marginal_matches_dense_sums(self, m, directions, top, bottom,
                                         gamma, gamma_prime, data):
        t = lattice_tensor(m, directions, top, bottom, gamma, gamma_prime, data)
        omega, w = t.marginal_spectrum()
        idx = (t._n - t._n.min()).astype(int)
        ref = np.bincount(idx, dense_marginal(t), omega.size)
        assert np.allclose(omega[idx], t.grid.omega, rtol=1e-12, atol=0)
        assert np.max(np.abs(w - ref)) <= 1e-12 * np.max(ref)
        # against the dense total, as total_sym_weight() is checked in
        # test_matches_dense_sums
        assert np.sum(w) == pytest.approx(np.sum(ref), rel=1e-12, abs=0)

    def test_slice_matches_row_sums(self):
        # every slice of a 240-mode lattice, including the off-shell ones
        # above omega_e, whose pole weights span six decades
        g = modes.build_waveguide_grid(240, 1.05, 240 * np.pi, 1.0,
                                       omega_min=0.002)
        prof = static_1d_profile(g, gamma=0.01)
        t = sc.three_photon_coefficients(g, prof, 0.01, 0.01)
        assert t._lattice is not None
        for l in range(g.n_modes):
            ref = np.sum(np.abs(t.sym_slice(l)) ** 2, axis=1)
            assert np.max(np.abs(t.slice_spectrum(l) - ref)) <= 1e-12 * np.max(ref), l

    def test_fft_matches_direct_convolution(self):
        gamma = 0.01
        g = modes.build_waveguide_grid(700, 1.05, 700 * np.pi, 1.0,
                                       omega_min=gamma / 5)
        prof = static_1d_profile(g, gamma=gamma)
        t = sc.three_photon_coefficients(g, prof, gamma, gamma)
        total_omega, w = t.spectrum
        # the same identity with exact O(n^2) convolutions
        idx = (t._n - t._n.min()).astype(int)
        a = np.abs(t.eta) ** 2
        au = a * t._u
        A = np.bincount(idx, a)
        Au2 = np.bincount(idx, a * np.abs(t._u) ** 2)
        Au = np.bincount(idx, au.real) + 1j * np.bincount(idx, au.imag)
        conv = (3.0 * np.convolve(np.convolve(Au2, A), A)
                + 6.0 * np.convolve(np.convolve(Au, np.conj(Au)), A).real)
        s = 3 * t._n.min() + np.arange(conv.size)
        d3 = t._domega * s - t.omega_e
        W = 1.0 / ((1j * d3 - t.gamma / 2) * (1j * d3 - t.gamma_prime / 2))
        ref = t._pref ** 2 * np.abs(W) ** 2 * conv / 9.0
        assert np.array_equal(total_omega, t._domega * s)
        assert np.all(ref > 0)
        assert np.max(np.abs(w - ref)) <= 1e-12 * np.max(ref)
        big = ref > 1e-6 * np.max(ref)
        assert np.allclose(w[big], ref[big], rtol=1e-11, atol=0)
        # the far tail too, where a float64 FFT was off by 6e-5 per entry
        assert np.allclose(w, ref, rtol=1e-6, atol=0)
        assert np.sum(w) == pytest.approx(np.sum(ref), rel=1e-12, abs=0)

    def test_extended_precision_is_wider_than_float64(self):
        # the lattice spectra are accurate to 1e-12 of P3 only because
        # _fft_ext transforms in np.longdouble; where that is float64 (as on
        # some non-x86 platforms) they keep the float64 FFT's round-off
        assert np.finfo(np.longdouble).nmant > np.finfo(np.float64).nmant
        assert sc._fft_ext([np.ones(3)], 4).dtype == np.clongdouble

    def test_next_fast_len_matches_scipy(self):
        assert [sc._next_fast_len(n) for n in range(1, 5001)] == \
            [next_fast_len(n) for n in range(1, 5001)]

    @pytest.mark.parametrize("freqs, cut", [
        # irrational frequencies: off the lattice
        (np.sqrt([0.03, 0.07, 0.13, 0.19, 0.29, 0.41]), 0.25),
        # on the lattice, but its index span dwarfs the triple count
        (np.array([1.0, 2.0, 3e5]), 2.5),
    ], ids=["irrational", "sparse-lattice"])
    def test_direct_sum(self, freqs, cut):
        g = modes.few_mode_waveguide_grid(freqs)
        prof = static_1d_profile(g, gamma=0.05)
        t = sc.three_photon_coefficients(g, prof, 0.05, 0.08)
        total_omega, w = t.spectrum
        assert total_omega.size == w.size == g.n_modes ** 3
        assert t._lattice is None
        s2 = np.abs(dense_tensors(t)[1]) ** 2
        omega, marginal = t.marginal_spectrum()
        assert np.array_equal(omega, g.omega)
        assert np.allclose(marginal, dense_marginal(t), rtol=1e-12, atol=0)
        for l in range(g.n_modes):
            assert np.allclose(t.slice_spectrum(l), np.sum(s2[:, :, l], axis=1),
                               rtol=1e-12, atol=0)
        p3, frac, mean = dense_reductions(t, cut)
        assert 0.0 < frac < 1.0
        assert sc.three_photon_probability(t) == pytest.approx(p3, rel=1e-12, abs=0)
        assert t.mass_fraction_within(cut) == pytest.approx(frac, rel=1e-12, abs=0)
        assert t.mean_total_frequency() == pytest.approx(mean, rel=1e-12, abs=0)


class TestWindowEdge:
    """A total frequency on the window edge counts as inside, on both paths."""

    def test_tie_counted_inclusively(self):
        # right-movers at n * domega, n = 1, 2, 3 with domega = 0.4/3; omega_e
        # = 7.5 domega and the cut 2.5 domega put s = 5 exactly on the edge
        lattice = modes.build_waveguide_grid(3, 0.4, 6 * np.pi, 1.0,
                                             directions="positive")
        domega = 0.4 / 3
        assert OMEGA_E == pytest.approx(7.5 * domega)
        n = np.array([1, 2, 3])
        assert np.allclose(lattice.omega, n * domega, rtol=1e-14, atol=0)
        s = n[:, None, None] + n[None, :, None] + n[None, None, :]
        inclusive = np.abs(2 * s - 15) <= 5
        strict = np.abs(2 * s - 15) < 5
        # the same frequencies off the lattice take the direct triple sum
        direct = modes.few_mode_waveguide_grid(lattice.omega, directions=(1,))
        for g in (lattice, direct):
            prof = static_1d_profile(g, gamma=0.05)
            t = sc.three_photon_coefficients(g, prof, 0.05, 0.08)
            assert (t._n is None) == (g is direct)
            s2 = np.abs(dense_tensors(t)[1]) ** 2
            expected = np.sum(s2[inclusive]) / np.sum(s2)
            assert np.sum(s2[strict]) / np.sum(s2) < expected * (1 - 1e-6)
            assert t.mass_fraction_within(2.5 * domega) == pytest.approx(
                expected, rel=1e-12)
