
import numpy as np
import pytest

from vacuum_shake import modes
from vacuum_shake.errors import ConfigError, DomainError


class TestWaveguideGrid:
    def test_basic_lattice(self):
        g = modes.build_waveguide_grid(4, 2.0, 4.0 * np.pi, 1.0)
        ks = np.sort(np.abs(g.wavevectors[:, 0]))
        assert np.allclose(np.diff(np.unique(ks)), 0.5)  # dk = 2 pi / L
        assert sorted(set(g.omega.round(12))) == [1.0, 2.0]
        assert g.c == pytest.approx(2.0)
        # one mode per delta-k in each direction
        assert np.all(g.weight == 1.0)

    def test_minimal_grid(self):
        g = modes.build_waveguide_grid(2, 1.0, 2.0 * np.pi, 1.0)
        assert g.n_modes == 2
        assert np.allclose(g.omega, 1.0)
        assert sorted(g.direction_signs) == [-1, 1]

    def test_band_mode_count_matches_analytic(self):
        g = modes.build_waveguide_grid(64, 2.0, 64.0 * np.pi, 1.0)
        counted = np.count_nonzero(g.omega <= 2.0)
        analytic = 2.0 * modes.density_of_states(g, 1.0)  # flat over (0, 2]
        assert abs(counted - analytic) <= 1.0

    def test_banded_grid(self):
        g = modes.build_waveguide_grid(100, 1.02, 200.0 * np.pi, 1.0,
                                       omega_min=0.98)
        assert g.omega.min() > 0.98
        assert g.omega.max() == pytest.approx(1.02)
        # omega = c |k| exactly on the lattice
        assert np.allclose(g.omega, g.c * np.abs(g.wavevectors[:, 0]), rtol=0,
                           atol=1e-14)

    def test_positive_only(self):
        g = modes.build_waveguide_grid(5, 1.0, 10.0 * np.pi, 1.0,
                                       directions="positive")
        assert g.n_modes == 5
        assert np.all(g.direction_signs == 1)

    @pytest.mark.parametrize("bad", [
        dict(n_modes=3, omega_max=1.0, L=1.0, A=1.0),
        dict(n_modes=4, omega_max=-1.0, L=1.0, A=1.0),
        dict(n_modes=4, omega_max=1.0, L=0.0, A=1.0),
        dict(n_modes=4, omega_max=1.0, L=1.0, A=-2.0),
    ])
    def test_invalid_config(self, bad):
        with pytest.raises(ConfigError):
            modes.build_waveguide_grid(**bad)

    def test_deterministic(self):
        a = modes.build_waveguide_grid(10, 1.5, 17.0, 2.0)
        b = modes.build_waveguide_grid(10, 1.5, 17.0, 2.0)
        assert np.array_equal(a.omega, b.omega)
        assert np.array_equal(a.wavevectors, b.wavevectors)
        assert np.array_equal(a.weight, b.weight)


class TestFreespaceQuadrature:
    def test_volume_sum(self):
        g = modes.build_freespace_quadrature(2, 6, 6, 1.0, 1.0)
        assert np.sum(g.weight[::2]) == pytest.approx(4.0 * np.pi / 3.0,
                                                      abs=1e-10)

    def test_k_squared_exact(self):
        g = modes.build_freespace_quadrature(3, 6, 6, 1.0, 1.0)
        k = np.linalg.norm(g.wavevectors[::2], axis=1)
        val = np.sum(g.weight[::2] * k**2)
        assert val == pytest.approx(4.0 * np.pi / 5.0, abs=1e-10)

    def test_polarization_sum_isotropy(self):
        # sum over directions and polarizations of (dhat.eps)^2 with the
        # angular weights alone gives 8 pi / 3 for any dhat
        g = modes.build_freespace_quadrature(1, 20, 12, 1.0, 1.0)
        dhat = np.array([0.3, -0.5, 0.8])
        dhat /= np.linalg.norm(dhat)
        total = 0.0
        for i, d in enumerate(g.angular_directions):
            e1, e2 = modes._polarization_pair(d)
            total += g.angular_weights[i] * ((dhat @ e1) ** 2 + (dhat @ e2) ** 2)
        assert total == pytest.approx(8.0 * np.pi / 3.0, abs=1e-10)

    def test_polarization_completeness(self):
        g = modes.build_freespace_quadrature(2, 8, 8, 1.0, 1.0)
        khat = g.wavevectors[::2]
        khat = khat / np.linalg.norm(khat, axis=1, keepdims=True)
        e1, e2 = g.polarizations[::2], g.polarizations[1::2]
        outer = (np.einsum("na,nb->nab", e1, e1)
                 + np.einsum("na,nb->nab", e2, e2)
                 + np.einsum("na,nb->nab", khat, khat))
        assert np.max(np.abs(outer - np.eye(3))) < 1e-12

    def test_quadrature_doubling_converges(self):
        # smooth band functional changes below tolerance when counts double
        def functional(g):
            k = np.linalg.norm(g.wavevectors[::2], axis=1)
            mu = g.wavevectors[::2, 2] / k
            return np.sum(g.weight[::2] * np.exp(-k) * (1 + 0.5 * mu**2))

        coarse = functional(modes.build_freespace_quadrature(8, 8, 8, 1.0, 1.0))
        fine = functional(modes.build_freespace_quadrature(16, 16, 16, 1.0, 1.0))
        finest = functional(modes.build_freespace_quadrature(32, 32, 32, 1.0, 1.0))
        assert abs(fine - finest) < abs(coarse - finest) + 1e-14
        assert abs(fine - finest) < 1e-10

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            modes.build_freespace_quadrature(2, 2, 2, -1.0, 1.0)


def old_freespace_arrays(n_radial, n_polar, n_azimuthal, omega_max, c=1.0):
    """The free-space grid arrays filled node by node (the loop form)."""
    k_max = omega_max / c
    xr, wr = np.polynomial.legendre.leggauss(n_radial)
    k_nodes, k_w = 0.5 * k_max * (xr + 1.0), 0.5 * k_max * wr
    mu, wmu = np.polynomial.legendre.leggauss(n_polar)
    phi = (np.arange(n_azimuthal) + 0.5) * (2.0 * np.pi / n_azimuthal)
    wphi = 2.0 * np.pi / n_azimuthal
    sin_th = np.sqrt(1.0 - mu**2)
    dirs, ang_w = [], []
    for i in range(n_polar):
        for j in range(n_azimuthal):
            dirs.append([sin_th[i] * np.cos(phi[j]),
                         sin_th[i] * np.sin(phi[j]), mu[i]])
            ang_w.append(wmu[i] * wphi)
    omega, weight, kvecs, pols = [], [], [], []
    for k, wk in zip(k_nodes, k_w):
        for d, aw in zip(dirs, ang_w):
            d = np.asarray(d)
            for eps in modes._polarization_pair(d):
                omega.append(c * k)
                weight.append(wk * k**2 * aw)
                kvecs.append(k * d)
                pols.append(eps)
    return {"omega": omega, "weight": weight, "wavevectors": kvecs,
            "polarizations": pols, "angular_directions": dirs,
            "angular_weights": ang_w}


class TestVectorisedFrames:
    def test_polarization_pair_rows(self):
        rng = np.random.default_rng(7)
        khat = rng.normal(size=(50, 3))
        khat = np.vstack([khat / np.linalg.norm(khat, axis=1, keepdims=True),
                          [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]])
        e1, e2 = modes._polarization_pair(khat)
        assert e1.shape == e2.shape == khat.shape
        for i, k in enumerate(khat):
            r1, r2 = modes._polarization_pair(k)
            np.testing.assert_allclose(e1[i], r1, rtol=0, atol=1e-15)
            np.testing.assert_allclose(e2[i], r2, rtol=0, atol=1e-15)
        # along +-z the frame falls back to eps1 = x, eps2 = khat x x = +-y
        np.testing.assert_array_equal(e1[-2:], [[1, 0, 0], [1, 0, 0]])
        np.testing.assert_array_equal(e2[-2:], [[0, 1, 0], [0, -1, 0]])

    @pytest.mark.parametrize("counts", [(1, 1, 1), (2, 3, 5), (3, 6, 4),
                                        (8, 24, 12)])
    def test_grid_matches_node_loop(self, counts):
        g = modes.build_freespace_quadrature(*counts, 1.7, 2.0, c=0.8)
        ref = old_freespace_arrays(*counts, 1.7, c=0.8)
        for name, expected in ref.items():
            np.testing.assert_allclose(getattr(g, name), np.asarray(expected),
                                       rtol=1e-15, atol=1e-15, err_msg=name)

    @pytest.mark.parametrize("counts", [(1, 3, 4), (8, 24, 12), (5, 7, 1)])
    def test_first_shell_holds_the_direction_frames(self, counts):
        # radius-major layout: the rate integrals read the frames of every
        # angular direction from the grid's first radial shell
        g = modes.build_freespace_quadrature(*counts, 2.0, 1.0)
        dirs = g.angular_directions
        expected = np.stack(modes._polarization_pair(dirs), axis=1).reshape(-1, 3)
        np.testing.assert_array_equal(g.polarizations[:2 * len(dirs)], expected)


class TestGaussLegendre:
    @pytest.mark.parametrize("n", [1, 8, 24, 48])
    def test_equals_leggauss(self, n):
        nodes, weights = modes.gauss_legendre(n)
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
        np.testing.assert_array_equal(nodes, ref_nodes)
        np.testing.assert_array_equal(weights, ref_weights)

    def test_read_only_and_shared(self):
        nodes, weights = modes.gauss_legendre(8)
        for arr in (nodes, weights):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        again = modes.gauss_legendre(8)
        assert again[0] is nodes and again[1] is weights


def test_geometry_dict_matches_json(small_waveguide, freespace_grid):
    assert small_waveguide.geometry_dict() == {
        "kind": "Waveguide1D", "c": 2.0, "length": 4.0 * np.pi, "area": 1.0}
    assert freespace_grid.geometry_dict() == {
        "kind": "FreeSpace3D", "c": 1.0, "volume": (2.0 * np.pi) ** 3}


class TestDensityOfStates:
    def test_waveguide_uniform(self):
        g = modes.build_waveguide_grid(8, 2.0, 8.0 * np.pi, 1.0)
        rho = modes.density_of_states(g, 1.0)
        # L/(2 pi c) per direction, both directions included
        assert rho == pytest.approx(g.geometry.length / (np.pi * g.c))
        assert modes.density_of_states(g, 0.5) == pytest.approx(rho)

    def test_freespace_omega_squared(self):
        g = modes.build_freespace_quadrature(4, 4, 4, 2.0, 1.0)
        r1 = modes.density_of_states(g, 0.5)
        r2 = modes.density_of_states(g, 1.0)
        assert r2 / r1 == pytest.approx(4.0)

    def test_out_of_band(self):
        g = modes.build_waveguide_grid(8, 2.0, 8.0 * np.pi, 1.0)
        with pytest.raises(DomainError):
            modes.density_of_states(g, 5.0)

    def test_histogram_regression(self):
        # mode count per frequency band tracks the analytic density within 2%;
        # band-restricted partial sums of a global Gauss rule converge only
        # linearly in the radial count, hence the fine radial grid here
        g = modes.build_freespace_quadrature(256, 16, 8, 2.0, V=(2 * np.pi) ** 3)
        from scipy.integrate import quad
        for lo, hi in [(0.0, 0.5), (0.5, 1.0), (1.0, 1.5), (1.5, 2.0)]:
            # bare d^3k weights times the box-counting density
            sel = (g.omega >= lo) & (g.omega <= hi)
            counted = np.sum(g.weight[sel]) * g.geometry.volume / (2 * np.pi) ** 3
            analytic, _ = quad(lambda w: modes.density_of_states(g, w),
                               max(lo, g.omega_min), hi)
            assert counted == pytest.approx(analytic, rel=0.02)
