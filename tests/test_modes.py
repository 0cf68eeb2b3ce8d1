import numpy as np
import pytest

from vacuum_shake import coupling as cp
from vacuum_shake import modes, scattering
from vacuum_shake.errors import CapacityError, ConfigError, DomainError

from conftest import angular_rule, node_grid_3d


class TestWaveguideGrid:
    def test_basic_lattice(self):
        g = modes.build_waveguide_grid(4, 2.0, 4.0 * np.pi, 1.0)
        ks = np.sort(np.abs(g.wavevectors[:, 0]))
        assert np.allclose(np.diff(np.unique(ks)), 0.5)  # dk = 2 pi / L
        assert sorted(set(g.omega.round(12))) == [1.0, 2.0]
        assert g.c == pytest.approx(2.0)

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


class TestAngularRule:
    """The tests' direction rule (``conftest.angular_rule``), the reference
    of the closed-form angular sums, on the polar nodes of
    ``modes.gauss_legendre``."""

    @pytest.mark.parametrize("counts", [(1, 1), (3, 5), (24, 12)])
    def test_shapes_and_weights(self, counts):
        khat, eps, weight = angular_rule(*counts)
        n = 2 * counts[0] * counts[1]
        assert khat.shape == eps.shape == (n, 3) and weight.shape == (n,)
        # both polarizations of a direction carry its weight
        np.testing.assert_array_equal(khat[0::2], khat[1::2])
        np.testing.assert_array_equal(weight[0::2], weight[1::2])
        assert np.sum(weight[0::2]) == pytest.approx(4.0 * np.pi, rel=1e-14)

    @pytest.mark.parametrize("counts", [(1, 1), (3, 5), (24, 12)])
    def test_frames_are_complete(self, counts):
        khat, eps, _ = angular_rule(*counts)
        np.testing.assert_allclose(np.linalg.norm(khat, axis=1), 1.0,
                                   rtol=0, atol=1e-15)
        outer = (np.einsum("na,nb->nab", khat[0::2], khat[0::2])
                 + np.einsum("na,nb->nab", eps[0::2], eps[0::2])
                 + np.einsum("na,nb->nab", eps[1::2], eps[1::2]))
        np.testing.assert_allclose(outer, np.broadcast_to(np.eye(3), outer.shape),
                                   rtol=0, atol=1e-14)


class TestGaussLegendre:
    @pytest.mark.parametrize("n", range(1, 101))
    def test_equals_leggauss(self, n):
        # the Golub-Welsch rule against numpy's Newton-refined one: equal to
        # rounding (5.6e-16 and 7.3e-15 at most over these orders), and
        # exactly symmetric about 0
        nodes, weights = modes.gauss_legendre(n)
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
        np.testing.assert_allclose(nodes, ref_nodes, rtol=0, atol=1e-15)
        np.testing.assert_allclose(weights, ref_weights, rtol=0, atol=1e-14)
        np.testing.assert_array_equal(nodes, -nodes[::-1])
        np.testing.assert_array_equal(weights, weights[::-1])
        assert np.all(np.diff(nodes) > 0)

    @pytest.mark.parametrize("n", [1, 2, 7, 24, 48, 100])
    def test_integrates_monomials_exactly(self, n):
        # x^k for k <= 2n - 1 integrates to 2/(k + 1) (even k) or 0 (odd k)
        nodes, weights = modes.gauss_legendre(n)
        k = np.arange(2 * n)
        exact = np.where(k % 2 == 0, 2.0 / (k + 1), 0.0)
        np.testing.assert_allclose(weights @ nodes[:, None] ** k, exact,
                                   rtol=0, atol=1e-14)

    def test_read_only_and_shared(self):
        nodes, weights = modes.gauss_legendre(8)
        for arr in (nodes, weights):
            with pytest.raises(ValueError):
                arr[0] = 0.0
        again = modes.gauss_legendre(8)
        assert again[0] is nodes and again[1] is weights


class TestCapacity:
    def test_rule_order_over_the_cap(self, no_large_rules):
        with pytest.raises(CapacityError, match="order 1001"):
            modes.gauss_legendre(modes.RULE_ORDER_CAP + 1)


def test_geometry_dict_matches_json(small_waveguide):
    assert small_waveguide.geometry.as_dict() == {
        "kind": "Waveguide1D", "c": 2.0, "length": 4.0 * np.pi, "area": 1.0}
    assert modes.FreeSpace3D((2.0 * np.pi) ** 3).as_dict() == {
        "kind": "FreeSpace3D", "c": 1.0, "volume": (2.0 * np.pi) ** 3}


def _immutables():
    grid = modes.build_waveguide_grid(4, 2.0, 4.0 * np.pi, 1.0)
    return {
        "Waveguide1D": grid.geometry,
        "FreeSpace3D": modes.FreeSpace3D((2.0 * np.pi) ** 3),
        "ModeGrid": grid,
        "CouplingProfile": cp.CouplingProfile.waveguide_1d(
            1.0, gamma=1e-3, L=grid.geometry.length, c=grid.c),
        "Wavepacket": scattering.lorentzian_wavepacket(grid, 0.1, -500.0, omega_e=1.0),
    }


@pytest.mark.parametrize("kind", sorted(_immutables()))
def test_immutable_objects_refuse_assignment_and_deletion(kind):
    obj = _immutables()[kind]
    assert type(obj).__name__ == kind
    before = dict(vars(obj))
    for name in [*before, "new_attribute"]:
        with pytest.raises(AttributeError):
            setattr(obj, name, 0.0)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    assert vars(obj) == before


class TestDensityOfStates:
    def test_waveguide_uniform(self):
        g = modes.build_waveguide_grid(8, 2.0, 8.0 * np.pi, 1.0)
        rho = modes.density_of_states(g, 1.0)
        # L/(2 pi c) per direction, both directions included
        assert rho == pytest.approx(g.geometry.length / (np.pi * g.c))
        assert modes.density_of_states(g, 0.5) == pytest.approx(rho)

    def test_freespace_grid_is_refused(self):
        grid = node_grid_3d(1.0, [0.0, 0.0, 1.0], [1.0, 0.0, 0.0])
        with pytest.raises(ConfigError, match="waveguide"):
            modes.density_of_states(grid, 1.0)

    def test_out_of_band(self):
        g = modes.build_waveguide_grid(8, 2.0, 8.0 * np.pi, 1.0)
        with pytest.raises(DomainError):
            modes.density_of_states(g, 5.0)
