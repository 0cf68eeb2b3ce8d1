"""Discretized electromagnetic mode sets for a 1D waveguide and 3D free space.

A :class:`ModeGrid` approximates the field continuum by a finite, ordered set
of modes with quadrature weights.  Two conventions are used, matching the
natural bookkeeping of each geometry:

* **1D waveguide** -- box quantization.  Modes sit on the wavenumber lattice
  ``k = j * 2*pi/L`` and every retained mode carries weight 1, so plain sums
  over modes are already continuum sums ``(L/2pi) * integral dk``.  The speed
  of light is derived from the requested band so that the lattice tiles
  ``(omega_min, omega_max]`` exactly.
* **3D free space** -- product quadrature (Gauss-Legendre radial and polar,
  uniform azimuthal) over the ball ``|k| <= omega_max/c``.  Weights carry the
  bare ``d^3k`` measure including the ``k^2`` Jacobian; the box-counting
  density ``V/(2pi)^3`` is applied by consumers (see
  :func:`density_of_states`), which keeps the quantization volume visible.
  Its angular part, :func:`angular_rule`, is tiled over the radial shells;
  the golden-rule rates of :mod:`radiation` sum over that rule alone.

Grids are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CapacityError, ConfigError, DomainError

__all__ = [
    "Waveguide1D",
    "FreeSpace3D",
    "ModeGrid",
    "build_waveguide_grid",
    "few_mode_waveguide_grid",
    "build_freespace_quadrature",
    "angular_rule",
    "density_of_states",
    "gauss_legendre",
]

#: modes with omega below this multiple of the band top are considered
#: infrared-divergence hazards and are excluded at construction time
DEFAULT_OMEGA_MIN_FRACTION = 1e-6


class _Geometry:
    def as_dict(self) -> dict:
        """Kind, c and box size, as written to run summaries."""
        return {"kind": type(self).__name__, **vars(self)}


@dataclass(frozen=True)
class Waveguide1D(_Geometry):
    """One-dimensional waveguide of length ``length`` and cross-section ``area``."""

    length: float
    area: float
    c: float = 1.0


@dataclass(frozen=True)
class FreeSpace3D(_Geometry):
    """Three-dimensional free space with quantization volume ``volume``."""

    volume: float
    c: float = 1.0


@dataclass(frozen=True)
class ModeGrid:
    """Immutable discretized mode set with quadrature weights.

    Array fields are index-aligned: entry ``i`` of ``omega``/``weight``/
    ``wavevectors``/... describes mode ``i``.

    3D modes are radius-major: mode ``i`` is (radius, direction,
    polarization) with polarization fastest, and every radial shell carries
    the nodes of the same :func:`angular_rule`, in its order.
    """

    geometry: object
    omega: np.ndarray
    weight: np.ndarray
    wavevectors: np.ndarray          # (n, dim)
    polarizations: Optional[np.ndarray]  # (n, 3) or None in 1D
    direction_signs: Optional[np.ndarray]  # (n,) ints or None in 3D
    omega_min: float
    omega_max: float

    def __post_init__(self):
        for name in ("omega", "weight", "wavevectors", "polarizations",
                     "direction_signs"):
            if getattr(self, name) is not None:
                getattr(self, name).setflags(write=False)

    @property
    def n_modes(self) -> int:
        return len(self.omega)

    @property
    def is_waveguide(self) -> bool:
        return isinstance(self.geometry, Waveguide1D)

    @property
    def c(self) -> float:
        return self.geometry.c


def build_waveguide_grid(
    n_modes: int,
    omega_max: float,
    L: float,
    A: float,
    *,
    omega_min: float = 0.0,
    directions: str = "both",
) -> ModeGrid:
    """Build a box-quantized 1D waveguide grid tiling ``(omega_min, omega_max]``.

    ``n_modes`` modes are placed on the lattice ``k = j * 2*pi/L`` (split
    equally between right- and left-movers when ``directions == "both"``) and
    the effective speed of light is derived so that the requested band is
    tiled exactly: ``c = delta_omega / delta_k``.  Each mode carries weight 1
    (one mode per ``delta_k = 2*pi/L`` in the box-counting convention).

    The band is half open, so a frequency that falls on a node has one more
    mode above it than below it per direction: with ``omega_min`` and
    ``omega_max`` symmetric about a resonance on a node (``m`` modes per
    direction, ``m`` even) there are ``m/2 - 1`` modes below it and ``m/2``
    above.  Build a band symmetric about the resonance by hand where that
    surplus mode matters.

    ``directions="positive"`` keeps only right-movers; this is an analysis
    convenience for spectra that are symmetric under direction reversal.
    """
    if L <= 0 or A <= 0 or omega_max <= 0:
        raise ConfigError("L, A and omega_max must all be positive")
    if omega_min < 0 or omega_min >= omega_max:
        raise ConfigError("need 0 <= omega_min < omega_max")
    if directions not in ("both", "positive"):
        raise ConfigError(f"unknown directions option {directions!r}")
    if directions == "both":
        if n_modes < 2 or n_modes % 2:
            raise ConfigError("n_modes must be an even integer >= 2")
        m = n_modes // 2
    else:
        if n_modes < 1:
            raise ConfigError("n_modes must be >= 1")
        m = n_modes

    dk = 2.0 * np.pi / L
    domega = (omega_max - omega_min) / m
    c = domega / dk
    # snap the band bottom onto the lattice so omega = c|k| holds exactly
    j0 = int(round(omega_min / domega))
    ks = (j0 + np.arange(1, m + 1)) * dk
    omegas = c * ks
    eff_min = omegas[0] - domega

    if omegas[0] <= omega_max * DEFAULT_OMEGA_MIN_FRACTION:
        raise ConfigError(
            "lowest mode falls below the infrared cutoff; raise omega_min or n_modes"
        )

    signs = [1, -1] if directions == "both" else [1]
    omega_all, k_all, sign_all = [], [], []
    for s in signs:
        omega_all.append(omegas)
        k_all.append(s * ks)
        sign_all.append(np.full(m, s, dtype=int))
    omega_arr = np.concatenate(omega_all)
    k_arr = np.concatenate(k_all).reshape(-1, 1)
    sign_arr = np.concatenate(sign_all)

    return ModeGrid(
        geometry=Waveguide1D(length=L, area=A, c=c),
        omega=omega_arr,
        weight=np.ones_like(omega_arr),
        wavevectors=k_arr,
        polarizations=None,
        direction_signs=sign_arr,
        omega_min=float(eff_min),
        omega_max=float(omegas[-1]),
    )


def few_mode_waveguide_grid(freqs, c: float = 1.0, L: float = 2.0 * np.pi,
                            directions=(1, -1)) -> ModeGrid:
    """Waveguide grid on the given mode frequencies, off the box lattice.

    Each frequency carries one mode per entry of ``directions`` (in that
    order, frequency major), with wavevector ``sign * omega / c`` and weight
    1.  Meant for few-mode Fock-space scenarios, where the modes are chosen
    by hand rather than tiled over a band.
    """
    freqs = np.asarray(freqs, dtype=float)
    signs = np.tile(np.asarray(directions, dtype=int), len(freqs))
    omega = np.repeat(freqs, len(directions))
    return ModeGrid(
        geometry=Waveguide1D(length=L, area=1.0, c=c),
        omega=omega,
        weight=np.ones(len(omega)),
        wavevectors=(signs * omega / c).reshape(-1, 1),
        polarizations=None,
        direction_signs=signs,
        omega_min=float(freqs.min()),
        omega_max=float(freqs.max()),
    )


#: Largest Gauss-Legendre order: the rule's eigensystem holds two n x n
#: arrays (8 MB each at this order) and takes 0.17-0.26 s on 2 vCPUs.
RULE_ORDER_CAP = 1000
#: Most modes a free-space grid, or nodes an angular rule, may hold (about
#: 70 MB of node arrays), so that an oversized rule fails before allocation.
MODE_CAP = 1_000_000


@functools.lru_cache(maxsize=None)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ``n``-point Gauss-Legendre rule on [-1, 1].

    Golub & Welsch, Math. Comp. 23, 221 (1969): the nodes are the
    eigenvalues of the Jacobi matrix of the Legendre recurrence (zero
    diagonal, off-diagonal k / sqrt(4 k^2 - 1) for k = 1 .. n-1) and the
    weights are 2 v_0^2 from its unit eigenvectors, both symmetrised about
    0.  Equal to numpy's ``leggauss`` to rounding.  Built once per order and
    shared by every caller in the process: both arrays are read-only.  The
    cache keeps one rule (2 n floats) per order asked for.  Raises
    :class:`CapacityError` above ``RULE_ORDER_CAP``, before building the rule.
    """
    if n > RULE_ORDER_CAP:
        raise CapacityError(
            f"Gauss-Legendre order {n} exceeds the cap {RULE_ORDER_CAP}"
        )
    k = np.arange(1.0, n)
    beta = k / np.sqrt(4.0 * k * k - 1.0)
    x, v = np.linalg.eigh(np.diag(beta, -1))  # eigh reads the lower triangle
    w = 2.0 * v[0] ** 2
    nodes = 0.5 * (x - x[::-1])
    weights = 0.5 * (w + w[::-1])
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def _polarization_pair(khat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic transverse frame: eps1 = z x khat normalized, eps2 = khat x eps1.

    ``khat`` is one unit vector (3,) or a stack of them (m, 3); both frame
    vectors have its shape.  Where khat lies along z, eps1 falls back to x.
    """
    khat = np.asarray(khat, dtype=float)
    e1 = np.cross([0.0, 0.0, 1.0], khat)
    n1 = np.linalg.norm(e1, axis=-1, keepdims=True)
    # khat along z: Gauss nodes avoid this, but callers may pass any unit vector
    along_z = n1 < 1e-12
    e1 = np.where(along_z, [1.0, 0.0, 0.0], e1 / np.where(along_z, 1.0, n1))
    e2 = np.cross(khat, e1)
    return e1, e2


def angular_rule(n_polar: int, n_azimuthal: int
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Direction, polarization) nodes ``(khat, eps, weight)`` on the unit
    sphere: (2 m, 3), (2 m, 3) and (2 m,) arrays, m = n_polar n_azimuthal.

    Directions are Gauss-Legendre in ``cos(theta)`` (polar-major) times the
    uniform azimuthal rule (exact for trigonometric polynomials up to degree
    ``n_azimuthal - 1``).  Each direction has two nodes, polarization
    fastest, with the frame (eps1, eps2) of :func:`_polarization_pair` and
    both carrying the direction's weight, so ``weight[::2]`` sums to 4 pi.
    Raises :class:`CapacityError` above ``MODE_CAP`` nodes before allocating
    anything, or above ``RULE_ORDER_CAP`` polar nodes before building them.
    """
    if n_polar < 1 or n_azimuthal < 1:
        raise ConfigError("all quadrature counts must be >= 1")
    n_nodes = 2 * n_polar * n_azimuthal
    if n_nodes > MODE_CAP:
        raise CapacityError(
            f"angular rule of {n_nodes} nodes exceeds the cap {MODE_CAP}"
        )
    mu, wmu = gauss_legendre(n_polar)  # mu = cos(theta)
    phi = (np.arange(n_azimuthal) + 0.5) * (2.0 * np.pi / n_azimuthal)
    wphi = 2.0 * np.pi / n_azimuthal

    sin_th = np.repeat(np.sqrt(1.0 - mu**2), n_azimuthal)
    az = np.tile(phi, n_polar)
    dirs = np.stack([sin_th * np.cos(az), sin_th * np.sin(az),
                     np.repeat(mu, n_azimuthal)], axis=1)
    khat = np.repeat(dirs, 2, axis=0)
    eps = np.stack(_polarization_pair(dirs), axis=1).reshape(-1, 3)
    _check_polarization_completeness(khat, eps)
    return khat, eps, np.repeat(np.repeat(wmu, n_azimuthal) * wphi, 2)


def _check_polarization_completeness(khat: np.ndarray, eps: np.ndarray,
                                     tol: float = 1e-12):
    """Assert sum_s eps_a eps_b = delta_ab - khat_a khat_b for every direction
    of a rule's nodes, (2 m, 3) arrays with polarization fastest."""
    frames = np.stack([khat[0::2], eps[0::2], eps[1::2]], axis=1)
    err = np.max(np.abs(np.einsum("nsa,nsb->nab", frames, frames) - np.eye(3)))
    if err > tol:
        raise ConfigError(f"polarization frame not complete: max deviation {err:.3e}")


def build_freespace_quadrature(
    n_radial: int,
    n_polar: int,
    n_azimuthal: int,
    omega_max: float,
    V: float,
    *,
    c: float = 1.0,
) -> ModeGrid:
    """Product quadrature for the ball ``|k| <= omega_max/c`` in 3D free space.

    Gauss-Legendre on ``[0, k_max]`` times the (direction, polarization)
    nodes of :func:`angular_rule` on every radial shell.  Weights carry the
    full ``k^2 dk dcos(theta) dphi`` measure, so ``sum_i w_i f(k_i)`` over
    distinct wavevector nodes approximates ``integral d^3k f(k)``.  Raises
    :class:`CapacityError` when the grid would hold more than ``MODE_CAP``
    modes, before allocating anything, and when a rule order exceeds
    ``RULE_ORDER_CAP``, before building that rule.
    """
    if omega_max <= 0 or V <= 0 or c <= 0:
        raise ConfigError("omega_max, V and c must be positive")
    if n_radial < 1 or n_polar < 1 or n_azimuthal < 1:
        raise ConfigError("all quadrature counts must be >= 1")
    n_modes = 2 * n_radial * n_polar * n_azimuthal
    if n_modes > MODE_CAP:
        raise CapacityError(
            f"free-space grid of {n_modes} modes exceeds the cap {MODE_CAP}"
        )

    k_max = omega_max / c
    xr, wr = gauss_legendre(n_radial)
    k_nodes = 0.5 * k_max * (xr + 1.0)
    k_w = 0.5 * k_max * wr
    khat, eps, ang_w = angular_rule(n_polar, n_azimuthal)

    # mode index = (radius, direction, polarization)
    omega = np.repeat(c * k_nodes, len(khat))
    return ModeGrid(
        geometry=FreeSpace3D(volume=V, c=c),
        omega=omega,
        weight=((k_w * k_nodes**2)[:, None] * ang_w).ravel(),
        wavevectors=(k_nodes[:, None, None] * khat).reshape(-1, 3),
        polarizations=np.tile(eps, (n_radial, 1)),
        direction_signs=None,
        omega_min=float(omega.min()),
        omega_max=float(omega_max),
    )


def density_of_states(grid: ModeGrid, omega: float) -> float:
    """Total modal density dN/domega of the grid's geometry at ``omega``.

    Includes all propagation directions and polarizations:
    ``L/(pi*c)`` for the waveguide (``L/(2*pi*c)`` per direction) and
    ``V*omega^2/(pi^2*c^3)`` in free space (``V*omega^2/(2*pi^2*c^3)`` per
    polarization).  :func:`scattering.gamma_from_coupling` reads the
    waveguide's density at resonance from it.
    """
    if not (grid.omega_min <= omega <= grid.omega_max):
        raise DomainError(
            f"omega={omega} outside grid band [{grid.omega_min}, {grid.omega_max}]"
        )
    if grid.is_waveguide:
        g = grid.geometry
        # not np.unique, whose first call imports numpy.ma (about 10 ms)
        n_dirs = len(set(grid.direction_signs.tolist()))
        return n_dirs * g.length / (2.0 * np.pi * g.c)
    g = grid.geometry
    return g.volume * omega**2 / (np.pi**2 * g.c**3)
