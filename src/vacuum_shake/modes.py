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

Grids are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, DomainError

__all__ = [
    "Waveguide1D",
    "FreeSpace3D",
    "ModeGrid",
    "build_waveguide_grid",
    "few_mode_waveguide_grid",
    "build_freespace_quadrature",
    "density_of_states",
    "gauss_legendre",
]

#: modes with omega below this multiple of the band top are considered
#: infrared-divergence hazards and are excluded at construction time
DEFAULT_OMEGA_MIN_FRACTION = 1e-6


@dataclass(frozen=True)
class Waveguide1D:
    """One-dimensional waveguide of length ``length`` and cross-section ``area``."""

    length: float
    area: float
    c: float = 1.0


@dataclass(frozen=True)
class FreeSpace3D:
    """Three-dimensional free space with quantization volume ``volume``."""

    volume: float
    c: float = 1.0


@dataclass(frozen=True)
class ModeGrid:
    """Immutable discretized mode set with quadrature weights.

    Array fields are index-aligned: entry ``i`` of ``omega``/``weight``/
    ``wavevectors``/... describes mode ``i``.  ``angular_directions`` and
    ``angular_weights`` (3D only) expose the underlying angular rule so rate
    integrals can reuse it at radii that are not grid nodes.

    3D modes are radius-major: mode ``i`` is (radius, direction,
    polarization) with polarization fastest, so with ``m`` angular directions
    ``polarizations[:2 * m]`` holds the (eps1, eps2) frame of every
    direction, in the order of ``angular_directions``, and the same frames
    repeat on every radial shell.
    """

    geometry: object
    omega: np.ndarray
    weight: np.ndarray
    wavevectors: np.ndarray          # (n, dim)
    polarizations: Optional[np.ndarray]  # (n, 3) or None in 1D
    direction_signs: Optional[np.ndarray]  # (n,) ints or None in 3D
    omega_min: float
    omega_max: float
    angular_directions: Optional[np.ndarray] = None  # (m, 3) unit vectors
    angular_weights: Optional[np.ndarray] = None     # (m,), sums to 4*pi

    def __post_init__(self):
        for name in ("omega", "weight", "wavevectors"):
            getattr(self, name).setflags(write=False)
        if self.polarizations is not None:
            self.polarizations.setflags(write=False)
        if self.direction_signs is not None:
            self.direction_signs.setflags(write=False)

    @property
    def n_modes(self) -> int:
        return len(self.omega)

    @property
    def is_waveguide(self) -> bool:
        return isinstance(self.geometry, Waveguide1D)

    @property
    def c(self) -> float:
        return self.geometry.c

    def geometry_dict(self) -> dict:
        """Kind, c and box size of the geometry, as written to run summaries."""
        doc = {"kind": "Waveguide1D" if self.is_waveguide else "FreeSpace3D",
               "c": self.c}
        if self.is_waveguide:
            doc["length"] = self.geometry.length
            doc["area"] = self.geometry.area
        else:
            doc["volume"] = self.geometry.volume
        return doc


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


@functools.lru_cache(maxsize=None)
def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ``n``-point Gauss-Legendre rule on [-1, 1].

    Exactly ``np.polynomial.legendre.leggauss(n)``, built once per order and
    shared by every caller in the process: both arrays are read-only.  The
    cache keeps one rule (2 n floats) per order asked for.
    """
    nodes, weights = np.polynomial.legendre.leggauss(n)
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

    Radial: Gauss-Legendre on ``[0, k_max]``.  Polar: Gauss-Legendre in
    ``cos(theta)``.  Azimuthal: uniform rule (exact for trigonometric
    polynomials up to degree ``n_azimuthal - 1``).  Node weights carry the
    full ``k^2 dk dcos(theta) dphi`` measure, so ``sum_i w_i f(k_i)`` over
    distinct wavevector nodes approximates ``integral d^3k f(k)``.

    Every node carries two polarization modes sharing the node weight.
    """
    if omega_max <= 0:
        raise ConfigError("omega_max must be positive")
    if V <= 0 or c <= 0:
        raise ConfigError("V and c must be positive")
    if n_radial < 1 or n_polar < 1 or n_azimuthal < 1:
        raise ConfigError("all quadrature counts must be >= 1")

    k_max = omega_max / c
    xr, wr = gauss_legendre(n_radial)
    k_nodes = 0.5 * k_max * (xr + 1.0)
    k_w = 0.5 * k_max * wr

    mu, wmu = gauss_legendre(n_polar)  # mu = cos(theta)
    phi = (np.arange(n_azimuthal) + 0.5) * (2.0 * np.pi / n_azimuthal)
    wphi = 2.0 * np.pi / n_azimuthal

    # directions polar-major; mode index = (radius, direction, polarization)
    sin_th = np.repeat(np.sqrt(1.0 - mu**2), n_azimuthal)
    az = np.tile(phi, n_polar)
    dirs = np.stack([sin_th * np.cos(az), sin_th * np.sin(az),
                     np.repeat(mu, n_azimuthal)], axis=1)
    ang_w = np.repeat(wmu, n_azimuthal) * wphi

    omega = np.repeat(c * k_nodes, 2 * len(dirs))
    node_w = (k_w * k_nodes**2)[:, None] * ang_w  # full d^3k weight per node
    weight = np.repeat(node_w.ravel(), 2)
    kvecs = np.repeat((k_nodes[:, None, None] * dirs).reshape(-1, 3), 2, axis=0)
    pols = np.tile(np.stack(_polarization_pair(dirs), axis=1).reshape(-1, 3),
                   (n_radial, 1))

    grid = ModeGrid(
        geometry=FreeSpace3D(volume=V, c=c),
        omega=omega,
        weight=weight,
        wavevectors=kvecs,
        polarizations=pols,
        direction_signs=None,
        omega_min=float(omega.min()),
        omega_max=float(omega_max),
        angular_directions=dirs,
        angular_weights=ang_w,
    )
    _check_polarization_completeness(grid)
    return grid


def _check_polarization_completeness(grid: ModeGrid, tol: float = 1e-12):
    """Assert sum_s eps_a eps_b = delta_ab - khat_a khat_b at every node."""
    e1 = grid.polarizations[0::2]
    e2 = grid.polarizations[1::2]
    khat = grid.wavevectors[0::2]
    khat = khat / np.linalg.norm(khat, axis=1, keepdims=True)
    outer = (
        np.einsum("na,nb->nab", e1, e1)
        + np.einsum("na,nb->nab", e2, e2)
        + np.einsum("na,nb->nab", khat, khat)
    )
    err = np.max(np.abs(outer - np.eye(3)))
    if err > tol:
        raise ConfigError(f"polarization frame not complete: max deviation {err:.3e}")


def density_of_states(grid: ModeGrid, omega: float) -> float:
    """Total modal density dN/domega of the grid's geometry at ``omega``.

    Includes all propagation directions and polarizations:
    ``L/(pi*c)`` for the waveguide (``L/(2*pi*c)`` per direction) and
    ``V*omega^2/(pi^2*c^3)`` in free space (``V*omega^2/(2*pi^2*c^3)`` per
    polarization).  Kept, with no scenario caller, as the tests' reference
    for mode counts; ``perfbench/spans.py`` traces it.
    """
    if not (grid.omega_min <= omega <= grid.omega_max):
        raise DomainError(
            f"omega={omega} outside grid band [{grid.omega_min}, {grid.omega_max}]"
        )
    if grid.is_waveguide:
        g = grid.geometry
        n_dirs = len(np.unique(grid.direction_signs))
        return n_dirs * g.length / (2.0 * np.pi * g.c)
    g = grid.geometry
    return g.volume * omega**2 / (np.pi**2 * g.c**3)
