"""Discretized electromagnetic mode sets for a 1D waveguide, and the
geometries of the golden-rule rates.

A :class:`ModeGrid` approximates the field continuum by a finite, ordered set
of modes.  Waveguide grids use box quantization: modes sit on the
wavenumber lattice ``k = j * 2*pi/L``, one mode per ``delta_k = 2*pi/L``, so
plain sums over modes are already continuum sums ``(L/2pi) * integral dk``.
The speed of light is derived from the requested band so that the lattice
tiles ``(omega_min, omega_max]`` exactly.

:class:`FreeSpace3D` is the geometry of the 3D golden-rule rates, whose
angular sums are closed forms (see :mod:`radiation`): no free-space grid is
built.  A 3D :class:`ModeGrid` holds whatever (wavevector, polarization)
nodes its caller chooses; :mod:`coupling` evaluates the Doppler and magnetic
sidebands on it.

Grids are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import functools
from typing import Optional

import numpy as np

from .errors import CapacityError, ConfigError, DomainError

__all__ = [
    "Waveguide1D",
    "FreeSpace3D",
    "ModeGrid",
    "build_waveguide_grid",
    "few_mode_waveguide_grid",
    "density_of_states",
    "gauss_legendre",
]

#: modes with omega below this multiple of the band top are considered
#: infrared-divergence hazards and are excluded at construction time
DEFAULT_OMEGA_MIN_FRACTION = 1e-6


class _Frozen:
    """Base of the immutable classes: ``__init__`` stores the fields with
    ``vars(self).update``, and setting or deleting an attribute afterwards
    raises ``AttributeError``."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name!r}: {type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is immutable")


class _Geometry(_Frozen):
    def as_dict(self) -> dict:
        """Kind, c and box size, as written to run summaries."""
        return {"kind": type(self).__name__, **vars(self)}


class Waveguide1D(_Geometry):
    """One-dimensional waveguide of length ``length`` and cross-section ``area``."""

    def __init__(self, length: float, area: float, c: float = 1.0):
        vars(self).update(length=length, area=area, c=c)


class FreeSpace3D(_Geometry):
    """Three-dimensional free space with quantization volume ``volume``."""

    def __init__(self, volume: float, c: float = 1.0):
        vars(self).update(volume=volume, c=c)


class ModeGrid(_Frozen):
    """Immutable discretized mode set.

    Array fields are index-aligned: entry ``i`` of ``omega``/
    ``wavevectors``/... describes mode ``i``.  The arrays are made
    read-only.
    """

    def __init__(self, geometry, omega: np.ndarray, wavevectors: np.ndarray,
                 polarizations: Optional[np.ndarray],
                 direction_signs: Optional[np.ndarray],
                 omega_min: float, omega_max: float):
        # wavevectors (n, dim); polarizations (n, 3) or None in 1D;
        # direction_signs (n,) ints or None in 3D
        for a in (omega, wavevectors, polarizations, direction_signs):
            if a is not None:
                a.setflags(write=False)
        vars(self).update(geometry=geometry, omega=omega, wavevectors=wavevectors,
                          polarizations=polarizations,
                          direction_signs=direction_signs,
                          omega_min=omega_min, omega_max=omega_max)

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
    tiled exactly: ``c = delta_omega / delta_k``.

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
    order, frequency major), with wavevector ``sign * omega / c``.  Meant
    for few-mode Fock-space scenarios, where the modes are chosen by hand
    rather than tiled over a band.
    """
    freqs = np.asarray(freqs, dtype=float)
    signs = np.tile(np.asarray(directions, dtype=int), len(freqs))
    omega = np.repeat(freqs, len(directions))
    return ModeGrid(
        geometry=Waveguide1D(length=L, area=1.0, c=c),
        omega=omega,
        wavevectors=(signs * omega / c).reshape(-1, 1),
        polarizations=None,
        direction_signs=signs,
        omega_min=float(freqs.min()),
        omega_max=float(freqs.max()),
    )


#: Largest Gauss-Legendre order: the rule's eigensystem holds two n x n
#: arrays (8 MB each at this order) and takes 0.17-0.26 s on 2 vCPUs.
RULE_ORDER_CAP = 1000


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


def density_of_states(grid: ModeGrid, omega: float) -> float:
    """Total modal density dN/domega of a waveguide grid at ``omega``:
    ``L/(2*pi*c)`` per propagation direction the grid holds.

    :func:`scattering.gamma_from_coupling` reads the density at resonance
    from it.  Raises :class:`ConfigError` for a grid of any other geometry.
    """
    if not grid.is_waveguide:
        raise ConfigError("density_of_states needs a waveguide grid")
    if not (grid.omega_min <= omega <= grid.omega_max):
        raise DomainError(
            f"omega={omega} outside grid band [{grid.omega_min}, {grid.omega_max}]"
        )
    g = grid.geometry
    # not np.unique, whose first call imports numpy.ma (about 10 ms)
    n_dirs = len(set(grid.direction_signs.tolist()))
    return n_dirs * g.length / (2.0 * np.pi * g.c)
