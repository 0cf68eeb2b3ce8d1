"""Single-photon scattering in a 1D waveguide with three-photon emission.

A resonant Lorentzian wavepacket excites the emitter; de-excitation while
the excited-state population is transient radiates photon pairs on top of
the re-emitted photon, leaving a three-photon component in the long-time
output.  This module provides the spontaneous-decay solution, the
excited-state amplitude under wavepacket driving, the long-time
three-photon coefficient tensor, and probabilities derived from it.

Tensor values depend only on mode frequencies (the waveguide coupling is
direction symmetric), but sums run over the actual grid modes, so both
propagation directions contribute their full multiplicity.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np
from scipy.fft import next_fast_len

from . import coupling as cp
from .errors import ConfigError, DomainError
from .modes import ModeGrid, Waveguide1D

__all__ = [
    "Wavepacket",
    "ThreePhotonTensor",
    "gamma_from_coupling",
    "lorentzian_wavepacket",
    "packet_dressing_overlap",
    "decay_amplitudes",
    "excited_amplitude_scattering",
    "three_photon_coefficients",
    "three_photon_probability",
]


def _require_waveguide(grid: ModeGrid):
    if not isinstance(grid.geometry, Waveguide1D):
        raise ConfigError("this operation needs a 1D waveguide grid")


def gamma_from_coupling(grid: ModeGrid, profile: cp.CouplingProfile) -> float:
    """Spontaneous decay rate gamma = 2 pi |eta(omega_e)|^2 rho(omega_e),
    with the modal density summed over both propagation directions."""
    _require_waveguide(grid)
    if not profile.is_1d:
        raise ConfigError("profile must be a waveguide coupling")
    omega_e = profile.omega_e
    if not (grid.omega_min <= omega_e <= grid.omega_max):
        raise DomainError(
            f"resonance {omega_e} outside grid band "
            f"[{grid.omega_min}, {grid.omega_max}]"
        )
    eta_res = cp.eta_from_g(profile, omega_e, profile.chi(omega_e))  # = chi(omega_e)
    g = grid.geometry
    rho_total = 2.0 * g.length / (2.0 * np.pi * g.c)
    return float(2.0 * np.pi * eta_res**2 * rho_total)


def eta_array(grid: ModeGrid, profile: cp.CouplingProfile) -> np.ndarray:
    """Static co-rotating coupling eta_k over all grid modes."""
    _require_waveguide(grid)
    return cp.eta_from_g(profile, grid.omega, cp.grid_fourier(profile, grid)[0].real)


@dataclass(frozen=True)
class Wavepacket:
    """Single-photon wavepacket amplitudes over grid modes."""

    grid: ModeGrid
    W: np.ndarray
    gamma_prime: float
    k_e: float
    x0: float

    def __post_init__(self):
        self.W.setflags(write=False)

    @property
    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.W) ** 2))

    def position_amplitude(self, x: np.ndarray) -> np.ndarray:
        """Real-space amplitude psi(x) = (1/sqrt(L)) sum_k W_k e^{ikx}."""
        L = self.grid.geometry.length
        k = self.grid.wavevectors[:, 0]
        return (np.exp(1j * np.outer(x, k)) @ self.W) / np.sqrt(L)


def lorentzian_wavepacket(grid: ModeGrid, gamma_prime: float, x0: float, *,
                          omega_e: float) -> Wavepacket:
    """Right-moving Lorentzian packet resonant with the emitter.

    W_k = sqrt(gamma'/(c L)) e^{-i(k-k_e)x0} / (-i(k-k_e) + gamma'/(2c)) on
    right-movers, zero on left-movers.  The front edge sits at x0 < 0; keep
    |x0| well above c/gamma' so the packet clears the emitter's dressing
    cloud (see :func:`packet_dressing_overlap`).
    """
    _require_waveguide(grid)
    if gamma_prime <= 0:
        raise ConfigError("gamma_prime must be positive")
    if x0 >= 0:
        raise ConfigError("the packet must start on the left of the emitter (x0 < 0)")
    g = grid.geometry
    if gamma_prime > omega_e / 10.0:
        warnings.warn("gamma_prime above omega_e/10: narrowband assumptions strained",
                      stacklevel=2)
    if abs(x0) < 10.0 * g.c / gamma_prime:
        warnings.warn("|x0| below 10 c/gamma': packet overlaps the emitter region",
                      stacklevel=2)
    k_e = omega_e / g.c
    k = grid.wavevectors[:, 0]
    right = grid.direction_signs == 1
    W = np.zeros(grid.n_modes, dtype=complex)
    dk = k[right] - k_e
    W[right] = (
        np.sqrt(gamma_prime / (g.c * g.length))
        * np.exp(-1j * dk * x0)
        / (-1j * dk + gamma_prime / (2.0 * g.c))
    )
    return Wavepacket(grid=grid, W=W, gamma_prime=gamma_prime, k_e=k_e, x0=x0)


def packet_dressing_overlap(packet: Wavepacket, omega_e: float, *,
                            method: str = "envelope",
                            n_samples: int = 2001) -> float:
    """Norm of the packet inside the dressing region |x| <= 10 c / omega_e.

    ``envelope`` integrates the ideal packet's exponential spatial profile
    (front edge at x0, 1/e-length 2c/gamma') -- the physically meaningful
    far-packet measure.  ``modes`` reconstructs |psi(x)|^2 from the discrete
    mode sum instead; that picks up band-truncation ringing and the periodic
    wrap-around of the quantization box, so it is only useful on grids much
    longer than |x0|.
    """
    c = packet.grid.geometry.c
    half = 10.0 * c / omega_e
    if method == "envelope":
        rate = packet.gamma_prime / c
        upper = min(half, packet.x0)
        if upper <= -half:
            return 0.0
        return float(np.exp(rate * (upper - packet.x0))
                     - np.exp(rate * (-half - packet.x0)))
    if method == "modes":
        x = np.linspace(-half, half, n_samples)
        psi = packet.position_amplitude(x)
        return float(np.trapezoid(np.abs(psi) ** 2, x))
    raise ConfigError(f"unknown overlap method {method!r}")


def assert_far_from_atom(packet: Wavepacket, omega_e: float,
                         tol: float = 1e-6) -> float:
    """Verify the far-packet condition: front edge at least 10 decay lengths
    out AND reconstructed norm inside the dressing region below ``tol``.

    Needs a quantization box long enough to hold the packet without
    wrap-around; raises :class:`ConfigError` otherwise.
    """
    c = packet.grid.geometry.c
    if abs(packet.x0) < 10.0 * c / packet.gamma_prime:
        raise DomainError("front edge closer than 10 c/gamma' to the emitter")
    L = packet.grid.geometry.length
    # tail wrapped around the periodic box must stay below tol at the window
    wrap = np.exp(-packet.gamma_prime * (L - abs(packet.x0)) / c)
    if wrap > 0.1 * tol:
        raise ConfigError(
            "quantization box too short to verify the far-packet condition "
            f"(wrap-around floor {wrap:.1e})"
        )
    overlap = packet_dressing_overlap(packet, omega_e, method="modes")
    if overlap > tol:
        raise DomainError(
            f"packet norm {overlap:.2e} inside the dressing region exceeds {tol:.1e}"
        )
    return overlap


def decay_amplitudes(grid: ModeGrid, profile: cp.CouplingProfile, t: float):
    """Spontaneous-decay solution from the excited emitter at t = 0.

    Returns ``(mode_amplitudes, excited_amplitude)`` with
    excited(t) = e^{(-gamma - i omega_e) t / 2} and
    mode_k(t) = -i eta_k* e^{-i omega_e t/2} / (gamma/2 - i Delta_k)
                * (e^{-i Delta_k t} - e^{-gamma t / 2}),  Delta_k = omega_k - omega_e.

    The leading -i is the first-order transition-amplitude phase; it is
    required for mode-by-mode agreement with direct propagation.

    This is the flat-band Wigner-Weisskopf pole: it carries no level shift.
    Direct propagation on the same grid matches it only on a band symmetric
    about omega_e.  An unpaired mode shifts the level by
    |eta_k|^2 / (omega_e - omega_k) (the surplus top mode of a half-open
    :func:`~vacuum_shake.modes.build_waveguide_grid` band does), and a
    resonance between nodes by (gamma/2) cot(pi phi), phi its fractional
    offset from the nearest node.
    """
    gamma = gamma_from_coupling(grid, profile)
    omega_e = profile.omega_e
    eta = eta_array(grid, profile)
    delta = grid.omega - omega_e
    excited = np.exp((-gamma - 1j * omega_e) * t / 2.0)
    modes = (
        -1j * np.conj(eta) * np.exp(-1j * omega_e * t / 2.0)
        / (gamma / 2.0 - 1j * delta)
        * (np.exp(-1j * delta * t) - np.exp(-gamma * t / 2.0))
    )
    return modes, complex(excited)


def excited_amplitude_scattering(gamma: float, gamma_prime: float,
                                 tau: float, *, omega_e: float = 1.0) -> complex:
    """Excited-state amplitude under resonant Lorentzian-packet driving,
    time measured from the packet's arrival at the emitter.

    [2i sqrt(gamma' gamma) / (gamma - gamma')] (e^{-gamma tau/2} - e^{-gamma' tau/2})
    e^{-i omega_e tau / 2}; the removable gamma' -> gamma singularity is
    evaluated analytically.
    """
    if gamma <= 0 or gamma_prime < 0:
        raise DomainError("decay rates must be positive")
    if tau < 0:
        return 0.0 + 0.0j
    phase = np.exp(-1j * omega_e * tau / 2.0)
    if abs(gamma - gamma_prime) < 1e-6 * gamma:
        return complex(-1j * np.sqrt(gamma * gamma_prime) * tau
                       * np.exp(-gamma * tau / 2.0) * phase)
    amp = (
        2j * np.sqrt(gamma_prime * gamma) / (gamma - gamma_prime)
        * (np.exp(-gamma * tau / 2.0) - np.exp(-gamma_prime * tau / 2.0))
    )
    return complex(amp * phase)


#: relative slack of the mass-fraction window edge, far above the rounding
#: of a three-term frequency sum and far below any mode spacing
_EDGE_RTOL = 1e-12


def _lattice_indices(omega: np.ndarray, domega: float) -> Optional[np.ndarray]:
    """Integer-valued n with omega = n * domega up to rounding, else None.

    ``build_waveguide_grid`` puts every mode on such a lattice; hand-built
    grids need not.  Sums of integer-valued float64 are exact.
    """
    n = np.rint(omega / domega)
    if not np.allclose(n * domega, omega, rtol=1e-12, atol=0.0):
        return None
    return n


@dataclass
class ThreePhotonTensor:
    """Long-time three-photon coefficients over grid mode triples.

    Entries are evaluated on demand (the full tensor is cubic in the mode
    count).  ``raw`` follows the last-emitted-photon convention and is
    symmetric in its first two indices; ``sym`` is the average over all six
    index orders, which is the object entering physical probabilities.  The
    overall arrival-time-dependent phase is dropped (pure phase, recorded
    here).

    The reductions over |sym|^2 read one spectrum of total frequency against
    weight.  On a box lattice omega = n * domega, the pole factor
    W(Delta_jkl) depends only on s = n_j + n_k + n_l, so

        sum_{s(jkl) = s} |sym_jkl|^2 = pref^2 |W_s|^2
            [3 (A|u|^2 * A * A)_s + 6 Re(Au * Au^* * A)_s] / 9

    with A the bincount of |eta|^2 over the lattice index (it carries the
    direction multiplicity), u_j = 1/(i Delta_j - gamma/2) and ``*`` a 1D
    convolution, done by FFT.  Other grids sum all n^3 triples directly.
    """

    grid: ModeGrid
    eta: np.ndarray
    gamma: float
    gamma_prime: float
    omega_e: float
    t0: float = 0.0
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        omega = self.grid.omega
        self._u = 1.0 / (1j * (omega - self.omega_e) - self.gamma / 2.0)
        self._eta_conj = np.conj(self.eta)
        self._pref = np.sqrt(self.gamma_prime * self.gamma) / (2.0 * self.omega_e)
        g = self.grid.geometry
        self._domega = g.c * 2.0 * np.pi / g.length
        self._n = _lattice_indices(omega, self._domega)
        self.metadata.setdefault(
            "phase_convention",
            "global exp(-i(omega_jkl - omega_e/2)(t - t0)) factor dropped",
        )

    @property
    def n_modes(self) -> int:
        return self.grid.n_modes

    def _pair_kernel(self, l: int):
        """W(Delta_jkl) over (j, k) for fixed l: the double on-shell pole.

        Near the pole Delta_jkl ~ gamma/2 is a large cancellation, so the
        rounding of the float sum omega_j + omega_k + omega_l depends on the
        order of addition and breaks the permutation symmetry of ``sym``.  On
        a box lattice Delta_jkl is formed from the exact integer sum
        n_j + n_k + n_l instead; other grids keep the float sum.
        """
        if self._n is None:
            omega = self.grid.omega
            d3 = omega[:, None] + omega[None, :] + omega[l] - self.omega_e
        else:
            n = self._n
            d3 = self._domega * (n[:, None] + (n + n[l])) - self.omega_e
        return 1.0 / ((1j * d3 - self.gamma / 2.0) * (1j * d3 - self.gamma_prime / 2.0))

    def raw_slice(self, l: int) -> np.ndarray:
        """C_{jk,l} over (j, k) with photon l emitted last."""
        W = self._pair_kernel(l)
        ee = self._eta_conj[:, None] * self._eta_conj[None, :]
        return self._pref * ee * self._eta_conj[l] * W * self._u[l]

    def sym_slice(self, l: int) -> np.ndarray:
        """Fully symmetrized coefficients over (j, k) for fixed l."""
        W = self._pair_kernel(l)
        ee = self._eta_conj[:, None] * self._eta_conj[None, :] * self._eta_conj[l]
        u_sum = (self._u[:, None] + self._u[None, :] + self._u[l]) / 3.0
        return self._pref * ee * W * u_sum

    def to_arrays(self, max_modes: int = 120):
        """Dense (raw, sym) tensors; guarded against cubic blowup."""
        n = self.n_modes
        if n > max_modes:
            raise ConfigError(f"dense tensor for {n} modes exceeds guard {max_modes}")
        raw = np.stack([self.raw_slice(l) for l in range(n)], axis=2)
        sym = np.stack([self.sym_slice(l) for l in range(n)], axis=2)
        return raw, sym

    # -- reductions over |sym|^2 ------------------------------------------------

    @cached_property
    def _spectrum(self):
        """``(Omega, w)``: total frequencies omega_j+omega_k+omega_l and the
        summed |sym_jkl|^2 weight at each.

        On a box lattice the spectrum is indexed by s = n_j+n_k+n_l and built
        by convolution (see the class docstring) when it has fewer entries
        than there are triples; otherwise it is the direct sum over all
        ordered triples, one entry each.
        """
        n = self._n
        if n is not None:
            idx = (n - n.min()).astype(np.intp)
            if 3 * int(idx.max()) + 1 <= self.n_modes ** 3:
                return self._lattice_spectrum(idx, int(n.min()))
        omega = self.grid.omega
        parts = [((omega[:, None] + omega[None, :] + omega[l]).ravel(),
                  (np.abs(self.sym_slice(l)) ** 2).ravel())
                 for l in range(self.n_modes)]
        return tuple(np.concatenate(p) for p in zip(*parts))

    def _lattice_spectrum(self, idx: np.ndarray, n_min: int):
        a = np.abs(self.eta) ** 2
        au = a * self._u
        m = int(idx.max()) + 1
        A = np.bincount(idx, a, m)
        Au2 = np.bincount(idx, a * np.abs(self._u) ** 2, m)
        Au = np.bincount(idx, au.real, m) + 1j * np.bincount(idx, au.imag, m)
        # all linear convolutions through one zero-padded transform
        size = 3 * m - 2
        fA, fAu2, fAu, fAub = np.fft.fft(np.stack([A, Au2, Au, np.conj(Au)]),
                                         next_fast_len(size), axis=1)
        conv = np.fft.ifft(fA * (3.0 * fAu2 * fA + 6.0 * fAu * fAub))[:size].real
        s = 3.0 * n_min + np.arange(size)
        d3 = self._domega * s - self.omega_e
        w2 = 1.0 / ((d3**2 + self.gamma**2 / 4.0)
                    * (d3**2 + self.gamma_prime**2 / 4.0))
        return self._domega * s, self._pref**2 * w2 * conv / 9.0

    def mass_fraction_within(self, delta_cut: float) -> float:
        """Fraction of total |sym|^2 weight with |omega_j+omega_k+omega_l - omega_e|
        at most ``delta_cut``.

        The window is closed up to rounding: a total frequency on its edge
        counts as inside whether its float sum rounds a few ulp in or out.
        """
        total_omega, w = self._spectrum
        edge = delta_cut + _EDGE_RTOL * (self.omega_e + delta_cut)
        inside = float(np.sum(w[np.abs(total_omega - self.omega_e) <= edge]))
        return inside / float(np.sum(w))

    def mean_total_frequency(self) -> float:
        total_omega, w = self._spectrum
        return float(np.sum(total_omega * w)) / float(np.sum(w))

    def total_sym_weight(self) -> float:
        return float(np.sum(self._spectrum[1]))

    def check_support(self, threshold: float = 0.9,
                      window_factor: float = 10.0) -> float:
        frac = self.mass_fraction_within(
            window_factor * max(self.gamma, self.gamma_prime)
        )
        if frac < threshold:
            raise DomainError(
                f"on-shell mass fraction {frac:.4f} below {threshold}"
            )
        return frac

    def slice_to_csv(self, path, l: int, which: str = "sym"):
        mat = self.sym_slice(l) if which == "sym" else self.raw_slice(l)
        # Python floats: repr of a numpy scalar is not a number under numpy 2
        omega = self.grid.omega.tolist()
        with open(path, "w") as fh:
            fh.write("omega_j,omega_k,omega_l,re,im,abs2\n")
            for wj, row in zip(omega, mat):
                for wk, z in zip(omega, row.tolist()):
                    fh.write(f"{wj!r},{wk!r},{omega[l]!r},"
                             f"{z.real!r},{z.imag!r},{abs(z) ** 2!r}\n")


def three_photon_coefficients(grid: ModeGrid, profile: cp.CouplingProfile,
                              gamma: float, gamma_prime: float) -> ThreePhotonTensor:
    """Long-time three-photon coefficient tensor.

    C_{jkl} = sqrt(gamma' gamma)/(2 omega_e) * eta_j* eta_k* eta_l* /
              [(i Delta_l - gamma/2)(i Delta_jkl - gamma/2)(i Delta_jkl - gamma'/2)]

    with Delta_l = omega_l - omega_e and Delta_jkl = omega_j + omega_k +
    omega_l - omega_e.  ``gamma_prime = 0`` (no incident packet) gives the
    zero tensor.
    """
    _require_waveguide(grid)
    if gamma <= 0 or gamma_prime < 0:
        raise DomainError("gamma must be positive, gamma_prime non-negative")
    eta = eta_array(grid, profile)
    return ThreePhotonTensor(
        grid=grid, eta=eta, gamma=gamma, gamma_prime=gamma_prime,
        omega_e=profile.omega_e,
        metadata={"directions": "all grid modes summed (both directions)"},
    )


def three_photon_probability(tensor: ThreePhotonTensor) -> float:
    """Norm squared of the three-photon component.

    With fully symmetrized coefficients the bosonic norm is
    P3 = 6 * sum_{jkl} |sym_{jkl}|^2 over all ordered triples; repeated-mode
    multinomial factors are accounted for exactly by that single formula.

    This is the exact norm of the discrete state, a Riemann sum over the
    double pole of half-width gamma/2 (gamma the smaller of gamma, gamma').
    It approaches the continuum only when the mode spacing resolves that
    width.  Worst-case error over pole offsets against spacing / gamma:
    17% at 0.75, 13% at 0.70, 3.5% at 0.50, 1% at 0.40, 0.6% at 0.35.
    """
    return 6.0 * tensor.total_sym_weight()
