"""Single-photon scattering in a 1D waveguide with three-photon emission.

A resonant Lorentzian wavepacket excites the emitter; de-excitation while
the excited-state population is transient radiates photon pairs on top of
the re-emitted photon, leaving a three-photon component in the long-time
output.  This module provides the spontaneous-decay solution, the
excited-state amplitude under wavepacket driving, the long-time
three-photon coefficient tensor, and probabilities derived from it.

The emitted three-photon state is reported through three spectra of
|sym|^2 (see :class:`ThreePhotonTensor`), none of which forms an n^2 object:
weight against total frequency and against one photon's frequency, each
summing to P3/6, and weight against omega_j at a fixed mode l.  On a box
lattice each is a bincount algebra with one zero-padded FFT in extended
precision.

Tensor values depend only on mode frequencies (the waveguide coupling is
direction symmetric), but sums run over the actual grid modes, so both
propagation directions contribute their full multiplicity.
"""

from __future__ import annotations

import warnings
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from . import coupling as cp
from .dressing import _periodic_xi
from .errors import ConfigError, DomainError
from .modes import ModeGrid, Waveguide1D, _Frozen, density_of_states

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
    with the modal density :func:`modes.density_of_states` summed over the
    grid's propagation directions (one on a ``directions="positive"`` grid).
    Raises :class:`DomainError` when omega_e lies outside the grid's band."""
    _require_waveguide(grid)
    if not profile.is_1d:
        raise ConfigError("profile must be a waveguide coupling")
    omega_e = profile.omega_e
    rho_total = density_of_states(grid, omega_e)
    # eta(omega_e) = 2 omega_e xi_0 is the carrier row chi(omega_e) a0, a0 = 1
    chi_e = cp.fourier_rows([profile], omega_e, 1.0, 0.0, 0.0)[0, 0].real
    return float(2.0 * np.pi * chi_e**2 * rho_total)


def eta_array(grid: ModeGrid, profile: cp.CouplingProfile) -> np.ndarray:
    """Static co-rotating coupling eta_k = 2 omega_e xi_0,k over all grid modes."""
    _require_waveguide(grid)
    xi0 = _periodic_xi(cp.grid_fourier(profile, grid)[:1].real, grid.omega,
                       profile.omega_e, profile.omega_m)[0]
    return 2.0 * profile.omega_e * xi0


class Wavepacket(_Frozen):
    """Single-photon wavepacket amplitudes over grid modes; immutable, and
    ``W`` is made read-only."""

    def __init__(self, grid: ModeGrid, W: np.ndarray, gamma_prime: float,
                 k_e: float, x0: float):
        W.setflags(write=False)
        vars(self).update(grid=grid, W=W, gamma_prime=gamma_prime, k_e=k_e, x0=x0)

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
                            method: str = "envelope") -> float:
    """Norm of the packet inside the dressing region |x| <= 10 c / omega_e.

    ``envelope`` integrates the ideal packet's exponential spatial profile
    (front edge at x0, 1/e-length 2c/gamma') -- the physically meaningful
    far-packet measure.  ``modes`` reconstructs |psi(x)|^2 from the discrete
    mode sum instead, integrated by the trapezoidal rule on 2001 points;
    that picks up band-truncation ringing and the periodic wrap-around of
    the quantization box, so it is only useful on grids much longer than
    |x0|.
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
        x = np.linspace(-half, half, 2001)
        psi = packet.position_amplitude(x)
        return float(np.trapezoid(np.abs(psi) ** 2, x))
    raise ConfigError(f"unknown overlap method {method!r}")


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
    Kept, with no scenario caller yet, as a one-photon cross-check for a
    three-photon oracle (ROADMAP item 11); ``perfbench/spans.py`` traces it.
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
    Kept, like :func:`decay_amplitudes`, for the three-photon oracle.
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


class _Lattice(NamedTuple):
    """Bincounts of a box-lattice grid over the lattice index i = n - n_min
    (m entries), and the pole weight at each total index."""

    idx: np.ndarray  # lattice index of each mode
    A: np.ndarray  # bincount of |eta|^2
    Au2: np.ndarray  # bincount of |eta|^2 |u|^2
    Au: np.ndarray  # bincount of |eta|^2 u
    s: np.ndarray  # total index n_j + n_k + n_l, 3m - 2 entries from 3 n_min
    w2: np.ndarray  # |W_s|^2


def _next_fast_len(n: int) -> int:
    """Smallest 11-smooth size (2^a 3^b 5^c 7^d 11^e) >= n >= 1, the sizes
    pocketfft transforms fastest; ``scipy.fft.next_fast_len(n)`` for
    complex input."""
    while True:
        m = n
        for p in (2, 3, 5, 7, 11):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _fft_ext(rows, size: int) -> np.ndarray:
    """FFTs of the 1D ``rows``, each zero-padded to ``_next_fast_len(size)``,
    in extended precision, by ``np.fft.fft``.

    The pole weight spans six to nine decades over a lattice, and an FFT's
    rounding is relative to the largest input: in float64 it reached 4e-12
    of an off-shell slice's maximum.  ``np.longdouble`` (64-bit mantissa on
    x86) brings that to 2e-15; where it is float64 the double error stays.
    This needs numpy >= 2.0, whose pocketfft transforms ``clongdouble``
    natively; numpy 1.x computes ``np.fft`` in double precision.
    """
    x = np.zeros((len(rows), _next_fast_len(size)), dtype=np.clongdouble)
    for padded, row in zip(x, rows):
        padded[:row.size] = row
    return np.fft.fft(x, axis=1)


class ThreePhotonTensor:
    """Long-time three-photon coefficients over grid mode triples.

    Entries are evaluated on demand (the full tensor is cubic in the mode
    count).  ``raw`` follows the last-emitted-photon convention and is
    symmetric in its first two indices; ``sym`` is the average over all six
    index orders, which is the object entering physical probabilities.  The
    global phase exp(-i(omega_jkl - omega_e/2)(t - t0)), t0 the packet's
    arrival at the emitter, is dropped: it is a pure phase.

    Three spectra reduce |sym|^2 without forming an n^2 object:

    * ``spectrum``: weight against total frequency omega_j+omega_k+omega_l;
    * ``marginal_spectrum()``: weight against one photon's frequency;
    * ``slice_spectrum(l)``: weight against omega_j at a fixed mode l.

    The first two sum to sum_jkl |sym_jkl|^2 = P3/6.  On a box lattice
    omega = n * domega the pole factor W(Delta_jkl) depends only on
    s = n_j + n_k + n_l, and with a = |eta|^2, u_j = 1/(i Delta_j - gamma/2),
    the bincounts A, Au2, Au of a, a|u|^2, a u over the lattice index i
    (they carry the direction multiplicity) and w2_s = |W_s|^2:

        spectrum_s = pref^2 w2_s [3 (Au2 * A * A)_s + 6 (Au * Au^* * A)_s] / 9

        marginal_i = pref^2/9 [Au2_i C0_i + 2 A_i (C1_i + C3_i)
                               + 4 Re(Au_i conj(C2_i))]

        slice_j(l) = pref^2/9 a_l a_j [|U_j|^2 D_A(i_j) + D_Au2(i_j)
                                       + 2 Re(U_j conj(D_Au(i_j)))]

    with ``*`` a 1D convolution, C_x(i) = sum_t w2[i + t] Q_x[t] for the
    pair convolutions Q0 = A*A, Q1 = Au2*A, Q2 = Au*A, Q3 = Au*Au^*,
    U_j = u_j + u_l and D_X(i) = sum_t w2[i + i_l + t] X_t, which reads
    only the 2m - 1 pole weights from s = i_l on.  Each is one zero-padded
    FFT in extended precision (``_fft_ext``).  Other grids sum ``sym_slice``
    directly.
    """

    def __init__(self, grid: ModeGrid, eta: np.ndarray, gamma: float,
                 gamma_prime: float, omega_e: float):
        self.grid = grid
        self.eta = eta
        self.gamma = gamma
        self.gamma_prime = gamma_prime
        self.omega_e = omega_e
        omega = self.grid.omega
        self._u = 1.0 / (1j * (omega - self.omega_e) - self.gamma / 2.0)
        self._eta_conj = np.conj(self.eta)
        self._pref = np.sqrt(self.gamma_prime * self.gamma) / (2.0 * self.omega_e)
        g = self.grid.geometry
        self._domega = g.c * 2.0 * np.pi / g.length
        self._n = _lattice_indices(omega, self._domega)

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
        """C_{jk,l} over (j, k) with photon l emitted last: the paper's
        coefficient, kept as the tests' reference for ``sym`` and P3."""
        W = self._pair_kernel(l)
        ee = self._eta_conj[:, None] * self._eta_conj[None, :]
        return self._pref * ee * self._eta_conj[l] * W * self._u[l]

    def sym_slice(self, l: int) -> np.ndarray:
        """Fully symmetrized coefficients over (j, k) for fixed l."""
        W = self._pair_kernel(l)
        ee = self._eta_conj[:, None] * self._eta_conj[None, :] * self._eta_conj[l]
        u_sum = (self._u[:, None] + self._u[None, :] + self._u[l]) / 3.0
        return self._pref * ee * W * u_sum

    # -- reductions over |sym|^2 ------------------------------------------------

    @cached_property
    def _lattice(self) -> Optional[_Lattice]:
        """The bincounts and pole weights of the lattice spectra, or None off
        the lattice or where the index span exceeds the triple count."""
        n = self._n
        if n is None:
            return None
        idx = (n - n.min()).astype(np.intp)
        m = int(idx.max()) + 1
        if 3 * m - 2 > self.n_modes ** 3:
            return None
        a = np.abs(self.eta) ** 2
        au = a * self._u
        A = np.bincount(idx, a, m)
        Au2 = np.bincount(idx, a * np.abs(self._u) ** 2, m)
        Au = np.bincount(idx, au.real, m) + 1j * np.bincount(idx, au.imag, m)
        s = 3.0 * int(n.min()) + np.arange(3 * m - 2)
        d3 = self._domega * s - self.omega_e
        w2 = 1.0 / ((d3**2 + self.gamma**2 / 4.0)
                    * (d3**2 + self.gamma_prime**2 / 4.0))
        return _Lattice(idx, A, Au2, Au, s, w2)

    @cached_property
    def spectrum(self):
        """``(Omega, w)``: total frequencies omega_j+omega_k+omega_l and the
        summed |sym_jkl|^2 weight at each; w sums to P3/6.

        On a box lattice there is one entry per total index s, built by
        convolution (see the class docstring); otherwise one entry per
        ordered triple.
        """
        lat = self._lattice
        if lat is None:
            omega = self.grid.omega
            parts = [((omega[:, None] + omega[None, :] + omega[l]).ravel(),
                      (np.abs(self.sym_slice(l)) ** 2).ravel())
                     for l in range(self.n_modes)]
            return tuple(np.concatenate(p) for p in zip(*parts))
        size = lat.s.size
        fA, fAu2, fAu, fAub = _fft_ext([lat.A, lat.Au2, lat.Au, np.conj(lat.Au)], size)
        conv = np.fft.ifft(
            fA * (3.0 * fAu2 * fA + 6.0 * fAu * fAub))[:size].real.astype(float)
        return self._domega * lat.s, self._pref**2 * lat.w2 * conv / 9.0

    def marginal_spectrum(self):
        """``(omega, w)``: the |sym|^2 weight with one photon at omega, summed
        over the other two; w sums to P3/6.

        On a box lattice there is one entry per lattice frequency, empty ones
        included (see the class docstring); otherwise one entry per mode.
        """
        lat = self._lattice
        if lat is None:
            w = sum(np.sum(np.abs(self.sym_slice(l)) ** 2, axis=1)
                    for l in range(self.n_modes))
            return self.grid.omega, w
        m = lat.A.size
        # C(i) = sum_t w2[i + t] Q[t] = ifft(fft(w2) conj(fft(conj Q)))
        fw2, fA, fAu2, fAu, fAub = _fft_ext(
            [lat.w2, lat.A, lat.Au2, lat.Au, np.conj(lat.Au)], lat.s.size)
        C0, C13, C2b = np.fft.ifft(
            fw2 * np.conj([fA * fA, fAu2 * fA + fAu * fAub, fAu * fA])
        )[:, :m].astype(complex)
        w = (lat.Au2 * C0.real + 2.0 * lat.A * C13.real
             + 4.0 * (lat.Au * C2b).real)
        omega = self._domega * (self._n.min() + np.arange(m))
        return omega, self._pref**2 * w / 9.0

    def slice_spectrum(self, l: int) -> np.ndarray:
        """sum_k |sym_jkl|^2 over modes j at fixed l.  Summed over j and over
        the modes l at one frequency, it is that frequency's
        ``marginal_spectrum`` weight.

        On a box lattice it correlates the bincounts with the 2m - 1 pole
        weights the slice reads (see the class docstring); otherwise it sums
        ``sym_slice(l)`` directly.
        """
        lat = self._lattice
        if lat is None:
            return np.sum(np.abs(self.sym_slice(l)) ** 2, axis=1)
        m, i_l = lat.A.size, lat.idx[l]
        fwin, fA, fAu2, fAu = _fft_ext(
            [lat.w2[i_l:i_l + 2 * m - 1], lat.A, lat.Au2, lat.Au], 2 * m - 1)
        DA, DAu2, DAub = np.fft.ifft(
            fwin * np.conj([fA, fAu2, fAu]))[:, lat.idx].astype(complex)
        U = self._u + self._u[l]
        a = np.abs(self.eta) ** 2
        w = a * (np.abs(U) ** 2 * DA.real + DAu2.real + 2.0 * (U * DAub).real)
        return self._pref**2 * a[l] * w / 9.0

    def mass_fraction_within(self, delta_cut: float) -> float:
        """Fraction of total |sym|^2 weight with |omega_j+omega_k+omega_l - omega_e|
        at most ``delta_cut``.

        The window is closed up to rounding: a total frequency on its edge
        counts as inside whether its float sum rounds a few ulp in or out.
        """
        total_omega, w = self.spectrum
        edge = delta_cut + _EDGE_RTOL * (self.omega_e + delta_cut)
        inside = float(np.sum(w[np.abs(total_omega - self.omega_e) <= edge]))
        return inside / float(np.sum(w))

    def mean_total_frequency(self) -> float:
        total_omega, w = self.spectrum
        return float(np.sum(total_omega * w)) / float(np.sum(w))

    def total_sym_weight(self) -> float:
        return float(np.sum(self.spectrum[1]))


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
    return ThreePhotonTensor(grid=grid, eta=eta, gamma=gamma,
                             gamma_prime=gamma_prime, omega_e=profile.omega_e)


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
