"""Brute-force few-photon propagator on a truncated Fock space.

Ground truth for everything the perturbative modules compute: the full
atom-field Hamiltonian, its dressed-frame counterparts, the numerical
spin-conditioned displacement transform, time propagation with adaptive
error control, and the residual certifying the second-order truncation of
the transformed Hamiltonian.

The space is (photon configurations with total number <= n_max) x (atom
level).  Photon configurations p are enumerated total-number major, then
lexicographic in the occupation vector, and the atom is the minor factor:
state 2 p + atom holds configuration p with the atom in ``atom`` (GROUND 0,
EXCITED 1), so the atom level is the low bit of a state's index.  Every
operator comes from one entry table, ``FockBasis._lowering``: the row,
column, value and mode of each entry of each a_k, placed on both atom
levels.  An atom flip is an index flip i -> i ^ 1, so sigma_x, sigma_+- and
their products with mode sums are those entries with a row or a column
flipped.  A Hamiltonian is a :class:`HarmonicHamiltonian`, which holds such
entries and forms the dense H(t) from them on request.  Products use dense
arrays while every dense array one product reads holds at most
``DENSE_ENTRIES_MAX`` entries, and CSR matrices above that: the operator
that propagation applies (its frequency table and its d x d stage
operator) and the displacement generator of :func:`apply_T` (d x d).  The
pair-kernel products of :func:`build_transformed_hamiltonian` are always
CSR.

The full Hamiltonian inherits the harmonic structure of the coupling:
H(t) = H_diag + sum_nu (e^{i nu omega_m t} V_nu + h.c.) with
V_nu = sum_k g_nu,k a_k sigma_x, whose entries are built once per
(basis, grid, profile).
Propagation applies H(t) to the state from those fixed operators and never
forms H(t).  Its right-hand side is linear, y' = L(t) y, and L does not
depend on y, so the stepper, an in-package DOP853 (:func:`_dop853`:
Hairer's explicit Runge-Kutta 8(5,3) pair with the step control of
``scipy.integrate.solve_ivp(method="DOP853")``, so the package never
imports ``scipy.integrate``), asks for the operators at all of a step's
stage times in one call.  In the interaction picture of H_diag every entry
of V_nu oscillates at one frequency, nu omega_m + D_row - D_col, so a
sector of up to 200 states reads those operators from a table of the
frequencies, held only at the positions of the d x d operator that an entry
occupies: one short exponential and one product with the (J, used) table
per step, written into those positions of the step's stage operators, and
one d x d product per stage.  A larger sector takes the phases of a step
from one exponential and one CSR product with the stacked [V_nu; V_nu^+]
per stage instead.

H(t) is periodic with T = 2 pi / omega_m, so the propagator over
t1 - t0 = n T + r factors as U(t0 + r, t0) U(t0 + T, t0)^n (Floquet's
theorem; J. H. Shirley, Phys. Rev. 138, B979 (1965)), and the series also
conserves the parity Pi = (-1)^(N + atom): sigma_x flips the atom and each
a_k changes the photon number N by one, so every V_nu maps a parity sector
into itself.  :func:`propagate` therefore works sector by sector, on the
half of the basis the state occupies (the dressed vacuum is even), and when
the interval spans enough periods it integrates the sector's identity once
from t0, keeping it at t0 + r as U(r) and carrying it on to t0 + T, then
applies U(r) U(T)^n to the state by matrix-vector products instead of
stepping the state at all.  The cost of a long run then no longer grows
with t, while the error of U(T) accumulates about linearly in n.

The displacement transform and the residual's dense T both come from one
in-package exponential, :func:`_expm_multiply`: the truncated-Taylor
algorithm of Al-Mohy and Higham, SIAM J. Sci. Comput. 33, 488 (2011), in
the branch ``scipy.sparse.linalg.expm_multiply`` takes when the generator's
1-norm is below about 63, with scipy's operation order.  Every shipped
displacement generator has a 1-norm below 1, so scipy's other branch, which
estimates norms of powers of the generator (the alpha_p bound), is left out.
The dense residual, and propagation and :func:`apply_T` within
``DENSE_ENTRIES_MAX``, need numpy alone; the CSR products beyond it and
:func:`build_transformed_hamiltonian` import ``scipy.sparse`` on first use,
not when the package is imported.
"""

from __future__ import annotations

import warnings
from functools import cached_property
from math import ceil, comb, inf, nextafter, sqrt

import numpy as np

from . import coupling as cp
from .coupling import CouplingProfile
from .dressing import DressedFrame, phase_E
from .errors import CapacityError, ConfigError, NumericalError
from .modes import ModeGrid

__all__ = [
    "FockBasis",
    "FockStateVector",
    "HarmonicHamiltonian",
    "enumerate_basis",
    "original_hamiltonian_series",
    "build_original_hamiltonian",
    "build_transformed_hamiltonian",
    "apply_T",
    "propagate",
    "transformed_residual_norm",
]


DIMENSION_CAP = 2_000_000
# Most entries of a dense array that one product reads, for which
# propagation and apply_T use dense arrays instead of CSR: both arrays of
# _evolve's table path, the (J, used) frequency table and the d x d stage
# operator, and the d x d generator of apply_T.  The d^2 bound alone admits
# sectors of up to 200 states.
DENSE_ENTRIES_MAX = 40_000
TRUNCATION_TOL = 1e-6

GROUND, EXCITED = 0, 1


def _occupations_of_total(n_modes: int, total: int):
    """Occupation vectors with the given total, in lexicographic order."""
    if n_modes == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _occupations_of_total(n_modes - 1, total - first):
            yield (first,) + rest


class FockBasis:
    """Truncated basis (photon occupations, sum <= n_max) x (atom level)."""

    def __init__(self, n_modes: int, n_max: int):
        if n_modes < 1 or n_max < 0:
            raise ConfigError("need n_modes >= 1 and n_max >= 0")
        dim = 2 * comb(n_modes + n_max, n_max)
        if dim > DIMENSION_CAP:
            raise CapacityError(
                f"basis dimension {dim} exceeds the cap {DIMENSION_CAP}"
            )
        self.n_modes = n_modes
        self.n_max = n_max
        photons = [occ for total in range(n_max + 1)
                   for occ in _occupations_of_total(n_modes, total)]
        self._photon_index = {occ: p for p, occ in enumerate(photons)}
        self.photons = np.asarray(photons, dtype=np.int32)
        self.dimension = 2 * len(photons)
        assert self.dimension == dim
        self.atom = np.tile(np.array([GROUND, EXCITED], dtype=np.int8), len(photons))
        self.occ = np.repeat(self.photons, 2, axis=0)
        self.total_photons = self.occ.sum(axis=1)

    def index(self, atom: int, occ) -> int:
        if atom not in (GROUND, EXCITED):
            raise KeyError(f"atom level {atom!r} is neither GROUND nor EXCITED")
        return 2 * self._photon_index[tuple(int(x) for x in occ)] + int(atom)

    def vacuum(self, atom: int = GROUND) -> "FockStateVector":
        return self.basis_state(atom, (0,) * self.n_modes)

    def basis_state(self, atom: int, occ) -> "FockStateVector":
        amp = np.zeros(self.dimension, dtype=complex)
        amp[self.index(atom, occ)] = 1.0
        return FockStateVector(self, amp)

    # -- elementary operators --------------------------------------------------

    @cached_property
    def _lowering(self) -> tuple:
        """(rows, cols, values, mode) of the entries of every a_k: the entry
        table every operator of this module is built from."""
        rows, cols, vals, mode = [], [], [], []
        for k in range(self.n_modes):
            src = np.flatnonzero(self.photons[:, k])
            lowered = self.photons[src]
            lowered[:, k] -= 1
            rows.append(np.array([self._photon_index[tuple(o)] for o in lowered.tolist()],
                                 dtype=np.intp))
            cols.append(src)
            vals.append(np.sqrt(self.photons[src, k]))
            mode.append(np.full(len(src), k))
        rows, cols, vals, mode = map(np.concatenate, (rows, cols, vals, mode))
        # the photon-space entries on the ground (2p) and the excited (2p + 1) level
        return (np.concatenate([2 * rows, 2 * rows + 1]),
                np.concatenate([2 * cols, 2 * cols + 1]),
                np.tile(vals, 2).astype(complex), np.tile(mode, 2))

    def mode_number_diagonal(self, omegas) -> np.ndarray:
        """Diagonal of sum_k omega_k n_k for the given frequencies."""
        return self.occ @ np.asarray(omegas, dtype=float)

    def sigma_z_diagonal(self) -> np.ndarray:
        return np.where(self.atom == EXCITED, 1.0, -1.0)


def enumerate_basis(n_modes: int, n_max: int) -> FockBasis:
    return FockBasis(n_modes, n_max)


class FockStateVector:
    """Amplitudes over a :class:`FockBasis`, and the ``info`` dict of the
    call that made them (a fresh empty dict by default)."""

    def __init__(self, basis: FockBasis, amplitudes: np.ndarray,
                 info: dict | None = None):
        self.basis = basis
        self.amplitudes = amplitudes
        self.info = {} if info is None else info

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def amplitude(self, atom: int, occ) -> complex:
        return complex(self.amplitudes[self.basis.index(atom, occ)])


def _hermitian(M, tol: float):
    """M after checking that it equals its adjoint to ``tol`` per element: a
    sparse M as CSR, a dense array as it is."""
    if not isinstance(M, np.ndarray):
        M = M.tocsr()
    err = abs(M - M.conj().T).max()
    if err > tol:
        raise NumericalError(f"operator not Hermitian: max deviation {err:.3e}")
    return M


def _dense(d: int, rows, cols, vals) -> np.ndarray:
    """The d x d array with ``vals`` at (rows, cols), no position twice (a
    lowered configuration identifies its mode, so the a_k never collide)."""
    M = np.zeros((d, d), dtype=complex)
    M[rows, cols] = vals
    return M


def _dense_hamiltonian(diag: np.ndarray, rows, cols, vals) -> np.ndarray:
    """diag(diag) + M + M^+, dense, for an M with entries (rows, cols, vals)
    that has none on the diagonal or where M^+ has one."""
    H = _dense(len(diag), rows, cols, vals)
    H += H.conj().T
    H[np.diag_indices(len(diag))] += diag
    return H


def _free_diagonal(basis: FockBasis, omega_e: float, omega) -> np.ndarray:
    """Diagonal of (omega_e/2) sigma_z + sum_k omega_k n_k."""
    return 0.5 * omega_e * basis.sigma_z_diagonal() + basis.mode_number_diagonal(omega)


class HarmonicHamiltonian:
    """H(t) = diag(diag) + sum_nu (f_nu(t) V_nu + f_nu(t)* V_nu^+) with
    f = ``harmonic_phases(omega_m, t)``, held as the entries of the V_nu.

    V_nu has the values ``vals[nu]`` at (``rows``, ``cols``): the harmonics
    of ``coupling.HARMONICS`` share the positions, and ``vals`` has shape
    (3, nnz).  No position appears twice, on the diagonal or where the
    adjoint of an entry sits: each V_nu of the full Hamiltonian moves one
    photon, and a static series (``omega_m`` 0, where every phase is 1)
    keeps the strict upper triangle of its operator in row 0.

    Calling the object forms the dense H(t), the one place that H(t) is
    formed; propagation never calls it.  Propagation reads the entries
    either through the frequency table of :func:`_frequency_table` (small
    sectors, numpy alone) or through :meth:`apply_offdiagonal`, which
    applies H(t) - diag to a vector or a block of vectors, given the phases
    f at t (so that the phases of many times come from one exponential),
    with one product with ``W``, the stacked
    [V_0; V_1; V_2; V_0^+; V_1^+; V_2^+] of shape (6 d, d), a CSR matrix
    built on first apply from the nonzero values alone: forming H(t) needs
    no scipy, and a zero value adds no work to the product.
    """

    def __init__(self, diag: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                 vals: np.ndarray, omega_m: float):
        self.diag = diag
        self.rows = rows
        self.cols = cols
        self.vals = vals
        self.omega_m = omega_m

    @cached_property
    def W(self) -> "scipy.sparse.csr_matrix":
        import scipy.sparse as sp

        d = len(self.diag)
        nu, e = np.nonzero(self.vals)
        v, rows, cols = self.vals[nu, e], self.rows[e], self.cols[e]
        # V_nu in row block nu, V_nu^+ in row block 3 + nu
        return sp.csr_matrix(
            (np.concatenate([v, np.conj(v)]),
             (np.concatenate([nu * d + rows, (nu + 3) * d + cols]),
              np.concatenate([cols, rows]))),
            shape=(6 * d, d))

    def __call__(self, t: float) -> np.ndarray:
        f = cp.harmonic_phases(self.omega_m, t)
        return _dense_hamiltonian(self.diag, self.rows, self.cols, f @ self.vals)

    def apply_offdiagonal(self, f: np.ndarray, u: np.ndarray) -> np.ndarray:
        """(H(t) - diag) u for the phases f = ``harmonic_phases(omega_m, t)``
        and a vector u of shape (d,) or a block of shape (d, m)."""
        Wu = (self.W @ u).reshape(6, -1)
        return (f @ Wu[:3] + np.conj(f) @ Wu[3:]).reshape(u.shape)

    def restricted(self, idx: np.ndarray) -> "HarmonicHamiltonian":
        """The series on the basis states ``idx``, renumbered in their order:
        the entries whose row and column are both among them."""
        new = np.full(len(self.diag), -1)
        new[idx] = np.arange(len(idx))
        keep = (new[self.rows] >= 0) & (new[self.cols] >= 0)
        return HarmonicHamiltonian(self.diag[idx], new[self.rows[keep]],
                                   new[self.cols[keep]], self.vals[:, keep],
                                   self.omega_m)


def original_hamiltonian_series(basis: FockBasis, grid: ModeGrid,
                                profile: CouplingProfile) -> HarmonicHamiltonian:
    """Full atom-field Hamiltonian as a function of time,
    H(t) = (omega_e/2) sigma_z + sum_k omega_k n_k + sum_k [g_k*(t) a_k^+ + g_k(t) a_k] sigma_x,
    as H_diag + sum_nu (e^{i nu omega_m t} V_nu + h.c.) from the entries of
    V_nu = sum_k g_nu,k a_k sigma_x, which are built once here: those of
    sum_k g_nu,k a_k with the column's atom level, the low bit of its index,
    flipped.
    """
    if grid.n_modes != basis.n_modes:
        raise ConfigError("grid and basis disagree on the number of modes")
    rows, cols, vals, mode = basis._lowering
    return HarmonicHamiltonian(_free_diagonal(basis, profile.omega_e, grid.omega),
                               rows, cols ^ 1,
                               vals * cp.grid_fourier(profile, grid)[:, mode],
                               profile.omega_m)


def build_original_hamiltonian(
    basis: FockBasis, grid: ModeGrid, profile: CouplingProfile, t: float,
) -> np.ndarray:
    """The full atom-field Hamiltonian of :func:`original_hamiltonian_series`
    at t, dense."""
    return _hermitian(original_hamiltonian_series(basis, grid, profile)(t), 1e-12)


def build_transformed_hamiltonian(
    basis: FockBasis, frame: DressedFrame, t: float, variant: str = "NormalOrdered",
) -> HarmonicHamiltonian:
    """Approximate dressed-frame Hamiltonian on the truncated space at t, as
    a static series: ``diag`` is its real diagonal, row 0 of ``vals`` holds
    the entries of its strict upper triangle, and ``omega_m`` is 0.

    Variants:

    * ``"NormalOrdered"`` -- H0 + H1 + sigma_z Gamma with the pair kernel in
      normal order and the frequency shift absorbed into omega_e', which
      is held equal to omega_e (see :mod:`vacuum_shake.dressing`).
    * ``"H0H1only"`` -- excitation-conserving part alone; no scenario uses
      it, the propagation tests need its conserved excitation number.

    S = sum_k eta_k a_k and sigma_+ S come straight from the entry table;
    the pair kernel Gamma is a product of CSR matrices, and the sum must be
    Hermitian to 1e-11 per element.  The complete second-order transform
    H'_(2), which the residual certifies, is the dense
    :func:`_order2_hamiltonian`.
    """
    import scipy.sparse as sp

    if variant not in ("NormalOrdered", "H0H1only"):
        raise ConfigError(f"unknown variant {variant!r}")
    grid = frame.grid
    if grid.n_modes != basis.n_modes:
        raise ConfigError("grid and basis disagree on the number of modes")
    shape = (basis.dimension, basis.dimension)
    rows, cols, vals, mode = basis._lowering
    s = vals * frame.eta_all(t)[mode]  # the entries of S
    up = rows % 2 == GROUND            # sigma_+ S: S's ground-level rows, raised
    C = sp.csr_matrix((s[up], (rows[up] ^ 1, cols[up])), shape=shape)
    H = sp.diags(_free_diagonal(basis, frame.omega_e, grid.omega).astype(complex),
                 format="csr")
    H = H + C + C.conj().T
    if variant == "NormalOrdered":
        S = sp.csr_matrix((s, (rows, cols)), shape=shape)
        P = S.conj().T.tocsr()  # sum_k eta_k* a_k^+, the pair kernel's creator
        Gamma = (P @ P + S @ S - 2.0 * (P @ S)) / (4.0 * frame.omega_e)
        H = H + Gamma.tocsr().multiply(basis.sigma_z_diagonal()[:, None])
    H = _hermitian(H, 1e-11)
    upper = sp.triu(H, k=1, format="coo")
    series = np.zeros((3, upper.nnz), dtype=complex)
    series[0] = upper.data
    return HarmonicHamiltonian(H.diagonal().real, upper.row, upper.col, series, 0.0)


def _order2_hamiltonian(basis: FockBasis, frame: DressedFrame,
                        t: float) -> np.ndarray:
    """The complete second-order transformed Hamiltonian H'_(2) at t, dense.

    The free part, the co-rotating single-photon term
    sigma_+ sum_k c_co,k a_k + h.c. with its displacement coefficients, the
    quadratic term omega_e sigma_z X^2 for X = sum_k (xi_k* a_k^+ - xi_k a_k),
    and the scalar phase E(t).  The counter-rotating coefficients
    c_cr = g - (omega_e + omega) xi - i d(xi)/dt are the elimination
    condition the frame's periodic xi solves, so they vanish and their
    sigma_- term is left out; a frame that failed to remove them would leave
    a residual of first order in xi.
    """
    omega, omega_e = frame.grid.omega, frame.omega_e
    xi = frame.xi_all(t)
    c_co = (omega_e - omega) * xi + frame.g_all(t) - 1j * frame.xi_dot_all(t)
    # sigma_+ moves the entries of a_k on the ground level to the excited row
    rows, cols, vals, mode = basis._lowering
    up = rows % 2 == GROUND
    H = _dense_hamiltonian(_free_diagonal(basis, omega_e, omega),
                           rows[up] ^ 1, cols[up], vals[up] * c_co[mode[up]])
    # a_k acts on both atom levels alike, so sigma_x commutes with X and
    # X^2 = G^2 for the generator G = sigma_x X
    G = _dense(basis.dimension, *_generator_entries(basis, xi, +1))
    H += omega_e * ((G @ G) * basis.sigma_z_diagonal()[:, None])
    H[np.diag_indices(basis.dimension)] += phase_E(frame, t)
    return _hermitian(H, 1e-11)


# theta_m: the largest 1-norm of G for which m Taylor terms of exp(G) reach
# double precision -- Table A.3 of Higham and Al-Mohy, Acta Numerica 19, 159
# (2010) for m <= 30, Table 3.1 of Al-Mohy and Higham (2011) above; the
# digits of scipy.sparse.linalg's table.
_THETA = {1: 2.29e-16, 2: 2.58e-8, 3: 1.39e-5, 4: 3.40e-4, 5: 2.40e-3,
          6: 9.07e-3, 7: 2.38e-2, 8: 5.00e-2, 9: 8.96e-2, 10: 1.44e-1,
          11: 2.14e-1, 12: 3.00e-1, 13: 4.00e-1, 14: 5.14e-1, 15: 6.41e-1,
          16: 7.81e-1, 17: 9.31e-1, 18: 1.09, 19: 1.26, 20: 1.44,
          21: 1.62, 22: 1.82, 23: 2.01, 24: 2.22, 25: 2.43,
          26: 2.64, 27: 2.86, 28: 3.08, 29: 3.31, 30: 3.54,
          35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9}


def _inf_norm(x: np.ndarray) -> float:
    """np.linalg.norm(x, np.inf) of a vector or a block, in its order,
    without its argument checks."""
    a = np.abs(x)
    return a.max() if a.ndim == 1 else a.sum(axis=1).max()


def _expm_multiply(G, B: np.ndarray) -> tuple:
    """exp(G) B for a traceless G, a CSR matrix or a dense array, and a
    vector or matrix B; returns it with the number of products G @ (block)
    taken.

    Algorithm 3.2 of Al-Mohy and Higham, SIAM J. Sci. Comput. 33, 488 (2011),
    as ``scipy.sparse.linalg.expm_multiply`` runs it, bit for bit for a CSR
    G, when the exact 1-norm of G is at most about 63 and B is one vector:
    s steps of m Taylor terms, with (m, s) minimising m s over the
    ``_THETA`` table at s = ceil(|G|_1 / theta_m), and a step's series
    stopped once two successive terms fall below 2^-53 of the partial sum
    (infinity norms).
    The generators here are traceless, so scipy's trace shift is 0 and
    left out.  Above |G|_1 of about 63 / (columns of B), scipy bounds s with
    estimated norms of powers of G (the alpha_p branch, condition 3.13 of
    the paper); that branch is left out because every displacement
    generator of the shipped scenarios has |G|_1 < 1, and the theta bound
    stays accurate above it, only costlier.  A dense G takes the same
    steps with dense products, which sum in another order.  A zero G
    returns a copy of B: the result never shares memory with B.
    """
    dense = isinstance(G, np.ndarray)
    if not dense and not G.has_sorted_indices:
        # scipy multiplies by a canonical copy of G, which sums each row of
        # G @ B in column order
        G = G.sorted_indices()
    # exact 1-norm: the largest column sum of |G|; for CSR summed in the order
    # of scipy's abs(G).sum(axis=0) and about 25 times faster on small G
    norm = float(np.abs(G).sum(axis=0).max() if dense else np.bincount(
        G.indices, weights=np.abs(G.data), minlength=G.shape[1]).max())
    if norm == 0:
        return B.copy(), 0
    m_star, s = min(((m, ceil(norm / theta)) for m, theta in _THETA.items()),
                    key=lambda ms: ms[0] * ms[1])
    tol = 2.0 ** -53
    F, n_products = B, 0
    for _ in range(s):
        c1 = _inf_norm(B)
        for j in range(m_star):
            B = (1.0 / (s * (j + 1))) * (G @ B)
            n_products += 1
            c2 = _inf_norm(B)
            F = F + B
            if c1 + c2 <= tol * _inf_norm(F):
                break
            c1 = c2
        B = F
    return F, n_products


def _generator_entries(basis: FockBasis, xi: np.ndarray, direction: int) -> tuple:
    """(rows, cols, values) of direction * sigma_x (S^+ - S) for
    S = sum_k xi_k a_k: sigma_x flips the atom level, the low bit of a row
    index."""
    rows, cols, vals, mode = basis._lowering
    s = float(direction) * (vals * xi[mode])   # entries of direction * S
    # sigma_x S^+ at (cols ^ 1, rows), and -sigma_x S at (rows ^ 1, cols)
    return (np.concatenate([cols ^ 1, rows ^ 1]), np.concatenate([rows, cols]),
            np.concatenate([np.conj(s), -s]))


def _csr(d: int, rows, cols, vals) -> "scipy.sparse.csr_matrix":
    """The d x d CSR matrix with ``vals`` at (rows, cols)."""
    import scipy.sparse as sp

    return sp.csr_matrix((vals, (rows, cols)), shape=(d, d))


def _displacement_generator(basis: FockBasis, frame: DressedFrame, t: float,
                            direction: int) -> "scipy.sparse.csr_matrix":
    """The generator of :func:`_generator_entries` at xi(t), CSR."""
    return _csr(basis.dimension, *_generator_entries(basis, frame.xi_all(t), direction))


def apply_T(basis: FockBasis, frame: DressedFrame, t: float,
            state: FockStateVector, direction: int = +1) -> FockStateVector:
    """Apply the spin-conditioned displacement exp[direction * sigma_x X(t)],
    X = sum_k (xi_k* a_k^+ - xi_k a_k), to ``state``.

    The exponential acts on the vector through :func:`_expm_multiply` on the
    generator (Al-Mohy and Higham 2011); no matrix exponential is formed,
    and ``info["expm_matvecs"]`` counts its products.  A basis of d states
    with d^2 <= ``DENSE_ENTRIES_MAX`` gets the dense d x d generator and
    needs no scipy; a larger one gets the CSR generator, with the same
    states as ``scipy.sparse.linalg.expm_multiply`` to the bit while its
    1-norm stays below about 63, as every shipped one does by far.  The
    generator is anti-Hermitian, so the map is unitary on the truncated
    space, and a norm change above 1e-10 raises.  The physical truncation
    error is estimated from the population of the top photon-number shell
    and the displacement size and recorded in
    ``info["truncation_estimate"]``; an estimate above
    ``TRUNCATION_TOL`` warns and does not raise, so an under-resolved run
    still returns its state and reports the estimate.  The returned
    amplitudes never share memory with ``state``'s, also at zero
    displacement.
    """
    if direction not in (+1, -1):
        raise ConfigError("direction must be +1 (to the dressed frame) or -1")
    d, xi = basis.dimension, frame.xi_all(t)
    build = _dense if d * d <= DENSE_ENTRIES_MAX else _csr
    out, n_products = _expm_multiply(build(d, *_generator_entries(basis, xi, direction)),
                                     state.amplitudes)

    norm_in, norm_out = state.norm, float(np.linalg.norm(out))
    if abs(norm_out - norm_in) > 1e-10 * max(norm_in, 1.0):
        raise NumericalError(
            "displacement transform lost norm",
            details={"in": norm_in, "out": norm_out},
        )

    top = basis.total_photons == basis.n_max
    shell_pop = float(np.sum(np.abs(out[top]) ** 2))
    est = np.sqrt(shell_pop * np.sum(np.abs(xi) ** 2) * (basis.n_max + 1))
    if est > TRUNCATION_TOL:
        warnings.warn(f"estimated displacement truncation error {est:.2e} exceeds "
                      f"{TRUNCATION_TOL:.1e}; raise n_max", stacklevel=2)
    return FockStateVector(basis, out, info={"truncation_estimate": est,
                                             "expm_matvecs": n_products})


# Dormand-Prince 8(5,3) tableau of DOP853: E. Hairer, S. P. Norsett and
# G. Wanner, "Solving Ordinary Differential Equations I: Nonstiff Problems"
# (2nd ed., Springer 1993), and Hairer's Fortran code dop853.f; the same
# digits as scipy.integrate's dop853_coefficients.  Stage s (0..11) runs at
# t + C[s] h from y + h sum_r A[s][r] K[r]; B weighs the eighth-order
# solution; E5 and E3 weigh the 5th- and 3rd-order error estimates over the
# 12 stages plus f(t + h, y_new).
_DOP_C = np.array([
    0.0,
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0,
])
_DOP_A = [np.array(row) for row in (
    [],
    [5.26001519587677318785587544488e-2],
    [1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2],
    [2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2],
    [2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1],
    [3.7037037037037037037037037037e-2, 0.0, 0.0,
     1.70828608729473871279604482173e-1, 1.25467687566822425016691814123e-1],
    [3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2],
    [3.70920001185047927108779319836e-2, 0.0, 0.0,
     1.70383925712239993810214054705e-1, 1.07262030446373284651809199168e-1,
     -1.53194377486244017527936158236e-2, 8.27378916381402288758473766002e-3],
    [6.24110958716075717114429577812e-1, 0.0, 0.0,
     -3.36089262944694129406857109825, -8.68219346841726006818189891453e-1,
     2.75920996994467083049415600797e1, 2.01540675504778934086186788979e1,
     -4.34898841810699588477366255144e1],
    [4.77662536438264365890433908527e-1, 0.0, 0.0,
     -2.48811461997166764192642586468, -5.90290826836842996371446475743e-1,
     2.12300514481811942347288949897e1, 1.52792336328824235832596922938e1,
     -3.32882109689848629194453265587e1, -2.03312017085086261358222928593e-2],
    [-9.3714243008598732571704021658e-1, 0.0, 0.0,
     5.18637242884406370830023853209, 1.09143734899672957818500254654,
     -8.14978701074692612513997267357, -1.85200656599969598641566180701e1,
     2.27394870993505042818970056734e1, 2.49360555267965238987089396762,
     -3.0467644718982195003823669022],
    [2.27331014751653820792359768449, 0.0, 0.0,
     -1.05344954667372501984066689879e1, -2.00087205822486249909675718444,
     -1.79589318631187989172765950534e1, 2.79488845294199600508499808837e1,
     -2.85899827713502369474065508674, -8.87285693353062954433549289258,
     1.23605671757943030647266201528e1, 6.43392746015763530355970484046e-1],
)]
_DOP_B = np.array([
    5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
    4.45031289275240888144113950566, 1.89151789931450038304281599044,
    -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
    4.47106157277725905176885569043e-2,
])
_DOP_E3 = np.append(_DOP_B, 0.0)
_DOP_E3[[0, 8, 11]] -= [0.244094488188976377952755905512,
                        0.733846688281611857341361741547,
                        0.220588235294117647058823529412e-1]
_DOP_E5 = np.array([
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
    -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
    0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
    0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1, 0.0,
])
# the weights as complex, the cast that np.dot makes of a real row for
# each product with the complex stages, made once
_DOP_A = [row.astype(complex) for row in _DOP_A]
_DOP_B, _DOP_E3, _DOP_E5 = (w.astype(complex) for w in (_DOP_B, _DOP_E3, _DOP_E5))


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


def _norm_squared(x: np.ndarray) -> float:
    """np.linalg.norm(x) ** 2 for a flat complex x, in the order and with
    the roundings of that expression, without its argument checks."""
    re, im = x.real, x.imag
    return sqrt(re.dot(re) + im.dot(im)) ** 2


def _dop853(stages, t0: float, y0: np.ndarray, t_out, rtol: float,
            atol: float) -> tuple:
    """Integrate the linear problem y' = L(t) y from t0 through the
    increasing times ``t_out`` (each >= t0) with DOP853; return the list of
    y at each of them and ``{"n_rhs_evals", "n_steps", "n_rejected"}``.

    L enters only through ``stages(ts)``: for an array of at most 11 times
    it returns ``apply(s, z, out)``, which writes L(ts[s]) z into ``out``
    (both of y's shape); an ``apply`` is called only until the next call of
    ``stages``, so the two may share buffers.  L at a step's stage times does
    not depend on y, so each
    attempted step calls ``stages`` once, for its 11 distinct stage times
    t + C[1:] h, and forms all of its operators in one batch; C[11] = 1, so
    the evaluation f(t + h, y_new) that the next step reuses (FSAL) applies
    stage 11's operator.  The start calls it twice more, for f(t0) and for
    the probe of the initial-step rule, whose time depends on f(t0).

    Step for step the algorithm of ``scipy.integrate.solve_ivp(method=
    "DOP853")`` without dense output: Hairer's initial-step rule, the error
    norm |h| |e5|^2 / sqrt(n (|e5|^2 + 0.01 |e3|^2)) of the scaled E5 and E3
    estimates, the step factor 0.9 err^(-1/8) (the estimate is O(h^8))
    clamped to [0.2, 10], no growth right after a rejection, a minimum step
    of 10 ulp of t and the last step clipped to t1 = ``t_out[-1]``.  The
    stage sums run in scipy's order, into preallocated buffers, so when
    ``apply`` computes L(t) z as scipy's ``fun(t, z)`` would, the states are
    scipy's to the bit.  A step that would pass an earlier output time is
    clipped to it the same way, and once accepted the next step takes at
    least the length the clip cut short, unless the controller asks to
    shrink; so the stepper starts up once for all output times, and with a
    single one its steps are scipy's.  Rtol below 100 machine epsilon is
    raised to it, with a warning.  A step below the minimum raises
    :class:`NumericalError` with ``t_reached``.
    """
    eps = np.finfo(float).eps
    if rtol < 100 * eps:
        warnings.warn(f"rtol {rtol:.1e} is below 100 eps; using {100 * eps:.1e}",
                      stacklevel=2)
        rtol = 100 * eps
    t_out = [float(x) for x in t_out]
    t, t1 = float(t0), t_out[-1]
    y = np.array(y0, dtype=complex)
    if t1 <= t:
        return [y] * len(t_out), {"n_rhs_evals": 0, "n_steps": 0, "n_rejected": 0}

    # K[s] is stage s as y's shape, Kf the same rows flat for the stage sums
    # and KT[s] the first s of them as columns
    Kf = np.empty((13, y.size), dtype=complex)
    K = list(Kf.reshape(13, *y.shape))
    KT = [Kf[:s].T for s in range(14)]
    z, y_new = np.empty_like(y), np.empty_like(y)
    zf, y_newf = z.reshape(-1), y_new.reshape(-1)

    stages(np.array([t]))(0, y, K[0])
    f = K[0]
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t1 - t)
    stages(np.array([t + h0]))(0, y + h0 * f, K[1])
    d2 = _rms((K[1] - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    h_abs = min(100 * h0, h1, t1 - t)

    yf = y.reshape(-1)
    abs_y, abs_new = np.abs(yf), np.empty(y.size)
    scale, err5, err3 = np.empty(y.size), np.empty_like(yf), np.empty_like(yf)
    ys, n_steps, n_rejected = [], 0, 0
    for t_stop in t_out:
        while t < t_stop:
            min_step = 10 * (nextafter(t, inf) - t)
            h_abs = max(h_abs, min_step)
            rejected = False
            while True:
                if h_abs < min_step:
                    raise NumericalError(
                        "time propagation failed (possible stiffness / step underflow)",
                        details={"t_reached": float(t), "step": float(h_abs)},
                    )
                h_wanted = h_abs
                t_new = min(t + h_abs, t_stop)
                h = h_abs = t_new - t
                apply = stages(t + _DOP_C[1:] * h)
                for s in range(1, 12):
                    np.dot(KT[s], _DOP_A[s], out=zf)
                    zf *= h
                    zf += yf
                    apply(s - 1, z, K[s])
                np.dot(KT[12], _DOP_B, out=y_newf)
                y_newf *= h
                y_newf += yf
                apply(10, y_new, K[12])

                # scale = atol + max(|y|, |y_new|) rtol
                np.abs(y_newf, out=abs_new)
                np.maximum(abs_y, abs_new, out=scale)
                scale *= rtol
                scale += atol
                np.divide(np.dot(KT[13], _DOP_E5, out=err5), scale, out=err5)
                np.divide(np.dot(KT[13], _DOP_E3, out=err3), scale, out=err3)
                e5, e3 = _norm_squared(err5), _norm_squared(err3)
                err = 0.0 if e5 == 0 and e3 == 0 else \
                    h * e5 / sqrt((e5 + 0.01 * e3) * y.size)
                if err < 1:
                    factor = 10 if err == 0 else min(10, 0.9 * err ** -0.125)
                    h_abs *= min(1, factor) if rejected else factor
                    if t_new == t_stop and h_abs > h:
                        h_abs = max(h_abs, h_wanted)
                    break
                h_abs *= max(0.2, 0.9 * err ** -0.125)
                rejected = True
                n_rejected += 1
            t, abs_y, abs_new = t_new, abs_new, abs_y
            y, y_new = y_new, y
            yf, y_newf = y_newf, yf
            Kf[0] = Kf[12]
            n_steps += 1
        ys.append(y.copy())
    return ys, {"n_rhs_evals": 2 + 12 * (n_steps + n_rejected),
                "n_steps": n_steps, "n_rejected": n_rejected}


def _parity_sectors(H: HarmonicHamiltonian, basis: FockBasis,
                    psi: np.ndarray) -> list:
    """Index arrays of the parity sectors of ``basis`` on which ``psi`` has
    support, when every entry of H keeps the parity (-1)^(N + atom); the
    whole basis as one sector otherwise."""
    parity = (basis.total_photons + basis.atom) % 2
    if np.any(parity[H.rows] != parity[H.cols]):
        return [np.arange(basis.dimension)]
    return [idx for idx in (np.flatnonzero(parity == 0), np.flatnonzero(parity == 1))
            if np.any(psi[idx])]


def _period_pays(periods: float, d: int) -> bool:
    """Whether an interval of ``periods`` drive periods costs less on a
    d-state sector by integrating the sector's identity through one period
    than by stepping its vector through the whole interval.

    Integrating d columns through one period costs as much as stepping the
    vector through about 1 + (d / 24)^2 periods.  Measured on a 2-vCPU VM
    with one BLAS thread at rtol 1e-10 on the OracleCompare physics (the
    stepped cost fitted over four interval lengths, interleaved with the
    period path; the range of the medians of five repetitions over three
    runs), the break-even interval was 1.6-1.7 periods at d = 15, 3.1-4.1
    at d = 35, 10.1-12.6 at d = 70 and 24.2-24.9 at d = 126, where both
    paths read the frequency table, and 90 at d = 210, where both take the
    CSR product.  Written 1 + (d / c)^2, those are c = 19, 20-24, 21-23, 26
    and 22: no one constant fits them all, so c stays 24, which fits
    d = 35.  At d = 15 and 70 the rule takes the period path on intervals
    up to 13% and 25% short of the break-even, and at d = 126 it steps up
    to 17% past it; there the path taken costs up to about that much more
    than the other.  Applying U(T) costs d^2 a period, negligible against
    a stepped period's couple of hundred RHS evaluations.
    """
    return periods > 1 + (d / 24.0) ** 2


def _frequency_table(H: HarmonicHamiltonian, start: float) -> tuple | None:
    """(Omega, used, A): the interaction-picture off-diagonal part of H as a
    Fourier series in tau = t - start,
    -i e^{i D tau} (H(t) - diag) e^{-i D tau} = sum_j e^{i Omega_j tau} A_j,
    with D = ``H.diag``, each d x d A_j held at the increasing flat
    positions ``used`` (a d + b for (a, b)) where an entry of H - diag sits:
    A has shape (J, len(used)), and every other position of every A_j is
    zero.  None when the table or the d x d operator it fills would hold
    more than ``DENSE_ENTRIES_MAX`` entries.

    An entry v of V_nu at (a, b) oscillates at nu omega_m + D_a - D_b and
    its adjoint at the negated frequency; the phase e^{i nu omega_m start}
    and the -i go into A, and entries at bitwise-equal frequencies share a
    row.  Zero values add nothing.
    """
    d = len(H.diag)
    if d * d > DENSE_ENTRIES_MAX:
        return None
    nu, e = np.nonzero(H.vals)
    rows, cols = H.rows[e], H.cols[e]
    w = cp.HARMONICS[nu] * H.omega_m
    freq = w + H.diag[rows] - H.diag[cols]
    freq = np.concatenate([freq, -freq])
    # sorted distinct frequencies by mask, not np.unique, whose first call
    # imports numpy.ma (about 10 ms); the mask also serves an empty H
    Omega = np.sort(freq)
    distinct = np.ones(len(Omega), dtype=bool)
    distinct[1:] = Omega[1:] != Omega[:-1]
    Omega = Omega[distinct]
    # -i V_nu at (rows, cols), and -i V_nu^+ at (cols, rows)
    at = np.concatenate([rows * d + cols, cols * d + rows])
    used = np.flatnonzero(np.bincount(at, minlength=d * d))
    if len(Omega) * len(used) > DENSE_ENTRIES_MAX:
        return None
    v = -1j * H.vals[nu, e] * np.exp(1j * w * start)
    A = np.zeros((len(Omega), len(used)), dtype=complex)
    np.add.at(A, (np.searchsorted(Omega, freq), np.searchsorted(used, at)),
              np.concatenate([v, -np.conj(v)]))
    return Omega, used, A


def _evolve(H: HarmonicHamiltonian, y: np.ndarray, start: float, ends,
            tol: float) -> tuple:
    """Carry the vector or (d, m) block ``y`` from ``start`` through the
    increasing times ``ends`` under H with one :func:`_dop853` integration
    in the interaction picture of ``H.diag``; return the list of its
    lab-frame values at ``ends`` with the stepper's statistics.

    The stepper asks for the operators of all stage times of a step at
    once.  While H's :func:`_frequency_table` and the d x d operator fit in
    ``DENSE_ENTRIES_MAX`` entries each, e^{i Omega (t - start)} @ A, one
    exponential and one product for the k <= 11 times, fills the used
    positions of a (11, d, d) stack allocated once, whose other positions
    stay zero, and each stage is one dense product with a slice of it.
    Otherwise the k rows of diagonal phases and of harmonic phases come
    from one exponential each, and each stage applies the CSR product of
    :meth:`HarmonicHamiltonian.apply_offdiagonal` between the diagonal
    phases, whose cost grows with H's entries instead of d^2.
    """
    d = len(H.diag)
    table = _frequency_table(H, start)
    if table is not None:
        Omega, used, A = table
        # each call of stages overwrites the operators of the last; ``at``
        # is the used positions of all 11 stage operators in one flat index
        flat = np.zeros(11 * d * d, dtype=complex)
        M = flat.reshape(11, d, d)
        at = (d * d * np.arange(11)[:, None] + used).reshape(-1)

        def stages(ts):
            X = np.exp(1j * (ts - start)[:, None] * Omega) @ A
            flat[at[:X.size]] = X.reshape(-1)
            return lambda s, z, out: np.matmul(M[s], z, out=out)
    else:
        column = (...,) + (None,) * (y.ndim - 1)

        def stages(ts):
            P = np.exp(-1j * H.diag * (ts - start)[:, None])[column]
            Q = -1j * np.conj(P)
            F = cp.harmonic_phases(H.omega_m, ts[:, None])
            return lambda s, z, out: np.multiply(
                Q[s], H.apply_offdiagonal(F[s], P[s] * z), out=out)

    vs, stats = _dop853(stages, start, y, ends, tol, tol * 1e-2)
    D = H.diag.reshape(-1, *(1,) * (y.ndim - 1))
    return [np.exp(-1j * D * (end - start)) * v for end, v in zip(ends, vs)], stats


def propagate(
    H: HarmonicHamiltonian,
    state: FockStateVector,
    t0: float,
    t1: float,
    tol: float = 1e-10,
) -> FockStateVector:
    """Solve i d|psi>/dt = H(t) |psi> from t0 to t1 with DOP853 at rtol ``tol``
    and atol ``tol * 1e-2``.

    ``H`` is a :class:`HarmonicHamiltonian`; a static one has ``omega_m`` 0.
    Its static diagonal D = ``H.diag`` is removed analytically,
    psi(t) = exp(-i D (t - t0)) phi(t), so step sizes track the coupling
    strength instead of the fastest phase; the rest of H(t) is never formed.
    On a sector whose frequency table, held at the positions of H's entries
    only, and whose d x d operator each fit in ``DENSE_ENTRIES_MAX``
    entries (every sector of up to 200 states on the oracle physics), each
    step reads the interaction-picture operators of its stages from that
    table (:func:`_frequency_table`, numpy alone); a larger sector applies
    ``apply_offdiagonal``'s CSR product at each stage.  The stepper
    is the in-package :func:`_dop853` for linear problems, with Hairer's
    dop853 coefficients, taking the steps that
    ``scipy.integrate.solve_ivp(method="DOP853")`` takes; it forms the
    operators of a step's stage times in one batch (see :func:`_evolve`).

    H is propagated on each parity sector of (-1)^(N + atom) where the
    state has support (the V_nu of the full and of the transformed
    Hamiltonian never leave a sector; a series whose V_nu do is propagated
    on the whole basis).  With omega_m > 0, H(t + T) = H(t) for the period
    T = 2 pi / omega_m, so for t1 - t0 = n T + r the propagator factors as
    U(t1, t0) = U(t0 + r, t0) U(t0 + T, t0)^n.  One integration of the
    sector's d x d identity from t0 gives both factors: its output times are
    t0 + r, for U(r), and t0 + T, for U(T), and the state is
    U(r) U(T)^n psi(t0) by matrix-vector products; no vector is stepped.
    That pays when the d columns of one period cost less than stepping the
    vector through the whole interval; :func:`_period_pays` decides it from
    the interval in periods, (t1 - t0) / T, and d alone, by the measured
    rule (t1 - t0) / T > 1 + (d / 24)^2, and otherwise the whole interval
    is stepped (so a static series, omega_m = 0, and an interval shorter
    than T always are).  The error of U(T) compounds about linearly in n,
    as stepping's does: on the OracleCompare physics at n_max 2 and rtol
    1e-10, against stepping at rtol 1e-13, the state was off by 1.4e-11
    after 4 periods, 2.3e-10 after 79 and 5.7e-10 after 795, where stepping
    at rtol 1e-10 was off by 7.3e-12, 1.2e-10 and 6.9e-10.

    The returned state records in ``.info`` the norm drift, the number of
    right-hand-side evaluations and the numbers of accepted and rejected
    steps over every integration (``norm_drift``, ``n_rhs_evals``,
    ``n_steps``, ``n_rejected``); the number of whole periods applied as
    U(T) (``n_periods``, 0 when stepped), the RHS evaluations of the
    integrations of the d-column identity (``period_rhs_evals``, all of
    ``n_rhs_evals`` on the period path), and the largest
    max|U(T)^+ U(T) - 1| over the sectors (``unitarity_defect``).
    """
    if t1 < t0:
        raise ConfigError("t1 must be >= t0")
    basis, psi = state.basis, state.amplitudes
    info = {"n_rhs_evals": 0, "n_steps": 0, "n_rejected": 0, "n_periods": 0,
            "period_rhs_evals": 0, "unitarity_defect": 0.0, "norm_drift": 0.0}
    if t1 == t0:
        return FockStateVector(basis, psi.copy(), info=info)
    out = np.zeros_like(psi, dtype=complex)
    period = 2.0 * np.pi / H.omega_m if H.omega_m > 0 else np.inf
    n, r = divmod(t1 - t0, period)   # no whole period when T is infinite
    n = int(n)
    for idx in _parity_sectors(H, basis, psi):
        d = len(idx)
        Hs = H if d == basis.dimension else H.restricted(idx)
        if _period_pays((t1 - t0) / period, d):
            # one integration of the identity: U(t0 + r, t0) on the way to U(t0 + T, t0)
            (U_r, U), stats = _evolve(Hs, np.eye(d, dtype=complex), t0,
                                      (t0 + r, t0 + period), tol)
            y = psi[idx]
            for _ in range(n):
                y = U @ y
            y = U_r @ y
            info["n_periods"] = n
            info["period_rhs_evals"] += stats["n_rhs_evals"]
            info["unitarity_defect"] = max(info["unitarity_defect"], float(
                np.max(np.abs(U.conj().T @ U - np.eye(d)))))
        else:
            (y,), stats = _evolve(Hs, psi[idx], t0, (t1,), tol)
        for key in stats:
            info[key] += stats[key]
        out[idx] = y
    info["norm_drift"] = abs(float(np.linalg.norm(out)) - state.norm)
    return FockStateVector(basis, out, info=info)


def transformed_residual_norm(
    basis: FockBasis, frame: DressedFrame, t: float, *,
    shell_margin: int = 2,
) -> float:
    """Max-element norm of T H T^+ - i T dT^+/dt - H'_(2) over bulk states.

    H'_(2) includes the phase E(t), without which the residual is O(xi^2).
    Dense throughout, with numpy alone: H(t), H'_(2)
    (:func:`_order2_hamiltonian`) and the displacement generator are filled
    from the entries of the a_k, and T is :func:`_expm_multiply` of the
    generator applied to the identity.  dT^+/dt is a central difference with
    step 1e-4 / omega_e.  When both sideband rows of xi are zero, xi and T
    are constant and dT^+/dt = 0 exactly, so the two exponentials of the
    difference are skipped.  Rows and columns are restricted to
    photon-number shells <= n_max - shell_margin: elements touching the top
    shells are dominated by basis-truncation boundary artifacts rather than
    by the third-order remainder this residual certifies.

    Each d x d array takes 16 d^2 bytes, 256 MB at the cap of 4000 states,
    checked before any is built.  At most six are held at once, while an
    exponential is taken: T, the partial residual, the generator and three
    blocks of the Taylor loop.  Each exponential starts from an identity of
    its own, which the loop's first sum releases, and the two terms of the
    difference are subtracted from the residual one exponential at a time.
    """
    d = basis.dimension
    if d > 4000:
        raise CapacityError("residual check is a dense computation; use a smaller basis")
    grid, profile = frame.grid, frame.profile
    if grid.n_modes != basis.n_modes:
        raise ConfigError("grid and basis disagree on the number of modes")

    def dense_T(at, direction):
        G = _dense(d, *_generator_entries(basis, frame.xi_all(at), direction))
        return _expm_multiply(G, np.eye(d, dtype=complex))[0]

    T = dense_T(t, +1)
    R = T @ build_original_hamiltonian(basis, grid, profile, t) @ T.conj().T
    R -= _order2_hamiltonian(basis, frame, t)

    if np.any(frame.xi_coeffs[1:]):
        # R -= i T (T^+(t + h) - T^+(t - h)) / 2h
        h = 1e-4 / frame.omega_e
        c = 1j / (2.0 * h)
        R -= c * (T @ dense_T(t + h, -1))
        R += c * (T @ dense_T(t - h, -1))
    bulk = basis.total_photons <= max(basis.n_max - shell_margin, 0)
    return float(np.max(np.abs(R[np.ix_(bulk, bulk)])))
