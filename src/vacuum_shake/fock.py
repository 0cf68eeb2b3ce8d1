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
entries and forms the dense H(t) from them on request.  CSR matrices are
built only where a product needs them: the stacked operator that
propagation applies, the displacement generator of :func:`apply_T` and the
pair-kernel products of :func:`build_transformed_hamiltonian`.

The full Hamiltonian inherits the harmonic structure of the coupling:
H(t) = H_diag + sum_nu (e^{i nu omega_m t} V_nu + h.c.) with
V_nu = sum_k g_nu,k a_k sigma_x, whose entries are built once per
(basis, grid, profile).
Propagation applies H(t) to the state from those fixed operators -- one
sparse product with the stacked [V_nu; V_nu^+] per right-hand-side
evaluation -- and never forms H(t).  It steps with an in-package DOP853
(:func:`_dop853`): Hairer's explicit Runge-Kutta 8(5,3) pair with the step
control of ``scipy.integrate.solve_ivp(method="DOP853")``, so the package
never imports ``scipy.integrate``.

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
The dense residual needs numpy alone; propagation, :func:`apply_T` and
:func:`build_transformed_hamiltonian` import ``scipy.sparse`` on first use,
not when the package is imported.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from math import ceil, comb

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


class _SparseOnFirstUse:
    """Stands in for ``scipy.sparse`` until an attribute is first read.

    Importing scipy.sparse costs about 0.2 s of a process's start-up, and
    only the CSR products use it (``HarmonicHamiltonian.W``, :func:`apply_T`
    and :func:`build_transformed_hamiltonian`), while the rest of the
    package, the dense residual included, imports this module.  The first
    read imports it and rebinds ``sp`` to it.
    """

    def __getattr__(self, name):
        global sp
        import scipy.sparse as sp
        return getattr(sp, name)


sp = _SparseOnFirstUse()

DIMENSION_CAP = 2_000_000
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


@dataclass
class FockStateVector:
    basis: FockBasis
    amplitudes: np.ndarray
    info: dict = field(default_factory=dict)

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


@dataclass(eq=False)
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
    formed; propagation never calls it.  :meth:`apply_offdiagonal` applies
    H(t) - diag to a vector or a block of vectors with one product with
    ``W``, the stacked [V_0; V_1; V_2; V_0^+; V_1^+; V_2^+] of shape
    (6 d, d), a CSR matrix built on first apply from the nonzero values
    alone: forming H(t) needs no scipy, and a zero value adds no work to
    the product.
    """

    diag: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    omega_m: float

    @cached_property
    def W(self) -> sp.csr_matrix:
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

    def apply_offdiagonal(self, t: float, u: np.ndarray) -> np.ndarray:
        """(H(t) - diag) u for a vector u of shape (d,) or a block of shape (d, m)."""
        f = cp.harmonic_phases(self.omega_m, t)
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

    The free part, the co- and counter-rotating single-photon terms
    sigma_+ sum_k c_co,k a_k + sigma_- sum_k c_cr,k a_k + h.c. with their
    displacement coefficients, the quadratic term omega_e sigma_z X^2 for
    X = sum_k (xi_k* a_k^+ - xi_k a_k), and the scalar phase E(t).  With
    the Floquet xi the counter-rotating coefficients vanish.
    """
    omega, omega_e = frame.grid.omega, frame.omega_e
    xi, xid, g = frame.xi_all(t), frame.xi_dot_all(t), frame.g_all(t)
    c_co = (omega_e - omega) * xi + g - 1j * xid
    c_cr = (-omega_e - omega) * xi + g - 1j * xid
    # sigma_+ moves the entries of a_k on the ground level to the excited
    # row, sigma_- those on the excited level to the ground row
    rows, cols, vals, mode = basis._lowering
    c = np.where(rows % 2 == GROUND, c_co[mode], c_cr[mode])
    H = _dense_hamiltonian(_free_diagonal(basis, omega_e, omega),
                           rows ^ 1, cols, vals * c)
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
    steps with dense products, which sum in another order.
    """
    dense = isinstance(G, np.ndarray)
    if not dense and not G.has_sorted_indices:
        # scipy multiplies by a canonical copy of G, which sums each row of
        # G @ B in column order
        G = G.sorted_indices()
    # exact 1-norm: the largest column sum of |G|; for CSR summed in the order
    # of scipy's abs(G).sum(axis=0) and about 25 times faster on small G
    norm = np.abs(G).sum(axis=0).max() if dense else \
        np.bincount(G.indices, weights=np.abs(G.data), minlength=G.shape[1]).max()
    m_star, s = (0, 1) if norm == 0 else min(
        ((m, ceil(norm / theta)) for m, theta in _THETA.items()),
        key=lambda ms: ms[0] * ms[1])
    tol = 2.0 ** -53
    F, n_products = B, 0
    for _ in range(s):
        c1 = np.linalg.norm(B, np.inf)
        for j in range(m_star):
            B = (1.0 / (s * (j + 1))) * (G @ B)
            n_products += 1
            c2 = np.linalg.norm(B, np.inf)
            F = F + B
            if c1 + c2 <= tol * np.linalg.norm(F, np.inf):
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


def _displacement_generator(basis: FockBasis, frame: DressedFrame, t: float,
                            direction: int) -> sp.csr_matrix:
    """The generator of :func:`_generator_entries` at xi(t), CSR."""
    rows, cols, vals = _generator_entries(basis, frame.xi_all(t), direction)
    return sp.csr_matrix((vals, (rows, cols)), shape=(basis.dimension, basis.dimension))


def apply_T(basis: FockBasis, frame: DressedFrame, t: float,
            state: FockStateVector, direction: int = +1) -> FockStateVector:
    """Apply the spin-conditioned displacement exp[direction * sigma_x X(t)],
    X = sum_k (xi_k* a_k^+ - xi_k a_k), to ``state``.

    The exponential acts on the vector through :func:`_expm_multiply` on the
    sparse generator (Al-Mohy and Higham 2011, the same states as
    ``scipy.sparse.linalg.expm_multiply`` to the bit while the generator's
    1-norm stays below about 63, as every shipped one does by far); no
    matrix exponential is formed, and ``info["expm_matvecs"]`` counts its
    sparse products.  The generator is anti-Hermitian, so the map is unitary
    on the truncated space, and a norm change above 1e-10 raises.  The physical truncation error is estimated
    from the population of the top photon-number shell and the displacement
    size and recorded in ``info["truncation_estimate"]``; an estimate above
    ``TRUNCATION_TOL`` warns and does not raise, so an under-resolved run
    still returns its state and reports the estimate.
    """
    if direction not in (+1, -1):
        raise ConfigError("direction must be +1 (to the dressed frame) or -1")
    out, n_products = _expm_multiply(
        _displacement_generator(basis, frame, t, direction), state.amplitudes)

    norm_in, norm_out = state.norm, float(np.linalg.norm(out))
    if abs(norm_out - norm_in) > 1e-10 * max(norm_in, 1.0):
        raise NumericalError(
            "displacement transform lost norm",
            details={"in": norm_in, "out": norm_out},
        )

    xi = frame.xi_all(t)
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


def _rms(x: np.ndarray) -> float:
    return np.linalg.norm(x) / x.size ** 0.5


def _dop853(fun, t0: float, y0: np.ndarray, t1: float, rtol: float,
            atol: float) -> tuple:
    """Integrate y' = fun(t, y) from t0 to t1 > t0 with DOP853; return the
    final y and ``{"n_rhs_evals", "n_steps", "n_rejected"}``.

    Step for step the algorithm of ``scipy.integrate.solve_ivp(method=
    "DOP853")`` without dense output: Hairer's initial-step rule, the error
    norm |h| |e5|^2 / sqrt(n (|e5|^2 + 0.01 |e3|^2)) of the scaled E5 and E3
    estimates, the step factor 0.9 err^(-1/8) (the estimate is O(h^8))
    clamped to [0.2, 10], no growth right after a rejection, a minimum step of 10 ulp of t and the
    last step clipped to t1.  ``fun`` returns an array of y's shape; rtol
    below 100 machine epsilon is raised to it, with a warning.  A step below
    the minimum raises :class:`NumericalError` with ``t_reached``.
    """
    eps = np.finfo(float).eps
    if rtol < 100 * eps:
        warnings.warn(f"rtol {rtol:.1e} is below 100 eps; using {100 * eps:.1e}",
                      stacklevel=2)
        rtol = 100 * eps
    t, t1 = float(t0), float(t1)
    y = np.asarray(y0, dtype=complex)

    f = fun(t, y)
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t1 - t)
    d2 = _rms((fun(t + h0, y + h0 * f) - f) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    h_abs = min(100 * h0, h1, t1 - t)

    K = np.empty((13, y.size), dtype=complex)
    n_steps = n_rejected = 0
    while t < t1:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while True:
            if h_abs < min_step:
                raise NumericalError(
                    "time propagation failed (possible stiffness / step underflow)",
                    details={"t_reached": float(t), "step": float(h_abs)},
                )
            t_new = min(t + h_abs, t1)
            h = h_abs = t_new - t
            K[0] = f
            for s in range(1, 12):
                K[s] = fun(t + _DOP_C[s] * h, y + np.dot(K[:s].T, _DOP_A[s]) * h)
            y_new = y + h * np.dot(K[:12].T, _DOP_B)
            K[12] = f_new = fun(t + h, y_new)

            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            e5 = np.linalg.norm(np.dot(K.T, _DOP_E5) / scale) ** 2
            e3 = np.linalg.norm(np.dot(K.T, _DOP_E3) / scale) ** 2
            err = 0.0 if e5 == 0 and e3 == 0 else \
                h * e5 / np.sqrt((e5 + 0.01 * e3) * y.size)
            if err < 1:
                factor = 10 if err == 0 else min(10, 0.9 * err ** -0.125)
                h_abs *= min(1, factor) if rejected else factor
                break
            h_abs *= max(0.2, 0.9 * err ** -0.125)
            rejected = True
            n_rejected += 1
        t, y, f = t_new, y_new, f_new
        n_steps += 1
    return y, {"n_rhs_evals": 2 + 12 * (n_steps + n_rejected),
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
    vector through about 1 + (d / 28)^2 periods: measured on a 2-vCPU VM at
    rtol 1e-10 on the OracleCompare physics, the break-even interval was
    1.4-1.8 periods at d = 15, 2.7 at d = 35, 7.8-8.4 at d = 70 and 52-60
    at d = 210.  Applying U(T) costs d^2 a period, negligible against
    a stepped period's couple of hundred RHS evaluations.
    """
    return periods > 1 + (d / 28.0) ** 2


def _evolve(H: HarmonicHamiltonian, y: np.ndarray, start: float, end: float,
            tol: float) -> tuple:
    """Carry the vector or (d, m) block ``y`` from ``start`` to ``end`` under
    H with :func:`_dop853` in the interaction picture of ``H.diag``; return
    it in the lab frame with the stepper's statistics."""
    if end <= start:
        return y, {"n_rhs_evals": 0, "n_steps": 0, "n_rejected": 0}
    shape = y.shape
    D = H.diag.reshape(-1, *(1,) * (y.ndim - 1))

    def rhs(t, v):
        ph = np.exp(-1j * D * (t - start))
        return (-1j * np.conj(ph) * H.apply_offdiagonal(t, ph * v.reshape(shape))).ravel()

    v, stats = _dop853(rhs, start, y.ravel(), end, tol, tol * 1e-2)
    return np.exp(-1j * D * (end - start)) * v.reshape(shape), stats


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
    strength instead of the fastest phase; the rest of H(t) is applied to
    the vector at each step by ``apply_offdiagonal`` and never formed.  The
    stepper is the in-package :func:`_dop853`, with Hairer's dop853
    coefficients, taking the steps that
    ``scipy.integrate.solve_ivp(method="DOP853")`` takes.

    H is propagated on each parity sector of (-1)^(N + atom) where the
    state has support (the V_nu of the full and of the transformed
    Hamiltonian never leave a sector; a series whose V_nu do is propagated
    on the whole basis).  With omega_m > 0, H(t + T) = H(t) for the period
    T = 2 pi / omega_m, so for t1 - t0 = n T + r the propagator factors as
    U(t1, t0) = U(t0 + r, t0) U(t0 + T, t0)^n.  One integration of the
    sector's d x d identity from t0 gives both factors: it is kept at t0 + r
    as U(r) and carried on to t0 + T for U(T), and the state is
    U(r) U(T)^n psi(t0) by matrix-vector products; no vector is stepped.
    That pays when the d columns of one period cost less than stepping the
    vector through the whole interval; :func:`_period_pays` decides it from
    the interval in periods, (t1 - t0) / T, and d alone, by the measured
    rule (t1 - t0) / T > 1 + (d / 28)^2, and otherwise the whole interval
    is stepped (so a static series, omega_m = 0, and an interval shorter
    than T always are).  The error of U(T) compounds about linearly in n,
    as stepping's does: on the OracleCompare physics at n_max 2 and rtol
    1e-10, against stepping at rtol 1e-13, the state was off by 1.4e-11
    after 4 periods, 2.3e-10 after 79 and 5.6e-10 after 795, where stepping
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
            U_r, stats = _evolve(Hs, np.eye(d, dtype=complex), t0, t0 + r, tol)
            U, rest = _evolve(Hs, U_r, t0 + r, t0 + period, tol)
            stats = {key: stats[key] + rest[key] for key in stats}
            y = psi[idx]
            for _ in range(n):
                y = U @ y
            y = U_r @ y
            info["n_periods"] = n
            info["period_rhs_evals"] += stats["n_rhs_evals"]
            info["unitarity_defect"] = max(info["unitarity_defect"], float(
                np.max(np.abs(U.conj().T @ U - np.eye(d)))))
        else:
            y, stats = _evolve(Hs, psi[idx], t0, t1, tol)
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
    step 1e-4 / omega_e.  When every Fourier row of xi with a nonzero
    frequency is zero, xi and T are constant and dT^+/dt = 0 exactly, so the
    two exponentials of the difference are skipped.  Rows and columns are
    restricted to photon-number shells <= n_max - shell_margin: elements
    touching the top shells are dominated by basis-truncation boundary
    artifacts rather than by the third-order remainder this residual certifies.

    Each d x d array takes 16 d^2 bytes, 256 MB at the cap of 4000 states,
    checked before any is built.  At most eight are held at once, while
    T(t - h) is exponentiated: the identity, T, the partial residual,
    T(t + h), the generator and three blocks of the Taylor loop.
    """
    d = basis.dimension
    if d > 4000:
        raise CapacityError("residual check is a dense computation; use a smaller basis")
    grid, profile = frame.grid, frame.profile
    if grid.n_modes != basis.n_modes:
        raise ConfigError("grid and basis disagree on the number of modes")
    eye = np.eye(d, dtype=complex)

    def dense_T(at, direction):
        G = _dense(d, *_generator_entries(basis, frame.xi_all(at), direction))
        return _expm_multiply(G, eye)[0]

    T = dense_T(t, +1)
    R = T @ build_original_hamiltonian(basis, grid, profile, t) @ T.conj().T
    R -= _order2_hamiltonian(basis, frame, t)

    if np.any(frame.xi_coeffs[frame.xi_freqs != 0]):
        h = 1e-4 / frame.omega_e
        dTdag = (dense_T(t + h, -1) - dense_T(t - h, -1)) / (2.0 * h)
        R -= 1j * (T @ dTdag)
    bulk = basis.total_photons <= max(basis.n_max - shell_margin, 0)
    return float(np.max(np.abs(R[np.ix_(bulk, bulk)])))
