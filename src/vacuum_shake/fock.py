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
EXCITED 1).  Atom operators are kron(I_photon, 2x2), and each a_k is its
photon-space matrix placed on both atom levels.  Every operator and
Hamiltonian is a CSR matrix.

The full Hamiltonian inherits the harmonic structure of the coupling:
H(t) = H_diag + sum_nu (e^{i nu omega_m t} V_nu + h.c.) with
V_nu = sum_k g_nu,k a_k sigma_x built once per (basis, grid, profile).
Propagation applies H(t) to the state from those fixed operators -- one
sparse product with the stacked [V_nu; V_nu^+] per right-hand-side
evaluation -- and never forms H(t).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from math import comb
from typing import Union

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.linalg import expm as dense_expm
from scipy.sparse.linalg import expm_multiply

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

    def state_label(self, i: int) -> tuple:
        return (int(self.atom[i]), tuple(int(x) for x in self.occ[i]))

    def vacuum(self, atom: int = GROUND) -> "FockStateVector":
        return self.basis_state(atom, (0,) * self.n_modes)

    def basis_state(self, atom: int, occ) -> "FockStateVector":
        amp = np.zeros(self.dimension, dtype=complex)
        amp[self.index(atom, occ)] = 1.0
        return FockStateVector(self, amp)

    # -- elementary operators --------------------------------------------------

    @cached_property
    def _lowering(self) -> tuple:
        """(rows, cols, values, mode) of the entries of every a_k."""
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

    def annihilator(self, k: int) -> sp.csr_matrix:
        rows, cols, vals, mode = self._lowering
        sel = mode == k
        return sp.csr_matrix((vals[sel], (rows[sel], cols[sel])),
                             shape=(self.dimension, self.dimension))

    def creator(self, k: int) -> sp.csr_matrix:
        return self.annihilator(k).conj().T.tocsr()

    def mode_sum(self, c) -> sp.csr_matrix:
        """sum_k c_k a_k as one sparse matrix (its adjoint is sum_k c_k* a_k^+)."""
        rows, cols, vals, mode = self._lowering
        c = np.asarray(c, dtype=complex)
        return sp.csr_matrix((vals * c[mode], (rows, cols)),
                             shape=(self.dimension, self.dimension))

    def _atom_operator(self, m) -> sp.csr_matrix:
        """kron(I_photon, m) for a 2x2 matrix m on (GROUND, EXCITED)."""
        return sp.kron(sp.identity(self.dimension // 2),
                       sp.csr_matrix(np.asarray(m, dtype=complex)), format="csr")

    @cached_property
    def sigma_x(self) -> sp.csr_matrix:
        return self._atom_operator([[0, 1], [1, 0]])

    @cached_property
    def sigma_plus(self) -> sp.csr_matrix:
        """|e><g|."""
        return self._atom_operator([[0, 0], [1, 0]])

    @cached_property
    def sigma_minus(self) -> sp.csr_matrix:
        """|g><e|."""
        return self._atom_operator([[0, 1], [0, 0]])

    def mode_number_diagonal(self, omegas) -> np.ndarray:
        """Diagonal of sum_k omega_k n_k for the given frequencies."""
        return self.occ @ np.asarray(omegas, dtype=float)

    def sigma_z_diagonal(self) -> np.ndarray:
        return np.where(self.atom == EXCITED, 1.0, -1.0)

    def excitation_number_diagonal(self) -> np.ndarray:
        """Diagonal of N_exc = sum_k n_k + |e><e|."""
        return self.total_photons + (self.atom == EXCITED)


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


def _hermitian(M: sp.spmatrix, tol: float) -> sp.csr_matrix:
    """M as CSR, after checking that it equals its adjoint to ``tol`` per element."""
    M = M.tocsr()
    diff = abs(M - M.conj().T)
    err = diff.max() if diff.nnz else 0.0
    if err > tol:
        raise NumericalError(f"operator not Hermitian: max deviation {err:.3e}")
    return M


class HarmonicHamiltonian:
    """H(t) = diag + sum_nu (f_nu(t) V_nu + f_nu(t)* V_nu^+) with
    f = ``harmonic_phases(omega_m, t)``, held as fixed operators.

    ``diag`` is the static diagonal and ``V`` the three CSR operators V_nu.
    Each V_nu moves one photon, so it has no diagonal.  Calling the object
    forms H(t); :meth:`apply_offdiagonal` applies H(t) - diag to a vector
    with one product with ``W``, the stacked [V_0; V_1; V_2; V_0^+; V_1^+;
    V_2^+] of shape (6 d, d), and never forms H(t).  ``W`` is built on first
    use, so forming H(t) costs no more than the sum itself.
    """

    def __init__(self, diag: np.ndarray, V: list, omega_m: float):
        self.diag = diag
        self.V = V
        self.omega_m = omega_m

    @cached_property
    def W(self) -> sp.csr_matrix:
        return sp.vstack(self.V + [v.conj().T for v in self.V], format="csr")

    def __call__(self, t: float) -> sp.csr_matrix:
        f = cp.harmonic_phases(self.omega_m, t)
        X = f[0] * self.V[0] + f[1] * self.V[1] + f[2] * self.V[2]
        return (sp.diags(self.diag.astype(complex), format="csr")
                + X + X.conj().T).tocsr()

    def apply_offdiagonal(self, t: float, u: np.ndarray) -> np.ndarray:
        """(H(t) - diag) u."""
        f = cp.harmonic_phases(self.omega_m, t)
        Wu = (self.W @ u).reshape(6, -1)
        return f @ Wu[:3] + np.conj(f) @ Wu[3:]


def original_hamiltonian_series(basis: FockBasis, grid: ModeGrid,
                                profile: CouplingProfile) -> HarmonicHamiltonian:
    """Full atom-field Hamiltonian as a function of time,
    H(t) = (omega_e/2) sigma_z + sum_k omega_k n_k + sum_k [g_k*(t) a_k^+ + g_k(t) a_k] sigma_x,
    as H_diag + sum_nu (e^{i nu omega_m t} V_nu + h.c.) from the operators
    V_nu = sum_k g_nu,k a_k sigma_x, which are built once here.
    """
    if grid.n_modes != basis.n_modes:
        raise ConfigError("grid and basis disagree on the number of modes")
    diag = 0.5 * profile.omega_e * basis.sigma_z_diagonal() \
        + basis.mode_number_diagonal(grid.omega)
    sx = basis.sigma_x
    V = [(basis.mode_sum(g_nu) @ sx).tocsr() for g_nu in cp.grid_fourier(profile, grid)]
    return HarmonicHamiltonian(diag, V, profile.omega_m)


def build_original_hamiltonian(
    basis: FockBasis, grid: ModeGrid, profile: CouplingProfile, t: float,
) -> sp.csr_matrix:
    """The full atom-field Hamiltonian of :func:`original_hamiltonian_series` at t."""
    return _hermitian(original_hamiltonian_series(basis, grid, profile)(t), 1e-12)


def build_transformed_hamiltonian(
    basis: FockBasis, frame: DressedFrame, t: float, variant: str = "NormalOrdered",
    *, include_phase: bool = True,
) -> sp.csr_matrix:
    """Dressed-frame Hamiltonian on the truncated space.

    Variants:

    * ``"FullOrder2"`` -- the complete second-order transform: free part,
      co- and counter-rotating single-photon terms with their displacement
      coefficients, the quadratic sigma_z term, and (optionally) the scalar
      phase E(t).  With exact xi the counter-rotating coefficients vanish.
    * ``"NormalOrdered"`` -- H0 + H1 + sigma_z Gamma with the pair kernel in
      normal order and the frequency shift absorbed into omega_e', which
      is held equal to omega_e (see :mod:`vacuum_shake.dressing`).
    * ``"H0H1only"`` -- excitation-conserving part alone.
    """
    if variant not in ("FullOrder2", "NormalOrdered", "H0H1only"):
        raise ConfigError(f"unknown variant {variant!r}")
    grid = frame.grid
    if grid.n_modes != basis.n_modes:
        raise ConfigError("grid and basis disagree on the number of modes")
    omega = grid.omega
    omega_e = frame.omega_e
    sz = basis.sigma_z_diagonal()
    n_diag = basis.mode_number_diagonal(omega)
    spl, smi = basis.sigma_plus, basis.sigma_minus

    if variant == "FullOrder2":
        xi = frame.xi_all(t)
        xid = frame.xi_dot_all(t)
        g = frame.g_all(t)
        c_co = (omega_e - omega) * xi + g - 1j * xid
        c_cr = (-omega_e - omega) * xi + g - 1j * xid
        C = spl @ basis.mode_sum(c_co) + smi @ basis.mode_sum(c_cr)
        H = sp.diags((0.5 * omega_e * sz + n_diag).astype(complex), format="csr")
        H = H + C + C.conj().T
        S = basis.mode_sum(xi)
        X = (S.conj().T - S).tocsr()   # sum_k (xi_k* a_k^+ - xi_k a_k)
        H = H + omega_e * (X @ X).tocsr().multiply(sz[:, None])
        if include_phase:
            H = H + phase_E(frame, t) * sp.identity(basis.dimension, dtype=complex,
                                                    format="csr")
        return _hermitian(H, 1e-11)

    S = basis.mode_sum(frame.eta_all(t))  # sum_k eta_k a_k
    C = spl @ S
    H = sp.diags((0.5 * omega_e * sz + n_diag).astype(complex),
                 format="csr")
    H = H + C + C.conj().T
    if variant == "NormalOrdered":
        P = S.conj().T.tocsr()  # sum_k eta_k* a_k^+, the pair kernel's creator
        Gamma = (P @ P + S @ S - 2.0 * (P @ S)) / (4.0 * omega_e)
        H = H + Gamma.tocsr().multiply(sz[:, None])
    return _hermitian(H, 1e-11)


def _displacement_generator(basis: FockBasis, frame: DressedFrame, t: float,
                            direction: int) -> sp.csr_matrix:
    S = basis.mode_sum(frame.xi_all(t))
    return float(direction) * (basis.sigma_x @ (S.conj().T - S)).tocsr()


def apply_T(basis: FockBasis, frame: DressedFrame, t: float,
            state: FockStateVector, direction: int = +1) -> FockStateVector:
    """Apply the spin-conditioned displacement exp[direction * sigma_x X(t)],
    X = sum_k (xi_k* a_k^+ - xi_k a_k), to ``state``.

    The exponential acts on the vector through ``expm_multiply`` on the
    sparse generator; no matrix exponential is formed.  The generator is
    anti-Hermitian, so the map is unitary on the truncated space, and a norm
    change above 1e-10 raises.  The physical truncation error is estimated
    from the population of the top photon-number shell and the displacement
    size and recorded in ``info["truncation_estimate"]``; an estimate above
    ``TRUNCATION_TOL`` warns and does not raise, so an under-resolved run
    still returns its state and reports the estimate.
    """
    if direction not in (+1, -1):
        raise ConfigError("direction must be +1 (to the dressed frame) or -1")
    out = expm_multiply(_displacement_generator(basis, frame, t, direction),
                        state.amplitudes)

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
    return FockStateVector(basis, out, info={"truncation_estimate": est})


def propagate(
    H: Union[HarmonicHamiltonian, sp.spmatrix],
    state: FockStateVector,
    t0: float,
    t1: float,
    tol: float = 1e-10,
) -> FockStateVector:
    """Solve i d|psi>/dt = H(t) |psi> from t0 to t1 with DOP853 at rtol ``tol``.

    ``H`` is a :class:`HarmonicHamiltonian` or a static sparse matrix.  Its
    static diagonal D (for the harmonic series ``H.diag``) is removed
    analytically, psi(t) = exp(-i D (t - t0)) phi(t), so step sizes track the
    coupling strength instead of the fastest phase; the rest of H(t) is
    applied to the vector at each step (``apply_offdiagonal`` for the
    series) and never formed.  The returned state records the norm drift and
    the number of right-hand-side evaluations in ``.info``.
    """
    if t1 < t0:
        raise ConfigError("t1 must be >= t0")
    if t1 == t0:
        return FockStateVector(state.basis, state.amplitudes.copy(),
                               info={"norm_drift": 0.0, "n_rhs_evals": 0})

    if isinstance(H, HarmonicHamiltonian):
        D, offdiag = H.diag, H.apply_offdiagonal
    else:
        D = np.real(np.asarray(H.diagonal()))

        def offdiag(t, u):
            return H @ u - D * u

    def rhs(t, y):
        ph = np.exp(-1j * D * (t - t0))
        return -1j * np.conj(ph) * offdiag(t, ph * y)

    sol = solve_ivp(
        rhs, (t0, t1), state.amplitudes.astype(complex), method="DOP853",
        rtol=tol, atol=tol * 1e-2, dense_output=False,
    )
    if sol.status != 0:
        raise NumericalError(
            "time propagation failed (possible stiffness / step underflow)",
            details={"message": sol.message, "t_reached": sol.t[-1]},
        )
    y = np.exp(-1j * D * (t1 - t0)) * sol.y[:, -1]
    drift = abs(float(np.linalg.norm(y)) - state.norm)
    return FockStateVector(
        state.basis, y,
        info={"norm_drift": drift, "n_rhs_evals": int(sol.nfev)},
    )


def transformed_residual_norm(
    basis: FockBasis, frame: DressedFrame, t: float, *,
    shell_margin: int = 2, include_phase: bool = True,
) -> float:
    """Max-element norm of T H T^+ - i T dT^+/dt - H'_(2) over bulk states.

    T-conjugation is numerical (matrix exponential of the displacement
    generator), dT^+/dt is a central difference with step 1e-4 / omega_e, and
    H'_(2) is the FullOrder2 variant.  Rows and columns are restricted to
    photon-number shells <= n_max - shell_margin: elements touching the top
    shells are dominated by basis-truncation boundary artifacts rather than
    by the third-order remainder this residual certifies.
    """
    if basis.dimension > 4000:
        raise CapacityError("residual check is a dense computation; use a smaller basis")
    grid, profile = frame.grid, frame.profile

    Gt = _displacement_generator(basis, frame, t, +1).toarray()
    T = dense_expm(Gt)
    H = build_original_hamiltonian(basis, grid, profile, t).toarray()

    h = 1e-4 / frame.omega_e
    Gp = _displacement_generator(basis, frame, t + h, -1).toarray()
    Gm = _displacement_generator(basis, frame, t - h, -1).toarray()
    dTdag = (dense_expm(Gp) - dense_expm(Gm)) / (2.0 * h)

    H2 = build_transformed_hamiltonian(
        basis, frame, t, "FullOrder2", include_phase=include_phase
    ).toarray()

    R = T @ H @ T.conj().T - 1j * (T @ dTdag) - H2
    bulk = basis.total_photons <= max(basis.n_max - shell_margin, 0)
    return float(np.max(np.abs(R[np.ix_(bulk, bulk)])))
