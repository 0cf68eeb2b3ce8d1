"""Brute-force few-photon propagator on a truncated Fock space.

Ground truth for everything the perturbative modules compute: the full
atom-field Hamiltonian, its dressed-frame counterparts, the numerical
spin-conditioned displacement transform, time propagation with adaptive
error control, and the residual certifying the second-order truncation of
the transformed Hamiltonian.

The full Hamiltonian inherits the harmonic structure of the coupling:
H(t) = H_diag + sum_nu (e^{i nu omega_m t} V_nu + h.c.) with
V_nu = sum_k g_nu,k a_k sigma_x built once per (basis, grid, profile), so
propagation evaluates H(t) from three fixed operators.

Basis states are (atom level, photon occupation vector) with a cap on the
total photon number.  Enumeration is total-photon-number major, then
lexicographic in the occupation vector, then ground-before-excited, which
makes state indices deterministic and reproducible across runs.
"""

from __future__ import annotations

import base64
import json
import warnings
from dataclasses import dataclass, field
from math import comb
from typing import Callable, Optional, Union

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.linalg import expm as dense_expm
from scipy.sparse.linalg import expm_multiply

from . import coupling as cp
# eval_g stays bound here: perfbench's tracer wraps it at every module binding it
from .coupling import CouplingProfile, eval_g  # noqa: F401
from .dressing import DressedFrame, phase_E
from .errors import CapacityError, ConfigError, NumericalError
from .modes import ModeGrid

__all__ = [
    "FockBasis",
    "FockStateVector",
    "SparseOperator",
    "enumerate_basis",
    "original_hamiltonian_series",
    "build_original_hamiltonian",
    "build_transformed_hamiltonian",
    "apply_T",
    "propagate",
    "transformed_residual_norm",
]

DIMENSION_CAP = 2_000_000

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
    """Truncated basis over (atom level) x (photon occupations, sum <= n_max)."""

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
        atoms, occs = [], []
        for total in range(n_max + 1):
            for occ in _occupations_of_total(n_modes, total):
                for atom in (GROUND, EXCITED):
                    atoms.append(atom)
                    occs.append(occ)
        self.atom = np.asarray(atoms, dtype=np.int8)
        self.occ = np.asarray(occs, dtype=np.int32)
        self.dimension = len(atoms)
        assert self.dimension == dim
        self._index = {
            (int(a), tuple(int(x) for x in o)): i
            for i, (a, o) in enumerate(zip(self.atom, self.occ))
        }
        self.total_photons = self.occ.sum(axis=1)

    def index(self, atom: int, occ) -> int:
        return self._index[(int(atom), tuple(int(x) for x in occ))]

    def state_label(self, i: int) -> tuple:
        return (int(self.atom[i]), tuple(int(x) for x in self.occ[i]))

    def vacuum(self, atom: int = GROUND) -> "FockStateVector":
        amp = np.zeros(self.dimension, dtype=complex)
        amp[self.index(atom, (0,) * self.n_modes)] = 1.0
        return FockStateVector(self, amp)

    def basis_state(self, atom: int, occ) -> "FockStateVector":
        amp = np.zeros(self.dimension, dtype=complex)
        amp[self.index(atom, occ)] = 1.0
        return FockStateVector(self, amp)

    # -- cached elementary operators ------------------------------------------

    def _cache(self, key, builder):
        store = getattr(self, "_op_cache", None)
        if store is None:
            store = {}
            self._op_cache = store
        if key not in store:
            store[key] = builder()
        return store[key]

    def annihilator(self, k: int) -> sp.csr_matrix:
        def build():
            rows, cols, vals = [], [], []
            for i in range(self.dimension):
                n = self.occ[i, k]
                if n > 0:
                    occ = self.occ[i].copy()
                    occ[k] -= 1
                    j = self.index(self.atom[i], occ)
                    rows.append(j)
                    cols.append(i)
                    vals.append(np.sqrt(float(n)))
            return sp.csr_matrix(
                (vals, (rows, cols)), shape=(self.dimension, self.dimension),
                dtype=complex,
            )
        return self._cache(("a", k), build)

    def creator(self, k: int) -> sp.csr_matrix:
        return self._cache(("adag", k), lambda: self.annihilator(k).conj().T.tocsr())

    def mode_sum(self, c) -> sp.csr_matrix:
        """sum_k c_k a_k as one sparse matrix (its adjoint is sum_k c_k* a_k^+)."""
        def build():
            coos = [self.annihilator(k).tocoo() for k in range(self.n_modes)]
            return (np.concatenate([m.row for m in coos]),
                    np.concatenate([m.col for m in coos]),
                    np.concatenate([m.data for m in coos]),
                    np.concatenate([np.full(m.nnz, k) for k, m in enumerate(coos)]))
        rows, cols, vals, mode = self._cache(("a_all",), build)
        c = np.asarray(c, dtype=complex)
        return sp.csr_matrix((vals * c[mode], (rows, cols)),
                             shape=(self.dimension, self.dimension))

    def number_diagonal(self) -> np.ndarray:
        return self.total_photons.astype(float)

    def mode_number_diagonal(self, omegas) -> np.ndarray:
        """Diagonal of sum_k omega_k n_k for the given frequencies."""
        return self.occ @ np.asarray(omegas, dtype=float)

    def sigma_z_diagonal(self) -> np.ndarray:
        return np.where(self.atom == EXCITED, 1.0, -1.0)

    def sigma_x(self) -> sp.csr_matrix:
        def build():
            rows = [
                self.index(1 - self.atom[i], self.occ[i]) for i in range(self.dimension)
            ]
            return sp.csr_matrix(
                (np.ones(self.dimension), (rows, np.arange(self.dimension))),
                shape=(self.dimension, self.dimension), dtype=complex,
            )
        return self._cache(("sx",), build)

    def sigma_plus(self) -> sp.csr_matrix:
        def build():
            rows, cols = [], []
            for i in range(self.dimension):
                if self.atom[i] == GROUND:
                    rows.append(self.index(EXCITED, self.occ[i]))
                    cols.append(i)
            return sp.csr_matrix(
                (np.ones(len(rows)), (rows, cols)),
                shape=(self.dimension, self.dimension), dtype=complex,
            )
        return self._cache(("sp",), build)

    def sigma_minus(self) -> sp.csr_matrix:
        return self._cache(("sm",), lambda: self.sigma_plus().conj().T.tocsr())

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

    def overlap(self, other: "FockStateVector") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def amplitude(self, atom: int, occ) -> complex:
        return complex(self.amplitudes[self.basis.index(atom, occ)])

    def to_json(self) -> str:
        buf = np.ascontiguousarray(
            np.stack([self.amplitudes.real, self.amplitudes.imag], axis=1)
        ).tobytes()
        return json.dumps({
            "format": "fock-state-v1",
            "n_modes": self.basis.n_modes,
            "n_max": self.basis.n_max,
            "dimension": self.basis.dimension,
            "dtype": "float64-interleaved-re-im",
            "amplitudes_base64": base64.b64encode(buf).decode("ascii"),
        })

    @staticmethod
    def from_json(text: str, basis: Optional[FockBasis] = None) -> "FockStateVector":
        doc = json.loads(text)
        if basis is None:
            basis = FockBasis(doc["n_modes"], doc["n_max"])
        raw = np.frombuffer(
            base64.b64decode(doc["amplitudes_base64"]), dtype=np.float64
        ).reshape(-1, 2)
        if len(raw) != basis.dimension:
            raise ConfigError("state dimension does not match the basis")
        return FockStateVector(basis, raw[:, 0] + 1j * raw[:, 1])


@dataclass
class SparseOperator:
    """A sparse operator tied to its basis, with portable dump helpers."""

    basis: FockBasis
    matrix: sp.csr_matrix

    def assert_hermitian(self, tol: float = 1e-12):
        diff = (self.matrix - self.matrix.conj().T).tocoo()
        err = np.max(np.abs(diff.data)) if diff.nnz else 0.0
        if err > tol:
            raise NumericalError(f"operator not Hermitian: max deviation {err:.3e}")
        return self

    def toarray(self) -> np.ndarray:
        return self.matrix.toarray()

    def apply(self, state: FockStateVector) -> FockStateVector:
        return FockStateVector(state.basis, self.matrix @ state.amplitudes)

    def to_csv(self, path):
        coo = self.matrix.tocoo()
        with open(path, "w") as fh:
            fh.write("row,col,re,im\n")
            for r, c, v in zip(coo.row.tolist(), coo.col.tolist(),
                               coo.data.tolist()):
                fh.write(f"{r},{c},{v.real!r},{v.imag!r}\n")


def original_hamiltonian_series(basis: FockBasis, grid: ModeGrid,
                                profile: CouplingProfile) -> Callable[[float], sp.csr_matrix]:
    """Full atom-field Hamiltonian as a function of time,
    H(t) = (omega_e/2) sigma_z + sum_k omega_k n_k + sum_k [g_k*(t) a_k^+ + g_k(t) a_k] sigma_x,
    assembled as H_diag + sum_nu (e^{i nu omega_m t} V_nu + h.c.) from the
    operators V_nu = sum_k g_nu,k a_k sigma_x, which are built once here.
    """
    if grid.n_modes != basis.n_modes:
        raise ConfigError("grid and basis disagree on the number of modes")
    diag = 0.5 * profile.omega_e * basis.sigma_z_diagonal() \
        + basis.mode_number_diagonal(grid.omega)
    H_diag = sp.diags(diag.astype(complex), format="csr")
    sx = basis.sigma_x()
    V = [(basis.mode_sum(g_nu) @ sx).tocsr() for g_nu in cp.grid_fourier(profile, grid)]
    omega_m = profile.omega_m

    def H(t: float) -> sp.csr_matrix:
        f = cp.harmonic_phases(omega_m, t)
        X = f[0] * V[0] + f[1] * V[1] + f[2] * V[2]
        return (H_diag + X + X.conj().T).tocsr()

    return H


def build_original_hamiltonian(
    basis: FockBasis, grid: ModeGrid, profile: CouplingProfile, t: float,
) -> SparseOperator:
    """The full atom-field Hamiltonian of :func:`original_hamiltonian_series` at t."""
    op = SparseOperator(basis, original_hamiltonian_series(basis, grid, profile)(t))
    op.assert_hermitian(1e-12)
    return op


def build_transformed_hamiltonian(
    basis: FockBasis, frame: DressedFrame, t: float, variant: str = "NormalOrdered",
    *, include_phase: bool = True,
) -> SparseOperator:
    """Dressed-frame Hamiltonian on the truncated space.

    Variants:

    * ``"FullOrder2"`` -- the complete second-order transform: free part,
      co- and counter-rotating single-photon terms with their displacement
      coefficients, the quadratic sigma_z term, and (optionally) the scalar
      phase E(t).  With exact xi the counter-rotating coefficients vanish.
    * ``"NormalOrdered"`` -- H0 + H1 + sigma_z Gamma with the pair kernel in
      normal order and the frequency shift absorbed into omega_e'.
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
    spl, smi = basis.sigma_plus(), basis.sigma_minus()

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
        op = SparseOperator(basis, H.tocsr())
        op.assert_hermitian(1e-11)
        return op

    S = basis.mode_sum(frame.eta_all(t))  # sum_k eta_k a_k
    C = spl @ S
    H = sp.diags((0.5 * frame.omega_e_prime * sz + n_diag).astype(complex),
                 format="csr")
    H = H + C + C.conj().T
    if variant == "NormalOrdered":
        P = S.conj().T.tocsr()  # sum_k eta_k* a_k^+, the pair kernel's creator
        Gamma = (P @ P + S @ S - 2.0 * (P @ S)) / (4.0 * omega_e)
        H = H + Gamma.tocsr().multiply(sz[:, None])
    op = SparseOperator(basis, H.tocsr())
    op.assert_hermitian(1e-11)
    return op


def _displacement_generator(basis: FockBasis, frame: DressedFrame, t: float,
                            direction: int) -> sp.csr_matrix:
    S = basis.mode_sum(frame.xi_all(t))
    return float(direction) * (basis.sigma_x() @ (S.conj().T - S)).tocsr()


def apply_T(basis: FockBasis, frame: DressedFrame, t: float,
            state: FockStateVector, direction: int = +1, *,
            truncation_tol: float = 1e-6,
            truncation_action: str = "raise") -> FockStateVector:
    """Apply the spin-conditioned displacement exp[direction * sigma_x X(t)].

    The generator is anti-Hermitian, so the map is exactly unitary on the
    truncated space; the physical truncation error is estimated from the
    population of the top photon-number shell and the displacement size.
    ``truncation_action`` chooses whether an estimate above
    ``truncation_tol`` raises, warns, or is ignored.
    """
    if direction not in (+1, -1):
        raise ConfigError("direction must be +1 (to the dressed frame) or -1")
    if truncation_action not in ("raise", "warn", "ignore"):
        raise ConfigError(f"unknown truncation_action {truncation_action!r}")
    G = _displacement_generator(basis, frame, t, direction)
    if basis.dimension <= 600:
        out = dense_expm(G.toarray()) @ state.amplitudes
    else:
        out = expm_multiply(G, state.amplitudes)

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
    if est > truncation_tol and truncation_action != "ignore":
        msg = (f"estimated displacement truncation error {est:.2e} exceeds "
               f"{truncation_tol:.1e}; raise n_max")
        if truncation_action == "raise":
            raise NumericalError(msg, details={"estimate": est})
        warnings.warn(msg, stacklevel=2)
    return FockStateVector(basis, out, info={"truncation_estimate": est})


HLike = Union[SparseOperator, sp.spmatrix, Callable[[float], object]]


def _as_matrix(H: HLike, t: float) -> sp.spmatrix:
    if callable(H):
        H = H(t)
    if isinstance(H, SparseOperator):
        return H.matrix
    return H


def propagate(
    H_of_t: HLike,
    state: FockStateVector,
    t0: float,
    t1: float,
    tol: float = 1e-10,
    *,
    interaction_picture: bool = False,
    method: str = "DOP853",
) -> FockStateVector:
    """Solve i d|psi>/dt = H(t) |psi> from t0 to t1 with adaptive step control.

    ``H_of_t`` may be a static operator or a callable ``t -> operator``.
    With ``interaction_picture=True`` the (frozen, t0) diagonal of H is
    removed analytically, so step sizes track the coupling strength instead
    of the fastest phase.  The returned state records the norm drift and
    solver statistics in ``.info``.
    """
    if t1 < t0:
        raise ConfigError("t1 must be >= t0")
    if t1 == t0:
        return FockStateVector(state.basis, state.amplitudes.copy(),
                               info={"norm_drift": 0.0, "n_rhs_evals": 0})

    static = not callable(H_of_t)
    H_static = _as_matrix(H_of_t, t0) if static else None

    if interaction_picture:
        # psi(t) = exp(-i D (t - t0)) phi(t) with D the frozen diagonal of H(t0)
        D = np.real(np.asarray(_as_matrix(H_of_t, t0).diagonal()))

        def rhs(t, y):
            ph = np.exp(-1j * D * (t - t0))
            M = H_static if static else _as_matrix(H_of_t, t)
            u = ph * y
            return -1j * np.conj(ph) * (M @ u - D * u)

    else:

        def rhs(t, y):
            M = H_static if static else _as_matrix(H_of_t, t)
            return -1j * (M @ y)

    sol = solve_ivp(
        rhs, (t0, t1), state.amplitudes.astype(complex), method=method,
        rtol=tol, atol=tol * 1e-2, dense_output=False,
    )
    if sol.status != 0:
        raise NumericalError(
            "time propagation failed (possible stiffness / step underflow)",
            details={"message": sol.message, "t_reached": sol.t[-1]},
        )
    y = sol.y[:, -1]
    if interaction_picture:
        y = np.exp(-1j * D * (t1 - t0)) * y
    drift = abs(float(np.linalg.norm(y)) - state.norm)
    return FockStateVector(
        state.basis, y,
        info={"norm_drift": drift, "n_rhs_evals": int(sol.nfev)},
    )


def transformed_residual_norm(
    basis: FockBasis, frame: DressedFrame, t: float, *,
    fd_step: float = 1e-4, shell_margin: int = 2, include_phase: bool = True,
) -> float:
    """Max-element norm of T H T^+ - i T dT^+/dt - H'_(2) over bulk states.

    T-conjugation is numerical (matrix exponential of the displacement
    generator), dT^+/dt is a central difference with step ``fd_step``, and
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

    h = fd_step / frame.omega_e
    Gp = _displacement_generator(basis, frame, t + h, -1).toarray()
    Gm = _displacement_generator(basis, frame, t - h, -1).toarray()
    dTdag = (dense_expm(Gp) - dense_expm(Gm)) / (2.0 * h)

    H2 = build_transformed_hamiltonian(
        basis, frame, t, "FullOrder2", include_phase=include_phase
    ).toarray()

    R = T @ H @ T.conj().T - 1j * (T @ dTdag) - H2
    bulk = basis.total_photons <= max(basis.n_max - shell_margin, 0)
    return float(np.max(np.abs(R[np.ix_(bulk, bulk)])))
