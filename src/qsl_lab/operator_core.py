"""Dense complex-matrix substrate: states, observables, spectral helpers.

Everything is plain numpy; dimensions stay small (d <= 64), so spectral
decompositions are used throughout instead of iterative methods.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    BadRank,
    BlochNormExceeded,
    DimMismatch,
    NegativeEigenvalue,
    NonHermitian,
)

EIG_CLIP_TOL = 1e-10
TRACE_TOL = 1e-12
# Eigenvalues at or below this are roundoff and are set to 0 where a spectrum
# is formed, so a pure state's spectrum is exactly (1, 0, ...) and no power or
# square root amplifies rank-deficiency junk (sqrt(1e-17) ~ 3e-9).
EIG_CUT = 1e-14

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = (PAULI_X, PAULI_Y, PAULI_Z)
# |0> = (1, 0): sigma_plus maps |0> to |1>, sigma_minus the reverse.
SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)
SIGMA_PLUS = SIGMA_MINUS.conj().T


def hermitianize(M: np.ndarray) -> np.ndarray:
    """Return the Hermitian part (M + M†)/2."""
    return (M + M.conj().T) / 2


def _dagger(M: np.ndarray) -> np.ndarray:
    return M.conj().swapaxes(-1, -2)


def _spectral_power(w: np.ndarray, V: np.ndarray, p: float) -> np.ndarray:
    """Hermitian V w^p V† from a spectrum (eigenvectors as columns), or from
    a stack of them."""
    M = (V * (w ** p)[..., None, :]) @ _dagger(V)
    return (M + _dagger(M)) / 2


def herm_deviation(M: np.ndarray) -> float:
    """Largest elementwise deviation from Hermiticity."""
    return float(np.abs(M - M.conj().T).max())


def _as_matrix(obj) -> np.ndarray:
    if isinstance(obj, (QuantumState, Observable)):
        return obj.matrix
    return np.asarray(obj, dtype=complex)


@dataclass(frozen=True)
class QuantumState:
    """Density matrix with a cached spectral decomposition.

    Eigenvalues in [-1e-10, EIG_CUT] are set to zero and the spectrum
    renormalized; anything more negative is rejected.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray = field(repr=False, default=None)
    eigenvectors: np.ndarray = field(repr=False, default=None)

    def __init__(self, matrix) -> None:
        M = _as_matrix(matrix)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise DimMismatch(f"expected a square matrix, got shape {M.shape}")
        dev = herm_deviation(M)
        if dev > 1e-12:
            raise NonHermitian(f"state deviates from Hermiticity by {dev:.3e}")
        M = hermitianize(M)
        tr = np.trace(M).real
        if abs(tr - 1.0) > 1e-10:
            raise DimMismatch(f"trace {tr} is not 1")
        w, V = np.linalg.eigh(M)
        if w.min() < -EIG_CLIP_TOL:
            raise NegativeEigenvalue(f"eigenvalue {w.min():.3e} below -{EIG_CLIP_TOL:.0e}")
        w = np.where(w > EIG_CUT, w, 0.0)
        w = w / w.sum()
        self._set(w[::-1].copy(), V[:, ::-1].copy(), _spectral_power(w, V, 1.0))

    @classmethod
    def _from_spectrum(cls, w: np.ndarray, V: np.ndarray) -> QuantumState:
        """State of a spectrum that is already cut and renormalised (w
        descending, eigenvectors V as columns), with no eigh; for the
        library's own evolutions, which carry the spectrum through."""
        state = object.__new__(cls)
        state._set(w, V, _spectral_power(w, V, 1.0))
        return state

    def _set(self, w: np.ndarray, V: np.ndarray, M: np.ndarray) -> None:
        object.__setattr__(self, "matrix", M)
        object.__setattr__(self, "eigenvalues", w)
        object.__setattr__(self, "eigenvectors", V)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def sqrt(self) -> np.ndarray:
        """Unique positive square root, from the cached spectrum."""
        return self.power(0.5)

    def power(self, alpha: float) -> np.ndarray:
        """Spectral power rho^alpha, from the cached (cut) spectrum."""
        return _spectral_power(self.eigenvalues, self.eigenvectors, alpha)

    def purity(self) -> float:
        return float(np.sum(self.eigenvalues**2))


@dataclass(frozen=True)
class Observable:
    """Hermitian generator (Hamiltonian or generic) with unit conventions."""

    matrix: np.ndarray
    hbar: float = 1.0

    def __init__(self, matrix, hbar: float = 1.0) -> None:
        M = _as_matrix(matrix)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise DimMismatch(f"expected a square matrix, got shape {M.shape}")
        if herm_deviation(M) > 1e-12:
            raise NonHermitian(f"observable deviates from Hermiticity by {herm_deviation(M):.3e}")
        if hbar <= 0:
            raise ValueError(f"hbar must be positive, got {hbar}")
        object.__setattr__(self, "matrix", hermitianize(M))
        object.__setattr__(self, "hbar", float(hbar))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def _spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """(eigenvalues descending, eigenvectors), computed on first use; the
        constructor has already made the matrix exactly Hermitian."""
        w, V = np.linalg.eigh(self.matrix)
        return w[::-1].copy(), V[:, ::-1].copy()


def unitary_of(H: Observable, t) -> np.ndarray:
    """exp(+i H t / hbar) for a time t, or the (n, d, d) stack of them for a
    1-D array of n times; this sign convention is used package-wide."""
    w, V = H._spectrum
    phase = np.exp(1j * np.multiply.outer(t, w) / H.hbar)
    return (V * phase[..., None, :]) @ V.conj().T


def commutator(A, B) -> np.ndarray:
    A = _as_matrix(A)
    B = _as_matrix(B)
    if A.shape != B.shape:
        raise DimMismatch(f"{A.shape} vs {B.shape}")
    return A @ B - B @ A


def tensor(A, B) -> np.ndarray:
    return np.kron(_as_matrix(A), _as_matrix(B))


def partial_trace(rho_ab, dims: tuple[int, int], keep: str) -> QuantumState:
    """Trace out one factor of a bipartite state; keep is 'a' or 'b'."""
    M = _as_matrix(rho_ab)
    da, db = dims
    if da * db != M.shape[0]:
        raise DimMismatch(f"{da}*{db} != {M.shape[0]}")
    if keep not in ("a", "b"):
        raise ValueError("keep must be 'a' or 'b'")
    T = M.reshape(da, db, da, db)
    if keep == "a":
        out = np.einsum("ijkj->ik", T)
    else:
        out = np.einsum("ijil->jl", T)
    return QuantumState(hermitianize(out))


def random_state(dim: int, rank: int, seed: int) -> QuantumState:
    """Ginibre-ensemble state GG†/Tr(GG†) with G of shape dim x rank."""
    if not 1 <= rank <= dim:
        raise BadRank(f"rank {rank} outside 1..{dim}")
    rng = np.random.default_rng(seed)
    G = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    M = G @ G.conj().T
    return QuantumState(M / np.trace(M).real)


def random_observable(dim: int, seed: int, hbar: float = 1.0) -> Observable:
    """GUE-style random Hermitian generator, for sweeps."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return Observable(hermitianize(A), hbar=hbar)


def validate_bloch(r) -> np.ndarray:
    r = np.asarray(r, dtype=float)
    if r.shape != (3,):
        raise DimMismatch(f"Bloch vector must have 3 components, got {r.shape}")
    if np.linalg.norm(r) > 1 + 1e-12:
        raise BlochNormExceeded(f"|r| = {np.linalg.norm(r)} exceeds 1")
    return r


def bloch_to_state(r) -> QuantumState:
    """rho = (I + r.sigma)/2."""
    r = validate_bloch(r)
    M = 0.5 * (np.eye(2, dtype=complex) + r[0] * PAULI_X + r[1] * PAULI_Y + r[2] * PAULI_Z)
    return QuantumState(M)


def state_to_bloch(rho) -> np.ndarray:
    M = _as_matrix(rho)
    if M.shape != (2, 2):
        raise DimMismatch("Bloch coordinates are defined for qubits only")
    return np.array([np.trace(M @ P).real for P in PAULI])


def bloch_hamiltonian(n_hat, omega: float = 1.0, alpha_phase: float = 0.0,
                      hbar: float = 1.0) -> Observable:
    """H = omega (n.sigma + alpha I) for a unit axis n and omega > 0."""
    if omega <= 0:
        raise ValueError(f"omega must be positive, got {omega}")
    n = np.asarray(n_hat, dtype=float)
    M = omega * (n[0] * PAULI_X + n[1] * PAULI_Y + n[2] * PAULI_Z
                 + alpha_phase * np.eye(2))
    return Observable(M, hbar=hbar)
