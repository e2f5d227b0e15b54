"""Scalar information measures: coherence, affinity, fidelity, variance, QFI."""

from __future__ import annotations

import numpy as np

from .errors import DimMismatch, QslError
from .operator_core import Observable, QuantumState, commutator

IMAG_RESIDUE_TOL = 1e-9
QFI_SUPPORT_TOL = 1e-12


def _real(z: complex) -> float:
    """Real part of a trace quantity; large imaginary residue is an internal error."""
    if abs(np.imag(z)) > IMAG_RESIDUE_TOL:
        raise QslError(f"imaginary residue {np.imag(z):.3e} exceeds {IMAG_RESIDUE_TOL:.0e}")
    return float(np.real(z))


def _check_dims(rho: QuantumState, other) -> None:
    if rho.dim != other.dim:
        raise DimMismatch(f"{rho.dim} vs {other.dim}")


def clamp_acos_arg(x: float) -> float:
    """Clamp to [-1, 1]; roundoff can overshoot by ~1e-15."""
    return min(1.0, max(-1.0, x))


def _chord_angle(chord):
    """2 asin(chord / 2): the angle between two unit vectors a chord apart.

    Every angle of a speed-limit bound goes through this form. Unlike acos of
    the overlap it is exactly 0 for equal vectors and resolves angles below 1e-8.
    """
    return 2.0 * np.arcsin(np.minimum(chord / 2.0, 1.0))


def _bures_angle(rho1: QuantumState, rho2: QuantumState) -> float:
    """Bures angle acos F, as the chord angle between sqrt(rho1) and
    sqrt(rho2) U, with U the polar unitary of sqrt(rho1) sqrt(rho2) = W S Z†:
    U = Z W† maximises Re Tr(sqrt(rho1) sqrt(rho2) U) to F = Tr S."""
    _check_dims(rho1, rho2)
    s1, s2 = rho1.sqrt(), rho2.sqrt()
    W, _, Zh = np.linalg.svd(s1 @ s2)
    return float(_chord_angle(np.linalg.norm(s1 - s2 @ Zh.conj().T @ W.conj().T)))


def wy_coherence(rho: QuantumState, H: Observable) -> float:
    """Wigner-Yanase coherence Q(rho, H) = -Tr([sqrt(rho), H]^2) / 2."""
    _check_dims(rho, H)
    c = commutator(rho.sqrt(), H.matrix)
    q = _real(-0.5 * np.trace(c @ c))
    return max(q, 0.0)


def affinity(rho1: QuantumState, rho2: QuantumState) -> float:
    """A(rho1, rho2) = Tr(sqrt(rho1) sqrt(rho2)), clamped to [0, 1]."""
    _check_dims(rho1, rho2)
    a = _real(np.trace(rho1.sqrt() @ rho2.sqrt()))
    return min(1.0, max(0.0, a))


def uhlmann_fidelity(rho1: QuantumState, rho2: QuantumState) -> float:
    """F = Tr sqrt(sqrt(rho1) rho2 sqrt(rho1)), as the cosine of the Bures angle."""
    return max(float(np.cos(_bures_angle(rho1, rho2))), 0.0)


def relative_purity(rho1: QuantumState, rho_t: QuantumState) -> float:
    """f = Tr(rho1 rho_t) / Tr(rho1^2)."""
    _check_dims(rho1, rho_t)
    return _real(np.trace(rho1.matrix @ rho_t.matrix)) / rho1.purity()


def variance(rho: QuantumState, H: Observable) -> float:
    """(Delta H)^2 = Tr(rho H^2) - Tr(rho H)^2."""
    _check_dims(rho, H)
    M = H.matrix
    v = _real(np.trace(rho.matrix @ M @ M)) - _real(np.trace(rho.matrix @ M)) ** 2
    return max(v, 0.0)


def sld_qfi(rho: QuantumState, H: Observable) -> float:
    """SLD quantum Fisher information 2 sum_{jk} (l_j - l_k)^2 / (l_j + l_k) |H_jk|^2.

    Pairs with l_j + l_k <= 1e-12 are skipped (support convention).
    """
    _check_dims(rho, H)
    w = rho.eigenvalues
    V = rho.eigenvectors
    h_sq = np.abs(V.conj().T @ H.matrix @ V) ** 2
    s = w[:, None] + w[None, :]
    support = s > QFI_SUPPORT_TOL
    terms = 2.0 * (w[:, None] - w[None, :]) ** 2 / np.where(support, s, 1.0) * h_sq
    return max(float(np.sum(terms, where=support)), 0.0)


def lindblad_coherence(rho: QuantumState, L) -> float:
    """Coherence detected by a Lindblad generator.

    2 Q(rho, L) = Tr((L sqrt(rho))(L sqrt(rho))†) - |Tr(sqrt(rho) L sqrt(rho))|^2,
    with L applied to the positive square root of rho. Returns Q.

    sqrt(2Q) equals the speed ||d sqrt(rho_t)/dt|| only when the square
    root follows the semigroup, d sqrt(rho_t)/dt = L sqrt(rho_t): true for
    unitary generators and for a state diagonal in a dephasing generator's
    basis, false in general, for a generic state under dephasing too
    (deviation ~0.018 for Bloch vector (0.3, 0.2, 0.5) under
    squeezed_vacuum_model(0, 0.4, 0)) and under amplitude damping (see
    dynamics.sqrt_evolution_diagnostic).
    """
    if rho.dim != L.dim:
        raise DimMismatch(f"{rho.dim} vs {L.dim}")
    s = rho.sqrt()
    Ls = L.apply(s)
    two_q = _real(np.trace(Ls @ Ls.conj().T)) - abs(np.trace(s @ Ls)) ** 2
    return max(two_q / 2.0, 0.0)

