"""SWAP-test protocol simulation: moments, eigenvalue recovery, alignment,
and end-to-end estimation of coherence, affinity, and the speed limit."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coherence import clamp_acos_arg
from .dynamics import evolve_unitary
from .errors import BadN, DimMismatch, IllConditioned, ZeroShots
from .operator_core import Observable, QuantumState, commutator, hermitianize

DEGENERACY_GAP = 1e-8
# root clustering in eigs_from_power_sums
CLUSTER_SPREAD = 4.0
ROOT_RESIDUE_ULPS = 16.0


@dataclass(frozen=True)
class ShotEstimate:
    """Sampled overlap value 2P - 1 with its binomial standard error."""

    value: float
    shots: int
    std_error: float


@dataclass(frozen=True)
class PreparedState:
    """Aligned sigma1 = sqrt(rho1)/Tr sqrt(rho1), its alignment residual, and
    the number of search iterations (0: the alignment is in closed form)."""

    sigma1: QuantumState
    alignment_residual: float
    iterations: int


def swap_test_probability(sigma1: QuantumState, sigma2: QuantumState) -> float:
    """Acceptance probability P = (1 + Tr(sigma1 sigma2)) / 2 of the swap network."""
    if sigma1.dim != sigma2.dim:
        raise DimMismatch(f"{sigma1.dim} vs {sigma2.dim}")
    overlap = float(np.trace(sigma1.matrix @ sigma2.matrix).real)
    return min(1.0, max(0.0, (1.0 + overlap) / 2.0))


def sample_swap_test(sigma1: QuantumState, sigma2: QuantumState,
                     shots: int, seed: int) -> ShotEstimate:
    """Binomial sampling of the swap test; value = 2 P_hat - 1."""
    if shots <= 0:
        raise ZeroShots(f"shots must be positive, got {shots}")
    p = swap_test_probability(sigma1, sigma2)
    rng = np.random.default_rng(seed)
    p_hat = rng.binomial(shots, p) / shots
    return ShotEstimate(value=2.0 * p_hat - 1.0, shots=shots,
                        std_error=2.0 * np.sqrt(p_hat * (1.0 - p_hat) / shots))


def power_sums(rho: QuantumState, max_n: int) -> list[float]:
    """Moments Tr(rho^n), n = 1..max_n.

    The swap network measures the cyclic shift S on rho^(x)n, and
    Tr(S rho^(x)n) = Tr(rho^n) (Ekert et al., PRL 88, 217901, 2002), so the
    moment is the trace of the running matrix power.
    """
    if not 1 <= max_n <= rho.dim:
        raise BadN(f"max_n {max_n} outside 1..{rho.dim}")
    out = [1.0]
    power = rho.matrix
    for _ in range(2, max_n + 1):
        power = power @ rho.matrix
        out.append(float(np.trace(power).real))
    return out


def eigs_from_power_sums(moments) -> np.ndarray:
    """Invert Newton's identities and extract the spectrum, descending.

    moments[k-1] = Tr(rho^k) for k = 1..d; the first moment must be 1.
    An m-fold eigenvalue is an m-fold root, which roundoff splits into a
    star of radius ~(d eps)^(1/m): complex pairs, or a real pair around 0.
    Adjacent roots (by real part) join one cluster when their gap is within
    CLUSTER_SPREAD times their larger distance from [0, inf), and each
    cluster becomes its mean. A cluster counts as one multiple root only if
    the polynomial vanishes at its mean to ROOT_RESIDUE_ULPS * d * eps *
    sum|c_k|, i.e. spread^m * |other roots' factor| is at roundoff.
    IllConditioned is raised otherwise, as for moments that no PSD spectrum
    has, and for a negative eigenvalue.
    """
    p = np.asarray(moments, dtype=float)
    d = p.size
    if abs(p[0] - 1.0) > 1e-9:
        raise IllConditioned(f"first moment {p[0]} is not 1")
    # Newton's identities for the monic characteristic polynomial's
    # coefficients c_k = (-1)^k e_k: k c_k = -sum_{i=1..k} c_{k-i} p_i
    coeffs = np.zeros(d + 1)
    coeffs[0] = 1.0
    for k in range(1, d + 1):
        coeffs[k] = -np.dot(coeffs[k - 1::-1], p[:k]) / k
    roots = np.sort_complex(np.roots(coeffs))
    defect = np.abs(roots - np.clip(roots.real, 0.0, None))
    split = np.diff(roots.real) > CLUSTER_SPREAD * np.maximum(defect[:-1], defect[1:])
    labels = np.concatenate([[0], np.cumsum(split)])
    sizes = np.bincount(labels)
    means = np.bincount(labels, roots.real) / sizes
    residue = np.where(sizes > 1, np.abs(np.polyval(coeffs, means)), 0.0)
    if residue.max() > ROOT_RESIDUE_ULPS * d * np.finfo(float).eps * np.abs(coeffs).sum():
        raise IllConditioned(f"clustered roots are not one multiple root "
                             f"(residue {residue.max():.3e})")
    w = means[labels]
    if w.min() < -1e-8:
        raise IllConditioned(f"negative recovered eigenvalue {w.min():.3e}")
    w = np.clip(w, 0.0, None)
    return np.sort(w)[::-1]


def prepare_sigma(eigenvalues, u_tilde) -> QuantumState:
    """U diag(sqrt(l_i) / sum sqrt(l_j)) U†."""
    w = np.sqrt(np.clip(np.asarray(eigenvalues, dtype=float), 0.0, None))
    w = w / w.sum()
    U = np.asarray(u_tilde, dtype=complex)
    return QuantumState(hermitianize((U * w) @ U.conj().T))


def basis_alignment_search(rho1: QuantumState, shots: int | None = None,
                           seed: int = 0) -> PreparedState:
    """Prepare sigma1 in rho1's eigenbasis and measure how well it is aligned.

    The matching conditions are the overlaps Tr(rho1^k sigma1), k = 1..d-1,
    against their spectrum-derived targets; for a nondegenerate spectrum
    these are maximized exactly at alignment, so matching pins the basis.
    sigma1 is built in closed form from rho1's eigenbasis in both modes.
    In exact mode (shots None) the residual is the largest mismatch of the
    d-1 conditions; in shot mode it is a sampled swap-test measurement of
    the k = 1 condition. A degenerate spectrum reports residual 0:
    alignment inside a degenerate subspace is unobservable.
    """
    w = rho1.eigenvalues
    sigma = prepare_sigma(w, rho1.eigenvectors)
    gaps = -np.diff(w)
    if rho1.dim == 1 or gaps.min() < DEGENERACY_GAP:
        return PreparedState(sigma1=sigma, alignment_residual=0.0, iterations=0)
    # expected overlaps Tr(rho1^k sigma1) = Tr(rho1^{k+1/2}) / Tr sqrt(rho1)
    targets = np.array([(w ** (k + 0.5)).sum() for k in range(1, rho1.dim)]) / np.sqrt(w).sum()
    if shots is None:
        overlaps = [float(np.trace(rho1.power(k) @ sigma.matrix).real)
                    for k in range(1, rho1.dim)]
        res = float(np.abs(np.subtract(overlaps, targets)).max())
    else:
        measured = sample_swap_test(sigma, QuantumState(rho1.matrix), shots, seed)
        res = abs(measured.value - targets[0])
    return PreparedState(sigma1=sigma, alignment_residual=res, iterations=0)


def estimate_fidelity_exact(rho1: QuantumState, rho2: QuantumState) -> float:
    """Fidelity from the prepared sigma1 = sqrt(rho1)/Tr sqrt(rho1) and rho2
    (exact mode only): F = Tr sqrt(rho1) * Tr sqrt(sigma1 rho2 sigma1).

    Tr sqrt(sigma1 rho2 sigma1) is taken as the sum of the singular values of
    sqrt(rho2) sigma1: the eigenvalues of sigma1 rho2 sigma1 would include
    roundoff (~1e-17) for a rank-deficient rho1, which a square root lifts
    to ~3e-9.
    """
    s = prepare_sigma(rho1.eigenvalues, rho1.eigenvectors).matrix
    f = np.sqrt(rho1.eigenvalues).sum() * np.linalg.svd(rho2.sqrt() @ s, compute_uv=False).sum()
    return min(1.0, max(0.0, float(f)))


def estimate_tl_from_protocol(rho1: QuantumState, H: Observable, t: float,
                              shots: int | None = None, seed: int = 0,
                              dtau: float = 0.4) -> tuple[float, float]:
    """End-to-end protocol estimate of the speed limit and its error bar.

    Pipeline: moments -> spectrum -> alignment -> overlap measurements ->
    rescaled coherence and affinity -> the bound formula. In shot mode the
    coherence is read off a finite-difference of overlaps at time step dtau,
    W = 2 hbar^2 (Tr sigma1^2 - Tr(sigma1 sigma1(dtau))) / dtau^2, and errors
    propagate to first order; exact mode returns error bar 0.
    """
    eigs = eigs_from_power_sums(power_sums(rho1, rho1.dim))
    tr_sqrt = float(np.sqrt(eigs).sum())
    prep = basis_alignment_search(rho1, shots=shots, seed=seed)
    sigma1 = prep.sigma1
    sigma2 = evolve_unitary(sigma1, H, t)
    hbar = H.hbar

    if shots is None:
        a = float(np.trace(sigma1.matrix @ sigma2.matrix).real) * tr_sqrt**2
        c = commutator(sigma1.matrix, H.matrix)
        w_exact = float(-np.trace(c @ c).real)
        q = w_exact * tr_sqrt**2 / 2.0
        angle = float(np.arccos(clamp_acos_arg(a)))
        if q <= 0:
            return 0.0, 0.0
        return hbar / np.sqrt(2.0) * angle / np.sqrt(q), 0.0

    est_a = sample_swap_test(sigma1, sigma2, shots, seed)
    sigma1_d = evolve_unitary(sigma1, H, dtau)
    est_self = sample_swap_test(sigma1, sigma1, shots, seed + 1)
    est_shift = sample_swap_test(sigma1, sigma1_d, shots, seed + 2)

    a = clamp_acos_arg(est_a.value * tr_sqrt**2)
    w_fd = 2.0 * hbar**2 * (est_self.value - est_shift.value) / dtau**2
    sig_a = est_a.std_error * tr_sqrt**2
    sig_w = 2.0 * hbar**2 / dtau**2 * np.hypot(est_self.std_error, est_shift.std_error)
    sig_q = sig_w * tr_sqrt**2 / 2.0
    # a sampled coherence below its own noise floor is unresolved; flooring
    # at one standard error keeps the estimate finite with an honest bar
    q = max(w_fd * tr_sqrt**2 / 2.0, sig_q, 1e-12)
    angle = float(np.arccos(a))
    tl = hbar / np.sqrt(2.0) * angle / np.sqrt(q)
    dtl_da = -(hbar / np.sqrt(2.0)) / (np.sqrt(max(1.0 - a**2, 1e-12)) * np.sqrt(q))
    dtl_dq = -tl / (2.0 * q)
    err = float(np.hypot(dtl_da * sig_a, dtl_dq * sig_q))
    return tl, err
