"""Speed-limit bounds, inequality checkers, and the comparison chain."""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .coherence import (
    _bures_angle,
    _chord_angle,
    relative_purity,
    sld_qfi,
    variance,
    wy_coherence,
)
from .dynamics import MAX_SCAN_NODES, LindbladModel, evolve_unitary
from .errors import BadAlpha, BadGrid, DimMismatch, FrozenState
from .operator_core import (
    EIG_CUT,
    Observable,
    QuantumState,
    commutator,
    partial_trace,
    tensor,
)

ANGLE_TOL = 1e-12
COHERENCE_TOL = 1e-14
DEFAULT_ALPHA_GRID = np.arange(0.25, 4.0 + 1e-9, 0.05)
PANEL_NODES = 64  # Gauss-Legendre nodes per panel of campo_markovian_bound
PERIODS_PER_PANEL = 4  # of the generator's fastest frequency, at most


def bargmann_angle(rho1: QuantumState, rho2: QuantumState) -> float:
    """Working angle acos A(rho1, rho2); the full geodesic angle is twice this.

    It is the chord angle between the unit vectors sqrt(rho1), sqrt(rho2).
    """
    if rho1.dim != rho2.dim:
        raise DimMismatch(f"{rho1.dim} vs {rho2.dim}")
    return float(_chord_angle(np.linalg.norm(rho1.sqrt() - rho2.sqrt())))


def _quotient(angle, speed_sq, scale, what: str):
    """scale * angle / sqrt(speed_sq), elementwise, with the frozen-pair
    consistency check: 0 where the angle is 0 (<= ANGLE_TOL), FrozenState
    where only the speed vanishes."""
    moving = angle > ANGLE_TOL
    frozen = moving & (speed_sq <= COHERENCE_TOL)
    if np.any(frozen):
        raise FrozenState(f"{what} vanishes while the angle is {np.max(angle * frozen):.3e}")
    return np.where(moving, scale * angle / np.sqrt(np.maximum(speed_sq, COHERENCE_TOL)), 0.0)[()]


def tl_bound(rho1: QuantumState, H: Observable, rho2: QuantumState) -> float:
    """Coherence speed limit (hbar/sqrt(2)) acos(A) / sqrt(Q(rho1, H)): the
    alpha = 1 column of the spectral-power family."""
    return float(_alpha_bounds(_alpha_terms(rho1, H, rho2, np.ones(1)), H.hbar)[0])


def _alpha_grid(alpha_grid) -> np.ndarray:
    """DEFAULT_ALPHA_GRID for None, else the grid as a non-empty 1-D array of
    finite positive floats; anything else raises BadAlpha."""
    if alpha_grid is None:
        return DEFAULT_ALPHA_GRID
    try:
        grid = np.asarray(alpha_grid)
    except ValueError:  # a ragged nesting
        grid = np.asarray(None)
    if grid.dtype.kind not in "iuf" or grid.ndim != 1 or grid.size == 0 or not np.all(
            np.isfinite(grid) & (grid > 0)):
        raise BadAlpha("alpha grid must be non-empty, 1-D, finite and positive, "
                       f"got {alpha_grid!r}")
    return grid.astype(float)


def alpha_bound(rho1: QuantumState, H: Observable, rho2: QuantumState,
                alpha: float) -> float:
    """Spectral-power family bound

        hbar sqrt(Tr rho1^a) acos|Tr(rho1^{a/2} rho2^{a/2}) / Tr rho1^a|
            / sqrt(-Tr[rho1^{a/2}, H]^2).

    At alpha = 1 this reduces to tl_bound identically: the denominator is
    sqrt(2Q) and the prefactor contributes the matching normalization.
    """
    return float(_alpha_bounds(_alpha_terms(rho1, H, rho2, _alpha_grid([alpha])), H.hbar)[0])


def _alpha_terms(rho1: QuantumState, H: Observable, rho2: QuantumState,
                 alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(angle, Tr rho1^a, -Tr[rho1^{a/2}, H]^2) at every alpha of a 1-D grid,
    as one broadcast in the eigenbasis of rho1 (eigenvalues w1, vectors v_j;
    rho2 has w2, u_k).

    The spectra carry the roundoff cut of QuantumState, so a pure state's
    spectrum is exactly (1, 0, ...) and its alpha curve exactly flat. With
    p = w^{a/2}, O_jk = |<v_j|u_k>|^2 and H~ = V1† H V1:
        Tr rho1^a = sum_j p1_j^2,
        ||rho1^{a/2} - rho2^{a/2}||^2 = sum_jk O_jk (p1_j - p2_k)^2,
        -Tr[rho1^{a/2}, H]^2 = sum_jk (p1_j - p1_k)^2 |H~_jk|^2.
    The angle acos(overlap) is the chord angle of the chord
    sqrt(2 (1 - overlap)) = sqrt((tr1 - tr2 + ||rho1^{a/2} - rho2^{a/2}||^2) / tr1).
    """
    if not rho1.dim == H.dim == rho2.dim:
        raise DimMismatch(f"{rho1.dim}, {H.dim}, {rho2.dim}")
    V1 = rho1.eigenvectors
    overlap_sq = np.abs(V1.conj().T @ rho2.eigenvectors) ** 2
    h_sq = np.abs(V1.conj().T @ H.matrix @ V1) ** 2
    p1, p2 = np.array([rho1.eigenvalues, rho2.eigenvalues])[:, None, :] ** (alphas[:, None] / 2.0)
    tr1, tr2 = np.sum(p1 * p1, axis=1), np.sum(p2 * p2, axis=1)
    cross = p1[:, :, None] - p2[:, None, :]
    chord_sq = (tr1 - tr2 + np.einsum("ajk,ajk,jk->a", cross, cross, overlap_sq)) / tr1
    own = p1[:, :, None] - p1[:, None, :]
    return (_chord_angle(np.sqrt(np.maximum(chord_sq, 0.0))), tr1,
            np.einsum("ajk,ajk,jk->a", own, own, h_sq))


def _alpha_bounds(terms: tuple, hbar: float) -> np.ndarray:
    """alpha_bound at every alpha of _alpha_terms' grid, from its terms."""
    angle, tr1, denom_sq = terms
    return _quotient(angle, denom_sq, hbar * np.sqrt(tr1), "coherence of rho1^(alpha/2)")


def _best_alpha(alphas: np.ndarray, values: np.ndarray, rho1: QuantumState,
                rho2: QuantumState) -> tuple[float, float]:
    """(alpha, bound) at the smallest alpha whose bound is within 1e-15 of the
    max. When both spectra are one value on their supports (a pure state, or
    diag(1/2, 1/2, 0) and its orbit), the curve is flat by theory and only
    roundoff separates its values, so the smallest alpha is taken outright."""
    support = np.concatenate([rho1.eigenvalues, rho2.eigenvalues])
    near = values >= values.max() - 1e-15
    if np.ptp(support[support > 0]) <= EIG_CUT:
        near[:] = True
    i = int(np.flatnonzero(near)[np.argmin(alphas[near])])
    return float(alphas[i]), float(values[i])


def alpha_bound_max(rho1: QuantumState, H: Observable, rho2: QuantumState,
                    alpha_grid=None) -> tuple[float, float]:
    """(argmax alpha, max bound) over the grid; ties go to the smallest alpha
    (see _best_alpha)."""
    grid = _alpha_grid(alpha_grid)
    return _best_alpha(grid, _alpha_bounds(_alpha_terms(rho1, H, rho2, grid), H.hbar),
                       rho1, rho2)


def mt_fidelity_bound(rho1: QuantumState, H: Observable, rho2: QuantumState) -> float:
    """Mandelstam-Tamm-style bound hbar acos(F) / Delta H."""
    return _quotient(_bures_angle(rho1, rho2), variance(rho1, H), H.hbar, "variance")


def qfi_bound(rho1: QuantumState, H: Observable, rho2: QuantumState) -> float:
    """Fisher-information (Bures-angle) bound 2 hbar acos(F) / sqrt(F_Q).

    With the SLD convention F_Q <= 4 (Delta H)^2, with equality for pure
    states, so this is never below mt_fidelity_bound and equals it on
    pure states (Taddei et al., PRL 110, 050402, 2013).
    """
    return _quotient(_bures_angle(rho1, rho2), sld_qfi(rho1, H), 2.0 * H.hbar,
                     "Fisher information")


def _campo_chain(terms: tuple, bounds: np.ndarray) -> dict:
    """campo_chain from the last alpha column, which must be alpha = 2: its
    angle and Tr rho1^2 give N, its commutator term is D^2, and its bound is
    hbar sqrt(N)/D."""
    angle, purity, D_sq = (float(term[-1]) for term in terms)
    root, N = float(bounds[-1]), angle**2 * purity
    return {"sqrtN_over_D": root, "two_over_pi": 2.0 / np.pi * root,
            "final": 4.0 / np.pi**2 * np.sqrt(N) * root, "N": N, "D": np.sqrt(D_sq)}


def campo_chain(rho1: QuantumState, H: Observable, rho2: QuantumState) -> dict:
    """Relative-purity bound chain: sqrt(N)/D form, 2/pi form, final 4/pi^2 form.

    N = [acos(Tr(rho1 rho2)/Tr rho1^2)]^2 Tr rho1^2,
    D = sqrt(-Tr[rho1, H]^2): both read from the alpha = 2 terms.
    """
    terms = _alpha_terms(rho1, H, rho2, np.array([2.0]))
    return _campo_chain(terms, _alpha_bounds(terms, H.hbar))


def campo_bound(rho1: QuantumState, H: Observable, rho2: QuantumState) -> float:
    """Final relative-purity bound 4 hbar N / (pi^2 D)."""
    return campo_chain(rho1, H, rho2)["final"]


def u_quantity(rho1: QuantumState, H: Observable, rho2: QuantumState) -> float:
    """U = tl_bound * sqrt(Q); algebraically (hbar/sqrt 2) acos A, but computed
    as the product so the collapse stays checkable."""
    return tl_bound(rho1, H, rho2) * np.sqrt(wy_coherence(rho1, H))


def mixing_inequality_check(rho1: QuantumState, sigma1: QuantumState, p: float,
                            H: Observable, t: float) -> tuple[float, float, bool]:
    """U of the p-mixture vs sqrt(p) U_rho + sqrt(1-p) U_sigma after a time t."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0,1], got {p}")
    if rho1.dim != sigma1.dim:
        raise DimMismatch(f"{rho1.dim} vs {sigma1.dim}")
    gamma1 = QuantumState(p * rho1.matrix + (1 - p) * sigma1.matrix)
    lhs = u_quantity(gamma1, H, evolve_unitary(gamma1, H, t))
    rhs = (np.sqrt(p) * u_quantity(rho1, H, evolve_unitary(rho1, H, t))
           + np.sqrt(1 - p) * u_quantity(sigma1, H, evolve_unitary(sigma1, H, t)))
    return lhs, rhs, lhs <= rhs + 1e-9


def elimination_inequality_check(rho_ab: QuantumState, H_a: Observable,
                                 H_b: Observable, t: float) -> tuple[float, float, bool]:
    """U on the reduced a-states vs U on the joint states under H_a x I + I x H_b."""
    da, db = H_a.dim, H_b.dim
    if da * db != rho_ab.dim:
        raise DimMismatch(f"{da}*{db} != {rho_ab.dim}")
    H_ab = Observable(tensor(H_a.matrix, np.eye(db)) + tensor(np.eye(da), H_b.matrix),
                      hbar=H_a.hbar)
    sigma_ab = evolve_unitary(rho_ab, H_ab, t)
    rho_a = partial_trace(rho_ab, (da, db), "a")
    sigma_a = partial_trace(sigma_ab, (da, db), "a")
    lhs = u_quantity(rho_a, H_a, sigma_a)
    rhs = u_quantity(rho_ab, H_ab, sigma_ab)
    return lhs, rhs, lhs <= rhs + 1e-9


def system_environment_bound(rho0_s: QuantumState, gamma_e: QuantumState,
                             H_se: Observable, rhotau_s: QuantumState,
                             diagnostics: bool = False):
    """Reduced-dynamics bound hbar acos A(rho0_s, rhotau_s) / sqrt(2 Q_SE).

    2 Q_SE = -Tr[sqrt(rho0) x sqrt(gamma), H_SE]^2. With diagnostics=True also
    reports the effective local generator H_s = Tr_E(H_SE (I x gamma)) and
    2 Q(rho0, H_s), whose claimed equality with 2 Q_SE is checked, not assumed.
    """
    ds, de = rho0_s.dim, gamma_e.dim
    if ds * de != H_se.dim:
        raise DimMismatch(f"{ds}*{de} != {H_se.dim}")
    joint_sqrt = tensor(rho0_s.sqrt(), gamma_e.sqrt())
    c = commutator(joint_sqrt, H_se.matrix)
    two_q_se = float(-np.trace(c @ c).real)
    angle = bargmann_angle(rho0_s, rhotau_s)
    bound = _quotient(angle, two_q_se, H_se.hbar, "joint coherence")
    if not diagnostics:
        return bound
    M = tensor(np.eye(ds), gamma_e.matrix)
    T = (H_se.matrix @ M).reshape(ds, de, ds, de)
    H_s_eff = Observable(np.einsum("ijkj->ik", T), hbar=H_se.hbar)
    two_q_local = 2.0 * wy_coherence(rho0_s, H_s_eff)
    return {"bound": bound, "two_q_se": two_q_se, "two_q_local": two_q_local,
            "equal_within_1e-10": abs(two_q_se - two_q_local) <= 1e-10,
            "h_s_effective": H_s_eff.matrix}


def _path_angle(roots: np.ndarray) -> float:
    """Sum of the angles between consecutive unit vectors sqrt(rho_k).

    Each angle acos Tr(s_k s_{k+1}) is computed as 2 asin(||s_k - s_{k+1}||_F / 2),
    which stays accurate for nearly parallel neighbours where acos does not.
    """
    return float(np.sum(_chord_angle(np.linalg.norm(np.diff(roots, axis=0), axis=(1, 2)))))


def markovian_bound(rho0: QuantumState, L: LindbladModel, tau: float,
                    n_nodes: int = 201) -> float:
    """tau acos A(rho0, rho_tau) / ell, ell the length of the path sqrt(rho_t).

    acos A is the angle between the unit vectors sqrt(rho0) and
    sqrt(rho_tau) in Hilbert-Schmidt space, and ell / tau is the time
    average of the speed ||d sqrt(rho_t)/dt||. ell is the polygonal length
    on the doubled grid (2 n_nodes - 1 nodes), Richardson-extrapolated
    against the n_nodes grid it contains. The nodes are t = tau s^2 with s
    uniform: from a pure rho0, sqrt(rho_t) moves like sqrt(t), which is
    smooth in s, so the extrapolation's O(h^2) error model holds. A polygon
    between the endpoints is never shorter than the angle, so the bound is
    <= tau on any grid.
    """
    if tau <= 0:
        raise BadGrid(f"tau must be positive, got {tau}")
    if n_nodes < 5 or n_nodes % 2 == 0:
        raise BadGrid("n_nodes must be an odd integer >= 5")
    ts = tau * np.linspace(0.0, 1.0, 2 * n_nodes - 1) ** 2
    roots = L._propagator.trajectory(rho0, ts).roots
    angle = _path_angle(roots[[0, -1]])
    if angle <= ANGLE_TOL:
        return 0.0
    coarse, fine = _path_angle(roots[::2]), _path_angle(roots)
    return tau * angle / (fine + (fine - coarse) / 3.0)


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """The PANEL_NODES Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(PANEL_NODES)
    return (x + 1.0) / 2.0, w / 2.0


def _panel_quadrature(tau: float, frequency: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of composite Gauss-Legendre on [0, tau]: m =
    max(1, ceil(tau f / (2 pi PERIODS_PER_PANEL))) equal panels of
    PANEL_NODES nodes, so no panel spans more than PERIODS_PER_PANEL periods
    of the angular frequency f. More than MAX_SCAN_NODES nodes raise BadGrid."""
    m = max(1, math.ceil(tau * frequency / (2 * np.pi * PERIODS_PER_PANEL)))
    if m * PANEL_NODES > MAX_SCAN_NODES:
        raise BadGrid(f"quadrature needs {m * PANEL_NODES} nodes, above the cap "
                      f"{MAX_SCAN_NODES} (frequency {frequency:.3e}, tau {tau})")
    x, w = _gauss_legendre()
    h = tau / m
    return (h * (np.arange(m)[:, None] + x)).ravel(), np.tile(h * w, m)


def campo_markovian_bound(rho0: QuantumState, L: LindbladModel, tau: float) -> float:
    """Relative-purity bound for semigroup dynamics:
    tau >= |1 - f(tau)| sqrt(Tr rho0^2) / avg ||L rho_t||_HS.

    The average is composite Gauss-Legendre (_panel_quadrature) on the
    generator's fastest frequency; one propagation gives every node and tau.
    """
    if tau <= 0:
        raise BadGrid(f"tau must be positive, got {tau}")
    prop = L._propagator
    ts, weights = _panel_quadrature(tau, prop.max_frequency)
    traj = prop.trajectory(rho0, np.append(ts, tau))
    f = relative_purity(rho0, traj._state(-1))
    vals = np.linalg.norm(traj.states[:-1].reshape(ts.size, -1) @ L.S.T, axis=1)
    avg = float(weights @ vals) / tau
    if avg <= 1e-14:
        return 0.0
    return abs(1.0 - f) * np.sqrt(rho0.purity()) / avg


@dataclass(frozen=True)
class BoundReport:
    tl: float
    tl_alpha2: float
    tl_alpha_max: tuple[float, float]
    mt_fidelity: float
    qfi: float
    campo: float
    actual_time: float | None
    inputs_digest: str

    def as_dict(self) -> dict:
        return {
            "tl": self.tl, "tl_alpha2": self.tl_alpha2,
            "alpha_max": self.tl_alpha_max[0], "tl_alpha_max": self.tl_alpha_max[1],
            "mt_fidelity": self.mt_fidelity, "qfi": self.qfi, "campo": self.campo,
            "actual_time": self.actual_time, "inputs_digest": self.inputs_digest,
        }


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=complex).tobytes())
    return h.hexdigest()[:16]


def bound_report(rho1: QuantumState, H: Observable, rho2: QuantumState,
                 actual_time: float | None = None,
                 alpha_grid=None) -> BoundReport:
    """Evaluate every unitary-case bound on one (rho1, H, rho2) triple, in
    one pass over the cached spectra.

    One alpha broadcast over the grid with alpha = 1 and 2 appended gives
    the alpha maximum, tl (the alpha = 1 column), and tl_alpha2 and campo
    (the alpha = 2 column); mt_fidelity and qfi share one Bures angle and
    one _quotient call.
    """
    grid = _alpha_grid(alpha_grid)
    terms = _alpha_terms(rho1, H, rho2, np.append(grid, (1.0, 2.0)))
    vals = _alpha_bounds(terms, H.hbar)
    mt, qfi = _quotient(_bures_angle(rho1, rho2),
                        np.array([variance(rho1, H), sld_qfi(rho1, H)]),
                        np.array([H.hbar, 2.0 * H.hbar]), "variance or Fisher information")
    return BoundReport(
        tl=float(vals[-2]),
        tl_alpha2=float(vals[-1]),
        tl_alpha_max=_best_alpha(grid, vals[:-2], rho1, rho2),
        mt_fidelity=mt,
        qfi=qfi,
        campo=_campo_chain(terms, vals)["final"],
        actual_time=actual_time,
        inputs_digest=_digest(rho1.matrix, H.matrix, rho2.matrix),
    )
