"""State propagation: unitary orbits, Lindblad semigroups, damping basis."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import expm

from .errors import (
    BadGrid,
    BadUnitVector,
    BasisMismatch,
    DimMismatch,
    InvalidStateProduced,
    NonHermitian,
    NotReached,
)
from .operator_core import (
    EIG_CUT,
    PAULI_Z,
    SIGMA_MINUS,
    SIGMA_PLUS,
    Observable,
    QuantumState,
    _dagger,
    _spectral_power,
    herm_deviation,
    hermitianize,
    unitary_of,
    validate_bloch,
)

REHERM_TOL = 1e-8
STATE_EIG_TOL = 1e-8
SCAN_NODES_PER_PERIOD = 8
MAX_SCAN_NODES = 2**17
FLAT_SCAN_TOL = 1e-14  # adjacent scan distances closer than this agree to roundoff
# The eigen-expansion V e^{wt} V^-1 errs by ~eps cond(V); above this cond,
# where that could exceed 1e-12, propagation takes expm instead.
EIGEN_COND_MAX = 1e-12 / np.finfo(float).eps


@dataclass(frozen=True)
class LindbladModel:
    """Generator L rho = (i/hbar)[rho, H] + (1/2) sum c_ij ([A_i, rho A_j†] + [A_i rho, A_j†]).

    H may be None for a purely dissipative generator, and jump_ops may be
    empty (with a (0, 0) coeffs) for a purely Hamiltonian one, but not
    both. coeffs must be Hermitian; a non-PSD coeff matrix only triggers a
    warning (the map is then not guaranteed completely positive). S, the
    superoperator of build_superoperator, is assembled once here and is the
    generator's one representation.
    """

    H: Observable | None
    jump_ops: tuple
    coeffs: np.ndarray
    hbar: float = 1.0
    S: np.ndarray = field(init=False, repr=False, compare=False)

    def __init__(self, H, jump_ops, coeffs, hbar: float = 1.0) -> None:
        ops = tuple(np.asarray(A, dtype=complex) for A in jump_ops)
        c = np.asarray(coeffs, dtype=complex)
        if H is None and not ops:
            raise DimMismatch("a generator needs a Hamiltonian or a jump operator")
        if c.shape != (len(ops), len(ops)):
            raise DimMismatch(f"coeff matrix {c.shape} vs {len(ops)} jump operators")
        if ops and herm_deviation(c) > 1e-12:
            raise NonHermitian("coefficient matrix must be Hermitian")
        if ops and np.linalg.eigvalsh(hermitianize(c)).min() < -1e-10:
            warnings.warn("coefficient matrix is not PSD; map may not be completely positive",
                          stacklevel=2)
        d = H.dim if H is not None else ops[0].shape[0]
        for A in ops:
            if A.shape != (d, d):
                raise DimMismatch(f"jump operator shape {A.shape} vs dim {d}")
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "jump_ops", ops)
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "hbar", float(hbar))
        object.__setattr__(self, "S", build_superoperator(self))

    @property
    def dim(self) -> int:
        return self.H.dim if self.H is not None else self.jump_ops[0].shape[0]

    @cached_property
    def _propagator(self) -> LindbladPropagator:
        """The one LindbladPropagator of this model, built on first use."""
        return LindbladPropagator(self)

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Action of the generator on an operator: S vec X, reshaped."""
        X = np.asarray(X, dtype=complex)
        if X.shape != (self.dim, self.dim):
            raise DimMismatch(f"{X.shape} vs dim {self.dim}")
        return (self.S @ X.reshape(-1)).reshape(X.shape)


def build_superoperator(L: LindbladModel) -> np.ndarray:
    """d^2 x d^2 matrix of the generator acting on row-major vectorized operators.

    Assembled from vec(A X B) = (A kron B^T) vec X:
        S = (i/hbar)(H kron I - I kron H^T)
            + sum_ij c_ij [A_i kron conj(A_j) - (K kron I + I kron K^T) / 2],
    with K = sum_ij c_ij A_j† A_i. The (i/hbar)[H, X] sign partners
    U = exp(+iHt/hbar), so the c = 0 semigroup is unitary conjugation.
    """
    d = L.dim
    eye = np.eye(d)
    S = np.zeros((d * d, d * d), dtype=complex)
    if L.H is not None:
        Hm = L.H.matrix
        S += 1j / L.hbar * (np.kron(Hm, eye) - np.kron(eye, Hm.T))
    if L.jump_ops:
        A = np.array(L.jump_ops)
        S += np.einsum("ij,iab,jcd->acbd", L.coeffs, A, A.conj()).reshape(d * d, d * d)
        K = np.einsum("ij,jba,ibc->ac", L.coeffs, A.conj(), A)
        S -= 0.5 * (np.kron(K, eye) + np.kron(eye, K.T))
    return S


@dataclass(frozen=True)
class Trajectory:
    """One propagation evaluated at every node of a time grid.

    eigenvalues (n, d, descending) and eigenvectors (n, d, d) are the
    clipped, renormalised spectra, one eigendecomposition per node; states
    and roots, the (n, d, d) stacks of the density matrices and of their
    positive square roots, are built from them on first use. clipped_mass
    is the total weight of the negative eigenvalues set to zero,
    max_herm_repair the largest Hermiticity deviation removed, both over
    all nodes.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    clipped_mass: float
    max_herm_repair: float

    @cached_property
    def states(self) -> np.ndarray:
        return _spectral_power(self.eigenvalues, self.eigenvectors, 1.0)

    @cached_property
    def roots(self) -> np.ndarray:
        return _spectral_power(self.eigenvalues, self.eigenvectors, 0.5)

    def _state(self, k: int) -> QuantumState:
        """Node k as a QuantumState, from its spectrum."""
        return QuantumState._from_spectrum(self.eigenvalues[k], self.eigenvectors[k])


class LindbladPropagator:
    """Caches the eigendecomposition of the model's S for repeated propagation."""

    def __init__(self, L: LindbladModel) -> None:
        self.S = L.S
        w, V = np.linalg.eig(self.S)
        # fastest angular frequency of the semigroup, for time-grid steps
        self.max_frequency = float(np.abs(w.imag).max())
        cond = np.linalg.cond(V)
        if np.isfinite(cond) and cond < EIGEN_COND_MAX:
            self._eig = (w, V, np.linalg.inv(V))
        else:
            self._eig = None  # defective generator, fall back to expm

    def propagator(self, t: float) -> np.ndarray:
        if self._eig is not None:
            w, V, Vinv = self._eig
            return (V * np.exp(w * t)) @ Vinv
        return expm(self.S * t)

    def evolve_vec(self, v0: np.ndarray, ts: np.ndarray) -> np.ndarray:
        """exp(t S) v0 for every t in ts, as the rows of an (n, d^2) array:
        V e^{w t} V^-1 v0 in one broadcast, or expm node by node for a
        defective generator."""
        if self._eig is None:
            return np.array([self.propagator(t) @ v0 for t in ts])
        w, V, Vinv = self._eig
        return (np.exp(np.outer(ts, w)) * (Vinv @ v0)) @ V.T

    def trajectory(self, rho0: QuantumState, ts) -> Trajectory:
        """rho0 propagated to every node of ts (any order), with the checks
        of a single propagation applied to the whole stack: Hermiticity
        deviation <= REHERM_TOL and no eigenvalue below -STATE_EIG_TOL, else
        InvalidStateProduced; then negative eigenvalues are clipped and the
        trace renormalised."""
        ts = np.asarray(ts, dtype=float)
        if ts.ndim != 1 or ts.size == 0:
            raise BadGrid("need a non-empty 1-D array of times")
        d = rho0.dim
        M = self.evolve_vec(rho0.matrix.reshape(-1), ts).reshape(ts.size, d, d)
        herm_dev = float(np.abs(M - _dagger(M)).max())
        if herm_dev > REHERM_TOL:
            raise InvalidStateProduced(
                f"Hermiticity deviation {herm_dev:.3e} after propagation")
        w, V = np.linalg.eigh((M + _dagger(M)) / 2)
        if w.min() < -STATE_EIG_TOL:
            raise InvalidStateProduced("negative eigenvalue beyond tolerance (non-CP model?)")
        return Trajectory(*_clip_spectra(w, V),
                          clipped_mass=float(np.clip(-w, 0.0, None).sum()),
                          max_herm_repair=herm_dev)

    def __call__(self, rho0: QuantumState, t: float) -> QuantumState:
        return self.trajectory(rho0, [t])._state(0)


def _clip_spectra(w: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked ascending Hermitian spectra (from eigh) as descending cut
    spectra: eigenvalues at or below EIG_CUT become 0 and each spectrum is
    renormalised to trace 1."""
    w = np.where(w > EIG_CUT, w, 0.0)
    return (w / w.sum(axis=-1, keepdims=True))[..., ::-1], V[..., ::-1]


def evolve_unitary(rho0: QuantumState, H: Observable, t: float) -> QuantumState:
    """U(t) rho0 U(t)† with U = exp(+iHt/hbar): the state (w0, U V0), whose
    spectrum is rho0's, unchanged."""
    return QuantumState._from_spectrum(rho0.eigenvalues, unitary_of(H, t) @ rho0.eigenvectors)


def evolve_lindblad(rho0: QuantumState, L: LindbladModel, t: float) -> QuantumState:
    """exp(t L) rho0 via the vectorized superoperator."""
    return L._propagator(rho0, t)


def qubit_evolution_closed_form(r, n_hat, a: float, hbar: float = 1.0) -> np.ndarray:
    """Bloch vector after conjugation by U = exp(+i(a/hbar) n.sigma).

    Rotation by angle -2a/hbar about n:
        r' = r cos(2a/hbar) + n (n.r)(1 - cos(2a/hbar)) - (n x r) sin(2a/hbar).
    The n(n.r) and cosine terms match the printed per-component formula;
    the cross term is required for agreement with matrix conjugation
    (verified against evolve_unitary and the worked qubit cases).
    """
    r = validate_bloch(r)
    n = np.asarray(n_hat, dtype=float)
    if abs(np.linalg.norm(n) - 1.0) > 1e-12:
        raise BadUnitVector(f"|n| = {np.linalg.norm(n)}")
    th = 2.0 * a / hbar
    return r * np.cos(th) + n * np.dot(n, r) * (1.0 - np.cos(th)) - np.cross(n, r) * np.sin(th)


@dataclass(frozen=True)
class DampingBasis:
    """Biorthogonal eigen-operator basis of a Lindblad generator."""

    left_ops: tuple
    right_ops: tuple
    eigenvalues: tuple

    def __init__(self, left_ops, right_ops, eigenvalues,
                 generator: LindbladModel | None = None) -> None:
        left = tuple(np.asarray(M, dtype=complex) for M in left_ops)
        right = tuple(np.asarray(M, dtype=complex) for M in right_ops)
        lam = tuple(float(x) for x in eigenvalues)
        n = len(left)
        if not (len(right) == len(lam) == n):
            raise DimMismatch("left/right/eigenvalue counts differ")
        for i in range(n):
            for j in range(n):
                want = 1.0 if i == j else 0.0
                if abs(np.trace(left[i] @ right[j]) - want) > 1e-10:
                    raise BasisMismatch(f"Tr(L_{i} R_{j}) != {want}")
        if generator is not None:
            for lam_i, R in zip(lam, right):
                if np.abs(generator.apply(R) - lam_i * R).max() > 1e-10:
                    raise BasisMismatch("right operator fails the eigen-relation")
        object.__setattr__(self, "left_ops", left)
        object.__setattr__(self, "right_ops", right)
        object.__setattr__(self, "eigenvalues", lam)


def squeezed_vacuum_model(rate1: float, rate2: float, rate3: float,
                          w_eq: float = 0.0, rabi: float = 0.0,
                          hbar: float = 1.0) -> tuple[LindbladModel, DampingBasis]:
    """Two-level atom in a squeezed vacuum channel.

    Inputs are the rates (1/T1, 1/T2, 1/T3); jump operators are
    (sigma+, sigma-, sigma_z/sqrt(2)) and the coefficient matrix is
    [[r1(1-w)/2, -r3, 0], [-r3, r1(1+w)/2, 0], [0, 0, r2 - r1/2]].
    Decay constants: lambda_1 = -(r2 + r3), lambda_2 = -(r2 - r3),
    lambda_3 = -r1. The basis is the damping basis of the dissipative
    part (rabi = 0); with a drive the table no longer diagonalizes L.
    """
    r1, r2, r3 = float(rate1), float(rate2), float(rate3)
    c = np.array([
        [0.5 * r1 * (1 - w_eq), -r3, 0.0],
        [-r3, 0.5 * r1 * (1 + w_eq), 0.0],
        [0.0, 0.0, r2 - 0.5 * r1],
    ], dtype=complex)
    jumps = (SIGMA_PLUS, SIGMA_MINUS, PAULI_Z / np.sqrt(2))
    H = None
    if rabi != 0.0:
        H = Observable(hbar * rabi / 2 * (SIGMA_MINUS + SIGMA_PLUS), hbar=hbar)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # c is indefinite whenever r3 is large
        model = LindbladModel(H, jumps, c, hbar=hbar)
        dissipative = model if rabi == 0.0 else LindbladModel(None, jumps, c, hbar=hbar)
    eye = np.eye(2, dtype=complex)
    sx = SIGMA_PLUS + SIGMA_MINUS
    left = (eye / np.sqrt(2), sx / np.sqrt(2),
            (SIGMA_PLUS - SIGMA_MINUS) / np.sqrt(2),
            (-w_eq * eye + PAULI_Z) / np.sqrt(2))
    right = ((eye + w_eq * PAULI_Z) / np.sqrt(2), sx / np.sqrt(2),
             (SIGMA_MINUS - SIGMA_PLUS) / np.sqrt(2), PAULI_Z / np.sqrt(2))
    lam = (0.0, -(r2 + r3), -(r2 - r3), -r1)
    basis = DampingBasis(left, right, lam, generator=dissipative)
    return model, basis


def damping_basis_evolution(rho0: QuantumState, basis: DampingBasis, t: float) -> QuantumState:
    """rho_t = sum_i Tr(L_i rho0) exp(lambda_i t) R_i."""
    M = np.zeros_like(rho0.matrix)
    for Li, Ri, lam in zip(basis.left_ops, basis.right_ops, basis.eigenvalues):
        M = M + np.trace(Li @ rho0.matrix) * np.exp(lam * t) * Ri
    if herm_deviation(M) > REHERM_TOL:
        raise InvalidStateProduced("damping-basis propagation lost Hermiticity")
    return QuantumState._from_spectrum(*_clip_spectra(*np.linalg.eigh(hermitianize(M))))


def affinity_closed_form_markovian(r, eigenvalues, w_eq: float, t: float) -> float:
    """Closed-form affinity A(rho_0, rho_t) of the squeezed-vacuum example.

    The damping basis evolves the Bloch vector to
    r_t = (r_x e^{lambda_1 t}, r_y e^{lambda_2 t}, w + (r_z - w) e^{lambda_3 t}),
    w = w_eq, and the qubit square roots give

        A = (1/2) [s(r_0) s(r_t) + d(r_0) d(r_t) r_0.r_t / (|r_0| |r_t|)],
        s = sqrt(1 + sqrt(1 - |r|^2)),  d = sqrt(1 - sqrt(1 - |r|^2)).

    d(r) r / |r| is evaluated as r / s(r), which has no 0/0 at |r| = 0.
    Tr(sqrt(rho_0) exp(Lt) sqrt(rho_0)), which presumes the square root
    follows the semigroup, is a different quantity.
    """
    r = validate_bloch(r)
    lam1, lam2, lam3 = eigenvalues[1], eigenvalues[2], eigenvalues[3]
    r_t = np.array([r[0] * np.exp(lam1 * t), r[1] * np.exp(lam2 * t),
                    w_eq + (r[2] - w_eq) * np.exp(lam3 * t)])

    def s(v):
        return np.sqrt(1.0 + np.sqrt(max(1.0 - float(np.dot(v, v)), 0.0)))

    s0, st = s(r), s(r_t)
    return 0.5 * (s0 * st + float(np.dot(r, r_t)) / (s0 * st))


@dataclass(frozen=True)
class EvolutionPath:
    times: np.ndarray
    states: tuple


def evolve_path(rho0: QuantumState, generator, times) -> EvolutionPath:
    """Propagate rho0 to every node of an ascending time grid."""
    times = np.asarray(times, dtype=float)
    if isinstance(generator, Observable):
        states = tuple(evolve_unitary(rho0, generator, t) for t in times)
    else:
        traj = generator._propagator.trajectory(rho0, times)
        states = tuple(traj._state(k) for k in range(times.size))
    return EvolutionPath(times=times, states=states)


def _passage_distance(rho0: QuantumState, generator, rho_target: QuantumState):
    """(dist, frequency): dist maps an array of times to the distances
    ||rho(t) - rho_target||_F, and frequency is the generator's fastest
    angular frequency, (w_max - w_min)/hbar for a Hamiltonian and the
    largest |Im lambda| of S for a Lindblad generator."""
    target = rho_target.matrix
    if isinstance(generator, Observable):
        w, V = generator._spectrum
        rho_eig = (V.conj().T @ rho0.matrix @ V).ravel()
        tgt_eig = (V.conj().T @ target @ V).ravel()
        gaps = np.subtract.outer(w, w).ravel() / generator.hbar

        def dist(ts: np.ndarray) -> np.ndarray:
            # e^{i (w_j - w_k) t} rho_jk - target_jk, built in one (n, d^2) buffer
            diff = np.zeros((len(ts), gaps.size), dtype=complex)
            np.outer(ts, gaps, out=diff.imag)
            np.exp(diff, out=diff)
            diff *= rho_eig
            diff -= tgt_eig
            return _row_norms(diff)

        return dist, (w[0] - w[-1]) / generator.hbar
    prop = generator._propagator
    v0, v_target = rho0.matrix.reshape(-1), target.reshape(-1)

    def dist(ts: np.ndarray) -> np.ndarray:
        diff = prop.evolve_vec(v0, ts)
        diff -= v_target
        return _row_norms(diff)

    return dist, prop.max_frequency


def _row_norms(diff: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a C-contiguous complex (n, k) array,
    read through its float view so no temporary is made."""
    flat = diff.view(float)
    return np.sqrt(np.einsum("nk,nk->n", flat, flat))


def _flat_runs(ds: np.ndarray, candidates):
    """Yield (first, last) of each run of candidate nodes, in order, where a
    run joins neighbours whose stretch of ds is flat to FLAT_SCAN_TOL; lazy,
    so the scan of runs stops where the caller stops."""
    run = None
    for i in candidates:
        if run is not None and np.ptp(ds[run[1]:i + 1]) <= FLAT_SCAN_TOL:
            run[1] = i
            continue
        if run is not None:
            yield run
        run = [i, i]
    if run is not None:
        yield run


def first_passage_time(rho0: QuantumState, generator, rho_target: QuantumState,
                       tol: float = 1e-9, t_max: float = 2 * np.pi,
                       scan_nodes: int = 1000) -> float:
    """Earliest t in [0, t_max] with ||rho(t) - rho_target||_F <= tol.

    The distance is scanned in one broadcast on a uniform grid with at
    least scan_nodes nodes and at least SCAN_NODES_PER_PERIOD nodes per
    period of the generator's fastest frequency; a grid longer than
    MAX_SCAN_NODES raises BadGrid. Each local minimum of the scan, the
    bracket [0, t_1] included, is refined by golden-section search, earliest
    first, and the first one that reaches tol is bisected to 1e-10 in t.
    Minima joined by a stretch where the scan is flat to FLAT_SCAN_TOL are
    one bracket, so a constant curve costs one search, not one per node.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    dists, freq = _passage_distance(rho0, generator, rho_target)

    def dist(t: float) -> float:
        return float(dists(np.array([t]))[0])

    n = max(scan_nodes, int(np.ceil(SCAN_NODES_PER_PERIOD * t_max * freq / (2 * np.pi))) + 1)
    if n > MAX_SCAN_NODES:
        raise BadGrid(f"first-passage scan needs {n} nodes, above the cap {MAX_SCAN_NODES} "
                      f"(frequency {freq:.3e}, t_max {t_max})")
    ts = np.linspace(0.0, t_max, n)
    ds = dists(ts)
    if ds[0] <= tol:
        return 0.0
    # candidate minima of the sampled distance, earliest first; a minimum
    # inside the first step shows only as ds[0] <= ds[1]
    interior = np.where((ds[1:-1] <= ds[:-2]) & (ds[1:-1] <= ds[2:]))[0] + 1
    candidates = ([0] if ds[0] <= ds[1] else []) + list(interior)
    if ds[-1] < ds[-2]:
        candidates.append(len(ts) - 1)
    for first, i in _flat_runs(ds, candidates):
        lo = ts[max(first - 1, 0)]
        hi = ts[min(i + 1, len(ts) - 1)]
        # golden-section refinement of the local minimum
        gr = (np.sqrt(5.0) - 1.0) / 2.0
        a, b = lo, hi
        c, d = b - gr * (b - a), a + gr * (b - a)
        fc, fd = dist(c), dist(d)
        while b - a > 1e-12:
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - gr * (b - a)
                fc = dist(c)
            else:
                a, c, fc = c, d, fd
                d = a + gr * (b - a)
                fd = dist(d)
        t_min = 0.5 * (a + b)
        if dist(t_min) > tol:
            continue
        # bisect for the earliest crossing below tol
        lo_t, hi_t = lo, t_min
        if dist(lo_t) <= tol:
            return float(lo_t)
        while hi_t - lo_t > 1e-10:
            mid = 0.5 * (lo_t + hi_t)
            if dist(mid) <= tol:
                hi_t = mid
            else:
                lo_t = mid
        return float(hi_t)
    raise NotReached(f"target not reached within t_max = {t_max}")


def sqrt_evolution_diagnostic(rho0: QuantumState, L: LindbladModel, t_grid,
                              fd_step: float = 1e-5) -> dict:
    """Compare d/dt sqrt(rho_t) (central differences) with L applied to sqrt(rho_t).

    The claim that they agree is exact for unitary conjugation and for
    commuting (dephasing) structures but not in general; this only
    reports the deviation, it takes no position. All three nodes of every
    difference come from one propagation.
    """
    ts = np.asarray(t_grid, dtype=float)
    lo = np.maximum(ts - fd_step, 0.0)
    roots = L._propagator.trajectory(rho0, np.concatenate([ts + fd_step, lo, ts])).roots
    sp, sm, s = roots.reshape(3, ts.size, rho0.dim, rho0.dim)
    lhs = (sp - sm) / (ts + fd_step - lo)[:, None, None]
    rhs = (s.reshape(ts.size, -1) @ L.S.T).reshape(s.shape)
    devs = np.linalg.norm(lhs - rhs, axis=(1, 2))
    return {"times": ts, "deviations": devs, "max_deviation": float(devs.max())}
