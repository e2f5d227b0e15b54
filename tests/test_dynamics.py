import time

import numpy as np
import pytest

from qsl_lab.coherence import affinity
from qsl_lab.dynamics import (
    DampingBasis,
    LindbladModel,
    LindbladPropagator,
    MAX_SCAN_NODES,
    MIN_SCAN_NODES,
    SCAN_NODES_PER_PERIOD,
    _flat_runs,
    _passage_distance,
    affinity_closed_form_markovian,
    build_superoperator,
    damping_basis_evolution,
    evolve_lindblad,
    evolve_unitary,
    first_passage_time,
    orbit,
    qubit_evolution_closed_form,
    sqrt_evolution_diagnostic,
    squeezed_vacuum_model,
)
from qsl_lab.errors import (
    BadGrid,
    BadUnitVector,
    BasisMismatch,
    DimMismatch,
    InvalidStateProduced,
    NotReached,
)
from qsl_lab.operator_core import (
    PAULI_Z,
    SIGMA_MINUS,
    Observable,
    QuantumState,
    bloch_hamiltonian,
    bloch_to_state,
    random_observable,
    random_state,
    state_to_bloch,
)


def _random_model(d: int, seed: int, n_jumps: int = 2) -> LindbladModel:
    """Driven model with a generic PSD (off-diagonal) coefficient matrix."""
    rng = np.random.default_rng(seed)
    jumps = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(n_jumps)]
    G = rng.normal(size=(n_jumps, n_jumps)) + 1j * rng.normal(size=(n_jumps, n_jumps))
    return LindbladModel(random_observable(d, seed + 1), jumps, 0.2 * G @ G.conj().T)


def _apply_oracle(L: LindbladModel, X: np.ndarray) -> np.ndarray:
    """The generator's action written out term by term, the reference that
    S, and so L.apply, is checked against."""
    X = np.asarray(X, dtype=complex)
    out = np.zeros_like(X)
    if L.H is not None:
        Hm = L.H.matrix
        out = out + 1j / L.hbar * (Hm @ X - X @ Hm)
    c = L.coeffs
    for i, Ai in enumerate(L.jump_ops):
        for j, Aj in enumerate(L.jump_ops):
            if c[i, j] == 0:
                continue
            Ajd = Aj.conj().T
            XAjd = X @ Ajd
            AiX = Ai @ X
            out = out + 0.5 * c[i, j] * (Ai @ XAjd - XAjd @ Ai + AiX @ Ajd - Ajd @ AiX)
    return out


def _first_passage_oracle(rho0, generator, rho_target, tol=1e-9, t_max=2 * np.pi):
    """first_passage_time with the library's scan and brackets, each bracket
    refined one scalar time at a time: golden-section search to 1e-12 for
    its minimum, then bisection to 1e-10 for the crossing below tol. The
    reference that the broadcast zoom is checked against."""
    dists, freq, _ = _passage_distance(rho0, generator, rho_target)

    def dist(t):
        return float(dists(np.array([t]))[0])

    n = max(MIN_SCAN_NODES, int(np.ceil(SCAN_NODES_PER_PERIOD * t_max * freq / (2 * np.pi))) + 1)
    assert n <= MAX_SCAN_NODES
    ts = np.linspace(0.0, t_max, n)
    ds = dists(ts)
    if ds[0] <= tol:
        return 0.0
    interior = np.where((ds[1:-1] <= ds[:-2]) & (ds[1:-1] <= ds[2:]))[0] + 1
    candidates = ([0] if ds[0] <= ds[1] else []) + list(interior)
    if ds[-1] < ds[-2]:
        candidates.append(len(ts) - 1)
    gr = (np.sqrt(5.0) - 1.0) / 2.0
    for first, i in _flat_runs(ds, candidates):
        lo, hi = ts[max(first - 1, 0)], ts[min(i + 1, len(ts) - 1)]
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
        if dist(lo) <= tol:
            return float(lo)
        while t_min - lo > 1e-10:
            mid = 0.5 * (lo + t_min)
            if dist(mid) <= tol:
                t_min = mid
            else:
                lo = mid
        return float(t_min)
    raise NotReached(f"target not reached within t_max = {t_max}")


def _cascade(rate: float) -> LindbladModel:
    """|2> -> |1> -> |0> at equal rates: a defective generator (expm fallback)."""
    A1, A2 = np.zeros((3, 3)), np.zeros((3, 3))
    A1[0, 1] = A2[1, 2] = 1.0
    return LindbladModel(None, (A1, A2), rate * np.eye(2))


def test_evolve_unitary_basics():
    rho = random_state(2, 2, 1)
    H = random_observable(2, 2)
    assert np.allclose(evolve_unitary(rho, H, 0.0).matrix, rho.matrix, atol=1e-12)
    diag = QuantumState(np.diag([0.7, 0.3]))
    assert np.allclose(evolve_unitary(diag, Observable(PAULI_Z), 1.3).matrix,
                       diag.matrix, atol=1e-12)
    # spectrum is preserved
    out = evolve_unitary(rho, H, 0.9)
    assert np.allclose(np.sort(out.eigenvalues), np.sort(rho.eigenvalues), atol=1e-10)


def test_case1_rotation_angle():
    rho = bloch_to_state([1, 0, 0])
    H = bloch_hamiltonian([0, 0, 1])
    out = evolve_unitary(rho, H, np.pi / 2)
    r_out = state_to_bloch(out.matrix)
    assert abs(np.dot(r_out, [1, 0, 0]) - np.cos(np.pi)) < 1e-10  # r.r' = cos 2a


def test_closed_form_matches_matrix_evolution():
    rng = np.random.default_rng(0)
    for _ in range(100):
        r = rng.normal(size=3)
        r *= rng.uniform(0, 1) / np.linalg.norm(r)
        n = rng.normal(size=3)
        n /= np.linalg.norm(n)
        a = rng.uniform(0, 2 * np.pi)
        got = qubit_evolution_closed_form(r, n, a)
        expected = state_to_bloch(
            evolve_unitary(bloch_to_state(r), bloch_hamiltonian(n), a).matrix)
        assert np.linalg.norm(got - expected) < 1e-10


def test_closed_form_trivial_axes():
    assert np.allclose(qubit_evolution_closed_form([0.3, 0, 0.4], [0, 0, 1], 0.0),
                       [0.3, 0, 0.4])
    n = np.array([0, 0, 1.0])
    assert np.allclose(qubit_evolution_closed_form(0.5 * n, n, 1.7), 0.5 * n, atol=1e-12)
    with pytest.raises(BadUnitVector):
        qubit_evolution_closed_form([0, 0, 0.5], [0, 0, 0.9], 1.0)


def test_case3_bloch_target():
    # a with cos 2a = -3/5, sin 2a = 4/5 carries r to the published r'
    a = np.arctan2(4 / 5, -3 / 5) / 2
    got = qubit_evolution_closed_form(
        [0, 0, 0.5], [1 / np.sqrt(2), 1 / np.sqrt(3), -1 / np.sqrt(6)], a)
    target = np.array([-4 * np.sqrt(3) / 15, np.sqrt(2) / 15, -1 / 6])
    assert np.linalg.norm(got - target) < 1e-10


def test_superoperator_matches_direct_action():
    L, _ = squeezed_vacuum_model(0.3, 0.5, 0.2, w_eq=0.1, rabi=0.7)
    S = build_superoperator(L)
    rng = np.random.default_rng(5)
    for _ in range(20):
        X = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert np.abs((S @ X.reshape(-1)).reshape(2, 2) - _apply_oracle(L, X)).max() < 1e-12
        assert np.abs(L.apply(X) - _apply_oracle(L, X)).max() < 1e-12
    # Tr is a left null vector: column sums over diagonal entries vanish
    tr_row = np.eye(2).reshape(-1)
    assert np.abs(tr_row @ S).max() < 1e-10


@pytest.mark.parametrize("d", [2, 3, 4])
def test_superoperator_matches_apply_columns(d):
    # the Kronecker assembly against S built column by column from the oracle
    L = _random_model(d, 40 + d)
    S = build_superoperator(L)
    cols = np.zeros((d * d, d * d), dtype=complex)
    for k in range(d * d):
        E = np.zeros(d * d, dtype=complex)
        E[k] = 1.0
        cols[:, k] = _apply_oracle(L, E.reshape(d, d)).reshape(-1)
    assert np.abs(S - cols).max() < 1e-12


def test_hamiltonian_only_generator():
    rho = random_state(3, 2, 17)
    H = random_observable(3, 18)
    L = LindbladModel(H, (), np.zeros((0, 0)))
    assert L.dim == 3
    assert np.abs(evolve_lindblad(rho, L, 0.7).matrix
                  - evolve_unitary(rho, H, 0.7).matrix).max() < 1e-12
    with pytest.raises(DimMismatch):
        LindbladModel(None, (), np.zeros((0, 0)))


def _reference_state(L: LindbladModel, rho0: QuantumState, t: float) -> QuantumState:
    """Node-by-node expm propagation with the clip-and-renormalise step."""
    from scipy.linalg import expm
    d = rho0.dim
    M = (expm(build_superoperator(L) * t) @ rho0.matrix.reshape(-1)).reshape(d, d)
    w, V = np.linalg.eigh((M + M.conj().T) / 2)
    w = np.clip(w, 0.0, None)
    return QuantumState((V * (w / w.sum())) @ V.conj().T)


@pytest.mark.parametrize("model", ["squeezed_driven", "random_d3", "cascade_d3"])
def test_trajectory_matches_single_propagation(model):
    if model == "squeezed_driven":
        L, _ = squeezed_vacuum_model(0.3, 0.5, 0.2, w_eq=0.1, rabi=0.7)
        rho0 = random_state(2, 2, 19)
    elif model == "random_d3":
        L, rho0 = _random_model(3, 20), random_state(3, 2, 21)
    else:
        L, rho0 = _cascade(0.6), random_state(3, 3, 22)
    prop = LindbladPropagator(L)
    assert (prop._eig is None) == (model == "cascade_d3")
    ts = np.linspace(0.0, 3.0, 13)[::-1]  # any order
    traj = prop.trajectory(rho0, ts)
    assert traj.states.shape == traj.roots.shape == (13, rho0.dim, rho0.dim)
    assert traj.clipped_mass >= 0.0 and 0.0 <= traj.max_herm_repair <= 1e-8
    for t, M, R in zip(ts, traj.states, traj.roots):
        single = prop(rho0, t)
        assert np.abs(M - single.matrix).max() < 1e-14
        assert np.abs(R - single.sqrt()).max() < 1e-14
        assert np.abs(R @ R - M).max() < 1e-14
        assert np.abs(M - _reference_state(L, rho0, t).matrix).max() < 1e-12


def test_exceptional_point_trajectory_matches_expm():
    # at rabi = 0.25 the driven model sits at an exceptional point, cond(V) ~ 7e7,
    # where the eigen-expansion would be off expm by ~eps cond(V) ~ 2e-9
    L, _ = squeezed_vacuum_model(1.0, 0.5, 0.0, rabi=0.25)
    rho0 = bloch_to_state([0.3, 0.2, 0.5])
    ts = np.array([0.5, 2.0, 8.0])
    traj = LindbladPropagator(L).trajectory(rho0, ts)
    for t, M in zip(ts, traj.states):
        assert np.abs(M - _reference_state(L, rho0, t).matrix).max() < 1e-12


def test_each_generator_is_decomposed_once(monkeypatch):
    import qsl_lab.dynamics
    from qsl_lab.bounds import campo_markovian_bound, markovian_bound
    calls = dict.fromkeys(("build", "eig", "eigh"), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(qsl_lab.dynamics, "build_superoperator",
                        counted("build", build_superoperator))
    monkeypatch.setattr(np.linalg, "eig", counted("eig", np.linalg.eig))
    L, rho0 = _random_model(3, 30), random_state(3, 3, 31)
    target = evolve_lindblad(rho0, L, 0.7)
    markovian_bound(rho0, L, 0.7)
    campo_markovian_bound(rho0, L, 0.7)
    first_passage_time(rho0, L, target)
    sqrt_evolution_diagnostic(rho0, L, [0.2, 0.5])
    assert calls["build"] == calls["eig"] == 1
    # a Hamiltonian is diagonalised once, and an evolved state keeps its spectrum
    H, rho = random_observable(3, 7), random_state(3, 2, 8)
    monkeypatch.setattr(np.linalg, "eigh", counted("eigh", np.linalg.eigh))
    for t in (0.1, 0.5, 2.0):
        evolve_unitary(rho, H, t)
    assert calls["eigh"] == 1


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_evolve_unitary_keeps_spectrum_exactly(d):
    H = random_observable(d, 60 + d)
    for rank in sorted({1, (d + 1) // 2, d}):
        rho = random_state(d, rank, 70 + 10 * d + rank)
        for t in (1e-3, 0.4, 2.1):
            assert np.array_equal(evolve_unitary(rho, H, t).eigenvalues, rho.eigenvalues)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_orbit_hamiltonian_matches_per_node(d, monkeypatch):
    # rho0's spectrum at every node, U(t) V0 as the eigenvectors, and no eigh
    H = random_observable(d, 80 + d, hbar=0.8)
    states = [random_state(d, rank, 90 + 10 * d + rank) for rank in sorted({1, 2, d})]
    H._spectrum  # H's one decomposition, taken before eigh is counted
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(1) or eigh(*a, **k))
    ts = np.linspace(0.0, 3.0, 11)[::-1]
    for rho0 in states:
        traj = orbit(rho0, H, ts)
        assert traj.clipped_mass == 0.0 and traj.max_herm_repair == 0.0
        assert traj.eigenvalues.shape == (ts.size, d)
        assert (traj.eigenvalues == rho0.eigenvalues).all()
        for k, t in enumerate(ts):
            single = evolve_unitary(rho0, H, t)
            assert np.abs(traj.eigenvectors[k] - single.eigenvectors).max() < 1e-13
            assert np.abs(traj.states[k] - single.matrix).max() < 1e-13
            assert np.abs(traj._state(k).matrix - single.matrix).max() < 1e-13
    assert calls == []


def test_orbit_lindblad_is_the_propagator_trajectory():
    L, rho0 = _random_model(3, 40), random_state(3, 2, 41)
    ts = np.linspace(0.0, 2.0, 9)
    got, want = orbit(rho0, L, ts), L._propagator.trajectory(rho0, ts)
    assert np.array_equal(got.eigenvalues, want.eigenvalues)
    assert np.array_equal(got.eigenvectors, want.eigenvectors)
    assert got.clipped_mass == want.clipped_mass
    assert got.max_herm_repair == want.max_herm_repair


@pytest.mark.parametrize("ts", [[], [[0.1, 0.2]], 0.5], ids=["empty", "2d", "scalar"])
@pytest.mark.parametrize("kind", ["hamiltonian", "lindblad"])
def test_orbit_rejects_bad_grids(kind, ts):
    gen = bloch_hamiltonian([0, 0, 1]) if kind == "hamiltonian" else squeezed_vacuum_model(
        0.3, 0.5, 0.2)[0]
    with pytest.raises(BadGrid):
        orbit(bloch_to_state([0.3, 0.2, 0.5]), gen, ts)


@pytest.mark.parametrize("model", ["eigen_path", "expm_path"])
def test_non_cp_model_raises(model):
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the coefficient matrix is not PSD
        if model == "eigen_path":
            L, rho0 = LindbladModel(None, (SIGMA_MINUS,), np.array([[-1.0]])), \
                QuantumState(np.eye(2) / 2)
        else:
            L, rho0 = _cascade(-1.0), QuantumState(np.eye(3) / 3)
    prop = LindbladPropagator(L)
    assert (prop._eig is None) == (model == "expm_path")
    with pytest.raises(InvalidStateProduced):
        prop.trajectory(rho0, np.linspace(0.0, 2.0, 5))
    with pytest.raises(InvalidStateProduced):
        prop(rho0, 2.0)


def test_amplitude_damping_fixed_point():
    L = LindbladModel(None, (SIGMA_MINUS,), np.array([[0.8]]))
    ground = np.diag([1.0, 0.0]).astype(complex)
    assert np.abs(L.apply(ground)).max() < 1e-12
    out = evolve_lindblad(QuantumState(np.diag([0.2, 0.8])), L, 30.0)
    assert np.allclose(out.matrix, ground, atol=1e-8)


def test_lindblad_reductions():
    rho = random_state(2, 2, 8)
    H = random_observable(2, 9)
    L = LindbladModel(H, (SIGMA_MINUS,), np.array([[0.0]]))
    assert np.allclose(evolve_lindblad(rho, L, 0.0).matrix, rho.matrix, atol=1e-10)
    assert np.allclose(evolve_lindblad(rho, L, 0.7).matrix,
                       evolve_unitary(rho, H, 0.7).matrix, atol=1e-9)


def test_semigroup_property():
    L, _ = squeezed_vacuum_model(0.4, 0.6, 0.1, w_eq=0.2)
    rho = random_state(2, 2, 10)
    one = evolve_lindblad(evolve_lindblad(rho, L, 0.3), L, 0.5)
    two = evolve_lindblad(rho, L, 0.8)
    assert np.abs(one.matrix - two.matrix).max() < 1e-9


def test_simple_decay_bloch_component():
    L, _ = squeezed_vacuum_model(0.0, 0.45, 0.45)
    rho0 = bloch_to_state([1, 0, 0])
    for t in (0.3, 1.0, 2.5):
        r = state_to_bloch(evolve_lindblad(rho0, L, t).matrix)
        assert abs(r[0] - np.exp(-0.9 * t)) < 1e-10
        assert abs(r[1]) < 1e-10 and abs(r[2]) < 1e-10


def test_damping_basis_eigenrelations_and_evolution():
    L, basis = squeezed_vacuum_model(0.25, 0.5, 0.15, w_eq=0.3)
    assert basis.eigenvalues == (0.0, -0.65, -0.35, -0.25)
    rng = np.random.default_rng(2)
    for _ in range(50):
        r = rng.normal(size=3)
        r *= rng.uniform(0, 1) / np.linalg.norm(r)
        rho0 = bloch_to_state(r)
        t = rng.uniform(0, 3)
        a = damping_basis_evolution(rho0, basis, t)
        b = evolve_lindblad(rho0, L, t)
        assert np.abs(a.matrix - b.matrix).max() < 1e-10


def test_damping_basis_stationary_state():
    w_eq = 0.3
    L, basis = squeezed_vacuum_model(0.25, 0.5, 0.15, w_eq=w_eq)
    rho0 = random_state(2, 2, 3)
    out = damping_basis_evolution(rho0, basis, 200.0)
    expected = 0.5 * (np.eye(2) + w_eq * PAULI_Z)
    assert np.allclose(out.matrix, expected, atol=1e-8)
    # and it spans the null space of the superoperator
    S = build_superoperator(L)
    assert np.abs(S @ expected.reshape(-1)).max() < 1e-12


def test_damping_basis_biorthogonality_guard():
    L, basis = squeezed_vacuum_model(0.25, 0.5, 0.15)
    with pytest.raises(BasisMismatch):
        DampingBasis(basis.left_ops, basis.right_ops[::-1], basis.eigenvalues)


def test_affinity_closed_form():
    # simple case: the closed form is the spectral affinity sqrt((1 + Lambda1)/2) ...
    L, basis = squeezed_vacuum_model(0.0, 0.45, 0.45)
    assert abs(affinity_closed_form_markovian([1, 0, 0], basis.eigenvalues, 0.0, 0.0)
               - 1.0) < 1e-12
    rho0 = bloch_to_state([1, 0, 0])
    from qsl_lab.dynamics import LindbladPropagator
    prop = LindbladPropagator(L)
    for t in (0.5, 2.0):
        closed = affinity_closed_form_markovian([1, 0, 0], basis.eigenvalues, 0.0, t)
        spectral = affinity(rho0, evolve_lindblad(rho0, L, t))
        assert abs(closed - spectral) < 1e-12
        assert abs(closed - np.sqrt(0.5 * (1 + np.exp(-0.9 * t)))) < 1e-12
        # ... and NOT the semigroup-evolved-sqrt overlap (1 + Lambda1)/2
        s0 = rho0.sqrt()
        semigroup = np.trace(s0 @ (prop.propagator(t) @ s0.reshape(-1)).reshape(2, 2)).real
        assert abs(semigroup - 0.5 * (1 + np.exp(-0.9 * t))) < 1e-12
        assert abs(semigroup - spectral) > 1e-2


def test_affinity_closed_form_random_cp_models():
    rng = np.random.default_rng(21)
    for _ in range(20):
        r1 = rng.uniform(0.1, 1.0)
        w_eq = float(rng.uniform(-0.8, 0.8))
        r2 = r1 / 2 + rng.uniform(0.0, 0.5)
        r3 = rng.uniform(0.0, 1.0) * r1 * np.sqrt(1 - w_eq**2) / 2  # coeffs stay PSD
        L, basis = squeezed_vacuum_model(r1, r2, r3, w_eq=w_eq)
        r = rng.normal(size=3)
        r *= rng.uniform(0, 1) / np.linalg.norm(r)
        rho0 = bloch_to_state(r)
        t = float(rng.uniform(0, 4))
        closed = affinity_closed_form_markovian(r, basis.eigenvalues, w_eq, t)
        assert abs(closed - affinity(rho0, evolve_lindblad(rho0, L, t))) < 1e-10


def test_first_passage_basics():
    rho = bloch_to_state([1, 0, 0])
    H = bloch_hamiltonian([0, 0, 1])
    assert first_passage_time(rho, H, rho, tol=1e-8) == 0.0
    target = evolve_unitary(rho, H, np.pi / 2)
    assert abs(first_passage_time(rho, H, target, tol=1e-8) - np.pi / 2) < 1e-7
    stuck = QuantumState(np.diag([0.9, 0.1]))
    with pytest.raises(NotReached):
        first_passage_time(rho, H, stuck, tol=1e-8, t_max=3.0)


def test_first_passage_flat_curve_is_one_bracket():
    # the distance is constant up to roundoff, so almost every scan node is
    # a "local minimum"; they form one flat bracket, searched once
    rho = bloch_to_state([1, 0, 0])
    H = bloch_hamiltonian([0, 0, 1])
    stuck = QuantumState(np.diag([0.9, 0.1]))
    best = np.inf
    for _ in range(3):
        t0 = time.perf_counter()
        with pytest.raises(NotReached):
            first_passage_time(rho, H, stuck)
        best = min(best, time.perf_counter() - t0)
    assert best < 0.02


def test_first_passage_lindblad_round_trip():
    L, _ = squeezed_vacuum_model(0.2, 0.5, 0.1)
    rho0 = bloch_to_state([0.6, 0.2, -0.3])
    target = evolve_lindblad(rho0, L, 0.7)
    assert abs(first_passage_time(rho0, L, target, tol=1e-9, t_max=3.0) - 0.7) < 1e-7


def _passage_case(kind: str, d: int, seed: int):
    """(rho0, generator, t0): a random passage problem whose target is
    rho0 evolved to t0."""
    rho0 = random_state(d, d - seed % 2, seed)
    t0 = float(np.random.default_rng(seed).uniform(0.1, 3.0))
    if kind == "unitary":
        gen = random_observable(d, seed + 1)
    elif kind == "cascade":
        gen = _cascade(0.2 + 0.1 * (seed % 3))
    else:
        gen = _random_model(d, seed + 1)
    return rho0, gen, t0


@pytest.mark.parametrize("kind,d", [("unitary", 2), ("unitary", 3), ("unitary", 4),
                                    ("lindblad", 2), ("lindblad", 3), ("cascade", 3)])
def test_first_passage_matches_scalar_oracle(kind, d):
    for seed in range(40 + 10 * d, 43 + 10 * d):
        rho0, gen, t0 = _passage_case(kind, d, seed)
        evolve = evolve_unitary if kind == "unitary" else evolve_lindblad
        target = evolve(rho0, gen, t0)
        t_max = 4.0 if kind != "cascade" else 2 * np.pi
        got = first_passage_time(rho0, gen, target, t_max=t_max)
        assert abs(got - _first_passage_oracle(rho0, gen, target, t_max=t_max)) < 1e-10
        assert got <= t0 + 1e-10


def test_first_passage_broadcast_count(monkeypatch):
    # each refinement step is one broadcast of the distance; the scalar
    # golden-section and bisection loops made 77-80 calls per passage
    import qsl_lab.dynamics
    calls = []

    def counted(*args):
        dists, freq, rate = _passage_distance(*args)

        def wrapper(ts):
            calls.append(np.size(ts))
            return dists(ts)
        return wrapper, freq, rate

    monkeypatch.setattr(qsl_lab.dynamics, "_passage_distance", counted)
    rho = bloch_to_state([1, 0, 0])
    H = bloch_hamiltonian([0, 0, 1])
    L, _ = squeezed_vacuum_model(0.2, 0.5, 0.1)
    rho_l = bloch_to_state([0.6, 0.2, -0.3])
    runs = [
        lambda: first_passage_time(rho, H, rho, tol=1e-8),
        lambda: first_passage_time(rho, H, evolve_unitary(rho, H, np.pi / 2), tol=1e-8),
        lambda: first_passage_time(rho, H, QuantumState(np.diag([0.9, 0.1])), tol=1e-8,
                                   t_max=3.0),
        lambda: first_passage_time(rho, H, evolve_unitary(rho, H, 0.002)),
        lambda: first_passage_time(rho_l, L, evolve_lindblad(rho_l, L, 0.7), tol=1e-9,
                                   t_max=3.0),
    ]
    for run in runs:
        calls.clear()
        try:
            run()
        except NotReached:
            pass
        assert 1 <= len(calls) <= 16


def test_first_passage_skips_unreachable_minima(monkeypatch):
    # the minimum before the passage stays farther above tol than the distance
    # can fall within half a scan step, so it is dropped without a zoom search
    import qsl_lab.dynamics
    calls = []

    def counted(*args):
        dists, freq, rate = _passage_distance(*args)

        def wrapper(ts):
            calls.append(np.size(ts))
            return dists(ts)
        return wrapper, freq, rate

    H = bloch_hamiltonian([0.6, 0, 0.8], omega=30)
    rho = bloch_to_state([0.5, 0.3, -0.2])
    target = evolve_unitary(rho, H, 0.07)
    want = _first_passage_oracle(rho, H, target)
    monkeypatch.setattr(qsl_lab.dynamics, "_passage_distance", counted)
    got = first_passage_time(rho, H, target)
    assert len(calls) <= 8  # 15 when every minimum was zoomed
    assert abs(got - want) < 1e-10


def test_first_passage_target_on_a_scan_node():
    # the scan itself lands within tol: only the crossing before it is zoomed
    rho, H = random_state(3, 2, 90), random_observable(3, 91)
    t0 = np.linspace(0.0, 2 * np.pi, 1000)[300]
    target = evolve_unitary(rho, H, t0)
    got = first_passage_time(rho, H, target)
    assert abs(got - _first_passage_oracle(rho, H, target)) < 1e-10
    assert t0 - 1e-8 < got <= t0


def test_first_passage_below_tol_before_the_bracket():
    # the distance to the stationary state decays monotonically: no interior
    # minimum, the one candidate is the last node, and the scan is below tol
    # from t ~ 38.7 on, far left of that bracket
    L = LindbladModel(None, (SIGMA_MINUS,), np.array([[1.0]]))
    rho0 = bloch_to_state([0.3, 0.2, 0.5])
    target = evolve_lindblad(rho0, L, 200.0)
    dist, _, _ = _passage_distance(rho0, L, target)
    t = first_passage_time(rho0, L, target, tol=1e-9, t_max=60.0)
    assert dist(np.array([t]))[0] <= 1e-9 < dist(np.array([t - 1e-10]))[0]
    assert abs(t - 38.7132) < 1e-4


@pytest.mark.parametrize("model", ["unitary", "lindblad_d2", "lindblad_d3", "cascade_d3"])
def test_passage_scan_matches_scalar_distance(model):
    rho0 = random_state(3 if model != "lindblad_d2" else 2, 2, 23)
    if model == "unitary":
        gen = random_observable(3, 24)
    elif model == "lindblad_d2":
        gen, _ = squeezed_vacuum_model(0.3, 0.5, 0.2, rabi=0.7)
    elif model == "lindblad_d3":
        gen = _random_model(3, 25)
    else:
        gen = _cascade(0.6)
    target = random_state(rho0.dim, 1, 26)
    ts = np.linspace(0.0, 4.0, 57)
    dist, freq, _ = _passage_distance(rho0, gen, target)
    if model == "unitary":
        w = np.linalg.eigvalsh(gen.matrix)
        assert freq == pytest.approx(w[-1] - w[0], rel=1e-12)
        want = [np.linalg.norm(evolve_unitary(rho0, gen, t).matrix - target.matrix)
                for t in ts]
    else:
        prop = LindbladPropagator(gen)
        assert freq == prop.max_frequency
        want = [np.linalg.norm(prop.propagator(t) @ rho0.matrix.reshape(-1)
                               - target.matrix.reshape(-1)) for t in ts]
    assert np.abs(dist(ts) - want).max() < 1e-12


@pytest.mark.parametrize("omega", [300.0, 1000.0])
@pytest.mark.parametrize("kind", ["unitary", "lindblad"])
def test_first_passage_high_frequency(omega, kind):
    # 1000 fixed scan nodes alias these orbits: a later passage (unitary)
    # or none at all (weakly damped) came back
    rho = bloch_to_state([1, 0, 0])
    if kind == "unitary":
        gen = bloch_hamiltonian([0, 0, 1], omega=omega)
        target = evolve_unitary(rho, gen, 0.37 / omega)
    else:
        gen = LindbladModel(Observable(omega * PAULI_Z), (SIGMA_MINUS,), np.array([[0.1]]))
        target = evolve_lindblad(rho, gen, 0.37 / omega)
    assert abs(first_passage_time(rho, gen, target) - 0.37 / omega) < 1e-10


def test_first_passage_inside_first_step():
    # t = 0.002 lies inside the first scan step (2 pi / 999); the earliest
    # crossing below tol is tol / ||d rho / dt|| = 7e-10 before it
    rho = bloch_to_state([1, 0, 0])
    H = bloch_hamiltonian([0, 0, 1])
    target = evolve_unitary(rho, H, 0.002)
    assert abs(first_passage_time(rho, H, target) - 0.002) < 1e-9


def test_first_passage_node_cap():
    rho = bloch_to_state([1, 0, 0])
    H = bloch_hamiltonian([0, 0, 1], omega=1e5)
    with pytest.raises(BadGrid):
        first_passage_time(rho, H, rho_target=evolve_unitary(rho, H, 1e-5))


def test_evolution_path_trace_and_tags():
    rho = random_state(2, 2, 12)
    H = random_observable(2, 13)
    path = orbit(rho, H, np.linspace(0, 2, 9))
    for s in path.states:
        assert abs(np.trace(s).real - 1.0) < 1e-10


def test_sqrt_evolution_diagnostic():
    grid = np.linspace(0.1, 1.5, 6)
    rho = random_state(2, 2, 14)
    H = random_observable(2, 15)
    unitary_L = LindbladModel(H, (SIGMA_MINUS,), np.array([[0.0]]))
    rep = sqrt_evolution_diagnostic(rho, unitary_L, grid)
    assert rep["max_deviation"] < 1e-6  # exactly valid for unitary conjugation

    dephase = LindbladModel(None, (PAULI_Z / np.sqrt(2),), np.array([[0.5]]))
    diag = QuantumState(np.diag([0.7, 0.3]))
    rep = sqrt_evolution_diagnostic(diag, dephase, grid)
    assert rep["max_deviation"] < 1e-6  # commuting structure

    damp = LindbladModel(None, (SIGMA_MINUS,), np.array([[0.8]]))
    rep = sqrt_evolution_diagnostic(random_state(2, 2, 16), damp, grid)
    assert rep["max_deviation"] > 1e-3  # the square-root evolution law fails here


def test_sqrt_evolution_diagnostic_generic_state_under_dephasing():
    # dephasing leaves only a state diagonal in its basis on the law: a
    # generic qubit deviates, by the exact velocity and by a central difference
    L, _ = squeezed_vacuum_model(0.0, 0.4, 0.0)
    rho = bloch_to_state([0.3, 0.2, 0.5])
    rep = sqrt_evolution_diagnostic(rho, L, [0.0, 1.0])
    assert abs(rep["deviations"][0] - 0.0185) < 2e-4
    h = 1e-5
    roots = LindbladPropagator(L).trajectory(rho, [1.0 - h, 1.0 + h]).roots
    fd = (roots[1] - roots[0]) / (2 * h) - L.apply(evolve_lindblad(rho, L, 1.0).sqrt())
    assert abs(rep["deviations"][1] - np.linalg.norm(fd)) < 1e-8


def test_sqrt_evolution_diagnostic_singular_velocity():
    # the excited state decays: sqrt(rho_t) moves like sqrt(t) at t = 0
    L = LindbladModel(None, (SIGMA_MINUS,), np.array([[0.8]]))
    rep = sqrt_evolution_diagnostic(bloch_to_state([0, 0, -1]), L, [0.0, 0.5])
    assert rep["deviations"][0] == np.inf and np.isfinite(rep["deviations"][1])
