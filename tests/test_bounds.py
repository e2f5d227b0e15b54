import mpmath
import numpy as np
import pytest

from qsl_lab.bounds import (
    DEFAULT_ALPHA_GRID,
    alpha_bound,
    alpha_bound_max,
    bargmann_angle,
    bound_report,
    campo_bound,
    campo_chain,
    campo_markovian_bound,
    elimination_inequality_check,
    markovian_bound,
    mixing_inequality_check,
    mt_fidelity_bound,
    qfi_bound,
    system_environment_bound,
    tl_bound,
    u_quantity,
)
from qsl_lab.coherence import affinity, sld_qfi, uhlmann_fidelity, variance, wy_coherence
from qsl_lab.dynamics import LindbladModel, evolve_unitary, squeezed_vacuum_model
from qsl_lab.errors import BadAlpha, BadGrid, FrozenState
from qsl_lab.operator_core import (
    PAULI_X,
    PAULI_Z,
    SIGMA_MINUS,
    Observable,
    QuantumState,
    bloch_hamiltonian,
    bloch_to_state,
    random_observable,
    random_state,
    tensor,
    unitary_of,
)

CASE3_R2 = [-4 * np.sqrt(3) / 15, np.sqrt(2) / 15, -1 / 6]
CASE3_N = [1 / np.sqrt(2), 1 / np.sqrt(3), -1 / np.sqrt(6)]


def case3():
    return (bloch_to_state([0, 0, 0.5]), bloch_hamiltonian(CASE3_N),
            bloch_to_state(CASE3_R2))


def test_bargmann_angle():
    rho = random_state(2, 2, 1)
    assert bargmann_angle(rho, rho) < 1e-7
    up, down = bloch_to_state([0, 0, 1]), bloch_to_state([0, 0, -1])
    assert abs(bargmann_angle(up, down) - np.pi / 2) < 1e-10
    rho1, _, rho2 = case3()
    assert abs(bargmann_angle(rho1, rho2) - np.arccos(0.9107)) < 5e-4


def test_tl_bound_case1():
    rho1 = bloch_to_state([1, 0, 0])
    H = bloch_hamiltonian([0, 0, 1])
    rho2 = evolve_unitary(rho1, H, np.pi / 2)
    assert abs(tl_bound(rho1, H, rho2) - np.pi / (2 * np.sqrt(2))) < 1e-10


def test_tl_bound_case2():
    rho1 = bloch_to_state([1 / np.sqrt(2), 0, 1 / np.sqrt(2)])
    H = bloch_hamiltonian([0, 0, 1])
    rho2 = evolve_unitary(rho1, H, 3 * np.pi / 4)
    tl = tl_bound(rho1, H, rho2)
    assert abs(tl - np.arccos(0.75)) < 1e-7
    assert abs(tl - 0.72) < 5e-3


def test_tl_bound_case3():
    rho1, H, rho2 = case3()
    assert abs(tl_bound(rho1, H, rho2) - 0.90) < 0.01


def test_frozen_state_error():
    diag = QuantumState(np.diag([0.7, 0.3]))
    other = QuantumState(np.diag([0.3, 0.7]))
    with pytest.raises(FrozenState):
        tl_bound(diag, Observable(PAULI_Z), other)
    assert tl_bound(diag, Observable(PAULI_Z), diag) == 0.0


def test_alpha_bound_reduces_to_tl_at_one():
    for seed in range(25):
        rho1 = random_state(2, 2, seed)
        H = random_observable(2, seed + 300)
        rho2 = evolve_unitary(rho1, H, 0.9)
        assert abs(alpha_bound(rho1, H, rho2, 1.0) - tl_bound(rho1, H, rho2)) < 1e-10


def test_alpha_bound_pure_flat():
    rho1 = random_state(3, 1, 2)
    H = random_observable(3, 3)
    rho2 = evolve_unitary(rho1, H, 0.5)
    v1 = alpha_bound(rho1, H, rho2, 1.0)
    assert abs(alpha_bound(rho1, H, rho2, 2.0) - v1) < 1e-10
    a, v = alpha_bound_max(rho1, H, rho2)
    assert a == 0.25 and abs(v - v1) < 1e-10  # ties go to the smallest alpha
    with pytest.raises(BadAlpha):
        alpha_bound(rho1, H, rho2, -1.0)


def test_alpha_bound_max_brute_force():
    rho1, H, rho2 = case3()
    grid = np.arange(0.25, 4.0 + 1e-9, 0.05)
    a, v = alpha_bound_max(rho1, H, rho2, grid)
    vals = [alpha_bound(rho1, H, rho2, float(x)) for x in grid]
    assert abs(v - max(vals)) < 1e-12
    assert v >= alpha_bound(rho1, H, rho2, 1.0) - 1e-12


def _oracle_max(rho1, H, rho2):
    return max(alpha_bound(rho1, H, rho2, float(a)) for a in DEFAULT_ALPHA_GRID)


def _oracle_tol(rho1, rho2):
    # a roundoff delta in the overlap (the eigendecompositions of rho1 and
    # rho2 carry it) moves a small angle theta by about delta / theta^2
    # relative, in the matrix oracle and in the grid kernel alike; delta =
    # 1e-13 is some 450 ulp, against at most ~40 ulp measured for d = 2-6
    theta = bargmann_angle(rho1, rho2)
    return 1e-10 + 1e-13 / max(theta, 1e-12) ** 2


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_alpha_bound_max_matches_single_alpha_oracle(dim):
    for rank in sorted({1, (dim + 1) // 2, dim}):
        for seed in range(4):
            rho1 = random_state(dim, rank, 1000 * dim + 10 * rank + seed)
            H = random_observable(dim, 2000 * dim + 10 * rank + seed)
            for t in (1e-3, 0.4, 2.1):
                rho2 = evolve_unitary(rho1, H, t)
                _, v = alpha_bound_max(rho1, H, rho2)
                want = _oracle_max(rho1, H, rho2)
                assert abs(v - want) <= _oracle_tol(rho1, rho2) * want


def test_alpha_bound_max_degenerate_spectrum():
    rho1 = QuantumState(np.diag([0.5, 0.5, 0.0]))
    for seed in range(5):
        H = random_observable(3, 60 + seed)
        for t in (1e-3, 0.5, 2.0):
            rho2 = evolve_unitary(rho1, H, t)
            _, v = alpha_bound_max(rho1, H, rho2)
            want = _oracle_max(rho1, H, rho2)
            assert abs(v - want) <= _oracle_tol(rho1, rho2) * want


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_alpha_bound_max_pure_states_take_smallest_alpha(dim):
    # rho^{a/2} = rho for a pure state, so every alpha gives the same bound
    for seed in range(10):
        rho1 = random_state(dim, 1, 3000 * dim + seed)
        H = random_observable(dim, 4000 * dim + seed)
        for t in (1e-3, 0.3, 1.7):
            rho2 = evolve_unitary(rho1, H, t)
            a, v = alpha_bound_max(rho1, H, rho2)
            assert a == 0.25
            want = alpha_bound(rho1, H, rho2, 1.0)
            assert abs(v - want) <= _oracle_tol(rho1, rho2) * want


def test_alpha_bound_max_frozen_state_parity():
    # H diagonal in rho1's eigenbasis commutes with every rho1^{a/2}
    R = unitary_of(random_observable(3, 70), 0.9)
    rho1 = QuantumState(R @ np.diag([0.6, 0.3, 0.1]) @ R.conj().T)
    rho2 = QuantumState(R @ np.diag([0.1, 0.3, 0.6]) @ R.conj().T)
    H = Observable(R @ np.diag([1.0, -0.5, 2.0]) @ R.conj().T)
    for a in (0.5, 1.0, 3.0):
        with pytest.raises(FrozenState):
            alpha_bound(rho1, H, rho2, a)
    with pytest.raises(FrozenState):
        alpha_bound_max(rho1, H, rho2)
    assert alpha_bound(rho1, H, rho1, 1.0) == 0.0
    assert alpha_bound_max(rho1, H, rho1) == (0.25, 0.0)


@pytest.mark.parametrize("grid", [[np.nan], [np.inf], [0.5, -np.inf], [[0.5, 1.0]],
                                  [], [0.5, 0.0], ["x"]])
def test_bad_alpha_grid_rejected(grid):
    rho1, H, rho2 = case3()
    with pytest.raises(BadAlpha):
        alpha_bound_max(rho1, H, rho2, grid)
    with pytest.raises(BadAlpha):
        bound_report(rho1, H, rho2, alpha_grid=grid)


@pytest.mark.parametrize("alpha", [np.nan, np.inf, -np.inf, 0.0, -1.0, [1.0], "x"])
def test_bad_alpha_rejected(alpha):
    rho1, H, rho2 = case3()
    with pytest.raises(BadAlpha):
        alpha_bound(rho1, H, rho2, alpha)


def test_mt_and_qfi_bounds():
    rho = random_state(2, 2, 4)
    H = random_observable(2, 5)
    assert mt_fidelity_bound(rho, H, rho) == 0.0
    assert qfi_bound(rho, H, rho) == 0.0
    # pure states: F_Q = 4 (dH)^2, so the coefficient-2 form equals the
    # fidelity bound ...
    pure = random_state(2, 1, 6)
    target = evolve_unitary(pure, H, 0.8)
    mt = mt_fidelity_bound(pure, H, target)
    qfi = qfi_bound(pure, H, target)
    assert abs(qfi - mt) < 1e-10
    # ... and F_Q <= 4 (dH)^2 keeps it at or above it on mixed states
    target = evolve_unitary(rho, H, 0.8)
    assert qfi_bound(rho, H, target) >= mt_fidelity_bound(rho, H, target) - 1e-12


def test_campo_chain_and_bound():
    rho1, H, rho2 = case3()
    assert campo_bound(rho1, H, rho1) == 0.0
    for seed in range(30):
        r1 = random_state(2, 2, seed)
        Hr = random_observable(2, seed + 900)
        r2 = evolve_unitary(r1, Hr, 0.6)
        ch = campo_chain(r1, Hr, r2)
        assert ch["sqrtN_over_D"] >= ch["two_over_pi"] - 1e-12
        assert ch["two_over_pi"] >= ch["final"] - 1e-12
        assert abs(ch["final"] - campo_bound(r1, Hr, r2)) < 1e-15


def test_u_quantity_collapse():
    for seed in range(25):
        rho1 = random_state(2, 2, seed)
        H = random_observable(2, seed + 600)
        rho2 = evolve_unitary(rho1, H, 1.1)
        u = u_quantity(rho1, H, rho2)
        assert abs(u - bargmann_angle(rho1, rho2) / np.sqrt(2)) < 1e-10
    up, down = bloch_to_state([0, 0, 1]), bloch_to_state([0, 0, -1])
    assert abs(u_quantity(up, Observable(PAULI_X), down) - np.pi / (2 * np.sqrt(2))) < 1e-10


def test_mixing_inequality_endpoints_and_random():
    rho1 = random_state(2, 2, 7)
    sig1 = random_state(2, 2, 8)
    H = random_observable(2, 9)
    for p in (0.0, 1.0):
        lhs, rhs, ok = mixing_inequality_check(rho1, sig1, p, H, 0.9)
        assert ok and abs(lhs - rhs) < 1e-10
    for seed in range(50):
        d = 2 if seed % 2 else 3
        lhs, rhs, ok = mixing_inequality_check(
            random_state(d, d, seed), random_state(d, d, seed + 5000),
            (seed % 10) / 10.0, random_observable(d, seed + 7000),
            0.1 + 0.05 * seed)
        assert ok


def test_elimination_inequality():
    rho_a = random_state(2, 2, 10)
    rho_b = random_state(2, 1, 11)
    joint = QuantumState(tensor(rho_a.matrix, rho_b.matrix))
    H_a = random_observable(2, 12)
    H_b = Observable(np.zeros((2, 2)))
    lhs, rhs, ok = elimination_inequality_check(joint, H_a, H_b, 0.7)
    assert ok and abs(lhs - rhs) < 1e-9  # inert factor b
    for seed in range(40):
        lhs, rhs, ok = elimination_inequality_check(
            random_state(4, 4, seed), random_observable(2, seed + 1),
            random_observable(2, seed + 2), 0.7)
        assert ok


def test_system_environment_bound():
    rho_s = random_state(2, 2, 13)
    gamma = random_state(2, 2, 14)
    H_s = random_observable(2, 15)
    H_se = Observable(tensor(H_s.matrix, np.eye(2)))
    joint = QuantumState(tensor(rho_s.matrix, gamma.matrix))
    tau = 0.8
    U_target = evolve_unitary(joint, H_se, tau)
    from qsl_lab.operator_core import partial_trace
    rho_tau = partial_trace(U_target, (2, 2), "a")
    # decoupled environment reduces to the plain bound
    direct = tl_bound(rho_s, H_s, evolve_unitary(rho_s, H_s, tau))
    assert abs(system_environment_bound(rho_s, gamma, H_se, rho_tau) - direct) < 1e-8
    # generic coupling: bound stays below the actual time
    H_full = random_observable(4, 16)
    rho_tau2 = partial_trace(evolve_unitary(joint, H_full, tau), (2, 2), "a")
    assert system_environment_bound(rho_s, gamma, H_full, rho_tau2) <= tau + 1e-8
    diag = system_environment_bound(rho_s, gamma, H_full, rho_tau2, diagnostics=True)
    assert {"bound", "two_q_se", "two_q_local"} <= set(diag)


def test_markovian_bound_hamiltonian_reduction():
    rho1 = bloch_to_state([0, 0, 0.5])
    H = bloch_hamiltonian(CASE3_N)
    L = LindbladModel(H, (SIGMA_MINUS,), np.array([[0.0]]))
    tau = 1.1071487177940904
    got = markovian_bound(rho1, L, tau)
    want = tl_bound(rho1, H, evolve_unitary(rho1, H, tau))
    assert abs(got - want) < 1e-6


def test_markovian_bound_hamiltonian_only_generator():
    # an empty jump set is a purely Hamiltonian generator
    rho1 = bloch_to_state([0, 0, 0.5])
    H = bloch_hamiltonian(CASE3_N)
    tau = 1.1071487177940904
    got = markovian_bound(rho1, LindbladModel(H, (), np.zeros((0, 0))), tau)
    assert abs(got - tl_bound(rho1, H, evolve_unitary(rho1, H, tau))) < 1e-6


def test_markovian_bound_pure_state_converges():
    # from a pure rho0, sqrt(rho_t) moves like sqrt(t); the graded grid
    # keeps the extrapolated path length converged (uniform grid: 1.95084
    # at 201 nodes against 1.95082 at 801)
    L, _ = squeezed_vacuum_model(0.6, 0.5, 0.1, rabi=0.7)
    rho0 = bloch_to_state([0, 0, 1])
    b201 = markovian_bound(rho0, L, 2.0, n_nodes=201)
    b801 = markovian_bound(rho0, L, 2.0, n_nodes=801)
    assert abs(b201 - b801) <= 1e-9 * b801
    assert abs(b801 - 1.9508121) < 1e-7


def test_markovian_bound_fixed_point():
    L, _ = squeezed_vacuum_model(0.5, 0.4, 0.1)
    assert markovian_bound(QuantumState(np.eye(2) / 2), L, 1.0) == 0.0


def test_markovian_bound_known_invalid():
    # amplitude damping, where d sqrt(rho_t)/dt != L sqrt(rho_t): the bound
    # stays <= tau, and since the path of sqrt(rho_t) is a great circle (its
    # length is the endpoint angle) it is tight
    L, _ = squeezed_vacuum_model(0.0, 0.45, 0.45)
    rho0 = bloch_to_state([1, 0, 0])
    bound = markovian_bound(rho0, L, 1.0)
    assert bound <= 1.0 + 1e-9
    assert abs(bound - 1.0) < 1e-6


def test_markovian_bound_below_tau_random_models():
    # dissipative and driven CP models, mixed and pure initial states
    rng = np.random.default_rng(31)
    for i in range(12):
        r1 = rng.uniform(0.1, 1.0)
        r2 = r1 / 2 + rng.uniform(0.0, 0.5)
        r3 = rng.uniform(0.0, 0.5) * r1
        L, _ = squeezed_vacuum_model(r1, r2, r3, rabi=float(rng.uniform(0, 1)) * (i % 2))
        r = rng.normal(size=3)
        r *= (1.0 if i % 3 == 0 else rng.uniform(0.2, 1)) / np.linalg.norm(r)
        tau = float(rng.uniform(0.1, 5))
        assert 0.0 < markovian_bound(bloch_to_state(r), L, tau, n_nodes=51) <= tau + 1e-9


def test_campo_markovian_bound_valid():
    L, _ = squeezed_vacuum_model(0.0, 0.45, 0.45)
    rho0 = bloch_to_state([1, 0, 0])
    for tau in (0.5, 1.0, 3.0):
        assert campo_markovian_bound(rho0, L, tau) <= tau + 1e-8


def test_campo_markovian_bound_matches_apply_oracle():
    # the batched ||S vec rho_t|| average against the term-by-term generator on each node
    from qsl_lab.bounds import _panel_quadrature
    from qsl_lab.coherence import relative_purity
    from qsl_lab.dynamics import LindbladPropagator
    from test_dynamics import _apply_oracle
    L, _ = squeezed_vacuum_model(0.4, 0.5, 0.1, w_eq=0.2, rabi=0.6)
    prop = LindbladPropagator(L)
    rho0 = bloch_to_state([0.3, -0.5, 0.6])
    tau = 2.3
    ts, weights = _panel_quadrature(tau, prop.max_frequency)
    vals = [np.linalg.norm(_apply_oracle(L, prop(rho0, t).matrix)) for t in ts]
    f = relative_purity(rho0, prop(rho0, tau))
    want = abs(1 - f) * np.sqrt(rho0.purity()) / (np.dot(weights, vals) / tau)
    assert abs(campo_markovian_bound(rho0, L, tau) - want) <= 1e-13 * want


def _campo_simpson(rho0, L, tau, n):
    """campo_markovian_bound with its average taken by n-node composite Simpson."""
    from scipy.integrate import simpson
    from qsl_lab.coherence import relative_purity
    ts = np.linspace(0.0, tau, n)
    traj = L._propagator.trajectory(rho0, ts)
    vals = np.linalg.norm(traj.states.reshape(n, -1) @ L.S.T, axis=1)
    f = relative_purity(rho0, traj._state(-1))
    return abs(1 - f) * np.sqrt(rho0.purity()) / (simpson(vals, x=ts) / tau)


@pytest.mark.parametrize("case", ["random_d3", "squeezed_rabi60", "rank1_d3"])
def test_campo_markovian_bound_converges(case):
    # against a 40,001-node Simpson reference, and never farther from it than
    # the former 201-node Simpson rule (3.1e-4 off on random_d3)
    from test_dynamics import _random_model
    if case == "random_d3":
        L, rho0, tau = _random_model(3, 102), random_state(3, 3, 202), 3.0
    elif case == "squeezed_rabi60":  # 48 periods of the drive in [0, tau]
        L, rho0, tau = squeezed_vacuum_model(5, 4, 1, rabi=60)[0], bloch_to_state(
            [0.3, -0.5, 0.6]), 5.0
    else:
        L, rho0, tau = _random_model(3, 102), random_state(3, 1, 203), 3.0
    want = _campo_simpson(rho0, L, tau, 40001)
    err = abs(campo_markovian_bound(rho0, L, tau) - want)
    assert err <= 1e-8 * want
    assert err <= abs(_campo_simpson(rho0, L, tau, 201) - want)


def test_campo_markovian_bound_node_cap():
    L = LindbladModel(Observable(1e5 * PAULI_Z), (SIGMA_MINUS,), np.array([[0.1]]))
    with pytest.raises(BadGrid):
        campo_markovian_bound(bloch_to_state([1, 0, 0]), L, 100.0)


def test_bound_report_fields_and_digest():
    rho1, H, rho2 = case3()
    rep = bound_report(rho1, H, rho2, actual_time=1.1071487177940904)
    again = bound_report(rho1, H, rho2)
    assert rep.inputs_digest == again.inputs_digest
    d = rep.as_dict()
    assert d["tl"] == rep.tl and d["actual_time"] is not None
    assert rep.tl <= rep.actual_time + 1e-8
    assert rep.tl_alpha_max[1] >= rep.tl_alpha2 - 1e-12


def test_alpha_bound_max_flat_curve_takes_smallest_alpha():
    # a spectrum uniform on its support gives an alpha curve that is flat by
    # theory; roundoff alone must not pick its alpha
    rho1 = QuantumState(np.diag([0.5, 0.5, 0.0]))
    H = random_observable(3, 5)
    rho2 = evolve_unitary(rho1, H, 1e-3)
    a, v = alpha_bound_max(rho1, H, rho2)
    assert a == 0.25 and bound_report(rho1, H, rho2).tl_alpha_max == (a, v)
    assert abs(v - _oracle_alpha(rho1, H, rho2, 1.0)) <= _oracle_tol(rho1, rho2) * v


# Matrix forms of the unitary bounds, each built from its own matrix products
# and an acos, as oracles for the one-pass spectral kernel. The Bures angle is
# acos of the nuclear norm ||sqrt(rho1) sqrt(rho2)||_1: the eigenvalues of
# sqrt(rho1) rho2 sqrt(rho1) would add square-rooted roundoff.

def _acos(x):
    return float(np.arccos(np.clip(x, -1.0, 1.0)))


def _oracle_quotient(angle, speed_sq, scale):
    return 0.0 if angle <= 1e-12 else scale * angle / np.sqrt(speed_sq)


def _oracle_alpha(rho1, H, rho2, alpha):
    half1, half2 = rho1.power(alpha / 2.0), rho2.power(alpha / 2.0)
    tr_a = np.trace(half1 @ half1).real
    c = half1 @ H.matrix - H.matrix @ half1
    return _oracle_quotient(_acos(abs(np.trace(half1 @ half2)) / tr_a),
                            -np.trace(c @ c).real, H.hbar * np.sqrt(tr_a))


def _oracle_tl(rho1, H, rho2):
    return _oracle_quotient(_acos(affinity(rho1, rho2)), wy_coherence(rho1, H),
                            H.hbar / np.sqrt(2.0))


def _oracle_bures(rho1, rho2):
    return _acos(np.linalg.svd(rho1.sqrt() @ rho2.sqrt(), compute_uv=False).sum())


def _oracle_campo(rho1, H, rho2):
    p2 = rho1.purity()
    N = _acos(np.trace(rho1.matrix @ rho2.matrix).real / p2) ** 2 * p2
    c = rho1.matrix @ H.matrix - H.matrix @ rho1.matrix
    return 0.0 if N <= 1e-24 else 4.0 * H.hbar * N / (np.pi**2 * np.sqrt(-np.trace(c @ c).real))


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_unitary_bounds_match_matrix_oracles(dim):
    for rank in sorted({1, (dim + 1) // 2, dim}):
        for seed in range(3):
            rho1 = random_state(dim, rank, 5000 * dim + 10 * rank + seed)
            H = random_observable(dim, 6000 * dim + 10 * rank + seed)
            for t in (1e-3, 0.4, 2.1):
                rho2 = evolve_unitary(rho1, H, t)
                bures = _oracle_bures(rho1, rho2)
                want = {
                    "tl": _oracle_tl(rho1, H, rho2),
                    "mt_fidelity": _oracle_quotient(bures, variance(rho1, H), H.hbar),
                    "qfi": _oracle_quotient(bures, sld_qfi(rho1, H), 2.0 * H.hbar),
                    "campo": _oracle_campo(rho1, H, rho2),
                    "tl_alpha2": _oracle_alpha(rho1, H, rho2, 2.0),
                    "tl_alpha_max": max(_oracle_alpha(rho1, H, rho2, float(a))
                                        for a in DEFAULT_ALPHA_GRID),
                }
                got = bound_report(rho1, H, rho2).as_dict()
                single = {"tl": tl_bound(rho1, H, rho2),
                          "mt_fidelity": mt_fidelity_bound(rho1, H, rho2),
                          "qfi": qfi_bound(rho1, H, rho2),
                          "campo": campo_bound(rho1, H, rho2),
                          "tl_alpha2": alpha_bound(rho1, H, rho2, 2.0),
                          "tl_alpha_max": alpha_bound_max(rho1, H, rho2)[1]}
                tol = _oracle_tol(rho1, rho2)
                for key, w in want.items():
                    assert abs(got[key] - w) <= tol * w, (key, got[key], w)
                    assert abs(single[key] - w) <= tol * w, (key, single[key], w)
                for a in (0.5, 3.5):
                    w = _oracle_alpha(rho1, H, rho2, a)
                    assert abs(alpha_bound(rho1, H, rho2, a) - w) <= tol * w


def _mp_pure_angles(rho1, H, t):
    """(acos|<psi|phi>|, acos|<psi|phi>|^2) at 40 digits, for rho1 = |psi><psi|
    and phi = exp(iHt) psi: the Bures and the Bargmann angle of the pair."""
    with mpmath.workdps(40):
        psi = mpmath.matrix(rho1.eigenvectors[:, 0].tolist())
        psi /= mpmath.norm(psi)
        U = mpmath.expm(1j * t / H.hbar * mpmath.matrix(H.matrix.tolist()))
        ov = abs((psi.H * U * psi)[0])
        return mpmath.acos(ov), mpmath.acos(ov**2)


def test_small_angles_match_mpmath_oracle():
    # rank-1 pairs down to angles ~1e-3, where acos of a fidelity or an
    # affinity near 1 loses digits
    rng = np.random.default_rng(17)
    for dim in (2, 3, 4, 5, 6):
        for seed in range(8):
            rho1 = random_state(dim, 1, 9000 * dim + seed)
            H = random_observable(dim, 9100 * dim + seed)
            t = float(10.0 ** rng.uniform(-3.0, 0.0))
            rho2 = evolve_unitary(rho1, H, t)
            bures, bargmann = _mp_pure_angles(rho1, H, t)
            got_bures = np.arccos(uhlmann_fidelity(rho1, rho2))
            assert abs(got_bures - bures) <= 1e-9 * bures
            assert abs(bargmann_angle(rho1, rho2) - bargmann) <= 1e-9 * bargmann
