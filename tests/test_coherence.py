import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsl_lab.coherence import (
    affinity,
    lindblad_coherence,
    relative_purity,
    sld_qfi,
    uhlmann_fidelity,
    variance,
    wy_coherence,
)
from qsl_lab.dynamics import squeezed_vacuum_model
from qsl_lab.errors import DimMismatch
from qsl_lab.operator_core import (
    PAULI_X,
    PAULI_Z,
    Observable,
    QuantumState,
    bloch_hamiltonian,
    bloch_to_state,
    random_observable,
    random_state,
    unitary_of,
)

PLUS = QuantumState(np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex))


def test_wy_coherence_commuting_is_zero():
    assert wy_coherence(PLUS, Observable(PAULI_X)) < 1e-14


def test_wy_coherence_pure_equals_variance():
    H = Observable(PAULI_Z)
    assert abs(wy_coherence(PLUS, H) - 1.0) < 1e-12
    assert abs(variance(PLUS, H) - 1.0) < 1e-12


def test_wy_coherence_bloch_closed_form():
    # Q = omega^2 (1 - sqrt(m)) |r_hat x n_hat|^2 for a qubit
    rho = bloch_to_state([0, 0, 0.5])
    n = np.array([1 / np.sqrt(2), 1 / np.sqrt(3), -1 / np.sqrt(6)])
    H = bloch_hamiltonian(n)
    m = 1 - 0.25
    cross = np.cross([0, 0, 1.0], n)
    expected = (1 - np.sqrt(m)) * cross @ cross
    assert abs(expected - (1 - np.sqrt(0.75)) * 5 / 6) < 1e-12
    assert abs(wy_coherence(rho, H) - expected) < 1e-10


def test_affinity_basics():
    rho = random_state(3, 3, 5)
    assert abs(affinity(rho, rho) - 1.0) < 1e-10
    up = bloch_to_state([0, 0, 1])
    down = bloch_to_state([0, 0, -1])
    assert affinity(up, down) < 1e-12
    with pytest.raises(DimMismatch):
        affinity(rho, up)


def test_affinity_case3_closed_form():
    rho1 = bloch_to_state([0, 0, 0.5])
    r2 = np.array([-4 * np.sqrt(3) / 15, np.sqrt(2) / 15, -1 / 6])
    rho2 = bloch_to_state(r2)
    m = 0.75
    rhat_dot = r2[2] / np.linalg.norm(r2)
    expected = 0.5 * (rhat_dot * (1 - np.sqrt(m)) + 1 + np.sqrt(m))
    assert abs(affinity(rho1, rho2) - expected) < 1e-10
    assert abs(expected - 0.9107) < 5e-4


def test_uhlmann_fidelity_2x2_closed_form():
    for seed in range(20):
        rho1 = random_state(2, 2, seed)
        rho2 = random_state(2, 2, seed + 100)
        closed = np.sqrt(np.trace(rho1.matrix @ rho2.matrix).real
                         + 2 * np.sqrt(np.linalg.det(rho1.matrix).real
                                       * np.linalg.det(rho2.matrix).real))
        assert abs(uhlmann_fidelity(rho1, rho2) - closed) < 1e-10


def test_fidelity_dominates_affinity():
    for seed in range(50):
        r1 = random_state(3, 2, seed)
        r2 = random_state(3, 3, seed + 1000)
        assert affinity(r1, r2) <= uhlmann_fidelity(r1, r2) + 1e-10


def test_pure_pure_fidelity_is_overlap():
    a = random_state(2, 1, 3)
    b = random_state(2, 1, 4)
    overlap = np.sqrt(np.trace(a.matrix @ b.matrix).real)
    assert abs(uhlmann_fidelity(a, b) - overlap) < 1e-10


def test_relative_purity():
    rho = random_state(2, 2, 9)
    assert abs(relative_purity(rho, rho) - 1.0) < 1e-12
    up, down = bloch_to_state([0, 0, 1]), bloch_to_state([0, 0, -1])
    assert abs(relative_purity(up, down)) < 1e-12


def test_variance_cases():
    up = bloch_to_state([0, 0, 1])
    H = Observable(PAULI_Z)
    assert variance(up, H) < 1e-12
    assert abs(variance(QuantumState(np.eye(2) / 2), H) - 1.0) < 1e-12


def test_sld_qfi_pure_and_commuting():
    H = Observable(PAULI_Z)
    assert abs(sld_qfi(PLUS, H) - 4 * variance(PLUS, H)) < 1e-10
    diag = QuantumState(np.diag([0.7, 0.3]))
    assert sld_qfi(diag, H) < 1e-12


def test_sld_qfi_two_level_closed_form():
    # qubit: F_Q = sum over the 2x2 eigenbasis formula, cross-checked by hand
    for seed in range(20):
        rho = random_state(2, 2, seed + 40)
        H = random_observable(2, seed + 70)
        w = rho.eigenvalues
        Ht = rho.eigenvectors.conj().T @ H.matrix @ rho.eigenvectors
        manual = 2 * sum((w[j] - w[k]) ** 2 / (w[j] + w[k]) * abs(Ht[j, k]) ** 2
                         for j in range(2) for k in range(2) if w[j] + w[k] > 1e-12)
        assert abs(sld_qfi(rho, H) - manual) < 1e-10


def _sld_qfi_loop(rho, H):
    """Reference double loop over the eigenbasis, same support rule."""
    w, V = rho.eigenvalues, rho.eigenvectors
    Ht = V.conj().T @ H.matrix @ V
    total = 0.0
    for j in range(rho.dim):
        for k in range(rho.dim):
            s = w[j] + w[k]
            if s > 1e-12:
                total += 2.0 * (w[j] - w[k]) ** 2 / s * abs(Ht[j, k]) ** 2
    return max(total, 0.0)


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_sld_qfi_matches_double_loop(dim):
    # same terms, summed in another order: d^2 terms of a few ulp each
    for rank in range(1, dim + 1):
        for seed in range(4):
            rho = random_state(dim, rank, 500 * dim + 10 * rank + seed)
            H = random_observable(dim, 700 * dim + 10 * rank + seed)
            want = _sld_qfi_loop(rho, H)
            assert abs(sld_qfi(rho, H) - want) <= 1e-13 * want
    degenerate = QuantumState(np.diag([0.5, 0.5, 0.0]))
    H = random_observable(3, 11)
    assert abs(sld_qfi(degenerate, H) - _sld_qfi_loop(degenerate, H)) <= 1e-13


def test_unitary_invariance():
    rho = random_state(3, 3, 17)
    H = random_observable(3, 18)
    U = unitary_of(random_observable(3, 19), 0.83)
    rho_u = QuantumState(U @ rho.matrix @ U.conj().T)
    H_u = Observable(U @ H.matrix @ U.conj().T)
    assert abs(wy_coherence(rho, H) - wy_coherence(rho_u, H_u)) < 1e-10


def test_lindblad_coherence_hamiltonian_reduction():
    # purely Hamiltonian generator: Q(rho, L) = Q(rho, H) / hbar^2
    H = random_observable(2, 23)
    L, _ = squeezed_vacuum_model(0.0, 0.0, 0.0)
    L = type(L)(H, L.jump_ops, np.zeros((3, 3)), hbar=1.0)
    rho = random_state(2, 2, 24)
    assert abs(lindblad_coherence(rho, L) - wy_coherence(rho, H)) < 1e-10


def test_lindblad_coherence_fixed_point():
    L, basis = squeezed_vacuum_model(0.5, 0.4, 0.1)
    # stationary state is proportional to R0 (maximally mixed for w_eq = 0)
    rho = QuantumState(np.eye(2) / 2)
    assert np.abs(L.apply(rho.matrix)).max() < 1e-12
    assert lindblad_coherence(rho, L) < 1e-12


def test_lindblad_coherence_quadrature_oracle():
    # simple decay channel at t = 0: 2Q = lambda1^2 / 4 for r = (1, 0, 0)
    L, _ = squeezed_vacuum_model(0.0, 0.45, 0.45)
    rho0 = bloch_to_state([1.0, 0, 0])
    two_q = 2 * lindblad_coherence(rho0, L)
    lam1 = -0.9
    assert abs(two_q - (0.5 * lam1**2 - 0.25 * lam1**2)) < 1e-10


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=5000))
def test_affinity_monotone_under_partial_trace(seed):
    from qsl_lab.operator_core import partial_trace
    rho = random_state(4, 4, seed)
    sig = random_state(4, 3, seed + 9999)
    a_joint = affinity(rho, sig)
    a_red = affinity(partial_trace(rho, (2, 2), "a"), partial_trace(sig, (2, 2), "a"))
    assert a_red >= a_joint - 1e-10


def test_variance_qfi_coherence_chain():
    # dH >= sqrt(F_Q)/2 >= sqrt(Q) and Q <= dH^2, d = 2-6 at ranks 1, 2 and d
    for dim in range(2, 7):
        for rank in sorted({1, 2, dim}):
            for seed in range(10):
                base = 1000 * dim + 100 * rank + seed
                rho = random_state(dim, rank, base)
                H = random_observable(dim, base + 50)
                v, fq, q = variance(rho, H), sld_qfi(rho, H), wy_coherence(rho, H)
                assert np.sqrt(v) + 1e-10 >= np.sqrt(fq) / 2 >= np.sqrt(q) - 1e-10
                assert q <= v + 1e-10
