import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsl_lab.errors import (
    BadRank,
    BlochNormExceeded,
    DimMismatch,
    NegativeEigenvalue,
    NonHermitian,
)
from qsl_lab.operator_core import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    Observable,
    QuantumState,
    bloch_hamiltonian,
    bloch_to_state,
    commutator,
    hermitian_eig,
    partial_trace,
    random_state,
    state_to_bloch,
    tensor,
    unitary_of,
)


def test_hermitian_eig_isotropic():
    w, V = hermitian_eig(np.eye(2) / 2)
    assert np.allclose(w, [0.5, 0.5])
    assert np.allclose(V.conj().T @ V, np.eye(2), atol=1e-10)


def test_hermitian_eig_sigma_z():
    w, V = hermitian_eig(PAULI_Z)
    assert np.allclose(w, [1.0, -1.0])
    assert np.allclose(np.abs(V), np.eye(2), atol=1e-12)


def test_hermitian_eig_2x2_closed_form():
    # characteristic polynomial of [[0.9, 0.05], [0.05, 0.1]]
    M = np.array([[0.9, 0.05], [0.05, 0.1]])
    tr, det = 1.0, 0.9 * 0.1 - 0.05**2
    disc = np.sqrt(tr**2 - 4 * det)
    expected = np.array([(tr + disc) / 2, (tr - disc) / 2])
    w, V = hermitian_eig(M)
    assert np.allclose(w, expected, atol=1e-12)
    assert np.linalg.norm((V * w) @ V.conj().T - M) < 1e-10


def test_hermitian_eig_rejects_nonhermitian():
    with pytest.raises(NonHermitian):
        hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))


def test_psd_sqrt_projector_and_maximally_mixed():
    psi = np.array([1.0, 1j]) / np.sqrt(2)
    proj = np.outer(psi, psi.conj())
    assert np.allclose(QuantumState(proj).sqrt(), proj, atol=1e-10)
    assert np.allclose(QuantumState(np.eye(2) / 2).sqrt(), np.eye(2) / np.sqrt(2), atol=1e-12)


def test_psd_sqrt_diagonal():
    s = QuantumState(np.diag([0.9, 0.1])).sqrt()
    assert np.allclose(np.diag(s), [np.sqrt(0.9), np.sqrt(0.1)], atol=1e-12)


def test_unitary_of_conventions():
    H = Observable(PAULI_Z)
    assert np.allclose(unitary_of(H, 0.0), np.eye(2), atol=1e-12)
    U = unitary_of(H, np.pi / 2)
    assert np.allclose(U, np.diag([np.exp(1j * np.pi / 2), np.exp(-1j * np.pi / 2)]),
                       atol=1e-12)


def test_unitary_of_with_phase_offset():
    # H = omega (n.sigma + alpha I), n = z, alpha = omega = t = 1
    H = bloch_hamiltonian([0, 0, 1], omega=1.0, alpha_phase=1.0)
    U = unitary_of(H, 1.0)
    expected = np.exp(1j) * np.diag([np.exp(1j), np.exp(-1j)])
    assert np.allclose(U, expected, atol=1e-10)


def test_unitary_group_property():
    H = Observable(PAULI_X + 0.3 * PAULI_Z)
    assert np.allclose(unitary_of(H, 0.4) @ unitary_of(H, 0.9),
                       unitary_of(H, 1.3), atol=1e-10)


def test_commutator_pauli_algebra():
    assert np.allclose(commutator(PAULI_X, PAULI_X), 0)
    assert np.allclose(commutator(PAULI_X, PAULI_Y), 2j * PAULI_Z)
    got = commutator(np.diag([1, 2]), np.array([[0, 1], [1, 0]]))
    assert np.allclose(got, np.array([[0, -1], [1, 0]]))


def test_commutator_dim_mismatch():
    with pytest.raises(DimMismatch):
        commutator(np.eye(2), np.eye(3))


def test_partial_trace_product_and_entangled():
    rho = random_state(2, 2, 11)
    sig = random_state(2, 1, 12)
    joint = QuantumState(tensor(rho.matrix, sig.matrix))
    assert np.allclose(partial_trace(joint, (2, 2), "a").matrix, rho.matrix, atol=1e-12)
    assert np.allclose(partial_trace(joint, (2, 2), "b").matrix, sig.matrix, atol=1e-12)
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    ent = QuantumState(np.outer(bell, bell.conj()))
    assert np.allclose(partial_trace(ent, (2, 2), "a").matrix, np.eye(2) / 2, atol=1e-12)


def test_partial_trace_contraction_oracle():
    rho = random_state(4, 4, 13)
    T = rho.matrix.reshape(2, 2, 2, 2)
    oracle = np.zeros((2, 2), dtype=complex)
    for j in range(2):
        for l in range(2):
            for i in range(2):
                oracle[j, l] += T[i, j, i, l]
    assert np.allclose(partial_trace(rho, (2, 2), "b").matrix, oracle, atol=1e-12)


def test_random_state_rank_and_determinism():
    pure = random_state(2, 1, 7)
    assert abs(pure.purity() - 1.0) < 1e-10
    mixed = random_state(2, 2, 7)
    assert mixed.purity() < 1.0
    again = random_state(2, 2, 7)
    assert np.array_equal(mixed.matrix, again.matrix)
    with pytest.raises(BadRank):
        random_state(2, 3, 7)


def test_bloch_round_trip():
    for r in ([0, 0, 0], [0, 0, 1], [0, 0, 0.5], [0.3, -0.4, 0.2]):
        rho = bloch_to_state(r)
        assert np.allclose(state_to_bloch(rho.matrix), r, atol=1e-12)
    assert np.allclose(bloch_to_state([0, 0, 0]).matrix, np.eye(2) / 2)
    assert np.allclose(bloch_to_state([0, 0, 1]).matrix, np.diag([1.0, 0.0]), atol=1e-12)
    assert np.allclose(sorted(bloch_to_state([0, 0, 0.5]).eigenvalues), [0.25, 0.75])


def test_bloch_norm_guard():
    with pytest.raises(BlochNormExceeded):
        bloch_to_state([1.2, 0, 0])


def test_state_rejects_bad_inputs():
    with pytest.raises(NonHermitian):
        QuantumState(np.array([[0.5, 0.1], [0.3, 0.5]]))
    with pytest.raises(NegativeEigenvalue):
        QuantumState(np.diag([1.2, -0.2]))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=4))
def test_sqrt_square_and_covariance(seed, dim):
    rho = random_state(dim, dim, seed)
    s = rho.sqrt()
    assert np.linalg.norm(s @ s - rho.matrix) < 1e-10
    U = unitary_of(Observable(random_state(dim, dim, seed + 1).matrix), 0.7)
    rotated = QuantumState(U @ rho.matrix @ U.conj().T)
    assert np.linalg.norm(rotated.sqrt() - U @ s @ U.conj().T) < 1e-10


@pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
def test_rank_one_state_spectrum_is_exact(dim):
    # eigenvalues at roundoff level are cut to 0 before renormalising, so a
    # pure state's spectrum is exactly (1, 0, ...) and sqrt(rho) is rho
    for seed in range(10):
        rho = random_state(dim, 1, 500 * dim + seed)
        assert rho.eigenvalues.tolist() == [1.0] + [0.0] * (dim - 1)
        assert np.array_equal(rho.sqrt(), rho.matrix)
