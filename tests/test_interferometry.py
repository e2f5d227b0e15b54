import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qsl_lab
from qsl_lab.bounds import tl_bound
from qsl_lab.dynamics import evolve_unitary
from qsl_lab.errors import BadN, DimMismatch, IllConditioned, ZeroShots
from qsl_lab.interferometry import (
    basis_alignment_search,
    eigs_from_power_sums,
    estimate_tl_from_protocol,
    power_sums,
    sample_swap_test,
    swap_test_probability,
)
from qsl_lab.operator_core import (
    QuantumState,
    bloch_hamiltonian,
    bloch_to_state,
    random_observable,
    random_state,
)

CASE3_RHO = bloch_to_state([0, 0, 0.5])
CASE3_H = bloch_hamiltonian([1 / np.sqrt(2), 1 / np.sqrt(3), -1 / np.sqrt(6)])
CASE3_T = np.arctan2(4 / 5, -3 / 5) / 2  # rotation 2a has cos = -3/5, sin = 4/5


def test_swap_probability_limits():
    up = bloch_to_state([0, 0, 1])
    down = bloch_to_state([0, 0, -1])
    assert abs(swap_test_probability(up, up) - 1.0) < 1e-12
    assert abs(swap_test_probability(up, down) - 0.5) < 1e-12
    mixed = QuantumState(np.eye(2) / 2)
    assert abs(swap_test_probability(mixed, mixed) - 0.75) < 1e-12
    with pytest.raises(DimMismatch):
        swap_test_probability(up, random_state(3, 3, 0))


def test_sampling_determinism_and_lln():
    up = bloch_to_state([0, 0, 1])
    mixed = QuantumState(np.eye(2) / 2)
    a = sample_swap_test(up, mixed, 10_000, seed=7)
    b = sample_swap_test(up, mixed, 10_000, seed=7)
    assert a.value == b.value and a.std_error == b.std_error
    big = sample_swap_test(up, mixed, 2_000_000, seed=1)
    assert abs(big.value - 0.5) < 3 * big.std_error
    assert big.std_error < 1e-3
    with pytest.raises(ZeroShots):
        sample_swap_test(up, mixed, 0, seed=0)


def test_power_sums_examples():
    pure = bloch_to_state([0, 0, 1])
    assert np.allclose(power_sums(pure, 2), [1.0, 1.0], atol=1e-12)
    mixed = QuantumState(np.eye(2) / 2)
    assert np.allclose(power_sums(mixed, 2), [1.0, 0.5], atol=1e-12)
    diag = QuantumState(np.diag([0.7, 0.3]))
    assert np.allclose(power_sums(diag, 2), [1.0, 0.58], atol=1e-12)
    with pytest.raises(BadN):
        power_sums(diag, 3)


def test_power_sums_match_spectrum():
    for seed in range(5):
        rho = random_state(3, 3, seed + 30)
        got = power_sums(rho, 3)
        expected = [(rho.eigenvalues**n).sum() for n in (1, 2, 3)]
        assert np.allclose(got, expected, atol=1e-10)


def test_eigs_from_power_sums_round_trips():
    diag = QuantumState(np.diag([0.7, 0.3]))
    assert np.allclose(eigs_from_power_sums(power_sums(diag, 2)), [0.7, 0.3], atol=1e-10)
    qutrit = QuantumState(np.diag([0.5, 0.3, 0.2]))
    assert np.allclose(eigs_from_power_sums(power_sums(qutrit, 3)),
                       [0.5, 0.3, 0.2], atol=1e-9)
    for seed in range(10):
        rho = random_state(3, 3, seed + 60)
        got = eigs_from_power_sums(power_sums(rho, 3))
        assert np.allclose(got, rho.eigenvalues, atol=1e-8)
    with pytest.raises(IllConditioned):
        eigs_from_power_sums([0.9, 0.5])


def test_prepare_sigma_example():
    sigma = basis_alignment_search(QuantumState(np.diag([0.9, 0.1]))).sigma1
    s = 3 / (3 + 1)  # sqrt(0.9)/(sqrt(0.9) + sqrt(0.1)) = 3/4
    assert np.allclose(sigma.matrix, np.diag([s, 1 - s]), atol=1e-12)


def test_alignment_exact_mode():
    diag = QuantumState(np.diag([0.7, 0.3]))
    prep = basis_alignment_search(diag)
    assert prep.iterations == 0
    assert prep.alignment_residual < 1e-12
    s = np.sqrt([0.7, 0.3])
    assert np.allclose(prep.sigma1.matrix, np.diag(s / s.sum()), atol=1e-12)

    rho = bloch_to_state([0.6, 0.0, 0.3])
    prep = basis_alignment_search(rho)
    assert prep.alignment_residual < 1e-10
    # aligned sigma1 commutes with rho1
    c = prep.sigma1.matrix @ rho.matrix - rho.matrix @ prep.sigma1.matrix
    assert np.abs(c).max() < 1e-6


def test_prepare_sigma_rotated_basis():
    U = np.linalg.qr(np.random.default_rng(5).normal(size=(3, 3))
                     + 1j * np.random.default_rng(6).normal(size=(3, 3)))[0]
    w = np.sqrt([0.6, 0.3, 0.1])
    sigma = basis_alignment_search(QuantumState((U * [0.6, 0.3, 0.1]) @ U.conj().T)).sigma1
    assert np.abs(sigma.matrix - (U * (w / w.sum())) @ U.conj().T).max() < 1e-14


def test_prepared_sigma_reuses_the_spectrum(monkeypatch):
    # sigma1 is built from rho1's cached spectrum, in both modes, with no eigh
    rho1 = random_state(4, 4, 61)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(1) or eigh(*a, **k))
    exact = basis_alignment_search(rho1)
    shot = basis_alignment_search(rho1, shots=1000, seed=1)
    assert calls == []
    w = np.sqrt(rho1.eigenvalues)
    V = rho1.eigenvectors
    for prep in (exact, shot):
        assert np.array_equal(prep.sigma1.eigenvalues, w / w.sum())
        assert np.abs(prep.sigma1.matrix - (V * (w / w.sum())) @ V.conj().T).max() < 1e-15


def test_alignment_degenerate_short_circuit():
    mixed = QuantumState(np.eye(2) / 2)
    prep = basis_alignment_search(mixed, shots=1000, seed=0)
    assert prep.iterations == 0 and prep.alignment_residual == 0.0


def test_alignment_shot_mode_converges():
    rho = bloch_to_state([0.4, 0.3, 0.2])
    prep = basis_alignment_search(rho, shots=100_000, seed=3)
    c = prep.sigma1.matrix @ rho.matrix - rho.matrix @ prep.sigma1.matrix
    assert np.abs(c).max() < 1e-4
    # residual is a sampled quantity at the shot-noise scale
    assert prep.alignment_residual < 0.02


def test_protocol_exact_matches_library():
    for seed in range(25):
        rho = random_state(2, 2, seed + 300)
        H = random_observable(2, seed + 400)
        t = 0.5 + 0.1 * seed
        tl, err = estimate_tl_from_protocol(rho, H, t)
        assert err == 0.0
        direct = tl_bound(rho, H, evolve_unitary(rho, H, t))
        assert abs(tl - direct) < 1e-6


def test_protocol_exact_small_angles():
    # the chord sqrt(rho1) - sqrt(rho2) keeps the angle that acos of the
    # overlap lost: 3.4e-5 relative at t = 1e-4 with the acos form
    for i in range(100):
        d = 2 + i % 4
        rho = random_state(d, 1 + i % d, 900 + i)
        H = random_observable(d, 1000 + i)
        tl, _ = estimate_tl_from_protocol(rho, H, 1e-4)
        direct = tl_bound(rho, H, evolve_unitary(rho, H, 1e-4))
        assert abs(tl - direct) <= 1e-10 * direct


def test_protocol_exact_rank_deficient():
    # a rank-r state's last d - r characteristic coefficients are roundoff;
    # set to 0, its zero eigenvalues come back exact, and Tr sqrt(rho1) with
    # them (a recovered 1e-9 would move it by 3e-5)
    for d in range(2, 7):
        for rank in range(1, d + 1):
            for i in range(20):
                seed = 5000 + 100 * d + 10 * rank + 1000 * i
                rho = random_state(d, rank, seed)
                H = random_observable(d, seed + 1)
                tl, _ = estimate_tl_from_protocol(rho, H, 0.5)
                direct = tl_bound(rho, H, evolve_unitary(rho, H, 0.5))
                assert abs(tl - direct) <= 1e-10 * direct, (d, rank, seed)
    eigs = eigs_from_power_sums(power_sums(random_state(5, 1, 5194), 5))
    assert np.all(eigs[1:] == 0.0)


def test_protocol_exact_case3():
    tl, err = estimate_tl_from_protocol(CASE3_RHO, CASE3_H, CASE3_T)
    assert err == 0.0
    assert abs(tl - 0.90) < 0.01


def test_protocol_shot_mode_error_bar_shrinks():
    tl_lo, err_lo = estimate_tl_from_protocol(CASE3_RHO, CASE3_H, CASE3_T,
                                              shots=100, seed=11)
    tl_hi, err_hi = estimate_tl_from_protocol(CASE3_RHO, CASE3_H, CASE3_T,
                                              shots=100_000, seed=11)
    assert err_hi < err_lo
    assert np.isfinite(tl_lo) and tl_lo >= 0  # 100 shots can clamp the angle to 0
    assert abs(tl_hi - 0.90) < 6 * max(err_hi, 1e-6) + 0.06  # dtau bias allowance


def test_protocol_shot_mode_mae_convergence():
    # quadrupling the shot budget should shrink the mean absolute error
    target = tl_bound(CASE3_RHO, CASE3_H, evolve_unitary(CASE3_RHO, CASE3_H, CASE3_T))
    maes = []
    for shots in (160_000, 640_000):
        errs = []
        for seed in range(30):
            tl, _ = estimate_tl_from_protocol(CASE3_RHO, CASE3_H, CASE3_T,
                                              shots=shots, seed=seed)
            errs.append(abs(tl - target))
        maes.append(np.mean(errs))
    assert maes[1] < 0.8 * maes[0]


def _cyclic_shift(dim: int, n: int) -> np.ndarray:
    """Permutation operator sending factor i to factor i+1 (mod n) on (C^dim)^n."""
    dn = dim**n
    P = np.zeros((dn, dn))
    for idx in range(dn):
        digits = np.unravel_index(idx, (dim,) * n)
        shifted = (digits[-1],) + digits[:-1]
        P[np.ravel_multi_index(shifted, (dim,) * n), idx] = 1.0
    return P


def _haar_state(spectrum, rng) -> QuantumState:
    """diag(spectrum) in a Haar-random basis."""
    d = len(spectrum)
    Q, R = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    Q = Q * (np.diagonal(R) / np.abs(np.diagonal(R)))
    return QuantumState((Q * np.asarray(spectrum, dtype=float)) @ Q.conj().T)


def test_power_sums_match_cyclic_shift_oracle():
    # the swap network's observable: Tr(S rho^(x)n) with the dense shift S
    for d in (1, 2, 3):
        for rank in sorted({1, d}):
            rho = random_state(d, rank, 10 * d + rank)
            kron = rho.matrix
            expected = [1.0]
            for n in range(2, d + 1):
                kron = np.kron(kron, rho.matrix)
                expected.append(float(np.trace(_cyclic_shift(d, n) @ kron).real))
            assert np.allclose(power_sums(rho, d), expected, rtol=0, atol=1e-13)


@pytest.mark.parametrize("spectrum", [
    lambda a: [a, a, 1 - 2 * a],
    lambda a: [0.5, 0.5],
    lambda a: [1.0, 0.0, 0.0],
    lambda a: [1 / 3] * 3,
    lambda a: [a / 2] * 3 + [1 - 1.5 * a],
    lambda a: [a / 3] * 4 + [1 - 4 * a / 3],
    lambda a: [1 / 6] * 6,
    lambda a: [0.5, 0.25, 0.25],
], ids=["aa", "I2", "pure3", "I3", "aaa", "a4", "I6", "half_quarter_quarter"])
def test_eigs_from_power_sums_degenerate(spectrum):
    # a multiple eigenvalue splits into complex pairs or a real pair around
    # 0 at roundoff; every one of 200 Haar bases must recover the spectrum
    rng = np.random.default_rng(7)
    for _ in range(200):
        w = spectrum(rng.uniform(0.2, 0.45))
        rho = _haar_state(w, rng)
        got = eigs_from_power_sums(power_sums(rho, rho.dim))
        assert np.abs(got - np.sort(w)[::-1]).max() < 1e-6


@pytest.mark.parametrize("moments", [[1.0, 0.2], [1.0, 0.2, 0.01], [1.0, 1.5]])
def test_eigs_from_power_sums_rejects_non_psd_moments(moments):
    with pytest.raises(IllConditioned):
        eigs_from_power_sums(moments)


def test_alignment_shot_mode_is_closed_form():
    for seed in range(3):
        rho = random_state(4, 4, seed)
        prep = basis_alignment_search(rho, shots=100_000, seed=seed)
        c = prep.sigma1.matrix @ rho.matrix - rho.matrix @ prep.sigma1.matrix
        assert np.linalg.norm(c) <= 1e-12
        assert prep.iterations == 0
        assert 0.0 <= prep.alignment_residual < 0.02


@pytest.mark.parametrize("module, heavy", [
    ("qsl_lab.interferometry", "scipy.optimize"),
    ("qsl_lab.bounds", "scipy.integrate"),
    ("qsl_lab.cli", "scipy.integrate"),
])
def test_import_does_not_load(module, heavy):
    src = str(Path(qsl_lab.__file__).resolve().parents[1])
    code = f"import sys, {module}; print({heavy!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert out.stdout.strip() == "False"

