"""States, observables, the LAPACK eigensolver wrapper, and Born sampling."""

import math

import numpy as np
import pytest

from conftest import random_density, random_pauli_letters
from shadowcpd import qcore as qc


def test_theta_state_is_valid_density_matrix():
    for d in (1, 2, 3):
        for theta in (-1.0, -0.5, 0.0, 0.7, 1.0):
            rho = qc.make_theta_state(d, theta)
            assert rho.n_qubits == d
            assert abs(np.trace(rho.mat) - 1.0) < 1e-12
            assert np.allclose(rho.mat, rho.mat.conj().T)
            evals = np.linalg.eigvalsh(rho.mat)
            assert evals.min() >= -1e-12


def test_theta_state_mean_along_x_string():
    # Tr[(I + theta X^d)/2^d * X^d] = theta
    for d in (1, 2, 3):
        obs = qc.pauli_string("X" * d)
        for theta in (-0.8, -0.2, 0.0, 0.5, 1.0):
            rho = qc.make_theta_state(d, theta)
            assert abs(qc.expectation(rho, obs) - theta) < 1e-12


def test_theta_state_rejects_bad_inputs():
    with pytest.raises(ValueError):
        qc.make_theta_state(0, 0.5)
    with pytest.raises(ValueError):
        qc.make_theta_state(1, 1.5)
    with pytest.raises(ValueError):
        qc.make_theta_state(qc.MAX_QUBITS + 1, 0.1)


def test_rotated_observable_matches_closed_form_mean():
    # expectation against make_theta_state(d, theta) is theta * cos(gamma)**d
    rng = np.random.default_rng(11)
    for d in (1, 2, 3):
        for gamma in (0.0, 0.3, math.pi / 4, 1.2):
            obs = qc.rotated_observable(d, gamma)
            theta = float(rng.uniform(-1, 1))
            rho = qc.make_theta_state(d, theta)
            want = theta * math.cos(gamma) ** d
            assert abs(qc.expectation(rho, obs) - want) < 1e-10


def test_rotated_observable_at_zero_angle_is_x_string():
    for d in (1, 2):
        obs = qc.rotated_observable(d, 0.0)
        ref = qc.pauli_string("X" * d)
        assert np.allclose(obs.mat, ref.mat, atol=1e-14)


def test_pauli_string_observable_metadata():
    obs = qc.pauli_string("XIZ")
    assert obs.n_qubits == 3
    assert obs.support == frozenset({0, 2})
    assert obs.eigmin == pytest.approx(-1.0)
    assert obs.eigmax == pytest.approx(1.0)
    assert obs.op_norm == pytest.approx(1.0)
    assert obs.trace == pytest.approx(0.0)
    with pytest.raises(ValueError):
        qc.pauli_string("XQ")
    with pytest.raises(ValueError):
        qc.pauli_string("")


def test_observable_support_detection_on_dense_matrix():
    # support must be found even without a factor decomposition
    mat = qc.kron_all([qc.PAULI_I, qc.PAULI_Y, qc.PAULI_I])
    obs = qc.Observable(mat)
    assert obs.support == frozenset({1})


def test_expectation_rejects_mismatched_dims():
    rho = qc.make_theta_state(1, 0.3)
    obs = qc.pauli_string("XX")
    with pytest.raises(ValueError):
        qc.expectation(rho, obs)


def test_hermitian_eig_agrees_with_lapack():
    rng = np.random.default_rng(7)
    for d in (1, 2, 3):
        dim = 2**d
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        mat = (g + g.conj().T) / 2
        evals, v = qc.hermitian_eig(qc.Observable(mat))
        ref = np.linalg.eigvalsh(mat)
        assert np.allclose(np.sort(evals), ref, atol=1e-9)
        assert np.allclose(v.conj().T @ v, np.eye(dim), atol=1e-9)
        rebuilt = v @ np.diag(evals) @ v.conj().T
        assert np.allclose(rebuilt, mat, atol=1e-9)


def test_hermitian_eig_handles_degenerate_spectrum():
    evals, v = qc.hermitian_eig(qc.pauli_string("XX"))
    assert np.allclose(np.sort(evals), [-1, -1, 1, 1], atol=1e-10)
    assert np.allclose(v.conj().T @ v, np.eye(4), atol=1e-10)


def test_born_probabilities_normalized_and_nonnegative():
    rng = np.random.default_rng(3)
    for d in (1, 2):
        rho = qc.DensityMatrix(random_density(rng, d))
        dim = 2**d
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        q, _ = np.linalg.qr(g)
        probs = qc.born_probabilities(rho, q)
        assert probs.min() >= 0.0
        assert abs(probs.sum() - 1.0) < 1e-10


def test_stacked_born_probabilities_check_each_setting():
    # a stack raises the ValueError of the single-unitary call on the
    # offending setting: probability below the clamp, bad sum, shape mismatch
    h = qc.HADAMARD
    cases = [
        (np.diag([1.5, -0.5]), np.eye(2), [h, np.eye(2), h]),
        (qc.make_theta_state(1, 0.3), 1.1 * np.eye(2), [h, 1.1 * np.eye(2), np.eye(2)]),
        (qc.make_theta_state(2, 0.3), np.eye(2), [np.eye(2)] * 3),
    ]
    for rho, single, stack in cases:
        with pytest.raises(ValueError) as want:
            qc.born_probabilities(rho, single)
        with pytest.raises(ValueError) as got:
            qc.born_probabilities(rho, np.array(stack))
        assert str(got.value) == str(want.value)


def test_born_sample_matches_distribution():
    # Z-basis measurement of |+X+> style state: uniform bits
    rho = qc.make_theta_state(1, 1.0)
    rng = np.random.default_rng(17)
    draws = [qc.born_sample(rho, np.eye(2, dtype=complex), rng)[0] for _ in range(4000)]
    frac = np.mean(draws)
    assert abs(frac - 0.5) < 0.03


def test_born_sample_deterministic_given_stream():
    rho = qc.DensityMatrix(random_density(np.random.default_rng(5), 2))
    u = np.linalg.qr(np.random.default_rng(6).normal(size=(4, 4)))[0].astype(complex)
    a = [tuple(qc.born_sample(rho, u, np.random.default_rng(99))) for _ in range(3)]
    assert a[0] == a[1] == a[2]


def test_bits_to_index_is_msb_first():
    assert qc.bits_to_index(np.array([1, 0])) == 2
    assert qc.bits_to_index(np.array([0, 1])) == 1
    assert qc.bits_to_index(np.array([1, 1, 0])) == 6


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        qc.DensityMatrix(np.eye(3))  # not a qubit dimension
    with pytest.raises(ValueError):
        qc.DensityMatrix(np.eye(2))  # trace 2
    bad = np.array([[1.2, 0.0], [0.0, -0.2]], dtype=complex)
    with pytest.raises(ValueError):
        qc.DensityMatrix(bad)  # negative eigenvalue


def test_random_pauli_expectations_match_dense_trace():
    rng = np.random.default_rng(23)
    for _ in range(10):
        d = int(rng.integers(1, 4))
        rho = qc.DensityMatrix(random_density(rng, d))
        obs = qc.pauli_string(random_pauli_letters(rng, d))
        ref = float(np.trace(rho.mat @ obs.mat).real)
        assert abs(qc.expectation(rho, obs) - ref) < 1e-12
