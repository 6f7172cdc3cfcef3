import math

import numpy as np
import pytest

from spinotto.linalg import (
    PSD_CLAMP,
    _lowest_qubit_eigenvalue,
    DimensionError,
    ValidationError,
    clamp_spectrum,
    kron,
    partial_trace,
    pauli,
    validate_density,
)
from spinotto.validate import random_density


def random_hermitian(rng, dim):
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (x + x.conj().T) / 2


def test_pauli_matrices():
    assert np.array_equal(pauli("x"), [[0, 1], [1, 0]])
    assert np.array_equal(pauli("y"), [[0, -1j], [1j, 0]])
    assert np.array_equal(pauli("z"), [[1, 0], [0, -1]])
    assert np.array_equal(pauli("identity"), np.eye(2))


def test_pauli_unknown_axis():
    with pytest.raises(ValidationError):
        pauli("w")


def test_pauli_returns_copy():
    m = pauli("x")
    m[0, 0] = 99
    assert pauli("x")[0, 0] == 0


def test_kron_identity():
    assert np.allclose(kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_block_structure():
    a, b = 0.3, 0.7
    out = kron(np.diag([a, b]), np.eye(2))
    assert np.allclose(out, np.diag([a, a, b, b]))


def test_kron_trace_multiplicative():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        assert abs(np.trace(kron(a, b)) - np.trace(a) * np.trace(b)) < 1e-12
        assert np.array_equal(kron(a, b), np.kron(a, b))


def test_kron_broadcasts_over_stacks():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    bs = rng.normal(size=(5, 2, 2)) + 1j * rng.normal(size=(5, 2, 2))
    assert np.array_equal(kron(a, bs), np.array([np.kron(a, b) for b in bs]))
    assert np.array_equal(kron(bs, a), np.array([np.kron(b, a) for b in bs]))


def test_partial_trace_separable():
    rng = np.random.default_rng(2)
    a = random_density(rng, 2)
    b = random_density(rng, 2)
    assert np.allclose(partial_trace(kron(a, b), "medium"), a, atol=1e-12)
    assert np.allclose(partial_trace(kron(a, b), "battery"), b, atol=1e-12)


def test_partial_trace_bell_state():
    psi = np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2)
    bell = np.outer(psi, psi.conj())
    assert np.allclose(partial_trace(bell, "battery"), np.eye(2) / 2, atol=1e-12)
    assert np.allclose(partial_trace(bell, "medium"), np.eye(2) / 2, atol=1e-12)


def test_partial_trace_against_index_sum():
    # independent oracle: explicit double sum over the traced index
    rng = np.random.default_rng(3)
    for _ in range(50):
        joint = random_hermitian(rng, 4)
        medium = np.zeros((2, 2), dtype=complex)
        battery = np.zeros((2, 2), dtype=complex)
        for m in range(2):
            for n in range(2):
                for b in range(2):
                    medium[m, n] += joint[2 * m + b, 2 * n + b]
                    battery[m, n] += joint[2 * b + m, 2 * b + n]
        assert np.allclose(partial_trace(joint, "medium"), medium, atol=1e-12)
        assert np.allclose(partial_trace(joint, "battery"), battery, atol=1e-12)


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(4)
    for _ in range(20):
        joint = random_density(rng, 4)
        assert abs(np.trace(partial_trace(joint, "medium")) - np.trace(joint)) < 1e-12


def test_partial_trace_of_stack_equals_separate_calls():
    rng = np.random.default_rng(7)
    joints = np.array([random_density(rng, 4) for _ in range(6)])
    for keep in ("medium", "battery"):
        assert np.array_equal(partial_trace(joints, keep), [partial_trace(j, keep) for j in joints])


def test_partial_trace_errors():
    with pytest.raises(DimensionError):
        partial_trace(np.eye(2), "medium")
    with pytest.raises(ValidationError):
        partial_trace(np.eye(4), "both")


def test_elementwise_ops():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert abs(np.trace(a @ b) - np.trace(b @ a)) < 1e-12


def test_clamp_spectrum():
    assert np.array_equal(clamp_spectrum(np.array([-1e-12, 0.5])), [0.0, 0.5])
    with pytest.raises(ValidationError):
        clamp_spectrum(np.array([-1e-6, 1.0]))


def test_validate_density():
    validate_density(np.eye(2) / 2)
    with pytest.raises(ValidationError):
        validate_density(np.eye(2))  # trace 2
    with pytest.raises(ValidationError):
        validate_density(np.array([[0.5, 0.5], [0.0, 0.5]]))  # not hermitian
    with pytest.raises(ValidationError):
        validate_density(np.diag([1.5, -0.5]).astype(complex))  # negative eigenvalue
    with pytest.raises(ValidationError, match="eigenvalue"):
        validate_density(np.diag([0.5, 0.5, 0.5, -0.5]).astype(complex))  # the 4x4 path
    with pytest.raises(DimensionError):
        validate_density(np.eye(8) / 8)


def test_validate_density_of_stack():
    rng = np.random.default_rng(9)
    for dim in (2, 4):
        stack = np.array([random_density(rng, dim) for _ in range(5)])
        assert validate_density(stack) is not None
        assert np.array_equal(validate_density(stack), stack)
        bad = stack.copy()
        bad[3] *= 1.01  # one bad trace in the stack is enough
        with pytest.raises(ValidationError, match="trace"):
            validate_density(bad)
    with pytest.raises(ValidationError, match="eigenvalue"):
        validate_density(np.array([np.eye(2) / 2, np.diag([1.5, -0.5])]))
    with pytest.raises(DimensionError):
        validate_density(np.ones(4))


def test_qubit_spectrum_closed_form_matches_eigvalsh():
    # Hermitian eigenvalues are perfectly conditioned: both routes are exact
    # to a few ulp of the spectral radius, which is at most 1 for a state
    rng = np.random.default_rng(10)
    for hs in (
        np.array([random_hermitian(rng, 2) for _ in range(500)]),
        np.array([random_density(rng, 2) for _ in range(500)]),
    ):
        w = np.linalg.eigvalsh(hs)
        scale = np.maximum(np.max(np.abs(w), axis=1), 1.0)
        assert np.max(np.abs(_lowest_qubit_eigenvalue(hs) - w[:, 0]) / scale) <= 1e-15


def test_qubit_spectrum_check_at_the_clamp():
    # diag(1 - e, e): the smallest eigenvalue is e, just above or below PSD_CLAMP
    validate_density(np.diag([1.0 - 0.9 * PSD_CLAMP, 0.9 * PSD_CLAMP]).astype(complex))
    with pytest.raises(ValidationError, match="eigenvalue"):
        validate_density(np.diag([1.0 - 1.1 * PSD_CLAMP, 1.1 * PSD_CLAMP]).astype(complex))
    # the same with an off-diagonal element: eigenvalues 1/2 -+ sqrt(a^2 + c^2)
    c = 0.3
    a = math.sqrt((0.5 - 1.1 * PSD_CLAMP) ** 2 - c**2)
    rho = np.array([[0.5 + a, c * 1j], [-c * 1j, 0.5 - a]])
    with pytest.raises(ValidationError, match="eigenvalue"):
        validate_density(rho)
