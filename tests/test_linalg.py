import math

import numpy as np
import pytest

from spinotto.linalg import (
    PSD_CLAMP,
    _lowest_qubit_eigenvalue,
    PAULI,
    DimensionError,
    ValidationError,
    clamp_spectrum,
    kron,
    partial_trace,
    validate_density,
)
from spinotto.validate import random_density


def random_hermitian(rng, dim):
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (x + x.conj().T) / 2


def test_pauli_matrices():
    assert PAULI.shape == (4, 2, 2) and PAULI.dtype == complex
    assert np.array_equal(PAULI[0], np.eye(2))
    assert np.array_equal(PAULI[1], [[0, 1], [1, 0]])
    assert np.array_equal(PAULI[2], [[0, -1j], [1j, 0]])
    assert np.array_equal(PAULI[3], [[1, 0], [0, -1]])


def test_pauli_table_is_read_only():
    # every module reads the one table, so no caller may change it for the others
    with pytest.raises(ValueError, match="read-only"):
        PAULI[1, 0, 0] = 99
    with pytest.raises(ValueError, match="read-only"):
        PAULI[3] *= -1
    assert np.array_equal(PAULI[1], [[0, 1], [1, 0]]) and np.array_equal(PAULI[3], [[1, 0], [0, -1]])


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
    assert np.array_equal(clamp_spectrum(np.array([-1e-12, 0.5]), "f"), [0.0, 0.5])
    with pytest.raises(ValidationError, match=r"^f: eigenvalue -1\.000e-06 below the PSD tolerance -1e-10$"):
        clamp_spectrum(np.array([-1e-6, 1.0]), "f")


@pytest.mark.parametrize("w", [[np.nan, 0.5], [0.5, np.nan], [[0.5, 0.5], [0.5, np.nan]]])
def test_clamp_spectrum_rejects_a_nan(w):
    # a NaN compares False with everything, so `lowest < PSD_CLAMP` alone would let it through
    with pytest.raises(ValidationError, match=r"^f: eigenvalue nan below the PSD tolerance -1e-10$"):
        clamp_spectrum(np.array(w), "f")


def test_validate_density():
    validate_density(np.eye(2) / 2, "f")
    with pytest.raises(ValidationError, match="^f: density operator trace"):
        validate_density(np.eye(2), "f")  # trace 2
    with pytest.raises(ValidationError, match="^f: density operator is not Hermitian"):
        validate_density(np.array([[0.5, 0.5], [0.0, 0.5]]), "f")
    with pytest.raises(ValidationError, match="^f: eigenvalue"):
        validate_density(np.diag([1.5, -0.5]).astype(complex), "f")  # negative eigenvalue
    with pytest.raises(DimensionError, match="^f: density operator must be 2x2 or 4x4"):
        validate_density(np.eye(8) / 8, "f")
    # a 4x4 state gets structure checks only: its positivity is checked where
    # it is used, by concurrence's Cholesky/eigen clamp and the fuzz's state_validity
    rho = np.diag([0.5, 0.5, 0.5, -0.5]).astype(complex)
    assert validate_density(rho, "f") is rho


def test_validate_density_of_stack():
    rng = np.random.default_rng(9)
    for dim in (2, 4):
        stack = np.array([random_density(rng, dim) for _ in range(5)])
        assert validate_density(stack, "f") is not None
        assert np.array_equal(validate_density(stack, "f"), stack)
        bad = stack.copy()
        bad[3] *= 1.01  # one bad trace in the stack is enough
        with pytest.raises(ValidationError, match="^f: density operator trace"):
            validate_density(bad, "f")
    with pytest.raises(ValidationError, match="^f: eigenvalue"):
        validate_density(np.array([np.eye(2) / 2, np.diag([1.5, -0.5])]), "f")
    with pytest.raises(DimensionError, match="^f: expected a square matrix"):
        validate_density(np.ones(4), "f")


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
    validate_density(np.diag([1.0 - 0.9 * PSD_CLAMP, 0.9 * PSD_CLAMP]).astype(complex), "f")
    with pytest.raises(ValidationError, match="^f: eigenvalue"):
        validate_density(np.diag([1.0 - 1.1 * PSD_CLAMP, 1.1 * PSD_CLAMP]).astype(complex), "f")
    # the same with an off-diagonal element: eigenvalues 1/2 -+ sqrt(a^2 + c^2)
    c = 0.3
    a = math.sqrt((0.5 - 1.1 * PSD_CLAMP) ** 2 - c**2)
    rho = np.array([[0.5 + a, c * 1j], [-c * 1j, 0.5 - a]])
    with pytest.raises(ValidationError, match="^f: eigenvalue"):
        validate_density(rho, "f")
