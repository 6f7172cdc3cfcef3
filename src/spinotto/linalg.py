"""Dense complex linear algebra for one and two qubits (dimension 2 and 4).

Everything the engine touches is a plain complex numpy array. States and
operators live in the product basis |m b> = {|00>, |01>, |10>, |11>} with the
medium as the left tensor factor and |0> the +1 eigenstate of sigma_z (the
excited state, energy +hbar*omega/2).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# Centralized numerical error budget.
VALIDATION_ATOL = 1e-10   # hermiticity / trace / config checks
PSD_CLAMP = -1e-10        # eigenvalues above this are treated as 0


class LinalgError(ValueError):
    """Base error for the matrix kernel."""


class DimensionError(LinalgError):
    """Operands have incompatible or unsupported dimensions."""


class ValidationError(LinalgError):
    """An input violates a structural invariant (hermiticity, trace, positivity)."""


class EigenDecomposition(NamedTuple):
    """Eigenvalues sorted ascending and the matching unitary of column eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


_PAULI = {
    "identity": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli(axis: str) -> np.ndarray:
    """Return a fresh copy of the named single-qubit operator: x, y, z or identity."""
    try:
        return _PAULI[axis].copy()
    except KeyError:
        raise ValidationError(f"unknown Pauli axis {axis!r}") from None


def as_complex(a) -> np.ndarray:
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    return m


def trace(a: np.ndarray) -> complex:
    return complex(np.trace(as_complex(a)))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; the medium is always the left factor in this package.

    Equal to np.kron bit for bit (each entry is one product a_ij * b_kl),
    without np.kron's general n-dimensional set-up.
    """
    a, b = as_complex(a), as_complex(b)
    n, m = a.shape[0], b.shape[0]
    return np.multiply.outer(a, b).transpose(0, 2, 1, 3).reshape(n * m, n * m)


def partial_trace(joint: np.ndarray, keep: str) -> np.ndarray:
    """Reduce a 4x4 medium (x) battery operator to one 2x2 subsystem.

    keep is "medium" (left factor) or "battery" (right factor). The trace of
    the result equals the trace of the input.
    """
    joint = as_complex(joint)
    if joint.shape != (4, 4):
        raise DimensionError(f"partial_trace expects a 4x4 operator, got {joint.shape}")
    t = joint.reshape(2, 2, 2, 2)
    if keep == "medium":
        return np.einsum("mbnb->mn", t)
    if keep == "battery":
        return np.einsum("mbmd->bd", t)
    raise ValidationError(f"keep must be 'medium' or 'battery', got {keep!r}")


def is_hermitian(a: np.ndarray, atol: float = VALIDATION_ATOL) -> bool:
    a = as_complex(a)
    return float(np.max(np.abs(a - a.conj().T))) <= atol


def hermitian_eig(h: np.ndarray) -> EigenDecomposition:
    """Full eigendecomposition of a Hermitian matrix (LAPACK, via numpy.linalg.eigh).

    Returns eigenvalues sorted ascending and eigenvectors as the columns of a
    unitary matrix, ordered to match.
    """
    h = as_complex(h)
    if not is_hermitian(h):
        raise ValidationError("hermitian_eig requires a Hermitian input")
    w, v = np.linalg.eigh(h)
    return EigenDecomposition(w, v)


def clamp_spectrum(w: np.ndarray) -> np.ndarray:
    """Zero out tiny negative eigenvalues; reject ones below the noise floor."""
    w = np.asarray(w, dtype=float)
    if float(np.min(w)) < PSD_CLAMP:
        raise ValidationError(
            f"eigenvalue {float(np.min(w)):.3e} below the PSD tolerance {PSD_CLAMP:.0e}"
        )
    return np.maximum(w, 0.0)


def sqrtm_psd(rho: np.ndarray) -> np.ndarray:
    """Hermitian square root of a positive semidefinite matrix."""
    w, v = hermitian_eig(rho)
    roots = np.sqrt(clamp_spectrum(w))
    return (v * roots) @ v.conj().T


def validate_density(rho: np.ndarray, check_spectrum: bool = True) -> np.ndarray:
    """Check that rho is a density operator of dimension 2 or 4.

    Verifies shape, hermiticity and unit trace within VALIDATION_ATOL, and
    (optionally) that no eigenvalue lies below PSD_CLAMP. Returns rho unchanged.
    """
    rho = as_complex(rho)
    if rho.shape[0] not in (2, 4):
        raise DimensionError(f"density operator must be 2x2 or 4x4, got {rho.shape}")
    if not is_hermitian(rho):
        raise ValidationError("density operator is not Hermitian")
    tr = trace(rho)
    if abs(tr - 1.0) > VALIDATION_ATOL:
        raise ValidationError(f"density operator trace {tr:.12g} differs from 1")
    if check_spectrum:
        clamp_spectrum(hermitian_eig(rho).eigenvalues)
    return rho
