"""Dense complex linear algebra for one and two qubits (dimension 2 and 4).

Everything the engine touches is a plain complex numpy array. States and
operators live in the product basis |m b> = {|00>, |01>, |10>, |11>} with the
medium as the left tensor factor and |0> the +1 eigenstate of sigma_z (the
excited state, energy +hbar*omega/2).
"""

from __future__ import annotations

import numpy as np

# Centralized numerical error budget.
VALIDATION_ATOL = 1e-10   # hermiticity / trace / config checks
PSD_CLAMP = -1e-10        # eigenvalues above this are treated as 0


class LinalgError(ValueError):
    """Base error for the matrix kernel."""


class DimensionError(LinalgError):
    """Operands have incompatible or unsupported dimensions."""


class ValidationError(LinalgError):
    """An input of a valid shape violates an invariant: hermiticity, unit
    trace, positivity or a range. A wrong shape is a DimensionError."""


# The Pauli matrices sigma_mu for mu = 0..3: the identity, then x, y and z.
# Read-only, so no caller can change them for every other.
PAULI = np.array([np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)
PAULI.flags.writeable = False


def as_complex(a, caller: str) -> np.ndarray:
    """a as a complex array of one square matrix, or of a stack of them along
    leading batch axes. caller names the function whose input a is; the
    message of an error starts with that name."""
    m = np.asarray(a, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionError(f"{caller}: expected a square matrix, got shape {m.shape}")
    return m


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; the medium is always the left factor in this package.

    Leading batch axes broadcast. Equal to np.kron bit for bit on each pair
    (each entry is one product a_ij * b_kl), without np.kron's general
    n-dimensional set-up.
    """
    a, b = as_complex(a, "kron"), as_complex(b, "kron")
    n, m = a.shape[-1], b.shape[-1]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (n * m, n * m))


def partial_trace(joint: np.ndarray, keep: str) -> np.ndarray:
    """Reduce a 4x4 medium (x) battery operator to one 2x2 subsystem.

    keep is "medium" (left factor) or "battery" (right factor). The trace of
    the result equals the trace of the input. Leading batch axes are kept.
    """
    joint = as_complex(joint, "partial_trace")
    if joint.shape[-2:] != (4, 4):
        raise DimensionError(f"partial_trace: expected a 4x4 operator, got shape {joint.shape}")
    t = joint.reshape(*joint.shape[:-2], 2, 2, 2, 2)
    if keep == "medium":
        return np.einsum("...mbnb->...mn", t)
    if keep == "battery":
        return np.einsum("...mbmd->...bd", t)
    raise ValidationError(f"partial_trace: keep must be 'medium' or 'battery', got {keep!r}")


def clamp_spectrum(w: np.ndarray, caller: str) -> np.ndarray:
    """Zero out tiny negative eigenvalues; reject ones below the noise floor.
    caller names the function whose input w is the spectrum of; the message
    of an error starts with that name. A NaN is rejected too."""
    w = np.asarray(w, dtype=float)
    lowest = float(w.min())  # NaN if any eigenvalue is NaN
    if not lowest >= PSD_CLAMP:
        raise ValidationError(f"{caller}: eigenvalue {lowest:.3e} below the PSD tolerance {PSD_CLAMP:.0e}")
    return np.maximum(w, 0.0)


def _lowest_qubit_eigenvalue(h: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue tr/2 - sqrt(((h00 - h11)/2)^2 + |h01|^2) of each
    Hermitian 2x2 matrix in a stack."""
    d00, d11 = h[..., 0, 0].real, h[..., 1, 1].real
    return 0.5 * (d00 + d11) - np.hypot(0.5 * (d00 - d11), np.abs(h[..., 0, 1]))


def validate_density(rho: np.ndarray, caller: str) -> np.ndarray:
    """Check that rho is a density operator of dimension 2 or 4, or a stack of them.

    Verifies shape, hermiticity and unit trace within VALIDATION_ATOL, and
    that no eigenvalue of a qubit state lies below PSD_CLAMP, from the closed
    form of its smallest one. A 4x4 state gets no spectrum check here: the
    stages are channels, so they keep their inputs positive, and concurrence
    and the fuzz's state_validity check positivity where they use it.
    Returns rho unchanged. caller names the function whose input rho is; the
    message of an error starts with that name.
    """
    rho = as_complex(rho, caller)
    dim = rho.shape[-1]
    if dim not in (2, 4):
        raise DimensionError(f"{caller}: density operator must be 2x2 or 4x4, got {rho.shape}")
    if not float(abs(rho - rho.conj().swapaxes(-1, -2)).max()) <= VALIDATION_ATOL:  # a NaN fails too
        raise ValidationError(f"{caller}: density operator is not Hermitian")
    tr = rho.trace(axis1=-2, axis2=-1)
    trace_err = abs(tr - 1.0)
    if trace_err.max() > VALIDATION_ATOL:
        worst = complex(tr.flat[np.argmax(trace_err)])
        raise ValidationError(f"{caller}: density operator trace {worst:.12g} differs from 1")
    if dim == 2:
        clamp_spectrum(_lowest_qubit_eigenvalue(rho), caller)
    return rho
