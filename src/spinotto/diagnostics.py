"""Figures of merit for qubit states: polarizations, energies, entropies,
coherence, ergotropy and two-qubit entanglement.

Energies are reported dimensionless, in units of hbar*omega of the qubit in
question (the qubit Hamiltonian is (hbar*omega/2) sigma_z, so the excited
level |0> sits at +1/2 and the ground level |1> at -1/2).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .linalg import PAULI, DimensionError, clamp_spectrum, kron, validate_density


class ErgotropyReport(NamedTuple):
    """Unitarily extractable work and its incoherent/coherent split."""

    total: float
    incoherent: float
    coherent: float


# The operators of the correlators, sigma^j (x) I, I (x) sigma^j and
# sigma^j (x) sigma^j for j = x, y, z, each transposed and flattened:
# Tr[rho O] = O^T.flat . rho.flat.
_CORRELATOR_ROWS = (
    np.concatenate([kron(PAULI[1:], PAULI[0]), kron(PAULI[0], PAULI[1:]), kron(PAULI[1:], PAULI[1:])])
    .transpose(0, 2, 1)
    .reshape(9, 16)
)

# Y = sy x sy reverses the basis with these signs: Y X = _YY_SIGNS * X[::-1].
_YY_SIGNS = np.array([[-1.0], [1.0], [1.0], [-1.0]])
# Cholesky of a 4x4 matrix A succeeds on some A + dA with ||dA||_2 <= n gamma_{n+1} ||A||_2 ~ 10 eps ||A||_2
# for n = 4 (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., Thm 10.3), and a state's
# partial transpose has ||rho^{T_B}||_2 <= 1. So when rho^{T_B} - 64 eps I factors (64 eps ~ 1.4e-14),
# lambda_min(rho^{T_B}) >= 64 eps - 10 eps > 0, and rho is separable. This holds for rho Hermitian to
# rounding, as the engine's states are; LAPACK reads one triangle of each matrix. The certificate factors
# the pair [rho, rho^{T_B}] - _PPT_MARGIN in one call: LAPACK factors each matrix of a stack on its own
# with the same routine, so the bound holds for each, and rho - 0 is rho bit for bit.
_PPT_MARGIN = 64 * np.finfo(float).eps * np.array([np.zeros((4, 4)), np.eye(4)])
# Indices into a flattened 4x4 state that gather the pair [rho, rho^{T_B}].
_PAIR_INDEX = np.array([np.arange(16), np.arange(16).reshape(2, 2, 2, 2).swapaxes(1, 3).ravel()]).reshape(2, 4, 4)

# Column j is sigma_j transposed, flattened and halved: p_j = rho.flat . column j.
_BLOCH_COLUMNS = PAULI[1:].transpose(0, 2, 1).reshape(3, 4).T / 2


def polarization_vector(rho: np.ndarray) -> np.ndarray:
    """Invert rho = I/2 + P.sigma: validate a qubit density operator and reduce
    it to its Bloch vector P = (px, py, pz), a (3,) array.

    It is bloch_vectors of the one-state stack, so P has one formula,
    p_j = Tr[rho sigma_j]/2, and one positivity check, the closed-form
    smallest eigenvalue 1/2 - |P| inside validate_density.
    """
    if np.shape(rho) != (2, 2):
        raise DimensionError(f"polarization_vector: expected a qubit state, got shape {np.shape(rho)}")
    return bloch_vectors(np.asarray(rho)[None])[0]


def bloch_vectors(states: np.ndarray) -> np.ndarray:
    """The Bloch vector p_j = Tr[rho sigma_j]/2 of every qubit state in a
    (k, 2, 2) stack, as a (k, 3) array, once validate_density has checked the
    stack, its spectra 1/2 -+ |P| included."""
    states = validate_density(states, "bloch_vectors")
    if states.ndim != 3 or states.shape[1:] != (2, 2):
        raise DimensionError(f"bloch_vectors: expected a (k, 2, 2) stack, got shape {states.shape}")
    return (states.reshape(-1, 4) @ _BLOCH_COLUMNS).real


def _entropy_of(spectra: np.ndarray, caller: str) -> np.ndarray:
    """-sum p ln p over the last axis of an array of spectra, with 0 ln 0 = 0.

    clamp_spectrum rejects eigenvalues below PSD_CLAMP, naming caller, and
    counts the tiny negative ones above it as 0; a zero takes ln 1, so no
    warning is raised.
    """
    w = clamp_spectrum(spectra, caller)
    return -(w * np.log(np.where(w > 0.0, w, 1.0))).sum(axis=-1)


def _pz_and_norm(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """pz and |P| of a Bloch vector, or of each row of a (..., 3) array of
    them: the formula of every |P| past the config checks, whose own Python
    sum engine._check_battery explains."""
    px, py, pz = np.moveaxis(np.asarray(p, dtype=float), -1, 0)
    return pz, np.sqrt(px * px + py * py + pz * pz)  # x * x: a numpy scalar's x**2 calls pow, an array's squares


def mean_energy(rho: np.ndarray) -> float:
    """Tr[rho sigma_z]/2: the mean energy in units of hbar*omega."""
    return float(polarization_vector(rho)[2])


def von_neumann_entropy(rho: np.ndarray) -> float:
    """-Tr[rho ln rho] in nats, with 0 ln 0 = 0."""
    rho = validate_density(rho, "von_neumann_entropy")
    return float(_entropy_of(np.linalg.eigvalsh(rho), "von_neumann_entropy"))  # hermiticity checked above


def relative_entropy_of_coherence(p: np.ndarray) -> np.ndarray:
    """S(diag(rho)) - S(rho) of the qubit state rho with Bloch vector p: its
    energy-basis coherence in nats, always >= 0.

    The dephased state has |P| = |pz|, so both entropies are binary entropies
    of 1/2 + |pz| and 1/2 + |P|. p is a (..., 3) array of Bloch vectors, and
    the result an array over its leading axes: one numpy float64 for one
    vector.
    """
    pz, r = _pz_and_norm(p)
    spectra = (np.stack([0.5 - x, 0.5 + x], axis=-1) for x in (abs(pz), r))
    dephased, state = (_entropy_of(w, "relative_entropy_of_coherence") for w in spectra)
    return dephased - state


def ergotropy(p: np.ndarray) -> ErgotropyReport:
    """Maximum unitarily extractable work of the qubit state with Bloch vector
    p, split into incoherent and coherent parts.

    total      = Tr[(rho - passive(rho)) H] = pz + |P|, with H = sigma_z/2
                 (hbar*omega units)
    incoherent = ergotropy of the sigma_z-dephased state = pz + |pz|
    coherent   = total - incoherent = |P| - |pz| >= 0

    (Allahverdyan, Balian and Nieuwenhuizen, EPL 67, 565 (2004).) p is a
    (..., 3) array of Bloch vectors, and each part an array over its leading
    axes: one numpy float64 for one vector.
    """
    pz, r = _pz_and_norm(p)
    clamp_spectrum(0.5 - r, "ergotropy")  # the lower eigenvalue 1/2 - |P|: P must lie in the Bloch ball
    return ErgotropyReport(total=pz + r, incoherent=pz + abs(pz), coherent=r - abs(pz))


def correlator_sets(joints: np.ndarray) -> list[list[float]]:
    """All nine same-axis expectation values of every medium (x) battery state
    in a (k, 4, 4) stack: the single-spin <sigma_M^j>, then <sigma_B^j>, then
    the pair correlators <sigma_M^j sigma_B^j>, each for j in (x, y, z).

    Each correlator is Tr[joint O], linear in the state, so one product with
    _CORRELATOR_ROWS gives all nine of every state without reduced states. The
    product is stacked row by row, so each state gets the same bits as alone.
    """
    joints = validate_density(joints, "correlator_sets")
    if joints.ndim != 3 or joints.shape[1:] != (4, 4):
        raise DimensionError(f"correlator_sets: expected a (k, 4, 4) stack, got shape {joints.shape}")
    return (joints.reshape(-1, 1, 16) @ _CORRELATOR_ROWS.T)[:, 0].real.tolist()


def _cholesky(a: np.ndarray) -> np.ndarray | None:
    """The lower Cholesky factor of a Hermitian matrix, or None where LAPACK
    finds it not positive definite."""
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return None


def concurrence(joint: np.ndarray) -> float:
    """Wootters concurrence of a two-qubit state, in [0, 1].

    C = max(0, l1 - l2 - l3 - l4), where the l_i are the descending square
    roots of the eigenvalues of rho rho_tilde, with rho_tilde = Y conj(rho) Y
    and Y = sy x sy (Wootters, PRL 80, 2245 (1998)). The routes, in order:

    - certificate: when rho is positive definite and so is its partial
      transpose rho^{T_B} (checked with margin by one Cholesky call on the
      pair of them, see _PPT_MARGIN), rho is separable (Peres, PRL 77, 1413
      (1996); Horodecki, Horodecki and Horodecki, PLA 223, 1 (1996)) and C is
      exactly 0.0; rho is in the pair, so no non-state is certified;
    - Cholesky factor: otherwise, for positive definite rho, B = cholesky(rho);
    - eigen factor: for singular or non-positive rho, B = v sqrt(w) from eigh,
      where clamp_spectrum rejects eigenvalues below PSD_CLAMP.

    So a certified state costs one Cholesky call, and any other state a
    second one on rho alone, then the svd.

    For any factor rho = B B^dagger, rho rho_tilde has the eigenvalues of
    M M^dagger with M = B^dagger Y conj(B) (Y is real and symmetric, and XZ
    has the eigenvalues of ZX), so l = svd(M). The code takes the singular
    values of conj(M) = B^T Y B, which are the same, without conjugating B.
    Taking singular values directly avoids square roots of eigenvalues near
    zero, which cost about 1e-8 of accuracy on pure states.
    """
    joint = validate_density(joint, "concurrence")
    if joint.shape != (4, 4):
        raise DimensionError(f"concurrence: expected a two-qubit state, got shape {joint.shape}")
    if _cholesky(joint.reshape(16)[_PAIR_INDEX] - _PPT_MARGIN) is not None:
        return 0.0
    factor = _cholesky(joint)  # succeeds only if lambda_min(rho) >= -10 eps, far above PSD_CLAMP
    if factor is None:
        w, v = np.linalg.eigh(joint)  # validate_density has checked hermiticity
        factor = v * np.sqrt(clamp_spectrum(w, caller="concurrence"))
    lams = np.linalg.svd(factor.T @ (_YY_SIGNS * factor[::-1]), compute_uv=False)
    return max(0.0, float(lams[0] - lams[1] - lams[2] - lams[3]))
