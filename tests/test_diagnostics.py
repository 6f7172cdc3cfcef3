import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from spinotto import diagnostics, engine
from spinotto.diagnostics import (
    bloch_vectors,
    concurrence,
    correlator_sets,
    ergotropy,
    mean_energy,
    polarization_vector,
    relative_entropy_of_coherence,
    von_neumann_entropy,
)
from spinotto.engine import ConfigBatch, EngineConfig, prepare_battery, reset_medium
from spinotto.linalg import PAULI, DimensionError, ValidationError, kron, partial_trace
from spinotto.multicycle import dephase_battery, run_engines
from spinotto.scenario import PRESETS
from spinotto.validate import random_density

MIXED = np.eye(2, dtype=complex) / 2
GROUND = np.diag([0.0, 1.0]).astype(complex)
EXCITED = np.diag([1.0, 0.0]).astype(complex)
PLUS_X = 0.5 * np.eye(2) + 0.5 * PAULI[1]


def norm(p) -> float:
    """|P| by the package's one formula, the one the engine and the record columns use."""
    return float(diagnostics._pz_and_norm(p)[1])


def bell_state():
    psi = np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2)
    return np.outer(psi, psi.conj())


def correlators(joint):
    """The nine correlators of one two-qubit state, in correlator_sets order."""
    return correlator_sets(joint[np.newaxis])[0]


def random_unitary(rng, dim):
    # Haar-random: QR of a complex Gaussian matrix with the phases of R removed
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    d = np.diag(r)
    return q * (d / np.abs(d))


def bloch_state(p):
    return 0.5 * np.eye(2) + p[0] * PAULI[1] + p[1] * PAULI[2] + p[2] * PAULI[3]


def oracle_states():
    """Pure (|P| = 1/2), maximally mixed, z-diagonal and random qubit states."""
    rng = np.random.default_rng(11)
    states = [MIXED, GROUND, EXCITED, PLUS_X, np.diag([0.03, 0.97]), np.diag([0.7, 0.3])]
    for _ in range(50):
        direction = rng.normal(size=3)
        states.append(bloch_state(0.5 * direction / np.linalg.norm(direction)))
        a = rng.uniform()
        states.append(np.diag([a, 1.0 - a]).astype(complex))
        states.append(random_density(rng, 2))
    return states


def entropy_of(probs):
    return -sum(p * math.log(p) for p in probs if p > 0.0)


def energy(rho):
    return 0.5 * float(np.real(rho[0, 0] - rho[1, 1]))


def eigen_oracle(rho):
    """Ergotropy split, passive state and entropies from an eigendecomposition:
    the general computation that the qubit closed forms replace."""
    w = np.linalg.eigvalsh(rho)  # ascending: the larger weight goes to the ground level
    passive = np.diag(w).astype(complex)
    dephased = np.diag(np.real(np.diag(rho)))
    total = energy(rho) - energy(passive)
    incoherent = energy(dephased) - energy(np.diag(np.sort(np.diag(dephased))))
    return {
        "total": total,
        "incoherent": incoherent,
        "coherent": total - incoherent,
        "passive": passive,
        "entropy": entropy_of(w),
        "coherence": entropy_of(np.diag(dephased)) - entropy_of(w),
    }


def test_polarization_vector_cases():
    p = polarization_vector(MIXED)
    assert p.shape == (3,) and p.dtype == float and p.tolist() == [0.0, 0.0, 0.0]
    p = polarization_vector(0.5 * np.eye(2) + 0.5 * PAULI[2])
    assert abs(p[1] - 0.5) < 1e-15 and abs(p[0]) < 1e-15 and abs(p[2]) < 1e-15
    assert polarization_vector(GROUND)[2] == pytest.approx(-0.5, abs=1e-15)
    assert type(mean_energy(GROUND)) is float


def test_polarization_roundtrip_with_preparation():
    rng = np.random.default_rng(0)
    draws = []
    for _ in range(20):
        v = rng.normal(size=3)
        v *= rng.uniform(0, 0.5) / np.linalg.norm(v)
        draws.append(tuple(v))
    states = prepare_battery(ConfigBatch.of([EngineConfig(battery_init=p) for p in draws]))
    for p, rho in zip(draws, states, strict=True):
        back = polarization_vector(rho)
        assert max(abs(a - b) for a, b in zip(p, back)) < 1e-14


def test_mean_energy():
    assert mean_energy(MIXED) == pytest.approx(0.0, abs=1e-15)
    assert mean_energy(EXCITED) == pytest.approx(0.5, abs=1e-15)
    for pz in (-0.4, 0.0, 0.25):
        rho = 0.5 * np.eye(2) + pz * PAULI[3]
        assert mean_energy(rho) == pytest.approx(pz, abs=1e-15)


def test_von_neumann_entropy():
    assert von_neumann_entropy(GROUND) == pytest.approx(0.0, abs=1e-12)
    assert von_neumann_entropy(MIXED) == pytest.approx(math.log(2), abs=1e-12)
    # scalar evaluation of the two-outcome entropy
    expected = -0.03 * math.log(0.03) - 0.97 * math.log(0.97)
    assert von_neumann_entropy(np.diag([0.03, 0.97])) == pytest.approx(expected, abs=1e-12)
    # a two-qubit state's spectrum is checked by the entropy's own clamp
    assert von_neumann_entropy(np.eye(4) / 4) == pytest.approx(math.log(4), abs=1e-12)
    with pytest.raises(ValidationError, match="^von_neumann_entropy: eigenvalue -5.000e-01 below"):
        von_neumann_entropy(np.diag([0.5, 0.5, 0.5, -0.5]))


def test_relative_entropy_of_coherence():
    assert relative_entropy_of_coherence(polarization_vector(np.diag([0.3, 0.7]))) == pytest.approx(0.0, abs=1e-12)
    assert relative_entropy_of_coherence(polarization_vector(PLUS_X)) == pytest.approx(math.log(2), abs=1e-12)
    # rho = I/2 + 0.3 sx has eigenvalues 0.8 and 0.2; its diagonal is I/2
    rho = 0.5 * np.eye(2) + 0.3 * PAULI[1]
    expected = math.log(2) - (-0.8 * math.log(0.8) - 0.2 * math.log(0.2))
    got = relative_entropy_of_coherence(polarization_vector(rho))
    assert got == pytest.approx(expected, abs=1e-12)
    assert got >= 0.0


def test_relative_entropy_of_coherence_nonnegative():
    rng = np.random.default_rng(1)
    for _ in range(50):
        assert relative_entropy_of_coherence(polarization_vector(random_density(rng, 2))) >= -1e-14


def test_ergotropy_cases():
    report = ergotropy(polarization_vector(np.diag([0.2, 0.8])))
    assert report.total == pytest.approx(0.0, abs=1e-13)

    report = ergotropy(polarization_vector(EXCITED))
    assert report.total == pytest.approx(1.0, abs=1e-13)
    assert report.coherent == pytest.approx(0.0, abs=1e-13)

    # pure |+x>: dephased state is I/2 (passive), so everything is coherent
    report = ergotropy(polarization_vector(PLUS_X))
    assert report.total == pytest.approx(0.5, abs=1e-12)
    assert report.incoherent == pytest.approx(0.0, abs=1e-12)
    assert report.coherent == pytest.approx(0.5, abs=1e-12)


def test_ergotropy_invariants():
    rng = np.random.default_rng(3)
    for _ in range(50):
        rho = random_density(rng, 2)
        report = ergotropy(polarization_vector(rho))
        assert report.total >= -1e-13
        assert report.coherent >= -1e-13
        assert report.total == pytest.approx(report.incoherent + report.coherent, abs=1e-12)
        # the passive state diag(1/2 - |P|, 1/2 + |P|) has energy -|P|
        assert report.total == pytest.approx(
            mean_energy(rho) + norm(polarization_vector(rho)), abs=1e-12
        )
        # diagonal states carry no coherent ergotropy
        assert ergotropy(polarization_vector(np.diag(np.diag(rho)))).coherent == pytest.approx(0.0, abs=1e-13)


def test_correlators_product_of_mixed():
    out = correlators(kron(MIXED, MIXED))
    assert all(abs(x) < 1e-14 for x in out)


def test_correlators_bell():
    out = correlators(bell_state())
    assert out[6] == pytest.approx(1.0, abs=1e-12)
    assert out[7] == pytest.approx(1.0, abs=1e-12)
    assert out[8] == pytest.approx(-1.0, abs=1e-12)


def test_correlators_factorize_on_products():
    rng = np.random.default_rng(4)
    for _ in range(30):
        a = random_density(rng, 2)
        b = random_density(rng, 2)
        out = correlators(kron(a, b))
        for j in range(3):
            assert out[6 + j] == pytest.approx(out[j] * out[3 + j], abs=1e-12)
        for x in out:
            assert -1 - 1e-12 <= x <= 1 + 1e-12


def test_correlators_and_bloch_match_trace_oracle():
    # correlated states, full-rank and pure; the medium is the left factor
    rng = np.random.default_rng(12)
    eye = np.eye(2)
    sigma = PAULI[1:]
    ops = (
        [np.kron(s, eye) for s in sigma]
        + [np.kron(eye, s) for s in sigma]
        + [np.kron(s, s) for s in sigma]
    )
    for _ in range(100):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        for joint in (random_density(rng, 4), np.outer(psi, psi.conj())):
            got = correlators(joint)
            for value, op in zip(got, ops):
                assert abs(value - np.trace(joint @ op).real) <= 1e-15
        rho = random_density(rng, 2)
        want = [0.5 * float(np.trace(rho @ s).real) for s in sigma]
        assert polarization_vector(rho).tolist() == want


def test_stacked_readouts_equal_single_state_calls():
    rng = np.random.default_rng(13)
    joints = np.array([random_density(rng, 4) for _ in range(8)])
    assert correlator_sets(joints) == [correlators(j) for j in joints]
    qubits = np.array([random_density(rng, 2) for _ in range(8)])
    assert bloch_vectors(qubits).tolist() == [list(polarization_vector(q)) for q in qubits]
    with pytest.raises(DimensionError):
        correlator_sets(qubits)
    with pytest.raises(DimensionError):
        bloch_vectors(joints)
    with pytest.raises(ValidationError):
        bloch_vectors(np.array([MIXED, np.diag([1.5, -0.5])]))


def spectrum_entropy(r):
    """The entropy of the spectrum 1/2 -+ r as the numpy path computed it."""
    w = np.maximum(np.array([0.5 - r, 0.5 + r]), 0.0)
    return float(-sum(p * math.log(p) for p in w if p > 0.0))


def test_coherence_keeps_the_spectrum_path_bit_for_bit():
    rng = np.random.default_rng(14)
    points = [0.5 * v / np.linalg.norm(v) for v in rng.normal(size=(50, 3))]
    points += [r * 0.5 * v / np.linalg.norm(v) for r, v in zip(rng.uniform(size=200), rng.normal(size=(200, 3)))]
    points += [np.array(p) for p in ((0.0, 0.0, 0.0), (0.0, 0.0, -0.5), (0.5, 0.0, 0.0))]
    # math.sqrt of the px**2 + py**2 + pz**2 in Python floats gives 0.46534177763744267 here, one ulp above |P|
    points += [np.array([-0.129839106868464, -0.28641816635184886, -0.3430005981423638])]
    for p in points:
        assert relative_entropy_of_coherence(p) == spectrum_entropy(abs(p[2])) - spectrum_entropy(norm(p))
    relative_entropy_of_coherence(np.array([0.5 + 0.9e-10, 0.0, 0.0]))  # within the PSD clamp
    with pytest.raises(ValidationError, match="^relative_entropy_of_coherence: eigenvalue"):
        relative_entropy_of_coherence(np.array([0.5 + 1.1e-10, 0.0, 0.0]))


def stack_draws() -> np.ndarray:
    """Bloch vectors from the ball and its surface, P = 0, pz = 0 and signed zeros, as a (k, 3) stack."""
    rng = np.random.default_rng(24)
    direction = rng.normal(size=(600, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    ball = 0.5 * rng.uniform(size=(300, 1)) ** (1 / 3) * direction[:300]
    surface = 0.5 * direction[300:]  # |P| = 1/2 up to rounding
    equator = np.column_stack([ball[:20, :2], np.zeros(20)])  # pz = 0
    zeros = [(x, y, z) for x in (0.0, -0.0) for y in (0.0, -0.0) for z in (0.0, -0.0, 0.5, -0.5)]
    return np.vstack([ball, surface, equator, zeros])


# Both paths evaluate one formula, so they can differ only where np.log of a
# stack and of one pair round differently. Each of the four terms p ln p is at
# most 1/e < ln 2 in size, so a last-bit difference moves it by at most one
# ulp of ln 2, and each of the three sums and differences after it may round
# the other way once more: 7 ulp of ln 2, taken as 8. Largest gap seen: 0.0
# over these 636 draws (numpy 2.4.6, x86-64 with AVX-512).
COHERENCE_STACK_TOL = 8 * np.spacing(math.log(2.0))


def test_diagnostics_of_a_stack_match_one_vector_at_a_time():
    stack = stack_draws()
    report, coherence = ergotropy(stack), relative_entropy_of_coherence(stack)
    assert all(column.shape == (len(stack),) for column in report) and coherence.shape == (len(stack),)
    for j, row in enumerate(stack.tolist()):
        p = np.array(row)
        assert np.array(ergotropy(p)).tobytes() == np.array([column[j] for column in report]).tobytes(), row
        assert abs(relative_entropy_of_coherence(p) - coherence[j]) <= COHERENCE_STACK_TOL, row
    # any leading axes: a (2, k/2, 3) stack gives the same numbers in the same shape
    folded = stack.reshape(2, -1, 3)
    assert np.array_equal(ergotropy(folded), np.array(report).reshape(3, 2, -1))
    assert np.array_equal(relative_entropy_of_coherence(folded), coherence.reshape(2, -1))


def test_a_stack_with_one_row_outside_the_ball_is_rejected():
    stack = stack_draws()
    stack[7] = (0.5 + 0.9e-10, 0.0, 0.0)  # within the PSD clamp
    relative_entropy_of_coherence(stack)
    stack[7] = (0.5 + 1.1e-10, 0.0, 0.0)
    with pytest.raises(ValidationError, match="^relative_entropy_of_coherence: eigenvalue -1.100e-10 below"):
        relative_entropy_of_coherence(stack)
    # ergotropy once returned total 0.6 for P = (0.6, 0, 0); the two record columns accept the same P
    stack[7] = (0.5 + 0.9e-10, 0.0, 0.0)
    ergotropy(stack)
    stack[7] = (0.5 + 1.1e-10, 0.0, 0.0)
    rule = r"eigenvalue -1\.100e-10 below the PSD tolerance -1e-10$"
    with pytest.raises(ValidationError, match="^ergotropy: " + rule):
        ergotropy(stack)


@pytest.mark.parametrize("diagnostic", [ergotropy, relative_entropy_of_coherence])
@pytest.mark.parametrize("row", [(np.nan, 0.0, 0.0), (0.0, 0.0, np.nan)])
def test_a_nan_bloch_vector_is_rejected(diagnostic, row):
    # P = (nan, 0, 0) once gave an ergotropy total and a coherence of nan
    stack = stack_draws()
    stack[7] = row
    rule = f"^{diagnostic.__name__}: eigenvalue nan below the PSD tolerance"
    for p in (np.array(row), stack):
        with pytest.raises(ValidationError, match=rule):
            diagnostic(p)


@pytest.mark.parametrize("diagnostic, stack", [
    (bloch_vectors, np.zeros((0, 2, 2))),
    (ergotropy, np.zeros((0, 3))),
    (relative_entropy_of_coherence, np.zeros((0, 3))),
    (correlator_sets, np.zeros((0, 4, 4))),
], ids=["bloch_vectors", "ergotropy", "relative_entropy_of_coherence", "correlator_sets"])
def test_an_empty_stack_gives_an_empty_result(diagnostic, stack):
    # a (0, ...) stack once raised numpy's bare "zero-size array to reduction
    # operation" ValueError from validate_density or clamp_spectrum
    result = diagnostic(stack)
    parts = result if isinstance(result, tuple) else (result,)
    assert [len(np.asarray(part)) for part in parts] == [0] * len(parts)


def test_zero_probabilities_raise_no_warning():
    # pure states have the eigenvalue 0 and z-polarized ones a dephased one: 0 ln 0 = 0, silently
    pure = np.array([[0.0, 0.0, 0.5], [0.0, 0.0, -0.5], [0.5, 0.0, 0.0], [0.0, -0.5, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        coherence = relative_entropy_of_coherence(pure)
        report = ergotropy(pure)
        assert von_neumann_entropy(GROUND) == 0.0
    assert coherence.tolist() == pytest.approx([0.0, 0.0, math.log(2.0), math.log(2.0)], abs=1e-15)
    assert np.array_equal(report.total, [1.0, 0.0, 0.5, 0.5])


def test_concurrence_product_states():
    rng = np.random.default_rng(5)
    for _ in range(20):
        joint = kron(random_density(rng, 2), random_density(rng, 2))
        assert concurrence(joint) < 1e-10


def test_concurrence_bell():
    assert concurrence(bell_state()) == pytest.approx(1.0, abs=1e-10)


def test_concurrence_werner():
    # known closed form C = max(0, (3p - 1)/2) for p Bell + (1 - p) I/4
    for p, expected in ((0.5, 0.25), (0.2, 0.0), (0.9, 0.85)):
        werner = p * bell_state() + (1 - p) * np.eye(4) / 4
        assert concurrence(werner) == pytest.approx(expected, abs=1e-10)


def test_concurrence_local_unitary_invariance():
    rng = np.random.default_rng(6)
    for _ in range(20):
        rho = random_density(rng, 4)
        u = kron(random_unitary(rng, 2), random_unitary(rng, 2))
        rotated = u @ rho @ u.conj().T
        assert concurrence(rotated) == pytest.approx(concurrence(rho), abs=1e-10)


def test_concurrence_range():
    rng = np.random.default_rng(7)
    for _ in range(30):
        c = concurrence(random_density(rng, 4))
        assert 0.0 <= c <= 1.0 + 1e-12


def test_closed_forms_match_eigen_oracle():
    # linear in the spectrum: a few ulps; entropies: log near p = 0 loses more
    for rho in oracle_states():
        want = eigen_oracle(rho)
        report = ergotropy(polarization_vector(rho))
        assert abs(report.total - want["total"]) <= 1e-14
        assert abs(report.incoherent - want["incoherent"]) <= 1e-14
        assert abs(report.coherent - want["coherent"]) <= 1e-14
        assert abs(-norm(polarization_vector(rho)) - energy(want["passive"])) <= 1e-14
        assert abs(von_neumann_entropy(rho) - want["entropy"]) <= 1e-12
        assert abs(relative_entropy_of_coherence(polarization_vector(rho)) - want["coherence"]) <= 1e-12


def test_qubit_diagnostics_reject_other_states():
    # ergotropy and coherence take the Bloch vector polarization_vector checks
    for fn in (polarization_vector, mean_energy):
        with pytest.raises(DimensionError):
            fn(np.eye(4) / 4)
        with pytest.raises(ValidationError):
            fn(np.diag([1.5, -0.5]))  # |P| = 1: eigenvalue -1/2


@pytest.mark.parametrize(
    "state",
    [np.array([[0.5, 0.3], [0.0, 0.5]]), np.eye(2), np.diag([1.0 + 1e-9, -1e-9])],
    ids=["not-hermitian", "trace-2", "non-positive"],
)
@pytest.mark.parametrize(
    "call, name",
    [
        (lambda rho: bloch_vectors(rho[None]), "bloch_vectors"),
        (polarization_vector, "bloch_vectors"),  # bloch_vectors of a one-state stack
        (mean_energy, "bloch_vectors"),
        (von_neumann_entropy, "von_neumann_entropy"),
    ],
    ids=["bloch_vectors", "polarization_vector", "mean_energy", "von_neumann_entropy"],
)
def test_a_rejected_state_names_the_function_that_checked_it(call, name, state):
    rejections = (r"density operator (is not Hermitian|trace 2\S* differs from 1)"
                  r"|eigenvalue -1\.000e-09 below the PSD tolerance -1e-10")
    with pytest.raises(ValidationError, match=rf"^{name}: ({rejections})$"):
        call(state)


TWO_MIXED = np.array([np.eye(4) / 4] * 2)  # two two-qubit states


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: dephase_battery(MIXED, 0.5), "dephase_battery"),
        (lambda: reset_medium(np.eye(8) / 8, MIXED), "reset_medium"),
        (lambda: polarization_vector(np.eye(4) / 4), "polarization_vector"),
        (lambda: bloch_vectors(TWO_MIXED), "bloch_vectors"),
        (lambda: correlator_sets(MIXED[None]), "correlator_sets"),
        (lambda: concurrence(MIXED), "concurrence"),
        (lambda: partial_trace(MIXED, "battery"), "partial_trace"),
        (lambda: kron(np.ones(3), MIXED), "kron"),
        (lambda: kron(MIXED, np.ones(3)), "kron"),
        (lambda: partial_trace(np.ones(3), "battery"), "partial_trace"),
    ],
    ids=["dephase_battery-qubit", "reset_medium", "polarization_vector", "bloch_vectors",
         "correlator_sets", "concurrence", "partial_trace", "kron-left", "kron-right",
         "partial_trace-not-square"],
)
def test_every_shape_error_names_its_function(call, name):
    with pytest.raises(DimensionError, match=rf"^{name}: "):
        call()


def test_concurrence_pure_states_exact():
    # C(|psi><psi|) = |psi^T (sy x sy) psi| for every pure two-qubit state
    rng = np.random.default_rng(8)
    yy = kron(PAULI[2], PAULI[2])
    for _ in range(200):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        expected = abs(psi @ yy @ psi)
        assert abs(concurrence(np.outer(psi, psi.conj())) - expected) <= 1e-13


YY = kron(PAULI[2], PAULI[2])
EPS = np.finfo(float).eps


def partial_transpose(rho):
    """rho^{T_B}: the transpose of the battery (right) factor."""
    return rho.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


def test_concurrence_names_itself_when_positivity_fails():
    # rho has the eigenvalue 0.35 - 0.4 = -0.05 along the Bell state, while its
    # partial transpose, 0.35 I - 0.4 SWAP/2, has the eigenvalues 0.15 and
    # 0.55: positive definite, so a separability certificate tried before the
    # positivity check would return 0 for this non-state
    rho = 1.4 * np.eye(4) / 4 - 0.4 * bell_state()
    np.linalg.cholesky(partial_transpose(rho))
    with pytest.raises(ValidationError, match=r"^concurrence: eigenvalue -5\.000e-02 below"):
        concurrence(rho)


def wootters_oracle(rho):
    """Textbook Wootters concurrence and a bound on its own rounding error.

    The l_i are the square roots of the eigenvalues mu_i of
    R = sqrt(rho) rho_tilde sqrt(rho), with sqrt(rho) from eigh. R has norm
    <= 1, and its computed mu_i carry absolute errors of order eps: directly
    from the products and eigvalsh, and at second order from the O(sqrt(eps))
    error that clamping leaves in sqrt(rho) along its null space. With
    d = 16 eps, l_i = sqrt(mu_i) then errs by at most about d / (l_i + sqrt(d)):
    d / (2 l_i) for l_i >> sqrt(d), and sqrt(d) ~ 6e-8 for l_i ~ 0, the
    conditioning of a square root at zero. C errs by at most their sum.
    """
    w, v = np.linalg.eigh(rho)
    root = (v * np.sqrt(np.maximum(w, 0.0))) @ v.conj().T
    mu = np.linalg.eigvalsh(root @ YY @ rho.conj() @ YY @ root)[::-1]
    lams = np.sqrt(np.maximum(mu, 0.0))
    d = 16 * EPS
    return max(0.0, lams[0] - lams[1:].sum()), sum(d / (lam + math.sqrt(d)) for lam in lams)


def post_stroke_states(monkeypatch, configs):
    """Every post-stroke state that run_engines passes to concurrence."""
    states = []
    monkeypatch.setattr(engine, "concurrence", lambda joint: states.append(joint) or concurrence(joint))
    run_engines(configs)
    return states


def concurrence_families(monkeypatch):
    """Random states of each rank, product states, and the post-stroke states
    of fig3 and of a noisy compare, each with its p_mx = 0 twin."""
    rng = np.random.default_rng(15)
    fig3 = PRESETS["fig3"]().engine
    noisy = EngineConfig(theta=0.7, p_mx=0.4, battery_init=(0.2, 0.1, -0.3), battery_dephasing_per_reset=0.9,
                         battery_t2_per_cycle=0.8, cycles=40)
    families = {
        f"rank {rank}": [random_density(rng, 4, rank) for _ in range(100)] for rank in (1, 2, 3, 4)
    }
    families["product"] = [kron(random_density(rng, 2), random_density(rng, 2)) for _ in range(50)]
    families["fig3"] = post_stroke_states(monkeypatch, [fig3, replace(fig3, p_mx=0.0)])
    families["noisy compare"] = post_stroke_states(monkeypatch, [noisy, replace(noisy, p_mx=0.0)])
    return families


def test_concurrence_matches_textbook_wootters(monkeypatch):
    families = concurrence_families(monkeypatch)

    # the separability certificate is the first _cholesky call, on the pair
    # [rho, rho^{T_B} - 64 eps I]; it ends the call when it factors
    factored = []
    cholesky = diagnostics._cholesky

    def spy(a):
        factor = cholesky(a)
        factored.append((np.shape(a), factor is not None))
        return factor

    monkeypatch.setattr(diagnostics, "_cholesky", spy)
    for name, states in families.items():
        certified = 0
        for rho in states:
            factored.clear()
            got = concurrence(rho)
            want, tol = wootters_oracle(rho)
            assert abs(got - want) <= tol, (name, got, want, tol)
            if factored == [((2, 4, 4), True)]:
                certified += 1
                assert got == 0.0 and want <= tol, (name, want)
                assert np.linalg.eigvalsh(partial_transpose(rho))[0] > 0.0, name
        if name in ("product", "fig3", "noisy compare"):
            assert certified > 0, name


def test_the_pair_certifies_exactly_when_both_factors_exist(monkeypatch):
    # LAPACK factors each matrix of the stacked call on its own, so the pair
    # factors exactly when rho and rho^{T_B} - 64 eps I each factor alone
    families = concurrence_families(monkeypatch)
    margin = 64 * EPS * np.eye(4)
    cholesky = np.linalg.cholesky
    calls = []
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(np.shape(a)) or cholesky(a))
    outcomes = set()
    for name, states in families.items():
        for rho in states:
            alone = [diagnostics._cholesky(m) is not None for m in (rho, partial_transpose(rho) - margin)]
            calls.clear()
            got = concurrence(rho)
            # a certified state makes exactly one Cholesky call, any other a second one on rho alone
            assert calls == ([(2, 4, 4)] if all(alone) else [(2, 4, 4), (4, 4)]), (name, calls, alone)
            assert got == 0.0 or not all(alone), (name, got)
            outcomes.add(all(alone))
    assert outcomes == {True, False}


@pytest.mark.parametrize("offset", [1e-3, 1e-6, 1e-9])
def test_concurrence_werner_at_the_separability_edge(offset):
    # C = max(0, (3p - 1)/2) for p Bell + (1 - p) I/4; at p < 1/3 the partial
    # transpose has the smallest eigenvalue (1 - 3p)/4 > 0, so the certificate
    # returns an exact 0
    for p in (1 / 3 - offset, 1 / 3 + offset):
        werner = p * bell_state() + (1 - p) * np.eye(4) / 4
        want, tol = wootters_oracle(werner)
        got = concurrence(werner)
        assert abs(got - want) <= tol
        if p < 1 / 3:
            assert got == 0.0
        else:
            assert abs(got - (3 * p - 1) / 2) <= 1e-12
