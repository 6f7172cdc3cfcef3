"""Self-check suite: oracle equivalence, channel/state invariants, and
diagnostic unit truths, all on deterministic pseudo-random draws.

The CLI `validate` command runs every check and reports a pass/fail table;
the same helpers back the acceptance tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .diagnostics import (
    Polarization,
    concurrence,
    ergotropy,
    mean_energy,
    polarization_vector,
    relative_entropy_of_coherence,
    von_neumann_entropy,
)
from .engine import (
    EngineConfig,
    NoiseConfig,
    closed_form_work,
    flip_flop_propagator,
    power_stroke,
    prepare_battery,
    prepare_hot_medium,
    reset_medium,
)
from .linalg import hermitian_eig, kron, partial_trace, trace
from .multicycle import dephase_battery, run_engine

DEFAULT_SEED = 20260809


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def random_polarization(rng: np.random.Generator, radius: float = 0.5) -> Polarization:
    """Uniform draw from the Bloch ball of the given radius."""
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    r = radius * rng.uniform() ** (1.0 / 3.0)
    return Polarization(*(r * direction))


def random_ideal_config(rng: np.random.Generator) -> EngineConfig:
    """Random parameters inside the closed-form regime: symmetric hot bath,
    pure-ground cold bath, theta in [0, pi], |p_mx| <= 1/2."""
    return EngineConfig(
        theta=float(rng.uniform(0.0, math.pi)),
        p_mx=float(rng.uniform(-0.5, 0.5)),
        hot_populations=(0.5, 0.5),
        cold_populations=(0.0, 1.0),
        battery_init=random_polarization(rng),
    )


def random_density(rng: np.random.Generator, dim: int, rank: int | None = None) -> np.ndarray:
    """Random density operator (Wishart construction); rank < dim gives
    singular states, rank 1 a pure state."""
    rank = dim if rank is None else rank
    x = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = x @ x.conj().T
    return rho / np.trace(rho).real


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (x + x.conj().T) / 2


def state_validity(rho: np.ndarray) -> tuple[float, float]:
    """(trace error, smallest eigenvalue) of a candidate density operator."""
    tr_err = abs(trace(rho) - 1.0)
    min_eig = float(hermitian_eig((rho + rho.conj().T) / 2).eigenvalues[0])
    return tr_err, min_eig


def max_oracle_gap(draws: int, seed: int = DEFAULT_SEED) -> float:
    """Largest |closed_form_work - simulated work| over random regime draws."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(draws):
        config = random_ideal_config(rng)
        record = run_engine(config).records[0]
        gap = abs(record.cycle_work - closed_form_work(config).total)
        worst = max(worst, gap)
    return worst


def chain_gap(config: EngineConfig) -> float:
    """Largest difference in work, cumulative work and battery polarization
    between run_engine(config) and config.cycles chained one-cycle runs, each
    started from the polarization the one before it ended with."""
    gaps = [0.0]
    start, cumulative = config.battery_init, 0.0
    for record in run_engine(config).records:
        step = run_engine(replace(config, cycles=1, battery_init=start)).records[0]
        start, cumulative = step.battery_polarization, cumulative + step.cycle_work
        gaps += [step.cycle_work - record.cycle_work, cumulative - record.cumulative_work]
        gaps += [a - b for a, b in zip(start, record.battery_polarization)]
    return max(map(abs, gaps))


def fuzz_stage_validity(applications: int, seed: int = DEFAULT_SEED) -> tuple[float, float]:
    """Chain random engine stages and track the worst trace error and the
    most negative eigenvalue ever produced."""
    rng = np.random.default_rng(seed)
    worst_tr = 0.0
    worst_eig = math.inf

    def fresh_qubit():
        # pure and singular states included so the PSD floor is exercised
        return random_density(rng, 2, rank=int(rng.integers(1, 3)))

    joint = kron(fresh_qubit(), fresh_qubit())
    done = 0
    while done < applications:
        # restart the chain now and then so early stages stay represented
        if rng.uniform() < 0.02:
            joint = random_density(rng, 4, rank=int(rng.integers(1, 5)))
        kind = rng.integers(0, 3)
        if kind == 0:
            joint = power_stroke(joint, float(rng.uniform(0.0, math.pi)))
        elif kind == 1:
            joint = reset_medium(joint, fresh_qubit())
        else:
            joint = dephase_battery(joint, float(rng.uniform(0.0, 1.0)))
        tr_err, min_eig = state_validity(joint)
        worst_tr = max(worst_tr, tr_err)
        worst_eig = min(worst_eig, min_eig)
        done += 1
    return worst_tr, worst_eig


def _bell_state() -> np.ndarray:
    psi = np.zeros(4, dtype=complex)
    psi[1] = 1.0 / math.sqrt(2.0)
    psi[2] = 1.0 / math.sqrt(2.0)
    return np.outer(psi, psi.conj())


def run_all_checks(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    checks: list[CheckResult] = []

    gap = max_oracle_gap(1000, seed)
    checks.append(
        CheckResult(
            "oracle_equivalence",
            gap < 1e-10,
            f"max |closed form - simulation| = {gap:.3e} over 1000 draws (tol 1e-10)",
        )
    )

    worst = 0.0
    for _ in range(200):
        config = random_ideal_config(rng)
        config = replace(config, battery_init=config.battery_init._replace(py=0.0))
        coh = run_engine(config).records[0]
        inc = run_engine(config.with_p_mx(0.0)).records[0]
        worst = max(worst, abs(coh.cycle_work - inc.cycle_work))
    checks.append(
        CheckResult(
            "classical_battery_first_cycle",
            worst < 1e-12,
            f"max coherent-incoherent work gap at p_by = 0: {worst:.3e} (tol 1e-12)",
        )
    )

    worst_uni = 0.0
    worst_sector = 0.0
    for _ in range(200):
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        u = flip_flop_propagator(theta)
        worst_uni = max(worst_uni, float(np.max(np.abs(u.conj().T @ u - np.eye(4)))))
        joint = random_density(rng, 4)
        out = power_stroke(joint, theta)
        worst_sector = max(
            worst_sector,
            abs(out[0, 0] - joint[0, 0]),
            abs(out[3, 3] - joint[3, 3]),
        )
    checks.append(
        CheckResult(
            "stroke_unitarity_and_sectors",
            worst_uni < 1e-12 and worst_sector < 1e-12,
            f"max |U+U - I| = {worst_uni:.3e}, max sector-population drift = {worst_sector:.3e}",
        )
    )

    worst = 0.0
    for _ in range(200):
        joint = random_density(rng, 4)
        before = partial_trace(joint, "battery")
        after = partial_trace(reset_medium(joint, random_density(rng, 2)), "battery")
        worst = max(worst, float(np.max(np.abs(after - before))))
    checks.append(
        CheckResult(
            "reset_preserves_battery",
            worst < 1e-12,
            f"max battery-marginal change across resets: {worst:.3e} (tol 1e-12)",
        )
    )

    tr_err, min_eig = fuzz_stage_validity(2000, seed)
    checks.append(
        CheckResult(
            "stage_validity_fuzz",
            tr_err < 1e-12 and min_eig > -1e-10,
            f"2000 stages: worst trace error {tr_err:.3e}, lowest eigenvalue {min_eig:.3e}",
        )
    )

    worst = 0.0
    for _ in range(50):
        a = random_density(rng, 2)
        b = random_density(rng, 2)
        worst = max(worst, float(np.max(np.abs(partial_trace(kron(a, b), "medium") - a))))
        worst = max(worst, float(np.max(np.abs(partial_trace(kron(a, b), "battery") - b))))
    checks.append(
        CheckResult(
            "partial_trace_identities",
            worst < 1e-12,
            f"max kron/partial-trace round-trip error: {worst:.3e}",
        )
    )

    worst_rec = 0.0
    worst_uni = 0.0
    for _ in range(200):
        dim = int(rng.choice([2, 4]))
        h = random_hermitian(rng, dim)
        w, v = hermitian_eig(h)
        worst_rec = max(worst_rec, float(np.max(np.abs((v * w) @ v.conj().T - h))))
        worst_uni = max(worst_uni, float(np.max(np.abs(v.conj().T @ v - np.eye(dim)))))
    checks.append(
        CheckResult(
            "eigensolver_residual",
            worst_rec < 1e-12 and worst_uni < 1e-12,
            f"max reconstruction {worst_rec:.3e}, max unitarity defect {worst_uni:.3e}",
        )
    )

    bell = _bell_state()
    product = kron(random_density(rng, 2), random_density(rng, 2))
    werner = 0.5 * bell + 0.5 * np.eye(4) / 4.0
    plus = prepare_battery(Polarization(0.5, 0.0, 0.0))
    ergo_plus = ergotropy(plus)
    unit_truths = [
        ("concurrence(Bell)", abs(concurrence(bell) - 1.0), 1e-10),
        ("concurrence(product)", concurrence(product), 1e-10),
        ("concurrence(Werner 1/2)", abs(concurrence(werner) - 0.25), 1e-10),
        ("ergotropy(|+>).total", abs(ergo_plus.total - 0.5), 1e-12),
        ("ergotropy(|+>).coherent", abs(ergo_plus.coherent - 0.5), 1e-12),
        ("C_B(|+>)", abs(relative_entropy_of_coherence(plus) - math.log(2.0)), 1e-12),
        ("S(I/2)", abs(von_neumann_entropy(np.eye(2) / 2) - math.log(2.0)), 1e-12),
    ]
    failed = [name for name, err, tol in unit_truths if err > tol]
    worst_truth = max(err for _, err, _ in unit_truths)
    checks.append(
        CheckResult(
            "diagnostics_unit_truths",
            not failed,
            f"worst deviation {worst_truth:.3e}"
            + (f"; failed: {', '.join(failed)}" if failed else ""),
        )
    )

    worst = 0.0
    for _ in range(20):
        noise = NoiseConfig(*(float(x) for x in rng.uniform(size=2)))
        worst = max(worst, chain_gap(replace(random_ideal_config(rng), noise=noise, cycles=3)))
    checks.append(
        CheckResult(
            "single_vs_multi_cycle",
            worst < 1e-12,
            f"max 3-cycle trace vs chained one-cycle runs gap: {worst:.3e} "
            "over 20 noisy draws (tol 1e-12)",
        )
    )

    mixed = np.eye(2, dtype=complex) / 2
    roundtrip = polarization_vector(prepare_battery(Polarization(0.1, -0.2, 0.3)))
    pol_err = max(
        abs(roundtrip.px - 0.1), abs(roundtrip.py + 0.2), abs(roundtrip.pz - 0.3)
    )
    energy_err = abs(mean_energy(mixed))
    hot = prepare_hot_medium(0.5, (0.5, 0.5))
    hot_err = float(np.max(np.abs(hot - np.array([[0.5, 0.5], [0.5, 0.5]]))))
    worst = max(pol_err, energy_err, hot_err)
    checks.append(
        CheckResult(
            "state_preparation_roundtrip",
            worst < 1e-12,
            f"max preparation/readout deviation: {worst:.3e}",
        )
    )

    return checks
