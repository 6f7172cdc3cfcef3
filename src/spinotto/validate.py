"""Self-check suite: oracle equivalence, channel/state invariants, and
diagnostic unit truths, all on deterministic pseudo-random draws.

The CLI `validate` command runs every check and reports a pass/fail table;
the same helpers back the acceptance tests.

What each check compares:
- oracle_equivalence: the first-cycle work W_1 = (A P_0 + b)_z - P_0,z read
  off stacked cycle maps (multicycle.cycle_map) against closed_form_work, the
  analytic formula of the ideal regime;
- classical_battery_first_cycle: W_1 from stacked cycle maps of a config with
  p_by = 0 against W_1 of its p_mx = 0 twin (no coherence cross term);
- map_vs_stage_loop: run_engines, which iterates stacked affine cycle maps,
  against loop_engine, which pushes one joint state through every stage of
  every cycle, on every record field and the final joint state;
- stroke_unitarity_and_sectors, reset_preserves_battery,
  partial_trace_identities and stage_validity_fuzz test invariants of single
  stages and of chains of them;
- cycle_is_completely_positive: the Choi matrix of the battery channel that
  stacked cycle maps give is positive semidefinite on random noisy configs;
- diagnostics_unit_truths and state_preparation_roundtrip compare the
  diagnostics and preparations with known values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .diagnostics import (
    Polarization,
    concurrence,
    correlator_sets,
    ergotropy,
    mean_energy,
    polarization_vector,
    relative_entropy_of_coherence,
    von_neumann_entropy,
)
from .engine import (
    CycleRecord,
    EngineConfig,
    NoiseConfig,
    closed_form_work,
    flip_flop_propagator,
    make_cycle_record,
    power_stroke,
    prepare_battery,
    prepare_cold_medium,
    prepare_hot_medium,
    reset_medium,
)
from .linalg import kron, partial_trace, pauli
from .multicycle import MAP_BLOCK, EngineTrace, cycle_map, dephase_battery, run_engines
from .output import TRACE_COLUMNS, record_row

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


def random_noisy_config(rng: np.random.Generator, cycles: int) -> EngineConfig:
    """Random parameters anywhere in the engine's domain: any hot and cold
    bath, a separate compression angle and both dephasing channels."""
    p0, q0 = (float(x) for x in rng.uniform(size=2))
    bound = math.sqrt(p0 * (1.0 - p0))
    return EngineConfig(
        theta=float(rng.uniform(0.0, math.pi)),
        theta_compression=float(rng.uniform(0.0, math.pi)),
        p_mx=float(rng.uniform(-bound, bound)),
        hot_populations=(p0, 1.0 - p0),
        cold_populations=(q0, 1.0 - q0),
        battery_init=random_polarization(rng),
        noise=NoiseConfig(*(float(x) for x in rng.uniform(size=2))),
        cycles=cycles,
    )


def random_density(rng: np.random.Generator, dim: int, rank: int | None = None) -> np.ndarray:
    """Random density operator (Wishart construction); rank < dim gives
    singular states, rank 1 a pure state."""
    rank = dim if rank is None else rank
    x = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = x @ x.conj().T
    return rho / np.trace(rho).real


def state_validity(rho: np.ndarray) -> tuple[float, float]:
    """(largest trace error, smallest eigenvalue) over a candidate density
    operator or a stack of them."""
    tr_err = np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0)
    hermitian_part = rho.conj().swapaxes(-1, -2)  # a copy, updated in place below
    hermitian_part += rho
    hermitian_part /= 2  # Hermitian bit for bit, so eigh needs no guard
    return float(tr_err.max()), float(np.linalg.eigh(hermitian_part)[0][..., 0].min())


def first_cycle_work(configs: Sequence[EngineConfig]) -> np.ndarray:
    """First-cycle work W_1 = (A P_0 + b)_z - P_0,z of every config, with P_0
    its battery_init, read off one stacked cycle map per MAP_BLOCK configs."""
    work = np.empty(len(configs))
    for start in range(0, len(configs), MAP_BLOCK):
        block = configs[start:start + MAP_BLOCK]
        cmap = cycle_map(block)
        p0 = np.array([c.battery_init for c in block])
        work[start:start + len(block)] = (
            np.einsum("kj,kj->k", cmap.A[:, 2], p0) + cmap.b[:, 2] - p0[:, 2]
        )
    return work


# sigma_mu for mu = 0..3: the identity, then x, y and z.
_PAULI_BASIS = np.array([pauli(axis) for axis in ("identity", "x", "y", "z")])


def choi_negativity(configs: Sequence[EngineConfig]) -> float:
    """Largest max(0, -lambda_min) over the Choi matrices of the battery
    channels of one cycle of every config.

    The cycle maps the battery Bloch vector P -> A P + b, so its channel Phi
    takes I to I + 2 b.sigma and sigma_j to sum_k A_kj sigma_k. Phi is
    completely positive exactly when its Choi matrix
    J = 1/2 sum_mu conj(sigma_mu) (x) Phi(sigma_mu) is positive semidefinite
    (Ruskai, Szarek and Werner, Lin. Alg. Appl. 347, 159 (2002)). A and b come
    from one stacked cycle map per MAP_BLOCK configs; one eigvalsh takes every J.
    """
    maps = [cycle_map(configs[start:start + MAP_BLOCK])[:2] for start in range(0, len(configs), MAP_BLOCK)]
    A, b = (np.concatenate(parts) for parts in zip(*maps))
    images = np.empty((len(configs), 4, 2, 2), dtype=complex)  # Phi(sigma_mu)
    images[:, 0] = _PAULI_BASIS[0] + 2 * np.einsum("kj,jab->kab", b, _PAULI_BASIS[1:])
    images[:, 1:] = np.einsum("kij,iab->kjab", A, _PAULI_BASIS[1:])
    choi = 0.5 * kron(_PAULI_BASIS.conj(), images).sum(axis=1)
    return max(0.0, -float(np.linalg.eigvalsh(choi)[:, 0].min()))


def max_oracle_gap(draws: int, seed: int = DEFAULT_SEED) -> float:
    """Largest |closed_form_work - first_cycle_work| over random regime draws,
    drawn MAP_BLOCK at a time so that only one block of configs is held."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for start in range(0, draws, MAP_BLOCK):
        configs = [random_ideal_config(rng) for _ in range(min(MAP_BLOCK, draws - start))]
        closed = [closed_form_work(c).total for c in configs]
        worst = max(worst, float(np.max(np.abs(first_cycle_work(configs) - closed))))
    return worst


def loop_engine(config: EngineConfig) -> tuple[list[CycleRecord], np.ndarray]:
    """Oracle for run_engine: the explicit per-cycle stage loop, one 4x4 joint
    state pushed through every stage of every cycle.

    Returns the cycle records and the joint state at the end of the last cycle.
    """
    battery = prepare_battery(config.battery_init)
    hot = prepare_hot_medium(config.p_mx, config.hot_populations)
    cold = prepare_cold_medium(config.cold_populations)
    reset_f = config.noise.battery_dephasing_per_reset
    t2_f = config.noise.battery_t2_per_cycle
    records = []
    energy, cumulative = polarization_vector(battery).pz, 0.0
    for n in range(1, config.cycles + 1):
        post_stroke = power_stroke(dephase_battery(kron(hot, battery), reset_f), config.theta)
        joint = dephase_battery(reset_medium(post_stroke, cold), reset_f)
        joint = dephase_battery(power_stroke(joint, config.compression_theta), t2_f)
        battery = partial_trace(joint, "battery")
        p = polarization_vector(battery)
        correlators = correlator_sets(post_stroke[np.newaxis])[0]
        record = make_cycle_record(n, energy, cumulative, p, post_stroke, correlators)
        records.append(record)
        energy, cumulative = p.pz, record.cumulative_work
    return records, joint


def stage_loop_gaps(mapped: EngineTrace) -> dict[str, float]:
    """Largest |mapped - loop_engine(mapped.config)| of every record field over
    all cycles, and of the final joint state, for a trace that run_engine or
    run_engines produced."""
    records, joint = loop_engine(mapped.config)
    gaps = {"final_joint": float(np.max(np.abs(mapped.final_joint - joint)))}
    for r_map, r_loop in zip(mapped.records, records, strict=True):
        a, b = [r_map.cycle_index] + record_row(r_map), [r_loop.cycle_index] + record_row(r_loop)
        for name, x, y in zip(("cycle_index",) + TRACE_COLUMNS, a, b):
            gaps[name] = max(gaps.get(name, 0.0), abs(x - y))
    return gaps


def fuzz_stage_validity(applications: int, seed: int = DEFAULT_SEED) -> tuple[float, float]:
    """Chain random engine stages and return the worst trace error and the
    most negative eigenvalue of the states they produced."""
    rng = np.random.default_rng(seed)
    outputs = np.empty((applications, 4, 4), dtype=complex)

    def fresh_qubit():
        # pure and singular states included so the PSD floor is exercised
        return random_density(rng, 2, rank=int(rng.integers(1, 3)))

    joint = kron(fresh_qubit(), fresh_qubit())
    for done in range(applications):
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
        outputs[done] = joint
    return state_validity(outputs)


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
            f"max |closed form - cycle-map W_1| = {gap:.3e} over 1000 draws (tol 1e-10)",
        )
    )

    drawn = [random_ideal_config(rng) for _ in range(200)]
    coherent = [replace(c, battery_init=c.battery_init._replace(py=0.0)) for c in drawn]
    w_coh, w_inc = first_cycle_work(coherent + [c.with_p_mx(0.0) for c in coherent]).reshape(2, -1)
    worst = float(np.max(np.abs(w_coh - w_inc)))
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

    negativity = choi_negativity([random_noisy_config(rng, cycles=1) for _ in range(200)])
    checks.append(
        CheckResult(
            "cycle_is_completely_positive",
            negativity < 1e-12,
            f"max Choi-matrix negativity max(0, -lambda_min) = {negativity:.3e} "
            "over 200 noisy cycle maps (tol 1e-12)",
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

    traces = run_engines([random_noisy_config(rng, cycles=3) for _ in range(20)])
    worst = max(max(stage_loop_gaps(t).values()) for t in traces)
    checks.append(
        CheckResult(
            "map_vs_stage_loop",
            worst < 1e-12,
            f"max |run_engine - per-cycle stage loop| over records and final state: {worst:.3e} "
            "over 20 noisy configs x 3 cycles (tol 1e-12)",
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
