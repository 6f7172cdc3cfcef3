"""Self-check suite behind `spinotto validate`: oracle equivalence, channel
and state invariants, and diagnostic unit truths, all on deterministic
pseudo-random draws.

Every check returns rows of (label, residual, tolerance), and one rule judges
them all: a row passes when residual <= tolerance, so a NaN residual fails,
and a check passes when every row passes. A check that raises fails with the
exception as its detail; the checks after it still run.

The residuals of each check, in report order:
- oracle_equivalence: max |battery_map - stage_map| over every entry of A
  and b of 1000 configs anywhere in the domain; stage_map reads the map off
  probe batteries pushed through every stage;
- classical_battery_first_cycle: the largest gap between the first-cycle work
  of a config with p_by = 0 and that of its p_mx = 0 twin, over 200 configs;
- stroke_unitarity_and_sectors: max |U+U - I|, max |power_stroke - U rho U+|
  and the drift of the |00> and |11> populations, over 200 random states;
- reset_preserves_battery: the change of the battery marginal across a reset;
- stage_validity_fuzz: the worst trace error and the negativity
  max(0, -lambda_min) of the states of 2000 random stages;
- partial_trace_identities: the kron/partial-trace round-trip error;
- cycle_is_completely_positive: the negativity of the Choi matrices of the
  battery channels of 200 noisy configs;
- diagnostics_unit_truths and state_preparation_roundtrip: the deviation of
  each diagnostic and preparation from its known value;
- map_vs_stage_loop: max |run_engines - loop_engines| over every record field
  of 20 noisy 3-cycle configs.

The checks draw their random configs and states as stacks, each field or
stack with one generator call, in a fixed order, and then run each stage
once on the whole stack of draws. Configs are drawn as a ConfigBatch, which
every stacked map here reads directly. The fuzz, whose chains must step one
after another, draws all its steps up front: restart flags, one stage kind
per step and one parameter per chain and step, then every restart state and
every qubit with one random_density call each. Each step makes one stage
call on all chains. It keeps every state it produces (256 B each, 0.5 MB for
its 2000) and judges them with one state_validity call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .diagnostics import (
    bloch_vectors,
    concurrence,
    correlator_sets,
    ergotropy,
    mean_energy,
    polarization_vector,
    relative_entropy_of_coherence,
    von_neumann_entropy,
)
from .engine import (
    ConfigBatch,
    CycleRecord,
    EngineConfig,
    _battery_states,
    flip_flop_propagator,
    make_cycle_record,
    power_stroke,
    prepare_battery,
    prepare_cold_medium,
    prepare_hot_medium,
    reset_medium,
)
from .linalg import PAULI, kron, partial_trace
from .multicycle import MAP_BLOCK, EngineTrace, battery_map, dephase_battery, run_engines

DEFAULT_SEED = 20260809
# Tolerance of |battery_map - stage_map|. Every entry of A and b and of every
# state of the stage pass has magnitude at most 1, so each of its ten stage
# calls adds at most about 2 eps to an entry, and the read-off
# 2 (X_j - X_0) doubles the sum of two such errors: 4 * 10 * 2 eps.
ORACLE_TOL = 80 * math.ulp(1.0)
# The configs of oracle_equivalence.
ORACLE_CONFIGS = 1000


@dataclass(frozen=True)
class CheckResult:
    """The verdict of one check and its detail line."""

    name: str
    passed: bool
    detail: str


# One row of a check: (label, residual, tolerance).
Row = tuple[str, float, float]


def random_noisy_configs(rng: np.random.Generator, n: int, cycles: int) -> ConfigBatch:
    """n random configs anywhere in the engine's domain: any hot and cold
    bath, a separate compression angle, both dephasing channels and a
    battery drawn uniformly from the Bloch ball, each field drawn with one
    generator call."""
    p0, q0 = rng.uniform(size=(2, n))
    bound = np.sqrt(p0 * (1.0 - p0))
    direction = rng.normal(size=(n, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    return ConfigBatch(
        theta=rng.uniform(0.0, math.pi, size=n),
        compression_theta=rng.uniform(0.0, math.pi, size=n),
        p_mx=rng.uniform(-bound, bound),
        hot_populations=np.column_stack([p0, 1.0 - p0]),
        cold_populations=np.column_stack([q0, 1.0 - q0]),
        battery_init=0.5 * rng.uniform(size=(n, 1)) ** (1.0 / 3.0) * direction,
        battery_dephasing_per_reset=rng.uniform(size=n),
        battery_t2_per_cycle=rng.uniform(size=n),
        cycles=np.full(n, cycles),
    )


def random_density(rng: np.random.Generator, dim: int, rank=None, n: int | None = None) -> np.ndarray:
    """Random density operator (Wishart construction); rank < dim gives
    singular states, rank 1 a pure state. Given n, an (n, dim, dim) stack
    drawn in one call, where rank is one rank for all or one per state."""
    shape = (1 if n is None else n, dim, dim)
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    x *= np.arange(dim) < np.reshape(dim if rank is None else rank, (-1, 1, 1))  # keep the first rank columns
    rho = x @ x.conj().swapaxes(-1, -2)
    rho /= np.trace(rho, axis1=-2, axis2=-1).real[:, None, None]
    return rho[0] if n is None else rho


def state_validity(rho: np.ndarray) -> tuple[float, float]:
    """(largest trace error, smallest eigenvalue) over a candidate density
    operator or a stack of them."""
    tr_err = np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0)
    hermitian_part = rho.conj().swapaxes(-1, -2)  # a copy, updated in place below
    hermitian_part += rho
    hermitian_part /= 2  # Hermitian bit for bit, so eigvalsh needs no guard
    return float(tr_err.max()), float(np.linalg.eigvalsh(hermitian_part)[..., 0].min())


def _stage_cycle(batch: ConfigBatch, hot, cold, battery) -> tuple[np.ndarray, np.ndarray]:
    """One cycle of the stages on the joint states hot (x) battery, one row of
    the batch per entry of the leading axis: per-reset dephasing, power
    stroke, cold reset, per-reset dephasing, compression stroke and per-cycle
    dephasing. Returns the states right after the first power stroke and the
    battery states at the end of the cycle."""
    reset_f = batch.battery_dephasing_per_reset
    post_stroke = power_stroke(dephase_battery(kron(hot, battery), reset_f), batch.theta)
    joint = dephase_battery(reset_medium(post_stroke, cold), reset_f)
    joint = power_stroke(joint, batch.compression_theta)
    joint = dephase_battery(joint, batch.battery_t2_per_cycle)
    return post_stroke, partial_trace(joint, "battery")


# The probe batteries I/2 and I/2 + sigma_j/2: Bloch vectors 0 and e_j/2.
_PROBES = _battery_states(np.vstack([np.zeros(3), np.eye(3) / 2]))


def stage_map(batch: ConfigBatch) -> tuple[np.ndarray, np.ndarray]:
    """Oracle for multicycle.battery_map: A (k, 3, 3) and b (k, 3) read off
    the four probe batteries P = 0 and P = e_j/2 of every row of the batch,
    pushed through every stage of one cycle as one stack of 4 k states; each
    stage takes its angles and factors straight from the batch's arrays.
    max_oracle_gap hands it one MAP_BLOCK of draws at a time."""
    hot, cold = prepare_hot_medium(batch), prepare_cold_medium(batch)
    _, battery = _stage_cycle(batch, hot[:, None], cold[:, None], _PROBES)
    images = bloch_vectors(battery.reshape(-1, 2, 2)).reshape(len(batch), 4, 3)
    # image(P) = image(0) + A P, so column j of A is 2 (image(e_j/2) - image(0))
    return 2.0 * (images[:, 1:] - images[:, :1]).swapaxes(1, 2), images[:, 0]


def choi_negativity(batch: ConfigBatch) -> float:
    """Largest max(0, -lambda_min) over the Choi matrices of the battery
    channels of one cycle of every row of the batch.

    The cycle maps the battery Bloch vector P -> A P + b, so its channel Phi
    takes I to I + 2 b.sigma and sigma_j to sum_k A_kj sigma_k. Phi is
    completely positive exactly when its Choi matrix
    J = 1/2 sum_mu conj(sigma_mu) (x) Phi(sigma_mu) is positive semidefinite
    (Ruskai, Szarek and Werner, Lin. Alg. Appl. 347, 159 (2002)). A and b come
    from battery_map; one eigvalsh takes every J.
    """
    A, b = battery_map(batch)
    images = np.empty((len(batch), 4, 2, 2), dtype=complex)  # Phi(sigma_mu)
    images[:, 0] = PAULI[0] + 2 * np.einsum("kj,jab->kab", b, PAULI[1:])
    images[:, 1:] = np.einsum("kij,iab->kjab", A, PAULI[1:])
    choi = 0.5 * kron(PAULI.conj(), images).sum(axis=1)
    return max(0.0, -float(np.linalg.eigvalsh(choi)[:, 0].min()))


def max_oracle_gap(seed: int = DEFAULT_SEED) -> float:
    """Largest |battery_map - stage_map| over every entry of A and b of
    ORACLE_CONFIGS random_noisy_configs draws, one batch of MAP_BLOCK configs
    at a time so that only one block is held."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for start in range(0, ORACLE_CONFIGS, MAP_BLOCK):
        batch = random_noisy_configs(rng, min(MAP_BLOCK, ORACLE_CONFIGS - start), cycles=1)
        gaps = [np.abs(x - y).max() for x, y in zip(battery_map(batch), stage_map(batch))]
        worst = max(worst, *map(float, gaps))
    return worst


def loop_engines(configs: Sequence[EngineConfig]) -> list[EngineTrace]:
    """Oracle for run_engines: the explicit per-cycle stage loop, with no
    affine map.

    The joint states of all configs go through every stage of every cycle as
    one (k, 4, 4) stack, with one angle and one dephasing factor per config
    from their ConfigBatch, up to the longest run; each config records only
    its own cycles. Each record's columns come from its own state, one
    polarization_vector and one call of each diagnostic, where run_engine
    takes them from stack_runs. Returns one trace per config, in order.
    """
    batch = ConfigBatch.of(configs)
    battery, hot, cold = prepare_battery(batch), prepare_hot_medium(batch), prepare_cold_medium(batch)
    records: list[list[CycleRecord]] = [[] for _ in configs]
    energy, cumulative = [polarization_vector(b)[2] for b in battery], [0.0] * len(configs)
    for n in range(1, batch.cycles.max() + 1):
        post_stroke, battery = _stage_cycle(batch, hot, cold, battery)
        corr = correlator_sets(post_stroke)
        for j in np.flatnonzero(batch.cycles >= n).tolist():  # the configs whose own run has cycle n
            p = polarization_vector(battery[j])
            work = p[2] - energy[j]
            columns = (work, cumulative[j] + work, *p, *ergotropy(p), relative_entropy_of_coherence(p))
            records[j].append(make_cycle_record(n, columns, post_stroke[j], corr[j]))
            energy[j], cumulative[j] = p[2], columns[1]
    return [EngineTrace(config=c, records=tuple(r)) for c, r in zip(configs, records)]


def stage_loop_gaps(mapped: Sequence[EngineTrace]) -> dict[str, float]:
    """Largest |mapped - loop_engines| of every record field over all cycles
    of all traces, for traces that run_engine or run_engines produced."""
    gaps: dict[str, float] = {}
    for t_map, t_loop in zip(mapped, loop_engines([t.config for t in mapped]), strict=True):
        for r_map, r_loop in zip(t_map.records, t_loop.records, strict=True):
            for name, x, y in zip(CycleRecord._fields, r_map, r_loop):
                gaps[name] = max(gaps.get(name, 0.0), abs(x - y))
    return gaps


# The fuzz runs FUZZ_CHAINS independent chains for FUZZ_STEPS steps: the 2000
# stages of stage_validity_fuzz.
FUZZ_STEPS, FUZZ_CHAINS = 125, 16


def fuzz_stage_validity(seed: int = DEFAULT_SEED) -> tuple[float, float]:
    """Chain random engine stages and return the worst trace error and the
    most negative eigenvalue of the FUZZ_STEPS * FUZZ_CHAINS states they
    produce.

    FUZZ_CHAINS chains step together. Every draw is made up front, in this
    order: whether a chain restarts from a random joint state before a step
    (probability 0.02 per chain and step, so early stages stay represented),
    one stage kind per step, and one parameter per chain and step. Then one
    random_density call draws the restart states, only those used, and one
    draws FUZZ_STEPS + 2 qubits per chain: the first two make the chains'
    starting product states, and the one of each step is the fresh bath of a
    reset. Each step makes one stage call on all chains. The draws have any
    rank, so pure and singular states exercise the PSD floor.

    Every produced state is kept in one (FUZZ_STEPS, FUZZ_CHAINS, 4, 4) stack,
    256 B each (0.5 MB), and one state_validity call judges them all.
    """
    rng = np.random.default_rng(seed)
    restart = rng.uniform(size=(FUZZ_STEPS, FUZZ_CHAINS)) < 0.02
    kind = rng.integers(0, 3, size=FUZZ_STEPS)
    param = rng.uniform(size=(FUZZ_STEPS, FUZZ_CHAINS))
    n_starts, n_qubits = restart.sum(), (FUZZ_STEPS + 2) * FUZZ_CHAINS
    starts = random_density(rng, 4, rank=rng.integers(1, 5, size=n_starts), n=n_starts)
    qubits = random_density(rng, 2, rank=rng.integers(1, 3, size=n_qubits), n=n_qubits)
    qubits = qubits.reshape(FUZZ_STEPS + 2, FUZZ_CHAINS, 2, 2)
    joint = kron(qubits[0], qubits[1])
    stages = (
        lambda states, p, bath: power_stroke(states, math.pi * p),
        lambda states, p, bath: reset_medium(states, bath),
        lambda states, p, bath: dephase_battery(states, p),
    )
    produced = np.empty((FUZZ_STEPS, FUZZ_CHAINS, 4, 4), dtype=complex)
    for s, start in enumerate(np.split(starts, np.cumsum(restart.sum(axis=1))[:-1])):
        joint[restart[s]] = start
        joint = produced[s] = stages[kind[s]](joint, param[s], qubits[s + 2])
    return state_validity(produced.reshape(-1, 4, 4))


def _bell_state() -> np.ndarray:
    psi = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / math.sqrt(2.0)
    return np.outer(psi, psi.conj())


def _oracle_equivalence(rng: np.random.Generator, seed: int) -> list[Row]:
    label = f"max |battery_map - stage_map| over A and b of {ORACLE_CONFIGS} noisy configs"
    return [(label, max_oracle_gap(seed), ORACLE_TOL)]


def _classical_battery_first_cycle(rng: np.random.Generator, seed: int) -> list[Row]:
    drawn = random_noisy_configs(rng, 200, cycles=1)
    coherent = replace(drawn, battery_init=drawn.battery_init * (1.0, 0.0, 1.0))  # p_by = 0
    p0 = coherent.battery_init
    w_coh, w_inc = (
        np.einsum("kj,kj->k", A[:, 2], p0) + b[:, 2] - p0[:, 2]
        for A, b in (stage_map(coherent), stage_map(replace(coherent, p_mx=np.zeros(200))))
    )
    return [("max coherent-incoherent first-cycle work gap with p_by 0", np.max(np.abs(w_coh - w_inc)), 1e-12)]


def _stroke_unitarity_and_sectors(rng: np.random.Generator, seed: int) -> list[Row]:
    theta, joints = rng.uniform(0.0, 2.0 * math.pi, size=200), random_density(rng, 4, n=200)
    u = flip_flop_propagator(theta)
    u_dagger = u.conj().swapaxes(1, 2)
    out = power_stroke(joints, theta)
    return [
        ("max |U+U - I|", np.max(np.abs(u_dagger @ u - np.eye(4))), 1e-12),
        ("max |power_stroke - U rho U+|", np.max(np.abs(out - u @ joints @ u_dagger)), 1e-12),
        ("max sector-population drift", np.max(np.abs(out[:, [0, 3], [0, 3]] - joints[:, [0, 3], [0, 3]])), 1e-12),
    ]


def _reset_preserves_battery(rng: np.random.Generator, seed: int) -> list[Row]:
    joints, fresh = random_density(rng, 4, n=200), random_density(rng, 2, n=200)
    before = partial_trace(joints, "battery")
    change = np.max(np.abs(partial_trace(reset_medium(joints, fresh), "battery") - before))
    return [("max battery-marginal change across resets", change, 1e-12)]


def _stage_validity_fuzz(rng: np.random.Generator, seed: int) -> list[Row]:
    tr_err, min_eig = fuzz_stage_validity(seed)
    return [
        (f"worst trace error of {FUZZ_STEPS * FUZZ_CHAINS} stages on {FUZZ_CHAINS} chains", tr_err, 1e-12),
        ("lowest-eigenvalue negativity max(0, -lambda_min)", max(0.0, -min_eig), 1e-10),
    ]


def _partial_trace_identities(rng: np.random.Generator, seed: int) -> list[Row]:
    a, b = random_density(rng, 2, n=50), random_density(rng, 2, n=50)
    ab = kron(a, b)
    errors = (partial_trace(ab, "medium") - a, partial_trace(ab, "battery") - b)
    return [("max kron/partial-trace round-trip error", max(np.max(np.abs(e)) for e in errors), 1e-12)]


def _cycle_is_completely_positive(rng: np.random.Generator, seed: int) -> list[Row]:
    negativity = choi_negativity(random_noisy_configs(rng, 200, cycles=1))
    return [("max Choi-matrix negativity max(0, -lambda_min) of 200 noisy cycle maps", negativity, 1e-12)]


def _diagnostics_unit_truths(rng: np.random.Generator, seed: int) -> list[Row]:
    bell = _bell_state()
    product = kron(random_density(rng, 2), random_density(rng, 2))
    werner = 0.5 * bell + 0.5 * np.eye(4) / 4.0
    plus = polarization_vector(prepare_battery(ConfigBatch.of([EngineConfig(battery_init=(0.5, 0.0, 0.0))]))[0])
    ergo_plus = ergotropy(plus)
    return [
        ("|concurrence(Bell) - 1|", abs(concurrence(bell) - 1.0), 1e-10),
        ("concurrence(product)", concurrence(product), 1e-10),
        ("|concurrence(Werner 1/2) - 1/4|", abs(concurrence(werner) - 0.25), 1e-10),
        ("|ergotropy(|+>).total - 1/2|", abs(ergo_plus.total - 0.5), 1e-12),
        ("|ergotropy(|+>).coherent - 1/2|", abs(ergo_plus.coherent - 0.5), 1e-12),
        ("|C_B(|+>) - ln 2|", abs(relative_entropy_of_coherence(plus) - math.log(2.0)), 1e-12),
        ("|S(I/2) - ln 2|", abs(von_neumann_entropy(np.eye(2) / 2) - math.log(2.0)), 1e-12),
    ]


def _map_vs_stage_loop(rng: np.random.Generator, seed: int) -> list[Row]:
    traces = run_engines(random_noisy_configs(rng, 20, cycles=3).configs())
    label = "max |run_engine - per-cycle stage loop| over the records of 20 noisy configs x 3 cycles"
    return [(label, max(stage_loop_gaps(traces).values()), 1e-12)]


def _state_preparation_roundtrip(rng: np.random.Generator, seed: int) -> list[Row]:
    batch = ConfigBatch.of([EngineConfig(p_mx=0.5, hot_populations=(0.5, 0.5), battery_init=(0.1, -0.2, 0.3))])
    roundtrip = polarization_vector(prepare_battery(batch)[0]) - batch.battery_init[0]
    hot = prepare_hot_medium(batch)
    return [
        ("max |polarization_vector(prepare_battery(P)) - P|", np.max(np.abs(roundtrip)), 1e-12),
        ("|mean_energy(I/2)|", abs(mean_energy(np.eye(2, dtype=complex) / 2)), 1e-12),
        ("max |prepare_hot_medium(1/2, (1/2, 1/2)) - 1/2|", np.max(np.abs(hot - 0.5)), 1e-12),
    ]


# Every check in report order. Each takes the suite's generator, which the
# checks draw from in this order, and the seed, and returns its rows.
CHECKS = (
    ("oracle_equivalence", _oracle_equivalence),
    ("classical_battery_first_cycle", _classical_battery_first_cycle),
    ("stroke_unitarity_and_sectors", _stroke_unitarity_and_sectors),
    ("reset_preserves_battery", _reset_preserves_battery),
    ("stage_validity_fuzz", _stage_validity_fuzz),
    ("partial_trace_identities", _partial_trace_identities),
    ("cycle_is_completely_positive", _cycle_is_completely_positive),
    ("diagnostics_unit_truths", _diagnostics_unit_truths),
    ("map_vs_stage_loop", _map_vs_stage_loop),
    ("state_preparation_roundtrip", _state_preparation_roundtrip),
)


def run_all_checks(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Run every check of CHECKS and judge its rows by the pass rule of the
    module docstring. The detail of a check lists every row as
    'label = residual (tol tolerance)' and ends with the labels of the rows
    that failed; a check that raises fails with the exception as its detail."""
    rng = np.random.default_rng(seed)
    results = []
    for name, check in CHECKS:
        try:
            rows = [(label, float(residual), float(tol)) for label, residual, tol in check(rng, seed)]
        except Exception as exc:  # any raise is a failed check, not a failed suite
            results.append(CheckResult(name, False, f"raised {type(exc).__name__}: {exc}"))
            continue
        failed = [label for label, residual, tol in rows if not residual <= tol]  # NaN fails
        detail = "; ".join(f"{label} = {residual:.3e} (tol {tol:.3e})" for label, residual, tol in rows)
        if failed:
            detail += f"; failed: {', '.join(failed)}"
        results.append(CheckResult(name, not failed, detail))
    return results
