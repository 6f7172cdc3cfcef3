"""N-cycle engine trajectories with phenomenological imperfection channels.

Each cycle is hot reset -> power stroke -> cold reset -> power stroke, with
battery dephasing applied at every medium reset and once per cycle. Traces are
deterministic: identical configs produce bit-identical records.

Every cycle starts by pairing a fresh hot medium with the battery, so the
battery qubit is the only state carried from one cycle to the next, and one
cycle is a qubit channel on it: an affine map P -> A P + b of its Bloch vector
(King and Ruskai, IEEE TIT 47, 192 (2001)). With c, s = cos, sin theta and
C, S = cos, sin theta_c (the compression angle), f_r and f_t the per-reset
and per-cycle dephasing factors, p0 and q0 the first hot and cold populations
and m = p_mx, the stages give

    A = [[a, 0,               0               ],
         [0, a,               -2 f_r f_t m s C],
         [0, 2 f_r m s c C^2, c^2 C^2         ]],   a = f_r^2 f_t c C,
    b = (0, 0, (p0 - 1/2) s^2 C^2 + (q0 - 1/2) S^2).

So p_x decouples from the other two components, dephasing never acts on p_z
directly, the fuel m enters only through the two y-z couplings, and b does
not depend on m: A(m) = A(0) + m A_1, and at m = 0 A is diagonal.
battery_map evaluates this formula on the arrays of a ConfigBatch, one row
per config; validate.stage_map, which pushes probe batteries through every
stage, is its oracle over the whole domain.

The battery map is the only map in the engine. The state right after a
cycle's first power stroke is not carried over, so stack_runs makes each one
it records from the battery vector that cycle starts from: the first three
stages (kron, dephase_battery, power_stroke) on the product state
hot (x) (I/2 + P_{n-1}.sigma), the stages of validate's stage loop.

Where runs are stacked: run_engines hands its configs to stack_runs
MAP_BLOCK at a time, runs run_engine on each config's share of the pass and
drops the block before the next one, so a run never holds every state of a
grid at once. Every CLI command runs all the configs of its scenario
through one run_engines call, a comparison each config with its p_mx = 0
twin replace(config, p_mx=0.0), and validate's map_vs_stage_loop goes
through it too. run_engine given no share makes its own with
stack_runs([config]). A stack_runs pass turns its block into one
ConfigBatch, from which every stacked step reads its parameters, makes one
battery_map call on it and reads every P_0 with one bloch_vectors call;
every config of the block iterates P_n = A P_{n-1} + b to the block's
longest run, since a run's cycles 1 ... n do not depend on how many cycles
follow; the cycles each config records (its own first c) get all their
post-stroke states from one call of each of the three stages on one flat
stack, and one correlator_sets call on it. The same pass evaluates every
record's closed-form columns on the stack of recorded P_n: work and
cumulative work from the differences of p_z, and one ergotropy and one
relative_entropy_of_coherence call. run_engine then only builds the rows:
one make_cycle_record each, which adds the record's concurrence.

Which checks run where:
- every number the formula reads obeys one set of rules (engine's
  _check_config), the bound |p_mx| <= sqrt(p0 p1) that makes the hot state
  positive and the range [0, 1] of both noise factors included, and every
  cycle count obeys _check_count, which keeps one run's array of battery
  vectors within numpy's size limit: EngineConfig applies them to each
  config as it is built, and ConfigBatch, ConfigBatch.of included, to a
  whole batch, each rule once over all rows (a NaN breaks every rule). So
  battery_map and the stages never see an unchecked parameter. The qubit
  states are built from checked arrays by engine's two builders, which
  check nothing: _medium_states, of diag(p0, p1) + p_mx sigma_x, and
  _battery_states, of I/2 + P.sigma. prepare_hot_medium,
  prepare_cold_medium and prepare_battery are these builders on the arrays
  of a ConfigBatch, so no value enters the engine past its rules;
- a block whose padded array of battery vectors numpy cannot describe or
  allocate raises a ConfigError naming cycles, the block's runs and the
  bytes, before any cycle runs;
- the one bloch_vectors call of a block validates the stack
  prepare_battery(batch) of its starting batteries, hermiticity, trace and
  spectrum, before P_0 is read off;
  polarization_vector is that same call on one state, so P has one
  read-off and one positivity check;
- stack_runs checks 1/2 - |P_n| >= PSD_CLAMP for every recorded cycle of
  every config of the block (a NaN counts as outside) before it builds any
  state, with |P_n| from diagnostics' _pz_and_norm, the |P| that the
  ergotropy and coherence columns use; the cycles past a config's own
  count, iterated only because the block runs to its longest run, are
  neither checked nor recorded. Of the first config in input order that
  fails it names the first cycle n that fails, with its |P_n|, just as
  run_engine of that config alone would. So every battery I/2 + P_n.sigma
  that goes into the stages is a density operator;
- relative_entropy_of_coherence checks the spectra 1/2 -+ |pz| and
  1/2 -+ |P_n| of the whole stack against PSD_CLAMP with clamp_spectrum;
  after the Bloch-ball check it cannot fail, but it keeps the function
  safe on its own;
- every stage validates its whole input stack (hermiticity and unit trace) and
  every angle and dephasing factor of it: dephase_battery the product states,
  power_stroke the dephased ones, and correlator_sets the post-stroke states.
  The stages are channels, so positivity carries over from the product
  states;
- every recorded post-stroke state passes a positivity check inside
  concurrence: a Cholesky factor of it, which exists only if
  lambda_min >= -10 eps, far above PSD_CLAMP. A separable state gets it from
  the one Cholesky call that factors the state and its partial transpose
  together, the separability certificate, any other state from a call of
  its own; where none exists (singular or non-positive states) the eigen
  clamp, eigh and then clamp_spectrum, checks it;
- validate.loop_engines, the stage-loop oracle, runs every stage with no
  map, on the stacked joint states of all its configs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .diagnostics import _pz_and_norm, bloch_vectors, correlator_sets, ergotropy, relative_entropy_of_coherence
from .engine import (
    ConfigBatch,
    ConfigError,
    CycleRecord,
    EngineConfig,
    _battery_states,
    _medium_states,
    _require,
    make_cycle_record,
    power_stroke,
    prepare_battery,
)
from .linalg import PSD_CLAMP, DimensionError, ValidationError, kron, validate_density

ADVANTAGE_FLOOR = 1e-12  # baseline work below this leaves the ratio undefined
# Configs per stack_runs pass. On the 540 engine runs of a 270-point grid of
# 2-cycle runs and their twins, run_engines takes 0.27 s of CPU in blocks of 1,
# 0.087 s in blocks of 16 and 0.076-0.085 s from 64 configs up (minima of 9
# runs on 2 shared cores, numpy 2.4.6). A pass holds the block's maps, battery
# vectors, stage stacks, post-stroke states (256 B per record) and correlators
# at once. Every config's battery vectors run to the block's longest run: 25 B
# per config per cycle of that run (24 B of P, 1 B of the recorded mask), where
# a recorded cycle costs about 900 B. tracemalloc peaks in stack_runs (seed 7)
# at 0.37 MB for 128 2-cycle configs, 1.5 MB for all 540, 0.47 MB for two
# 200-cycle runs and 116 MB for 128 1000-cycle runs (906 B per record, three
# stage stacks at once). Mixed counts pay for the padding: 7.9 MB for one
# config of each count 1 ... 128, and 41 MB for 127 1-cycle configs with one
# of 10,000 cycles, 32 MB of it P and the mask. run_engines on the 128
# 1000-cycle runs peaks 62 MB (480 B per record) above the 87 MB of records it
# returns, where one config at a time peaked 0.6 MB above them. The peak of
# validate.max_oracle_gap, which draws its 1,000 configs one ConfigBatch per
# block, is 0.71 MB in blocks of 128 and 4.6 MB as one stack of 1,000, at the
# same speed (21-29 ms either way, minima of 7 runs).
MAP_BLOCK = 128


@dataclass(frozen=True)
class EngineTrace:
    """Per-cycle records of one engine run."""

    config: EngineConfig
    records: tuple[CycleRecord, ...]


@dataclass(frozen=True)
class ComparisonResult:
    """Coherent run, its incoherent twin, and the per-cycle advantage ratio.

    advantage[n] is (W_coh - W_incoh) / W_incoh for cycle n+1, or None when
    the incoherent baseline work is at or below ADVANTAGE_FLOOR.
    """

    coherent: EngineTrace
    incoherent: EngineTrace
    advantage: tuple[float | None, ...]


def dephase_battery(joint: np.ndarray, factor) -> np.ndarray:
    """Scale every element connecting different battery sigma_z eigenstates.

    A factor f in [0, 1] realizes the phase-flip channel with flip probability
    (1 - f)/2 on the battery: completely positive, trace preserving, and the
    identity channel at f = 1. Leading batch axes are kept. An array of
    factors runs along the leading batch axes of joint (one factor per config
    of a (k, ..., 4, 4) stack); every entry must lie in [0, 1].
    """
    f = np.asarray(factor, dtype=float)
    flat = f.ravel()
    _require("dephasing factor", (flat >= 0.0) & (flat <= 1.0), flat, "must lie in [0, 1]")  # NaN included
    joint = validate_density(joint, "dephase_battery")
    if joint.shape[-2:] != (4, 4):
        raise DimensionError(f"dephase_battery: expected a two-qubit state, got shape {joint.shape}")
    if f.shape != joint.shape[:-2][: f.ndim]:
        message = f"dephasing factors of shape {f.shape} do not match states {joint.shape}"
        raise DimensionError(f"dephase_battery: {message}")
    f = f.reshape(f.shape + (1,) * (joint.ndim - f.ndim))
    out = joint.reshape(*joint.shape[:-2], 2, 2, 2, 2).copy()
    out[..., :, 0, :, 1] *= f
    out[..., :, 1, :, 0] *= f
    return out.reshape(joint.shape)


def battery_map(batch: ConfigBatch) -> tuple[np.ndarray, np.ndarray]:
    """A (k, 3, 3) and b (k, 3) of the battery map P -> A P + b of one cycle
    of every row of the batch, from the closed form in the module docstring,
    read straight off the batch's checked arrays."""
    theta, theta_c, m = batch.theta, batch.compression_theta, batch.p_mx
    p0, q0 = batch.hot_populations[:, 0], batch.cold_populations[:, 0]
    f_r, f_t = batch.battery_dephasing_per_reset, batch.battery_t2_per_cycle
    cos, sin, cos_c, sin_c = np.cos(theta), np.sin(theta), np.cos(theta_c), np.sin(theta_c)
    A = np.zeros((len(batch), 3, 3))
    A[:, 0, 0] = A[:, 1, 1] = f_r * f_r * f_t * cos * cos_c
    A[:, 1, 2] = -2.0 * f_r * f_t * m * sin * cos_c
    A[:, 2, 1] = 2.0 * f_r * m * sin * cos * cos_c**2
    A[:, 2, 2] = cos**2 * cos_c**2
    b = np.zeros((len(batch), 3))
    b[:, 2] = (p0 - 0.5) * sin**2 * cos_c**2 + (q0 - 0.5) * sin_c**2
    return A, b


def stack_runs(configs: Sequence[EngineConfig]) -> list[tuple[list, np.ndarray, list]]:
    """Every config's share of one stacked pass over all of them, in order:
    the rows of its nine closed-form record columns as lists (work,
    cumulative work, P_n, ergotropy total, incoherent and coherent, and
    coherence, in CycleRecord order), the (N, 4, 4) stack of its states
    right after each cycle's first power stroke, and their nine correlators
    each, in correlator_sets order.

    The block is one ConfigBatch.of(configs): battery_map, the starting
    batteries, the hot states, the reset factors and the angles all read its
    arrays. One bloch_vectors call reads every P_0 off the stack
    prepare_battery(batch) (polarization_vector is the same call on one
    state). One battery_map call gives every map, and every config iterates
    P_n = A P_{n-1} + b up to the block's longest run;
    the mask `recorded` marks each config's own cycles 1 ... c, and only
    those are used. The Bloch-ball check of every recorded P_n, on the |P_n|
    of _pz_and_norm, runs before any state is built, and raises for the
    first config in input order with a P_n outside. Then one call each to
    kron, dephase_battery and power_stroke, the first three stages of a
    cycle, runs on the flat stack of the product states
    hot (x) (I/2 + P_{n-1}.sigma) of every recorded cycle, config after
    config, with the batteries from one _battery_states call and each
    cycle's own hot state, reset factor and angle, and one
    correlator_sets call takes their correlators. The columns come from the
    recorded P_n at once: work is P_n,z - P_{n-1},z, cumulative work a
    cumsum along each config's own row (the same left-to-right sum from 0.0
    as a running total), and one ergotropy and one
    relative_entropy_of_coherence call take the whole stack. Every product
    is the one a config alone gets, so each number equals that of
    stack_runs([config]) bit for bit.
    """
    batch = ConfigBatch.of(configs)
    A, b = battery_map(batch)
    cycles = batch.cycles
    try:  # P_0 ... P_c of every config, padded to the longest run
        p = np.empty((len(batch), cycles.max() + 1, 3))
    except (MemoryError, ValueError):  # numpy says "array is too big" for one past 2**63 - 1 bytes
        size = len(batch) * (int(cycles.max()) + 1) * 24
        raise ConfigError(f"cycles: a block of {len(batch)} run(s) padded to {cycles.max()} cycles needs {size} "
                          "bytes for its battery vectors, more than can be allocated") from None
    p[:, 0] = bloch_vectors(prepare_battery(batch))
    for n in range(1, cycles.max() + 1):
        p[:, n] = (A @ p[:, n - 1, :, None])[..., 0] + b
    recorded = np.arange(cycles.max()) < cycles[:, None]  # cycle n + 1 of config j is one of its own
    owner = np.repeat(np.arange(len(batch)), cycles)  # the config of each recorded cycle, in order
    after = p[:, 1:][recorded]  # the P_n that end the recorded cycles
    norms = _pz_and_norm(after)[1]  # the test below counts a NaN as outside
    outside = np.flatnonzero(~(0.5 - norms >= PSD_CLAMP))
    if len(outside):  # the first config outside the Bloch ball, at its first cycle outside
        n, norm = np.argwhere(recorded)[outside[0], 1], norms[outside[0]]
        message = f"cycle {n + 1}: battery Bloch vector has |P_n| = {norm:.12g}, outside the Bloch ball"
        raise ValidationError(f"{message} (1/2 - |P_n| below the PSD tolerance {PSD_CLAMP:.0e})")
    hot = _medium_states(batch.hot_populations, batch.p_mx)  # the checked hot state of each row
    battery = _battery_states(p[:, :-1][recorded])  # the batteries that start the recorded cycles
    dephased = dephase_battery(kron(hot[owner], battery), batch.battery_dephasing_per_reset[owner])
    post_strokes = power_stroke(dephased, batch.theta[owner])
    corr = correlator_sets(post_strokes)
    work = np.diff(p[..., 2])  # P_n,z - P_n-1,z; a prefix of each row is its config's own cycles
    rows = np.column_stack([work[recorded], np.cumsum(work, axis=1)[recorded], after, *ergotropy(after),
                            relative_entropy_of_coherence(after)]).tolist()
    return [(rows[f:f + c], post_strokes[f:f + c], corr[f:f + c])
            for c, f in zip(cycles.tolist(), (np.cumsum(cycles) - cycles).tolist())]


def run_engine(config: EngineConfig, run: tuple | None = None) -> EngineTrace:
    """Record every diagnostic of config.cycles engine cycles.

    run is this config's share of a stack_runs pass, as run_engines hands it
    over; when it is None, run_engine makes it with stack_runs([config]).
    Each record is one make_cycle_record call, which adds the concurrence of
    the cycle's post-stroke state to its columns and correlators.
    """
    rows, post_strokes, correlators = stack_runs([config])[0] if run is None else run
    records = map(make_cycle_record, range(1, len(rows) + 1), rows, post_strokes, correlators)
    return EngineTrace(config=config, records=tuple(records))


def run_engines(configs: Sequence[EngineConfig]) -> list[EngineTrace]:
    """run_engine on every config, in order, each with its share of one
    stack_runs pass per MAP_BLOCK configs: one battery_map call and one call
    of each of the first three stages per block, whatever its cycle counts."""
    traces: list[EngineTrace] = []
    for start in range(0, len(configs), MAP_BLOCK):
        block = configs[start:start + MAP_BLOCK]
        traces.extend(run_engine(c, run) for c, run in zip(block, stack_runs(block)))
    return traces


def compare_coherent_incoherent(coherent: EngineTrace, incoherent: EngineTrace) -> ComparisonResult:
    """Form the advantage series of a coherent run and its p_mx = 0 twin.

    Callers run both engines through one run_engines call,
    run_engines([config, replace(config, p_mx=0.0)]), so their maps are
    stacked.
    """
    advantage = tuple(
        None if ri.cycle_work <= ADVANTAGE_FLOOR else (rc.cycle_work - ri.cycle_work) / ri.cycle_work
        for rc, ri in zip(coherent.records, incoherent.records, strict=True)
    )
    return ComparisonResult(coherent=coherent, incoherent=incoherent, advantage=advantage)


def peak_advantage(result: ComparisonResult) -> tuple[float, int] | None:
    """Largest defined advantage ratio and the 1-based cycle where it occurs.

    Returns None when no cycle has a defined ratio. Ties keep the earliest
    cycle (max keeps the first of equal keys), so the answer is deterministic.
    """
    defined = [(x, r.cycle_index) for r, x in zip(result.coherent.records, result.advantage) if x is not None]
    return max(defined, key=lambda peak: peak[0], default=None)

