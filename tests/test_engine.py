import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from spinotto.diagnostics import mean_energy, polarization_vector
from spinotto.engine import (
    MAX_COUNT,
    ConfigBatch,
    ConfigError,
    EngineConfig,
    _battery_states,
    flip_flop_propagator,
    power_stroke,
    prepare_battery,
    prepare_cold_medium,
    prepare_hot_medium,
    reset_medium,
)
from spinotto.linalg import PAULI, DimensionError, ValidationError, kron, partial_trace
from spinotto.multicycle import battery_map, run_engine
from spinotto.validate import random_density, random_noisy_configs

IDEAL = dict(hot_populations=(0.5, 0.5), cold_populations=(0.0, 1.0))


def ideal_config(rng):
    """A random config of the ideal regime: symmetric hot bath, pure-ground
    cold bath, equal stroke angles and no noise."""
    return EngineConfig(
        theta=float(rng.uniform(0.0, math.pi)),
        p_mx=float(rng.uniform(-0.5, 0.5)),
        battery_init=random_noisy_configs(rng, 1, cycles=1).battery_init[0],
        **IDEAL,
    )


def ideal_first_cycle_work(cfg):
    """W_1 = 2 m P_y s c^3 + P_z (c^4 - 1) - s^2/2 of the ideal regime, with
    c, s = cos, sin theta and m = p_mx: the coherence cross term, then the
    population part."""
    c, s = math.cos(cfg.theta), math.sin(cfg.theta)
    p = cfg.battery_init
    return 2.0 * cfg.p_mx * p[1] * s * c**3 + p[2] * (c**4 - 1.0) - 0.5 * s**2


def z_row_work(cfg):
    """W_1 = (A P_0 + b)_z - P_0,z off the z row of the battery map."""
    (A,), (b,) = battery_map(ConfigBatch.of([cfg]))
    p = np.array(cfg.battery_init)
    return A[2] @ p + b[2] - p[2]


def batch_with_row_1(field, value):
    """A ConfigBatch of three default configs given as lists, with value, as
    given, in row 1 of field."""
    columns = {f.name: getattr(ConfigBatch.of([EngineConfig()] * 3), f.name).tolist() for f in fields(ConfigBatch)}
    columns[field][1] = value
    return ConfigBatch(**columns)


def ket(index):
    rho = np.zeros((4, 4), dtype=complex)
    rho[index, index] = 1.0
    return rho


def one_row(**kwargs):
    """The ConfigBatch of the one config EngineConfig(**kwargs)."""
    return ConfigBatch.of([EngineConfig(**kwargs)])


class TestPreparations:
    def test_hot_medium_maximal_coherence_is_pure(self):
        (rho,) = prepare_hot_medium(one_row(p_mx=0.5, hot_populations=(0.5, 0.5)))
        assert np.allclose(rho, 0.5 * np.eye(2) + 0.5 * PAULI[1], atol=1e-15)
        w = np.linalg.eigvalsh(rho)
        assert np.allclose(w, [0, 1], atol=1e-12)

    def test_hot_medium_incoherent(self):
        (rho,) = prepare_hot_medium(one_row(p_mx=0.0, hot_populations=(0.485, 0.515)))
        assert np.allclose(rho, np.diag([0.485, 0.515]), atol=1e-15)

    def test_hot_medium_positivity_bound(self):
        # no batch holds a p_mx past sqrt(p0*p1), so prepare_hot_medium never sees one
        with pytest.raises(ConfigError, match=r"p_mx\[0\] exceeds the positivity bound sqrt\(p0\*p1\)"):
            replace(one_row(), p_mx=[0.5])
        with pytest.raises(ConfigError, match=re.escape("p_mx[1]")):
            replace(ConfigBatch.of([EngineConfig(hot_populations=(0.5, 0.5))] * 2), p_mx=[0.1, 0.6])

    def test_population_validation(self):
        with pytest.raises(ConfigError, match="hot_populations"):
            replace(one_row(p_mx=0.0), hot_populations=[(0.6, 0.6)])
        with pytest.raises(ConfigError, match="cold_populations"):
            replace(one_row(), cold_populations=[(-0.1, 1.1)])

    def test_cold_medium(self):
        cold = prepare_cold_medium(ConfigBatch.of([EngineConfig(), EngineConfig(cold_populations=(0.25, 0.75))]))
        assert np.array_equal(cold, [np.diag([0.03, 0.97]), np.diag([0.25, 0.75])])
        assert cold.dtype == complex

    def test_battery_states(self):
        batch = ConfigBatch.of([EngineConfig(battery_init=p) for p in [(0, 0, 0), (0, 0.5, 0), (0, 0, -0.5)]])
        rho = prepare_battery(batch)
        assert rho.shape == (3, 2, 2)
        assert np.allclose(rho[0], np.eye(2) / 2, atol=1e-15)
        assert np.allclose(rho[1], 0.5 * np.eye(2) + 0.5 * PAULI[2], atol=1e-15)
        assert np.allclose(rho[2], np.diag([0, 1]), atol=1e-15)

    def test_battery_bloch_bound(self):
        with pytest.raises(ConfigError, match=re.escape("battery_init[0] has |P| above 1/2")):
            replace(one_row(), battery_init=[(0.4, 0.4, 0.4)])

    def test_battery_state_is_a_density_operator_by_construction(self):
        # _battery_states runs no validate_density, so its matrices must be
        # exactly Hermitian, of trace within 1 ulp of 1 and lambda_min >= -1e-12
        # on the Bloch ball, its surface and the 1e-12 slack of the |P| check
        rng = np.random.default_rng(11)
        direction = rng.normal(size=(2000, 3))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        radius = np.concatenate([0.5 * rng.uniform(size=1000) ** (1 / 3), 0.5 + 0.99e-12 * rng.uniform(size=1000)])
        draws = (radius[:, None] * direction).tolist() + [(0.0, 0.0, 0.5), (-0.0, -0.0, -0.5), (0.5, 0.0, 0.0)]
        rho = _battery_states(np.array(draws))
        # every draw passes the |P| check, and prepare_battery is this builder on the batch's rows
        batch = replace(ConfigBatch.of([EngineConfig()] * len(draws)), battery_init=draws)
        assert np.array_equal(prepare_battery(batch), rho)
        assert rho.dtype == complex and rho.shape == (len(draws), 2, 2)
        assert np.array_equal(rho, rho.conj().swapaxes(1, 2))
        trace = np.trace(rho, axis1=1, axis2=2)
        assert np.all(np.abs(trace.real - 1.0) <= math.ulp(1.0)) and np.all(trace.imag == 0.0)
        assert np.linalg.eigvalsh(rho)[:, 0].min() >= -1e-12

    @pytest.mark.parametrize(
        "p",
        [(math.nan, 0.0, 0.0), (0.0, math.inf, 0.0), (0.0, 0.0, -math.inf), (0.3, 0.3, 0.3),
         (0.0, 0.0, 0.5 + 1e-9), (0.0, 0.5), (0.0, 0.0, 0.0, 0.0), (True, 0.0, 0.0), (0.0, "0.1", 0.0), "abc"],
    )
    def test_bad_battery_rejected_naming_battery_init(self, p):
        with pytest.raises(ConfigError, match="battery_init"):
            EngineConfig(battery_init=p)


class TestPropagator:
    def test_zero_angle_is_identity(self):
        assert np.allclose(flip_flop_propagator(0.0), np.eye(4), atol=1e-15)

    def test_structure(self):
        u = flip_flop_propagator(0.3)
        assert u[0, 0] == 1 and u[3, 3] == 1
        assert u[1, 1] == pytest.approx(math.cos(0.3))
        assert u[1, 2] == pytest.approx(-1j * math.sin(0.3))

    def test_half_period_swaps_excitation(self):
        out = power_stroke(ket(2), math.pi / 2)  # |10><10| -> |01><01|
        assert np.allclose(out, ket(1), atol=1e-12)

    def test_unitarity(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            u = flip_flop_propagator(float(rng.uniform(-2 * math.pi, 2 * math.pi)))
            assert np.max(np.abs(u.conj().T @ u - np.eye(4))) < 1e-12


class TestPowerStroke:
    def test_zero_angle_leaves_state(self):
        rng = np.random.default_rng(1)
        joint = random_density(rng, 4)
        assert np.allclose(power_stroke(joint, 0.0), joint, atol=1e-15)

    def test_full_swap_transfers_one_quantum(self):
        joint = ket(1)  # medium excited (m=0), battery ground (b=1)
        before = mean_energy(partial_trace(joint, "battery"))
        swapped = power_stroke(joint, math.pi / 2)
        assert np.allclose(swapped, ket(2), atol=1e-12)
        after = mean_energy(partial_trace(swapped, "battery"))
        assert after - before == pytest.approx(1.0, abs=1e-12)

    def test_preserves_trace_and_positivity(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            out = power_stroke(random_density(rng, 4), float(rng.uniform(0, math.pi)))
            assert abs(np.trace(out) - 1) < 1e-12
            assert np.linalg.eigvalsh(out)[0] > -1e-10

    def test_conserves_sector_populations(self):
        # |00> and |11> populations are untouched by the flip-flop
        rng = np.random.default_rng(3)
        for _ in range(50):
            joint = random_density(rng, 4)
            out = power_stroke(joint, float(rng.uniform(0, math.pi)))
            assert abs(out[0, 0] - joint[0, 0]) < 1e-12
            assert abs(out[3, 3] - joint[3, 3]) < 1e-12

    def test_equals_dense_conjugation_by_the_propagator(self):
        # only the one-excitation block is rotated; the result is U rho U+
        rng = np.random.default_rng(15)
        ranks = rng.integers(1, 5, size=(64, 4))
        joints = np.array([[random_density(rng, 4, rank=int(r)) for r in row] for row in ranks])
        angles = rng.uniform(-2 * math.pi, 2 * math.pi, size=64)
        u = flip_flop_propagator(angles)[:, None]
        dense = u @ joints @ u.conj().swapaxes(-1, -2)
        assert np.max(np.abs(power_stroke(joints, angles) - dense)) <= 1e-15

    def test_one_angle_per_config_equals_separate_calls(self):
        # angles run along the leading axis of a (k, 4, 4, 4) stack
        rng = np.random.default_rng(14)
        joints = np.array([[random_density(rng, 4) for _ in range(4)] for _ in range(5)])
        angles = rng.uniform(-math.pi, math.pi, size=5)
        out = power_stroke(joints, angles)
        for joint, angle, got in zip(joints, angles, out):
            assert np.array_equal(got, power_stroke(joint, float(angle)))
        units = flip_flop_propagator(angles.reshape(5, 1))
        assert units.shape == (5, 1, 4, 4)
        for angle, u in zip(angles, units):
            assert np.array_equal(u[0], flip_flop_propagator(float(angle)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_rejected_naming_theta(self, bad):
        with pytest.raises(ValidationError, match=f"theta.*{bad}"):
            power_stroke(np.eye(4) / 4, bad)
        angles = [0.1, 0.2, bad, 0.4]
        with pytest.raises(ValidationError, match=f"theta.*{bad}"):
            power_stroke(np.array([np.eye(4) / 4] * 4), angles)
        with pytest.raises(ValidationError, match=f"theta.*{bad}"):
            flip_flop_propagator(np.array(angles))

    def test_first_bad_angle_of_a_stack_is_named_with_its_index(self):
        with pytest.raises(ValidationError, match=r"^theta\[1\] .*got -inf$"):
            power_stroke(np.array([np.eye(4) / 4] * 4), [0.1, -math.inf, math.nan, 0.2])
        with pytest.raises(ValidationError, match=r"^theta\[3\] .*got nan$"):
            flip_flop_propagator(np.array([[0.1, 0.2], [0.3, math.nan]]))

    def test_repeated_and_signed_zero_angles_equal_single_calls_bit_for_bit(self):
        # a stack of angles gives the bits of one call per angle; sin(-0.0) is -0.0
        angles = np.array([0.3, -0.0, 0.3, 0.0, 2.0, -0.0])
        units = flip_flop_propagator(angles)
        assert units.tobytes() == np.array([flip_flop_propagator(float(t)) for t in angles]).tobytes()

    def test_angles_must_match_the_stack(self):
        with pytest.raises(DimensionError, match="^power_stroke: theta of shape"):
            power_stroke(np.array([np.eye(4) / 4] * 4), [0.1, 0.2, 0.3])
        with pytest.raises(DimensionError, match="^power_stroke: theta of shape"):
            power_stroke(np.eye(4) / 4, [0.1, 0.2, 0.3, 0.4])


class TestResetMedium:
    def test_separable_case(self):
        rng = np.random.default_rng(4)
        a, b, c = (random_density(rng, 2) for _ in range(3))
        assert np.allclose(reset_medium(kron(a, b), c), kron(c, b), atol=1e-12)

    def test_battery_marginal_preserved(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            joint = random_density(rng, 4)
            fresh = random_density(rng, 2)
            before = partial_trace(joint, "battery")
            after = partial_trace(reset_medium(joint, fresh), "battery")
            assert np.max(np.abs(after - before)) < 1e-12

    def test_cold_reset_preserves_battery_coherence(self):
        # correlated state from a stroke, then the experimental cold bath
        batch = one_row(p_mx=0.4, hot_populations=(0.5, 0.5), battery_init=(0, 0.3, -0.2))
        joint = power_stroke(kron(prepare_hot_medium(batch), prepare_battery(batch))[0], 0.6)
        y_before = polarization_vector(partial_trace(joint, "battery"))[1]
        (cold,) = prepare_cold_medium(batch)  # the default cold bath diag(0.03, 0.97)
        reset = reset_medium(joint, cold)
        y_after = polarization_vector(partial_trace(reset, "battery"))[1]
        assert y_after == pytest.approx(y_before, abs=1e-14)


class TestFirstCycleWork:
    """The ideal-regime facts of W_1, read off the z row of battery_map."""

    def test_zero_angle_zero_work(self):
        cfg = EngineConfig(theta=0.0, battery_init=(0.1, 0.3, -0.2), **IDEAL)
        assert z_row_work(cfg) == pytest.approx(0.0, abs=1e-15)

    def test_no_cross_term_without_medium_coherence(self):
        # at p_mx = 0 the z row has no y entry, so p_by does no work
        for theta in (0.2, 0.9, 1.4):
            cfg = EngineConfig(theta=theta, p_mx=0.0, battery_init=(0, 0.4, 0.1), **IDEAL)
            (A,), _ = battery_map(ConfigBatch.of([cfg]))
            assert A[2, 1] == 0.0
            assert z_row_work(cfg) == z_row_work(replace(cfg, p_mx=0.0))

    def test_no_cross_term_for_classical_battery(self):
        for theta in (0.2, 0.9, 1.4):
            cfg = EngineConfig(theta=theta, p_mx=0.5, battery_init=(0.3, 0.0, -0.2), **IDEAL)
            assert z_row_work(cfg) == z_row_work(replace(cfg, p_mx=0.0))

    def test_full_swap_value(self):
        # theta = pi/2 drains a z-unpolarized battery into the ground-state
        # cold bath: half a quantum out, none of it coherence-driven
        cfg = EngineConfig(theta=math.pi / 2, p_mx=0.5, battery_init=(0, 0.5, 0), **IDEAL)
        (A,), _ = battery_map(ConfigBatch.of([cfg]))
        assert A[2, 1] == pytest.approx(0.0, abs=1e-15)
        assert z_row_work(cfg) == pytest.approx(-0.5, abs=1e-12)


class TestSingleCycle:
    def test_oracle_equivalence(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            cfg = ideal_config(rng)
            record = run_engine(cfg).records[0]
            assert abs(record.cycle_work - ideal_first_cycle_work(cfg)) < 1e-10

    def test_zero_angle_cycle_is_identity_on_battery(self):
        cfg = EngineConfig(
            theta=0.0,
            p_mx=0.3,
            hot_populations=(0.5, 0.5),
            cold_populations=(0, 1),
            battery_init=(0.1, 0.2, -0.3),
        )
        record = run_engine(cfg).records[0]
        assert record.cycle_work == pytest.approx(0.0, abs=1e-13)
        for got, expected in zip((record.p_bx, record.p_by, record.p_bz), (0.1, 0.2, -0.3)):
            assert got == pytest.approx(expected, abs=1e-13)

    def test_classical_battery_first_cycle_indistinguishable(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            cfg = ideal_config(rng)
            cfg = EngineConfig(
                theta=cfg.theta,
                p_mx=cfg.p_mx,
                hot_populations=(0.5, 0.5),
                cold_populations=(0, 1),
                battery_init=(cfg.battery_init[0], 0.0, cfg.battery_init[2]),
            )
            coherent = run_engine(cfg).records[0]
            incoherent = run_engine(replace(cfg, p_mx=0.0)).records[0]
            assert abs(coherent.cycle_work - incoherent.cycle_work) < 1e-12

    def test_coherent_enhancement_sign_and_size(self):
        # the work excess over the incoherent engine is exactly the coherence
        # cross term 2 p_mx p_y sin(t) cos^3(t), positive on (0, pi/2)
        rng = np.random.default_rng(9)
        for _ in range(50):
            theta = float(rng.uniform(0.05, math.pi / 2 - 0.05))
            p_mx = float(rng.uniform(0.05, 0.5))
            p_y = float(rng.uniform(0.05, 0.5))
            cfg = EngineConfig(
                theta=theta,
                p_mx=p_mx,
                hot_populations=(0.5, 0.5),
                cold_populations=(0, 1),
                battery_init=(0, p_y, 0),
            )
            coherent = run_engine(cfg).records[0]
            incoherent = run_engine(replace(cfg, p_mx=0.0)).records[0]
            gap = coherent.cycle_work - incoherent.cycle_work
            assert gap > 0
            expected = 2 * p_mx * p_y * math.sin(theta) * math.cos(theta) ** 3
            assert gap == pytest.approx(expected, abs=1e-12)

    def test_coherence_transfer_to_polarized_battery(self):
        # a ground-state battery picks up y-coherence within one cycle
        cfg = EngineConfig(
            theta=math.pi / 4,
            p_mx=0.5,
            hot_populations=(0.5, 0.5),
            cold_populations=(0, 1),
            battery_init=(0, 0, -0.5),
        )
        record = run_engine(cfg).records[0]
        assert abs(record.p_by) > 0.1


class TestConfigBatch:
    def test_of_and_configs_round_trip(self):
        configs = [
            EngineConfig(theta=0.3, theta_compression=0.7, p_mx=-0.2, hot_populations=(0.9, 0.1),
                         cold_populations=(0.2, 0.8), battery_init=(0.1, -0.2, 0.3), battery_dephasing_per_reset=0.5,
                         battery_t2_per_cycle=0.25, cycles=7),
            EngineConfig(theta=1.1, theta_compression=1.1),
        ]
        batch = ConfigBatch.of(configs)
        assert len(batch) == 2 and batch.cycles.dtype.kind == "i"
        assert batch.configs() == configs
        assert ConfigBatch.of([EngineConfig(theta=0.4)]).compression_theta.tolist() == [0.4]

    def test_draws_are_checked_configs(self):
        batch = random_noisy_configs(np.random.default_rng(3), 64, cycles=2)
        assert ConfigBatch.of(batch.configs()).configs() == batch.configs()
        for a, b in zip(battery_map(batch), battery_map(ConfigBatch.of(batch.configs()))):
            assert np.array_equal(a, b)

    def test_arrays_are_read_only(self):
        batch = ConfigBatch.of([EngineConfig()])
        with pytest.raises(ValueError):
            batch.theta[0] = 2.0
        with pytest.raises(ValueError):
            batch.hot_populations[0, 0] = 0.9

    def test_shapes_must_match_the_rows(self):
        columns = {f.name: getattr(ConfigBatch.of([EngineConfig()] * 2), f.name) for f in fields(ConfigBatch)}
        with pytest.raises(ConfigError, match=r"battery_init must be an array of numbers of shape \(2, 3\)"):
            ConfigBatch(**dict(columns, battery_init=np.zeros((2, 2))))
        with pytest.raises(ConfigError, match="p_mx"):
            ConfigBatch(**dict(columns, p_mx=[0.1]))

    def test_first_bad_row_is_named(self):
        columns = {f.name: np.array(getattr(ConfigBatch.of([EngineConfig()] * 4), f.name)) for f in fields(ConfigBatch)}
        columns["battery_t2_per_cycle"][[2, 3]] = (1.5, math.nan)
        with pytest.raises(ConfigError, match=re.escape("battery_t2_per_cycle[2] must lie in [0, 1], got 1.5")):
            ConfigBatch(**columns)
        columns["battery_t2_per_cycle"][2] = 1.0
        with pytest.raises(ConfigError, match=re.escape("battery_t2_per_cycle[3] must lie in [0, 1], got nan")):
            ConfigBatch(**columns)

    def test_bools_in_arrays_are_rejected_not_converted(self):
        columns = {f.name: getattr(ConfigBatch.of([EngineConfig()] * 2), f.name) for f in fields(ConfigBatch)}
        with pytest.raises(ConfigError, match=re.escape("cycles[1] must be a positive integer, got True")):
            ConfigBatch(**dict(columns, cycles=[2, True]))
        with pytest.raises(ConfigError, match=re.escape("cycles must be an array of integers, got float64")):
            ConfigBatch(**dict(columns, cycles=np.array([2.0, 2.0])))
        with pytest.raises(ConfigError, match=re.escape("battery_t2_per_cycle must be an array of numbers, got bool")):
            ConfigBatch(**dict(columns, battery_t2_per_cycle=np.array([True, True])))
        with pytest.raises(ConfigError, match=re.escape("p_mx[1] must be a finite number, got True")):
            ConfigBatch(**dict(columns, p_mx=[0.1, True]))

    @pytest.mark.parametrize(
        "column, value, name",
        [("theta", [0.1, 10**400], "theta[1]"), ("battery_init", [(0.0, 0.0, 0.0), (0.0, 0.0, -(10**5000))],
                                                  "battery_init[1]")],
        ids=["theta", "battery_init"],
    )
    def test_an_int_beyond_the_float_range_is_named_with_its_index(self, column, value, name):
        # each entry of a list goes through _number, whose float() once let an OverflowError escape
        columns = {f.name: getattr(ConfigBatch.of([EngineConfig()] * 2), f.name) for f in fields(ConfigBatch)}
        rule = f"{name} must be a finite number, got int beyond the float range"
        with pytest.raises(ConfigError, match=f"^{re.escape(rule)}$"):
            ConfigBatch(**dict(columns, **{column: value}))

    def test_fields_are_engine_configs_in_order(self):
        # one field list: the batch holds the resolved compression angle in
        # place of theta_compression, and every other field under its own name
        rename = {"theta_compression": "compression_theta"}
        assert [f.name for f in fields(ConfigBatch)] == [rename.get(f.name, f.name) for f in fields(EngineConfig)]


class TestCountBound:
    # A count above MAX_COUNT was once accepted and then failed inside
    # run_engine: an OverflowError converting the column, or "negative
    # dimensions" from cycles.max() + 1.

    def test_max_count_is_the_longest_run_numpy_can_describe(self):
        # a broadcast view has the shape of P_0 ... P_n without allocating it
        np.broadcast_to(np.zeros(3), (MAX_COUNT + 1, 3))
        with pytest.raises(ValueError, match="too big"):
            np.broadcast_to(np.zeros(3), (MAX_COUNT + 2, 3))

    @pytest.mark.parametrize("cycles", [np.array([1, MAX_COUNT + 1, 1]), np.array([1, 2**63 - 1, 1]),
                                        np.array([1, 2**64 - 1, 1], dtype=np.uint64)])
    def test_an_array_of_counts_is_checked_before_it_becomes_int64(self, cycles):
        columns = {f.name: getattr(ConfigBatch.of([EngineConfig()] * 3), f.name) for f in fields(ConfigBatch)}
        rule = f"must be a positive integer up to {MAX_COUNT}, got {cycles[1]}"
        with pytest.raises(ConfigError, match=re.escape(f"cycles[1] {rule}")):
            ConfigBatch(**dict(columns, cycles=cycles))

    def test_the_largest_count_is_admitted(self):
        # not run: its battery vectors alone would take 9.2e18 bytes
        columns = {f.name: getattr(ConfigBatch.of([EngineConfig()] * 2), f.name) for f in fields(ConfigBatch)}
        assert EngineConfig(cycles=MAX_COUNT).cycles == MAX_COUNT
        assert ConfigBatch(**dict(columns, cycles=np.array([1, MAX_COUNT]))).cycles[1] == MAX_COUNT


class TestEngineConfig:
    def test_defaults_are_valid(self):
        cfg = EngineConfig()
        assert cfg.hot_populations == (0.485, 0.515)
        assert cfg.cold_populations == (0.03, 0.97)
        assert (cfg.battery_dephasing_per_reset, cfg.battery_t2_per_cycle) == (1.0, 1.0)

    def test_invalid_configs_raise(self):
        with pytest.raises(ConfigError):
            EngineConfig(p_mx=0.6)
        with pytest.raises(ConfigError):
            EngineConfig(battery_init=(0.5, 0.5, 0.5))
        with pytest.raises(ConfigError):
            EngineConfig(cycles=0)
        with pytest.raises(ConfigError):
            EngineConfig(hot_populations=(0.7, 0.7))
        with pytest.raises(ConfigError):
            EngineConfig(battery_t2_per_cycle=1.5)

    @pytest.mark.parametrize(
        "field, kwargs",
        [
            ("p_mx", dict(p_mx=math.nan)),
            ("theta", dict(theta=math.inf)),
            ("theta_compression", dict(theta_compression=math.nan)),
            ("battery_init", dict(battery_init=(math.nan, 0.0, 0.0))),
            ("cycles", dict(cycles=2.5)),
            ("cycles", dict(cycles=True)),
            ("p_mx", dict(p_mx=0.6)),
            ("battery_init", dict(battery_init=(0.5, 0.5, 0.5))),
            # strings and bools are not numbers, even where float() accepts them
            ("theta", dict(theta="0.5")),
            ("theta", dict(theta=True)),
            ("theta_compression", dict(theta_compression=False)),
            ("p_mx", dict(p_mx="0.3")),
            ("p_mx", dict(p_mx=True)),
            ("hot_populations", dict(hot_populations=("0.5", "0.5"))),
            ("battery_init", dict(battery_init=(0.0, "0.1", 0.0))),
            ("battery_dephasing_per_reset", dict(battery_dephasing_per_reset="0.5")),
            ("battery_dephasing_per_reset", dict(battery_dephasing_per_reset=True)),
            ("battery_t2_per_cycle", dict(battery_t2_per_cycle=math.nan)),
            ("battery_t2_per_cycle", dict(battery_t2_per_cycle=None)),
            # every other kind of bad number: NaN, inf, out of range, a count
            # that is not a positive integer, |p_mx| above sqrt(p0 p1) of the
            # default hot bath, |P| > 1/2, noise outside [0, 1]
            ("theta", dict(theta=math.nan)),
            ("theta_compression", dict(theta_compression=-math.inf)),
            ("p_mx", dict(p_mx=-0.6)),
            ("p_mx", dict(p_mx=math.inf)),
            ("hot_populations", dict(hot_populations=(0.7, 0.7))),
            ("hot_populations", dict(hot_populations=(1.5, -0.5))),
            ("hot_populations", dict(hot_populations=(math.inf, 0.5))),
            ("cold_populations", dict(cold_populations=(-0.1, 1.1))),
            ("cold_populations", dict(cold_populations=(math.nan, 1.0))),
            ("battery_init", dict(battery_init=(0.0, 0.0, math.inf))),
            ("cycles", dict(cycles=0)),
            ("cycles", dict(cycles=-3)),
            ("battery_dephasing_per_reset", dict(battery_dephasing_per_reset=1.5)),
            ("battery_dephasing_per_reset", dict(battery_dephasing_per_reset=-0.25)),
            ("battery_dephasing_per_reset", dict(battery_dephasing_per_reset=math.inf)),
            ("battery_t2_per_cycle", dict(battery_t2_per_cycle=1.0 + 1e-9)),
            # a count must be an integer, and a bool inside a sequence or a
            # numpy bool is no number either
            ("cycles", dict(cycles=2.0)),
            # a count too large for numpy to describe its run's battery vectors
            ("cycles", dict(cycles=MAX_COUNT + 1)),
            ("cycles", dict(cycles=2**63 - 1)),
            ("cycles", dict(cycles=2**70)),
            ("hot_populations", dict(hot_populations=(True, False))),
            ("cold_populations", dict(cold_populations=(True, False))),
            ("battery_init", dict(battery_init=(0.0, True, 0.0))),
            ("p_mx", dict(p_mx=np.True_)),
            ("battery_t2_per_cycle", dict(battery_t2_per_cycle=np.True_)),
            # populations in [0, 1] that do not sum to 1
            ("cold_populations", dict(cold_populations=(0.6, 0.6))),
            # an int beyond the float range once escaped float() as an
            # OverflowError; 10**5000 has no repr under the int-to-str limit
            ("theta", dict(theta=10**400)),
            ("battery_init", dict(battery_init=(0.0, -(10**5000), 0.0))),
        ],
    )
    def test_bad_numbers_rejected_naming_the_field(self, field, kwargs):
        with pytest.raises(ConfigError, match=field):
            EngineConfig(**kwargs)
        # a batch checks each row by the same rules, so it rejects every bad
        # value, naming the field and the row it sits in
        batch_field = "compression_theta" if field == "theta_compression" else field
        with pytest.raises(ConfigError, match=re.escape(f"{batch_field}[1]") + "[ :]"):
            batch_with_row_1(batch_field, kwargs[field])

    def test_numbers_are_stored_as_float(self):
        cfg = EngineConfig(theta=1, theta_compression=np.float64(0.5), p_mx=np.int64(0),
                           battery_dephasing_per_reset=1, battery_t2_per_cycle=np.float32(0.5))
        values = (cfg.theta, cfg.theta_compression, cfg.p_mx,
                  cfg.battery_dephasing_per_reset, cfg.battery_t2_per_cycle)
        assert values == (1.0, 0.5, 0.0, 1.0, 0.5)
        assert all(type(v) is float for v in values)
        # each vector field is a plain tuple of floats, whatever sequence it was given as
        vectors = EngineConfig(p_mx=0, hot_populations=[1, 0], battery_init=np.array([0, 0.25, -0.25]),
                               cold_populations=np.array([0.25, 0.75], dtype=np.float32))
        rows = (vectors.hot_populations, vectors.cold_populations, vectors.battery_init)
        assert rows == ((1.0, 0.0), (0.25, 0.75), (0.0, 0.25, -0.25))
        assert all(type(row) is tuple and all(type(v) is float for v in row) for row in rows)
        same = EngineConfig(theta=1.0, theta_compression=0.5, p_mx=0.0, battery_dephasing_per_reset=1.0,
                            battery_t2_per_cycle=0.5)
        for x, y in zip(battery_map(ConfigBatch.of([cfg])), battery_map(ConfigBatch.of([same]))):
            assert np.array_equal(x, y)

    def test_compression_angle_defaults_to_theta(self):
        assert EngineConfig(theta=0.7).compression_theta == 0.7
        assert EngineConfig(theta=0.7, theta_compression=0.2).compression_theta == 0.2
