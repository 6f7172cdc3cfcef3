import math
import re
import sys
from dataclasses import replace

import numpy as np
import pytest

from spinotto import diagnostics, engine, validate
from spinotto.diagnostics import polarization_vector
from spinotto.engine import (
    ConfigBatch,
    ConfigError,
    EngineConfig,
    power_stroke,
    prepare_battery,
    reset_medium,
)
from spinotto.cli import main
from spinotto.linalg import PAULI, PSD_CLAMP, DimensionError, ValidationError, kron, partial_trace
from spinotto.multicycle import (
    MAP_BLOCK,
    battery_map,
    compare_coherent_incoherent,
    dephase_battery,
    peak_advantage,
    run_engine,
    run_engines,
    stack_runs,
)
from spinotto.scenario import PRESETS
from spinotto.validate import (
    ORACLE_TOL,
    loop_engines,
    random_density,
    random_noisy_configs,
    run_all_checks,
    stage_loop_gaps,
    stage_map,
)

IDEAL = dict(hot_populations=(0.5, 0.5), cold_populations=(0.0, 1.0))


def advantage_fixture(cycles: int = 10) -> EngineConfig:
    """Frozen grid-search result: an ideal-regime configuration with a large
    early coherent work advantage.

    Found by searching theta in (0, pi/2) and p_mx in (0, 0.5] under ideal
    noise with a ground-state battery: at theta = pi/4, p_mx = 0.5 the
    per-cycle advantage reaches 2.0 on cycle 2 and 4.0 on cycle 3. Kept as a
    regression anchor; re-derivable with the search-default preset.
    """
    return EngineConfig(
        theta=0.7853981633974483,
        p_mx=0.5,
        hot_populations=(0.5, 0.5),
        cold_populations=(0.0, 1.0),
        battery_init=(0.0, 0.0, -0.5),
        cycles=cycles,
    )


def single_map(config):
    """A and b of the battery map of one config, without the leading config axis."""
    A, b = battery_map(ConfigBatch.of([config]))
    return A[0], b[0]


def compare(config):
    """The comparison of config with its p_mx = 0 twin, both maps stacked."""
    return compare_coherent_incoherent(*run_engines([config, replace(config, p_mx=0.0)]))


class TestDephaseBattery:
    def test_factor_one_is_identity(self):
        rng = np.random.default_rng(0)
        joint = random_density(rng, 4)
        assert np.array_equal(dephase_battery(joint, 1.0), joint)

    def test_factor_zero_kills_battery_coherence(self):
        battery = 0.5 * np.eye(2) + 0.5 * PAULI[2]
        joint = kron(np.eye(2, dtype=complex) / 2, battery)
        out = dephase_battery(joint, 0.0)
        marginal = partial_trace(out, "battery")
        assert np.allclose(marginal, np.eye(2) / 2, atol=1e-14)
        assert abs(marginal[0, 1]) < 1e-14

    def test_preserves_trace_and_hermiticity(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            joint = random_density(rng, 4)
            out = dephase_battery(joint, 0.7)
            assert abs(np.trace(out) - 1) < 1e-12
            assert np.max(np.abs(out - out.conj().T)) < 1e-12
            assert np.linalg.eigvalsh(out)[0] > -1e-10

    def test_equals_phase_flip_channel(self):
        # f-dephasing is the phase flip with probability (1 - f)/2
        rng = np.random.default_rng(2)
        zz = kron(np.eye(2, dtype=complex), PAULI[3])
        for factor in (0.0, 0.3, 0.9):
            joint = random_density(rng, 4)
            p = (1 - factor) / 2
            expected = (1 - p) * joint + p * zz @ joint @ zz
            assert np.max(np.abs(dephase_battery(joint, factor) - expected)) < 1e-13

    def test_stages_on_a_stack_equal_separate_calls(self):
        rng = np.random.default_rng(13)
        joints = np.array([random_density(rng, 4, rank=int(r)) for r in rng.integers(1, 5, size=6)])
        fresh = random_density(rng, 2)
        stages = {
            "dephase_battery": lambda j: dephase_battery(j, 0.37),
            "power_stroke": lambda j: power_stroke(j, 0.81),
            "reset_medium": lambda j: reset_medium(j, fresh),
            "partial_trace": lambda j: partial_trace(j, "battery"),
        }
        for name, stage in stages.items():
            assert np.array_equal(stage(joints), np.array([stage(j) for j in joints])), name

    def test_factor_out_of_range(self):
        rng = np.random.default_rng(3)
        with pytest.raises(ValidationError):
            dephase_battery(random_density(rng, 4), 1.2)

    def test_one_factor_per_config_equals_separate_calls(self):
        # factors run along the leading axis of a (k, 4, 4, 4) stack
        rng = np.random.default_rng(15)
        joints = np.array([[random_density(rng, 4) for _ in range(4)] for _ in range(5)])
        factors = rng.uniform(size=5)
        out = dephase_battery(joints, factors)
        for joint, factor, got in zip(joints, factors, out):
            assert np.array_equal(got, dephase_battery(joint, float(factor)))

    @pytest.mark.parametrize("bad", [math.nan, 1.5, -0.25])
    def test_bad_factor_anywhere_in_a_stack_rejected(self, bad):
        joints = np.array([np.eye(4) / 4] * 4)
        with pytest.raises(ValidationError, match=f"dephasing factor.*{bad}"):
            dephase_battery(joints, [1.0, 0.5, bad, 0.0])

    def test_first_bad_factor_of_a_stack_is_named_with_its_index(self):
        joints = np.array([np.eye(4) / 4] * 4)
        with pytest.raises(ValidationError, match=r"^dephasing factor\[1\] .*got 1\.5$"):
            dephase_battery(joints, [1.0, 1.5, math.nan, -0.25])
        with pytest.raises(ValidationError, match=r"^dephasing factor\[2\] .*got nan$"):
            dephase_battery(joints, [0.0, 1.0, math.nan, -0.25])

    def test_factors_must_match_the_stack(self):
        with pytest.raises(DimensionError, match="^dephase_battery: dephasing factors of shape"):
            dephase_battery(np.array([np.eye(4) / 4] * 4), [0.1, 0.2, 0.3])
        with pytest.raises(DimensionError, match="^dephase_battery: dephasing factors of shape"):
            dephase_battery(np.eye(4) / 4, [0.1, 0.2, 0.3, 0.4])


class TestCycleMap:
    def test_matches_explicit_loop_on_fig3_and_fixture(self):
        for trace in run_engines([PRESETS["fig3"]().engine, advantage_fixture(10)]):
            gaps = stage_loop_gaps([trace])
            assert max(gaps.values()) <= 1e-14, gaps

    def test_matches_explicit_loop_on_random_noisy_configs(self):
        rng = np.random.default_rng(11)
        configs = random_noisy_configs(rng, 200, cycles=10).configs()
        configs += random_noisy_configs(rng, 5, cycles=200).configs()
        worst = stage_loop_gaps(run_engines(configs))
        assert max(worst.values()) <= 1e-13, worst

    def test_stage_loop_stack_equals_single_config_loops(self):
        # configs of mixed cycle counts, stacked by count, in input order
        rng = np.random.default_rng(17)
        drawn = random_noisy_configs(rng, 9, cycles=1)
        configs = replace(drawn, cycles=rng.integers(1, 4, size=9)).configs()
        for stacked, config in zip(loop_engines(configs), configs, strict=True):
            (single,) = loop_engines([config])
            assert stacked.config is config and stacked.records == single.records

    def test_fig3_map_spectrum_and_fixed_point(self):
        A, b = single_map(PRESETS["fig3"]().engine)
        eig = sorted(np.linalg.eigvals(A), key=lambda z: (z.imag, z.real))
        expected = [0.71333 - 0.26316j, 0.69484, 0.71333 + 0.26316j]
        assert np.max(np.abs(np.array(eig) - expected)) <= 1e-5
        fixed = np.linalg.solve(np.eye(3) - A, b)
        assert np.max(np.abs(fixed - [0.0, 0.124703, -0.140634])) <= 1e-5

    def test_stack_runs_makes_three_stage_calls_per_block(self, monkeypatch):
        # A and b are closed form; only the post-stroke states need the
        # stages, one call each on the flat stack of every recorded cycle of
        # the block, whatever its cycle counts
        calls = []
        for fn in (kron, dephase_battery, power_stroke, reset_medium, partial_trace):
            def spy(*args, _fn=fn):
                calls.append(_fn.__name__)
                return _fn(*args)
            patch_everywhere(monkeypatch, fn, spy)
        stack_runs([EngineConfig(), EngineConfig(theta=0.3)])
        assert calls == ["kron", "dephase_battery", "power_stroke"]
        calls.clear()
        stack_runs([EngineConfig(cycles=3), EngineConfig(theta=0.3, cycles=1), EngineConfig(theta=0.4, cycles=3)])
        assert calls == ["kron", "dephase_battery", "power_stroke"]

    def test_bloch_ball_checked_every_cycle(self, monkeypatch):
        # a map that pushes P out of the ball must be rejected, not recorded
        config = EngineConfig(cycles=3)
        bad = 2.0 * np.eye(3)[None], np.array([[0.0, 0.0, 0.2]])
        monkeypatch.setattr(sys.modules["spinotto.multicycle"], "battery_map", lambda _: bad)
        with pytest.raises(ValidationError, match=r"cycle 1: .*\|P_n\| = 0\.8,"):
            run_engine(config)

    def test_bloch_ball_check_comes_before_the_stages(self, monkeypatch):
        # a seeded fault: a NaN in A. The NaN counts as outside the ball, and
        # the check rejects it before any stage sees a NaN state
        config = EngineConfig(cycles=3)
        A, b = battery_map(ConfigBatch.of([config]))
        A[0, 1, 2] = math.nan
        monkeypatch.setattr(sys.modules["spinotto.multicycle"], "battery_map", lambda _: (A, b))
        with pytest.raises(ValidationError, match=r"^cycle 1: .*\|P_n\| = nan, outside the Bloch ball"):
            run_engine(config)

    def test_bloch_ball_error_names_the_first_cycle_outside(self, monkeypatch):
        # a seeded fault: the cycle's A scaled by 3 drives |P_n| out of the
        # ball after a few cycles; the error names that cycle and its |P_n|
        config = EngineConfig(cycles=12, battery_init=(0.0, 0.1, 0.1))
        A, b = battery_map(ConfigBatch.of([config]))
        monkeypatch.setattr(sys.modules["spinotto.multicycle"], "battery_map", lambda _: (3.0 * A, b))
        p, norms = np.array(config.battery_init), []
        while not norms or 0.5 - norms[-1] >= PSD_CLAMP:
            p = 3.0 * A[0] @ p + b[0]
            norms.append(float(np.linalg.norm(p)))
        assert 1 < len(norms) <= config.cycles
        with pytest.raises(ValidationError) as excinfo:
            run_engine(config)
        message = str(excinfo.value)
        assert message.startswith(f"cycle {len(norms)}: ")
        reported = float(re.search(r"\|P_n\| = ([0-9.e+-]+),", message).group(1))
        assert reported == pytest.approx(norms[-1], rel=1e-11)


class TestBatteryMap:
    """The closed form against validate.stage_map, which reads the map off
    probe batteries pushed through every stage."""

    def test_equals_the_stage_probes_on_noisy_configs(self):
        rng = np.random.default_rng(30)
        batch = random_noisy_configs(rng, 300, cycles=1)
        for closed, probed in zip(battery_map(batch), stage_map(batch)):
            assert np.max(np.abs(closed - probed)) <= ORACLE_TOL

    def test_stack_equals_single_config_calls(self):
        rng = np.random.default_rng(33)
        batch = random_noisy_configs(rng, 50, cycles=1)
        singles = [battery_map(ConfigBatch.of([c])) for c in batch.configs()]
        for stacked, single in zip(battery_map(batch), zip(*singles)):
            assert np.array_equal(stacked, np.concatenate(single))

    @pytest.fixture(scope="class")
    def fuel_twins(self):
        # stage_map of 256 noisy configs at p_mx = m, m/2 and 0
        rng = np.random.default_rng(31)
        batch = random_noisy_configs(rng, 256, cycles=1)
        return [stage_map(replace(batch, p_mx=f * batch.p_mx)) for f in (1.0, 0.5, 0.0)]

    def test_diagonal_without_fuel(self, fuel_twins):
        # at m = 0 the channel is phase covariant
        A0 = fuel_twins[2][0]
        assert np.max(np.abs(A0[:, ~np.eye(3, dtype=bool)])) <= 1e-15

    def test_fuel_enters_linearly_and_only_through_a(self, fuel_twins):
        # A(m) - A(0) = m A_1, with m A_1 = 2 (A(m/2) - A(0)); b does not move
        (A, b), (A_half, b_half), (A0, b0) = fuel_twins
        assert np.max(np.abs((A - A0) - 2.0 * (A_half - A0))) <= 1e-15
        assert np.max(np.abs(b - b0)) <= 1e-15 and np.max(np.abs(b_half - b0)) <= 1e-15

    def test_x_decouples_and_b_lies_on_z(self, fuel_twins):
        A, b = fuel_twins[0]
        assert np.max(np.abs(A[:, [0, 0, 1, 2], [1, 2, 0, 0]])) <= 1e-15
        assert np.max(np.abs(b[:, :2])) <= 1e-15


def patch_everywhere(monkeypatch, original, replacement):
    """Rebind original to replacement in every spinotto module that holds it."""
    for mod in [m for name, m in sys.modules.items() if name.startswith("spinotto")]:
        for attr, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, attr, replacement)


def test_one_record_and_one_concurrence_per_cycle(monkeypatch):
    # bench/run.py --trace 1 counts both per cycle record, and prepare_battery
    # once per stack_runs block (one config is one block); a path that skipped
    # or batched any of them would make the traced benchmark fail its count check
    calls = {"make_cycle_record": 0, "concurrence": 0, "prepare_battery": 0}

    def spy(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    originals = {
        "make_cycle_record": engine.make_cycle_record,
        "concurrence": diagnostics.concurrence,
        "prepare_battery": engine.prepare_battery,
    }
    for name, fn in originals.items():
        patch_everywhere(monkeypatch, fn, spy(name, fn))
    run_engine(EngineConfig(cycles=7, battery_dephasing_per_reset=0.9, battery_t2_per_cycle=0.8))
    assert calls == {"make_cycle_record": 7, "concurrence": 7, "prepare_battery": 1}
    compare(EngineConfig(cycles=5))  # a config and its twin: one block
    assert calls == {"make_cycle_record": 17, "concurrence": 17, "prepare_battery": 2}


def test_closed_form_columns_once_per_block(monkeypatch):
    # ergotropy and coherence take every recorded P_n of a stack_runs block
    # at once; only make_cycle_record and concurrence run per record
    calls = {name: [] for name in ("ergotropy", "relative_entropy_of_coherence", "make_cycle_record", "concurrence")}

    def spy(name, fn):
        def wrapped(*args):
            calls[name].append(np.shape(args[0]))
            return fn(*args)
        return wrapped

    for name in calls:
        fn = getattr(engine if name == "make_cycle_record" else diagnostics, name)
        patch_everywhere(monkeypatch, fn, spy(name, fn))
    drawn = random_noisy_configs(np.random.default_rng(8), MAP_BLOCK + 2, cycles=1).configs()
    configs = [replace(c, cycles=1 + j % 3) for j, c in enumerate(drawn)]
    traces = run_engines(configs)
    blocks = [(sum(c.cycles for c in configs[:MAP_BLOCK]), 3), (sum(c.cycles for c in configs[MAP_BLOCK:]), 3)]
    assert calls["ergotropy"] == calls["relative_entropy_of_coherence"] == blocks
    assert len(calls["make_cycle_record"]) == len(calls["concurrence"]) == sum(c.cycles for c in configs)
    for trace in traces:  # each config's cumulative work is the running sum of its own works from 0.0
        total = 0.0
        for r in trace.records:
            total += r.cycle_work
            assert r.cumulative_work == total


def test_transposed_map_fails_both_oracles(monkeypatch):
    # a seeded fault in the battery map: each config's A transposed. The
    # transpose swaps the two y-z couplings. Whether some draw of the
    # complete-positivity check gets a transposed map that no channel
    # realizes depends on the draws, so that check may fail too; nothing
    # else may
    original = battery_map

    def transposed(batch):
        A, b = original(batch)
        return A.swapaxes(1, 2), b

    patch_everywhere(monkeypatch, original, transposed)
    failed = [c.name for c in run_all_checks() if not c.passed]
    assert [name for name in failed if name != "cycle_is_completely_positive"] == [
        "oracle_equivalence", "map_vs_stage_loop"
    ]


def test_flipped_x_row_fails_the_oracle_and_complete_positivity(monkeypatch):
    # a seeded fault in the battery map: the cycle's A followed by the
    # reflection x -> -x, which, like a transpose, no channel realizes. Only
    # validate's binding is faulty, so map_vs_stage_loop (through multicycle)
    # is untouched
    original = battery_map

    def flipped(configs):
        A, b = original(configs)
        A[:, 0] *= -1
        return A, b

    monkeypatch.setattr(validate, "battery_map", flipped)
    checks = run_all_checks()
    failed = [c for c in checks if not c.passed]
    assert [c.name for c in failed] == ["oracle_equivalence", "cycle_is_completely_positive"]
    for c in failed:
        assert float(re.search(r"= (\d\.\d{3}e[+-]\d\d)", c.detail).group(1)) > 0.1
    for c in checks:
        assert re.search(r"\d\.\d{3}e[+-]\d\d", c.detail), c


def flipped_yz_sign(A, b, batch):
    A[:, 1, 2] *= -1


def yz_without_reset_dephasing(A, b, batch):
    A[:, 1, 2] = -2.0 * batch.battery_t2_per_cycle * batch.p_mx * np.sin(batch.theta) * np.cos(batch.compression_theta)


def flipped_b_z_sign(A, b, batch):
    b[:, 2] *= -1


@pytest.mark.parametrize("fault", [flipped_yz_sign, yz_without_reset_dephasing, flipped_b_z_sign])
def test_seeded_formula_fault_fails_the_oracle_and_the_stage_loop(monkeypatch, fault):
    # a wrong entry of the closed form, seen by both the stage-probe oracle
    # and the stage loop through run_engines
    original = battery_map

    def faulty(batch):
        A, b = original(batch)
        fault(A, b, batch)
        return A, b

    patch_everywhere(monkeypatch, original, faulty)
    verdicts = {c.name: c.passed for c in run_all_checks()}
    assert not verdicts["oracle_equivalence"]
    assert not verdicts["map_vs_stage_loop"]
    # no channel flips the y-z coupling alone
    assert verdicts["cycle_is_completely_positive"] == (fault is not flipped_yz_sign)


def test_run_engines_hands_each_config_the_next_map_fails_the_stage_loop(monkeypatch):
    # a seeded fault in the stacked path: config i runs on the map of config i+1
    original = battery_map

    def shifted(configs):
        return tuple(np.roll(m, -1, axis=0) for m in original(configs))

    monkeypatch.setattr(sys.modules["spinotto.multicycle"], "battery_map", shifted)
    checks = run_all_checks()
    assert [c.name for c in checks if not c.passed] == ["map_vs_stage_loop"]
    for c in checks:
        assert re.search(r"\d\.\d{3}e[+-]\d\d", c.detail), c


def residual(check, label: str) -> float:
    """The residual that a check's detail reports under label."""
    return float(re.search(re.escape(label) + r" = (\S+) \(tol ", check.detail).group(1))


def test_stroke_with_flipped_sine_fails_the_stroke_check(monkeypatch):
    # a seeded fault: power_stroke rotates by -theta, so the sign of its sine
    # flips; unitarity and the sector populations still hold, and within the
    # stroke check only the comparison with the dense U rho U+ sees it
    patch_everywhere(monkeypatch, power_stroke, lambda joint, theta: power_stroke(joint, -np.asarray(theta)))
    stroke = next(c for c in run_all_checks() if c.name == "stroke_unitarity_and_sectors")
    assert not stroke.passed
    assert residual(stroke, "max |power_stroke - U rho U+|") > 0.1
    assert stroke.detail.endswith("; failed: max |power_stroke - U rho U+|")
    assert residual(stroke, "max |U+U - I|") <= 1e-12
    assert residual(stroke, "max sector-population drift") <= 1e-12


def partial_transpose_battery(joint):
    return joint.reshape(joint.shape[:-2] + (2, 2, 2, 2)).swapaxes(-1, -3).reshape(joint.shape)


@pytest.mark.parametrize(
    "stage, fault",
    [
        (power_stroke, lambda joint, theta: partial_transpose_battery(power_stroke(joint, theta))),
        (dephase_battery, lambda joint, f: partial_transpose_battery(dephase_battery(joint, f))),
        # the partial transpose after a reset is no fault: fresh (x) rho_B^T is still a state
        (reset_medium, lambda joint, fresh: 2 * reset_medium(joint, fresh) - joint),
    ],
    ids=["power_stroke", "dephase_battery", "reset_medium"],
)
def test_non_positive_stage_fails_the_fuzz(monkeypatch, stage, fault):
    # a seeded fault in one stage kind: each keeps hermiticity and trace,
    # which is all the stages check, but not positivity, so the chains run
    # on and the fuzz must report the eigenvalue floor
    patch_everywhere(monkeypatch, stage, fault)
    tr_err, min_eig = validate.fuzz_stage_validity()
    assert tr_err < 1e-12 and min_eig < -0.1
    fuzz = next(c for c in run_all_checks() if c.name == "stage_validity_fuzz")
    assert not fuzz.passed
    assert residual(fuzz, "lowest-eigenvalue negativity max(0, -lambda_min)") == float(f"{-min_eig:.3e}")
    assert fuzz.detail.endswith("; failed: lowest-eigenvalue negativity max(0, -lambda_min)")


def test_a_raising_check_becomes_a_failed_row(monkeypatch, tmp_path, capsys):
    # a seeded fault: power_stroke's output scaled by 1.001, so the next stage
    # that validates it raises. Each raising check reports the exception, the
    # other checks still run, and validate exits 1 with all its rows printed
    patch_everywhere(monkeypatch, power_stroke, lambda joint, theta: 1.001 * power_stroke(joint, theta))
    checks = run_all_checks()
    assert [c.name for c in checks] == [name for name, _ in validate.CHECKS]
    raised = [c for c in checks if c.detail.startswith("raised ")]
    assert "stage_validity_fuzz" in [c.name for c in raised]
    rejecting = {}
    for c in raised:
        assert not c.passed
        match = re.fullmatch(r"raised ValidationError: (\w+): density operator trace 1\.001\S* differs from 1", c.detail)
        rejecting[c.name] = match.group(1)
    # the function whose input check rejected the scaled state names itself
    assert rejecting == {
        "oracle_equivalence": "reset_medium",
        "classical_battery_first_cycle": "reset_medium",
        "stage_validity_fuzz": "power_stroke",
        "map_vs_stage_loop": "correlator_sets",
    }
    assert {c.name for c in checks if c.passed} >= {"partial_trace_identities", "state_preparation_roundtrip"}

    assert main(["validate", "--output-dir", str(tmp_path)]) == 1
    rows = [line for line in capsys.readouterr().out.splitlines() if line.startswith(("PASS", "FAIL"))]
    assert len(rows) == len(validate.CHECKS)
    assert any(row.startswith("FAIL  stage_validity_fuzz") and "raised ValidationError" in row for row in rows)


class TestFuzz:
    def test_every_chain_takes_one_stage_per_step_and_every_kind_occurs(self, monkeypatch):
        # each call records what it was handed: the stages their stack's
        # length, random_density (dim, n) and state_validity its stack's shape
        seen = {"power_stroke": [], "reset_medium": [], "dephase_battery": [], "random_density": [],
                "state_validity": []}

        def spy(name, fn, record):
            def wrapped(*args, **kwargs):
                seen[name].append(record(*args, **kwargs))
                return fn(*args, **kwargs)
            monkeypatch.setattr(validate, name, wrapped)

        for stage in (power_stroke, reset_medium, dephase_battery):
            spy(stage.__name__, stage, lambda states, arg: len(states))
        spy("random_density", random_density, lambda rng, dim, rank=None, n=None: (dim, n))
        spy("state_validity", validate.state_validity, lambda rho: rho.shape)
        tr_err, min_eig = validate.fuzz_stage_validity()

        steps, chains = validate.FUZZ_STEPS, validate.FUZZ_CHAINS
        stage_calls = [seen[name] for name in ("power_stroke", "reset_medium", "dephase_battery")]
        assert all(stage_calls)
        assert sum(map(len, stage_calls)) == steps
        assert all(n == chains for calls in stage_calls for n in calls)
        # one draw of the restart states, at least one, then one of every qubit
        (dim_starts, restarts), qubits = seen["random_density"]
        assert dim_starts == 4 and restarts >= 1
        assert qubits == (2, (steps + 2) * chains)
        assert seen["state_validity"] == [(2000, 4, 4)]
        assert tr_err <= 1e-12 and min_eig >= -1e-10


def test_oracle_gap_draws_its_configs_one_block_at_a_time(monkeypatch):
    sizes = []

    def spy(rng, n, cycles):
        sizes.append(n)
        return random_noisy_configs(rng, n, cycles)

    monkeypatch.setattr(validate, "random_noisy_configs", spy)
    gap = validate.max_oracle_gap()
    assert sizes == [MAP_BLOCK] * (validate.ORACLE_CONFIGS // MAP_BLOCK) + [validate.ORACLE_CONFIGS % MAP_BLOCK]
    assert 0.0 <= gap <= ORACLE_TOL


@pytest.mark.parametrize("check", [validate.fuzz_stage_validity, validate.max_oracle_gap],
                         ids=["fuzz_stage_validity", "max_oracle_gap"])
def test_a_sampled_check_is_a_function_of_its_seed_alone(check):
    # with no size option left, the seed fixes every draw: validate's rows are reproducible
    assert check(5) == check(5) != check(6)


class TestStartVectors:
    @staticmethod
    def start_draws() -> list[tuple[float, float, float]]:
        rng = np.random.default_rng(19)
        direction = rng.normal(size=(400, 3))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        ball = 0.5 * rng.uniform(size=(200, 1)) ** (1 / 3) * direction[:200]
        surface = 0.5 * direction[200:]  # |P| = 1/2 up to rounding
        zeros = [(x, y, z) for x in (0.0, -0.0) for y in (0.0, -0.0) for z in (0.0, -0.0, 0.5, -0.5)]
        return ball.tolist() + surface.tolist() + zeros

    def test_p0_equals_polarization_vector_bit_for_bit(self):
        # a share shows P_0 through cycle 1: its Bloch vector A P_0 + b, with
        # the maps stacked as stack_runs stacks them, and its work (A P_0 + b)_z - P_0,z
        draws = self.start_draws()
        configs = [EngineConfig(battery_init=p, cycles=1) for p in draws]
        A, b = battery_map(ConfigBatch.of(configs))
        p0 = np.array([polarization_vector(rho) for rho in prepare_battery(ConfigBatch.of(configs))])
        p1 = (A @ p0[..., None])[..., 0] + b
        for p, start, end, ((row,), _, _) in zip(draws, p0, p1, stack_runs(configs), strict=True):
            want = np.array([end[2] - start[2], *end])
            assert np.array([row[0], *row[2:5]]).tobytes() == want.tobytes(), p

    def test_one_bloch_vectors_call_per_block(self, monkeypatch):
        # P_0 of a block is one stacked read of one prepare_battery call
        module = sys.modules["spinotto.multicycle"]
        calls = {"bloch_vectors": [], "prepare_battery": 0}

        def bloch(states):
            calls["bloch_vectors"].append(len(states))
            return diagnostics.bloch_vectors(states)

        def prepare(batch):
            calls["prepare_battery"] += 1
            return prepare_battery(batch)

        monkeypatch.setattr(module, "bloch_vectors", bloch)
        monkeypatch.setattr(module, "prepare_battery", prepare)
        configs = random_noisy_configs(np.random.default_rng(3), MAP_BLOCK + 2, cycles=2).configs()
        run_engines(configs)
        assert calls == {"bloch_vectors": [MAP_BLOCK, 2], "prepare_battery": 2}


class TestRunEngines:
    @pytest.mark.parametrize("k", [1, MAP_BLOCK - 1, MAP_BLOCK, MAP_BLOCK + 1])
    def test_equals_run_engine_per_config(self, k, monkeypatch):
        rng = np.random.default_rng(20 + k)
        configs = random_noisy_configs(rng, k, cycles=2).configs()
        blocks = []

        def spy(block):
            blocks.append(len(block))
            return battery_map(block)

        monkeypatch.setattr(sys.modules["spinotto.multicycle"], "battery_map", spy)
        stacked = run_engines(configs)
        # one stacked call per block, and the blocks stream in order
        assert blocks == [min(MAP_BLOCK, k - a) for a in range(0, k, MAP_BLOCK)]
        monkeypatch.undo()
        assert [t.config for t in stacked] == configs
        for trace, config in zip(stacked, configs, strict=True):
            assert trace.records == run_engine(config).records

    def test_empty(self):
        assert run_engines([]) == []

    def test_one_stacked_pass_per_block_with_ragged_cycle_counts(self, monkeypatch):
        # MAP_BLOCK + 1 configs of 1, 5 and 2 cycles in turn: one battery_map,
        # one correlator_sets and one prepare_battery call per block, one
        # run_engine call per config, and every trace as run_engine alone makes it
        rng = np.random.default_rng(40)
        drawn = random_noisy_configs(rng, MAP_BLOCK + 1, cycles=1)
        configs = replace(drawn, cycles=[(1, 5, 2)[i % 3] for i in range(MAP_BLOCK + 1)]).configs()
        module = sys.modules["spinotto.multicycle"]
        calls = {"battery_map": [], "correlator_sets": [], "prepare_battery": 0, "run_engine": 0}

        def spy(name, fn, size=None):
            def wrapped(*args, **kwargs):
                if size is None:
                    calls[name] += 1
                else:
                    calls[name].append(size(args[0]))
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(module, "battery_map", spy("battery_map", battery_map, len))
        monkeypatch.setattr(module, "correlator_sets", spy("correlator_sets", diagnostics.correlator_sets, len))
        monkeypatch.setattr(module, "run_engine", spy("run_engine", run_engine))
        patch_everywhere(monkeypatch, engine.prepare_battery, spy("prepare_battery", engine.prepare_battery))
        traces = run_engines(configs)
        assert calls == {
            "battery_map": [MAP_BLOCK, 1],
            "correlator_sets": [sum(c.cycles for c in configs[:MAP_BLOCK]), configs[-1].cycles],
            "prepare_battery": 2,
            "run_engine": MAP_BLOCK + 1,
        }
        monkeypatch.undo()
        assert [t.config for t in traces] == configs
        for trace, config in zip(traces, configs, strict=True):
            alone = run_engine(config).records
            assert len(trace.records) == config.cycles
            assert np.array(trace.records).tobytes() == np.array(alone).tobytes()

    def test_two_battery_state_builds_per_block(self, monkeypatch):
        # engine._battery_states builds every battery state of a pass: once for
        # the P_0 of the block, through prepare_battery, and once for the
        # batteries that start its recorded cycles
        drawn = random_noisy_configs(np.random.default_rng(41), MAP_BLOCK + 3, cycles=1)
        configs = replace(drawn, cycles=[(1, 5, 2)[i % 3] for i in range(MAP_BLOCK + 3)]).configs()
        builder, sizes = engine._battery_states, []

        def spy(p):
            sizes.append(len(p))
            return builder(p)

        patch_everywhere(monkeypatch, builder, spy)
        run_engines(configs)
        first, last = configs[:MAP_BLOCK], configs[MAP_BLOCK:]
        assert sizes == [MAP_BLOCK, sum(c.cycles for c in first), len(last), sum(c.cycles for c in last)]

    def test_bloch_ball_failure_in_a_block_names_the_first_failing_config(self, monkeypatch):
        # a seeded fault: configs 2 and 4 of a block of 5 run on A scaled by 3.
        # Config 4 leaves the ball at an earlier cycle than config 2, but the
        # block is checked config by config in input order, so the error is
        # the one run_engine of config 2 alone reports: its first cycle
        # outside, with its |P_n|
        thetas, cycles = (0.5, 0.6, 0.9, 0.7, 0.3), (20, 4, 12, 2, 20)
        start = (0.0, 0.1, 0.1)
        configs = [EngineConfig(theta=t, cycles=n, battery_init=start) for t, n in zip(thetas, cycles)]
        faulty = (configs[2], configs[4])

        def scaled(block):
            A, b = battery_map(block)
            return A * np.where(np.isin(block.theta, [c.theta for c in faulty]), 3.0, 1.0)[:, None, None], b

        monkeypatch.setattr(sys.modules["spinotto.multicycle"], "battery_map", scaled)
        alone = []
        for config in faulty:
            with pytest.raises(ValidationError) as excinfo:
                run_engine(config)
            alone.append(str(excinfo.value))
        first_cycle = [int(re.match(r"cycle (\d+): .*\|P_n\| = [0-9.e+-]+,", m).group(1)) for m in alone]
        assert 1 < first_cycle[1] < first_cycle[0] <= configs[2].cycles
        for block in (configs, configs[2:]):
            with pytest.raises(ValidationError) as excinfo:
                run_engines(block)
            assert str(excinfo.value) == alone[0]

    def test_padded_cycles_are_neither_checked_nor_recorded(self, monkeypatch):
        # a seeded fault: the short config runs on A scaled by 3, which keeps
        # its P in the ball up to its own last cycle and drives it out on the
        # next one. Stacked with a 20-cycle config, its P is iterated on past
        # that cycle; those padded cycles must not fail the block or reach
        # its trace
        start = (0.0, 0.1, 0.1)
        A, b = battery_map(ConfigBatch.of([EngineConfig(battery_init=start)]))
        p, outside = np.array(start), 0  # the first cycle outside the ball
        while 0.5 - np.linalg.norm(p) >= PSD_CLAMP:
            p, outside = 3.0 * A[0] @ p + b[0], outside + 1
        assert 1 < outside < 20
        short = EngineConfig(cycles=outside - 1, battery_init=start)
        configs = [short, EngineConfig(theta=0.3, cycles=20, battery_init=start)]

        def scaled(block):
            A, b = battery_map(block)
            return A * np.where(block.theta == short.theta, 3.0, 1.0)[:, None, None], b

        monkeypatch.setattr(sys.modules["spinotto.multicycle"], "battery_map", scaled)
        with pytest.raises(ValidationError, match=f"^cycle {outside}: "):
            run_engine(replace(short, cycles=outside))
        traces = run_engines(configs)
        assert [t.config for t in traces] == configs
        for trace, config in zip(traces, configs, strict=True):
            alone = run_engine(config).records
            assert len(trace.records) == config.cycles
            assert np.array(trace.records).tobytes() == np.array(alone).tobytes()


class TestRunEngine:
    def test_trace_equals_chained_single_cycles(self):
        # one cycle is a channel on the battery alone: an N-cycle trace is N
        # one-cycle runs, each started from the battery the last one left
        rng = np.random.default_rng(4)
        for cfg in random_noisy_configs(rng, 100, cycles=4).configs():
            start, cumulative = cfg.battery_init, 0.0
            for record in run_engine(cfg).records:
                step = run_engine(replace(cfg, cycles=1, battery_init=start)).records[0]
                start, cumulative = (step.p_bx, step.p_by, step.p_bz), cumulative + step.cycle_work
                assert abs(step.cycle_work - record.cycle_work) < 1e-12
                assert abs(cumulative - record.cumulative_work) < 1e-12
                for a, b in zip(start, (record.p_bx, record.p_by, record.p_bz)):
                    assert abs(a - b) < 1e-12

    def test_determinism_bit_exact(self):
        cfg = EngineConfig(theta=0.6, p_mx=0.3, cycles=12,
                           battery_dephasing_per_reset=0.97, battery_t2_per_cycle=0.93)
        t1 = run_engine(cfg)
        t2 = run_engine(cfg)
        for r1, r2 in zip(t1.records, t2.records):
            assert r1 == r2

    def test_record_count_and_cumulative_sum(self):
        cfg = EngineConfig(theta=0.5, p_mx=0.4, cycles=15, **IDEAL)
        result = run_engine(cfg)
        assert len(result.records) == 15
        total = 0.0
        for record in result.records:
            total += record.cycle_work
            assert record.cumulative_work == pytest.approx(total, abs=1e-10)

    def test_states_stay_valid_with_noise(self):
        cfg = EngineConfig(
            theta=0.7, p_mx=0.4, cycles=25,
            battery_dephasing_per_reset=0.9, battery_t2_per_cycle=0.85,
        )
        # every battery of the 25 cycles is the battery map's iterate, and
        # every post-stroke state is a density operator
        A, b = single_map(cfg)
        rows, states, _ = stack_runs([cfg])[0]
        iterates = [np.array(cfg.battery_init)]
        for _ in range(25):
            iterates.append(A @ iterates[-1] + b)
        assert np.max(np.abs(np.array(rows)[:, 2:5] - iterates[1:])) <= 1e-15
        assert np.max(np.abs(np.trace(states, axis1=1, axis2=2) - 1)) < 1e-12
        assert np.linalg.eigvalsh(states)[:, 0].min() > -1e-10


class TestCompare:
    def test_no_coherence_means_no_advantage(self):
        cfg = EngineConfig(theta=0.6, p_mx=0.0, cycles=8, **IDEAL)
        result = compare(cfg)
        for ratio in result.advantage:
            assert ratio is None or ratio == pytest.approx(0.0, abs=1e-12)

    def test_first_cycle_equal_then_divergence(self):
        cfg = EngineConfig(theta=math.pi / 4, p_mx=0.5, cycles=5,
                           battery_init=(0, 0, -0.5), **IDEAL)
        result = compare(cfg)
        w1c = result.coherent.records[0].cycle_work
        w1i = result.incoherent.records[0].cycle_work
        assert abs(w1c - w1i) < 1e-10
        w2c = result.coherent.records[1].cycle_work
        w2i = result.incoherent.records[1].cycle_work
        assert w2c - w2i > 1e-6

    def test_fuel_criterion_from_the_ground_state(self):
        # from P_0 = -z/2 a config and its p_mx = 0 twin do the same work on
        # cycle 1, and on cycle 2 the coherent run leads by
        # 2 f_r^2 f_t p_mx^2 sin^2(theta) cos(theta) cos^3(theta_c): the fuel
        # helps quadratically in p_mx and only where cos(theta) cos(theta_c) > 0
        rng = np.random.default_rng(50)
        configs = [
            replace(c, battery_init=(0.0, 0.0, -0.5))
            for c in random_noisy_configs(rng, 200, cycles=2).configs()
        ]
        traces = run_engines(configs + [replace(c, p_mx=0.0) for c in configs])
        for config, coherent, incoherent in zip(configs, traces[:len(configs)], traces[len(configs):], strict=True):
            f_r, f_t = config.battery_dephasing_per_reset, config.battery_t2_per_cycle
            s, c, c_c = math.sin(config.theta), math.cos(config.theta), math.cos(config.compression_theta)
            lead = 2 * f_r**2 * f_t * config.p_mx**2 * s**2 * c * c_c**3
            w_coh, w_inc = ([r.cycle_work for r in t.records] for t in (coherent, incoherent))
            assert abs(w_coh[0] - w_inc[0]) <= 1e-15
            assert abs((w_coh[1] - w_inc[1]) - lead) <= 1e-15

    def test_full_swap_angle_gives_no_quantum_work_any_cycle(self):
        # cos(theta) = 0 kills the coherence cross term, so the work series
        # of the coherent and incoherent engines coincide cycle by cycle
        cfg = EngineConfig(theta=math.pi / 2, p_mx=0.5, cycles=10,
                           battery_init=(0, 0, -0.5), **IDEAL)
        result = compare(cfg)
        for rc, ri in zip(result.coherent.records, result.incoherent.records):
            assert abs(rc.cycle_work - ri.cycle_work) < 1e-12

    def test_battery_gains_coherence_only_with_coherent_medium(self):
        cfg = EngineConfig(theta=math.pi / 4, p_mx=0.5, cycles=3,
                           battery_init=(0, 0, -0.5), **IDEAL)
        result = compare(cfg)
        assert abs(result.coherent.records[0].p_by) > 0.1
        assert abs(result.incoherent.records[0].p_by) < 1e-14

    def test_maximally_mixed_battery_picks_up_coherence_on_later_cycles(self):
        # with P = 0 there is no z-polarization to convert on cycle 1; the
        # first cycle deposits some, and coherence transfer starts after it
        cfg = EngineConfig(theta=math.pi / 4, p_mx=0.5, cycles=2,
                           battery_init=(0, 0, 0), **IDEAL)
        trace_out = run_engine(cfg)
        assert abs(trace_out.records[0].p_by) < 1e-14
        assert abs(trace_out.records[1].p_by) > 1e-3


def mixed_unitary_stroke(joint, theta):
    """The control stroke cos^2 theta rho + sin^2 theta SWAP rho SWAP: the
    flip-flop stroke's excitation-transfer probability sin^2 theta without
    its interference terms, which are linear in sin theta. theta runs along
    the leading batch axes of joint, as in power_stroke."""
    theta = np.reshape(theta, np.shape(theta) + (1,) * (joint.ndim - np.ndim(theta)))
    swapped = joint[..., [0, 2, 1, 3], :][..., [0, 2, 1, 3]]
    return np.cos(theta) ** 2 * joint + np.sin(theta) ** 2 * swapped


class TestCoherentInteraction:
    """Claim (iii) of the abstract as a control experiment: the stages of one
    cycle with both strokes replaced by mixed_unitary_stroke move the same
    excitations, yet the fuel p_mx then does no work. The maps are read off
    the stages by validate.stage_map on the same 200 noisy draws."""

    CYCLES = 50

    @pytest.fixture(scope="class")
    def maps(self):
        batch = random_noisy_configs(np.random.default_rng(80), 200, cycles=1)
        twin = replace(batch, p_mx=np.zeros(len(batch)))
        coherent = stage_map(batch)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(validate, "power_stroke", mixed_unitary_stroke)
            control, control_twin = stage_map(batch), stage_map(twin)
        return batch, coherent, control, control_twin

    def test_the_control_has_no_y_z_coupling_and_no_fuel_in_its_matrix(self, maps):
        _, _, (A, _), (A0, _) = maps
        assert np.max(np.abs(A[:, [1, 2], [2, 1]])) <= ORACLE_TOL
        assert np.max(np.abs(A - A0)) <= ORACLE_TOL

    def test_the_coherent_stroke_couples_y_and_z_on_every_draw(self, maps):
        _, (A, _), _, _ = maps
        assert np.min(np.abs(A[:, [1, 2], [2, 1]])) > ORACLE_TOL

    def test_the_fuel_leaves_the_control_battery_only_coherence(self, maps):
        # through the stages the hot medium's p_x = p_mx reaches the battery
        # as f_r f_t sin^2(theta) cos^2(theta_c) p_mx, and nothing else moves
        batch, _, (_, b), (_, b0) = maps
        s, c_c = np.sin(batch.theta), np.cos(batch.compression_theta)
        f_r, f_t = batch.battery_dephasing_per_reset, batch.battery_t2_per_cycle
        assert np.max(np.abs(b[:, 1:] - b0[:, 1:])) <= ORACLE_TOL
        assert np.max(np.abs((b[:, 0] - b0[:, 0]) - f_r * f_t * s**2 * c_c**2 * batch.p_mx)) <= ORACLE_TOL

    def test_the_control_does_the_work_of_its_p_mx_0_twin_on_every_cycle(self, maps):
        # Each entry stage_map reads is within T = ORACLE_TOL of its exact
        # value, and in exact arithmetic the z rows of the two maps are
        # equal, with A_zx = A_zy = 0. With |P| <= 1/2, the z components of one cycle of
        # the control and its twin then differ by at most the previous gap
        # e_{n-1} (|A_zz| <= 1), plus 4 T/2 from the four cross terms, T from
        # A_zz and 2 T from b_z, plus a few eps of the iteration's own
        # rounding: e_n <= e_{n-1} + 6 T, so e_n <= 6 n T, and the works
        # W_n = P_n,z - P_{n-1},z differ by at most e_n + e_{n-1} <= 12 n T.
        batch, _, (A, b), (A0, b0) = maps
        p, p0 = batch.battery_init, batch.battery_init
        for n in range(1, self.CYCLES + 1):
            q, q0 = (A @ p[..., None])[..., 0] + b, (A0 @ p0[..., None])[..., 0] + b0
            gap = np.abs((q[:, 2] - p[:, 2]) - (q0[:, 2] - p0[:, 2]))
            assert np.max(gap) <= 12 * n * ORACLE_TOL, f"cycle {n}"
            p, p0 = q, q0


class TestFixture:
    def test_advantage_regression(self):
        result = compare(advantage_fixture(10))
        assert result.advantage[1] == pytest.approx(2.0, abs=1e-9)
        assert result.advantage[2] == pytest.approx(4.0, abs=1e-9)

    def test_peak_at_most_ten_cycles(self):
        result = compare(advantage_fixture(10))
        peak = peak_advantage(result)
        assert peak is not None
        ratio, cycle = peak
        assert cycle <= 10 and ratio >= 1.5

    def test_rise_then_fall_of_coherence(self):
        cfg = replace(advantage_fixture(30), battery_t2_per_cycle=0.9)
        records = run_engine(cfg).records
        coherences = [r.rel_entropy_coherence for r in records]
        coherent_ergo = [r.ergotropy_coherent for r in records]
        for series in (coherences, coherent_ergo):
            peak = max(range(len(series)), key=lambda i: series[i])
            assert 0 < peak < len(series) - 1
            assert series[peak] > series[0]
            assert series[peak] > series[-1]

    def test_dephasing_monotonically_reduces_work(self):
        totals = []
        for t2 in (1.0, 0.9, 0.7):
            cfg = replace(advantage_fixture(30), battery_t2_per_cycle=t2)
            totals.append(run_engine(cfg).records[-1].cumulative_work)
        assert totals[0] >= totals[1] >= totals[2]


class TestSweep:
    def test_zero_angle_sweep(self):
        cfg = EngineConfig(theta=0.5, p_mx=0.3, cycles=1, **IDEAL)
        traces = run_engines([replace(cfg, theta=0.0)])
        assert len(traces) == 1
        assert traces[0].records[0].cycle_work == pytest.approx(0.0, abs=1e-13)

    def test_result_order_matches_values(self):
        cfg = EngineConfig(p_mx=0.3, cycles=1, **IDEAL)
        values = [0.9, 0.1, 0.5]
        traces = run_engines([replace(cfg, theta=v) for v in values])
        assert [t.config.theta for t in traces] == values

    def test_sweepable_fields(self):
        cfg = EngineConfig(cycles=2, battery_init=(0, 0, -0.4), **IDEAL)
        traces = run_engines([replace(cfg, p_mx=0.2), replace(cfg, battery_init=(0, 0.25, -0.4)),
                              replace(cfg, cycles=4), replace(cfg, battery_t2_per_cycle=0.8)])
        assert traces[0].config.p_mx == 0.2
        assert traces[1].config.battery_init[1] == 0.25
        assert traces[2].config.cycles == 4 and len(traces[2].records) == 4
        assert traces[3].config.battery_t2_per_cycle == 0.8

    def test_non_integer_cycles_rejected(self):
        cfg = EngineConfig(cycles=2, **IDEAL)
        for value in (2.7, math.nan, True, 3.0):
            with pytest.raises(ConfigError, match="cycles"):
                replace(cfg, cycles=value)

    @pytest.mark.parametrize(
        "field_name, values",
        [
            ("theta", np.linspace(0.0, math.pi, MAP_BLOCK + 2)),
            ("theta_compression", [0.1, 0.8, 2.9]),
            ("p_mx", [-0.4, 0.0, 0.2, 0.45]),
            ("battery_dephasing_per_reset", [0.0, 0.5, 1.0]),
            ("battery_t2_per_cycle", [0.0, 0.7, 1.0]),
            ("battery_init", [(0.0, -0.2, 0.1), (0.3, 0.0, -0.2)]),
            ("cycles", [1, 5, 2]),
        ],
    )
    def test_equals_run_engine_per_value(self, field_name, values):
        # the records carry A and b (battery vectors) and post_stroke
        # (correlators, concurrence)
        cfg = EngineConfig(theta=0.6, p_mx=0.3, cycles=4, battery_init=(0.1, 0.0, -0.35),
                           battery_dephasing_per_reset=0.95, battery_t2_per_cycle=0.9)
        traces = run_engines([replace(cfg, **{field_name: v}) for v in values])
        assert len(traces) == len(values)
        for trace in traces:
            assert trace.records == run_engine(trace.config).records


def test_reset_preserves_all_three_polarization_components():
    rng = np.random.default_rng(5)
    cfg = EngineConfig(theta=0.8, p_mx=0.4, cycles=1,
                       battery_init=(0.1, 0.3, -0.2), **IDEAL)
    from spinotto.engine import power_stroke, prepare_battery, prepare_hot_medium, reset_medium

    batch = ConfigBatch.of([cfg])
    joint = kron(prepare_hot_medium(batch), prepare_battery(batch))[0]
    joint = power_stroke(joint, cfg.theta)
    before = polarization_vector(partial_trace(joint, "battery"))
    after = polarization_vector(
        partial_trace(reset_medium(joint, random_density(rng, 2)), "battery")
    )
    for a, b in zip(before, after):
        assert abs(a - b) < 1e-13
