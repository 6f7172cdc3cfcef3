import json
import math
import pathlib
import shutil
import subprocess
import sys
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinotto.engine import ConfigError, EngineConfig, with_fields
from spinotto.diagnostics import Polarization
from spinotto import cli
from spinotto.multicycle import compare_coherent_incoherent, run_engines
from spinotto.output import write_json
from spinotto.scenario import (
    PRESETS,
    ScenarioError,
    ScenarioFile,
    THETA_GRID,
    _SECTION_KEYS,
    config_from_dict,
    config_to_dict,
    parse_scenario,
    resolve_scenario,
)


def test_minimal_multicycle_file():
    s = parse_scenario("scenario = multicycle\n[engine]\ncycles = 20\n")
    assert s.kind == "multicycle"
    assert s.engine.cycles == 20
    # defaults: experimental bath diagonals
    assert s.engine.hot_populations == (0.485, 0.515)
    assert s.engine.cold_populations == (0.03, 0.97)
    assert (s.engine.battery_dephasing_per_reset, s.engine.battery_t2_per_cycle) == (1.0, 1.0)
    assert s.output.formats == ("csv", "json")


def test_unknown_key_rejected_with_line_number():
    text = "scenario = multicycle\n[engine]\nfoo = 1\n"
    with pytest.raises(ScenarioError, match="line 3") as err:
        parse_scenario(text)
    assert "foo" in str(err.value)


def test_unknown_section_rejected():
    with pytest.raises(ScenarioError, match="line 2"):
        parse_scenario("scenario = multicycle\n[physics]\n")


def test_duplicate_key_rejected():
    with pytest.raises(ScenarioError, match="duplicate"):
        parse_scenario("scenario = multicycle\n[engine]\ntheta = 1\ntheta = 2\n")


def test_malformed_line_rejected():
    with pytest.raises(ScenarioError, match="line 2"):
        parse_scenario("scenario = multicycle\nnot a key value\n")


def test_bad_number_rejected():
    with pytest.raises(ScenarioError, match="line 3"):
        parse_scenario("scenario = multicycle\n[engine]\ntheta = fast\n")


@pytest.mark.parametrize(
    "text",
    [
        "scenario = multicycle\n[engine]\np_mx = nan\n",
        "scenario = multicycle\n[engine]\nbattery_init = 0.0, inf, 0.0\n",
        "scenario = search-advantage\n[search]\ntheta = 0.1, inf\np_mx = 0.2\n",
        "scenario = multicycle\n[sweep]\nfield = theta\nvalues = 0.1, nan\n",
    ],
)
def test_non_finite_number_rejected_with_line_number(text):
    with pytest.raises(ScenarioError, match=r"line \d+: expected a finite number"):
        parse_scenario(text)


def test_missing_scenario_key():
    with pytest.raises(ScenarioError, match="scenario"):
        parse_scenario("[engine]\ntheta = 1\n")


def test_unknown_scenario_kind():
    with pytest.raises(ScenarioError, match="unknown scenario"):
        parse_scenario("scenario = warp\n")


def test_schema_version_check():
    with pytest.raises(ScenarioError, match="schema_version"):
        parse_scenario("schema_version = 9\nscenario = multicycle\n")
    # the one version a file may state is checked, not stored
    assert "schema_version" not in {f.name for f in fields(ScenarioFile)}


def test_positivity_bound_enforced_at_load():
    text = "scenario = multicycle\n[engine]\np_mx = 0.6\n"
    with pytest.raises(ConfigError, match=r"sqrt\(p0\*p1\)"):
        parse_scenario(text)


def test_comments_and_blank_lines_ignored():
    s = parse_scenario(
        "# a comment\n\n; another\nscenario = compare\n[engine]\ntheta = 0.5\n"
    )
    assert s.engine.theta == 0.5


def test_sweep_section():
    s = parse_scenario(
        "scenario = multicycle\n[sweep]\nfield = theta\nvalues = 0.1, 0.2, 0.3\n"
    )
    assert s.sweep.field == "theta"
    assert s.sweep.values == (0.1, 0.2, 0.3)


def test_sweep_unknown_field():
    with pytest.raises(ScenarioError, match="not sweepable"):
        parse_scenario("scenario = multicycle\n[sweep]\nfield = g\nvalues = 1\n")


def test_compare_rejects_sweep_section():
    with pytest.raises(ScenarioError, match=r"\[sweep\]"):
        parse_scenario("scenario = compare\n[sweep]\nfield = theta\nvalues = 1\n")


def test_single_cycle_sweep_defaults_to_theta_grid():
    s = parse_scenario("scenario = single-cycle-sweep\n")
    assert s.sweep.field == "theta"
    assert s.sweep.values == THETA_GRID
    assert s.sweep.values[0] == 0.0
    assert s.sweep.values[-1] == pytest.approx(math.pi / 2)


def test_single_cycle_sweep_requires_one_cycle():
    with pytest.raises(ScenarioError, match="cycles = 1"):
        parse_scenario("scenario = single-cycle-sweep\n[engine]\ncycles = 3\n")


def test_single_cycle_sweep_rejects_sweeping_cycles():
    # one cycle per run: a cycles sweep would run every count but record cycle 1
    text = "scenario = single-cycle-sweep\n[sweep]\nfield = cycles\nvalues = 1, 2\n"
    with pytest.raises(ScenarioError, match="line 3: field 'cycles' is not sweepable"):
        parse_scenario(text)


def test_search_requires_grid():
    with pytest.raises(ScenarioError, match=r"\[search\]"):
        parse_scenario("scenario = search-advantage\n")


def test_search_axes_sorted():
    s = parse_scenario(
        "scenario = search-advantage\n[search]\ntheta = 0.9, 0.1\np_mx = 0.3\n"
    )
    assert s.search.theta == (0.1, 0.9)
    assert s.engine.cycles == 10  # the default max_cycles


SEARCH = "scenario = search-advantage\n[search]\n"


@pytest.mark.parametrize(
    "text, key, lineno",
    [
        (SEARCH + "theta = 0.5, 0.5, 0.7\np_mx = 0.1\n", "theta", 3),
        (SEARCH + "theta = 0.2\np_mx = 0.3, 0.1, 0.30\n", "p_mx", 4),
        (SEARCH + "theta = 0.2\np_mx = 0.1\nbattery_dephasing_per_reset = 1, 0.9, 1.0\n",
         "battery_dephasing_per_reset", 5),
        (SEARCH + "theta = 0.2\np_mx = 0.1\nbattery_t2_per_cycle = 0.8, 0.8\n", "battery_t2_per_cycle", 5),
    ],
)
def test_duplicate_search_values_rejected_naming_key_and_line(text, key, lineno):
    with pytest.raises(ScenarioError, match=rf"line {lineno}: {key}: duplicate value"):
        parse_scenario(text)


@pytest.mark.parametrize(
    "text, key, lineno",
    [
        ("scenario = multicycle\n[engine]\nhot_populations = 0.5,,0.5\n", "hot_populations", 3),
        ("scenario = multicycle\n[engine]\ncold_populations = 0.1, 0.9,\n", "cold_populations", 3),
        ("scenario = multicycle\n[engine]\nbattery_init = , 0.0, -0.5\n", "battery_init", 3),
        ("scenario = multicycle\n[sweep]\nfield = theta\nvalues = 0.1, , 0.3\n", "values", 4),
        (SEARCH + "theta = 0.2,,0.4\np_mx = 0.1\n", "theta", 3),
        (SEARCH + "theta = 0.2\np_mx =\n", "p_mx", 4),
        ("scenario = compare\n[output]\nformats = csv,,json\n", "formats", 3),
        ("scenario = compare\n[output]\nformats = ,\n", "formats", 3),
        ("scenario = compare\n[output]\nformats = csv,\n", "formats", 3),
    ],
)
def test_empty_list_entry_rejected_naming_key_and_line(text, key, lineno):
    with pytest.raises(ScenarioError, match=rf"line {lineno}: {key}: empty entry"):
        parse_scenario(text)


def test_output_section():
    s = parse_scenario(
        "scenario = compare\n[output]\nprefix = myrun\nformats = csv\n"
    )
    assert s.output.prefix == "myrun"
    assert s.output.formats == ("csv",)
    with pytest.raises(ScenarioError, match="format"):
        parse_scenario("scenario = compare\n[output]\nformats = yaml\n")


@pytest.mark.parametrize("prefix", ["", ".", ".run", "../x/y", "runs/a", "runs\\a", "/tmp/a"])
def test_unusable_prefix_rejected_naming_key_and_line(prefix):
    # an empty prefix or a leading '.' writes hidden files (".csv", "._summary.json"),
    # a path separator writes outside --output-dir
    text = f"scenario = multicycle\n[output]\nprefix = {prefix}\n"
    with pytest.raises(ScenarioError, match="line 3: prefix must be a file name"):
        parse_scenario(text)


def test_config_dict_roundtrip():
    cfg = EngineConfig(
        theta=0.37,
        theta_compression=0.2,
        p_mx=0.21,
        hot_populations=(0.45, 0.55),
        cold_populations=(0.1, 0.9),
        battery_init=Polarization(0.05, -0.1, 0.2),
        battery_dephasing_per_reset=0.93,
        battery_t2_per_cycle=0.88,
        cycles=7,
    )
    assert config_from_dict(config_to_dict(cfg)) == cfg


def test_engine_and_noise_keys_partition_the_config_fields():
    engine, noise = _SECTION_KEYS["engine"], _SECTION_KEYS["noise"]
    assert set(engine).isdisjoint(noise)
    assert sorted(engine + noise) == sorted(f.name for f in fields(EngineConfig))


# The "config" block of a summary JSON, byte for byte as write_json writes
# it: json.dumps text, whose floats are Python's shortest repr.
SUMMARY_CONFIG = """{
  "theta": 0.7,
  "theta_compression": 0.25,
  "p_mx": 0.3,
  "hot_populations": [
    0.6,
    0.4
  ],
  "cold_populations": [
    0.125,
    0.875
  ],
  "battery_init": [
    0.1,
    -0.2,
    0.25
  ],
  "noise": {
    "battery_dephasing_per_reset": 0.9,
    "battery_t2_per_cycle": 0.75
  },
  "cycles": 12
}
"""

# The same block as earlier versions wrote it, every float with 17 significant
# digits. A summary written then must read back to the same config.
SUMMARY_CONFIG_17_DIGITS = """{
  "theta": 0.69999999999999996,
  "theta_compression": 0.25,
  "p_mx": 0.29999999999999999,
  "hot_populations": [
    0.59999999999999998,
    0.40000000000000002
  ],
  "cold_populations": [
    0.125,
    0.875
  ],
  "battery_init": [
    0.10000000000000001,
    -0.20000000000000001,
    0.25
  ],
  "noise": {
    "battery_dephasing_per_reset": 0.90000000000000002,
    "battery_t2_per_cycle": 0.75
  },
  "cycles": 12
}"""


def test_summary_config_block_is_unchanged(tmp_path):
    cfg = EngineConfig(theta=0.7, theta_compression=0.25, p_mx=0.3, hot_populations=(0.6, 0.4),
                       cold_populations=(0.125, 0.875), battery_init=(0.1, -0.2, 0.25),
                       battery_dephasing_per_reset=0.9, battery_t2_per_cycle=0.75, cycles=12)
    write_json(tmp_path / "config.json", config_to_dict(cfg))
    assert (tmp_path / "config.json").read_text(encoding="utf-8") == SUMMARY_CONFIG
    new, old = json.loads(SUMMARY_CONFIG), json.loads(SUMMARY_CONFIG_17_DIGITS)
    assert list(new) == list(old)
    for key in new:  # the same doubles, and a float stays a float
        assert new[key] == old[key] and repr(new[key]) == repr(old[key]), key
    assert config_from_dict(new) == config_from_dict(old) == cfg


def test_config_from_dict_rejects_a_key_out_of_place():
    good = config_to_dict(EngineConfig())
    flat = {key: value for key, value in good.items() if key != "noise"}
    cases = [
        (good | {"voltage": 3.3}, "config", "voltage"),
        (good | {"noise": good["noise"] | {"gamma": 0.5}}, "noise", "gamma"),
        # a noise factor belongs under "noise", whether or not the block is there
        (good | {"battery_t2_per_cycle": 0.9}, "config", "battery_t2_per_cycle"),
        (flat | good["noise"], "config", "battery_dephasing_per_reset, battery_t2_per_cycle"),
    ]
    for data, level, keys in cases:
        with pytest.raises(ConfigError, match=f"^unknown {level} keys: {keys}$"):
            config_from_dict(data)


def test_config_from_dict_rejects_unknown_keys():
    data = config_to_dict(EngineConfig())
    data["voltage"] = 3.3
    with pytest.raises(ConfigError, match="voltage"):
        config_from_dict(data)


ROOT = pathlib.Path(__file__).resolve().parent.parent
PRESET_DIR = ROOT / "src" / "spinotto" / "presets"


def test_presets_are_fig2_and_the_packaged_files():
    assert set(PRESETS) == {"fig2"} | {p.stem for p in PRESET_DIR.glob("*.scn")}
    assert (PRESETS["fig3"]().kind, PRESETS["search-default"]().kind) == ("compare", "search-advantage")


def test_build_ships_the_preset_files(tmp_path):
    # setuptools copies only .py files unless package-data names the presets;
    # build in a copy so that no egg-info lands in the source tree
    project = tmp_path / "project"
    shutil.copytree(ROOT / "src", project / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    shutil.copy(ROOT / "pyproject.toml", project)
    out = tmp_path / "build"
    subprocess.run(
        [sys.executable, "-c", "from setuptools import setup; setup()", "-q", "build_py", "-d", str(out)],
        cwd=project,
        check=True,
        capture_output=True,
    )
    shipped = {p.name for p in (out / "spinotto" / "presets").glob("*.scn")}
    assert shipped == {"fig3.scn", "search-default.scn"}


def test_fig3_preset_claims():
    # the claims made by the comment of src/spinotto/presets/fig3.scn
    config = PRESETS["fig3"]().engine
    result = compare_coherent_incoherent(*run_engines([config, config.with_p_mx(0.0)]))
    coherent, incoherent = result.coherent.records, result.incoherent.records
    assert None not in result.advantage
    negative = [r.cycle_index for r, a in zip(coherent, result.advantage) if a < 0]
    assert negative == list(range(8, 19))
    lead = [c.cumulative_work - i.cumulative_work for c, i in zip(coherent, incoherent)]
    assert all(x > 0 for x in lead[1:])
    assert lead[1] == pytest.approx(0.035, abs=5e-4)
    assert max(range(20), key=lambda k: lead[k]) + 1 == 7
    assert lead[6] == pytest.approx(0.175, abs=5e-4)
    assert lead[19] == pytest.approx(0.119, abs=5e-4)
    assert max(coherent, key=lambda r: r.cumulative_work).cycle_index == 8


def test_the_abstracts_work_gain_after_a_few_cycles():
    # Claim (i) of the paper's abstract: "almost 200 % more work" than the
    # incoherent engine "after a few cycles". r = (W_coh - W_inc) / W_inc of
    # fig3's engine is 0.91, 1.81, 2.57, 2.99, 2.92 at cycles 2-6 without
    # noise, and 0.74, 1.31, 1.63, 1.63, 1.29 with fig3's noise. A round-off
    # dW in the work moves r by about |W_coh| dW / W_inc^2 + dW / W_inc. The
    # work is a difference of Bloch components of size <= 1/2, so dW is a few
    # ulp of 1/2, below 1e-15; with W_inc >= 0.013 and W_coh <= 0.1 on these
    # cycles, r moves by less than 1e-12, far below the >= 0.01 margins here.
    fig3 = PRESETS["fig3"]().engine

    def ratios(config):
        result = compare_coherent_incoherent(*run_engines([config, config.with_p_mx(0.0)]))
        assert min(r.cycle_work for r in result.incoherent.records[1:6]) >= 0.013
        assert max(r.cycle_work for r in result.coherent.records[1:6]) <= 0.1
        return result.advantage[1:6]  # cycles 2-6

    clean = ratios(with_fields(fig3, battery_dephasing_per_reset=1.0, battery_t2_per_cycle=1.0))
    noisy = ratios(fig3)
    assert min(clean[1:]) >= 1.8 and max(clean) >= 2.9  # >= 180 % more from cycle 3 on, ~300 % at best
    assert min(noisy[1:4]) >= 1.3  # fig3's noise still leaves >= 130 % more on cycles 3-5
    assert all(n < c for n, c in zip(noisy, clean, strict=True))  # and costs part of the gain


@pytest.mark.parametrize("name", sorted(PRESETS) + ["scenarios/single_cycle.scn"])
def test_the_base_config_is_the_first_run(name):
    # the config a summary echoes is the first one the file runs
    s = resolve_scenario(str(ROOT / name) if name.endswith(".scn") else name)
    if s.search is not None:
        first = cli._search_grid(s)[1][0]
    elif s.sweep is not None:
        first = with_fields(s.engine, **{s.sweep.field: s.sweep.values[0]})
    else:
        first = s.engine
    assert first == s.engine
    if s.variants is not None:
        assert s.variants[0][1] == s.engine  # fig2 runs its variants


def test_fig2_preset_variants():
    preset = PRESETS["fig2"]()
    assert preset.kind == "single-cycle-sweep"
    assert len(preset.variants) == 4
    coherences = sorted({cfg.p_mx for _, cfg in preset.variants})
    batteries = sorted({cfg.battery_init.py for _, cfg in preset.variants})
    assert coherences == [0.0, 0.5]
    assert batteries == [0.0, 0.5]


def test_resolve_scenario_prefers_presets(tmp_path):
    assert resolve_scenario("fig3").kind == "compare"
    path = tmp_path / "x.scn"
    path.write_text("scenario = multicycle\n")
    assert resolve_scenario(str(path)).kind == "multicycle"


_unit = st.floats(0.0, 1.0)


@st.composite
def engine_configs(draw):
    """Random valid EngineConfigs over the whole domain."""
    p0 = draw(_unit)
    hot = (p0, 1.0 - p0)
    q0 = draw(_unit)
    bound = math.sqrt(hot[0] * hot[1])
    direction = draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3))
    norm = math.sqrt(sum(x * x for x in direction))
    radius = draw(st.floats(0.0, 0.5))
    battery = Polarization(*(radius * x / norm if norm > 1e-3 else 0.0 for x in direction))
    return EngineConfig(
        theta=draw(st.floats(-10.0, 10.0)),
        theta_compression=draw(st.none() | st.floats(-10.0, 10.0)),
        p_mx=draw(st.floats(-1.0, 1.0)) * bound,
        hot_populations=hot,
        cold_populations=(q0, 1.0 - q0),
        battery_init=battery,
        battery_dephasing_per_reset=draw(_unit),
        battery_t2_per_cycle=draw(_unit),
        cycles=draw(st.integers(1, 10_000)),
    )


@settings(deadline=None)
@given(engine_configs())
def test_config_dict_roundtrip_property(cfg):
    assert config_from_dict(config_to_dict(cfg)) == cfg
    # and through the summary JSON text, as the CLI writes it
    assert config_from_dict(json.loads(json.dumps(config_to_dict(cfg)))) == cfg
