import json
import math
import pathlib
import re
import shutil
import subprocess
import sys
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinotto.engine import _ROW_SHAPES, SWEEPABLE_FIELDS, ConfigError, EngineConfig
from spinotto import cli
from spinotto.multicycle import compare_coherent_incoherent, run_engines
from spinotto.output import write_json
from spinotto.scenario import (
    PRESETS,
    ScenarioError,
    ScenarioFile,
    _SECTION_KEYS,
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
    assert s.formats == ("csv", "json")


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
        "scenario = multicycle\n[sweep]\ntheta = 0.1, nan\n",
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
        "scenario = multicycle\n[sweep]\ntheta = 0.1, 0.2, 0.3\n"
    )
    assert s.axes == (("theta", (0.1, 0.2, 0.3)),)


def test_sweep_unknown_field():
    # the two populations are EngineConfig fields; a sweep varies neither
    for field in ("g", "hot_populations"):
        with pytest.raises(ScenarioError, match=rf"^line 3: unknown key '{field}' in section \[sweep\]; expected one of "):
            parse_scenario(f"scenario = multicycle\n[sweep]\n{field} = 1\n")


def test_compare_rejects_sweep_section():
    with pytest.raises(ScenarioError, match=r"\[sweep\]"):
        parse_scenario("scenario = compare\n[sweep]\ntheta = 1\n")


def test_single_cycle_sweep_requires_a_sweep():
    with pytest.raises(ScenarioError, match=r"^scenario 'single-cycle-sweep' requires a \[sweep\] section that names an axis$"):
        parse_scenario("scenario = single-cycle-sweep\n")
    with pytest.raises(ScenarioError, match=r"\[sweep\] section that names an axis"):
        parse_scenario("scenario = single-cycle-sweep\n[sweep]\n")


def test_single_cycle_sweep_requires_one_cycle():
    with pytest.raises(ScenarioError, match="cycles = 1"):
        parse_scenario("scenario = single-cycle-sweep\n[engine]\ncycles = 3\n[sweep]\ntheta = 0.1, 0.2\n")


def test_single_cycle_sweep_rejects_sweeping_cycles():
    # one cycle per run: a cycles sweep would run every count but record cycle 1
    text = "scenario = single-cycle-sweep\n[sweep]\ncycles = 1, 2\n"
    with pytest.raises(ScenarioError, match="line 3: field 'cycles' is not sweepable"):
        parse_scenario(text)


def test_swept_cycles_are_read_as_exact_integers():
    # 2**53 + 1 has no double; read through float it became 2**53. Parsed only, never run
    s = parse_scenario("scenario = multicycle\n[sweep]\ncycles = 9007199254740993, 3\n")
    ((field, values),) = s.axes
    assert field == "cycles" and values == (9007199254740993, 3) and all(type(v) is int for v in values)


@pytest.mark.parametrize("text", [
    "[sweep]\ncycles = 2.5\n",
    "[sweep]\ncycles = 2.0\n",
    "[engine]\ntheta = 0.5\ncycles = 2.0\n",
])
def test_a_cycle_count_that_is_no_integer_literal_names_its_line(text):
    # a swept count is converted as [engine] cycles is; the count is the last line
    lineno = 1 + text.count("\n")
    with pytest.raises(ScenarioError, match=rf"^line {lineno}: expected an integer, got '2\.[05]'$"):
        parse_scenario("scenario = multicycle\n" + text)


def test_search_requires_grid():
    with pytest.raises(ScenarioError, match=r"\[search\]"):
        parse_scenario("scenario = search-advantage\n")


def test_sweep_lines_are_axes_in_file_order():
    s = parse_scenario(
        "scenario = multicycle\n[sweep]\ncycles = 2, 3\nbattery_init = 0.0, 0.0, -0.5; 0.0, 0.5, 0.0 ;0.1,0,0\n"
        "theta = 0.1, 0.2\n"
    )
    assert s.axes == (("cycles", (2, 3)), ("battery_init", ((0.0, 0.0, -0.5), (0.0, 0.5, 0.0), (0.1, 0.0, 0.0))),
                      ("theta", (0.1, 0.2)))
    assert (s.engine.cycles, s.engine.battery_init, s.engine.theta) == (2, (0.0, 0.0, -0.5), 0.1)


def test_every_sweep_axis_is_one_config_field():
    # dataclasses.replace takes every axis, and checks each point anew
    names = [f.name for f in fields(EngineConfig)]
    assert [name for name in names if name in SWEEPABLE_FIELDS] == list(SWEEPABLE_FIELDS)
    assert len(SWEEPABLE_FIELDS) == 7
    base = EngineConfig()
    for name in SWEEPABLE_FIELDS:
        assert replace(base, **{name: getattr(base, name)}) == base


@pytest.mark.parametrize("command, text, message", [
    ("run", "scenario = multicycle\n[engine]\nbattery_init = 0, 0, 0\n[sweep]\nbattery_px = 0.0, 0.4\n",
     "line 5: unknown key 'battery_px' in section [sweep]"),
    ("search", "scenario = search-advantage\n[engine]\nbattery_init = 0, 0, 0\n[search]\ntheta = 0.5\np_mx = 0.1\n"
     "battery_py = 0.0, 0.4\n", "line 7: unknown key 'battery_py' in section [search]"),
], ids=["axis-line", "search-line"])
def test_a_battery_component_is_no_sweep_axis(tmp_path, capsys, command, text, message):
    # battery_init is the one battery axis, and no search axis
    scn = tmp_path / "components.scn"
    scn.write_text(text, encoding="utf-8")
    assert cli.main([command, str(scn), "--output-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.mark.parametrize("text, key, lineno", [
    ("field = theta\n", "field", 3),
    ("values = 0.1, 0.2\n", "values", 3),
    ("theta = 0.1\nfield = p_mx\nvalues = 0.2\n", "field", 4),
])
def test_field_and_values_are_no_sweep_keys(text, key, lineno):
    # an axis is spelled 'theta = 0.1, 0.2' alone; neither half of the old pair parses
    expected = ", ".join(SWEEPABLE_FIELDS)
    message = rf"^line {lineno}: unknown key '{key}' in section \[sweep\]; expected one of {expected}$"
    with pytest.raises(ScenarioError, match=message):
        parse_scenario("scenario = multicycle\n[sweep]\n" + text)


def test_a_battery_init_value_is_a_3_vector():
    with pytest.raises(ScenarioError, match=r"^line 3: battery_init: expected 3 comma-separated numbers"):
        parse_scenario("scenario = multicycle\n[sweep]\nbattery_init = 0, 0, 0, 0, 0, 0.5\n")


def test_search_axes_sorted():
    s = parse_scenario(
        "scenario = search-advantage\n[search]\ntheta = 0.9, 0.1\np_mx = 0.3\n"
    )
    # an omitted noise axis holds the base config's value
    assert s.axes == (("theta", (0.1, 0.9)), ("p_mx", (0.3,)), ("battery_dephasing_per_reset", (1.0,)),
                      ("battery_t2_per_cycle", (1.0,)))
    assert s.engine.cycles == 10  # the default max_cycles


SEARCH = "scenario = search-advantage\n[search]\n"


@pytest.mark.parametrize("axis, text, values", [
    ("theta", "0.4, 0.20", (0.4, 0.2)),
    ("p_mx", "0.2, 0.1", (0.2, 0.1)),
    ("battery_dephasing_per_reset", "1, 0.5", (1.0, 0.5)),
    ("battery_t2_per_cycle", "0.9, 0", (0.9, 0.0)),
])
def test_search_reads_an_axis_as_sweep_does(axis, text, values):
    # [sweep] keeps the file's order and [search] sorts; each converts a value alike
    swept = parse_scenario(f"scenario = multicycle\n[sweep]\n{axis} = {text}\n")
    grid = {"theta": "0.5", "p_mx": "0.1"} | {axis: text}
    searched = parse_scenario(SEARCH + "".join(f"{key} = {value}\n" for key, value in grid.items()))
    assert swept.axes == ((axis, values),)
    assert dict(searched.axes)[axis] == tuple(sorted(values))
    assert [type(v) for v in dict(searched.axes)[axis]] == [float, float]


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


@pytest.mark.parametrize("kind", ["multicycle", "single-cycle-sweep"])
@pytest.mark.parametrize(
    "sweep, message",
    [
        ("theta = 0.3, 0.3\n", "line 3: theta: duplicate value 0.3"),
        ("p_mx = 0.1, 0.2\ntheta = 0.2, 0.4, 0.20\n", "line 4: theta: duplicate value 0.2"),
        ("theta = 0.5, 0.1, 0.5\n", "line 3: theta: duplicate value 0.5"),
        ("battery_init = 0, 0, -0.5; 0, 0.1, 0; 0, 0, -0.50\ntheta = 0.1, 0.2\n",
         "line 3: battery_init: duplicate value (0.0, 0.0, -0.5)"),
    ],
)
def test_a_sweep_axis_repeats_no_value(kind, sweep, message):
    # a repeated point would run twice: a multicycle run would write two
    # identical files and a single-cycle sweep two identical rows
    with pytest.raises(ScenarioError, match=rf"^{re.escape(message)}$"):
        parse_scenario(f"scenario = {kind}\n[sweep]\n" + sweep)


@pytest.mark.parametrize(
    "text, key, lineno",
    [
        ("scenario = multicycle\n[engine]\nhot_populations = 0.5,,0.5\n", "hot_populations", 3),
        ("scenario = multicycle\n[engine]\ncold_populations = 0.1, 0.9,\n", "cold_populations", 3),
        ("scenario = multicycle\n[engine]\nbattery_init = , 0.0, -0.5\n", "battery_init", 3),
        ("scenario = multicycle\n[sweep]\np_mx = ,0.1\n", "p_mx", 3),
        ("scenario = multicycle\n[sweep]\ntheta = 0.1, , 0.3\n", "theta", 3),
        ("scenario = multicycle\n[sweep]\nbattery_init = 0, 0, 0;\n", "battery_init", 3),
        ("scenario = multicycle\n[sweep]\ncycles = 2,,3\n", "cycles", 3),
        (SEARCH + "theta = 0.2,,0.4\np_mx = 0.1\n", "theta", 3),
        (SEARCH + "theta = 0.2\np_mx =\n", "p_mx", 4),
        (SEARCH + "theta = 0.2\np_mx = 0.1\nbattery_t2_per_cycle = 0.9,\n", "battery_t2_per_cycle", 5),
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
    assert s.prefix == "myrun"
    assert s.formats == ("csv",)
    with pytest.raises(ScenarioError, match="format"):
        parse_scenario("scenario = compare\n[output]\nformats = yaml\n")


@pytest.mark.parametrize("prefix", ["", ".", ".run", "../x/y", "runs/a", "runs\\a", "/tmp/a"])
def test_unusable_prefix_rejected_naming_key_and_line(prefix):
    # an empty prefix or a leading '.' writes hidden files (".csv", "._summary.json"),
    # a path separator writes outside --output-dir
    text = f"scenario = multicycle\n[output]\nprefix = {prefix}\n"
    with pytest.raises(ScenarioError, match="line 3: prefix must be a file name"):
        parse_scenario(text)


@pytest.mark.parametrize("prefix", ["a\x00b", "a\tb", "run\x1b", "a\u200bb"],
                         ids=["nul", "tab", "escape", "zero-width-space"])
def test_an_unprintable_prefix_is_rejected_naming_its_line(tmp_path, capsys, prefix):
    # a NUL in the prefix once passed the parser, and writing the first file then
    # raised "embedded null byte" past cli.main's handlers, after the engine had run
    text = f"scenario = compare\n[engine]\ncycles = 2\n[output]\nprefix = {prefix}\n"
    message = f"line 5: prefix must be a file name with no leading '.' and no path separator, got {prefix!r}"
    with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
        parse_scenario(text)
    scn = tmp_path / "run.scn"
    scn.write_text(text, encoding="utf-8")
    assert cli.main(["run", str(scn), "--output-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, message", [
    ("scenario = compare\n[sweep]\n", "line 2: section [sweep] is not accepted by scenario 'compare'"),
    # of two sections a scenario does not accept, the first in the file is named
    ("scenario = compare\n[engine]\ntheta = 0.1\n[sweep]\n[search]\ntheta = 0.2\n",
     "line 4: section [sweep] is not accepted by scenario 'compare'"),
    ("scenario = compare\n[search]\n[sweep]\ntheta = 0.2\n",
     "line 2: section [search] is not accepted by scenario 'compare'"),
    ("scenario = search-advantage\n[engine]\np_mx = 0.1\n\n[search]\ntheta = 0.1, 0.2\n",
     "line 5: section [search] requires 'theta' and 'p_mx' value lists"),
    ("scenario = search-advantage\n[search]\n", "line 2: section [search] requires 'theta' and 'p_mx' value lists"),
    ("scenario = single-cycle-sweep\n[engine]\ntheta = 0.1\n[sweep]\n",
     "line 4: scenario 'single-cycle-sweep' requires a [sweep] section that names an axis"),
    ("scenario = single-cycle-sweep\n[engine]\ncycles = 3\ntheta = 0.1\n[sweep]\np_mx = 0.1, 0.2\n",
     "line 3: scenario 'single-cycle-sweep' requires cycles = 1, got 3"),
], ids=["compare-empty-sweep", "first-of-two-sections", "first-of-two-reversed", "search-without-p_mx",
        "empty-search", "empty-sweep", "cycles-line"])
def test_a_section_rule_names_its_line(text, message):
    # a section that is not accepted, or lacks what its scenario needs, is named
    # by its header line; the cycle count of a single-cycle sweep by its own line
    with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
        parse_scenario(text)


@pytest.mark.parametrize("key", sorted(_ROW_SHAPES))
@pytest.mark.parametrize("extra", [-1, 1], ids=["one-fewer", "one-more"])
def test_a_row_field_takes_the_count_of_numbers_that_engine_gives_it(key, extra):
    # the scenario parser holds no count of its own: engine's row shapes set it
    (n,) = _ROW_SHAPES[key]
    value = ", ".join(["0.25"] * (n + extra))
    message = f"line 3: {key}: expected {n} comma-separated numbers, got {value!r}"
    with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
        parse_scenario(f"scenario = multicycle\n[engine]\n{key} = {value}\n")


def from_summary(data: dict) -> EngineConfig:
    """The config a summary's "config" block echoes: config_to_dict's inverse."""
    data = dict(data)
    noise = data.pop("noise")
    return EngineConfig(**data, **noise)


def test_config_dict_roundtrip():
    cfg = EngineConfig(
        theta=0.37,
        theta_compression=0.2,
        p_mx=0.21,
        hot_populations=(0.45, 0.55),
        cold_populations=(0.1, 0.9),
        battery_init=(0.05, -0.1, 0.2),
        battery_dephasing_per_reset=0.93,
        battery_t2_per_cycle=0.88,
        cycles=7,
    )
    assert from_summary(config_to_dict(cfg)) == cfg


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
    assert from_summary(new) == from_summary(old) == cfg


ROOT = pathlib.Path(__file__).resolve().parent.parent
PRESET_DIR = ROOT / "src" / "spinotto" / "presets"


def test_presets_are_the_packaged_files():
    assert set(PRESETS) == {p.stem for p in PRESET_DIR.glob("*.scn")} == {"fig2", "fig3", "search-default"}
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
    assert shipped == {"fig2.scn", "fig3.scn", "search-default.scn"}


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
        result = compare_coherent_incoherent(*run_engines([config, replace(config, p_mx=0.0)]))
        assert min(r.cycle_work for r in result.incoherent.records[1:6]) >= 0.013
        assert max(r.cycle_work for r in result.coherent.records[1:6]) <= 0.1
        return result.advantage[1:6]  # cycles 2-6

    clean = ratios(replace(fig3, battery_dephasing_per_reset=1.0, battery_t2_per_cycle=1.0))
    noisy = ratios(fig3)
    assert min(clean[1:]) >= 1.8 and max(clean) >= 2.9  # >= 180 % more from cycle 3 on, ~300 % at best
    assert min(noisy[1:4]) >= 1.3  # fig3's noise still leaves >= 130 % more on cycles 3-5
    assert all(n < c for n, c in zip(noisy, clean, strict=True))  # and costs part of the gain


@pytest.mark.parametrize("name", sorted(PRESETS) + ["scenarios/single_cycle.scn"])
def test_the_base_config_is_the_first_run(name):
    # the config a summary echoes is the first one the file runs
    s = resolve_scenario(str(ROOT / name) if name.endswith(".scn") else name)
    assert cli._configs(s)[0] == s.engine


def test_fig2_preset_axes():
    # p_mx times a classical or a quantum battery, each over the 65 angles k*(pi/2)/64
    fig2 = PRESETS["fig2"]()
    assert (fig2.kind, fig2.prefix, fig2.engine.cycles) == ("single-cycle-sweep", "fig2", 1)
    (p_mx, p_values), (battery, batteries), (theta, thetas) = fig2.axes
    assert (p_mx, p_values) == ("p_mx", (0.0, 0.5))
    assert (battery, batteries) == ("battery_init", ((0.0, 0.0, -0.5), (0.0, 0.5, 0.0)))
    assert theta == "theta" and thetas == tuple(k * (math.pi / 2) / 64 for k in range(65))


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
    battery = tuple(radius * x / norm if norm > 1e-3 else 0.0 for x in direction)
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
    assert from_summary(config_to_dict(cfg)) == cfg
    # and through the summary JSON text, as the CLI writes it
    assert from_summary(json.loads(json.dumps(config_to_dict(cfg)))) == cfg


def test_each_run_is_one_config_construction(monkeypatch):
    # a grid point sets engine scalars and noise factors at once on the base
    # config: one replace, so one checked EngineConfig per point
    s = parse_scenario(SEARCH + "theta = 0.3, 0.5\np_mx = 0.2\nbattery_dephasing_per_reset = 0.9, 1\nmax_cycles = 3\n")
    built = []

    def counted(self, post_init=EngineConfig.__post_init__):
        built.append(type(self).__name__)
        post_init(self)

    monkeypatch.setattr(EngineConfig, "__post_init__", counted)
    configs = cli._configs(s)
    assert built == ["EngineConfig"] * 4
    assert configs[1] == EngineConfig(theta=0.3, p_mx=0.2, battery_dephasing_per_reset=1.0, cycles=3)
    assert type(configs[1].cycles) is int


def test_the_base_config_holds_the_engine_keys_and_the_first_battery():
    # [engine] keys and a swept battery_init make one base config
    s = parse_scenario("scenario = multicycle\n[engine]\nhot_populations = 0.4, 0.6\ncold_populations = 0.1, 0.9\n"
                       "[sweep]\nbattery_init = 0.1, 0.2, -0.1; 0, 0, 0\n")
    want = EngineConfig(battery_init=(0.1, 0.2, -0.1), hot_populations=(0.4, 0.6), cold_populations=(0.1, 0.9))
    assert s.engine == want
