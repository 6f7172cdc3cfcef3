import json
import math
import os
import pathlib
import resource
import subprocess
import sys

import numpy as np
import pytest

from spinotto import cli, output, validate
from spinotto.cli import main
from spinotto.engine import MAX_COUNT, EngineConfig
from spinotto.multicycle import (
    MAP_BLOCK,
    compare_coherent_incoherent,
    peak_advantage,
    run_engine,
    run_engines,
)
from spinotto.output import (
    ADVANTAGE_COLUMNS,
    TRACE_COLUMNS,
    write_advantage_csv,
    write_grid_csv,
    write_json,
    write_trace_csv,
)
from spinotto.scenario import SCENARIO_KINDS, config_from_dict


GOLDEN_TRACE_HEADER = (
    "cycle_work,cumulative_work,p_bx,p_by,p_bz,"
    "ergotropy_total,ergotropy_incoherent,ergotropy_coherent,"
    "rel_entropy_coherence,concurrence,"
    "corr_mx,corr_my,corr_mz,corr_bx,corr_by,corr_bz,corr_xx,corr_yy,corr_zz"
)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_trace_columns_are_frozen():
    assert ",".join(TRACE_COLUMNS) == GOLDEN_TRACE_HEADER
    assert ",".join(ADVANTAGE_COLUMNS) == (
        "cycle_index,work_coherent,work_incoherent,advantage_ratio,advantage_defined"
    )


# Doubles whose text must read back exactly: repeating binary fractions, a
# float equal to an integer, a negative zero, a tiny magnitude and one with
# nine significant digits.
ROUND_TRIP = (0.1, 1 / 3, 2.0, -0.0, 1e-300, 123456.789)


def same_double(text, x):
    return float(text) == x and math.copysign(1.0, float(text)) == math.copysign(1.0, x)


def test_float_format_round_trips(tmp_path):
    # a NaN (an undefined peak) is nan, an int stays an integer and a bool is 1 or 0
    rows = [(x, 12, True) for x in ROUND_TRIP] + [(math.nan, 0, False)]
    write_grid_csv(tmp_path / "grid.csv", ("x", "cycle", "defined"), rows)
    lines = read(tmp_path / "grid.csv").decode().splitlines()
    assert lines[0] == "x,cycle,defined" and lines[-1] == "nan,0,0"
    cells = [line.split(",") for line in lines[1:-1]]
    assert all(same_double(x_cell, x) and rest == ["12", "1"]
               for (x_cell, *rest), x in zip(cells, ROUND_TRIP, strict=True))


def test_trace_and_advantage_cells_read_back_to_the_same_double(tmp_path):
    records = run_engine(EngineConfig(cycles=len(ROUND_TRIP))).records
    write_trace_csv(tmp_path / "trace.csv", "x", ROUND_TRIP, records)
    for line, x, record in zip(read(tmp_path / "trace.csv").decode().splitlines()[1:], ROUND_TRIP, records,
                               strict=True):
        cells = line.split(",")
        assert same_double(cells[0], x)
        assert all(same_double(cell, value) for cell, value in zip(cells[1:], record[1:], strict=True))
    write_trace_csv(tmp_path / "cycles.csv", "cycle_index", [1, 2, 3], records[:3])
    assert [line.split(",")[0] for line in read(tmp_path / "cycles.csv").decode().splitlines()] == [
        "cycle_index", "1", "2", "3"]
    # a NaN ratio is undefined: nan, and advantage_defined 0
    write_advantage_csv(tmp_path / "adv.csv", [(1, x, 2 * x, x) for x in ROUND_TRIP] + [(7, 0.5, 0.0, math.nan)])
    rows = [line.split(",") for line in read(tmp_path / "adv.csv").decode().splitlines()[1:]]
    for row, x in zip(rows, ROUND_TRIP):
        assert row[0] == "1" and row[4] == "1"
        assert same_double(row[1], x) and same_double(row[2], 2 * x) and same_double(row[3], x)
    assert rows[-1] == ["7", "0.5", "0", "nan", "0"]


def test_write_json_parses_as_json(tmp_path):
    # every JSON value reads back as written, in the same key order
    obj = {"a": 1, "b": [0.1, None, True], "c": {"d": "text"}, "e": [], "f": {}, "x": list(ROUND_TRIP)}
    write_json(tmp_path / "s.json", obj)
    parsed = json.loads(read(tmp_path / "s.json"))
    assert parsed == obj and list(parsed) == list(obj)
    assert type(parsed["a"]) is int and all(type(x) is float for x in parsed["x"])
    assert all(same_double(repr(y), x) for y, x in zip(parsed["x"], ROUND_TRIP, strict=True))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_write_json_rejects_a_non_finite_float_and_writes_nothing(tmp_path, value):
    with pytest.raises(ValueError):
        write_json(tmp_path / "s.json", {"results": {"ratio": [1.0, value]}})
    assert list(tmp_path.iterdir()) == []


def test_summary_config_keeps_float_fields_as_floats(tmp_path):
    # a float equal to an integer was once written as 0 or 1, which a JSON reader loads as an int
    assert main(["search", "search-default", "--output-dir", str(tmp_path)]) == 0
    config = json.loads(read(tmp_path / "search_summary.json"))["config"]
    assert config["battery_init"] == [0.0, 0.0, -0.5]
    assert config["noise"] == {"battery_dephasing_per_reset": 1.0, "battery_t2_per_cycle": 1.0}
    floats = config["battery_init"] + config["cold_populations"] + list(config["noise"].values())
    assert all(type(x) is float for x in floats)


@pytest.mark.parametrize("text", ["x" * 100_000 + "\udc80", "\udc80"])
def test_failed_write_keeps_the_old_file(tmp_path, text):
    # a lone surrogate cannot be encoded, so the write fails part of the way
    path = tmp_path / "summary.json"
    write_json(path, {"old": 1})
    before = read(path)
    with pytest.raises(UnicodeEncodeError):
        output._write_text(path, text)
    assert read(path) == before
    assert os.listdir(tmp_path) == ["summary.json"]


def test_fig3_preset_writes_expected_files(tmp_path):
    out = tmp_path / "run"
    assert main(["run", "fig3", "--output-dir", str(out)]) == 0
    names = sorted(os.listdir(out))
    assert names == [
        "fig3_advantage.csv",
        "fig3_coherent.csv",
        "fig3_incoherent.csv",
        "fig3_summary.json",
    ]
    header = read(out / "fig3_coherent.csv").decode().splitlines()[0]
    assert header == "cycle_index," + GOLDEN_TRACE_HEADER


def test_fig3_preset_is_byte_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "fig3", "--output-dir", str(out1)]) == 0
    assert main(["run", "fig3", "--output-dir", str(out2)]) == 0
    for name in sorted(os.listdir(out1)):
        assert read(out1 / name) == read(out2 / name), name


def test_summary_config_reproduces_trace(tmp_path):
    out = tmp_path / "run"
    assert main(["run", "fig3", "--output-dir", str(out)]) == 0
    summary = json.loads(read(out / "fig3_summary.json"))
    config = config_from_dict(summary["config"])
    result = compare_coherent_incoherent(*run_engines([config, config.with_p_mx(0.0)]))
    lines = read(out / "fig3_coherent.csv").decode().splitlines()[1:]
    assert len(lines) == len(result.coherent.records)
    for line, record in zip(lines, result.coherent.records):
        cells = line.split(",")
        assert cells[0] == str(record.cycle_index)
        assert cells[1] == format(record.cycle_work, ".17g")
        assert cells[2] == format(record.cumulative_work, ".17g")


def test_fig2_preset_writes_four_series(tmp_path):
    out = tmp_path / "fig2"
    assert main(["run", "fig2", "--output-dir", str(out)]) == 0
    csvs = sorted(n for n in os.listdir(out) if n.endswith(".csv"))
    assert csvs == [
        "fig2_pmx0.0_pby0.0.csv",
        "fig2_pmx0.0_pby0.5.csv",
        "fig2_pmx0.5_pby0.0.csv",
        "fig2_pmx0.5_pby0.5.csv",
    ]
    # classical-battery variants deposit identical work at every angle;
    # quantum-battery variants separate (coherence converts to work)
    def work_column(name):
        lines = read(out / name).decode().splitlines()[1:]
        return [line.split(",")[1] for line in lines]

    assert work_column(csvs[0]) == work_column(csvs[2])
    assert work_column(csvs[1]) != work_column(csvs[3])


def test_scenario_file_run(tmp_path):
    scn = tmp_path / "run.scn"
    scn.write_text(
        "scenario = multicycle\n[engine]\ncycles = 5\n[output]\nprefix = demo\n"
    )
    out = tmp_path / "out"
    assert main(["run", str(scn), "--output-dir", str(out)]) == 0
    lines = read(out / "demo.csv").decode().splitlines()
    assert len(lines) == 6  # header + five cycles


FIG3_SCN = (pathlib.Path(cli.__file__).parent / "presets" / "fig3.scn").read_text()


def test_format_flag_selects_outputs(tmp_path):
    # [output] formats is the one switch of the files a run writes
    assert "formats = csv, json\n" in FIG3_SCN
    for fmt in ("csv", "json"):
        (tmp_path / f"{fmt}.scn").write_text(FIG3_SCN.replace("formats = csv, json\n", f"formats = {fmt}\n"))
    out_csv = tmp_path / "csv"
    assert main(["run", str(tmp_path / "csv.scn"), "--output-dir", str(out_csv)]) == 0
    assert all(n.endswith(".csv") for n in os.listdir(out_csv))

    out_json = tmp_path / "json"
    assert main(["run", str(tmp_path / "json.scn"), "--output-dir", str(out_json)]) == 0
    assert os.listdir(out_json) == ["fig3_summary.json"]


@pytest.mark.parametrize("command", [["run", "fig3"], ["search", "search-default"], ["validate"]])
def test_format_flag_is_gone(tmp_path, capsys, command):
    # the flag repeated [output] formats; a leftover --format is a usage error
    with pytest.raises(SystemExit) as exc:
        main(command + ["--output-dir", str(tmp_path), "--format", "csv"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_parse_error_exits_2(tmp_path, capsys):
    scn = tmp_path / "bad.scn"
    scn.write_text("scenario = multicycle\n[engine]\nfoo = 1\n")
    assert main(["run", str(scn)]) == 2
    assert "line 3" in capsys.readouterr().err


def test_validate_is_a_command_not_a_scenario_kind(tmp_path, capsys):
    scn = tmp_path / "validate.scn"
    scn.write_text("scenario = validate\n")
    assert main(["run", str(scn), "--output-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "unknown scenario 'validate'; expected one of" in err
    assert all(kind in err for kind in SCENARIO_KINDS)
    assert os.listdir(tmp_path) == ["validate.scn"]


def test_missing_file_exits_2(tmp_path):
    assert main(["run", str(tmp_path / "nope.scn")]) == 2


def test_directory_given_as_scenario_exits_2(tmp_path, capsys):
    assert main(["run", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path) in err
    assert os.listdir(tmp_path) == []


def test_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    scn = tmp_path / "binary.scn"
    scn.write_bytes(b"\xff")
    assert main(["run", str(scn), "--output-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(scn) in err and "not UTF-8 text" in err
    assert os.listdir(tmp_path) == ["binary.scn"]


def test_validation_error_exits_1(tmp_path, capsys):
    scn = tmp_path / "bad.scn"
    scn.write_text("scenario = multicycle\n[engine]\np_mx = 0.6\n")
    assert main(["run", str(scn), "--output-dir", str(tmp_path)]) == 1
    assert "positivity bound" in capsys.readouterr().err


def test_non_integer_cycles_sweep_exits_1(tmp_path, capsys):
    scn = tmp_path / "bad.scn"
    scn.write_text("scenario = multicycle\n[sweep]\nfield = cycles\nvalues = 2.5\n")
    assert main(["run", str(scn), "--output-dir", str(tmp_path)]) == 1
    assert "cycles must be a positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("body", [
    "[engine]\ncycles = 100000000000000000000\n",
    "[engine]\ncycles = 9223372036854775807\n",
    "[sweep]\nfield = cycles\nvalues = 2, 1e20\n",
])
def test_a_cycle_count_too_large_to_run_exits_1_naming_the_field(tmp_path, capsys, body):
    # such a count was once accepted and then crashed inside numpy with a traceback
    scn = tmp_path / "big.scn"
    scn.write_text("scenario = multicycle\n" + body)
    assert main(["run", str(scn), "--output-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cycles must be a positive integer up to ") and "Traceback" not in err
    assert list(tmp_path.iterdir()) == [scn]


def test_a_max_cycles_too_large_to_run_exits_2_naming_the_key_and_line(tmp_path, capsys):
    scn = tmp_path / "big.scn"
    scn.write_text("scenario = search-advantage\n[search]\ntheta = 0.5\np_mx = 0.2\n"
                   "max_cycles = 100000000000000000000\n")
    assert main(["search", str(scn), "--output-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: line 5: max_cycles must be a positive integer up to ")


# A block's battery vectors take 24 bytes per run per cycle of its longest
# run: 8 EiB for one run of MAX_COUNT cycles, above any address space, so
# nothing is allocated. The child's address-space limit guards that anyway.
@pytest.mark.parametrize("body", [
    f"[engine]\ncycles = {MAX_COUNT}\n",
    f"[sweep]\nfield = cycles\nvalues = {MAX_COUNT}, {MAX_COUNT}\n",
])
def test_a_cycle_count_too_large_to_allocate_exits_1_naming_the_field(tmp_path, body):
    scn = tmp_path / "big.scn"
    scn.write_text("scenario = multicycle\n" + body)
    limit = 2 * 1024**3
    proc = subprocess.run(
        [sys.executable, "-m", "spinotto.cli", "run", str(scn), "--output-dir", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120,
        env=os.environ | {"PYTHONPATH": str(pathlib.Path(cli.__file__).parent.parent)},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: cycles: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert "bytes" in proc.stderr and "Traceback" not in proc.stderr


def test_running_out_of_memory_exits_1(tmp_path, capsys, monkeypatch):
    def exhausted():
        raise MemoryError
    monkeypatch.setattr(cli, "run_all_checks", exhausted)
    assert main(["validate", "--output-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: out of memory\n"


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_search_zero_coherence_grid(tmp_path, capsys):
    scn = tmp_path / "search.scn"
    scn.write_text(
        "scenario = search-advantage\n"
        "[engine]\nhot_populations = 0.5, 0.5\ncold_populations = 0.0, 1.0\n"
        "[search]\ntheta = 0.5\np_mx = 0.0\nmax_cycles = 5\n"
        "[output]\nprefix = s\n"
    )
    out = tmp_path / "out"
    assert main(["search", str(scn), "--output-dir", str(out)]) == 0
    summary = json.loads(read(out / "s_summary.json"))
    best = summary["results"]["best"]
    assert best["p_mx"] == 0.0
    assert best["peak_ratio"] == 0.0


def test_search_rejects_other_scenarios(tmp_path):
    scn = tmp_path / "multi.scn"
    scn.write_text("scenario = multicycle\n")
    assert main(["search", str(scn)]) == 2


def test_search_default_preset_finds_strong_advantage(tmp_path):
    out = tmp_path / "out"
    assert main(["search", "search-default", "--output-dir", str(out)]) == 0
    summary = json.loads(read(out / "search_summary.json"))
    best = summary["results"]["best"]
    assert best["peak_ratio"] >= 1.5
    assert best["peak_cycle"] <= 10


@pytest.mark.parametrize("n", [1, MAP_BLOCK - 1, MAP_BLOCK, MAP_BLOCK + 1])
def test_stacked_search_equals_per_config_compare(tmp_path, monkeypatch, n):
    # search runs every grid config and its p_mx = 0 twin through one
    # run_engines call; each comparison must equal two single-config runs
    thetas = [0.05 + 1.4 * i / n for i in range(n)]
    path = tmp_path / "grid.scn"
    path.write_text(
        "scenario = search-advantage\n[search]\n"
        f"theta = {', '.join(repr(t) for t in thetas)}\n"
        "p_mx = 0.3\nbattery_dephasing_per_reset = 0.95\nbattery_t2_per_cycle = 0.9\n"
        "max_cycles = 3\n[output]\nprefix = grid\nformats = csv\n"
    )
    seen = []

    def spy(coherent, incoherent):
        seen.append(compare_coherent_incoherent(coherent, incoherent))
        return seen[-1]

    monkeypatch.setattr(cli, "compare_coherent_incoherent", spy)
    assert main(["search", str(path), "--output-dir", str(tmp_path)]) == 0
    rows = read(tmp_path / "grid_grid.csv").decode().splitlines()[1:]
    assert len(seen) == len(rows) == n
    for theta, result, row in zip(thetas, seen, rows, strict=True):
        config = EngineConfig(theta=theta, p_mx=0.3, battery_dephasing_per_reset=0.95, battery_t2_per_cycle=0.9,
                              cycles=3)
        single = compare_coherent_incoherent(run_engine(config), run_engine(config.with_p_mx(0.0)))
        assert (result.coherent.config, result.incoherent.config) == (config, config.with_p_mx(0.0))
        for got, want in ((result.coherent, single.coherent), (result.incoherent, single.incoherent)):
            assert got.records == want.records
        assert result.advantage == single.advantage
        ratio, cycle = peak_advantage(single)
        assert row.split(",")[4:6] == [format(ratio, ".17g"), str(cycle)]


def test_search_summary_config_is_the_first_grid_row(tmp_path):
    out = tmp_path / "out"
    assert main(["search", "search-default", "--output-dir", str(out)]) == 0
    config = config_from_dict(json.loads(read(out / "search_summary.json"))["config"])
    first = read(out / "search_grid.csv").decode().splitlines()[1].split(",")
    point = (config.theta, config.p_mx, config.battery_dephasing_per_reset, config.battery_t2_per_cycle)
    assert [format(x, ".17g") for x in point] == first[:4]
    ratio, cycle = peak_advantage(compare_coherent_incoherent(*run_engines([config, config.with_p_mx(0.0)])))
    assert first[4:6] == [format(ratio, ".17g"), str(cycle)]


# The positivity bound of this bath is sqrt(0.9 * 0.1) = 0.3, below the
# default p_mx = 0.45, which none of these files runs.
SKEWED_BATH = "[engine]\nhot_populations = 0.9, 0.1\n"


@pytest.mark.parametrize(
    "command, text",
    [
        ("run", "scenario = multicycle\n" + SKEWED_BATH + "cycles = 2\n[sweep]\nfield = p_mx\nvalues = 0.2, -0.1\n"),
        ("search", "scenario = search-advantage\n" + SKEWED_BATH + "[search]\ntheta = 0.5\np_mx = 0.2, 0.25\n"),
    ],
    ids=["sweep", "search"],
)
def test_the_default_p_mx_does_not_bar_a_grid_that_never_runs_it(tmp_path, command, text):
    scn = tmp_path / "run.scn"
    scn.write_text(text + "[output]\nprefix = run\n")
    out = tmp_path / "out"
    assert main([command, str(scn), "--output-dir", str(out)]) == 0
    assert json.loads(read(out / "run_summary.json"))["config"]["p_mx"] == 0.2


def test_search_noise_reaches_the_grid(tmp_path):
    # a [noise] value is the one value of the axis [search] omits, so the grid
    # equals the one that lists it as an axis
    grid = "[search]\ntheta = 0.3, 0.6\np_mx = 0.2\nbattery_dephasing_per_reset = 0.9, 1.0\nmax_cycles = 3\n"
    texts = {
        "noise": "[noise]\nbattery_t2_per_cycle = 0.5\n" + grid,
        "axis": grid + "battery_t2_per_cycle = 0.5\n",
    }
    for name, text in texts.items():
        (tmp_path / f"{name}.scn").write_text(f"scenario = search-advantage\n{text}[output]\nprefix = s\nformats = csv\n")
        assert main(["search", str(tmp_path / f"{name}.scn"), "--output-dir", str(tmp_path / name)]) == 0
    rows = read(tmp_path / "noise" / "s_grid.csv").decode().splitlines()
    assert rows[0].split(",")[3] == "battery_t2_per_cycle"
    assert [row.split(",")[3] for row in rows[1:]] == ["0.5"] * 4
    assert read(tmp_path / "noise" / "s_grid.csv") == read(tmp_path / "axis" / "s_grid.csv")


SEARCH_GRID = "[search]\ntheta = 0.3, 0.6\np_mx = 0.2\nbattery_t2_per_cycle = 0.9\n"


@pytest.mark.parametrize(
    "text, key, lineno",
    [
        ("scenario = multicycle\n[engine]\ntheta = 0.3\n[sweep]\nfield = theta\nvalues = 0.1, 0.2\n", "theta", 3),
        ("scenario = multicycle\n[noise]\nbattery_t2_per_cycle = 0.9\n[sweep]\nfield = battery_t2_per_cycle\n"
         "values = 0.5\n", "battery_t2_per_cycle", 3),
        ("scenario = single-cycle-sweep\n[engine]\np_mx = 0.1\ntheta = 0.3\n", "theta", 4),
        ("scenario = search-advantage\n[engine]\ntheta = 0.3\n" + SEARCH_GRID, "theta", 3),
        ("scenario = search-advantage\n[engine]\ncycles = 4\np_mx = 0.1\n" + SEARCH_GRID, "cycles", 3),
        ("scenario = search-advantage\n[engine]\ntheta_compression = 0.2\np_mx = 0.1\n" + SEARCH_GRID, "p_mx", 4),
        ("scenario = search-advantage\n[noise]\nbattery_t2_per_cycle = 0.5\n" + SEARCH_GRID, "battery_t2_per_cycle", 3),
    ],
    ids=["sweep-engine", "sweep-noise", "default-theta-grid", "search-theta", "search-cycles", "search-p_mx",
         "search-noise"],
)
def test_a_key_the_sweep_or_search_sets_is_stated_once(tmp_path, capsys, text, key, lineno):
    scn = tmp_path / "run.scn"
    scn.write_text(text)
    command = "search" if "search-advantage" in text else "run"
    assert main([command, str(scn), "--output-dir", str(tmp_path / "out")]) == 2
    assert f"error: line {lineno}: {key} is set by " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_search_runs_are_identical(tmp_path):
    for name in ("a", "b"):
        assert main(["search", "search-default", "--output-dir", str(tmp_path / name)]) == 0
    for name in ("search_grid.csv", "search_summary.json"):
        assert read(tmp_path / "a" / name) == read(tmp_path / "b" / name)


def test_validate_writes_every_check_to_its_summary(tmp_path):
    assert main(["validate", "--output-dir", str(tmp_path)]) == 0
    summary = json.loads(read(tmp_path / "validate_summary.json"))
    assert list(summary) == ["schema_version", "package_version", "scenario", "outputs", "results"]
    assert summary["results"]["all_passed"] is True
    assert [c["passed"] for c in summary["results"]["checks"]] == [True] * 10


@pytest.mark.parametrize("residual, passed", [(1e-13, True), (1e-12, True), (2e-12, False), (np.nan, False)])
def test_numpy_scalar_rows_get_a_python_verdict(tmp_path, monkeypatch, residual, passed):
    # a check whose residual and tolerance are numpy scalars: run_all_checks
    # judges residual <= tolerance as a Python bool, so the summary is written
    # and a NaN residual fails
    name = validate.CHECKS[0][0]
    rows = lambda rng, seed: [("numpy scalars", np.float64(residual), np.float64(1e-12))]
    monkeypatch.setattr(validate, "CHECKS", ((name, rows),) + validate.CHECKS[1:])
    assert main(["validate", "--output-dir", str(tmp_path)]) == (0 if passed else 1)
    first = json.loads(read(tmp_path / "validate_summary.json"))["results"]["checks"][0]
    detail = f"numpy scalars = {residual:.3e} (tol 1.000e-12)" + ("" if passed else "; failed: numpy scalars")
    assert first == {"name": name, "passed": passed, "detail": detail}


def test_workers_flag_is_gone(tmp_path, capsys):
    # every run is serial; a leftover --workers is a usage error, not ignored
    with pytest.raises(SystemExit) as exc:
        main(["run", "fig3", "--output-dir", str(tmp_path), "--workers", "2"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


def named_files(obj):
    """Every entry of an 'outputs' list and every non-null 'file' value in a
    summary, at any depth."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            if key == "outputs":
                yield from value
            elif key == "file":
                yield from [value] if value is not None else []
            else:
                yield from named_files(value)
    elif isinstance(obj, list):
        for value in obj:
            yield from named_files(value)


@pytest.mark.parametrize("fmt", ["json", "csv, json"], ids=["json", "both"])
@pytest.mark.parametrize(
    "text",
    [
        "scenario = multicycle\n[engine]\ncycles = 3\n[sweep]\nfield = theta\nvalues = 0.2, 0.4\n",
        "scenario = multicycle\n[engine]\ncycles = 3\n",
        "scenario = compare\n[engine]\ncycles = 3\n",
        "scenario = single-cycle-sweep\n[sweep]\nfield = p_mx\nvalues = 0.1, 0.2\n",
        "scenario = search-advantage\n[search]\ntheta = 0.3, 0.6\np_mx = 0.4\nmax_cycles = 3\n",
    ],
    ids=["sweep", "multicycle", "compare", "single-cycle-sweep", "search"],
)
def test_every_file_a_summary_names_exists(tmp_path, text, fmt):
    scn = tmp_path / "run.scn"
    scn.write_text(text + f"[output]\nprefix = run\nformats = {fmt}\n")
    out = tmp_path / "out"
    assert main(["run", str(scn), "--output-dir", str(out)]) == 0
    summary = json.loads(read(out / "run_summary.json"))
    # every named file exists, and every file but the summary is named
    assert set(named_files(summary)) == set(os.listdir(out)) - {"run_summary.json"}
    if "sweep_map" in summary["results"]:
        assert all((entry["file"] is None) == (fmt == "json") for entry in summary["results"]["sweep_map"])


def test_sweep_scenario_multiple_csvs(tmp_path):
    scn = tmp_path / "sweep.scn"
    scn.write_text(
        "scenario = multicycle\n[engine]\ncycles = 3\n"
        "[sweep]\nfield = theta\nvalues = 0.2, 0.4\n[output]\nprefix = sw\n"
    )
    out = tmp_path / "out"
    assert main(["run", str(scn), "--output-dir", str(out)]) == 0
    names = sorted(os.listdir(out))
    assert names == ["sw_s00.csv", "sw_s01.csv", "sw_summary.json"]
    summary = json.loads(read(out / "sw_summary.json"))
    assert summary["results"]["sweep_map"][1]["value"] == 0.4
