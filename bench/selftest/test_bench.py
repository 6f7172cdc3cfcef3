"""Self-tests of the benchmark harness.

    python3 -m pytest bench/selftest -q
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [BENCH, SRC]

import gen  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def _configs(w: gen.Workload) -> list[gen.Config]:
    if w.grid is not None:
        return [gen.grid_config(w.grid, pt) for pt in w.grid.points()]
    return list(w.configs)


@pytest.mark.parametrize("name", ["trajectory", "grid"])
def test_generator_is_deterministic(name):
    a, b = gen.make_workload(name, 7), gen.make_workload(name, 7)
    assert a.scenarios == b.scenarios
    assert gen.make_workload(name, 8).scenarios != a.scenarios


@pytest.mark.parametrize("name", ["trajectory", "grid"])
def test_generator_stays_in_bounds_and_parses(name):
    from spinotto.scenario import parse_scenario

    for seed in range(200):
        w = gen.make_workload(name, seed)
        for c in _configs(w):
            gen.check_bounds(c)
            assert abs(c.p_mx) <= math.sqrt(c.hot[0] * c.hot[1])
            assert math.sqrt(sum(x * x for x in c.battery)) <= 0.5
            assert c.hot[0] + c.hot[1] == pytest.approx(1.0, abs=1e-15)
            assert c.hot[0] != 0.5 and 0.0 < c.cold[0] < 0.5
            assert c.reset_f < 1.0 and c.t2_f < 1.0
        for text in w.scenarios.values():
            assert "np." not in text
            parse_scenario(text)


def test_trajectory_sets_compression_angle_on_some_configs():
    w = gen.make_workload("trajectory", 3)
    assert any(c.theta_compression is None for c in w.configs)
    assert any(c.theta_compression is not None for c in w.configs)


def _short_trajectory(tmp_path, cycles: int = 6) -> tuple[gen.Workload, list[str]]:
    from spinotto import cli

    w = gen.make_workload("trajectory", 11)
    configs = tuple(dataclasses.replace(c, cycles=cycles) for c in w.configs)
    w = dataclasses.replace(
        w,
        configs=configs,
        scenarios={f"traj{i}.scn": gen.trajectory_scn(c, f"traj{i}") for i, c in enumerate(configs)},
    )
    outdirs = []
    for name, text in w.scenarios.items():
        path = tmp_path / name
        path.write_text(text)
        outdirs.append(str(tmp_path / name[:-4]))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["run", str(path), "--output-dir", outdirs[-1]]) == 0
    return w, outdirs


def _bump_last_digits(text: str) -> str:
    """Change digits 12 to 17 of a 17-significant-digit number."""
    x = float(text)
    mantissa, exponent = f"{x:.16e}".split("e")
    bumped = mantissa[:-6] + str((int(mantissa[-6]) + 5) % 10) + mantissa[-5:]
    assert bumped != mantissa
    return repr(float(bumped + "e" + exponent))


def test_reference_accepts_program_outputs(tmp_path):
    w, outdirs = _short_trajectory(tmp_path)
    assert reference.check_trajectory(w, outdirs) == [None] * len(outdirs)


@pytest.mark.parametrize("column", ["cycle_work", "p_bz", "corr_xx", "ergotropy_total"])
def test_reference_flags_a_value_perturbed_in_its_last_digits(tmp_path, column):
    w, outdirs = _short_trajectory(tmp_path)
    path = os.path.join(outdirs[1], "traj1_coherent.csv")
    with open(path) as fh:
        lines = fh.read().splitlines()
    col = lines[0].split(",").index(column)
    cells = lines[1].split(",")
    cells[col] = _bump_last_digits(cells[col])
    lines[1] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    errors = reference.check_trajectory(w, outdirs)
    assert errors[0] is None and errors[2] is None
    assert errors[1] is not None and column in errors[1]


def test_reference_flags_a_perturbed_grid_peak(tmp_path):
    from spinotto import cli

    w = gen.make_workload("grid", 5)
    scn = tmp_path / "grid.scn"
    scn.write_text(w.scenarios["grid.scn"])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["search", str(scn), "--output-dir", str(tmp_path / "g")]) == 0
    assert reference.check_grid(w, str(tmp_path / "g"), out.getvalue()) == [None] * w.ops
    path = tmp_path / "g" / "grid_grid.csv"
    lines = path.read_text().splitlines()
    # perturb the best-conditioned peak: a ratio is only as good as W_coh/W_incoh
    advs = reference.grid_reference(w.grid)
    rel_tol = {}
    for row, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if cells[6] == "1":
            a, k = advs[row - 1], int(cells[5]) - 1
            rel_tol[row] = a.tol[k] / abs(a.ratio[k])
    row = min(rel_tol, key=rel_tol.get)
    cells = lines[row].split(",")
    cells[4] = _bump_last_digits(cells[4])
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    errors = reference.check_grid(w, str(tmp_path / "g"), out.getvalue())
    assert errors[row - 1] is not None


def test_selfcheck_verdicts_are_rederived():
    ok = {"name": "a", "passed": True, "detail": "max gap 1.234e-15 (tol 1e-12)"}
    loose = {"name": "b", "passed": True, "detail": "max gap 3.000e-06"}
    failed = {"name": "c", "passed": False, "detail": "max gap 1.000e-15"}
    errors = reference.check_selfcheck([ok, loose, failed])
    assert errors[0] is None and errors[1] is not None and errors[2] is not None


def test_metric_names_are_valid_and_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END
    assert layers == run.per_layer_names()
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    for name in list(e2e) + list(layers) + [w["name"] for w in spec["workloads"]]:
        assert NAME_RE.fullmatch(name) and len(name) <= 64
    assert e2e.keys().isdisjoint(layers)


def test_tracer_sees_calls_through_every_binding():
    # In a fresh process, because installing the tracer rebinds module attributes.
    script = (
        "from tracing import Tracer\n"
        "t = Tracer(); t.install()\n"
        "from spinotto import multicycle, EngineConfig\n"
        "multicycle.run_engine(EngineConfig(cycles=3))\n"
        "import json; print(json.dumps(t.snapshot()))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, BENCH]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    stats = json.loads(out.stdout)
    # make_cycle_record and concurrence are reached only through names that
    # multicycle and engine imported from other modules
    assert stats["engine.make_cycle_record"][0] == 3
    assert stats["diagnostics.concurrence"][0] == 3
    assert stats["engine.prepare_battery"][0] == 1
    incl, self_s = stats["multicycle.run_engine"][1:]
    assert 0 < self_s < incl


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "_work"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    p = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "grid", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert p.returncode != 0
    assert p.stdout.strip() == ""
