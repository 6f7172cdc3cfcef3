"""The benchmark's exact call-count gates and per-layer metrics name
functions the package has.

bench/run.py::check_trace compares a traced call count only for functions
that appear in the trace, so renaming or deleting a gated function (say
engine.make_cycle_record) would switch its gate off without an error, and a
per-layer metric of a missing function reads 0. These tests read the gates
and metrics from the benchmark harness, imported without writing anything
under bench/, and check each against the package. The traced-worker test runs
the exact call-count gates themselves, which the benchmark checks only with
--trace 1. The last test ties the detail lines of validate to the reference
that reads them back.
"""

import importlib
import inspect
import json
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest

from spinotto import validate

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench():
    """bench/gen.py and bench/run.py as modules. run.py imports gen and
    reference by bare name, so bench/ is on sys.path while they load; the
    bare names leave sys.modules afterwards, and no bytecode is written."""
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode = True
    try:
        gen, run = importlib.import_module("gen"), importlib.import_module("run")
    finally:
        sys.path[:], sys.dont_write_bytecode = saved_path, saved_flag
        for name in ("gen", "run", "reference"):
            sys.modules.pop(name, None)
    return gen, run


def is_public_function(key: str) -> bool:
    """Whether 'layer.name' is a public function defined in spinotto.layer:
    the functions the tracer wraps."""
    layer, name = key.split(".")
    module = importlib.import_module(f"spinotto.{layer}")
    fn = getattr(module, name, None)
    return inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_")


@pytest.mark.parametrize("workload", ["trajectory", "grid", "selfcheck"])
def test_every_gated_function_is_public_in_its_module(bench, workload):
    gen, run = bench
    gated = run.expected_counts(gen.make_workload(workload, seed=1))
    assert gated
    for key in gated:
        assert is_public_function(key), f"{key} is gated but is no public function of its module"


def test_the_absent_per_layer_metrics_are_known(bench):
    # bench/run.py reports a per-layer metric of a missing function as 0 and
    # only prints its name; these are the ones a benchmark change must replace
    _, run = bench
    named = [fn for fn, _ in run.LAYER_METRICS] + list(run.PREPARE)
    assert {key for key in named if not is_public_function(key)} == {
        "diagnostics.pauli_correlators",
        "engine.closed_form_work",
        "engine.run_single_cycle",
        "linalg.hermitian_eig",
        "linalg.sqrtm_psd",
    }


@pytest.mark.parametrize("workload", ["trajectory", "grid", "selfcheck"])
def test_traced_worker_passes_the_call_count_gates(bench, workload, tmp_path):
    # one traced repetition of bench/worker.py, as `bench/run.py --trace 1`
    # starts it, with its scenarios, job file and outputs under tmp_path
    gen, run = bench
    w = gen.make_workload(workload, 1)
    for name, text in w.scenarios.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    outdirs = [str(tmp_path / "out" / name[:-4]) for name in w.scenarios]
    job = {
        "workload": w.name,
        "seed": w.seed,
        "src": str(BENCH.parent / "src"),
        "scenarios": [str(tmp_path / name) for name in w.scenarios],
        "outdirs": outdirs,
        "trace": True,
    }
    (tmp_path / "job.json").write_text(json.dumps(job), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([job["src"], str(BENCH)]), PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), repr(time.monotonic()), str(tmp_path / "job.json")],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    run.check_trace(w, result["trace"])  # raises BenchError on a count mismatch
    if workload == "selfcheck":  # one run_all_checks op, whose value is the check rows
        assert [op["error"] for op in result["ops"]] == [None]
        errors = run.reference.check_selfcheck(result["ops"][0]["value"])
    else:
        assert [(op["error"], op["value"]) for op in result["ops"]] == [(None, 0)] * len(w.scenarios)
    if workload == "grid":
        errors = run.reference.check_grid(w, outdirs[0], result["ops"][0]["stdout"])
    elif workload == "trajectory":
        errors = run.reference.check_trajectory(w, outdirs)
    assert errors and errors == [None] * len(errors)


def test_validate_details_pass_the_selfcheck_reference(bench):
    # bench/reference.py re-derives each verdict from every e-notation number
    # in a passing detail, the stated tolerances included, so no check may
    # state a tolerance above the reference's bound
    _, run = bench
    checks = [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in validate.run_all_checks()]
    assert run.reference.check_selfcheck(checks) == [None] * len(validate.CHECKS)
    rng = np.random.default_rng(validate.DEFAULT_SEED)
    tolerances = [tol for _, check in validate.CHECKS for _, _, tol in check(rng, validate.DEFAULT_SEED)]
    assert max(tolerances) <= run.reference.SELFCHECK_TOL
