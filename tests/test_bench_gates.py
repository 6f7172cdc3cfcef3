"""The benchmark's exact call-count gates and per-layer metrics name
functions the package has.

bench/run.py::check_trace compares a traced call count only for functions
that appear in the trace, so renaming or deleting a gated function (say
engine.make_cycle_record) would switch its gate off without an error, and a
per-layer metric of a missing function reads 0. These tests read the gates
and metrics from the benchmark harness, imported without writing anything
under bench/, and check each against the package. The last test ties the
detail lines of validate to the reference that reads them back.
"""

import importlib
import inspect
import pathlib
import sys

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
