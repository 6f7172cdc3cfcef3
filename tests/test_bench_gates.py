"""The benchmark's exact call-count gates name functions the package has.

bench/run.py::check_trace compares a traced call count only for functions
that appear in the trace, so renaming or deleting a gated function (say
engine.make_cycle_record) would switch its gate off without an error. These
tests read the gates from the benchmark harness, imported without writing
anything under bench/, and check each against the package.
"""

import importlib
import inspect
import pathlib
import sys

import pytest

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


@pytest.mark.parametrize("workload", ["trajectory", "grid", "selfcheck"])
def test_every_gated_function_is_public_in_its_module(bench, workload):
    # the tracer wraps exactly the public functions defined in each module
    gen, run = bench
    gated = run.expected_counts(gen.make_workload(workload, seed=1))
    assert gated
    for key in gated:
        layer, name = key.split(".")
        module = importlib.import_module(f"spinotto.{layer}")
        fn = getattr(module, name, None)
        assert inspect.isfunction(fn), f"{key} is gated but spinotto.{layer} has no function {name}"
        assert fn.__module__ == module.__name__ and not name.startswith("_"), key
