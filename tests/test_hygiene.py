"""Source hygiene checks that need no linter: only the stdlib `ast` module."""

import ast
import inspect
import os
import pathlib
import re
import subprocess
import sys

import pytest

import spinotto

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "spinotto"
BENCH = SRC.parent.parent / "bench"
# __init__.py holds the BLAS thread setting, the version and one name kept
# for the benchmark
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# Code lines of src/spinotto, counted by code_lines: a ratchet on the size of
# the package. Lower it when the package shrinks; a change that needs more
# lines must say why.
SRC_CODE_LINES = 1098


# The widest line of src/spinotto. Without this cap, joining statements onto
# one long line would lower the code_lines ratchet without simplifying anything.
MAX_LINE = 115


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_scanner_finds_unused_names():
    source = "import os\nimport numpy as np\nfrom x import a, b as c\nnp.zeros(a)\n"
    assert unused_imports(source) == ["os (line 1)", "c (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def code_lines(source: str) -> int:
    """Lines that are not blank, not a full-line comment and not part of a
    module, class or function docstring."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    return sum(
        1
        for lineno, line in enumerate(source.splitlines(), start=1)
        if line.strip() and not line.strip().startswith("#") and lineno not in docstrings
    )


def test_code_line_counter():
    source = (
        '"""Module\ndocstring."""\n\n# comment\nx = 1  # trailing comment\n'
        'class A:\n    """One line."""\n\n    def f(self):\n        """Two\n        lines."""\n'
        '        return "not a docstring"\n'
    )
    assert code_lines(source) == 4


def test_src_code_lines_ratchet():
    total = sum(code_lines(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py"))
    assert total <= SRC_CODE_LINES, f"src/spinotto has {total} code lines, the ratchet allows {SRC_CODE_LINES}"


def test_no_line_is_wider_than_max_line():
    wide = [
        f"{path.name}:{lineno} ({len(line)} chars)"
        for path in sorted(SRC.glob("*.py"))
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1)
        if len(line) > MAX_LINE
    ]
    assert wide == []


def public_definitions(source: str) -> list[str]:
    """The public module-level functions and classes of a module."""
    return [
        node.name
        for node in ast.parse(source).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]


def names_read(source: str, strings: bool = False) -> set[str]:
    """The names the code of a module reads, as names or attributes, and the
    names it imports; with strings, also every word of its string constants
    (a benchmark names the functions it traces as "module.function")."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(re.findall(r"\w+", node.value))
    return names


def test_scanners_find_definitions_and_reads():
    source = 'import a\nfrom b import c\ndef f(): return g.h\nclass K: pass\ndef _p(): pass\nx = "m.n"\n'
    assert public_definitions(source) == ["f", "K"]
    assert names_read(source) == {"a", "c", "g", "h"}
    assert names_read(source, strings=True) == {"a", "c", "g", "h", "m", "n"}


# Public definitions that only the tests call: none.
TEST_ONLY_ALLOWED = set()


def test_every_public_definition_is_used_outside_the_tests():
    # __init__.py only re-exports EngineConfig, so it does not count as a use
    read = set().union(*(names_read(p.read_text(encoding="utf-8")) for p in MODULES))
    read |= set().union(*(names_read(p.read_text(encoding="utf-8"), strings=True) for p in BENCH.rglob("*.py")))
    unused = [
        f"{path.name}:{name}"
        for path in MODULES
        for name in public_definitions(path.read_text(encoding="utf-8"))
        if name not in read and name not in TEST_ONLY_ALLOWED
    ]
    assert unused == []


def test_each_public_name_has_one_import_path():
    # the modules are the API; the package itself keeps EngineConfig only
    # for the benchmark self-test's `from spinotto import multicycle, EngineConfig`
    public = {name: value for name, value in vars(spinotto).items() if not name.startswith("_")}
    assert {name for name, value in public.items() if not inspect.ismodule(value)} == {"EngineConfig"}


def test_the_benchmarks_imports_resolve():
    # bench/worker.py and bench/selftest import these from the package
    from spinotto import EngineConfig, cli, multicycle, scenario, validate

    assert EngineConfig is multicycle.EngineConfig
    assert all(inspect.ismodule(m) for m in (cli, multicycle, scenario, validate))


def blas_threads_in_a_fresh_process(preset: str | None) -> tuple[str, int | None]:
    """OPENBLAS_NUM_THREADS after `import spinotto`, in a new interpreter whose
    environment sets it to preset (None: leaves it unset), and the number of
    threads of that process after `import numpy` (None where /proc is absent)."""
    env = {name: value for name, value in os.environ.items() if name != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    probe = (
        "import os, spinotto, numpy; print(os.environ.get('OPENBLAS_NUM_THREADS', 'unset'), "
        "len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else '')"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    value, *threads = out.stdout.split()
    return value, int(threads[0]) if threads else None


def test_importing_spinotto_starts_openblas_with_one_thread():
    value, threads = blas_threads_in_a_fresh_process(None)
    assert value == "1"
    assert threads in (1, None)  # no BLAS worker thread beside the main one


def test_a_preset_openblas_thread_count_is_kept():
    assert blas_threads_in_a_fresh_process("2")[0] == "2"
