"""Source hygiene checks that need no linter: only the stdlib `ast` module."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "spinotto"
# __init__.py imports names to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# Code lines of src/spinotto, counted by code_lines: a ratchet on the size of
# the package. Lower it when the package shrinks; a change that needs more
# lines must say why.
SRC_CODE_LINES = 1352


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
