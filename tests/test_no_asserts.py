"""No `assert` statement in src/: `python -O` strips them, and every check
of the library must still run there."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def assert_lines(source: str) -> list[int]:
    """Line numbers of the module's assert statements."""
    return [n.lineno for n in ast.walk(ast.parse(source)) if isinstance(n, ast.Assert)]


def test_asserts_are_detected():
    source = "def f(x):\n    assert x\n    return x\nassert_ok = 'assert 1'\n"
    assert assert_lines(source) == [2]


def test_no_assert_statements_in_src():
    found = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        lines = assert_lines(path.read_text())
        if lines:
            found[str(path.relative_to(ROOT))] = lines
    assert found == {}
