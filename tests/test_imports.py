"""Every top-level import in src/ and tests/ is used in its module, and in
src/ only the oracle imports the enumeration kernel."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that nothing reads.

    A name counts as read when it is loaded anywhere in the module,
    string annotations included.  `from __future__` imports are skipped.
    """
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations += [a.annotation for a in
                            args.posonlyargs + args.args + args.kwonlyargs]
            annotations += [args.vararg and args.vararg.annotation,
                            args.kwarg and args.kwarg.annotation, node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                parsed = ast.parse(ann.value, mode="eval")
                used.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def test_unused_imports_are_detected():
    source = (
        "from __future__ import annotations\n"
        "import os\nimport sys as system\nfrom typing import Iterable, Sequence\n"
        "def f(x: 'Sequence[int]') -> int:\n    return os.sep\n"
    )
    assert unused_imports(source) == ["line 3: system", "line 4: Iterable"]


def test_no_unused_top_level_imports():
    found = {}
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")]):
        names = unused_imports(path.read_text())
        if names:
            found[str(path.relative_to(ROOT))] = names
    assert found == {}


def kernel_imports(source: str) -> list[int]:
    """Line numbers of the module's imports of `_bitkernel`, at any depth."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            names = [module] + [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any("_bitkernel" in name.split(".") for name in names):
            lines.append(node.lineno)
    return lines


def test_kernel_imports_are_detected():
    source = (
        "from . import _bitkernel\nfrom ._bitkernel import solve\n"
        "import mono3sat._bitkernel as k\nfrom mono3sat import oracle, _bitkernel\n"
        "from .oracle import solve_exhaustive\nimport bitkernel\n"
        "def f():\n    from mono3sat._bitkernel import accepted_patterns\n"
    )
    assert kernel_imports(source) == [1, 2, 3, 4, 8]


def test_only_the_oracle_imports_the_kernel():
    found = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        lines = kernel_imports(path.read_text())
        if lines:
            found[str(path.relative_to(ROOT))] = lines
    assert list(found) == ["src/mono3sat/oracle.py"]
