"""Every top-level import in src/ and tests/ is used in its module, in
src/ only the oracle imports the enumeration kernel, and every name src/
defines is read somewhere in src/ or certbench/."""

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


# Read only by the tests and the acceptance criteria.
TEST_ONLY_NAMES = frozenset({
    "subsumes", "check_equisat", "transversal_count", "check_sat_via_transversal",
    "bound_satisfiable", "min_transversal_hitting_set",
})


def definitions(source: str) -> dict[str, int]:
    """Top-level functions, classes and assigned names, and the non-dunder
    methods of top-level classes, with their line numbers."""
    found: dict[str, int] = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name):
                    found[t.id] = node.lineno
        if isinstance(node, ast.ClassDef):
            for f in node.body:
                if (isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (f.name.startswith("__") and f.name.endswith("__"))):
                    found[f.name] = f.lineno
    return found


def reads(source: str) -> set[str]:
    """Names the module loads, attributes it reads and names it imports by
    `from ... import`."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_unread_definitions_are_detected():
    source = (
        "LIMIT = 3\nUNUSED: int = 4\n"
        "class A:\n    def __init__(self):\n        self.gone = 1\n"
        "    def used(self):\n        return LIMIT\n    def gone(self):\n        pass\n"
        "def helper():\n    return A().used()\n"
    )
    defined = definitions(source)
    assert sorted(n for n in defined if n not in reads(source)) == ["UNUSED", "gone", "helper"]


def test_every_src_definition_is_read():
    read = set()
    for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "certbench").rglob("*.py")]:
        read |= reads(path.read_text())
    found = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        names = [f"line {line}: {name}" for name, line in definitions(path.read_text()).items()
                 if name not in read and name not in TEST_ONLY_NAMES]
        if names:
            found[str(path.relative_to(ROOT))] = names
    assert found == {}
