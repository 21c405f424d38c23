"""Every module-level import in ``src/repro`` is used by its module, and
every public top-level function and class is used by the program.

No linter is installed, so these ``ast`` checks stand in for one.
"""
from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
#: the program: a public name used only by tests is dead code
PROGRAM = (SRC, ROOT / "jobs", ROOT / "benchmarks", ROOT / "perfbench")
#: modules of ``src/repro`` that exist for the tests (the DuckDB oracle)
TEST_SUPPORT = {SRC / "oracle.py"}


def _unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for a in node.names:
                bound[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                bound[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.relative_to(SRC.parent)}:{line}: {name}"
            for name, line in bound.items() if name not in used]


def test_no_unused_module_level_imports():
    unused = [u for p in sorted(SRC.rglob("*.py")) for u in _unused_imports(p)]
    assert unused == []


def _uses(tree: ast.Module) -> set[str]:
    """Names a module reads, as variables or attributes, outside the
    top-level ``def``/``class`` that binds them (recursion is no use)."""
    used = set()
    for stmt in tree.body:
        names = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(stmt)
                 if isinstance(n, (ast.Name, ast.Attribute))}
        used |= names - {getattr(stmt, "name", None)}
    return used


def test_no_public_definition_used_by_tests_only():
    used, defined = set(), []
    for root in PROGRAM:
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            used |= _uses(tree)
            if root == SRC and path not in TEST_SUPPORT:
                defined += [
                    (f"{path.relative_to(SRC.parent)}:{d.lineno}", d.name)
                    for d in tree.body
                    if isinstance(d, (ast.FunctionDef, ast.ClassDef))
                    and not d.name.startswith("_")
                ]
    assert [f"{where}: {name}" for where, name in defined if name not in used] == []
