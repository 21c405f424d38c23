"""Every module-level import in ``src/repro`` is used by its module.

No linter is installed, so this ``ast`` check stands in for one.
"""
from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


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
