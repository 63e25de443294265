"""Every imported name is used: a stdlib-only unused-import check.

Covers the package modules (the package ``__init__`` re-exports by
import, so it is left out) and the scripts. A name counts as used when
it is read anywhere in the module's code, annotations included, or
listed in ``__all__``; a mention in a docstring or comment does not.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for p in (ROOT / "src" / "pcia").glob("*.py") if p.name != "__init__.py")
SOURCES += sorted((ROOT / "scripts").glob("*.py"))


def _unused_imports(tree: ast.Module) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_check_sees_an_unused_name():
    tree = ast.parse("import os\nfrom typing import Sequence, Optional\n"
                     "from __future__ import annotations\nx: Optional[int] = None\n")
    assert _unused_imports(tree) == [(1, "os"), (2, "Sequence")]


def test_no_module_imports_a_name_it_never_uses():
    assert SOURCES
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for path in SOURCES
             for line, name in _unused_imports(ast.parse(path.read_text(), str(path)))]
    assert not found, "unused imports:\n" + "\n".join(found)
