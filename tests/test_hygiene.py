"""Source hygiene checks that need no linter: every import is used."""

import ast
from pathlib import Path

import pacedseg

SRC = Path(pacedseg.__file__).parent


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never references."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(name for name in imported if name not in used)


def test_scan_flags_an_unused_import():
    assert unused_imports("import math\nfrom dataclasses import field, replace\nreplace\n") == [
        "field", "math",
    ]


def test_no_unused_imports_in_package():
    found = {
        path.stem: names
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py" and (names := unused_imports(path.read_text()))
    }
    assert found == {}, f"unused imports (module: names): {found}"
