"""Import hygiene of the package's modules, read with ``ast``: every name
a module imports is used there, except on lines marked ``# noqa: F401``,
whose unused names are exactly the ones ``bench/spans.py`` patches in
that module's namespace.  ``__init__`` is left out: its imports are its
``__all__``."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hasseschmidt"

# (module, name) imported only so that bench/spans.py can patch it there
PATCHED = {
    ("coefffield", "degree1_matrix"),
    ("decompose", "compose_multi"),
    ("decompose", "weighted_terms"),
    ("formula", "compose_multi"),
}


def unused_imports(path):
    """(name, marked) for each name the module at path imports and never
    reads, marked when its import statement carries ``# noqa: F401``."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        marked = any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                out.append((name, marked))
    return out


def test_every_import_is_used_or_patched_by_the_spans():
    stray, patched = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        for name, marked in unused_imports(path):
            if marked:
                patched.add((path.stem, name))
            else:
                stray.append((path.stem, name))
    assert stray == []
    assert patched == PATCHED


def test_the_check_sees_a_stranded_import(tmp_path):
    path = tmp_path / "module.py"
    path.write_text("from __future__ import annotations\n"
                    "import os.path\n"
                    "from math import (\n    gcd, lcm,  # noqa: F401\n)\n"
                    "from json import dumps as write\n"
                    "print(gcd, os)\n")
    assert unused_imports(path) == [("lcm", True), ("write", False)]
