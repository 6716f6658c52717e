"""Every imported name is read: an unused-import check on the package,
the tests and the benchmark scripts, with the standard library's ``ast``
only, since no linter is a dependency."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CHECKED = ("src/sisqo", "tests", "benchmarks")


def _exported(tree):
    """The names a module-level ``__all__`` list or tuple lists."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets) \
                and isinstance(node.value, (ast.List, ast.Tuple)):
            return {elt.value for elt in node.value.elts
                    if isinstance(elt, ast.Constant)}
    return set()


def unused_imports(source):
    """(line, name) of each name an import binds that the module never
    reads, except names in ``__all__`` and imports whose lines carry
    ``# noqa: F401``."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name)
            and isinstance(node.ctx, (ast.Load, ast.Del))}
    exempt = _exported(tree)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) \
                or getattr(node, "module", None) == "__future__" \
                or any("# noqa: F401" in line
                       for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            # "import a.b" binds a; "import a.b as c" binds c
            name = alias.asname or alias.name.split(".")[0]
            if name != "*" and name not in read and name not in exempt:
                unused.append((node.lineno, name))
    return unused


@pytest.mark.parametrize("source, expected", [
    ("import os\n", [(1, "os")]),
    ("import os.path\nos.sep\n", []),
    ("import numpy as np\nnp.zeros\n", []),
    ("from a import (b,  # noqa: F401\n    c)\n", []),
    ("from a import b, c\nc()\n", [(1, "b")]),
    ("from a import b\n__all__ = ['b']\n", []),
    ("def f():\n    import math\n    return 1\n", [(2, "math")]),
])
def test_unused_imports_rule(source, expected):
    assert unused_imports(source) == expected


def test_no_module_imports_a_name_it_never_reads():
    found = [f"{path.relative_to(ROOT)}:{line}: {name}"
             for top in CHECKED for path in sorted((ROOT / top).rglob("*.py"))
             for line, name in unused_imports(path.read_text())]
    assert found == []
