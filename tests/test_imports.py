"""Every name a gfsim module imports is used in that module.

No linter runs on this package, so an import left behind by a deletion would
go unseen.  `unused_imports` parses a module with `ast`, collects the names
its import statements bind and reports those the module never reads; names
inside quoted annotations count as read.  Exempt: `__init__.py`, whose imports
are the package's exports, `from __future__` imports, and import statements
marked `# noqa: F401`.
"""

import ast
from pathlib import Path

import pytest

import gfsim

MODULES = sorted(p for p in Path(gfsim.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    bound: set[str] = set()
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            marked = any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno])
            if marked or (isinstance(node, ast.ImportFrom) and node.module == "__future__"):
                continue
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            annotation = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
            for part in ast.walk(annotation) if annotation else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):  # a quoted annotation
                    read.update(n.id for n in ast.walk(ast.parse(part.value, mode="eval")) if isinstance(n, ast.Name))
    return sorted(bound - read)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "from .models import HubbardModel, InitialState, initial_state\n"
        "from .genfunc import hadamard_test_circuit  # noqa: F401  kept for an outside wrapper\n"
        "def build(model) -> 'HubbardModel':\n"
        "    return initial_state(model)\n"
    )
    assert unused_imports(source) == ["InitialState", "np"]
