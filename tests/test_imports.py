"""No module of the package, the tests or the demos imports a name it
never uses: stdlib ``ast`` reads every file, nothing is imported."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(path for folder in ("src/normlab", "tests", "demos") for path in (ROOT / folder).glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    """Every name an import binds that the module never reads, as
    'line: name' strings.  A name listed in __all__ counts as read, and
    `import a.b` binds a."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))
    unused = sorted((line, name) for name, line in bound.items() if name not in read)
    return [f"{line}: {name}" for line, name in unused]


def test_guard_finds_unused_imports():
    source = (
        "from __future__ import annotations\n"
        "import json\n"
        "import numpy as np\n"
        "import os.path\n"
        "from fractions import Fraction\n"
        "from .norms import OP, TR\n"
        "__all__ = ['TR']\n"
        "def f():\n"
        "    return os.path.join(np.pi)\n"
    )
    assert _unused_imports(source) == ["2: json", "5: Fraction", "6: OP"]


@pytest.mark.parametrize("path", FILES, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []
