"""Module boundaries inside the package: no normlab module imports or reads
an underscore-prefixed name of another normlab module."""

import ast
from pathlib import Path

import normlab

PACKAGE = Path(normlab.__file__).parent


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_reads(source: str) -> list[str]:
    """Every `from <normlab module> import _x` and `<normlab module>._x`
    in the source, as 'line: name' strings."""
    tree = ast.parse(source)
    modules = set()  # local names bound to normlab modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            inside = node.level > 0 or (node.module or "").split(".")[0] == "normlab"
            if not inside:
                continue
            package_itself = node.module is None or node.module == "normlab"
            for alias in node.names:
                if _is_private(alias.name):
                    found.append(f"{node.lineno}: {alias.name}")
                elif package_itself:
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "normlab":
                    modules.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _is_private(node.attr):
            base = node.value
            if isinstance(base, ast.Attribute) and isinstance(base.value, ast.Name) and base.value.id == "normlab":
                found.append(f"{node.lineno}: {base.attr}.{node.attr}")
            elif isinstance(base, ast.Name) and base.id in modules:
                found.append(f"{node.lineno}: {base.id}.{node.attr}")
    return sorted(found, key=lambda hit: int(hit.split(":")[0]))


def test_guard_finds_private_reads():
    source = (
        "from . import classes, matcore as mc\n"
        "from .heinz import _mean, pair_basis\n"
        "import normlab.cpr\n"
        "x = classes._multiplier_matrix(1, 2)\n"
        "y = mc._ginibre_from_generator\n"
        "z = normlab.cpr._zhan_reports\n"
        "ok = classes.phi, mc.__name__, self._own\n"
    )
    assert _private_reads(source) == [
        "2: _mean",
        "4: classes._multiplier_matrix",
        "5: mc._ginibre_from_generator",
        "6: cpr._zhan_reports",
    ]


def test_no_module_reads_another_modules_private_names():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) >= 9
    found = {f.name: _private_reads(f.read_text()) for f in files}
    assert {name: hits for name, hits in found.items() if hits} == {}
