"""Module boundaries inside the package: no normlab module imports or reads
an underscore-prefixed name of another normlab module, and the SVD kernel,
matrix powers, inverses and explicit block sums have a fixed set of
callers.  Every name a module exports in __all__ exists."""

import ast
import importlib
from pathlib import Path

import pytest

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


def _callers(source: str, module: str, names: set[str]) -> set[str]:
    """'module.function' for every top-level function whose body, nested
    functions included, calls one of the dotted names (np.linalg.svd,
    matcore.frac_power, ...); 'module' for a call outside any function."""
    found = set()

    def dotted(node) -> str:
        if isinstance(node, ast.Attribute):
            return dotted(node.value) + "." + node.attr
        return node.id if isinstance(node, ast.Name) else ""

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, owner or child.name)
                continue
            if isinstance(child, ast.Call) and dotted(child.func) in names:
                found.add(f"{module}.{owner}" if owner else module)
            visit(child, owner)

    visit(ast.parse(source), None)
    return found


def _package_callers(names: set[str]) -> set[str]:
    return set().union(*(_callers(f.read_text(), f.stem, names) for f in sorted(PACKAGE.glob("*.py"))))


def test_guard_finds_callers():
    source = (
        "import numpy as np\n"
        "def engine(w):\n"
        "    def inner():\n"
        "        return np.linalg.svd(w)\n"
        "    return inner()\n"
        "def power(p):\n"
        "    return matcore.frac_power(p, 0.5) + frac_power(p, 1.0)\n"
        "top = np.linalg.svd(1)\n"
    )
    assert _callers(source, "m", {"np.linalg.svd"}) == {"m.engine", "m"}
    assert _callers(source, "m", {"frac_power", "matcore.frac_power"}) == {"m.power"}


def test_one_multiplier_engine():
    # Every positive-pair check goes rotate -> weights -> weighted_sv; the
    # other SVDs are the explicit-product norms, the ratio probe's
    # subgradients and the matcore kernels.  Matrix powers are formed only
    # by the explicit Heinz bracket, a test oracle.
    assert _package_callers({"np.linalg.svd"}) == {
        "norms.stack_norms",
        "heinz.weighted_sv",
        "classes._ratio_subgradients",
        "matcore.svd",
        "matcore.inverse",
    }
    assert _package_callers({"frac_power", "matcore.frac_power"}) == {"heinz.heinz_expr"}
    # The theorem runner samples and decomposes whole chunks: Haar QR runs
    # once per stack in one helper, every eigh in one decomposition, and
    # cli.py draws no generator of its own.
    assert _package_callers({"np.linalg.qr"}) == {"matcore._haar"}
    assert _package_callers({"np.linalg.eigh"}) == {"matcore.herm_eigen"}
    cli_tree = ast.parse((PACKAGE / "cli.py").read_text())
    generators = [
        node.lineno
        for node in ast.walk(cli_tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "generator"
    ]
    assert generators == []


def test_explicit_products_only_in_oracles():
    # Inverses, explicit-matrix norms and block sums serve only the explicit
    # characterization forms, the phi oracle and the norm helpers: every
    # sandwich check runs on the engine, and cpr.py forms no matrix product.
    assert _package_callers({"inverse", "matcore.inverse"}) == {"classes.phi", "classes._expressions"}
    assert _package_callers({"direct_sum", "matcore.direct_sum"}) == {"norms.direct_sum_norm"}
    assert _package_callers({"stack_norms", "norms.stack_norms"}) == {
        "norms.norm",
        "classes.schur_theorem_bound_check",
        "classes._expressions",
    }
    cpr_tree = ast.parse((PACKAGE / "cpr.py").read_text())
    products = [node.lineno for node in ast.walk(cpr_tree) if isinstance(getattr(node, "op", None), ast.MatMult)]
    assert products == []


@pytest.mark.parametrize("stem", sorted(path.stem for path in PACKAGE.glob("*.py")))
def test_every_exported_name_resolves(stem):
    # A deleted function left in __all__ breaks `from module import *`.
    module = importlib.import_module("normlab" if stem == "__init__" else f"normlab.{stem}")
    assert [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)] == []
