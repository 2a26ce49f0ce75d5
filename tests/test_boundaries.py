"""Module boundaries inside the package: no normlab module imports or reads
an underscore-prefixed name of another normlab module, and the SVD kernel,
matrix powers, inverses and explicit block sums have a fixed set of
callers.  Every name a module exports in __all__ exists, the stream layer
keeps its numpy calls in matcore, and the result types that hold arrays
compare and hash by identity."""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

import normlab
from normlab import chains, classes, conjecture, heinz, matcore

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


def _dotted(node) -> str:
    if isinstance(node, ast.Attribute):
        return _dotted(node.value) + "." + node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _owners(source: str, module: str, match) -> set[str]:
    """'module.function' for every top-level function (or method) whose
    body, nested functions included, holds a node that `match` accepts;
    'module' for such a node outside any function."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, owner or child.name)
                continue
            if match(child):
                found.add(f"{module}.{owner}" if owner else module)
            visit(child, owner)

    visit(ast.parse(source), None)
    return found


def _calls(names: set[str]):
    """Matcher of the calls of one of the dotted names (np.linalg.svd,
    matcore.frac_power, ...)."""
    return lambda node: isinstance(node, ast.Call) and _dotted(node.func) in names


def _callers(source: str, module: str, names: set[str]) -> set[str]:
    return _owners(source, module, _calls(names))


def _touches_generator_state(node) -> bool:
    # `<anything>.bit_generator.state`, read or written.
    return (isinstance(node, ast.Attribute) and node.attr == "state"
            and isinstance(node.value, ast.Attribute) and node.value.attr == "bit_generator")


def _package_owners(match) -> set[str]:
    return set().union(*(_owners(f.read_text(), f.stem, match) for f in sorted(PACKAGE.glob("*.py"))))


def _package_callers(names: set[str]) -> set[str]:
    return _package_owners(_calls(names))


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


def test_guard_finds_generator_state():
    source = (
        "def read(rng):\n"
        "    return rng.generator().bit_generator.state['state']['key']\n"
        "class Seeker:\n"
        "    def seek(self, g, key):\n"
        "        g.bit_generator.state = {'key': key}\n"
        "ok = g.state, g.bit_generator\n"
    )
    assert _owners(source, "m", _touches_generator_state) == {"m.read", "m.seek"}


def test_stream_layer_stays_in_matcore():
    # Keys come from SeedSequence, and generators from Philox, in matcore
    # only; only matcore.seek reads or writes a generator's state.  Every
    # other module takes an Rng, a Streams or matcore.philox.
    assert _package_callers({"np.random.SeedSequence"}) == {"matcore.key", "matcore.generator", "matcore.substreams"}
    assert _package_callers({"np.random.Philox"}) == {"matcore.generator", "matcore.philox"}
    assert _package_owners(_touches_generator_state) == {"matcore.seek"}


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


def _raises(name: str):
    """Matcher of `raise name(...)` and `raise name`, the name bare or an
    attribute of a module."""

    def match(node):
        if not isinstance(node, ast.Raise) or node.exc is None:
            return False
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return _dotted(exc).split(".")[-1] == name

    return match


def test_guard_finds_raises():
    source = (
        "def a():\n"
        "    raise Singular('x')\n"
        "def b():\n"
        "    raise errors.Singular\n"
        "def c():\n"
        "    raise NotSingular()\n"
    )
    assert _owners(source, "m", _raises("Singular")) == {"m.a", "m.b"}


def test_one_decomposition_per_operator_class():
    # One singularity rule raises Singular; the self-adjoint checks take
    # matcore's self-adjoint decomposition, which validates S itself; one
    # function holds the PSD rule and its eigvalsh.
    assert _package_owners(_raises("Singular")) == {"matcore._require_nonsingular"}
    validators = {"require_hermitian", "matcore.require_hermitian", "as_matrices", "matcore.as_matrices"}
    assert _callers((PACKAGE / "cpr.py").read_text(), "cpr", validators) == set()
    assert _package_callers({"selfadjoint_eigen", "matcore.selfadjoint_eigen"}) == {
        "cpr.cpr_check",
        "cpr.cpr_two_sided_check",
        "classes.dk_ratio_minimize",
        "classes.schur_rep_residual",
    }
    assert _package_callers({"psd_eigvals", "matcore.psd_eigvals"}) == {
        "conjecture.psd_check",
        "classes.schur_theorem_bound_check",
    }
    assert _package_callers({"np.linalg.eigvalsh"}) == {"matcore.psd_eigvals"}


@pytest.mark.parametrize("stem", sorted(path.stem for path in PACKAGE.glob("*.py")))
def test_every_exported_name_resolves(stem):
    # A deleted function left in __all__ breaks `from module import *`.
    module = importlib.import_module("normlab" if stem == "__init__" else f"normlab.{stem}")
    assert [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)] == []


# One fresh instance of every result type that holds arrays.
_ARRAY_RESULTS = {
    "ChainStack": lambda: chains.chain(("a", "b"), (2.0, 1.0)),
    "HermEigen": lambda: matcore.herm_eigen(np.eye(2)),
    "SvdResult": lambda: matcore.svd(np.eye(2)),
    "PairBasis": lambda: heinz.pair_basis(np.eye(2), np.eye(2), np.eye(2)),
    "ConstraintResult": lambda: classes.constraint_check([[1.0, 2.0], [1.0, 3.0]], 0.0),
    "DkProbeResult": lambda: classes.DkProbeResult(np.array([1.0, 2.0]), 0.0, True, 2.0, np.eye(2), 1),
    "KSummary": lambda: conjecture.KSummary(0.0, 1, 0, 0, 0.5, np.ones(2, dtype=int), np.arange(3.0)),
}


@pytest.mark.parametrize("name", sorted(_ARRAY_RESULTS))
def test_array_results_compare_and_hash_by_identity(name):
    # Field-wise == would take the truth value of an array, and hashing
    # would hash one.
    a, b = _ARRAY_RESULTS[name](), _ARRAY_RESULTS[name]()
    assert type(a).__name__ == name
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2
