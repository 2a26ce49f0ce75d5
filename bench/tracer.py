"""Outside-in tracer: wraps normlab's public functions and numpy's kernels.

Nothing under ``src/`` is edited.  A target is wrapped by rebinding every
attribute of every loaded ``normlab`` module that holds the same function
object, so names bound through ``from ... import`` (``cpr`` and ``heinz``
take ``pair_basis``, ``norm_from_sv`` and friends that way) see the wrapper
too.  numpy kernels are wrapped on ``numpy.linalg``, which is where normlab
looks them up at call time.

Each call records one span (layer, start, end, parent) in typed in-memory
columns; nothing is aggregated or written until the run ends.  A layer's
self time is the total duration of its spans minus the part covered by
their child spans.  A target missing from the checkout is reported as
absent and never fails the run.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# Layer -> targets "module:qualname", relative to the normlab package.
# ROADMAP item 3 deletes matmul, add, scale, adjoint, hadamard and
# haar_unitary, so they are deliberately not targets.
LAYERS: dict[str, tuple[str, ...]] = {
    "cli.parse_args": ("cli:parse_args",),
    "cli.collect_records": ("cli:_collect_records",),
    "cli.write_jsonl": ("cli:_write_jsonl",),
    "cli.write_summary": ("cli:_write_summary",),
    "cli.read_jsonl": ("cli:_read_jsonl",),
    "matcore.rng": ("matcore:Rng.generator",),
    "matcore.sample": (
        "matcore:random_posdef_spectral",
        "matcore:random_posdef",
        "matcore:random_selfadjoint_spectral",
        "matcore:random_selfadjoint_invertible",
        "matcore:random_invertible",
        "matcore:random_normal_invertible",
        "matcore:random_scaled_unitary",
        "matcore:random_scaled_reflection",
        "matcore:random_scaled_selfadjoint",
        "matcore:random_hermitian",
        "matcore:ginibre",
        "matcore:random_probe_matrix",
        "classes:sample_for_form",
    ),
    "matcore.validate": ("matcore:as_matrix", "matcore:require_hermitian"),
    "matcore.decomp": ("matcore:herm_eigen", "matcore:svd", "matcore:frac_power", "matcore:polar_abs"),
    "matcore.inverse": ("matcore:inverse",),
    "norms.norm": ("norms:norm",),
    "norms.norm_from_sv": ("norms:norm_from_sv",),
    "chains.chain": ("chains:chain",),
    "heinz.gauss_legendre_nodes": ("heinz:gauss_legendre_nodes",),
    "heinz.pair_basis": ("heinz:pair_basis",),
    "heinz.power_pair_sv": ("heinz:power_pair_sv",),
    "heinz.weighted_sv": ("heinz:weighted_sv",),
    "heinz.checks": ("heinz:kittaneh_chain", "heinz:agm_check"),
    "cpr.checks": (
        "cpr:zhan_chain",
        "cpr:cpr_check",
        "cpr:cpr_two_sided_check",
        "cpr:cpr_star_check",
        "cpr:cor23_check",
        "cpr:cor24_check",
        "cpr:mos1_check",
        "cpr:mos2_check",
        "cpr:final_cor_check",
    ),
    "classes.dk_ratio_minimize": ("classes:dk_ratio_minimize",),
    "classes.characterization_check": ("classes:characterization_check",),
    "conjecture.sample": ("conjecture:sample_constrained_spectrum",),
    "conjecture.constraint_check": ("conjecture:constraint_check",),
    "conjecture.build_matrix": ("conjecture:build_conj_matrix",),
    "conjecture.psd_check": ("conjecture:psd_check",),
}

# Kernel layer -> numpy.linalg functions.
KERNELS: dict[str, tuple[str, ...]] = {
    "linalg.svd": ("svd",),
    "linalg.eigh": ("eigh", "eigvalsh"),
    "linalg.qr": ("qr",),
    "linalg.solve": ("solve",),
}

_ROOT = -1


class Tracer:
    """Collects spans for the wrapped layers between ``install`` and ``uninstall``."""

    def __init__(self):
        self.layers = list(LAYERS) + list(KERNELS)
        self.absent: list[str] = []
        self.svd_matrices = 0
        self._layer = array("H")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack = [_ROOT]
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, layer_id: int, fn, count_matrices: bool = False):
        layer_col, parent_col = self._layer, self._parent
        start_col, end_col, stack = self._start, self._end, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(layer_col)
            layer_col.append(layer_id)
            parent_col.append(stack[-1])
            end_col.append(0.0)
            stack.append(idx)
            if count_matrices:
                shape = np.shape(args[0]) if args else np.shape(kwargs.get("a"))
                tracer.svd_matrices += int(np.prod(shape[:-2], dtype=np.int64))
            start_col.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end_col[idx] = clock()
                stack.pop()

        return wrapper

    def _rebind(self, holders, original, wrapper) -> None:
        for holder in holders:
            for name, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, name, wrapper)
                    self._undo.append((holder, name, original))

    def install(self) -> "Tracer":
        """Wrap every target found in the loaded normlab modules."""
        modules = [m for name, m in sorted(sys.modules.items()) if name == "normlab" or name.startswith("normlab.")]
        for layer_id, layer in enumerate(self.layers):
            if layer in KERNELS:
                for fname in KERNELS[layer]:
                    original = getattr(np.linalg, fname, None)
                    if original is None:
                        self.absent.append(f"numpy.linalg.{fname}")
                        continue
                    wrapper = self._wrap(layer_id, original, count_matrices=layer == "linalg.svd")
                    self._rebind([np.linalg], original, wrapper)
                continue
            for target in LAYERS[layer]:
                modname, qualname = target.split(":")
                module = sys.modules.get("normlab." + modname)
                owner, _, attr = qualname.rpartition(".")
                holder = module
                if module is not None and owner:
                    holder = getattr(module, owner, None)
                original = vars(holder).get(attr) if holder is not None else None
                if not callable(original):
                    self.absent.append(target)
                    continue
                wrapper = self._wrap(layer_id, original)
                # A method lives on its class, which every importer shares.
                self._rebind([holder] if owner else modules, original, wrapper)
        return self

    def uninstall(self) -> None:
        """Restore every rebound attribute."""
        for holder, name, original in reversed(self._undo):
            setattr(holder, name, original)
        self._undo.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ----------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        """The recorded spans as columns; times are perf_counter seconds."""
        return {
            "layer": np.frombuffer(self._layer, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
        }

    def summary(self, wall_s: float) -> dict:
        """Per-layer calls and self time, plus the share of ``wall_s`` covered by spans."""
        sp = self.spans()
        dur = sp["end"] - sp["start"]
        nested = sp["parent"] >= 0
        covered_by_children = np.bincount(sp["parent"][nested], weights=dur[nested], minlength=dur.size)
        self_time = dur - covered_by_children
        n = len(self.layers)
        calls = np.bincount(sp["layer"], minlength=n)
        self_s = np.bincount(sp["layer"], weights=self_time, minlength=n)
        top = float(dur[~nested].sum())
        return {
            "calls": {layer: int(calls[i]) for i, layer in enumerate(self.layers)},
            "self_s": {layer: float(self_s[i]) for i, layer in enumerate(self.layers)},
            "svd_matrices": self.svd_matrices,
            "coverage": top / wall_s if wall_s > 0 else 0.0,
            "absent": sorted(self.absent),
        }
