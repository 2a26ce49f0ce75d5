"""Unitarily invariant norms: operator, Schatten p, Ky Fan k.

All three families are functions of the singular values alone, so every
entry point funnels through :func:`stack_norms`: one batched SVD of a
stack of equal-shape matrices, reduced by :func:`norms_from_sv` to every
requested norm at once.  Selector strings used by the CLI ("op", "fro",
"tr", "schatten:<p>", "kyfan:<k>") parse via :meth:`NormKind.parse`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import matcore
from .errors import InvalidParams, NonFinite

__all__ = ["NormKind", "require_kyfan_k", "norm", "norms_from_sv", "stack_norms", "direct_sum_norm", "OP", "TR", "FRO"]

# Singular values below this fraction of the largest are clamped to zero
# before p-th powers, stabilizing Schatten norms near p=1.
SV_CLIP_RTOL = 1e-14


@dataclass(frozen=True)
class NormKind:
    """Tagged norm selector.

    family is one of "operator", "schatten", "kyfan".  param carries p for
    Schatten (real, >= 1, finite) or k for Ky Fan (integer >= 1) and is None
    for the operator norm.  There is no Schatten(inf) variant; use operator.
    """

    family: str
    param: float | None = None

    @staticmethod
    def operator() -> "NormKind":
        return NormKind("operator")

    @staticmethod
    def schatten(p: float) -> "NormKind":
        matcore.require_within(p, 1.0, np.inf, InvalidParams, "Schatten p must be finite and >= 1")
        return NormKind("schatten", float(p))

    @staticmethod
    def kyfan(k: int) -> "NormKind":
        if int(k) != k or k < 1:
            raise InvalidParams(f"Ky Fan k must be a positive integer, got {k}")
        return NormKind("kyfan", float(int(k)))

    @staticmethod
    def parse(text: str) -> "NormKind":
        """Parse a selector: op | fro | tr | schatten:<p> | kyfan:<k>."""
        sel = text.strip().lower()
        if sel == "op":
            return NormKind.operator()
        if sel == "tr":
            return NormKind.schatten(1.0)
        if sel == "fro":
            return NormKind.schatten(2.0)
        if sel.startswith("schatten:"):
            return NormKind.schatten(float(sel.split(":", 1)[1]))
        if sel.startswith("kyfan:"):
            return NormKind.kyfan(int(sel.split(":", 1)[1]))
        raise InvalidParams(f"unknown norm selector {text!r}")

    @property
    def label(self) -> str:
        """Canonical selector string (stable across runs, used in reports)."""
        if self.family == "operator":
            return "op"
        if self.family == "schatten":
            return f"schatten:{_fmt_param(self.param)}"
        return f"kyfan:{int(self.param)}"


def _fmt_param(p: float) -> str:
    return str(int(p)) if float(p).is_integer() else repr(float(p))


OP = NormKind.operator()
TR = NormKind.schatten(1.0)
FRO = NormKind.schatten(2.0)


def require_kyfan_k(kinds, n: int) -> None:
    """Raise InvalidParams for the first Ky Fan k in kinds beyond n singular values."""
    for kind in kinds:
        if kind.family == "kyfan" and kind.param > n:
            raise InvalidParams(f"Ky Fan k must be at most the dimension {n}, got {int(kind.param)}")


def norms_from_sv(sv: np.ndarray, kinds) -> np.ndarray:
    """Every norm in kinds for every row of an (m, n) stack of descending
    singular values: entry [i, j] is the kinds[i] norm of row j.  An
    (..., n) stack gives a (len(kinds), ...) result.

    Singular values below SV_CLIP_RTOL times their row's largest are
    clamped to zero, then the whole stack is reduced at once, row by row
    as for one row alone.  An empty row has every norm 0; a Ky Fan k past a
    nonempty row's length raises InvalidParams.  A row whose
    largest p-th power falls below the smallest normal float (a large p on
    small values), or whose plain sum of p-th powers overflows while its
    values are finite (a large p on large values), takes its Schatten norm
    relative to its largest value instead, top * (sum (s/top)^p)^(1/p);
    every other row keeps the plain sum's bits.  A norm that is itself
    beyond the float range raises NonFinite.
    """
    sv = np.asarray(sv, dtype=float)
    lead = sv.shape[:-1]
    sv = sv.reshape(math.prod(lead), sv.shape[-1])
    out = np.zeros((len(kinds), sv.shape[0]))
    if sv.shape[1] == 0:
        return out.reshape((len(kinds),) + lead)
    require_kyfan_k(kinds, sv.shape[1])
    top = sv[:, 0]
    clipped = np.where(sv < SV_CLIP_RTOL * top[:, None], 0.0, sv)
    # An overflowing sum is rescaled (Schatten rows) or raises NonFinite below.
    with np.errstate(over="ignore"):
        for i, kind in enumerate(kinds):
            if kind.family == "operator":
                out[i] = top
            elif kind.family == "schatten":
                p = kind.param
                if p == 1.0:
                    out[i] = np.sum(clipped, axis=1)
                    continue
                powers = clipped * clipped if p == 2.0 else clipped**p
                out[i] = np.sqrt(np.sum(powers, axis=1)) if p == 2.0 else np.sum(powers, axis=1) ** (1.0 / p)
                # Powers that underflow the normal range, or a sum of powers
                # that overflows while the values stay finite.
                scaled = (powers[:, 0] < np.finfo(float).tiny) & (top > 0.0) | np.isinf(out[i]) & np.isfinite(top)
                if scaled.any():
                    relative = np.sum((clipped[scaled] / top[scaled, None]) ** p, axis=1) ** (1.0 / p)
                    out[i, scaled] = top[scaled] * relative
            elif kind.family == "kyfan":
                out[i] = np.sum(clipped[:, : int(kind.param)], axis=1)
            else:
                raise ValueError(f"unknown norm family {kind.family!r}")
    if not np.all(np.isfinite(out)):
        raise NonFinite("a norm overflowed the float range")
    return out.reshape((len(kinds),) + lead)


def stack_norms(mats, kinds) -> np.ndarray:
    """Every norm in kinds of every matrix in mats, which share one shape:
    entry [i, j] is the kinds[i] norm of mats[j], from one batched SVD."""
    return norms_from_sv(np.linalg.svd(np.stack(mats), compute_uv=False), kinds)


def norm(a, kind: NormKind) -> float:
    """Unitarily invariant norm of a matrix."""
    return float(stack_norms((matcore.as_matrix(a),), (kind,))[0, 0])


def direct_sum_norm(a, b, kind: NormKind) -> float:
    """Norm of the block-diagonal sum of two matrices.

    Equals max(|A|, |B|) for the operator norm and the p-th power sum rule
    (|A|_p^p + |B|_p^p)^(1/p) for Schatten norms; both identities are exact
    because the singular values of the sum are the union of the blocks'.
    """
    return norm(matcore.direct_sum(a, b), kind)
