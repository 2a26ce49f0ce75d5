"""Ordered value chains with per-link tolerance verdicts.

A chain holds named values expected to run largest-first.  Each adjacent
pair is one link; a "ge" link passes when the margin v[i]-v[i+1] is at
least -tol*scale, an "eq" link when |margin| <= tol*scale, with
scale = max(1, |v[i]|, |v[i+1]|) so verdicts are scale-free.

:func:`chain` evaluates a whole stack of chains under one set of labels at
once: values of shape (..., L) give a :class:`ChainStack` whose margins
and verdicts are (..., L-1) arrays, and a single chain (1-D values) is the
same stack with no leading axes.  The checks build one stack over their
instances and norms and split it with :meth:`ChainStack.unstack`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NonFinite

__all__ = ["ChainStack", "chain", "DEFAULT_TOL"]

DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class ChainStack:
    """A stack of chains under one set of labels: values (..., L), margins
    and link_pass (..., L-1); a single chain has no leading axes."""

    labels: tuple[str, ...]
    values: np.ndarray
    margins: np.ndarray
    link_pass: np.ndarray
    relations: tuple[str, ...]
    tol: float = field(default=DEFAULT_TOL)

    @property
    def ok(self) -> np.ndarray:
        """True where every link of a chain passes, over the leading axes."""
        return self.link_pass.all(axis=-1)

    @property
    def min_margin(self) -> np.ndarray:
        """The least margin of each chain, over the leading axes."""
        return self.margins.min(axis=-1)

    def as_dicts(self) -> list[dict]:
        """Each chain as a dict of lists, in C order of the stack."""
        size = len(self.labels)
        return [
            {
                "labels": list(self.labels),
                "values": values,
                "margins": margins,
                "relations": list(self.relations),
                "link_pass": passes,
                "pass": all(passes),
            }
            for values, margins, passes in zip(
                self.values.reshape(-1, size).tolist(),
                self.margins.reshape(-1, size - 1).tolist(),
                self.link_pass.reshape(-1, size - 1).tolist(),
            )
        ]

    def unstack(self) -> tuple:
        """The chains along the last stack axis, a ChainStack each over the
        other axes."""
        return tuple(
            ChainStack(self.labels, self.values[..., j, :], self.margins[..., j, :], self.link_pass[..., j, :],
                       self.relations, self.tol)
            for j in range(self.values.shape[-2])
        )


def chain(
    labels,
    values,
    tol: float = DEFAULT_TOL,
    relations=None,
) -> ChainStack:
    """Build a ChainStack from ordered labels and an (..., L) stack of
    value rows; 1-D values are one chain.

    relations supplies one tag per link ("ge" or "eq"); omitted links
    default to "ge".  A value beyond the float range (inf or NaN) raises
    NonFinite; a slack beyond it is infinite, and its link passes.
    """
    labels = tuple(str(s) for s in labels)
    values = np.asarray(values, dtype=float)
    if values.ndim == 0 or len(labels) != values.shape[-1]:
        raise ValueError("labels and values must have equal length")
    if len(labels) < 2:
        raise ValueError("a chain needs at least two values")
    nlinks = len(labels) - 1
    if relations is None:
        relations = ("ge",) * nlinks
    else:
        relations = tuple(relations)
        if len(relations) != nlinks:
            raise ValueError(f"expected {nlinks} relations, got {len(relations)}")
        if any(r not in ("ge", "eq") for r in relations):
            raise ValueError("relations must be 'ge' or 'eq'")
    if not np.all(np.isfinite(values)):
        raise NonFinite("a chain member overflowed the float range")

    hi, lo = values[..., :-1], values[..., 1:]
    with np.errstate(over="ignore"):
        margins = hi - lo
        slack = tol * np.maximum(np.maximum(np.abs(hi), np.abs(lo)), 1.0)
        verdicts = margins >= -slack
        if "eq" in relations:
            verdicts = np.where(np.array([r == "eq" for r in relations]), np.abs(margins) <= slack, verdicts)
    return ChainStack(labels, values, margins, verdicts, relations, tol)
