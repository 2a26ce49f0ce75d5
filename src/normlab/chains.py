"""Ordered value chains with per-link tolerance verdicts.

A ChainReport holds named values expected to run largest-first.  Each
adjacent pair is one link; a "ge" link passes when the margin v[i]-v[i+1]
is at least -tol*scale, an "eq" link when |margin| <= tol*scale, with
scale = max(1, |v[i]|, |v[i+1]|) so verdicts are scale-free.

:func:`chain` evaluates a whole stack of chains under one set of labels at
once: values of shape (..., L) give a :class:`ChainStack` whose margins
and verdicts are (..., L-1) arrays, and a single chain (1-D values) is a
ChainReport.  The checks build one stack over their instances and norms
and split it with :meth:`ChainStack.unstack`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["ChainReport", "ChainStack", "chain", "DEFAULT_TOL"]

DEFAULT_TOL = 1e-8


@dataclass(frozen=True)
class ChainReport:
    labels: tuple[str, ...]
    values: tuple[float, ...]
    margins: tuple[float, ...]
    link_pass: tuple[bool, ...]
    relations: tuple[str, ...]
    tol: float = field(default=DEFAULT_TOL)

    @property
    def ok(self) -> bool:
        """True when every link passes."""
        return all(self.link_pass)

    @property
    def min_margin(self) -> float:
        return min(self.margins) if self.margins else 0.0

    def as_dict(self) -> dict:
        return {
            "labels": list(self.labels),
            "values": list(self.values),
            "margins": list(self.margins),
            "relations": list(self.relations),
            "link_pass": list(self.link_pass),
            "pass": self.ok,
        }


@dataclass(frozen=True)
class ChainStack:
    """A stack of chains under one set of labels: values (..., L), margins
    and link_pass (..., L-1)."""

    labels: tuple[str, ...]
    values: np.ndarray
    margins: np.ndarray
    link_pass: np.ndarray
    relations: tuple[str, ...]
    tol: float = field(default=DEFAULT_TOL)

    def as_dicts(self) -> list[dict]:
        """ChainReport.as_dict of every chain, in C order of the stack."""
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
        """The chains along the last stack axis: a ChainReport each when it
        is the only axis, else a ChainStack each over the other axes."""
        if self.values.ndim == 2:
            return tuple(
                ChainReport(self.labels, tuple(values), tuple(margins), tuple(passes), self.relations, self.tol)
                for values, margins, passes in zip(
                    self.values.tolist(), self.margins.tolist(), self.link_pass.tolist()
                )
            )
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
) -> ChainReport | ChainStack:
    """Build a ChainReport from ordered labels and values, or a ChainStack
    from an (..., L) stack of value rows.

    relations supplies one tag per link ("ge" or "eq"); omitted links
    default to "ge".
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

    single = values.ndim == 1
    values = np.atleast_2d(values)
    hi, lo = values[..., :-1], values[..., 1:]
    with np.errstate(invalid="ignore"):
        margins = hi - lo
        slack = tol * np.maximum(np.maximum(np.abs(hi), np.abs(lo)), 1.0)
        verdicts = margins >= -slack
        if "eq" in relations:
            verdicts = np.where(np.array([r == "eq" for r in relations]), np.abs(margins) <= slack, verdicts)
    stack = ChainStack(labels, values, margins, verdicts, relations, tol)
    return stack.unstack()[0] if single else stack
