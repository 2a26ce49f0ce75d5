"""Bit-for-bit equality of chain results, and a fine reference for the
chains' "mean H" member, shared by the test modules."""

import numpy as np


def gauss_mean(h, lo, hi, nodes, panels=1):
    """Mean over [lo, hi] of h, which maps an array of points to an array
    of values along its last axis, by `nodes`-point Gauss-Legendre on each
    of `panels` equal panels: a rule independent of the chains' nested one."""
    base, w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * np.diff(edges)[:, None]
    pts = (0.5 * (edges[:-1] + edges[1:])[:, None] + half * base).ravel()
    return np.asarray(h(pts)) @ (half * w).ravel() / (hi - lo)


def assert_same_chains(got, want):
    """Assert two sequences of ChainStacks agree chain by chain: labels,
    relations and tol exactly, values, margins and link_pass by
    np.array_equal (shapes included)."""
    got, want = tuple(got), tuple(want)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.labels, g.relations, g.tol) == (w.labels, w.relations, w.tol)
        for name in ("values", "margins", "link_pass"):
            assert np.array_equal(getattr(g, name), getattr(w, name)), (name, getattr(g, name), getattr(w, name))
