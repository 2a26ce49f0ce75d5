"""Bit-for-bit equality of chain results, shared by the test modules."""

import numpy as np


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
