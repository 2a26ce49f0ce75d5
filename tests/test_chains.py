"""Chain mechanics: margins, relations, reductions, serialization."""

import warnings

import numpy as np
import pytest

from normlab.chains import ChainStack, chain
from normlab.errors import NonFinite


def test_two_link_pass_and_margin():
    rep = chain(("lhs", "rhs"), (5.0, 3.0))
    assert rep.ok
    assert rep.margins.tolist() == [2.0]
    assert rep.link_pass.tolist() == [True]
    assert rep.min_margin == 2.0


def test_descending_chain():
    rep = chain(("a", "b", "c"), (3.0, 2.0, 1.0))
    assert rep.ok
    assert rep.margins.tolist() == [1.0, 1.0]


def test_failing_link():
    rep = chain(("a", "b"), (1.0, 2.0))
    assert not rep.ok
    assert rep.margins.tolist() == [-1.0]
    assert rep.link_pass.tolist() == [False]


def test_single_chain_is_a_stack_with_no_leading_axes():
    rep = chain(["a", "b", "c"], [3.0, 1.0, 2.0])
    assert type(rep) is ChainStack
    assert (rep.labels, rep.relations) == (("a", "b", "c"), ("ge", "ge"))
    assert rep.values.shape == (3,) and rep.values.tolist() == [3.0, 1.0, 2.0]
    assert rep.margins.shape == (2,) and rep.margins.tolist() == [2.0, -1.0]
    assert rep.link_pass.shape == (2,) and rep.link_pass.tolist() == [True, False]
    assert rep.ok.shape == () and not rep.ok
    assert rep.min_margin.shape == () and rep.min_margin == -1.0


def test_ok_and_min_margin_reduce_over_links():
    # Row 1 fails its second link; the stack's rows are the single chains.
    values = np.array([[3.0, 2.0, 1.0], [4.0, 1.0, 2.0], [1.0, 1.0, 1.0]])
    stack = chain(("a", "b", "c"), values)
    assert stack.ok.shape == stack.min_margin.shape == (3,)
    assert stack.ok.tolist() == [True, False, True]
    assert stack.min_margin.tolist() == [1.0, -1.0, 0.0]
    singles = [chain(("a", "b", "c"), v) for v in values]
    assert [bool(s.ok) for s in singles] == stack.ok.tolist()
    assert [float(s.min_margin) for s in singles] == stack.min_margin.tolist()
    # unstack splits the last stack axis: an (m, L) stack into m single
    # chains, each with no leading axes.
    for one, part in zip(singles, stack.unstack()):
        assert type(part) is ChainStack and part.values.shape == (3,)
        assert part.values.tolist() == one.values.tolist()
        assert part.link_pass.tolist() == one.link_pass.tolist()


def test_tolerance_is_relative_to_scale():
    # Slack scales with the magnitudes involved, floored at 1.
    assert chain(("a", "b"), (1e12, 1e12 + 1.0), tol=1e-8).ok
    assert not chain(("a", "b"), (1.0, 1.0 + 1e-4), tol=1e-8).ok
    assert chain(("a", "b"), (0.0, 1e-9), tol=1e-8).ok


def test_slack_beyond_the_float_range_passes_without_warning():
    # tol * scale overflows to an infinite slack, which every finite link
    # meets, "eq" links included.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert chain(("a", "b"), (1.0, 1e300), tol=1e308).ok
        assert chain(("a", "b", "c"), (1e10, -1e10, 5.0), tol=1e308, relations=("eq", "ge")).ok
        stack = chain(("a", "b"), [[1.0, 2.0], [-1e300, 1e300]], tol=1e308)
        assert stack.ok.tolist() == [True, True]


def test_eq_relation():
    rep = chain(("a", "b"), (1.0, 1.0 + 1e-12), relations=("eq",))
    assert rep.ok
    rep = chain(("a", "b"), (2.0, 1.0), relations=("eq",))
    assert not rep.ok
    # ge would have passed the same values.
    assert chain(("a", "b"), (2.0, 1.0), relations=("ge",)).ok


def test_mixed_relations():
    rep = chain(("a", "b", "c"), (2.0, 2.0 + 1e-13, 1.0), relations=("eq", "ge"))
    assert rep.ok


def test_validation():
    with pytest.raises(ValueError):
        chain(("only",), (1.0,))
    with pytest.raises(ValueError):
        chain(("a", "b"), (1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        chain(("a", "b", "c"), (3.0, 2.0, 1.0), relations=("ge",))
    # A member beyond the float range is no chain value.
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(NonFinite):
            chain(("a", "b"), [[2.0, 1.0], [bad, 1.0]])


def test_as_dict_shape():
    rep = chain(("a", "b"), (2.0, 1.0))
    (d,) = rep.as_dicts()
    assert d["labels"] == ["a", "b"]
    assert d["values"] == [2.0, 1.0]
    assert d["margins"] == [1.0]
    assert d["relations"] == ["ge"]
    assert d["link_pass"] == [True]
    assert d["pass"] is True
    assert isinstance(rep, ChainStack)
