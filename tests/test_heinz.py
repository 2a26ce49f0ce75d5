"""Heinz bracket checks: expression symmetry, the refinement chain, and
the quadrature mean."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chain_asserts import gauss_mean
from normlab import heinz, matcore
from normlab.errors import DimensionMismatch, InvalidParams, NotPositiveDefinite
from normlab.norms import FRO, OP, TR, NormKind, norm, norms_from_sv

KINDS = [OP, TR, FRO, NormKind.kyfan(2), NormKind.schatten(3.0)]

ALPHAS = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]


def _pair(seed, n=4, cond=10.0):
    rng = matcore.Rng(seed)
    a = matcore.random_posdef(n, cond, rng.substream(0))
    b = matcore.random_posdef(n, cond, rng.substream(1))
    x = matcore.random_probe_matrix(n, rng.substream(2))
    return a, b, x


def test_heinz_params_validation():
    with pytest.raises(InvalidParams):
        heinz.require_alpha(-0.1)
    with pytest.raises(ValueError, match=r"in \[0, 1\], got 1.1$"):
        heinz.require_alpha(np.array([0.5, 1.1, -2.0]))
    heinz.require_alpha(0.0)
    heinz.require_alpha(np.array([0.0, 1.0]))


def test_pair_basis_validation():
    with pytest.raises(NotPositiveDefinite):
        heinz.pair_basis(np.diag([1.0, -1.0]), np.eye(2), np.eye(2))
    with pytest.raises(DimensionMismatch):
        heinz.pair_basis(np.eye(2), np.eye(3), np.eye(2))


def test_heinz_expr_identity_pair():
    x = matcore.ginibre(3, rng=matcore.Rng(50))
    got = heinz.heinz_expr(np.eye(3), np.eye(3), x, 0.3)
    assert np.allclose(got, 2.0 * x, atol=1e-12 * np.abs(x).max())


def test_heinz_expr_half():
    a, b, x = _pair(51)
    ra = matcore.frac_power(a, 0.5)
    rb = matcore.frac_power(b, 0.5)
    got = heinz.heinz_expr(a, b, x, 0.5)
    assert np.allclose(got, 2.0 * ra @ x @ rb, atol=1e-11 * np.linalg.norm(x))


def test_heinz_expr_symmetry_dyadic_exact():
    # For dyadic alpha the complement 1 - alpha is exact in both directions,
    # so the two calls evaluate identical exponent sets and must agree
    # bitwise.
    a, b, x = _pair(52)
    for alpha in (0.25, 0.5, 0.75):
        lhs = heinz.heinz_expr(a, b, x, alpha)
        rhs = heinz.heinz_expr(a, b, x, 1.0 - alpha)
        assert np.array_equal(lhs, rhs)


def test_heinz_expr_symmetry_generic():
    a, b, x = _pair(53)
    lhs = heinz.heinz_expr(a, b, x, 0.1)
    rhs = heinz.heinz_expr(a, b, x, 0.9)
    assert np.linalg.norm(lhs - rhs) <= 1e-12 * np.linalg.norm(lhs)


def test_power_pair_sv_matches_direct_route():
    # The batched eigenbasis evaluator against a literal frac_power build of
    # the same bracket.  This is the consistency check the chain members
    # lean on.
    a, b, x = _pair(54)
    basis = heinz.pair_basis(a, b, x)
    for alpha in (0.0, 0.2, 0.5, 0.8):
        sv = heinz.power_pair_sv(basis, [alpha])[0]
        for kind in KINDS:
            fast = norms_from_sv([sv], (kind,))[0, 0]
            slow = norm(heinz.heinz_expr(a, b, x, alpha), kind)
            assert abs(fast - slow) <= 1e-10 * max(1.0, slow)


def test_heinz_check_identity_equality():
    x = matcore.ginibre(3, rng=matcore.Rng(55))
    (rep,) = heinz.heinz_check(np.eye(3), np.eye(3), x, 0.3, (OP,))
    assert rep.ok
    assert abs(rep.values[0] - rep.values[1]) <= 1e-12 * rep.values[0]


def test_heinz_check_alpha_zero_equality():
    a, b, x = _pair(56)
    (rep,) = heinz.heinz_check(a, b, x, 0.0, (OP,))
    assert rep.ok
    assert abs(rep.values[0] - rep.values[1]) <= 1e-10 * rep.values[0]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), alpha=st.floats(0.0, 1.0))
def test_heinz_check_random(seed, alpha):
    a, b, x = _pair(seed)
    for rep in heinz.heinz_check(a, b, x, alpha, KINDS):
        assert rep.ok


def test_agm_identity_and_zero():
    x = matcore.ginibre(3, rng=matcore.Rng(57))
    (rep,) = heinz.agm_check(np.eye(3), np.eye(3), x, (TR,))
    assert abs(rep.values[0] - rep.values[1]) <= 1e-12 * rep.values[0]

    b = matcore.ginibre(3, rng=matcore.Rng(58))
    (rep,) = heinz.agm_check(np.zeros((3, 3)), b, x, (OP,))
    assert rep.values[1] == 0.0
    want = norm(x @ b @ b.conj().T, OP)
    assert rep.values[0] == pytest.approx(want, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_agm_random_arbitrary_matrices(seed):
    # No structure at all on the pair; only the free matrix is square.
    rng = matcore.Rng(seed)
    a = matcore.ginibre(4, rng=rng.substream(0))
    b = matcore.ginibre(4, rng=rng.substream(1))
    x = matcore.random_probe_matrix(4, rng.substream(2))
    for rep in heinz.agm_check(a, b, x, KINDS):
        assert rep.ok


def test_integral_mean_identity_pair():
    x = matcore.ginibre(3, rng=matcore.Rng(59))
    want = 2.0 * norm(x, OP)
    got = heinz.integral_mean_norm(np.eye(3), np.eye(3), x, 0.2, 0.8, OP)
    assert abs(got - want) <= 1e-12 * want


def test_integral_mean_short_interval_limit():
    # Over [0, h] the mean tends to the integrand at 0, which is |AX+XB|.
    a, b, x = _pair(60)
    got = heinz.integral_mean_norm(a, b, x, 0.0, 1e-4, OP)
    want = norm(a @ x + x @ b, OP)
    assert abs(got - want) <= 1e-3 * want


def test_integral_mean_node_refinement():
    a, b, x = _pair(61, n=5, cond=100.0)
    got = heinz.integral_mean_norm(a, b, x, 0.0, 0.5, TR)
    fine = gauss_mean(lambda s: [norm(heinz.heinz_expr(a, b, x, p), TR) for p in s], 0.0, 0.5, 64)
    assert abs(got - fine) <= 1e-8 * max(1.0, abs(fine))


def test_integral_mean_rejects_bad_interval():
    a, b, x = _pair(62)
    with pytest.raises(ValueError):
        heinz.integral_mean_norm(a, b, x, 0.5, 0.5, OP)
    with pytest.raises(ValueError):
        heinz.integral_mean_norm(a, b, x, -0.1, 0.5, OP)
    with pytest.raises(ValueError):
        heinz.integral_mean_norm(a, b, x, 0.0, 1.1, OP)


def test_clenshaw_curtis_rule_is_exact_to_degree_16():
    # The 17-point level integrates every polynomial of degree <= 16
    # exactly; the mean of u^d over [-1, 1] is 1/(d+1) for even d, else 0.
    top = heinz.QUAD_LEVELS[-1]
    nodes = np.cos(np.pi * np.arange(top + 1) / top)
    np.testing.assert_allclose(heinz._rule()[0], nodes, rtol=0, atol=1e-15)
    assert heinz._rule()[0].tolist() == (-heinz._rule()[0][::-1]).tolist()
    powers = np.stack([heinz._rule()[0]**d for d in range(17)])
    want = [1.0 / (d + 1) if d % 2 == 0 else 0.0 for d in range(17)]
    np.testing.assert_allclose(heinz._mean_rule(powers, 16), want, rtol=0, atol=1e-15)
    for n in heinz.QUAD_LEVELS:
        assert np.all(heinz._rule()[1][n] > 0.0) and abs(heinz._rule()[1][n].sum() - 1.0) <= 1e-15
    # The 9-point level is not exact at degree 10.
    assert abs(heinz._mean_rule(heinz._rule()[0]**10, 8) - 1.0 / 11.0) > 1e-6


def test_integrand_symmetry_on_nodes():
    a, b, x = _pair(63)
    basis = heinz.pair_basis(a, b, x)
    nus = np.array([0.1, 0.25, 0.4, 0.45])
    sv_lo = heinz.power_pair_sv(basis, nus)
    sv_hi = heinz.power_pair_sv(basis, 1.0 - nus)
    for row_lo, row_hi, kind in zip(sv_lo, sv_hi, KINDS):
        lo = norms_from_sv([row_lo], (kind,))[0, 0]
        hi = norms_from_sv([row_hi], (kind,))[0, 0]
        assert abs(lo - hi) <= 1e-10 * max(1.0, lo)


def test_kittaneh_identity_pair_collapses():
    x = matcore.ginibre(3, rng=matcore.Rng(64))
    for kind, rep in zip(KINDS, heinz.kittaneh_chain(np.eye(3), np.eye(3), x, 0.3, KINDS)):
        assert rep.ok
        want = 2.0 * norm(x, kind)
        for v in rep.values:
            assert abs(v - want) <= 1e-12 * want


def test_kittaneh_regimes_agree_at_half():
    # alpha = 1/2 sits on the regime boundary; the interval [0, 1/2] with
    # midpoint 1/4 and the interval [1/2, 1] with midpoint 3/4 give the
    # same numbers by the nu <-> 1-nu symmetry.
    a, b, x = _pair(65)
    basis = heinz.pair_basis(a, b, x)
    regime1 = heinz._kittaneh_reports(basis, 0.5, 1, KINDS, 1e-8)
    regime2 = heinz._kittaneh_reports(basis, 0.5, 2, KINDS, 1e-8)
    for r1, r2 in zip(regime1, regime2):
        for v1, v2 in zip(r1.values, r2.values):
            assert abs(v1 - v2) <= 1e-10 * max(1.0, v1)


def test_kittaneh_degenerate_alpha():
    # alpha 0 and 1 collapse the quadrature interval; every member then
    # equals |AX+XB| and the chain holds with zero margins.
    a, b, x = _pair(66)
    for alpha in (0.0, 1.0):
        (rep,) = heinz.kittaneh_chain(a, b, x, alpha, (OP,))
        assert rep.ok
        assert max(rep.values) - min(rep.values) <= 1e-10 * max(rep.values)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    alpha=st.sampled_from(ALPHAS),
    kind_idx=st.integers(0, len(KINDS) - 1),
)
def test_kittaneh_chain_random(seed, alpha, kind_idx):
    a, b, x = _pair(seed, n=3)
    (rep,) = heinz.kittaneh_chain(a, b, x, alpha, (KINDS[kind_idx],))
    assert rep.ok, rep.as_dicts()
    assert len(rep.values) == 5
