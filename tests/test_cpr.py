"""Conjugation sandwich bounds, the eight-member power-pair chain, and the
direct-sum corollaries."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normlab import cpr, heinz, matcore
from normlab.cpr import ZhanParams
from normlab.errors import DimensionMismatch, InvalidParams, NonFinite, NotHermitian, Singular
from normlab.norms import FRO, OP, TR, NormKind, norm

KINDS = [OP, TR, FRO, NormKind.kyfan(2), NormKind.schatten(3.0)]

T_GRID = [-1.0, 0.0, 0.5, 1.0, 2.0]
R_GRID = [0.5, 0.75, 1.0, 1.25, 1.5]


def _posdef_triple(seed, n=4, cond=10.0):
    rng = matcore.Rng(seed)
    a = matcore.random_posdef(n, cond, rng.substream(0))
    b = matcore.random_posdef(n, cond, rng.substream(1))
    x = matcore.random_probe_matrix(n, rng.substream(2))
    return a, b, x


# ---------------------------------------------------------------- sandwich


def test_cpr_hand_value():
    s = np.diag([2.0, 1.0])
    x = np.array([[0.0, 1.0], [0.0, 0.0]])
    (rep,) = cpr.cpr_check(s, x, (OP,))
    # SXS^-1 + S^-1XS acts on the single off-diagonal entry by 2 + 1/2.
    assert rep.values[0] == pytest.approx(2.5, abs=1e-12)
    assert rep.values[1] == pytest.approx(2.0, abs=1e-13)
    assert rep.ok


def test_cpr_identity_equality():
    x = matcore.ginibre(3, rng=matcore.Rng(70))
    for rep in cpr.cpr_check(np.eye(3), x, KINDS):
        assert abs(rep.values[0] - rep.values[1]) <= 1e-12 * rep.values[0]


def test_cpr_reflection_equality():
    # S with S^2 proportional to the identity conjugates twice to a rotation
    # of X, so the bound is tight.
    s = matcore.random_scaled_reflection(4, matcore.Rng(71))
    s = 0.5 * (s + s.conj().T)
    x = matcore.ginibre(4, rng=matcore.Rng(72))
    (rep,) = cpr.cpr_check(s, x, (TR,))
    assert rep.ok
    assert abs(rep.values[0] - rep.values[1]) <= 1e-9 * rep.values[0]


def test_cpr_requires_selfadjoint():
    x = np.eye(2)
    with pytest.raises(NotHermitian):
        cpr.cpr_check(np.array([[1.0, 1.0], [0.0, 1.0]]), x, (OP,))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_cpr_random(seed):
    rng = matcore.Rng(seed)
    s = matcore.random_selfadjoint_invertible(4, 100.0, rng.substream(0))
    x = matcore.random_probe_matrix(4, rng.substream(1))
    for rep in cpr.cpr_check(s, x, KINDS):
        assert rep.ok


def test_two_sided_reduces_to_one_sided():
    rng = matcore.Rng(73)
    s = matcore.random_selfadjoint_invertible(3, 50.0, rng.substream(0))
    x = matcore.ginibre(3, rng=rng.substream(1))
    (two,) = cpr.cpr_two_sided_check(s, s, x, (OP,))
    (one,) = cpr.cpr_check(s, x, (OP,))
    assert abs(two.values[0] - one.values[0]) <= 1e-12 * max(1.0, one.values[0])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_two_sided_random(seed):
    rng = matcore.Rng(seed)
    s = matcore.random_selfadjoint_invertible(3, 100.0, rng.substream(0))
    t = matcore.random_selfadjoint_invertible(3, 100.0, rng.substream(1))
    x = matcore.random_probe_matrix(3, rng.substream(2))
    for rep in cpr.cpr_two_sided_check(s, t, x, KINDS):
        assert rep.ok


def test_star_unitary_equality():
    u = matcore.haar_unitary(4, matcore.Rng(74))
    x = matcore.ginibre(4, rng=matcore.Rng(75))
    (rep,) = cpr.cpr_star_check(u, x, (FRO,))
    assert abs(rep.values[0] - rep.values[1]) <= 1e-10 * rep.values[0]


def test_star_selfadjoint_matches_plain():
    rng = matcore.Rng(76)
    s = matcore.random_selfadjoint_invertible(3, 20.0, rng.substream(0))
    x = matcore.ginibre(3, rng=rng.substream(1))
    (star,) = cpr.cpr_star_check(s, x, (OP,))
    (plain,) = cpr.cpr_check(s, x, (OP,))
    assert abs(star.values[0] - plain.values[0]) <= 1e-12 * max(1.0, plain.values[0])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_star_random_invertible(seed):
    rng = matcore.Rng(seed)
    s = matcore.random_invertible(4, 100.0, rng.substream(0))
    x = matcore.random_probe_matrix(4, rng.substream(1))
    for rep in cpr.cpr_star_check(s, x, KINDS):
        assert rep.ok


# Each sandwich check as f(S, T, X, Y); T and Y are read only by the checks
# that take them.
SANDWICH_CHECKS = {
    "cpr": lambda s, t, x, y: cpr.cpr_check(s, x, (OP,)),
    "cpr_two_sided": lambda s, t, x, y: cpr.cpr_two_sided_check(s, t, x, (OP,)),
    "cpr_star": lambda s, t, x, y: cpr.cpr_star_check(s, x, (OP,)),
    "mos1": lambda s, t, x, y: cpr.mos1_check(s, x, y, (OP,)),
    "mos2": lambda s, t, x, y: cpr.mos2_check(s, x, y, (OP,)),
    "final_cor": lambda s, t, x, y: cpr.final_cor_check(s, x, (2.0,)),
}
SINGULAR = np.diag([1.0, 1.0, 0.0])
# Not self-adjoint, and singular too: the self-adjointness test comes first.
NOT_HERMITIAN = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])


def _bad_inputs():
    for name in SANDWICH_CHECKS:
        cases = [("singular-s", {"s": SINGULAR}, Singular), ("nonsquare-s", {"s": np.ones((3, 2))}, DimensionMismatch)]
        cases.append(("x-shape", {"x": np.ones((2, 2))}, DimensionMismatch))
        if name.startswith("mos"):
            cases.append(("y-shape", {"y": np.ones((3, 2))}, DimensionMismatch))
        if name == "cpr_two_sided":
            cases.append(("singular-t", {"t": SINGULAR}, Singular))
            cases.append(("nonsquare-t", {"t": np.ones((2, 3))}, DimensionMismatch))
            cases.append(("nonhermitian-t", {"t": NOT_HERMITIAN}, NotHermitian))
            # S is decomposed, and found singular, before T is read.
            cases.append(("singular-s-nonhermitian-t", {"s": SINGULAR, "t": NOT_HERMITIAN}, Singular))
        if name in ("cpr", "cpr_two_sided"):
            cases.append(("nonhermitian-s", {"s": NOT_HERMITIAN}, NotHermitian))
        for label, bad, error in cases:
            yield pytest.param(name, bad, error, id=f"{name}-{label}")


@pytest.mark.parametrize("name, bad, error", list(_bad_inputs()))
def test_sandwich_checks_reject_bad_inputs(name, bad, error):
    mats = {"s": np.diag([2.0, 1.0, 3.0]), "t": np.diag([-1.0, 4.0, 2.0]), "x": np.ones((3, 3)), "y": np.eye(3)}
    with pytest.raises(error):
        SANDWICH_CHECKS[name](**{**mats, **bad})


# ---------------------------------------------------------------- zhan


def test_zhan_params_validation():
    with pytest.raises(InvalidParams):
        ZhanParams(3.0, 1.0)
    with pytest.raises(InvalidParams):
        ZhanParams(0.0, 0.4)
    with pytest.raises(InvalidParams):
        ZhanParams(0.0, 1.6)
    assert ZhanParams(0.0, 1.0).regime == 1
    assert ZhanParams(0.0, 1.25).regime == 2


def test_zhan_identity_pair_collapses():
    x = matcore.ginibre(3, rng=matcore.Rng(77))
    want = 4.0 * norm(x, OP)
    (rep,) = cpr.zhan_chain(np.eye(3), np.eye(3), x, ZhanParams(0.0, 1.0), (OP,))
    assert rep.ok
    for v in rep.values:
        assert abs(v - want) <= 1e-12 * want


def test_zhan_t2_kills_correction():
    # c = 4 - 2t vanishes at t = 2 and the first two members coincide
    # bitwise (the second subtracts an exact 0.0).
    a, b, x = _posdef_triple(78)
    (rep,) = cpr.zhan_chain(a, b, x, ZhanParams(2.0, 0.75), (TR,))
    assert rep.values[0] == rep.values[1]
    assert rep.ok


def test_zhan_check_shares_endpoints():
    a, b, x = _posdef_triple(79)
    params = ZhanParams(0.5, 1.25)
    for full, ends in zip(cpr.zhan_chain(a, b, x, params, KINDS), cpr.zhan_check(a, b, x, params, KINDS)):
        assert full.values[0] == ends.values[0]
        assert full.values[-1] == ends.values[1]
        assert len(full.values) == 8


def test_zhan_accepts_bare_tuple():
    a, b, x = _posdef_triple(80)
    (rep,) = cpr.zhan_chain(a, b, x, (0.0, 1.0), (OP,))
    assert rep.ok


def test_zhan_trivial_for_very_negative_t():
    # At t <= -2 the right side is non-positive and the bound carries no
    # content, but the chain code must still hold (the correction term
    # dominates).
    a, b, x = _posdef_triple(81)
    (rep,) = cpr.zhan_check(a, b, x, ZhanParams(-2.0, 1.0), (OP,))
    assert rep.values[1] == 0.0
    assert rep.ok


def test_zhan_identity_equality():
    x = matcore.ginibre(3, rng=matcore.Rng(82))
    (rep,) = cpr.zhan_check(np.eye(3), np.eye(3), x, ZhanParams(1.0, 1.0), (TR,))
    assert abs(rep.values[0] - rep.values[1]) <= 1e-12 * rep.values[0]


def test_zhan_regime_continuity_at_r1():
    # r = 1 belongs to both regimes; the two integration windows are
    # reflections of each other around the symmetry point of H.
    a, b, x = _posdef_triple(83, n=5)
    basis = heinz.pair_basis(a, b, x)
    regime1 = cpr._zhan_reports(basis, 0.5, 1.0, 1, KINDS, 1e-8)
    regime2 = cpr._zhan_reports(basis, 0.5, 1.0, 2, KINDS, 1e-8)
    for r1, r2 in zip(regime1, regime2):
        for v1, v2 in zip(r1.values, r2.values):
            assert abs(v1 - v2) <= 1e-10 * max(1.0, abs(v1))


def test_zhan_degenerate_r_endpoints():
    # r = 1/2 and r = 3/2 shrink the quadrature window to a point.
    a, b, x = _posdef_triple(84)
    for r in (0.5, 1.5):
        (rep,) = cpr.zhan_chain(a, b, x, ZhanParams(0.0, r), (OP,))
        assert rep.ok, rep.as_dicts()


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    t=st.sampled_from(T_GRID),
    r=st.sampled_from(R_GRID),
    kind_idx=st.integers(0, len(KINDS) - 1),
)
def test_zhan_chain_random(seed, t, r, kind_idx):
    a, b, x = _posdef_triple(seed, n=3)
    (rep,) = cpr.zhan_chain(a, b, x, ZhanParams(t, r), (KINDS[kind_idx],))
    assert rep.ok, rep.as_dicts()


# ---------------------------------------------------------------- cor23/24


def test_cor23_identity_equality():
    x = matcore.ginibre(3, rng=matcore.Rng(85))
    (rep,) = cpr.cor23_check(np.eye(3), np.eye(3), x, 0.0, (OP,))
    assert abs(rep.values[0] - rep.values[1]) <= 1e-12 * rep.values[0]


def test_cor23_zero_a():
    b = matcore.ginibre(3, rng=matcore.Rng(86))
    x = matcore.ginibre(3, rng=matcore.Rng(87))
    (rep,) = cpr.cor23_check(np.zeros((3, 3)), b, x, 1.0, (OP,))
    assert rep.values[1] == 0.0
    assert rep.values[0] == pytest.approx(norm(x @ b @ b.conj().T, OP), rel=1e-12)


def test_cor23_t0_is_agm():
    rng = matcore.Rng(88)
    a = matcore.ginibre(4, rng=rng.substream(0))
    b = matcore.ginibre(4, rng=rng.substream(1))
    x = matcore.ginibre(4, rng=rng.substream(2))
    for got, want in zip(cpr.cor23_check(a, b, x, 0.0, KINDS), heinz.agm_check(a, b, x, KINDS)):
        assert np.array_equal(got.values, want.values)


def test_cor23_posdef_reduces_to_power_pair_bound():
    # For positive definite A, B the absolute values drop out and the
    # statement is exactly half of the r = 1 two-value bound.
    a, b, x = _posdef_triple(89)
    for t in T_GRID:
        halves = cpr.cor23_check(a, b, x, t, (OP, TR))
        for half, full in zip(halves, cpr.zhan_check(a, b, x, ZhanParams(t, 1.0), (OP, TR))):
            assert 2.0 * half.values[0] == pytest.approx(full.values[0], rel=1e-10)
            assert 2.0 * half.values[1] == pytest.approx(full.values[1], rel=1e-10)


def test_members_beyond_the_float_range_are_non_finite():
    # A = B = I and X = diag(1, 0) at t = -1e308: the quadratic weights
    # 2 + t and every norm stay finite, but 2|A^2X+XB^2+tAXB| does not.
    # The sums and dominance factors past the float range raise NonFinite
    # without a RuntimeWarning.
    eye, x = np.eye(2), np.diag([1.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite, match="chain member"):
            cpr.zhan_chain(eye, eye, x, ZhanParams(-1e308, 1.0), (OP,))
        with pytest.raises(NonFinite, match="chain member"):
            heinz.dominance(("a", "b"), np.array([[1.0, 1e300]]), 1e10, 1e-8)
        with pytest.raises(NonFinite, match="weighted matrix"):
            cpr.cor23_check(2.0 * eye, eye, x, -1e308, (OP,))
        # Inside the range the chain is built as before.
        (rep,) = cpr.zhan_chain(eye, eye, x, ZhanParams(-1e300, 1.0), (OP,))
        assert np.isfinite(rep.values).all()


def test_cor23_rejects_large_t():
    with pytest.raises(InvalidParams):
        cpr.cor23_check(np.eye(2), np.eye(2), np.eye(2), 2.5, (OP,))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), t=st.sampled_from(T_GRID))
def test_cor23_random_arbitrary_matrices(seed, t):
    # The pair is completely unstructured here, including non-normal draws.
    rng = matcore.Rng(seed)
    a = matcore.ginibre(4, rng=rng.substream(0))
    b = matcore.ginibre(4, rng=rng.substream(1))
    x = matcore.random_probe_matrix(4, rng.substream(2))
    for rep in cpr.cor23_check(a, b, x, t, KINDS):
        assert rep.ok


def test_cor24_identity_equality():
    x = matcore.ginibre(3, rng=matcore.Rng(90))
    (rep,) = cpr.cor24_check(np.eye(3), np.eye(3), x, 1.0, (TR,))
    assert abs(rep.values[0] - rep.values[1]) <= 1e-12 * rep.values[0]


def test_cor24_equal_pair_reduces_to_sandwich():
    rng = matcore.Rng(91)
    p = matcore.random_posdef(3, 30.0, rng.substream(0))
    x = matcore.ginibre(3, rng=rng.substream(1))
    (got,) = cpr.cor24_check(p, p, x, 0.0, (OP,))
    (want,) = cpr.cpr_check(p, x, (OP,))
    assert got.values[0] == pytest.approx(want.values[0], rel=1e-10)


def test_cor24_rejects_large_t():
    with pytest.raises(InvalidParams):
        cpr.cor24_check(np.eye(2), np.eye(2), np.eye(2), 2.1, (OP,))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), t=st.sampled_from(T_GRID))
def test_cor24_random(seed, t):
    rng = matcore.Rng(seed)
    p = matcore.random_posdef(4, 100.0, rng.substream(0))
    q = matcore.random_posdef(4, 100.0, rng.substream(1))
    x = matcore.random_probe_matrix(4, rng.substream(2))
    for rep in cpr.cor24_check(p, q, x, t, KINDS):
        assert rep.ok


# ---------------------------------------------------------------- blocks


def test_mos1_identity_equality():
    rng = matcore.Rng(92)
    x = matcore.ginibre(3, rng=rng.substream(0))
    y = matcore.ginibre(3, rng=rng.substream(1))
    for rep in cpr.mos1_check(np.eye(3), x, y, KINDS):
        assert abs(rep.values[0] - rep.values[1]) <= 1e-12 * rep.values[0]


def test_mos1_zero_block():
    rng = matcore.Rng(93)
    s = matcore.random_invertible(3, 50.0, rng.substream(0))
    x = matcore.ginibre(3, rng=rng.substream(1))
    (rep,) = cpr.mos1_check(s, x, np.zeros((3, 3)), (OP,))
    assert rep.ok


def test_mos2_selfadjoint_equal_blocks():
    # Self-adjoint S makes both mos2 blocks equal the one-sided sandwich,
    # so in the operator norm the block bound collapses onto cpr_check.
    rng = matcore.Rng(94)
    s = matcore.random_selfadjoint_invertible(3, 40.0, rng.substream(0))
    x = matcore.ginibre(3, rng=rng.substream(1))
    (block,) = cpr.mos2_check(s, x, x, (OP,))
    (flat,) = cpr.cpr_check(s, x, (OP,))
    assert block.values[0] == pytest.approx(flat.values[0], rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_mos_random(seed):
    rng = matcore.Rng(seed)
    s = matcore.random_invertible(3, 100.0, rng.substream(0))
    x = matcore.random_probe_matrix(3, rng.substream(1))
    y = matcore.random_probe_matrix(3, rng.substream(2))
    for rep in cpr.mos1_check(s, x, y, KINDS) + cpr.mos2_check(s, x, y, KINDS):
        assert rep.ok


def test_final_cor_identity_equalities():
    x = matcore.ginibre(3, rng=matcore.Rng(95))
    op_rep, pow_rep = cpr.final_cor_check(np.eye(3), x, (3.0,))
    assert abs(op_rep.values[0] - op_rep.values[1]) <= 1e-12 * op_rep.values[0]
    assert abs(pow_rep.values[0] - pow_rep.values[1]) <= 1e-12 * pow_rep.values[0]


def test_final_cor_unitary_saturates_op_form():
    u = matcore.haar_unitary(4, matcore.Rng(96))
    x = matcore.ginibre(4, rng=matcore.Rng(97))
    op_rep, _ = cpr.final_cor_check(u, x, (2.0,))
    assert abs(op_rep.values[0] - 2.0 * norm(x, OP)) <= 1e-10 * norm(x, OP)


def test_final_cor_matches_block_form():
    # With Y = X the first mos1 block is E1 and the second is E2, so the
    # operator-norm block bound and the max form are the same statement.
    rng = matcore.Rng(98)
    s = matcore.random_invertible(4, 60.0, rng.substream(0))
    x = matcore.ginibre(4, rng=rng.substream(1))
    op_rep, _ = cpr.final_cor_check(s, x, (1.0,))
    (block,) = cpr.mos1_check(s, x, x, (OP,))
    assert abs(op_rep.values[0] - block.values[0]) <= 1e-12 * max(1.0, block.values[0])


def test_final_cor_rejects_bad_exponent():
    for p in (0.5, np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidParams):
            cpr.final_cor_check(np.eye(2), np.eye(2), (2.0, p))


@pytest.mark.parametrize("scale, p", [(0.8, 1100.0), (0.5 * 1.5e308**0.01, 100.0), (0.4, 1100.0)])
def test_final_cor_power_beyond_float_range_raises(scale, p):
    # S = I makes E1 = E2 = 2X.  At X = 0.8 e1 e2* every norm and p-th power
    # is finite but Python's 2.0 ** (p + 1) overflows; at the second scale
    # each |E|_p^p is 1.5e308, so their sum and 2^(p+1)|X|_p^p are inf; at
    # X = 0.4 e1 e2*, |X|_p^p is below the smallest normal float.
    x = np.zeros((2, 2), dtype=complex)
    x[0, 1] = scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite):
            cpr.final_cor_check(np.eye(2), x, (2.0, p))
        with pytest.raises(NonFinite):
            cpr.final_cor_check(np.stack((np.eye(2),) * 3), np.stack((x,) * 3), (p,))


def test_final_cor_power_below_float_range_raises(monkeypatch):
    # Norms that are normal floats, from a stand-in for norms_from_sv, whose
    # Python p-th powers underflow at p = 70 and not at p = 30.
    def tiny_norms(sv, kinds):
        return np.full((len(kinds),) + sv.shape[:-1], 1e-5)

    monkeypatch.setattr(cpr, "norms_from_sv", tiny_norms)
    s, x = np.eye(2), np.ones((2, 2), dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        power = 1e-5**30.0
        assert cpr.final_cor_check(s, x, (30.0,))[1].values.tolist() == [power + power, 2.0**31.0 * power]
        with pytest.raises(NonFinite, match="underflowed"):
            cpr.final_cor_check(s, x, (30.0, 70.0))
        with pytest.raises(NonFinite, match="underflowed"):
            cpr.final_cor_check(np.stack((s,) * 3), np.stack((x,) * 3), (70.0,))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), p=st.sampled_from([1.0, 2.0, 3.0]))
def test_final_cor_random(seed, p):
    rng = matcore.Rng(seed)
    s = matcore.random_invertible(4, 100.0, rng.substream(0))
    x = matcore.random_probe_matrix(4, rng.substream(1))
    op_rep, pow_rep = cpr.final_cor_check(s, x, (p,))
    assert op_rep.ok
    assert pow_rep.ok
