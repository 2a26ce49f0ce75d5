"""Multi-norm evaluation: every check evaluates an instance once and one SVD
stack serves every norm, with reports equal bit for bit to single-norm
calls."""

from types import SimpleNamespace

import numpy as np
import pytest

from chain_asserts import assert_same_chains, gauss_mean
from normlab import classes, cpr, heinz, matcore
from normlab.chains import ChainStack
from normlab.cpr import ZhanParams
from normlab.norms import NormKind, norm, norms_from_sv, stack_norms

KINDS = tuple(NormKind.parse(s) for s in ("op", "tr", "fro", "kyfan:2", "schatten:3"))
ALPHAS = (0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0)
ZHAN_POINTS = [(t, r) for t in (-1.0, 0.5, 2.0) for r in (0.5, 0.75, 1.0, 1.25, 1.5)]


def _triple(seed, n):
    rng = matcore.Rng(seed)
    a = matcore.random_posdef(n, 50.0, rng.substream(0))
    b = matcore.random_posdef(n, 50.0, rng.substream(1))
    x = matcore.random_probe_matrix(n, rng.substream(2))
    return a, b, x


def _close(got, want, rtol=1e-10):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert abs(g - w) <= rtol * max(1.0, abs(w)), (got, want)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_kittaneh_chains_equal_single_norm_calls(n):
    a, b, x = _triple(200 + n, n)
    for alpha in ALPHAS:
        multi = heinz.kittaneh_chain(a, b, x, alpha, KINDS)
        assert_same_chains(multi, (heinz.kittaneh_chain(a, b, x, alpha, (kind,))[0] for kind in KINDS))


@pytest.mark.parametrize("n", [2, 3, 5])
def test_heinz_check_is_the_kittaneh_chain_ends(n):
    a, b, x = _triple(250 + n, n)
    for alpha in ALPHAS:
        for ends, rep in zip(heinz.heinz_check(a, b, x, alpha, KINDS), heinz.kittaneh_chain(a, b, x, alpha, KINDS)):
            assert ends.values.tolist() == [rep.values[0], rep.values[-1]]


@pytest.mark.parametrize("n", [2, 3, 5])
def test_zhan_chains_equal_single_norm_calls(n):
    a, b, x = _triple(300 + n, n)
    for t, r in ZHAN_POINTS:
        multi = cpr.zhan_chain(a, b, x, ZhanParams(t, r), KINDS)
        assert_same_chains(multi, (cpr.zhan_chain(a, b, x, ZhanParams(t, r), (kind,))[0] for kind in KINDS))
        for ends, rep in zip(cpr.zhan_check(a, b, x, ZhanParams(t, r), KINDS), multi):
            assert ends.values.tolist() == [rep.values[0], rep.values[-1]]


def _instance(seed, n):
    rng = matcore.Rng(seed)
    return SimpleNamespace(
        a=matcore.random_posdef(n, 50.0, rng.substream(0)),
        b=matcore.random_posdef(n, 50.0, rng.substream(1)),
        s=matcore.random_selfadjoint_invertible(n, 50.0, rng.substream(2)),
        t=matcore.random_selfadjoint_invertible(n, 50.0, rng.substream(3)),
        g=matcore.random_invertible(n, 50.0, rng.substream(4)),
        c=matcore.ginibre(n, rng=rng.substream(5)),
        d=matcore.ginibre(n, rng=rng.substream(6)),
        x=matcore.random_probe_matrix(n, rng.substream(7)),
        y=matcore.random_probe_matrix(n, rng.substream(8)),
    )


# Check name -> check(instance, kinds), one report per kind.
CHECKS = {
    "heinz_check": lambda m, kinds: heinz.heinz_check(m.a, m.b, m.x, 0.3, kinds),
    "agm_check": lambda m, kinds: heinz.agm_check(m.c, m.d, m.x, kinds),
    "zhan_check": lambda m, kinds: cpr.zhan_check(m.a, m.b, m.x, ZhanParams(0.5, 1.25), kinds),
    "cpr_check": lambda m, kinds: cpr.cpr_check(m.s, m.x, kinds),
    "cpr_two_sided_check": lambda m, kinds: cpr.cpr_two_sided_check(m.s, m.t, m.x, kinds),
    "cpr_star_check": lambda m, kinds: cpr.cpr_star_check(m.g, m.x, kinds),
    "cor23_check": lambda m, kinds: cpr.cor23_check(m.c, m.d, m.x, 0.5, kinds),
    "cor24_check": lambda m, kinds: cpr.cor24_check(m.a, m.b, m.x, -1.0, kinds),
    "mos1_check": lambda m, kinds: cpr.mos1_check(m.g, m.x, m.y, kinds),
    "mos2_check": lambda m, kinds: cpr.mos2_check(m.g, m.x, m.y, kinds),
    **{
        f"characterization_check:{form}": lambda m, kinds, form=form: classes.characterization_check(
            m.g, m.x, form, kinds
        )
        for form in classes.FORMS
    },
}


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("name", sorted(CHECKS))
def test_checks_equal_single_norm_calls(name, n):
    m = _instance(500 + n, n)
    multi = CHECKS[name](m, KINDS)
    assert len(multi) == len(KINDS)
    assert_same_chains(multi, (CHECKS[name](m, (kind,))[0] for kind in KINDS))


# Every check of heinz, cpr and classes that returns chains.
ONE_INSTANCE = {
    **CHECKS,
    "kittaneh_chain": lambda m, kinds: heinz.kittaneh_chain(m.a, m.b, m.x, 0.3, kinds),
    "zhan_chain": lambda m, kinds: cpr.zhan_chain(m.a, m.b, m.x, ZhanParams(0.5, 1.25), kinds),
    "final_cor_check": lambda m, kinds: cpr.final_cor_check(m.g, m.x, (1.0, 3.0)),
    "schur_theorem_bound_check": lambda m, kinds: (classes.schur_theorem_bound_check(m.a, m.x),),
}


@pytest.mark.parametrize("name", sorted(ONE_INSTANCE))
def test_one_instance_gives_chain_stacks_with_no_leading_axes(name):
    m = _instance(650, 3)
    for rep in ONE_INSTANCE[name](m, KINDS):
        assert type(rep) is ChainStack
        links = len(rep.labels) - 1
        assert rep.values.shape == (links + 1,) and rep.margins.shape == rep.link_pass.shape == (links,)
        assert rep.ok.shape == rep.min_margin.shape == ()


@pytest.mark.parametrize("n", [2, 3, 5])
def test_final_cor_check_equals_single_exponent_calls(n):
    m = _instance(600 + n, n)
    ps = (1.0, 2.0, 3.0, 1.5)
    multi = cpr.final_cor_check(m.g, m.x, ps)
    assert len(multi) == 1 + len(ps)
    for p, rep in zip(ps, multi[1:]):
        assert_same_chains(cpr.final_cor_check(m.g, m.x, (p,)), (multi[0], rep))


def test_stack_norms_equal_one_matrix_at_a_time():
    # One batched SVD gives the same singular values as one SVD per matrix.
    rng = np.random.default_rng(11)
    for n in range(1, 13):
        stack = rng.standard_normal((6, n, n)) + 1j * rng.standard_normal((6, n, n))
        kinds = _kinds_within(n)
        table = stack_norms(stack, kinds)
        for j, mat in enumerate(stack):
            assert table[:, j].tolist() == stack_norms((mat,), kinds)[:, 0].tolist()


def _kinds_within(n):
    # KINDS without a Ky Fan k beyond n singular values, which has no norm.
    return tuple(kind for kind in KINDS if kind.family != "kyfan" or kind.param <= n)


def _oracle_mean(h, lo, hi, endpoint, nodes=32):
    if hi - lo < heinz.DEGENERATE_INTERVAL:
        return h(endpoint)
    return gauss_mean(lambda s: [h(p) for p in s], lo, hi, nodes)


def test_kittaneh_chains_match_explicit_products():
    a, b, x = _triple(401, 4)
    for alpha in ALPHAS:
        reports = heinz.kittaneh_chain(a, b, x, alpha, KINDS)
        for kind, rep in zip(KINDS, reports):

            def h(s):
                return norm(heinz.heinz_expr(a, b, x, s), kind)

            if alpha <= 0.5:
                lo, hi, mid = 0.0, alpha, 0.5 * alpha
            else:
                lo, hi, mid = alpha, 1.0, 0.5 * (1.0 + alpha)
            v_sum = norm(a @ x + x @ b, kind)
            want = (v_sum, 0.5 * v_sum + 0.5 * h(alpha), _oracle_mean(h, lo, hi, alpha), h(mid), h(alpha))
            _close(rep.values, want)
            assert rep.ok


def test_zhan_chains_match_explicit_products():
    a, b, x = _triple(402, 4)
    for t, r in ZHAN_POINTS:
        reports = cpr.zhan_chain(a, b, x, ZhanParams(t, r), KINDS)
        for kind, rep in zip(KINDS, reports):

            def h(s):
                pa, pb = matcore.frac_power(a, s), matcore.frac_power(b, 2.0 - s)
                qa, qb = matcore.frac_power(a, 2.0 - s), matcore.frac_power(b, s)
                return norm(pa @ x @ pb + qa @ x @ qb, kind)

            if r <= 1.0:
                lo, hi, mid = 0.0, r - 0.5, (2.0 * r + 1.0) / 4.0
            else:
                lo, hi, mid = r - 0.5, 1.0, (2.0 * r + 3.0) / 4.0
            c, g = 4.0 - 2.0 * t, norm(a @ x @ b, kind)
            want = (
                2.0 * norm(a @ a @ x + x @ b @ b + t * (a @ x @ b), kind),
                2.0 * norm(a @ a @ x + x @ b @ b + 2.0 * (a @ x @ b), kind) - c * g,
                4.0 * h(1.5) - c * g,
                2.0 * h(1.5) + 2.0 * h(r) - c * g,
                4.0 * _oracle_mean(lambda nu: h(nu + 0.5), lo, hi, lo) - c * g,
                4.0 * h(mid) - c * g,
                4.0 * h(r) - c * g,
                (t + 2.0) * h(r),
            )
            _close(rep.values, want)
            assert rep.ok


def test_degenerate_intervals_take_the_endpoint():
    a, b, x = _triple(403, 3)
    for alpha in (0.0, 1.0):
        for rep in heinz.kittaneh_chain(a, b, x, alpha, KINDS):
            # The mean over a point is H(alpha) itself.
            assert rep.values[2] == rep.values[4]
            assert rep.ok
    for t in (-1.0, 2.0):
        for rep in cpr.zhan_chain(a, b, x, ZhanParams(t, 0.5), KINDS):
            # r = 1/2: the window [0, 0] gives H(1/2) = H(r).
            assert rep.values[4] == rep.values[6]
            assert rep.ok
        for rep in cpr.zhan_chain(a, b, x, ZhanParams(t, 1.5), KINDS):
            # r = 3/2: the window [1, 1] gives H(3/2).
            assert rep.values[4] == rep.values[2]
            assert rep.ok


def _row_norm(sv, kind):
    # Scalar reference: clamp one descending row, then reduce it.
    if sv.size == 0:
        return 0.0
    top = sv[0]
    if top > 0.0:
        sv = np.where(sv < 1e-14 * top, 0.0, sv)
    if kind.family == "operator":
        return float(top)
    if kind.family == "kyfan":
        return float(np.sum(sv[: int(kind.param)]))
    p = kind.param
    if p == 1.0:
        return float(np.sum(sv))
    if p == 2.0:
        return float(np.sqrt(np.sum(sv * sv)))
    return float(np.sum(sv**p) ** (1.0 / p))


def test_norms_from_sv_matches_norm_from_sv():
    # The stack reducer equals a one-row-at-a-time reduction.
    rng = np.random.default_rng(7)
    for n in range(1, 13):
        sv = -np.sort(-np.abs(rng.standard_normal((9, n))) * 10.0 ** rng.uniform(-3, 3, (9, n)), axis=1)
        sv[0, 1:] = 1e-20 * sv[0, 0]
        sv[1] = 0.0
        kinds = _kinds_within(n)
        table = norms_from_sv(sv, kinds)
        assert table.shape == (len(kinds), 9)
        for kind, row in zip(kinds, table):
            want = [_row_norm(s, kind) for s in sv]
            if kind.family == "schatten" and kind.param not in (1.0, 2.0):
                # The vectorized 1/p-th root may differ in the last bit.
                np.testing.assert_allclose(row, want, rtol=4e-16, atol=0.0)
            else:
                assert row.tolist() == want
    assert norms_from_sv(np.zeros((3, 0)), KINDS).tolist() == [[0.0] * 3] * len(KINDS)
