"""The multiplier engine against explicit products: every check that
rotates, weights and reduces one SVD stack agrees with the matrix
expression it stands for, built here from frac_power and an SVD polar
factor for the positive-pair checks, and from matcore.inverse and
matcore.direct_sum for the sandwich checks on an invertible S, on every
kind of free matrix random_probe_matrix draws."""

import numpy as np
import pytest

from chain_asserts import gauss_mean
from normlab import cpr, heinz, matcore
from normlab.cpr import ZhanParams
from normlab.norms import OP, NormKind, norms_from_sv, stack_norms

KINDS = tuple(NormKind.parse(s) for s in ("op", "tr", "fro", "kyfan:2", "schatten:3"))
T_GRID = (-1.0, 0.0, 0.5, 2.0)
PROBE_KINDS = ("rank-one", "hermitian", "unitary", "ginibre")
RTOL = 1e-12


def _probe_kind(x: np.ndarray) -> str:
    n = x.shape[0]
    if np.count_nonzero(x) == 1:
        return "rank-one"
    if np.allclose(x, x.conj().T):
        return "hermitian"
    if np.allclose(x @ x.conj().T, np.eye(n)):
        return "unitary"
    return "ginibre"


def _probe(n: int, kind: str, rng: matcore.Rng) -> np.ndarray:
    """The first draw of random_probe_matrix of the given kind."""
    for i in range(200):
        x = matcore.random_probe_matrix(n, rng.substream(i))
        if _probe_kind(x) == kind:
            return x
    raise AssertionError(f"no {kind} draw in 200 tries")


def _polar_abs(a: np.ndarray) -> np.ndarray:
    # |A| = (A*A)^(1/2) from the SVD A = U S V*: V S V*.
    dec = matcore.svd(a)
    absval = (dec.right * dec.singular_values) @ dec.right.conj().T
    return 0.5 * (absval + absval.conj().T)


def _assert_close(reports, rows, factor=1.0):
    # rows[i] holds the oracle's (larger, smaller) norms for KINDS[i].
    for rep, (big, small) in zip(reports, rows):
        assert rep.values[0] == pytest.approx(big, rel=RTOL)
        assert rep.values[1] == pytest.approx(factor * small, rel=RTOL)


@pytest.mark.parametrize("probe_kind", PROBE_KINDS)
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_engine_matches_explicit_products(n, probe_kind):
    rng = matcore.Rng(700 + n)
    a = matcore.random_posdef(n, 50.0, rng.substream(0))
    b = matcore.random_posdef(n, 50.0, rng.substream(1))
    c = matcore.ginibre(n, rng=rng.substream(2))
    d = matcore.ginibre(n, rng=rng.substream(3))
    x = _probe(n, probe_kind, rng.substream(4))

    for alpha in (0.0, 0.3, 0.5, 1.0):
        rows = stack_norms((a @ x + x @ b, heinz.heinz_expr(a, b, x, alpha)), KINDS)
        _assert_close(heinz.heinz_check(a, b, x, alpha, KINDS), rows)

    power = matcore.frac_power
    abs_c, abs_d_star = _polar_abs(c), _polar_abs(d.conj().T)
    assert np.linalg.norm(abs_c @ abs_c - c.conj().T @ c) <= 1e-12 * np.linalg.norm(c) ** 2
    for t in T_GRID:
        rows = stack_norms((a @ x @ power(b, -1.0) + power(a, -1.0) @ x @ b + t * x, x), KINDS)
        _assert_close(cpr.cor24_check(a, b, x, t, KINDS), rows, t + 2.0)
        lhs = c.conj().T @ c @ x + x @ d @ d.conj().T + t * (abs_c @ x @ abs_d_star)
        rows = stack_norms((lhs, c @ x @ d), KINDS)
        _assert_close(cpr.cor23_check(c, d, x, t, KINDS), rows, t + 2.0)
        if t == 0.0:
            _assert_close(heinz.agm_check(c, d, x, KINDS), rows, 2.0)


@pytest.mark.parametrize("probe_kind", PROBE_KINDS)
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_zhan_h_members_match_total_power_two(n, probe_kind):
    # The H members built from the Heinz chain of A^(1/2) X B^(1/2) against
    # the total-power-2 brackets evaluated directly at their exponents.
    rng = matcore.Rng(800 + n)
    a = matcore.random_posdef(n, 50.0, rng.substream(0))
    b = matcore.random_posdef(n, 50.0, rng.substream(1))
    x = _probe(n, probe_kind, rng.substream(2))
    basis = heinz.pair_basis(a, b, x)
    g = stack_norms((a @ x @ b,), KINDS)[:, 0]
    for r in (0.5, 0.75, 1.0, 1.25, 1.5):
        lo, hi, mid = (0.0, r - 0.5, (2.0 * r + 1.0) / 4.0) if r <= 1.0 else (r - 0.5, 1.0, (2.0 * r + 3.0) / 4.0)
        h = norms_from_sv(heinz.power_pair_sv(basis, np.array([1.5, r, mid]), total=2.0), KINDS)
        # A window shorter than DEGENERATE_INTERVAL is its endpoint lo, which is r - 1/2.
        if hi - lo < heinz.DEGENERATE_INTERVAL:
            means = h[:, 1]
        else:
            means = gauss_mean(lambda s: norms_from_sv(heinz.power_pair_sv(basis, s + 0.5, 2.0), KINDS), lo, hi, 32)
        for t in T_GRID:
            c = 4.0 - 2.0 * t
            reports = cpr.zhan_chain(a, b, x, ZhanParams(t, r), KINDS)
            for rep, (h32, h_r, h_mid), mean_h, g_k in zip(reports, h, means, g):
                want = [4.0 * h32, 2.0 * h32 + 2.0 * h_r, 4.0 * mean_h, 4.0 * h_mid, 4.0 * h_r]
                assert list(rep.values[2:7]) == pytest.approx([v - c * g_k for v in want], rel=RTOL)
                assert rep.values[7] == pytest.approx((t + 2.0) * h_r, rel=RTOL)


@pytest.mark.parametrize("probe_kind", PROBE_KINDS)
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_sandwich_checks_match_explicit_products(n, probe_kind):
    rng = matcore.Rng(900 + n)
    s = matcore.random_invertible(n, 100.0, rng.substream(0))
    h = matcore.random_selfadjoint_invertible(n, 100.0, rng.substream(1))
    k = matcore.random_selfadjoint_invertible(n, 100.0, rng.substream(2))
    x = _probe(n, probe_kind, rng.substream(3))
    y = _probe(n, probe_kind, rng.substream(4))
    si, hi, ki = matcore.inverse(s), matcore.inverse(h), matcore.inverse(k)
    s_star, si_star = s.conj().T, si.conj().T

    _assert_close(cpr.cpr_check(h, x, KINDS), stack_norms((h @ x @ hi + hi @ x @ h, x), KINDS), 2.0)
    _assert_close(cpr.cpr_two_sided_check(h, k, x, KINDS), stack_norms((h @ x @ ki + hi @ x @ k, x), KINDS), 2.0)
    _assert_close(cpr.cpr_star_check(s, x, KINDS), stack_norms((s_star @ x @ si + si @ x @ s_star, x), KINDS), 2.0)

    def e1(z):
        return s @ z @ si + si_star @ z @ s_star

    def e2(z):
        return s_star @ z @ si_star + si @ z @ s

    direct_sum = matcore.direct_sum
    rows = stack_norms((direct_sum(e1(y), e2(x)), direct_sum(x, y)), KINDS)
    _assert_close(cpr.mos1_check(s, x, y, KINDS), rows, 2.0)
    blocks = direct_sum(s @ y @ si_star + si_star @ y @ s, s_star @ x @ si + si @ x @ s_star)
    _assert_close(cpr.mos2_check(s, x, y, KINDS), stack_norms((blocks, direct_sum(x, y)), KINDS), 2.0)

    ps = (1.0, 1.5, 2.0, 3.0)
    op_rep, *power_reps = cpr.final_cor_check(s, x, ps)
    (op1, op2, op_x), *powers = stack_norms((e1(x), e2(x), x), (OP,) + tuple(NormKind.schatten(p) for p in ps))
    _assert_close((op_rep,), [(max(op1, op2), op_x)], 2.0)
    for p, rep, (n1, n2, n_x) in zip(ps, power_reps, powers):
        _assert_close((rep,), [(n1**p + n2**p, n_x**p)], 2.0 ** (p + 1.0))
