"""Stacked numpy kernels round every matrix as the per-matrix call does.

The theorem suites sample, decompose and check a chunk of instances as
one stack, and their output is byte-identical to one instance at a time
only because numpy's stacked LAPACK and BLAS calls and row reductions
give each matrix the bits its own call gives.  A numpy or BLAS upgrade
that breaks that fails here by name.  Where a stacked form can round
apart (numpy's vectorized power against Python's float power in
final_cor_check and in the samplers' scalar factors), the code keeps the
per-row form.
"""

import numpy as np
import pytest

from normlab import cpr, heinz, matcore
from normlab.norms import NormKind, norms_from_sv

STACK = 300
KINDS = tuple(NormKind.parse(s) for s in ("op", "tr", "fro", "kyfan:2", "schatten:3", "schatten:1.5"))


def _complex_stack(seed: int, n: int, m: int = STACK) -> np.ndarray:
    g = np.random.default_rng(seed)
    return g.standard_normal((m, n, n)) + 1j * g.standard_normal((m, n, n))


def _same_bits(stacked, singles) -> bool:
    return np.asarray(stacked).tobytes() == np.stack(singles).tobytes()


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_stacked_decompositions_match_per_matrix_calls(n):
    z = _complex_stack(n, n)
    h = z + z.conj().swapaxes(-1, -2)
    q, r = np.linalg.qr(z)
    assert _same_bits(q, [np.linalg.qr(a)[0] for a in z])
    assert _same_bits(r, [np.linalg.qr(a)[1] for a in z])
    w, v = np.linalg.eigh(h)
    assert _same_bits(w, [np.linalg.eigh(a)[0] for a in h])
    assert _same_bits(v, [np.linalg.eigh(a)[1] for a in h])
    assert _same_bits(np.linalg.svd(z, compute_uv=False), [np.linalg.svd(a, compute_uv=False) for a in z])
    u, s, vh = np.linalg.svd(z)
    singles = [np.linalg.svd(a) for a in z]
    for j, part in enumerate((u, s, vh)):
        assert _same_bits(part, [single[j] for single in singles])


@pytest.mark.parametrize("n", [1, 2, 5])
def test_stacked_sampler_transforms_match_per_row_calls(n):
    # The samplers draw each stream's raw uniforms and normals and transform
    # the whole stack at once: the exponentials of log-uniform exponents,
    # each spectrum's sort, the sign and phase picks, and the complex
    # combine of Ginibre normals must round every row as its own call does,
    # and a column of scalar draws as each scalar's own call does.
    g = np.random.default_rng(80 + n)
    u = g.uniform(-0.5, 0.5, size=(STACK, n)) * np.log(1e6)
    r = g.random((STACK, n))
    w = g.standard_normal((STACK, 2, n, n))
    assert _same_bits(np.exp(u), [np.exp(row) for row in u])
    assert _same_bits(np.sort(np.exp(u), axis=-1), [np.sort(np.exp(row)) for row in u])
    assert _same_bits(np.where(r < 0.5, -1.0, 1.0), [np.where(row < 0.5, -1.0, 1.0) for row in r])
    assert _same_bits(np.exp(2j * np.pi * r), [np.exp(2j * np.pi * row) for row in r])
    assert _same_bits(np.exp(2j * np.pi * r[:, 0]), [np.exp(2j * np.pi * v) for v in r[:, 0].tolist()])
    scales = np.exp(u[:, 0])
    phases = np.exp(2j * np.pi * r[:, 0])
    assert _same_bits(scales * phases, [a * b for a, b in zip(scales.tolist(), phases)])
    assert _same_bits((w[:, 0] + 1j * w[:, 1]) / np.sqrt(2.0), [(z[0] + 1j * z[1]) / np.sqrt(2.0) for z in w])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_stacked_inverse_solve_matches_per_matrix_calls(n):
    # matcore.inverse solves a whole stack against one identity.
    z = _complex_stack(70 + n, n)
    eye = np.eye(n, dtype=complex)
    assert _same_bits(np.linalg.solve(z, eye), [np.linalg.solve(a, eye) for a in z])
    assert _same_bits(matcore.inverse(z), [matcore.inverse(a) for a in z])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_stacked_products_match_per_matrix_calls(n):
    # The layouts the engine multiplies: plain, and an adjoint view on the
    # left as rotate takes it, chained left to right.
    a, b, c = _complex_stack(10 + n, n), _complex_stack(20 + n, n), _complex_stack(30 + n, n)
    assert _same_bits(a @ b, [x @ y for x, y in zip(a, b)])
    rotated = a.conj().swapaxes(-1, -2) @ b @ c.conj().swapaxes(-1, -2)
    assert _same_bits(rotated, [x.conj().T @ y @ w.conj().T for x, y, w in zip(a, b, c)])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_stacked_row_norms_match_single_rows(n):
    sv = np.linalg.svd(_complex_stack(40 + n, n), compute_uv=False)
    sv[::7, -1] = 0.0
    table = norms_from_sv(sv, KINDS)
    assert _same_bits(table.T, [norms_from_sv(row[None], KINDS)[:, 0] for row in sv])
    assert norms_from_sv(sv.reshape(30, 10, n), KINDS).tobytes() == table.tobytes()


def _rule_sum(row, n):
    # The (n + 1)-point mean of one row of H at the finest level's nodes,
    # summed in Python floats one node at a time in node order.
    top = heinz.QUAD_LEVELS[-1]
    total = 0.0
    for w, col in zip(heinz._rule()[1][n].tolist(), range(0, top + 1, top // n)):
        total = total + w * row[col]
    return total


@pytest.mark.parametrize("nodes", [8, 32])
def test_stacked_quadrature_matches_per_row_dot(nodes):
    # kittaneh_members sums each pair's mean node by node, elementwise over
    # the (K, m) stack, so an entry has the bits of its own row's sum
    # whatever the stack around it; a matmul or a pairwise sum rounds apart.
    g = np.random.default_rng(nodes)
    vals = g.uniform(0.0, 10.0, size=(3, STACK, heinz.QUAD_LEVELS[-1] + 1))
    stacked = heinz._mean_rule(vals, nodes)
    assert _same_bits(stacked, [[_rule_sum(vals[k, i].tolist(), nodes) for i in range(STACK)] for k in range(3)])
    assert heinz._mean_rule(vals[1:, ::7], nodes).tobytes() == stacked[1:, ::7].tobytes()


@pytest.mark.parametrize("n", [2, 4, 6])
def test_flattened_power_pairs_match_per_pair_calls(n):
    # kittaneh_members evaluates every (pair, exponent) as one flat stack;
    # its powers and SVDs must round as one pair's (E, n) call does.
    g = np.random.default_rng(50 + n)
    la, mu = g.uniform(0.1, 10.0, size=(2, 40, n))
    x = _complex_stack(60 + n, n, 40)
    s = g.uniform(0.0, 1.0, size=(40, 35))
    flat = heinz.PairBasis(la, mu, x).take(np.repeat(np.arange(40), 35))
    stacked = heinz.power_pair_sv(flat, s.ravel()).reshape(40, 35, n)
    assert _same_bits(stacked, [heinz.power_pair_sv(heinz.PairBasis(la[i], mu[i], x[i]), s[i]) for i in range(40)])


def _pair(seed: int, n: int, cond: float = 50.0):
    rng = matcore.Rng(seed)
    a = matcore.random_posdef(n, cond, rng.substream(0))
    b = matcore.random_posdef(n, cond, rng.substream(1))
    return a, b, matcore.random_probe_matrix(n, rng.substream(2))


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5, 0.75, 0.9])
def test_quadrature_member_is_the_per_row_dot(n, alpha):
    # The mean member is the nested Clenshaw-Curtis sum of the norms of its
    # own nodes, in node order, at the first level whose mean passes the
    # QUAD_RTOL test (each of these does by 65 points; an unconverged one
    # splits, see test_quadrature): the nodes 0, top and top/2 are H at the
    # chain's exponents 1, alpha and the midpoint map.
    basis = heinz.pair_basis(*_pair(90 + n, n))
    regime = 1 if alpha <= 0.5 else 2
    lo, hi = (0.0, alpha) if regime == 1 else (alpha, 1.0)
    mid = 0.5 * alpha if regime == 1 else 0.5 * (1.0 + alpha)
    levels, top = heinz.QUAD_LEVELS, heinz.QUAD_LEVELS[-1]
    pts = 0.5 * (lo + hi) + 0.5 * (hi - lo) * heinz._rule()[0]
    pts[[0, top, top // 2]] = (1.0, alpha, mid)
    rows = norms_from_sv(heinz.power_pair_sv(basis, pts), KINDS).tolist()
    members = heinz.kittaneh_members(basis, alpha, regime, KINDS)
    for got, row in zip(members.tolist(), rows):
        means = [_rule_sum(row, level) for level in levels]
        j = next(j for j in range(1, len(levels)) if abs(means[j] - means[j - 1]) <= heinz.QUAD_RTOL * abs(means[j]))
        v_sum, v_alpha, v_mid = row[0], row[top], row[top // 2]
        assert got == [v_sum, 0.5 * v_sum + 0.5 * v_alpha, means[j], v_mid, v_alpha]


def test_stacked_chains_equal_per_instance_calls():
    # Pairs that stop at 17, 33 and 65 points, with degenerate and
    # near-degenerate intervals, in one stack: each chain has the bits of
    # its own call, in every norm.
    alphas = np.array([0.0, 1e-11, 0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 1.0 - 1e-11, 1.0] * 2)
    conds = np.repeat([10.0, 1e12], 11)
    pairs = [_pair(700 + i, 4, cond) for i, cond in enumerate(conds)]
    a, b, x = (np.stack(m) for m in zip(*pairs))
    stacked = heinz.kittaneh_chain(a, b, x, alphas, KINDS)
    for i, alpha in enumerate(alphas):
        for kind, stack in zip(KINDS, stacked):
            (one,) = heinz.kittaneh_chain(*pairs[i], alpha, (kind,))
            assert stack.values[i].tobytes() == one.values.tobytes(), (i, kind.label)
    ts, rs = np.resize([-1.0, 0.5, 2.0], 22), np.resize([0.5, 0.75, 1.0, 1.25, 1.5, 1.0 + 1e-12], 22)
    stacked = cpr.zhan_chain(a, b, x, cpr.ZhanParams(ts, rs), KINDS)
    for i in range(22):
        for kind, stack in zip(KINDS, stacked):
            (one,) = cpr.zhan_chain(*pairs[i], cpr.ZhanParams(ts[i], rs[i]), (kind,))
            assert stack.values[i].tobytes() == one.values.tobytes(), (i, kind.label)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_final_cor_powers_are_python_float_powers(n):
    rng = matcore.Rng(95 + n)
    s, x = matcore.random_invertible(n, 100.0, rng.substream(0)), matcore.random_probe_matrix(n, rng.substream(1))
    ps = (1.0, 1.5, 2.0, 3.0, 4.5)
    d = matcore.invertible_svd(s)
    sig, u, v = d.singular_values, d.left, d.right
    sv = heinz.sandwich_sv([heinz.rotate(sig, v, sig, v, x), heinz.rotate(sig, u, sig, u, x)], 0.0)
    kinds = tuple(NormKind.schatten(p) for p in ps)
    rows = norms_from_sv(np.stack((sv[0, 0], sv[0, 1], sv[1, 0])), kinds).tolist()
    for p, rep, (n1, n2, n_x) in zip(ps, cpr.final_cor_check(s, x, ps)[1:], rows):
        assert rep.values.tolist() == [n1**p + n2**p, 2.0 ** (p + 1.0) * n_x**p]
