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


@pytest.mark.parametrize("nodes", [8, 32])
def test_stacked_quadrature_matches_per_row_dot(nodes):
    # kittaneh_members takes each pair's quadrature sum in one matmul of
    # (K, m, 1, N) rows against (m, N, 1) weights: numpy's dot per pair.
    g = np.random.default_rng(nodes)
    vals = g.uniform(0.0, 10.0, size=(3, STACK, nodes))
    w = g.uniform(0.0, 1.0, size=(STACK, nodes))
    stacked = (vals[:, :, None, :] @ w[:, :, None])[..., 0, 0]
    assert _same_bits(stacked, [[np.dot(w[i], vals[k, i]) for i in range(STACK)] for k in range(3)])


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


def _pair(seed: int, n: int):
    rng = matcore.Rng(seed)
    a = matcore.random_posdef(n, 50.0, rng.substream(0))
    b = matcore.random_posdef(n, 50.0, rng.substream(1))
    return a, b, matcore.random_probe_matrix(n, rng.substream(2))


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("alpha", [0.1, 0.25, 0.5, 0.75, 0.9])
def test_quadrature_member_is_the_per_row_dot(n, alpha):
    # The stacked quadrature must stay numpy's dot of the node weights with
    # each row of norms; an einsum or a gemv rounds apart.
    basis = heinz.pair_basis(*_pair(90 + n, n))
    regime = 1 if alpha <= 0.5 else 2
    lo, hi = (0.0, alpha) if regime == 1 else (alpha, 1.0)
    mid = 0.5 * alpha if regime == 1 else 0.5 * (1.0 + alpha)
    pts, w = heinz.gauss_legendre_nodes(lo, hi, heinz.DEFAULT_NODES)
    rows = norms_from_sv(heinz.power_pair_sv(basis, np.concatenate(([1.0, alpha, mid], pts))), KINDS)
    members = heinz.kittaneh_members(basis, alpha, regime, KINDS, heinz.DEFAULT_NODES)
    for got, row in zip(members.tolist(), rows):
        v_sum, v_alpha, v_mid = row[:3].tolist()
        assert got == [v_sum, 0.5 * v_sum + 0.5 * v_alpha, float(np.dot(w, row[3:]) / (hi - lo)), v_mid, v_alpha]


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
