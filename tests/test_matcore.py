"""Kernel tests: decompositions, fractional powers, samplers, algebra."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normlab import matcore
from normlab.errors import (
    DimensionMismatch,
    NotHermitian,
    NotPositiveDefinite,
    Singular,
)


def test_as_matrix_rejects_bad_input():
    with pytest.raises(DimensionMismatch):
        matcore.as_matrix(np.zeros(3))
    with pytest.raises(DimensionMismatch):
        matcore.as_matrix(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        matcore.as_matrix(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        matcore.as_matrix(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_as_matrix_accepts_noncontiguous_views():
    # conj().T of a complex array is a strided view; validation must not
    # depend on memory layout.
    z = matcore.ginibre(4, rng=matcore.Rng(0))
    out = matcore.as_matrix(z.conj().T)
    assert np.array_equal(out, z.conj().T)


def test_herm_eigen_hand_values():
    dec = matcore.herm_eigen(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(dec.eigenvalues, [1.0, 2.0, 3.0], atol=1e-14)
    dec = matcore.herm_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(dec.eigenvalues, [1.0, 3.0], atol=1e-12)


def test_herm_eigen_reconstruction():
    z = matcore.ginibre(6, rng=matcore.Rng(11))
    a = 0.5 * (z + z.conj().T)
    dec = matcore.herm_eigen(a)
    q = dec.vectors
    recon = (q * dec.eigenvalues) @ q.conj().T
    scale = max(1.0, np.linalg.norm(a))
    assert np.linalg.norm(recon - a) <= 1e-10 * scale
    assert np.linalg.norm(q.conj().T @ q - np.eye(6)) <= 1e-10
    assert np.all(np.diff(dec.eigenvalues) >= 0)


def test_herm_eigen_rejects_nonhermitian():
    with pytest.raises(NotHermitian):
        matcore.herm_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_svd_hand_values():
    assert np.allclose(matcore.svd(np.diag([-2.0, 1.0])).singular_values, [2.0, 1.0])
    assert np.allclose(matcore.svd(np.ones((2, 2))).singular_values, [2.0, 0.0], atol=1e-14)
    assert np.allclose(matcore.svd(np.zeros((3, 3))).singular_values, 0.0)


def test_svd_reconstruction_and_gram_consistency():
    a = matcore.ginibre(5, rng=matcore.Rng(3))
    dec = matcore.svd(a)
    recon = (dec.left * dec.singular_values) @ dec.right.conj().T
    assert np.linalg.norm(recon - a) <= 1e-10 * max(1.0, np.linalg.norm(a))
    gram_eigs = np.linalg.eigvalsh(a.conj().T @ a)[::-1]
    assert np.allclose(dec.singular_values, np.sqrt(np.clip(gram_eigs, 0, None)), rtol=1e-9)
    assert np.all(np.diff(dec.singular_values) <= 0)


def test_frac_power_hand_values():
    p = np.diag([4.0, 9.0])
    assert np.allclose(matcore.frac_power(p, 0.5), np.diag([2.0, 3.0]), atol=1e-13)
    q = matcore.random_posdef(4, 10.0, matcore.Rng(5))
    assert np.allclose(matcore.frac_power(q, 0.0), np.eye(4), atol=1e-13)
    assert np.linalg.norm(matcore.frac_power(q, 1.0) - q) <= 1e-12 * np.linalg.norm(q)


def test_frac_power_rejects_non_posdef():
    with pytest.raises(NotPositiveDefinite):
        matcore.frac_power(np.diag([1.0, -1.0]), 0.5)
    with pytest.raises(NotPositiveDefinite):
        matcore.frac_power(np.diag([1.0, 0.0]), 0.5)
    with pytest.raises(NotHermitian):
        matcore.frac_power(np.array([[1.0, 1.0], [0.0, 1.0]]), 0.5)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    s=st.floats(-2.0, 2.0),
    t=st.floats(-2.0, 2.0),
)
def test_frac_power_semigroup(seed, s, t):
    p = matcore.random_posdef(4, 100.0, matcore.Rng(seed))
    lhs = matcore.frac_power(p, s) @ matcore.frac_power(p, t)
    rhs = matcore.frac_power(p, s + t)
    assert np.linalg.norm(lhs - rhs) <= 1e-9 * max(1.0, np.linalg.norm(rhs))


def test_frac_power_inverse_consistency():
    p = matcore.random_posdef(5, 50.0, matcore.Rng(8))
    lhs = matcore.inverse(matcore.frac_power(p, 1.0))
    rhs = matcore.frac_power(p, -1.0)
    assert np.linalg.norm(lhs - rhs) <= 1e-9 * np.linalg.norm(rhs)


def test_polar_abs():
    assert np.allclose(matcore.polar_abs(np.diag([-2.0, 1.0])), np.diag([2.0, 1.0]), atol=1e-13)
    a = matcore.ginibre(4, rng=matcore.Rng(21))
    absa = matcore.polar_abs(a)
    assert np.allclose(absa, absa.conj().T)
    assert np.linalg.norm(absa @ absa - a.conj().T @ a) <= 1e-10 * np.linalg.norm(a) ** 2


def test_haar_unitary():
    u1 = matcore.haar_unitary(1, matcore.Rng(0))
    assert abs(abs(u1[0, 0]) - 1.0) <= 1e-12
    u = matcore.haar_unitary(4, matcore.Rng(1))
    assert np.linalg.norm(u.conj().T @ u - np.eye(4)) <= 1e-10
    again = matcore.haar_unitary(4, matcore.Rng(1))
    assert np.array_equal(u, again)
    other = matcore.haar_unitary(4, matcore.Rng(1).substream(0))
    assert not np.array_equal(u, other)


def test_random_posdef():
    a = matcore.random_posdef(5, 100.0, matcore.Rng(2))
    assert np.allclose(a, a.conj().T)
    eigs = np.linalg.eigvalsh(a)
    assert eigs[0] > 0
    assert eigs[-1] / eigs[0] <= 100.0 + 1e-6
    ident = matcore.random_posdef(4, 1.0, matcore.Rng(3))
    assert np.allclose(ident, np.eye(4), atol=1e-12)


def test_random_selfadjoint_invertible():
    s = matcore.random_selfadjoint_invertible(3, 100.0, matcore.Rng(4))
    assert np.allclose(s, s.conj().T)
    eigs = np.linalg.eigvalsh(s)
    assert np.min(np.abs(eigs)) >= 1.0 / np.sqrt(100.0) - 1e-9


def test_random_invertible_spectrum():
    a = matcore.random_invertible(5, 100.0, matcore.Rng(6))
    sv = np.linalg.svd(a, compute_uv=False)
    assert sv[0] <= np.sqrt(100.0) * (1 + 1e-9)
    assert sv[-1] >= 1.0 / np.sqrt(100.0) * (1 - 1e-9)
    assert np.array_equal(a, matcore.random_invertible(5, 100.0, matcore.Rng(6)))


def test_random_normal_invertible_is_normal():
    s = matcore.random_normal_invertible(4, 100.0, matcore.Rng(7))
    comm = s @ s.conj().T - s.conj().T @ s
    assert np.linalg.norm(comm) <= 1e-10 * np.linalg.norm(s) ** 2
    assert np.min(np.abs(np.linalg.eigvals(s))) > 0


def test_random_scaled_unitary_and_reflection():
    s = matcore.random_scaled_unitary(4, matcore.Rng(9))
    c2 = np.trace(s.conj().T @ s).real / 4.0
    assert np.allclose(s.conj().T @ s, c2 * np.eye(4), atol=1e-10 * c2)

    refl = matcore.random_scaled_reflection(4, matcore.Rng(10))
    sq = refl @ refl
    scale = np.trace(sq) / 4.0
    assert np.allclose(sq, scale * np.eye(4), atol=1e-10 * abs(scale))


def test_inverse():
    assert np.allclose(matcore.inverse(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))
    a = matcore.random_invertible(5, 1000.0, matcore.Rng(12))
    assert np.linalg.norm(matcore.inverse(a) @ a - np.eye(5)) <= 1e-9 * np.linalg.cond(a)
    with pytest.raises(Singular):
        matcore.inverse(np.outer([1.0, 1.0], [1.0, 1.0]))


def test_basic_algebra():
    assert np.allclose(matcore.direct_sum(np.diag([1.0]), np.diag([2.0])), np.diag([1.0, 2.0]))
    ds = matcore.direct_sum(np.ones((1, 2)), np.ones((2, 1)))
    assert ds.shape == (3, 3)


def test_rng_substream_scheme():
    base = matcore.Rng(17)
    assert base.substream(3) == matcore.Rng(17, (3,))
    a = matcore.ginibre(3, rng=base.substream(0))
    b = matcore.ginibre(3, rng=base.substream(1))
    assert not np.array_equal(a, b)
    assert np.array_equal(a, matcore.ginibre(3, rng=matcore.Rng(17).substream(0)))


# Philox keys written down from numpy 2.4.6's SeedSequence(seed,
# spawn_key=path).generate_state(2, np.uint64): the streams of every
# recorded run depend on them, so a numpy that derives other keys fails here
# even though the in-test SeedSequence comparisons would drift with it.
_GOLDEN_KEYS = [
    (0, (), (0xDB2CD7E7B0F478BE, 0xABF4641A2C71BA49)),
    (1, (0,), (0x7503EF9461D5F260, 0x4AC95C404FEA20F8)),
    (2**32 - 1, (3, 5), (0x9F1CEBC274AABE4B, 0xF5E69EDC9AB1B5D2)),
    (2**32, (2**32,), (0x49AC6994124A57AB, 0x7A195D48AE843E11)),
    (2**64 + 3, (), (0x86BBA298D55232DE, 0xA38C2F466A49AEF2)),
    (2**64 + 3, (1, 2, 3, 4), (0x8B0240DBAED6D8EE, 0x8B007EDA48E90CE9)),
    (1, (0, 1), (0x9433EB60B114766A, 0xE7B462034A0D1F63)),
    (7, (2**32 + 5, 0, 2**64 - 1), (0x9C2F90A43293AF9B, 0xF26CAC7FE2B408C5)),
]


def test_stream_keys_golden():
    rngs = [matcore.Rng(seed, path) for seed, path, _ in _GOLDEN_KEYS]
    golden = np.array([key for *_, key in _GOLDEN_KEYS], dtype=np.uint64)
    keys = matcore.stream_keys(rngs)
    assert keys.dtype == np.uint64 and keys.shape == (len(rngs), 2)
    assert np.array_equal(keys, golden)
    for rng, key in zip(rngs, golden):
        assert np.array_equal(rng.generator().bit_generator.state["state"]["key"], key)
        assert np.array_equal(matcore.stream_keys([rng])[0], key)


_SEEDS = st.one_of(st.integers(0, 2**32 + 1), st.integers(0, 2**200), st.sampled_from([0, 2**32 - 1, 2**64 + 3]))
_PATHS = st.lists(st.one_of(st.integers(0, 2**32 + 1), st.integers(0, 2**64)), max_size=4).map(tuple)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.tuples(_SEEDS, _PATHS), min_size=1, max_size=6))
def test_stream_keys_match_seed_sequence(rows):
    # Mixed seeds and path lengths share one batch; every row is keyed as
    # SeedSequence keys it alone.
    keys = matcore.stream_keys([matcore.Rng(seed, path) for seed, path in rows])
    for (seed, path), key in zip(rows, keys):
        ref = np.random.SeedSequence(seed, spawn_key=path).generate_state(2, np.uint64)
        assert np.array_equal(key, ref), (seed, path)


def test_stream_keys_edges():
    assert matcore.stream_keys([]).shape == (0, 2)
    for bad in (matcore.Rng(-1), matcore.Rng(1, (2, -3))):
        with pytest.raises(ValueError):
            matcore.stream_keys([matcore.Rng(0), bad])
        with pytest.raises(ValueError):
            np.random.SeedSequence(bad.seed, spawn_key=bad.path)


def test_random_probe_matrix_branches():
    # With enough substreams every branch of the mixture shows up:
    # rank-one (a single unit entry), Hermitian, unitary, dense Gaussian.
    seen_rank_one = seen_hermitian = seen_unitary = False
    for i in range(40):
        x = matcore.random_probe_matrix(3, matcore.Rng(100).substream(i))
        assert x.shape == (3, 3)
        nz = np.count_nonzero(x)
        if nz == 1 and np.isclose(np.abs(x).sum(), 1.0):
            seen_rank_one = True
        elif np.allclose(x, x.conj().T):
            seen_hermitian = True
        elif np.allclose(x.conj().T @ x, np.eye(3), atol=1e-10):
            seen_unitary = True
    assert seen_rank_one and seen_hermitian and seen_unitary
