"""Kernel tests: decompositions, fractional powers, samplers, algebra."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from normlab import classes, conjecture, matcore
from normlab.errors import (
    DimensionMismatch,
    InvalidParams,
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


def test_one_finite_entries_check_raises_invalid_params():
    # as_matrices owns the check, for one matrix or a stack of any depth,
    # and the conjecture's PSD test calls it.
    bad = np.full((2, 3, 2, 2), 1.0)
    bad[1, 2, 0, 1] = np.nan
    for call in (matcore.as_matrix, matcore.as_matrices, conjecture.psd_check):
        with pytest.raises(InvalidParams, match="^matrix entries must be finite$"):
            call(bad[1, 2] if call is matcore.as_matrix else bad)
    assert matcore.as_matrices(np.eye(2)[None, None]).shape == (1, 1, 2, 2)
    # A complex stack passes through without a copy.
    c = np.eye(2, dtype=complex)[None]
    assert matcore.as_matrices(c) is c
    with pytest.raises(DimensionMismatch):
        conjecture.psd_check(np.ones(3))


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


@pytest.mark.parametrize("scale", [1e300, 1e160, 1.0])
def test_require_hermitian_near_the_float_range(scale):
    # A matrix is divided by its largest entry before the Frobenius norms, so
    # near the float range they neither overflow nor hide the gap from the
    # adjoint, and no overflow warning is raised.
    upper = scale * np.array([[1.0, 1.0], [0.0, 1.0]])
    hermitian = scale * np.array([[1.0, 1j], [-1j, 0.5]])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NotHermitian):
            matcore.require_hermitian(upper)
        with pytest.raises(NotHermitian):
            matcore.require_hermitian(np.stack([hermitian, upper]))
        with pytest.raises(NotHermitian):
            matcore.herm_eigen(upper)
        matcore.require_hermitian(hermitian)
        matcore.require_hermitian(np.stack([hermitian, np.zeros((2, 2))]))


def test_require_hermitian_gap_is_absolute_below_norm_one():
    # The tolerance is relative to max(1, |A|): below norm 1 the gap itself
    # is held to HERMITICITY_RTOL, down to subnormal entries.
    gap = np.array([[0.0, 1.0], [0.0, 0.0]])
    matcore.require_hermitian(0.5 * matcore.HERMITICITY_RTOL * gap)
    matcore.require_hermitian(1e-310 * gap)
    with pytest.raises(NotHermitian):
        matcore.require_hermitian(2.0 * matcore.HERMITICITY_RTOL * gap)


def _arithmetic_verdict(a):
    """require_hermitian's Frobenius-gap test written out, without its
    exact-equality shortcut: "square", "hermitian" or "not hermitian"."""
    a = np.asarray(a)
    if a.shape[-2] != a.shape[-1]:
        return "square"
    peak = np.maximum(1.0, np.abs(a).max(axis=(-2, -1), initial=0.0))
    a = a / peak[..., None, None]
    gap = np.linalg.norm(a - a.conj().swapaxes(-2, -1), axis=(-2, -1))
    bad = gap > matcore.HERMITICITY_RTOL * np.maximum(1.0 / peak, np.linalg.norm(a, axis=(-2, -1)))
    return "not hermitian" if np.any(bad) else "hermitian"


def _verdict(a):
    try:
        matcore.require_hermitian(a)
    except DimensionMismatch:
        return "square"
    except NotHermitian:
        return "not hermitian"
    return "hermitian"


def test_require_hermitian_exact_path_keeps_every_verdict():
    # A stack equal to its adjoint passes without the norms; every other
    # stack takes the norms, so each verdict is the arithmetic test's.
    z = matcore.ginibre(4, rng=matcore.substreams(140, np.zeros((1, 0), dtype=int), range(6)))
    h = 0.5 * (z + z.conj().swapaxes(-2, -1))
    sampled = matcore.random_posdef(4, 50.0, matcore.Rng(141))
    c = conjecture.build_conj_matrix([[1.0, -2.0, 3.0], [0.5, 4.0, -0.25]], 1.0)
    for exact in (h, sampled, c):
        assert np.array_equal(exact, exact.conj().swapaxes(-2, -1))
    unit = np.zeros((4, 4), dtype=complex)
    unit[0, 1] = 1.0

    def perturbed(a, factor):
        # Gap sqrt(2)|delta| against factor times the tolerance.
        peak = max(1.0, np.abs(a).max())
        scale = max(1.0, np.linalg.norm(a / peak)) * peak
        return a + factor * matcore.HERMITICITY_RTOL * scale / np.sqrt(2.0) * unit

    inside, outside = perturbed(h[0], 0.9), perturbed(h[0], 1.1)
    one_bad = h.copy()
    one_bad[3] = perturbed(h[3], 1.1)
    cases = {
        "exact stack": (h, "hermitian"),
        "sampled": (sampled, "hermitian"),
        "conjecture C": (c, "hermitian"),
        "just inside": (inside, "hermitian"),
        "just outside": (outside, "not hermitian"),
        "near 1e300 exact": (1e300 * h, "hermitian"),
        "near 1e300 inside": (perturbed(1e300 * h[1], 0.9), "hermitian"),
        "near 1e300 outside": (perturbed(1e300 * h[1], 1.1), "not hermitian"),
        "one bad member": (one_bad, "not hermitian"),
        "non-square": (z[:, :3], "square"),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for name, (a, want) in cases.items():
            assert _verdict(a) == _arithmetic_verdict(a) == want, name


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
    for rng, key in zip(rngs, golden):
        assert np.array_equal(rng.generator().bit_generator.state["state"]["key"], key)
        # substreams keys a path as its prefix and last index.
        if rng.path:
            streams = matcore.substreams(rng.seed, [list(rng.path[:-1])], [rng.path[-1]])
            assert streams.keys.dtype == np.uint64 and np.array_equal(streams.keys, [key])


_PREFIXES = st.lists(st.one_of(st.integers(0, 2**32 + 1), st.integers(0, 2**64)), max_size=3)


@settings(max_examples=60, deadline=None)
@example(seed=0, prefix=[2**63 - 3], rows=4, indices=[0])
@example(seed=1, prefix=[], rows=1, indices=[2**63 - 1, 2**63])
@given(
    seed=st.one_of(st.integers(0, 2**32 + 1), st.integers(0, 2**200)),
    prefix=_PREFIXES,
    rows=st.integers(1, 4),
    indices=st.lists(st.one_of(st.integers(0, 300), st.integers(0, 2**40)), min_size=1, max_size=5),
)
def test_substreams_key_every_prefix_and_index(seed, prefix, rows, indices):
    # Prefix-major: every prefix row, then every index under it, each keyed
    # as SeedSequence keys that path alone.
    prefixes = [[p + r for p in prefix] for r in range(rows)]
    streams = matcore.substreams(seed, prefixes if prefix else np.zeros((rows, 0), dtype=int), indices)
    paths = [tuple(p) + (i,) for p in prefixes for i in indices]
    assert len(streams.keys) == len(paths)
    assert [tuple(path) for path in streams.paths.tolist()] == paths
    refs = [np.random.SeedSequence(seed, spawn_key=path).generate_state(2, np.uint64) for path in paths]
    assert streams.keys.dtype == np.uint64 and np.array_equal(streams.keys, refs)


@pytest.mark.parametrize("seed", [2**128, 2**200 - 1, 3 * 2**640 + 5], ids=["5-words", "7-words", "21-words"])
@pytest.mark.parametrize("width", [0, 1, 3])
def test_substreams_key_seeds_past_four_words(seed, width):
    # The seed words past the fourth are taken in after the pool is mixed,
    # each at its own position, before the prefix words.
    prefixes = np.arange(2 * width).reshape(2, width) + 7
    streams = matcore.substreams(seed, prefixes, [0, 5, 2**32 - 1])
    refs = [np.random.SeedSequence(seed, spawn_key=path).generate_state(2, np.uint64) for path in streams.paths.tolist()]
    assert np.array_equal(streams.keys, refs)


@pytest.mark.parametrize("cond", [0.5, -1.0, float("nan"), float("inf")])
@pytest.mark.parametrize(
    "sampler",
    [
        matcore.random_posdef,
        matcore.random_selfadjoint_invertible,
        matcore.random_invertible,
        matcore.random_normal_invertible,
        matcore.random_scaled_selfadjoint,
    ],
)
def test_samplers_refuse_a_cond_outside_their_domain(sampler, cond):
    with pytest.raises(InvalidParams, match=f"cond must be finite and >= 1, got {cond}$"):
        sampler(3, cond, matcore.Rng(0))


def test_stream_keys_edges():
    empty = matcore.substreams(0, np.zeros((0, 2), dtype=int), [0, 1])
    assert empty.keys.shape == (0, 2)
    with pytest.raises(ValueError):
        matcore.ginibre(2, rng=empty)
    # A sampler takes one Rng or a Streams, not a list of Rngs.
    for rngs in ([], [matcore.Rng(0)], [matcore.Rng(0), matcore.Rng(1)]):
        with pytest.raises(TypeError):
            matcore.ginibre(2, rng=rngs)
        with pytest.raises(TypeError):
            matcore.random_posdef(2, 10.0, rngs)
    with pytest.raises(ValueError):
        matcore.substreams(0, [1, 2], [0])
    with pytest.raises(ValueError):
        matcore.substreams(0, [[1, -2]], [0])
    for seed, prefix, index in ((-1, (), 0), (1, (2,), -3)):
        with pytest.raises(ValueError):
            matcore.substreams(seed, np.array([prefix], dtype=int), [index])
        with pytest.raises(ValueError):
            np.random.SeedSequence(seed, spawn_key=prefix + (index,))


def test_philox_keys_an_rng_or_streams_and_one_generator():
    # An Rng's key is the one its generator starts with; philox gives the
    # keys in stream order and a generator at the first of them.
    for seed, path, key in _GOLDEN_KEYS:
        rng = matcore.Rng(seed, path)
        assert rng.key.dtype == np.uint64 and np.array_equal(rng.key, key)
        keys, g = matcore.philox(rng)
        assert keys == [list(key)]
        assert np.array_equal(g.random(7), rng.generator().random(7))
    streams = matcore.substreams(3, [(1,), (2,)], [0, 4])
    keys, g = matcore.philox(streams)
    assert keys == streams.keys.tolist()
    assert np.array_equal(g.random(5), matcore.Rng(3, (1, 0)).generator().random(5))
    assert matcore.philox(streams[:0]) == ([], None)
    with pytest.raises(TypeError):
        matcore.philox([matcore.Rng(0)])


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


# Every public sampler, each taking (n, rng): one form of each family for
# sample_for_form.
_SAMPLERS = {
    "haar_unitary": matcore.haar_unitary,
    "random_posdef": lambda n, rng: matcore.random_posdef(n, 50.0, rng),
    "random_selfadjoint_invertible": lambda n, rng: matcore.random_selfadjoint_invertible(n, 1e4, rng),
    "random_invertible": lambda n, rng: matcore.random_invertible(n, 100.0, rng),
    "random_normal_invertible": lambda n, rng: matcore.random_normal_invertible(n, 100.0, rng),
    "random_scaled_unitary": matcore.random_scaled_unitary,
    "random_scaled_reflection": matcore.random_scaled_reflection,
    "random_scaled_selfadjoint": lambda n, rng: matcore.random_scaled_selfadjoint(n, 30.0, rng),
    "ginibre": lambda n, rng: matcore.ginibre(n, rng=rng),
    "ginibre_rectangular": lambda n, rng: matcore.ginibre(n, n + 2, rng=rng),
    "random_probe_matrix": matcore.random_probe_matrix,
    **{
        f"sample_for_form[{family}]": lambda n, rng, form=form: classes.sample_for_form(form, n, rng, 40.0)
        for family, form in {f.family: fid for fid, f in classes.FORMS.items()}.items()
    },
}


@pytest.mark.parametrize("name", sorted(_SAMPLERS))
@pytest.mark.parametrize("n", [1, 2, 5])
@pytest.mark.parametrize("m", [1, 2, 129])
def test_sampler_stacks_equal_single_calls(name, n, m):
    # The m streams keyed by substreams give the m single calls bit for
    # bit, and so does any slice of them.
    sample = _SAMPLERS[name]
    rngs = [matcore.Rng(9, (3, i, 1)) for i in range(m)]
    singles = np.stack([sample(n, rng) for rng in rngs])
    streams = matcore.substreams(9, [(3, i) for i in range(m)], [1])
    stacked = sample(n, streams)
    assert stacked.shape == singles.shape and stacked.tobytes() == singles.tobytes()
    assert sample(n, streams[m // 2 :]).tobytes() == singles[m // 2 :].tobytes()


def test_probe_falls_back_to_ginibre_at_n1():
    # At n = 1 a rank-one pick (0) draws the normals of a Ginibre entry, as
    # the dense picks (3) do; a Hermitian pick (1) takes the real part and
    # a unitary pick (2) the phase.
    rngs = [matcore.Rng(4).substream(i) for i in range(129)]
    stacked = matcore.random_probe_matrix(1, matcore.substreams(4, np.zeros((1, 0), dtype=int), range(129)))
    picks = set()
    for rng, x in zip(rngs, stacked):
        g = rng.generator()
        pick = int(g.integers(0, 4))
        w = g.standard_normal((2, 1, 1))
        z = (w[0] + 1j * w[1]) / np.sqrt(2.0)
        want = {0: z, 1: z.real + 0j, 2: z / np.abs(z), 3: z}[pick]
        assert np.allclose(x, want, rtol=1e-15, atol=0.0), pick
        picks.add(pick)
    assert picks == {0, 1, 2, 3}
