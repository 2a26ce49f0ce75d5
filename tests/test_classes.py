"""Multiplier-class machinery: the spectral criterion, the eigenbasis
representation, the ratio probe, and the characterization forms."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normlab import classes, conjecture, heinz, matcore
from normlab.chains import DEFAULT_TOL
from normlab.classes import EQUALITY_FORMS, FORMS
from normlab.errors import DimensionMismatch, InvalidK, InvalidParams, NotHermitian, NotPSD, Singular, ZeroEigenvalue
from normlab.norms import OP, NormKind, norm, stack_norms


def test_phi_identity():
    x = matcore.ginibre(3, rng=matcore.Rng(110))
    for k in (0.0, 0.5, 2.0):
        got = classes.phi(np.eye(3), k, x)
        assert np.allclose(got, (2.0 + k) * x, atol=1e-13 * np.abs(x).max())


def test_phi_signature_flip():
    # diag(1,-1) conjugation negates the off-diagonal entry on both sides.
    s = np.diag([1.0, -1.0])
    x = np.array([[0.0, 1.0], [0.0, 0.0]])
    for k in (0.0, 1.0):
        got = classes.phi(s, k, x)
        assert np.allclose(got, (k - 2.0) * x, atol=1e-14)


def test_phi_rejects_singular():
    with pytest.raises(Singular):
        classes.phi(np.diag([1.0, 0.0]), 0.0, np.eye(2))


def test_spectral_test_hand_cases():
    res = classes.constraint_check([1.0, 2.0], 0.0)
    assert res.ok
    assert res.min_value == pytest.approx(2.5, abs=1e-14)
    assert res.threshold == 2.0

    res = classes.constraint_check([1.0, -1.0], 1.0)
    assert not res.ok
    assert res.min_value == pytest.approx(1.0, abs=1e-14)

    # k = 0 puts opposite-sign pairs exactly on the boundary.
    res = classes.constraint_check([1.0, -1.0], 0.0)
    assert res.ok
    assert res.min_value == 2.0


def test_constraint_ratio_beyond_the_float_range_takes_its_limit():
    # 1e200 / 1e-200 overflows to inf and its inverse underflows to 0, so
    # both pairs' values are inf: no warning, and the criterion holds.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = classes.constraint_check([1e200, 1e-200], 1.0)
        assert (res.ok, res.min_value, res.pair) == (True, np.inf, (0, 1))
        res = classes.constraint_check([[1e200, 1e-200], [1.0, -1.0]], 1.0)
        assert res.ok.tolist() == [True, False] and res.min_value.tolist() == [np.inf, 1.0]


def test_spectral_test_validation():
    with pytest.raises(ZeroEigenvalue):
        classes.constraint_check([1.0, 0.0], 0.0)
    with pytest.raises(ValueError):
        classes.constraint_check([], 0.0)
    with pytest.raises(ValueError):
        classes.constraint_check(1.0, 0.0)
    # The criterion is defined for every real k; only the conjecture
    # restricts k to [0, 2].
    assert classes.constraint_check([1.0, 2.0], -0.5).ok


def _all_pairs_ok(eigs, k):
    """The criterion over every pair, self-pairs included, as a 1-D
    all-pairs test wrote it out."""
    eigs = np.asarray(eigs, dtype=float)
    ratio = np.divide.outer(eigs, eigs)
    return bool(np.all(np.abs(ratio + 1.0 / ratio + k) >= k + 2.0 - classes.SPECTRAL_SLACK))


@pytest.mark.parametrize("k", [-3.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.7, 10.0])
def test_constraint_check_equals_all_pairs_test(k):
    # Masking the self-pairs never changes the verdict: |2 + k| >= k + 2
    # for every real k.  For k <= 0 every spectrum passes.
    g = matcore.Rng(124).generator()
    verdicts = set()
    for n in range(1, 9):
        lams = 10.0 ** g.uniform(-2.0, 2.0, size=(200, n)) * np.where(g.random((200, n)) < 0.5, -1.0, 1.0)
        # Opposite-sign pairs of equal magnitude sit on the k = 0 boundary.
        lams[:20, -1] = -lams[:20, 0]
        want = [_all_pairs_ok(lam, k) for lam in lams]
        assert [classes.constraint_check(lam, k).ok for lam in lams] == want
        assert classes.constraint_check(lams, k).ok.tolist() == want
        verdicts.update(want)
    assert verdicts == ({True, False} if k > 0.0 else {True})


def _masked_argmin(lams, k):
    """min_value and pair of the criterion as a masked all-pairs argmin
    writes them out: every pair's weight, the self-pairs masked with inf,
    the first minimum in row-major order (a singleton's only pair is then
    its self-pair)."""
    lams = np.asarray(lams, dtype=float)
    n = lams.shape[-1]
    ratio = lams[..., :, None] / lams[..., None, :]
    vals = np.abs(ratio + 1.0 / ratio + k).reshape(lams.shape[:-1] + (n * n,))
    flat = np.argmin(np.where(np.eye(n, dtype=bool).ravel(), np.inf, vals), axis=-1)
    return np.take_along_axis(vals, flat[..., None], axis=-1)[..., 0], np.divmod(flat, n)


@pytest.mark.parametrize("k", [-3.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.7, 10.0])
def test_constraint_check_pins_min_value_and_pair(k):
    # The criterion forms only the off-diagonal pairs; its minimum and the
    # pair that attains it are those of the masked n x n argmin, bit for
    # bit, on single spectra and on (m, b, n) stacks alike.
    g = matcore.Rng(125).generator()
    for n in range(1, 9):
        lams = 10.0 ** g.uniform(-2.0, 2.0, size=(200, n)) * np.where(g.random((200, n)) < 0.5, -1.0, 1.0)
        if n > 1:
            # Opposite-sign ties ((0, n-1) against (n-1, 0)), and equal
            # entries, whose pairs tie with the masked self-pairs.
            lams[:40, -1] = -lams[:40, 0]
            lams[40:80, 1] = lams[40:80, 0]
        want_min, (want_i, want_j) = _masked_argmin(lams, k)
        for lam, m, i, j in list(zip(lams, want_min, want_i, want_j))[::10]:
            res = classes.constraint_check(lam, k)
            assert (res.min_value, res.pair) == (m, (i, j)) and type(res.min_value) is float
        for shape in ((200,), (20, 10)):
            res = classes.constraint_check(lams.reshape(shape + (n,)), k)
            assert res.min_value.dtype == np.float64 and res.min_value.shape == shape
            assert np.array_equal(res.min_value.ravel(), want_min)
            assert np.array_equal(res.pair[0].ravel(), want_i) and np.array_equal(res.pair[1].ravel(), want_j)
            assert np.array_equal(res.ok.ravel(), want_min >= k + 2.0 - classes.SPECTRAL_SLACK)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def _argmin_constraint(lams, k):
    """min_value and pair as an argmin over the off-diagonal pairs alone
    finds them: the first minimum in row-major order and its value (a
    singleton's only pair is its self-pair).  Unlike _masked_argmin, it
    never lands on a masked self-pair when every pair's value is inf."""
    lams = np.asarray(lams, dtype=float)
    n = lams.shape[-1]
    rows, cols = np.nonzero(~np.eye(n, dtype=bool)) if n > 1 else (np.zeros(1, dtype=int),) * 2
    with np.errstate(over="ignore", divide="ignore"):
        ratio = lams[..., rows] / lams[..., cols]
        vals = np.abs(ratio + 1.0 / ratio + k)
    at = np.argmin(vals, axis=-1)
    return np.take_along_axis(vals, at[..., None], axis=-1)[..., 0], (rows[at], cols[at])


# Entries that tie often (equal and opposite magnitudes) and whose ratios
# leave the float range.
_TIE_ENTRIES = [1.0, -1.0, 2.0, -2.0, 0.5, -0.5, 3.0, 1e200, -1e200, 1e-200, -1e-200]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 6),
    m=st.integers(1, 5),
    k=st.sampled_from([np.nan, -5.0, -0.5, 0.0, 0.5, 1.0, 2.0, 7.25]),
    data=st.data(),
)
def test_constraint_check_equals_argmin_reference(n, m, k, data):
    # min_value is a plain minimum and pair is found on first read; all
    # three fields keep the bits of the argmin that finds both together,
    # ties, overflowing ratios and a NaN k included.
    row = st.lists(st.sampled_from(_TIE_ENTRIES), min_size=n, max_size=n)
    lams = np.array(data.draw(st.lists(row, min_size=m, max_size=m)))
    want_min, (want_i, want_j) = _argmin_constraint(lams, k)
    want_ok = want_min >= k + 2.0 - classes.SPECTRAL_SLACK
    res = classes.constraint_check(lams, k)
    assert "pair" not in vars(res)
    assert np.array_equal(res.ok, want_ok) and np.array_equal(_bits(res.min_value), _bits(want_min))
    assert np.array_equal(res.pair[0], want_i) and np.array_equal(res.pair[1], want_j)
    assert res.pair is res.pair
    for lam, ok, m_, i, j in zip(lams, want_ok, want_min, want_i, want_j):
        one = classes.constraint_check(lam, k)
        assert (one.ok, one.pair) == (ok, (i, j)) and type(one.ok) is bool
        assert type(one.min_value) is float and _bits(one.min_value) == _bits(m_)
        assert type(one.pair[0]) is int


def test_schur_rep_residual_diagonal():
    s = np.diag([2.0, -1.0, 0.5])
    x = matcore.ginibre(3, rng=matcore.Rng(111))
    assert classes.schur_rep_residual(s, 1.0, x) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.sampled_from([0.0, 0.5, 1.0, 2.0]))
def test_schur_rep_residual_random(seed, k):
    rng = matcore.Rng(seed)
    n = 2 + seed % 11  # up to 12
    s = matcore.random_selfadjoint_invertible(n, 100.0, rng.substream(0))
    x = matcore.random_probe_matrix(n, rng.substream(1))
    assert classes.schur_rep_residual(s, k, x) <= 1e-10


def test_schur_rep_rejects_singular():
    with pytest.raises(Singular):
        classes.schur_rep_residual(np.diag([1.0, 1e-15]), 0.0, np.eye(2))


def test_schur_theorem_all_ones_is_tight():
    x = matcore.ginibre(3, rng=matcore.Rng(112))
    rep = classes.schur_theorem_bound_check(np.ones((3, 3)), x)
    assert rep.values[0] == rep.values[1]
    assert rep.ok


def test_schur_theorem_identity_is_pinching():
    x = matcore.ginibre(3, rng=matcore.Rng(113))
    rep = classes.schur_theorem_bound_check(np.eye(3), x)
    assert rep.ok
    assert rep.values[1] == pytest.approx(norm(np.diag(np.diag(x)), OP), rel=1e-12)


def test_schur_theorem_gram_multiplier():
    rng = matcore.Rng(114)
    z = matcore.ginibre(4, rng=rng.substream(0))
    gram = z.conj().T @ z
    gram = 0.5 * (gram + gram.conj().T)
    x = matcore.random_probe_matrix(4, rng.substream(1))
    assert classes.schur_theorem_bound_check(gram, x).ok


def test_schur_theorem_equals_single_norm_calls():
    rng = matcore.Rng(122)
    for n in (2, 3, 5):
        z = matcore.ginibre(n, rng=rng.substream(n).substream(0))
        gram = z.conj().T @ z
        gram = 0.5 * (gram + gram.conj().T)
        x = matcore.random_probe_matrix(n, rng.substream(n).substream(1))
        rep = classes.schur_theorem_bound_check(gram, x)
        assert rep.values.tolist() == [float(np.max(np.real(np.diagonal(gram)))) * norm(x, OP), norm(gram * x, OP)]


def test_schur_theorem_validation():
    with pytest.raises(NotPSD):
        classes.schur_theorem_bound_check(np.diag([1.0, -1.0]), np.eye(2))
    with pytest.raises(NotHermitian):
        classes.schur_theorem_bound_check(np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2))
    with pytest.raises(DimensionMismatch):
        classes.schur_theorem_bound_check(np.eye(2), np.eye(3))


# ---------------------------------------------------------------- probe


def test_schur_theorem_psd_rtol():
    # A least eigenvalue down to -PSD_SLACK times max(1, the largest) counts
    # as rounding; below it the multiplier is not positive semidefinite.
    x = matcore.ginibre(2, rng=matcore.Rng(123))
    assert classes.schur_theorem_bound_check(np.diag([1.0, -0.5 * matcore.PSD_SLACK]), x).ok
    assert classes.schur_theorem_bound_check(np.diag([1e-3, -0.5 * matcore.PSD_SLACK]), x).ok
    with pytest.raises(NotPSD):
        classes.schur_theorem_bound_check(np.diag([1.0, -2.0 * matcore.PSD_SLACK]), x)


def test_probe_identity_conjugation():
    res = classes.dk_ratio_minimize(np.eye(3), 0.7, starts=2, iters=20, rng=matcore.Rng(0))
    # Every multiplier entry is 2.7, so every ratio is exactly 2.7.
    assert res.best_ratio == pytest.approx(2.7, abs=1e-12)
    assert res.verdict == "consistent"
    assert res.spectral_ok


def test_probe_two_by_two_same_sign():
    res = classes.dk_ratio_minimize(np.diag([1.0, 2.0]), 0.0, starts=4, iters=50, rng=matcore.Rng(1))
    # min(k+2, |m|) with m = 2.5: the identity seed attains k+2 exactly.
    assert res.best_ratio == pytest.approx(2.0, abs=1e-9)
    assert res.verdict == "consistent"


def test_probe_two_by_two_mixed_sign():
    res = classes.dk_ratio_minimize(np.diag([1.0, -1.0]), 1.0, starts=4, iters=50, rng=matcore.Rng(2))
    # m = -1: the rank-one seed e_12 realizes ratio 1 at iteration zero.
    assert res.best_ratio == pytest.approx(1.0, abs=1e-9)
    assert not res.spectral_ok
    assert res.verdict == "spectrally-excluded"
    # Spectral failure must come with a witness below the bound.
    assert res.best_ratio < res.k + 2.0 - 1e-9


def test_probe_witness_consistency():
    rng = matcore.Rng(3)
    s = matcore.random_selfadjoint_invertible(3, 10.0, rng.substream(0))
    res = classes.dk_ratio_minimize(s, 0.5, starts=4, iters=50, rng=rng.substream(1))
    direct = norm(classes.phi(s, 0.5, res.witness), OP) / norm(res.witness, OP)
    assert abs(direct - res.best_ratio) <= 1e-10 * max(1.0, res.best_ratio)
    assert res.starts_used == 9 + 1 + 4  # rank-one seeds + identity + random


def test_probe_deterministic():
    s = np.diag([1.0, 3.0, -2.0])
    a = classes.dk_ratio_minimize(s, 1.0, starts=3, iters=30, rng=matcore.Rng(4))
    b = classes.dk_ratio_minimize(s, 1.0, starts=3, iters=30, rng=matcore.Rng(4))
    assert a.best_ratio == b.best_ratio
    assert np.array_equal(a.witness, b.witness)


def test_probe_rejects_singular():
    with pytest.raises(Singular):
        classes.dk_ratio_minimize(np.diag([1.0, 0.0]), 0.0, starts=1, iters=5)


def test_probe_bounds_k():
    # Past DK_K_MAX one ulp of k+2 nears the verdict slacks, so rounding
    # alone would decide the verdict; a scalar S meets the bound with
    # equality and reads "consistent" at the bound.
    # The class is stated for k >= 0.
    for k in (1e12, 1e308, float("nan"), float("inf"), -1e-300, -1.0, float("-inf")):
        with pytest.raises(InvalidK, match=r"k must be in \[0, 1000\] for the ratio probe"):
            classes.dk_ratio_minimize(np.diag([1.0]), k, starts=3, iters=3, rng=matcore.Rng(0))
    res = classes.dk_ratio_minimize(np.diag([1.0]), classes.DK_K_MAX, starts=3, iters=3, rng=matcore.Rng(0))
    assert res.verdict == "consistent"
    assert np.spacing(classes.DK_K_MAX + 2.0) < 0.2 * classes.SPECTRAL_SLACK


def test_probe_bounds_starts_and_iters():
    # A negative iters would evaluate nothing and report best_ratio inf; a
    # negative starts would fail inside numpy.
    for starts, iters in ((-1, 5), (3, -1)):
        with pytest.raises(InvalidParams, match=r"starts and iters >= 0, got -1$"):
            classes.dk_ratio_minimize(np.diag([1.0, 2.0]), 1.0, starts=starts, iters=iters, rng=matcore.Rng(0))


def _reference_probe(s, k, starts, iters, rng):
    """The probe as it ran before the starts were stacked: each start
    descends alone, and the best iterate wins on strict improvement."""
    dec = matcore.selfadjoint_eigen(s)
    eigs = dec.eigenvalues
    n = eigs.size
    m = heinz.sandwich_weights(eigs, eigs, k)
    seeds = []
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1.0
            seeds.append(e)
    seeds.append(np.eye(n, dtype=complex) / np.sqrt(n))
    g = rng.generator()
    for _ in range(starts):
        z = (g.standard_normal((n, n)) + 1j * g.standard_normal((n, n))) / np.sqrt(2.0)
        seeds.append(z / np.linalg.norm(z))

    def ratio_and_grad(y):
        un, sn, vhn = np.linalg.svd(m * y)
        ud, sd, vhd = np.linalg.svd(y)
        ratio = sn[0] / sd[0]
        return ratio, (m * np.outer(un[:, 0], vhn[0]) - ratio * np.outer(ud[:, 0], vhd[0])) / sd[0]

    best_ratio, best_y = np.inf, seeds[0]
    for y0 in seeds:
        y = y0.copy()
        for it in range(iters):
            ratio, grad = ratio_and_grad(y)
            if ratio < best_ratio:
                best_ratio, best_y = ratio, y.copy()
            gnorm = np.linalg.norm(grad)
            if gnorm < 1e-14:
                break
            y = y - (0.1 / np.sqrt(it + 1.0)) * grad / gnorm
            ynorm = np.linalg.norm(y)
            if ynorm < 1e-12:
                break
            y = y / ynorm
        ratio = ratio_and_grad(y)[0]
        if ratio < best_ratio:
            best_ratio, best_y = ratio, y.copy()
    spectral_ok = _all_pairs_ok(eigs, k)
    witness = dec.vectors @ best_y @ dec.vectors.conj().T
    return classes.DkProbeResult(eigs, float(k), spectral_ok, float(best_ratio), witness, len(seeds))


def _check_against_reference(s, k, rng):
    res = classes.dk_ratio_minimize(s, k, starts=6, iters=40, rng=rng)
    ref = _reference_probe(s, k, 6, 40, rng)
    assert abs(res.best_ratio - ref.best_ratio) <= 1e-12 * ref.best_ratio
    assert (res.verdict, res.spectral_ok, res.starts_used) == (ref.verdict, ref.spectral_ok, ref.starts_used)
    direct = norm(classes.phi(s, k, res.witness), OP) / norm(res.witness, OP)
    assert abs(direct - res.best_ratio) <= 1e-10 * res.best_ratio
    return res


@pytest.mark.parametrize("k", [0.0, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_probe_matches_one_start_at_a_time(n, k):
    rng = matcore.Rng(200 + n)
    s = matcore.random_selfadjoint_invertible(n, 30.0, rng.substream(0))
    _check_against_reference(s, k, rng.substream(1))


def test_probe_without_random_starts_descends_the_seeds():
    s = np.diag([1.0, 2.0, -3.0])
    res = classes.dk_ratio_minimize(s, 1.0, starts=0, iters=5)
    assert res.starts_used == 9 + 1
    assert res.best_ratio == pytest.approx(_reference_probe(s, 1.0, 0, 5, matcore.Rng(0)).best_ratio, rel=1e-12)


# (n, k, substream) of constrained spectra whose C is not PSD: there the
# best ratio comes from the descent, not from a seed.
@pytest.mark.parametrize("n, k, i", [(3, 0.5, 43), (3, 1.0, 58), (3, 2.0, 18), (4, 0.5, 349), (5, 0.5, 309)])
def test_probe_descent_matches_one_start_at_a_time(n, k, i):
    lam, _ = conjecture.sample_constrained_spectrum(n, k, matcore.Rng(7).substream(i))
    res = _check_against_reference(np.diag(lam), k, matcore.Rng(1))
    seeds_only = classes.dk_ratio_minimize(np.diag(lam), k, starts=6, iters=0, rng=matcore.Rng(1))
    assert res.best_ratio < seeds_only.best_ratio - 1e-9
    assert res.verdict == "violated"


def _stacked_probe(s, k, starts, iters, rng):
    """The stacked probe as it ran before frozen starts were skipped: every
    start, frozen or not, goes through two batched SVDs per iteration."""
    dec = matcore.selfadjoint_eigen(s)
    eigs = dec.eigenvalues
    n = eigs.size
    m = heinz.sandwich_weights(eigs, eigs, k)
    w = rng.generator().standard_normal((int(starts), 2, n, n))
    z = (w[:, 0] + 1j * w[:, 1]) / np.sqrt(2.0)
    seeds = np.eye(n * n, dtype=complex).reshape(n * n, n, n)
    y = np.concatenate((seeds, np.eye(n, dtype=complex)[None] / np.sqrt(n), z / classes._frobenius(z)))
    best_ratio, best_y = np.inf, y[0]
    for it in range(int(iters) + 1):
        un, sn, vhn = np.linalg.svd(m * y)
        ud, sd, vhd = np.linalg.svd(y)
        ratio = sn[:, 0] / sd[:, 0]
        grad = (m * (un[:, :, :1] * vhn[:, :1, :]) - ratio[:, None, None] * (ud[:, :, :1] * vhd[:, :1, :]))
        grad = grad / sd[:, 0, None, None]
        i = int(np.argmin(ratio))
        if ratio[i] < best_ratio:
            best_ratio, best_y = ratio[i], y[i]
        gnorm = classes._frobenius(grad)
        live = gnorm >= classes.FROZEN_GRAD_NORM
        step = y - (0.1 / np.sqrt(it + 1.0)) * grad / np.where(live, gnorm, 1.0)
        y = np.where(live, step / classes._frobenius(step), y)
    witness = dec.vectors @ best_y @ dec.vectors.conj().T
    return classes.DkProbeResult(eigs, float(k), classes.constraint_check(eigs, k).ok, float(best_ratio), witness,
                                 len(y))


@pytest.mark.parametrize(
    "s, k, starts, iters",
    [
        (np.diag([1.0, 2.0, -3.0]), 1.0, 0, 5),
        (np.diag([1.0, 2.0, -3.0]), 0.5, 8, 60),
        (matcore.random_selfadjoint_invertible(3, 30.0, matcore.Rng(203)), 1.0, 16, 80),
        (matcore.random_selfadjoint_invertible(4, 30.0, matcore.Rng(204)), 2.0, 16, 80),
        (np.diag(conjecture.sample_constrained_spectrum(3, 0.5, matcore.Rng(7).substream(43))[0]), 0.5, 6, 40),
    ],
)
def test_probe_skipping_frozen_starts_gives_the_same_result(s, k, starts, iters):
    # The rank-one seeds and the identity freeze at once; skipping them
    # changes no bit of the result, witness included.
    got = classes.dk_ratio_minimize(s, k, starts=starts, iters=iters, rng=matcore.Rng(9))
    want = _stacked_probe(s, k, starts, iters, matcore.Rng(9))
    assert (got.k, got.spectral_ok, got.best_ratio, got.starts_used, got.verdict) == (
        want.k, want.spectral_ok, want.best_ratio, want.starts_used, want.verdict)
    assert np.array_equal(got.eigenvalues, want.eigenvalues) and np.array_equal(got.witness, want.witness)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_probe_never_beats_spectral_floor(seed):
    # best_ratio is an upper bound on the infimum; for spectra passing the
    # pairwise criterion it must never report a value meaningfully below
    # min over pairs (which itself is >= k+2).
    rng = matcore.Rng(seed)
    eigs = np.abs(rng.generator().uniform(0.5, 5.0, size=3))
    s = np.diag(eigs)
    k = 1.0
    res = classes.dk_ratio_minimize(s, k, starts=2, iters=30, rng=rng.substream(1))
    assert res.spectral_ok
    assert res.best_ratio >= k + 2.0 - 1e-9


def test_membership_is_downward_closed_in_k():
    # phi_t(X) = phi_k(X) - (k-t)X, so a sample satisfying the bound at k
    # satisfies it at every t < k by the triangle inequality.  Checked
    # pointwise on random samples.
    rng = matcore.Rng(5)
    hits = 0
    for i in range(40):
        sub = rng.substream(i)
        s = matcore.random_selfadjoint_invertible(3, 50.0, sub.substream(0))
        x = matcore.random_probe_matrix(3, sub.substream(1))
        nx = norm(x, OP)
        if norm(classes.phi(s, 2.0, x), OP) >= 4.0 * nx - 1e-10 * max(1.0, nx):
            hits += 1
            for t in (0.0, 0.5, 1.0):
                assert norm(classes.phi(s, t, x), OP) >= (t + 2.0) * nx - 1e-8 * max(1.0, nx)
    assert hits > 0


# ---------------------------------------------------------------- forms


def test_forms_registry_shape():
    assert len(FORMS) == 14
    assert EQUALITY_FORMS == ("eq7", "eq10", "eq14", "eq16", "eq18", "eq19")
    assert FORMS["ineq13"].relation == "le"
    assert FORMS["ineq6"].relation == "ge"


def test_forms_name_their_class():
    # Each form carries the operator class its samples are drawn from.
    families = {}
    for form_id, form in FORMS.items():
        families.setdefault(form.family, []).append(form_id)
    assert families == {
        "scaled_selfadjoint": ["ineq6", "eq7", "ineq8"],
        "normal": ["ineq9", "eq10", "ineq11", "ineq12"],
        "scaled_unitary": ["ineq13", "ineq15", "eq16", "ineq17", "eq18", "eq19"],
        "scaled_reflection": ["eq14"],
    }


def test_unknown_form_rejected():
    with pytest.raises(ValueError):
        classes.characterization_check(np.eye(2), np.eye(2), "eq99")
    with pytest.raises(ValueError):
        classes.sample_for_form("eq99", 3, matcore.Rng(0))


def test_le_forms_put_expected_larger_side_first():
    u = matcore.random_scaled_unitary(3, matcore.Rng(115))
    x = matcore.ginibre(3, rng=matcore.Rng(116))
    (rep,) = classes.characterization_check(u, x, "ineq13")
    assert rep.labels[0] == "2|X|"
    assert rep.ok


def test_all_forms_hold_on_their_class():
    rng = matcore.Rng(117)
    for idx, form_id in enumerate(FORMS):
        for i in range(12):
            sub = rng.substream(idx).substream(i)
            s = classes.sample_for_form(form_id, 4, sub.substream(0))
            x = matcore.random_probe_matrix(4, sub.substream(1))
            (rep,) = classes.characterization_check(s, x, form_id)
            assert rep.ok, (form_id, rep.as_dicts())


def test_sample_for_form_families():
    rng = matcore.Rng(118)
    s = classes.sample_for_form("eq7", 4, rng.substream(0))
    # Scaled self-adjoint: normal, and S^2 is a complex multiple of a
    # positive matrix (all eigenvalue phases agree up to sign).
    assert np.linalg.norm(s @ s.conj().T - s.conj().T @ s) <= 1e-10 * np.linalg.norm(s) ** 2

    u = classes.sample_for_form("eq16", 4, rng.substream(1))
    c2 = np.trace(u.conj().T @ u).real / 4.0
    assert np.allclose(u.conj().T @ u, c2 * np.eye(4), atol=1e-10 * c2)

    r = classes.sample_for_form("eq14", 4, rng.substream(2))
    sq = r @ r
    scale = np.trace(sq) / 4.0
    assert np.allclose(sq, scale * np.eye(4), atol=1e-10 * abs(scale))

    nrm = classes.sample_for_form("eq10", 4, rng.substream(3))
    comm = nrm @ nrm.conj().T - nrm.conj().T @ nrm
    assert np.linalg.norm(comm) <= 1e-10 * np.linalg.norm(nrm) ** 2

    again = classes.sample_for_form("eq7", 4, rng.substream(0))
    assert np.array_equal(s, again)


def test_characterization_check_takes_one_form_per_instance():
    # One evaluation of the five expressions serves every run of equal form
    # and tol, bit for bit as a check of the run alone.
    forms = ["ineq6", "ineq6", "eq7", "eq14", "eq14", "ineq12"]
    tols = [1e-6, 1e-6, None, None, 1e-3, None]
    root = np.zeros((1, 0), dtype=int)
    s = matcore.random_scaled_selfadjoint(3, 50.0, matcore.substreams(130, root, range(6)))
    x = matcore.random_probe_matrix(3, matcore.substreams(131, root, range(6)))
    kinds = (OP, NormKind.schatten(3.0))
    runs = classes.characterization_check(s, x, forms, kinds, tol=tols)
    assert [(span.start, span.stop) for span, _ in runs] == [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6)]
    for span, reports in runs:
        alone = classes.characterization_check(s[span], x[span], forms[span.start], kinds, tol=tols[span.start])
        for got, want in zip(reports, alone, strict=True):
            assert (got.labels, got.relations, got.tol) == (want.labels, want.relations, want.tol)
            for field in ("values", "margins", "link_pass"):
                assert np.array_equal(getattr(got, field), getattr(want, field))
    (span, (report,)), = classes.characterization_check(s[:2], x[:2], [FORMS["ineq6"]] * 2)
    assert report.tol == DEFAULT_TOL
    with pytest.raises(DimensionMismatch):
        classes.characterization_check(s, x, forms[:5], kinds)
    with pytest.raises(DimensionMismatch):
        classes.characterization_check(s, x, forms, kinds, tol=tols[:5])


def test_mixed_forms_take_only_the_norms_they_read(monkeypatch):
    # Every form of a mixed stack reads its two expressions with the bits
    # of all seven matrices' norms from one batched SVD, while the SVD
    # takes only the matrices the form reads: 38 of the 98 of the fourteen
    # forms.
    forms = sorted(FORMS)
    root = np.zeros((1, 0), dtype=int)
    s = matcore.random_normal_invertible(4, 50.0, matcore.substreams(132, root, range(len(forms))))
    x = matcore.random_probe_matrix(4, matcore.substreams(133, root, range(len(forms))))
    kinds = (OP, NormKind.schatten(3.0), NormKind.kyfan(2))
    si = matcore.inverse(s)
    s_star = s.conj().swapaxes(-1, -2)
    a, b, c, d = s @ x @ si, si @ x @ s, s_star @ x @ si, si @ x @ s_star
    e1, e2, na, nb, nc, nd, nx = stack_norms((a + b, c + d, a, b, c, d, x), kinds).swapaxes(0, 1)
    expr = {"E1": e1, "E2": e2, "N1": na + nb, "N2": nc + nd, "TWO_X": 2.0 * nx}
    sizes = []

    def counting(mats, kinds):
        sizes.append(len(mats))
        return stack_norms(mats, kinds)

    monkeypatch.setattr(classes, "stack_norms", counting)
    runs = classes.characterization_check(s, x, forms, kinds)
    assert sizes == [38] and len(runs) == len(forms)
    for (span, reports), form_id in zip(runs, forms, strict=True):
        form = FORMS[form_id]
        sides = (form.rhs, form.lhs) if form.relation == "le" else (form.lhs, form.rhs)
        for kind, report in enumerate(reports):
            want = np.stack([expr[side][kind, span] for side in sides], axis=-1)
            assert np.array_equal(report.values, want), (form_id, kind)


def test_eq_forms_use_tight_default_tolerance():
    # Equality links default to 1e-9; a deliberately loose tol must widen
    # acceptance, a tight one must narrow it.
    s = matcore.random_scaled_unitary(3, matcore.Rng(119))
    x = matcore.ginibre(3, rng=matcore.Rng(120))
    assert classes.characterization_check(s, x, "eq16")[0].ok
    assert classes.characterization_check(s, x, "eq16", tol=1e-2)[0].ok
    # eq7 fails off its class: generic normal S with complex spectrum.
    s_bad = matcore.random_normal_invertible(3, 100.0, matcore.Rng(121))
    (rep,) = classes.characterization_check(s_bad, x, "eq14")
    assert not rep.ok
