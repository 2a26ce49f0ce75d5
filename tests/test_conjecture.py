"""Counterexample-search harness: constraint, candidate matrix, sampler,
search and persistence."""

import json
import warnings

import numpy as np
import pytest

from normlab import classes, conjecture, heinz, matcore
from normlab.errors import (
    DegenerateDenominator,
    InvalidK,
    NonFinite,
    NotHermitian,
    SamplerExhausted,
    ZeroEigenvalue,
)


def test_constraint_hand_cases():
    res = conjecture.constraint_check([1.0, 1.0], 1.0)
    assert res.ok
    assert res.min_value == pytest.approx(3.0, abs=1e-14)
    assert res.threshold == 3.0

    res = conjecture.constraint_check([1.0, -1.0], 1.0)
    assert not res.ok
    assert res.min_value == pytest.approx(1.0, abs=1e-14)
    assert set(res.pair) == {0, 1}

    res = conjecture.constraint_check([1.0, 3.0, 9.0], 0.0)
    assert res.ok
    assert res.min_value == pytest.approx(10.0 / 3.0, abs=1e-13)


def test_constraint_singleton_is_trivial():
    res = conjecture.constraint_check([5.0], 1.0)
    assert res.ok
    assert res.pair == (0, 0)


def test_constraint_validation():
    with pytest.raises(ZeroEigenvalue):
        conjecture.constraint_check([1.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        conjecture.constraint_check([], 1.0)
    # The conjecture, not the pairwise criterion, restricts k to [0, 2].
    for k in (2.5, -0.1, float("nan"), float("inf")):
        with pytest.raises(InvalidK):
            conjecture.build_conj_matrix([1.0, 2.0], k)
    with pytest.raises(ZeroEigenvalue):
        conjecture.build_conj_matrix([1.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        conjecture.build_conj_matrix([], 1.0)


@pytest.mark.parametrize(
    "lambdas", [[float("nan"), 1.0, 2.0], [1.0, float("inf"), -2.0], [[1.0, 2.0], [-float("inf"), 1.0]]]
)
def test_non_finite_spectra_are_rejected(lambdas):
    # A NaN or an infinity is no eigenvalue: the spectrum validator refuses
    # it as the matrix validator does, so the criterion never reports a
    # self-pair for one, and nothing warns on the way.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for check in (matcore.as_spectrum, lambda lam: conjecture.constraint_check(lam, 1.0),
                      lambda lam: conjecture.build_conj_matrix(lam, 1.0)):
            with pytest.raises(ValueError, match="finite"):
                check(lambdas)


@pytest.mark.parametrize(
    "k_list, count, error",
    [([5.0, float("nan")], 0, InvalidK), ([0.5, 2.5], 3, InvalidK), ([1.0], -1, ValueError), ([1.0], 2.0, ValueError)],
)
def test_search_validates_before_opening_the_file(tmp_path, k_list, count, error):
    # A bad k or count fails before any sampling and leaves no file behind.
    path = tmp_path / "viol.jsonl"
    with pytest.raises(error, match=None if error is InvalidK else "count"):
        conjecture.conjecture_search(3, k_list, count, matcore.Rng(0), violations_path=path)
    assert not path.exists()


def test_build_matrix_hand_cases():
    c = conjecture.build_conj_matrix([3.0], 1.0)
    assert c.shape == (1, 1)
    assert c[0, 0] == 1.0 / 3.0

    c = conjecture.build_conj_matrix([1.0, 1.0], 0.0)
    assert np.allclose(c, 0.5 * np.ones((2, 2)), atol=1e-15)
    eigs = np.linalg.eigvalsh(c)
    assert eigs == pytest.approx([0.0, 1.0], abs=1e-14)


def test_build_matrix_offdiagonal_cap():
    # For k = 0 every off-diagonal entry is t/(1+t^2) <= 1/2 in magnitude.
    g = matcore.Rng(130).generator()
    lam = 10.0 ** g.uniform(-2, 2, size=6) * np.where(g.random(6) < 0.5, -1, 1)
    c = conjecture.build_conj_matrix(lam, 0.0)
    off = c - np.diag(np.diag(c))
    assert np.max(np.abs(off)) <= 0.5 + 1e-15


def test_build_matrix_diagonal_is_exact():
    for k in (0.0, 0.5, 1.0, 2.0):
        c = conjecture.build_conj_matrix([1.0, -3.0, 7.0], k)
        assert np.all(np.diag(c) == 1.0 / (2.0 + k))


def test_build_matrix_scale_invariance():
    g = matcore.Rng(131).generator()
    lam = 10.0 ** g.uniform(-1, 1, size=5)
    base = conjecture.build_conj_matrix(lam, 1.0)
    for c_scale in (1e-3, 7.0, 1e3):
        scaled = conjecture.build_conj_matrix(c_scale * lam, 1.0)
        assert np.max(np.abs(scaled - base)) <= 1e-12


def test_build_matrix_duality():
    # C is the entrywise inverse of the sandwich multiplier matrix.
    g = matcore.Rng(132).generator()
    lam = 10.0 ** g.uniform(-2, 2, size=5) * np.where(g.random(5) < 0.5, -1, 1)
    k = 0.5
    c = conjecture.build_conj_matrix(lam, k)
    m = heinz.sandwich_weights(lam, lam, k)
    assert np.max(np.abs(c * m - 1.0)) <= 1e-12


def test_build_matrix_degenerate_denominator():
    # l, -l at k = 2: l^2 + l^2 - 2 l^2 = 0.
    with pytest.raises(DegenerateDenominator):
        conjecture.build_conj_matrix([1.0, -1.0], 2.0)


@pytest.mark.parametrize("k", [0.0, 1.0, 2.0])
def test_build_matrix_overflow_is_non_finite(k):
    # 1e200^2 overflows the float range: the denominator at (0, 0) is inf
    # (or NaN at k = 0), which is no vanishing denominator.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite, match="denominator overflowed"):
            conjecture.build_conj_matrix([1e200, 1e-200], k)
        with pytest.raises(NonFinite, match="denominator overflowed"):
            conjecture.build_conj_matrix([[1.0, 2.0], [1e-170, 1e160]], k)
        # Near the float range's end but inside it, the matrix is built.
        assert np.isfinite(conjecture.build_conj_matrix([1e150, -1e-150], k)).all()


def test_psd_check_hand_cases():
    assert conjecture.psd_check(np.eye(2)) == (1.0, True)
    min_eig, ok = conjecture.psd_check(np.diag([1.0, -1.0]))
    assert min_eig == -1.0 and not ok
    min_eig, ok = conjecture.psd_check(0.5 * np.ones((2, 2)))
    assert ok
    assert abs(min_eig) <= 1e-15


def test_sampler_respects_constraint_and_determinism():
    lam, rejected = conjecture.sample_constrained_spectrum(4, 1.0, matcore.Rng(133))
    assert conjecture.constraint_check(lam, 1.0).ok
    assert rejected >= 0
    again, _ = conjecture.sample_constrained_spectrum(4, 1.0, matcore.Rng(133))
    assert np.array_equal(lam, again)
    assert np.all(np.abs(lam) >= 1e-2 - 1e-12)
    assert np.all(np.abs(lam) <= 1e2 + 1e-10)


def test_sampler_exhaustion():
    # k = 2 at n = 12 demands enormous magnitude gaps between the sign
    # groups; three draws cannot find one.
    with pytest.raises(SamplerExhausted):
        conjecture.sample_constrained_spectrum(12, 2.0, matcore.Rng(0), max_draws=3)


def test_stacks_match_single_spectra():
    # The constraint, the C build and the PSD test on a stack return, entry
    # by entry, exactly what they return on each spectrum alone.
    g = matcore.Rng(137).generator()
    lams = 10.0 ** g.uniform(-2, 2, size=(3, 4, 5)) * np.where(g.random((3, 4, 5)) < 0.5, -1, 1)
    res = conjecture.constraint_check(lams, 1.0)
    c = conjecture.build_conj_matrix(lams, 1.0)
    min_eig, ok = conjecture.psd_check(c)
    assert res.ok.shape == res.min_value.shape == min_eig.shape == ok.shape == (3, 4)
    assert c.shape == (3, 4, 5, 5)
    for idx in np.ndindex(3, 4):
        one = conjecture.constraint_check(lams[idx], 1.0)
        assert (res.ok[idx], res.min_value[idx], res.pair[0][idx], res.pair[1][idx]) == (
            one.ok, one.min_value, one.pair[0], one.pair[1]
        )
        single = conjecture.build_conj_matrix(lams[idx], 1.0)
        assert np.array_equal(c[idx], single)
        assert (min_eig[idx], ok[idx]) == conjecture.psd_check(single)


def test_stack_guards_apply_to_every_matrix():
    lams = np.array([[1.0, 2.0], [1.0, -1.0]])
    with pytest.raises(DegenerateDenominator, match=r"spectrum \(1,\)"):
        conjecture.build_conj_matrix(lams, 2.0)
    stack = np.stack([np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]])])
    with pytest.raises(NotHermitian):
        conjecture.psd_check(stack)
    stack[1, 0, 0] = np.nan
    with pytest.raises(ValueError):
        conjecture.psd_check(stack)
    with pytest.raises(ZeroEigenvalue):
        conjecture.constraint_check(np.array([[1.0, 2.0], [0.0, 1.0]]), 1.0)


# Reference search: one spectrum at a time and one attempt per iteration,
# with the constraint, C and PSD test written out, so the stacked path is
# compared with arithmetic it does not share.


def _reference_constrained(lam, k):
    ratio = np.divide.outer(lam, lam)
    vals = np.abs(ratio + 1.0 / ratio + k)
    return vals[~np.eye(lam.size, dtype=bool)].min() >= k + 2.0 - classes.SPECTRAL_SLACK


def _reference_psd_check(lam, k):
    cross = np.multiply.outer(lam, lam)
    sq = lam * lam
    c = cross / (np.add.outer(sq, sq) + k * cross)
    np.fill_diagonal(c, 1.0 / (2.0 + k))
    eigs = np.linalg.eigvalsh(c.astype(complex))
    min_eig = float(eigs[0])
    return min_eig, min_eig >= -conjecture.PSD_SLACK * max(1.0, float(eigs[-1]))


def _reference_sampler(n, k, rng, max_draws=10**4):
    # One attempt per iteration: n exponents by uniform(-2, 2), then n
    # sign draws by random.
    g = rng.generator()
    for attempt in range(max_draws):
        lam = 10.0 ** g.uniform(-2.0, 2.0, size=n)
        lam *= np.where(g.random(n) < 0.5, -1.0, 1.0)
        if _reference_constrained(lam, k):
            return lam, attempt
    raise SamplerExhausted(f"no constrained spectrum after {max_draws} draws")


def _reference_search(n, k_list, count, rng, path):
    # One PSD test per spectrum, violations written as they are found.
    out = []
    with open(path, "a") as sink:
        for k_idx, k in enumerate(k_list):
            min_eigs = np.empty(count)
            rejected = violations = 0
            for i in range(count):
                lam, rej = _reference_sampler(n, k, rng.substream(k_idx).substream(i))
                rejected += rej
                min_eig, ok = _reference_psd_check(lam, k)
                min_eigs[i] = min_eig
                if not ok:
                    violations += 1
                    record = {
                        "k": k,
                        "lambdas": [float(v) for v in lam],
                        "min_eig": min_eig,
                        "seed": rng.seed,
                        "instance": i,
                    }
                    sink.write(json.dumps(record) + "\n")
            counts, edges = np.histogram(min_eigs, bins=conjecture.HIST_BINS)
            out.append((k, rejected, violations, float(min_eigs.min()), counts, edges))
    return out


K_GRID = [0.0, 0.5, 1.0, 2.0]


def _assert_search_matches_reference(tmp_path, n, count, seed):
    ref_path, new_path = tmp_path / "ref.jsonl", tmp_path / "new.jsonl"
    ref = _reference_search(n, K_GRID, count, matcore.Rng(seed), ref_path)
    new = conjecture.conjecture_search(n, K_GRID, count, matcore.Rng(seed), violations_path=new_path)
    for r, s in zip(ref, new, strict=True):
        assert (s.k, s.accepted, s.rejected, s.violations, s.min_eig_overall) == (r[0], count, *r[1:4])
        assert np.array_equal(s.hist_counts, r[4])
        assert np.array_equal(s.hist_edges, r[5])
    assert new_path.read_bytes() == ref_path.read_bytes()
    return new


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
def test_stacked_search_matches_per_spectrum_reference(tmp_path, monkeypatch, n, seed):
    # A chunk of 16 makes 37 instances three chunks, the last one short.
    monkeypatch.setattr(conjecture, "SEARCH_CHUNK", 16)
    new = _assert_search_matches_reference(tmp_path, n, 37, seed)
    if n == 8:
        # About 2 % of n = 8, k = 2 attempts pass, so most spectra need
        # blocks beyond their first.
        assert new[-1].rejected > 37 * conjecture.SAMPLE_BLOCK
        assert sum(s.violations for s in new) > 0


def test_stacked_search_matches_reference_at_default_chunk(tmp_path):
    _assert_search_matches_reference(tmp_path, 3, conjecture.SEARCH_CHUNK + 5, 1)


def test_stacked_sampler_matches_single_calls_and_max_draws():
    rngs = [matcore.Rng(138).substream(i) for i in range(30)]
    streams = matcore.substreams(138, np.zeros((1, 0), dtype=int), range(30))
    lams, rejected = conjecture.sample_constrained_spectrum(6, 1.0, streams)
    assert lams.shape == (30, 6) and rejected.shape == (30,)
    for rng, lam, rej in zip(rngs, lams, rejected):
        ref_lam, ref_rej = _reference_sampler(6, 1.0, rng)
        assert np.array_equal(lam, ref_lam) and rej == ref_rej
        assert conjecture.sample_constrained_spectrum(6, 1.0, rng)[1] == ref_rej
    # max_draws counts attempts, not blocks: an instance accepted at
    # attempt r needs max_draws > r, wherever r falls in a block.
    late = [(i, int(rej)) for i, rej in enumerate(rejected) if rej % conjecture.SAMPLE_BLOCK]
    assert late
    for i, rej in late[:5]:
        with pytest.raises(SamplerExhausted):
            conjecture.sample_constrained_spectrum(6, 1.0, streams[[i]], max_draws=rej)
        assert conjecture.sample_constrained_spectrum(6, 1.0, streams[[i]], max_draws=rej + 1)[1][0] == rej


def test_sampler_takes_one_rng_or_a_streams():
    # An empty Streams gives empty stacks; a list of Rngs is refused.
    empty = matcore.substreams(0, np.zeros((0, 1), dtype=int), [0, 1])
    lams, rejected = conjecture.sample_constrained_spectrum(3, 1.0, empty)
    assert lams.shape == (0, 3) and rejected.shape == (0,)
    for rngs in ([], [matcore.Rng(0)], [matcore.Rng(0), matcore.Rng(1)]):
        with pytest.raises(TypeError):
            conjecture.sample_constrained_spectrum(3, 1.0, rngs)


@pytest.mark.parametrize("n, k, max_draws", [(8, 2.0, 10**4), (8, 2.0, 20), (3, 1.0, 10**4)])
def test_sampler_blocks_are_each_streams_own_draws(monkeypatch, n, k, max_draws):
    # Every block the sampler tests is the next attempts of each pending
    # spectrum's own Rng.generator(), round after round: FIRST_BLOCK
    # attempts in the first round and SAMPLE_BLOCK in every later one.
    seen = []

    def spy(lam, k):
        seen.append(lam.copy())
        return classes.constraint_check(lam, k)

    monkeypatch.setattr(conjecture, "constraint_check", spy)
    rngs = [matcore.Rng(139).substream(i) for i in range(12)]
    streams = matcore.substreams(139, np.zeros((1, 0), dtype=int), range(12))
    try:
        conjecture.sample_constrained_spectrum(n, k, streams, max_draws=max_draws)
        exhausted = False
    except SamplerExhausted:
        exhausted = True
    gens = [rng.generator() for rng in rngs]
    pending = list(range(len(rngs)))
    first = 0
    for b, lam in enumerate(seen):
        size = lam.shape[1]
        assert size == (conjecture.FIRST_BLOCK if b == 0 else conjecture.SAMPLE_BLOCK), b
        ref = []
        for i in pending:
            d = gens[i].random((size, 2, n))
            mag = 10.0 ** (-2.0 + 4.0 * d[:, 0])
            ref.append(np.where(d[:, 1] < 0.5, -mag, mag))
        assert np.array_equal(lam, np.array(ref)), b
        ok = classes.constraint_check(lam, k).ok
        ok[:, max_draws - first :] = False
        pending = [i for i, hit in zip(pending, ok.any(axis=1)) if not hit]
        first += size
    assert exhausted == bool(pending)
    if n == 8:
        assert len(seen) >= 3


def _sample_or_exhaust(n, k, rng, max_draws):
    try:
        return conjecture.sample_constrained_spectrum(n, k, rng, max_draws=max_draws)
    except SamplerExhausted:
        return None


@pytest.mark.parametrize("max_draws", [5, 20, 10**4])
@pytest.mark.parametrize("n, k", [(3, 1.0), (4, 2.0), (8, 2.0)])
def test_first_round_size_changes_no_result(monkeypatch, n, k, max_draws):
    # Draws are fixed by (key, counter), so the round schedule decides only
    # how much is drawn: every even first-round size, shorter or longer
    # than SAMPLE_BLOCK and on either side of max_draws, gives the same
    # spectra and counts, or exhausts alike.
    streams = matcore.substreams(140, np.zeros((1, 0), dtype=int), range(24))
    results = {}
    for size in (2, 4, 8, 16):
        monkeypatch.setattr(conjecture, "FIRST_BLOCK", size)
        results[size] = [
            _sample_or_exhaust(n, k, streams, max_draws),
            *(_sample_or_exhaust(n, k, streams[[i]], max_draws) for i in range(0, 24, 5)),
            _sample_or_exhaust(n, k, matcore.Rng(140).substream(3), max_draws),
        ]
    want = results[conjecture.SAMPLE_BLOCK]
    for size, got in results.items():
        for g, w in zip(got, want, strict=True):
            assert (g is None) == (w is None), size
            if w is not None:
                assert np.array_equal(g[0], w[0]) and np.array_equal(g[1], w[1]), size
    if max_draws == 10**4:
        assert want[0] is not None


def test_search_small_run(tmp_path):
    path = tmp_path / "viol.jsonl"
    summaries = conjecture.conjecture_search(
        2, [0.0, 1.0], 50, matcore.Rng(134), violations_path=path
    )
    assert [s.k for s in summaries] == [0.0, 1.0]
    for s in summaries:
        assert s.accepted == 50
        assert s.violations == 0
        assert s.min_eig_overall >= -1e-10
        assert int(s.hist_counts.sum()) == 50
        assert len(s.hist_edges) == len(s.hist_counts) + 1
    # No violations: the sink file stays empty.
    assert conjecture.load_violations(path) == []


def test_search_determinism():
    a = conjecture.conjecture_search(3, [0.5], 30, matcore.Rng(135))
    b = conjecture.conjecture_search(3, [0.5], 30, matcore.Rng(135))
    assert a[0].min_eig_overall == b[0].min_eig_overall
    assert a[0].rejected == b[0].rejected
    assert np.array_equal(a[0].hist_counts, b[0].hist_counts)
    assert np.array_equal(a[0].hist_edges, b[0].hist_edges)


def test_search_rejects_trivial_n():
    with pytest.raises(ValueError):
        conjecture.conjecture_search(1, [0.0], 10, matcore.Rng(0))


def test_violation_record_round_trip(tmp_path):
    # The persistence contract: a JSONL record rebuilds to the recorded
    # min_eig exactly (shortest-repr floats survive JSON).  Search only
    # writes genuine violations, so craft a record from an unconstrained
    # spectrum through the same serialization.
    lam = np.array([1.0, -1.0])
    k = 1.0
    c = conjecture.build_conj_matrix(lam, k)
    min_eig, ok = conjecture.psd_check(c)
    assert not ok
    record = {"k": k, "lambdas": [float(v) for v in lam], "min_eig": min_eig, "seed": 7, "instance": 0}
    path = tmp_path / "viol.jsonl"
    path.write_text(json.dumps(record) + "\n")

    loaded = conjecture.load_violations(path)
    assert len(loaded) == 1
    rebuilt = conjecture.build_conj_matrix(loaded[0]["lambdas"], loaded[0]["k"])
    re_min, re_ok = conjecture.psd_check(rebuilt)
    assert not re_ok
    assert abs(re_min - loaded[0]["min_eig"]) <= 1e-12


def test_load_violations_missing_file(tmp_path):
    assert conjecture.load_violations(tmp_path / "absent.jsonl") == []


def test_n3_positivity_fails_exact_arithmetic():
    # Regression pin for a genuine finding: at n = 3 the pairwise
    # constraint does not force PSD.  The verification below runs in exact
    # rational arithmetic on the float bit-values, so no eigensolver or
    # rounding effect is involved.
    from fractions import Fraction

    lam = [0.0680547, 0.08611596, -0.44417643]
    k = 1.0
    res = conjecture.constraint_check(lam, k)
    assert res.ok
    assert res.min_value > 3.0

    fl = [Fraction(v) for v in lam]
    fk = Fraction(1)
    c = [
        [
            fl[i] * fl[j] / (fl[i] ** 2 + fl[j] ** 2 + fk * fl[i] * fl[j])
            if i != j
            else Fraction(1, 3)
            for j in range(3)
        ]
        for i in range(3)
    ]
    det3 = (
        c[0][0] * (c[1][1] * c[2][2] - c[1][2] * c[2][1])
        - c[0][1] * (c[1][0] * c[2][2] - c[1][2] * c[2][0])
        + c[0][2] * (c[1][0] * c[2][1] - c[1][1] * c[2][0])
    )
    assert det3 < 0

    # The floating-point verdict must agree with the exact one.
    min_eig, ok = conjecture.psd_check(conjecture.build_conj_matrix(lam, k))
    assert not ok
    assert min_eig < -1e-4


def test_n3_norm_bound_fails_on_counterexample():
    # The same spectrum defeats the norm inequality the matrix positivity
    # was meant to imply: an explicit witness dips below k + 2, confirmed
    # through the direct conjugation route.
    from normlab import classes
    from normlab.norms import OP, norm

    s = np.diag([0.0680547, 0.08611596, -0.44417643])
    res = classes.dk_ratio_minimize(s, 1.0, starts=32, iters=300, rng=matcore.Rng(0))
    assert res.spectral_ok
    assert res.verdict == "violated"
    assert res.best_ratio < 3.0 - 1e-4
    direct = norm(classes.phi(s, 1.0, res.witness), OP) / norm(res.witness, OP)
    assert direct < 3.0 - 1e-4


def test_n2_constrained_instances_are_psd():
    # The n = 2 case of the positivity claim, sampled: under the pairwise
    # constraint the 2x2 matrix has nonnegative determinant and positive
    # diagonal.
    rng = matcore.Rng(136)
    for k in (0.0, 0.5, 1.0, 2.0):
        for i in range(200):
            lam, _ = conjecture.sample_constrained_spectrum(2, k, rng.substream(int(10 * k)).substream(i))
            min_eig, ok = conjecture.psd_check(conjecture.build_conj_matrix(lam, k))
            assert ok, (k, lam.tolist(), min_eig)
