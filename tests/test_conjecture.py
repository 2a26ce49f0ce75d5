"""Counterexample-search harness: constraint, candidate matrix, sampler,
persistence, and the conditional cross-check."""

import json

import numpy as np
import pytest

from normlab import conjecture, matcore
from normlab.errors import (
    DegenerateDenominator,
    InvalidK,
    SamplerExhausted,
    ZeroLambda,
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
    with pytest.raises(ZeroLambda):
        conjecture.constraint_check([1.0, 0.0], 1.0)
    with pytest.raises(InvalidK):
        conjecture.constraint_check([1.0, 2.0], 2.5)
    with pytest.raises(InvalidK):
        conjecture.constraint_check([1.0, 2.0], -0.1)
    with pytest.raises(ValueError):
        conjecture.constraint_check([], 1.0)


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
    from normlab.classes import _multiplier_matrix

    g = matcore.Rng(132).generator()
    lam = 10.0 ** g.uniform(-2, 2, size=5) * np.where(g.random(5) < 0.5, -1, 1)
    k = 0.5
    c = conjecture.build_conj_matrix(lam, k)
    m = _multiplier_matrix(lam, k)
    assert np.max(np.abs(c * m - 1.0)) <= 1e-12


def test_build_matrix_degenerate_denominator():
    # l, -l at k = 2: l^2 + l^2 - 2 l^2 = 0.
    with pytest.raises(DegenerateDenominator):
        conjecture.build_conj_matrix([1.0, -1.0], 2.0)


def test_psd_check_hand_cases():
    assert conjecture.psd_check(np.eye(2)) == (1.0, True)
    min_eig, ok = conjecture.psd_check(np.diag([1.0, -1.0]))
    assert min_eig == -1.0 and not ok
    min_eig, ok = conjecture.psd_check(0.5 * np.ones((2, 2)))
    assert ok
    assert abs(min_eig) <= 1e-15


def test_make_instance_fields():
    inst = conjecture.make_instance([1.0, 3.0], 1.0)
    assert inst.constraint_ok
    assert inst.psd
    assert inst.matrix.shape == (2, 2)
    assert inst.min_eig == pytest.approx(np.linalg.eigvalsh(inst.matrix)[0])


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


def test_conditional_check_member():
    out = conjecture.conditional_theorem_check([1.0, 3.0], 1.0, 20, matcore.Rng(0))
    assert out["psd"]
    assert out["verdict"] == "consistent"
    assert out["worst_ratio"] >= out["bound"] * (1 - 1e-10)


def test_conditional_check_nonmember():
    out = conjecture.conditional_theorem_check([1.0, -1.0], 1.0, 20, matcore.Rng(0))
    assert not out["psd"]
    assert out["verdict"] == "nonmember-witnessed"
    assert out["worst_ratio"] == pytest.approx(1.0, abs=1e-10)


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
