"""Norm selector grammar, hand values, and the norm axioms."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normlab import matcore
from normlab.errors import InvalidParams, NonFinite
from normlab.norms import FRO, OP, TR, NormKind, direct_sum_norm, norm, norms_from_sv

KINDS = [OP, TR, FRO, NormKind.kyfan(2), NormKind.schatten(3.0)]


def test_kyfan_k_past_the_row_length_is_refused():
    sv = np.array([[3.0, 2.0, 1.0], [1.0, 0.5, 0.0]])
    assert norms_from_sv(sv, (NormKind.kyfan(3),)).tolist() == [[6.0, 1.5]]
    with pytest.raises(InvalidParams, match="got 4$"):
        norms_from_sv(sv, (OP, NormKind.kyfan(2), NormKind.kyfan(4)))
    # Rows with no singular values keep every norm 0.
    assert norms_from_sv(np.zeros((2, 0)), (NormKind.kyfan(4),)).tolist() == [[0.0, 0.0]]


def test_parse_grammar():
    assert NormKind.parse("op") == OP
    assert NormKind.parse("tr") == TR
    assert NormKind.parse("fro") == FRO
    assert NormKind.parse("schatten:3") == NormKind.schatten(3.0)
    assert NormKind.parse("kyfan:2") == NormKind.kyfan(2)
    assert NormKind.parse(" OP ") == OP


def test_parse_labels_round_trip():
    for text in ["op", "schatten:1", "schatten:2", "schatten:2.5", "kyfan:3"]:
        assert NormKind.parse(text).label == text
    # tr and fro are aliases; the canonical label is the Schatten form.
    assert TR.label == "schatten:1"
    assert FRO.label == "schatten:2"


def test_parse_rejects_bad_selectors():
    for text in ["spectral", "schatten:0.5", "schatten:inf", "kyfan:0", "kyfan:1.5", ""]:
        with pytest.raises(ValueError):
            NormKind.parse(text)


def test_hand_values():
    assert norm(np.diag([3.0, 1.0, 2.0]), OP) == pytest.approx(3.0, abs=1e-14)
    assert norm(np.diag([1.0, 2.0, 3.0]), TR) == pytest.approx(6.0, abs=1e-13)
    assert norm(np.diag([3.0, 2.0, 1.0]), NormKind.kyfan(2)) == pytest.approx(5.0, abs=1e-13)
    # A k beyond the dimension has no Ky Fan norm.
    with pytest.raises(InvalidParams, match="at most the dimension 3, got 7$"):
        norm(np.diag([3.0, 2.0, 1.0]), NormKind.kyfan(7))
    assert norm(np.diag([3.0, 4.0]), FRO) == pytest.approx(5.0, abs=1e-13)


def test_norm_from_sv_clamps_noise():
    # Tail values below 1e-14 of the top singular value are eigensolver
    # noise and must not leak into trace-class sums.
    assert norms_from_sv(np.array([[1.0, 1e-20]]), (TR,))[0, 0] == 1.0
    assert norms_from_sv(np.array([[0.0]]), (OP,))[0, 0] == 0.0


def test_fro_equals_entrywise():
    x = matcore.ginibre(5, rng=matcore.Rng(40))
    entrywise = float(np.sqrt(np.sum(np.abs(x) ** 2)))
    assert abs(norm(x, FRO) - entrywise) <= 1e-10 * entrywise


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_unitary_invariance(seed):
    rng = matcore.Rng(seed)
    x = matcore.ginibre(4, rng=rng.substream(0))
    u = matcore.haar_unitary(4, rng.substream(1))
    v = matcore.haar_unitary(4, rng.substream(2))
    for kind in KINDS:
        base = norm(x, kind)
        assert abs(norm(u @ x @ v, kind) - base) <= 1e-9 * max(1.0, base)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), c=st.floats(-10.0, 10.0))
def test_triangle_and_homogeneity(seed, c):
    rng = matcore.Rng(seed)
    a = matcore.ginibre(4, rng=rng.substream(0))
    b = matcore.ginibre(4, rng=rng.substream(1))
    for kind in KINDS:
        na, nb = norm(a, kind), norm(b, kind)
        assert norm(a + b, kind) <= na + nb + 1e-10 * max(1.0, na + nb)
        assert abs(norm(c * a, kind) - abs(c) * na) <= 1e-10 * max(1.0, abs(c) * na)


def test_direct_sum_rules():
    a = np.diag([3.0])
    b = np.diag([4.0])
    assert direct_sum_norm(a, b, OP) == pytest.approx(4.0, abs=1e-14)
    assert direct_sum_norm(a, b, FRO) == pytest.approx(5.0, abs=1e-14)
    x = matcore.ginibre(3, rng=matcore.Rng(41))
    y = matcore.ginibre(2, rng=matcore.Rng(42))
    for kind in KINDS:
        got = direct_sum_norm(x, y, kind)
        want = norm(matcore.direct_sum(x, y), kind)
        assert abs(got - want) <= 1e-12 * max(1.0, want)
        # Zero summand drops out.
        alone = direct_sum_norm(x, np.zeros((2, 2)), kind)
        assert abs(alone - norm(x, kind)) <= 1e-12 * max(1.0, alone)


def test_direct_sum_power_identity():
    # Schatten p on a block sum is the p-mean of the block norms; operator
    # norm is their max.  Checked at 1e-12 because downstream two-variable
    # inequalities lean on these identities exactly.
    x = matcore.ginibre(4, rng=matcore.Rng(43))
    y = matcore.ginibre(3, rng=matcore.Rng(44))
    assert abs(direct_sum_norm(x, y, OP) - max(norm(x, OP), norm(y, OP))) <= 1e-12
    for p in (1.0, 2.0, 3.0):
        kind = NormKind.schatten(p)
        want = (norm(x, kind) ** p + norm(y, kind) ** p) ** (1.0 / p)
        assert abs(direct_sum_norm(x, y, kind) - want) <= 1e-12 * max(1.0, want)


def test_norm_beyond_float_range_raises():
    # These norms themselves exceed the largest float: they raise NonFinite,
    # not an overflow warning, for the trace and Ky Fan sums too.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind, sv in (
            (NormKind.schatten(2.0), [[1.5e308, 1.5e308]]),
            (NormKind.schatten(3.0), [[1.5e308, 1.5e308, 1.5e308]]),
            (NormKind.schatten(1.0), [[1e308, 1e308]]),
            (NormKind.kyfan(2), [[1e308, 1e308]]),
        ):
            with pytest.raises(NonFinite):
                norms_from_sv(np.array(sv), (kind,))


def test_norm_whose_powers_overflow_is_kept():
    # 10**1000, (1e200)**2 and (1e120)**3 overflow, where the plain sums of
    # powers raised NonFinite; the norms are finite.  Such a row is taken
    # relative to its largest value, and a row whose sum stays finite keeps
    # the plain sum's bits.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ps = (1000.0, 2.0, 3.0)
        sv = np.array([[10.0, 1.0], [1e200, 1e200], [1e120, 0.0], [1.0, 0.5]])
        got = norms_from_sv(sv, tuple(NormKind.schatten(p) for p in ps))
        assert got[:, 0].tolist()[0] == 10.0 and got[:, 2].tolist() == [1e120] * 3
        for j, p in enumerate(ps):
            assert got[j, 1] == pytest.approx(1e200 * 2.0 ** (1.0 / p), rel=1e-15)
            plain = np.sqrt(np.sum(sv[3] ** 2)) if p == 2.0 else np.sum(sv[3] ** p) ** (1.0 / p)
            assert got[j, 3] == plain
        assert norms_from_sv(sv[[0]], (NormKind.schatten(1000.0),)).tolist() == [[10.0]]


def test_norm_of_small_values_at_large_p_is_not_lost():
    # 0.4**1000 and (1e-160)**2 fall below the smallest normal float, where
    # the plain sums of powers gave these rows the norm 0.  Such a row is
    # taken relative to its largest value; a zero row keeps norm 0, and a
    # row whose largest power stays normal keeps the plain sum's bits.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ps = (1000.0, 2.0, 3.0)
        sv = np.array([[0.4, 0.1], [1e-160, 0.0], [4e-200, 3e-200], [1.0, 0.5], [0.0, 0.0]])
        got = norms_from_sv(sv, tuple(NormKind.schatten(p) for p in ps))
        assert got[0, :3].tolist() == [0.4, 1e-160, 4e-200]
        assert got[1:, 1].tolist() == [1e-160, 1e-160] and got[:, 4].tolist() == [0.0] * 3
        for j, p in enumerate(ps):
            rows = sv[[0, 3]]
            plain = np.sqrt(np.sum(rows**2, axis=1)) if p == 2.0 else np.sum(rows**p, axis=1) ** (1.0 / p)
            assert got[j, 3] == plain[1] and (p == 1000.0 or got[j, 0] == plain[0])
            assert got[j, 2] == pytest.approx(4e-200 * (1.0 + 0.75**p) ** (1.0 / p), rel=1e-15)
