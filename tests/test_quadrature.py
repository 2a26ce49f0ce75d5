"""The nested Clenshaw-Curtis rule of the chains' "mean H" member: how many
matrices it sends to the SVD, and where it escalates and splits.

The SVD counts are a timing-free guard of the chain-quadrature workload's
cost: every weighted matrix of a heinz or zhan chain goes through one
``np.linalg.svd`` call, so counting the matrices each call receives counts
the work.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from chain_asserts import gauss_mean
from normlab import cli, heinz, matcore
from normlab.norms import FRO, OP, TR, NormKind, norms_from_sv

BENCH = str(Path(__file__).resolve().parents[1] / "bench")
sys.path.insert(0, BENCH)
try:
    import workloads
finally:
    sys.path.remove(BENCH)

# SVD matrices of the minimal chain-quadrature list with the fixed 32-node
# Gauss-Legendre rule, at seeds 1 and 7 alike: 35 per interior heinz
# instance and 4 per degenerate one, plus the zhan chain's 3 quadratic
# matrices per instance.
FIXED_RULE_MINIMAL_MATRICES = 823


@pytest.fixture
def svd_matrices(monkeypatch):
    """A list whose one entry counts the matrices np.linalg.svd receives."""
    count = [0]
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        count[0] += int(np.prod(np.shape(a)[:-2]))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return count


def _stack(seed, m, n, cond):
    streams = matcore.substreams(seed, [(i,) for i in range(m)], range(3))
    return (
        matcore.random_posdef(n, cond, streams[0::3]),
        matcore.random_posdef(n, cond, streams[1::3]),
        matcore.random_probe_matrix(n, streams[2::3]),
    )


def test_smooth_stack_takes_17_matrices_per_interior_instance(svd_matrices):
    # In the Frobenius norm H^2 is a positive sum of exponentials in s, so
    # H is analytic: on well-conditioned pairs every interior instance
    # stops at 17 points, its 14 new nodes sharing one SVD with the chain's
    # 3 exponents, and a degenerate one (alpha at 0 or 1) takes those 3.
    alphas = np.resize([0.0, 0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9, 1.0], 36)
    a, b, x = _stack(5, alphas.size, 4, 10.0)
    heinz.kittaneh_chain(a, b, x, alphas, (FRO,))
    degenerate = np.count_nonzero((alphas == 0.0) | (alphas == 1.0))
    assert svd_matrices[0] == 17 * (alphas.size - degenerate) + 3 * degenerate


@pytest.mark.parametrize("seed", [1, 7])
def test_minimal_chain_quadrature_list_takes_fewer_matrices(tmp_path, svd_matrices, seed):
    for campaign in workloads.campaigns("chain-quadrature", workloads.MINIMAL, seed, str(tmp_path)):
        assert cli.main(list(campaign.argv)) == 0
    assert 0 < svd_matrices[0] < FIXED_RULE_MINIMAL_MATRICES


def _verify_instance(seed, point, instance):
    # A, B and X of one instance of `verify --dim 5 --cond 100 --seed <seed>`.
    streams = matcore.substreams(seed, [(point, instance)], range(3))
    a = matcore.random_posdef(5, 100.0, streams[0::3])[0]
    b = matcore.random_posdef(5, 100.0, streams[1::3])[0]
    return a, b, matcore.random_probe_matrix(5, streams[2::3])[0]


# Kinked trace-norm integrands that no level up to 65 points resolves:
# instance 6 at alpha = 0.75 of the heinz suite at seed 7, where a singular
# value comes within 7.6e-4 of zero at s = 0.894, and instance 61 at t =
# 1/2, r = 1 of the zhan suite at seed 1, whose H members are the Heinz
# chain of A^(1/2) X B^(1/2) at alpha = 1/2, with a singular value within
# 1.2e-4 of zero at s = 0.338.  The 32-node Gauss-Legendre rule was off by
# 1.6e-6 and 4.5e-10 relative, and the 65-point level alone by 2.9e-7 and
# 7.6e-9.
KINKED = [("heinz", 7, 4, 6, 0.75), ("zhan", 1, 12, 61, 0.5)]


def _kinked(suite, seed, point, instance, alpha):
    a, b, x = _verify_instance(seed, point, instance)
    if suite == "zhan":
        x = matcore.frac_power(a, 0.5) @ x @ matcore.frac_power(b, 0.5)
    return a, b, x, alpha


@pytest.mark.parametrize("suite, seed, point, instance, alpha", KINKED)
def test_kinked_instance_splits_and_nears_the_reference(svd_matrices, suite, seed, point, instance, alpha):
    # The rule reaches 65 points (17 + 16 + 32 matrices) unconverged, splits
    # its interval and runs at least 17 points on each half; its mean lies
    # nearer a 2000-node reference than the 32-node rule's, and within 1e-11.
    a, b, x, alpha = _kinked(suite, seed, point, instance, alpha)
    (rep,) = heinz.kittaneh_chain(a, b, x, alpha, (TR,))
    assert svd_matrices[0] >= 65 + 2 * 17
    basis = heinz.pair_basis(a, b, x)
    lo, hi = (0.0, alpha) if alpha <= 0.5 else (alpha, 1.0)
    h = lambda s: norms_from_sv(heinz.power_pair_sv(basis, s), (TR,))[0]  # noqa: E731
    want, fixed = gauss_mean(h, lo, hi, 16, 125), gauss_mean(h, lo, hi, 32)
    assert abs(rep.values[2] - want) < abs(fixed - want)
    assert abs(rep.values[2] - want) <= 1e-11 * want
    assert abs(fixed - want) > 1e-10 * want


def test_split_means_keep_their_bits_in_a_stack():
    # The kinked pairs, whose means split, stacked with pairs that stop at
    # 17 or 33 points and a degenerate one: every chain has the bits of its
    # own single-norm call.
    kinds = (OP, TR, FRO, NormKind.kyfan(2), NormKind.schatten(3.0))
    pairs = [_kinked(*case) for case in KINKED]
    pairs += [(*_verify_instance(3, 0, i), alpha) for i, alpha in enumerate([0.1, 0.5, 0.9, 1.0])]
    a, b, x, alphas = (np.stack(field) for field in zip(*pairs))
    stacked = heinz.kittaneh_chain(a, b, x, alphas, kinds)
    for i, pair in enumerate(pairs):
        for kind, stack in zip(kinds, stacked):
            (one,) = heinz.kittaneh_chain(*pair, (kind,))
            assert stack.values[i].tobytes() == one.values.tobytes(), (i, kind.label)


def test_kink_gap_is_the_gap_each_norm_turns_at():
    sv = np.array([[5.0, 3.0, 2.5, 0.5]])
    gaps = [heinz._kink_gap(sv, kind)[0] for kind in (OP, NormKind.kyfan(2), NormKind.kyfan(4), TR, FRO)]
    assert gaps == [2.0, 0.5, 0.5, 0.5, 0.5]
    assert heinz._kink_gap(sv, NormKind.kyfan(3))[0] == 2.0
