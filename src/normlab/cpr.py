"""Sandwich inequalities for invertible conjugations and the two-parameter
power-pair chain, including direct-sum variants and a Schatten power form.

Every check takes a tuple of norm kinds and returns one ChainStack per
kind (:func:`final_cor_check` takes Schatten exponents instead), and runs on
the :mod:`normlab.heinz` multiplier engine: a pair basis, weights, one
SVD stack for every norm, with each operator decomposed once, by its
class: sandwich weights on the eigenvalues of self-adjoint S, T or positive
P, Q, or on the singular values of an arbitrary S = U diag(sig) V*, which
serves S* = V diag(sig) U* too.  A direct sum's singular values are the
sorted union of its blocks'.

Like the engine, every check also takes (m, n, n) stacks of its matrices,
with t and r scalars or one per instance, and then its ChainStacks have
a leading instance axis.

The Zhan chain is built from the Heinz chain, as the paper proves it.
With X' = A^(1/2) X B^(1/2), the bracket H(s) = |A^s X B^{2-s} + A^{2-s}
X B^s| is the Heinz bracket of X' at s - 1/2, so the five H members of the
Zhan chain are 4 x (the Heinz chain of X' at alpha = r - 1/2) - c|AXB|,
regime for regime (r <= 1 exactly when alpha <= 1/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import matcore
from .chains import DEFAULT_TOL, chain
from .errors import InvalidParams, NonFinite
from .heinz import (
    PairBasis,
    abs_pair_basis,
    dominance,
    kittaneh_members,
    pair_basis,
    quadratic_sv,
    rotate,
    sandwich_sv,
    sandwich_weights,
    weighted_sv,
)
from .norms import OP, NormKind, norms_from_sv

__all__ = [
    "require_t",
    "ZhanParams",
    "cpr_check",
    "cpr_two_sided_check",
    "cpr_star_check",
    "zhan_chain",
    "zhan_check",
    "cor23_check",
    "cor24_check",
    "mos1_check",
    "mos2_check",
    "final_cor_check",
]


def require_t(t) -> None:
    """Raise InvalidParams unless the shift t (or each of an array) is finite and <= 2."""
    matcore.require_within(t, -np.inf, 2.0, InvalidParams, "t must be finite and <= 2")


@dataclass(frozen=True)
class ZhanParams:
    """Parameter box: finite t <= 2 and 1/2 <= r <= 3/2, InvalidParams
    outside it; regime 1 covers r <= 1.  t and r may be arrays, one entry
    per instance of a stack."""

    t: float
    r: float

    def __post_init__(self):
        require_t(self.t)
        matcore.require_within(self.r, 0.5, 1.5, InvalidParams, "r must be in [1/2, 3/2]")

    @property
    def regime(self):
        return np.where(np.asarray(self.r) <= 1.0, 1, 2)


def cpr_check(s, x, kinds, tol: float = DEFAULT_TOL) -> tuple:
    """|SXS^-1 + S^-1XS| >= 2|X| for self-adjoint invertible S."""
    d = matcore.selfadjoint_eigen(s)
    basis = rotate(d.eigenvalues, d.vectors, d.eigenvalues, d.vectors, x)
    return _sandwich_dominance(("|SXS^-1+S^-1XS|", "2|X|"), basis, 0.0, kinds, tol)


def cpr_two_sided_check(s, t, x, kinds, tol: float = DEFAULT_TOL) -> tuple:
    """|SXT^-1 + S^-1XT| >= 2|X| for self-adjoint invertible S, T."""
    ds, dt = matcore.selfadjoint_eigen(s), matcore.selfadjoint_eigen(t)
    basis = rotate(ds.eigenvalues, ds.vectors, dt.eigenvalues, dt.vectors, x)
    return _sandwich_dominance(("|SXT^-1+S^-1XT|", "2|X|"), basis, 0.0, kinds, tol)


def cpr_star_check(s, x, kinds, tol: float = DEFAULT_TOL) -> tuple:
    """|S*XS^-1 + S^-1XS*| >= 2|X| for arbitrary invertible S."""
    d = matcore.invertible_svd(s)
    basis = rotate(d.singular_values, d.left, d.singular_values, d.right, x)
    return _sandwich_dominance(("|S*XS^-1+S^-1XS*|", "2|X|"), basis, 0.0, kinds, tol)


def _sandwich_dominance(labels, basis: PairBasis, k, kinds, tol: float) -> tuple:
    # |A X B^-1 + A^-1 X B + kX| >= (k+2)|X| on the basis of A and B.
    rows = norms_from_sv(sandwich_sv([basis], k)[:, 0], kinds)
    return dominance(labels, rows, np.asarray(k) + 2.0, tol)


def zhan_chain(
    a,
    b,
    x,
    params: ZhanParams,
    kinds,
    tol: float = DEFAULT_TOL,
) -> tuple:
    """Eight-member refinement chain between 2|A^2X+XB^2+tAXB| and
    (t+2)H(r), one report per norm in kinds, largest first.

    With H(s) = |A^s X B^{2-s} + A^{2-s} X B^s|, g = |AXB| and c = 4-2t:

        2|A^2X+XB^2+tAXB|
        >= 2|A^2X+XB^2+2AXB| - c g
        >= 4 H(3/2) - c g
        >= 2 H(3/2) + 2 H(r) - c g
        >= (4/L) int H(nu+1/2) dnu - c g
        >= 4 H(mid) - c g
        >= 4 H(r) - c g
        >= (t+2) H(r)

    Regime 1 (r <= 1): nu runs over [0, r-1/2], mid = (2r+1)/4.
    Regime 2 (r >= 1): nu runs over [r-1/2, 1], mid = (2r+3)/4.
    A zero-length nu interval evaluates the integrand at its endpoint.

    The pair is diagonalized once.  The H members are the Kittaneh members
    of A^(1/2) X B^(1/2) at alpha = r - 1/2, whose regime interval and
    midpoint map are nu's shifted by 1/2; their nested rule's SVD stacks and
    one of the quadratic and AXB weights serve every norm.
    """
    if not isinstance(params, ZhanParams):
        params = ZhanParams(*params)
    basis = pair_basis(a, b, x)
    return _zhan_reports(basis, params.t, params.r, params.regime, kinds, tol)


_ZHAN_LABELS = (
    "2|A^2X+XB^2+tAXB|",
    "2|A^2X+XB^2+2AXB|-c|AXB|",
    "4H(3/2)-c|AXB|",
    "2H(3/2)+2H(r)-c|AXB|",
    "(4/L)intH-c|AXB|",
    "4H(mid)-c|AXB|",
    "4H(r)-c|AXB|",
    "(t+2)H(r)",
)


def _zhan_reports(basis: PairBasis, t, r, regime, kinds, tol: float) -> tuple:
    """The chains of :func:`zhan_chain` with the regime given; r = 1 lies in
    both."""
    t = np.asarray(t, dtype=float)[..., None]
    # X' = A^(1/2) X B^(1/2) in the pair basis, whose Heinz bracket at s - 1/2 is H(s).
    root = replace(basis, x_rot=np.sqrt(basis.a_eigs[..., :, None] * basis.b_eigs[..., None, :]) * basis.x_rot)
    h = kittaneh_members(root, np.asarray(r) - 0.5, regime, kinds)
    q_t, q_2, g = np.moveaxis(norms_from_sv(quadratic_sv(basis, (t[..., 0], 2.0)), kinds), 0, -1)
    # A t near the float range's end can take c and the members past it.
    with np.errstate(over="ignore", invalid="ignore"):
        c = 4.0 - 2.0 * t
        members = (2.0 * q_t, 2.0 * q_2 - c * g, *np.moveaxis(4.0 * h - (c * g)[..., None], -1, 0),
                   (t + 2.0) * h[..., -1])
    return chain(_ZHAN_LABELS, np.stack(members, axis=-1), tol=tol).unstack()


def zhan_check(
    a,
    b,
    x,
    params: ZhanParams,
    kinds,
    tol: float = DEFAULT_TOL,
) -> tuple:
    """Two-value chain 2|A^2X+tAXB+XB^2| >= (2+t)H(r), one per norm in kinds.

    These are the first and last members of :func:`zhan_chain`, taken from
    the same evaluation, so they coincide with that chain's bitwise.
    """
    return tuple(
        chain((full.labels[0], full.labels[-1]), full.values[..., [0, -1]], tol=tol)
        for full in zhan_chain(a, b, x, params, kinds, tol=tol)
    )


def cor23_check(a, b, x, t, kinds, tol: float = DEFAULT_TOL) -> tuple:
    """|A*AX + XBB* + t|A|X|B*|| >= (t+2)|AXB| for arbitrary A, B, t <= 2.

    The quadratic bound for positive pairs applied to |A| and |B*|; at
    t = 0 this is exactly the arithmetic-geometric-mean inequality of
    agm_check, and for positive A, B it collapses to the r = 1 sandwich
    bound.  (The pairing of XBB* with |B*| and a starless AXB on the right
    is forced: swapping either star makes the statement false, with random
    3x3 counterexamples at margin ~1e0.)
    """
    require_t(t)
    rows = norms_from_sv(quadratic_sv(abs_pair_basis(a, b, x), (t,)), kinds)
    return dominance(("|A*AX+XBB*+t|A|X|B*||", "(t+2)|AXB|"), rows, np.asarray(t) + 2.0, tol)


def cor24_check(p, q, x, t, kinds, tol: float = DEFAULT_TOL) -> tuple:
    """|PXQ^-1 + P^-1XQ + tX| >= (t+2)|X| for positive definite P, Q, t <= 2."""
    require_t(t)
    return _sandwich_dominance(("|PXQ^-1+P^-1XQ+tX|", "(t+2)|X|"), pair_basis(p, q, x), t, kinds, tol)


def mos1_check(s, x, y, kinds, tol: float = DEFAULT_TOL) -> tuple:
    """Direct-sum variant, first form:

    |(SYS^-1 + S^{*-1}YS*) (+) (S*XS^{*-1} + S^-1XS)| >= 2|X (+) Y|.
    """
    d = matcore.invertible_svd(s)
    sig, u, v = d.singular_values, d.left, d.right
    return _direct_sum_dominance(rotate(sig, v, sig, v, y), rotate(sig, u, sig, u, x), kinds, tol)


def mos2_check(s, x, y, kinds, tol: float = DEFAULT_TOL) -> tuple:
    """Direct-sum variant, second form:

    |(SYS^{*-1} + S^{*-1}YS) (+) (S*XS^-1 + S^-1XS*)| >= 2|X (+) Y|.
    """
    d = matcore.invertible_svd(s)
    sig, u, v = d.singular_values, d.left, d.right
    return _direct_sum_dominance(rotate(sig, v, sig, u, y), rotate(sig, u, sig, v, x), kinds, tol)


def _direct_sum_dominance(basis_y, basis_x, kinds, tol: float) -> tuple:
    # Rows (Y block, X block) and (Y, X) pair up into the sorted unions of the two sums.
    sv = np.moveaxis(sandwich_sv([basis_y, basis_x], 0.0), 1, -2)
    union = np.sort(sv.reshape(sv.shape[:-2] + (-1,)), axis=-1)[..., ::-1]
    return dominance(("|blockY(+)blockX|", "2|X(+)Y|"), norms_from_sv(union, kinds), 2.0, tol)


def final_cor_check(s, x, ps, tol: float = DEFAULT_TOL) -> tuple:
    """Sub-checks on the pair E1 = SXS^-1 + S^{*-1}XS*,
    E2 = S*XS^{*-1} + S^-1XS:

    (i)  max(|E1|, |E2|) >= 2|X| in the operator norm;
    (ii) |E1|_p^p + |E2|_p^p >= 2^(p+1) |X|_p^p for each p in ps.

    Returned as 2-value reports, (i) first and then one (ii) per p; they
    live on different scales and do not form one monotone chain.  One
    batched SVD of E1, E2 and X serves all of them.  A norm or power
    beyond the float range raises NonFinite, and so does a power of a
    nonzero norm below the smallest normal float.  A p that
    NormKind.schatten refuses raises InvalidParams before S is decomposed.
    """
    kinds = (OP,) + tuple(NormKind.schatten(p) for p in ps)
    d = matcore.invertible_svd(s)
    sig, u, v = d.singular_values, d.left, d.right
    # E1 is W o (V*XV) and E2 is W o (U*XU), and X has the singular values
    # of V*XV: one SVD of the three per instance.
    e1, e2 = rotate(sig, v, sig, v, x), rotate(sig, u, sig, u, x)
    w = sandwich_weights(sig, sig, 0.0)
    sv = weighted_sv(replace(e1, x_rot=np.stack((e1.x_rot, e2.x_rot, e1.x_rot))), np.stack((w, w, np.ones(w.shape))))
    norms = norms_from_sv(sv, kinds)
    shape = norms.shape[2:]
    op1, op2, op_x = norms[0]
    op_report = chain(("max(|E1|,|E2|)", "2|X|"), np.stack((np.maximum(op1, op2), 2.0 * op_x), axis=-1), tol=tol)
    # The p-th powers are taken on Python floats, whose power rounds apart
    # from numpy's vectorized one.  Beyond the float range a power raises
    # OverflowError, and a sum or product is inf; below it, a nonzero norm's
    # power is subnormal or zero.
    norms_p = norms[1:].reshape(len(ps), 3, math.prod(shape))
    try:
        terms = np.array([[[n**p for n in col] for col in row] for p, row in zip(ps, norms_p.tolist())])
        scale = np.array([2.0 ** (p + 1.0) for p in ps]).reshape(len(ps), 1)
    except OverflowError:
        raise NonFinite("a Schatten p-th power overflowed the float range") from None
    terms = terms.reshape(norms_p.shape)
    if np.any((terms < np.finfo(float).tiny) & (norms_p > 0.0)):
        raise NonFinite("a Schatten p-th power underflowed the float range")
    with np.errstate(over="ignore"):
        powers = np.stack((terms[:, 0] + terms[:, 1], scale * terms[:, 2]), axis=-1)
    if not np.all(np.isfinite(powers)):
        raise NonFinite("a Schatten p-th power overflowed the float range")
    power_members = np.moveaxis(powers, 0, -2).reshape(shape + (len(ps), 2))
    return (op_report, *chain(("|E1|_p^p+|E2|_p^p", "2^(p+1)|X|_p^p"), power_members, tol=tol).unstack())
