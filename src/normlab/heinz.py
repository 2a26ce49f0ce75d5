"""Heinz-mean brackets, the arithmetic-geometric mean bound, and the
chained refinements of the sum bound with a quadrature integral term.

This module is the multiplier engine of every positive-pair check and of
every sandwich check on an invertible S.  A :class:`PairBasis` holds the
eigenvalues a_i, b_j of a positive pair and the free matrix X~ rotated
into its eigenbases.  Every matrix a check needs is then U (W o X~) V*
for a weight matrix W and unitaries U, V, which unitarily invariant norms
drop: rotate, weight, one batched SVD (:func:`weighted_sv`), reduce with
``norms_from_sv``.  The weights:

* power pairs (:func:`power_pair_sv`): A^s X B^{w-s} + A^{w-s} X B^s has
  W_ij = a_i^s b_j^{w-s} + a_i^{w-s} b_j^s;
* quadratics (:func:`quadratic_sv`): A^2 X + X B^2 + t AXB has
  W_ij = a_i^2 + b_j^2 + t a_i b_j, and AXB has a_i b_j;
* sandwiches (:func:`sandwich_sv`): A X B^-1 + A^-1 X B + k X has
  W_ij = a_i/b_j + b_j/a_i + k, and at k = 0 so has A* X B^-1 + A^-1 X B*
  for invertible A, B, on their singular values with X~ = U_A* X V_B.

:func:`pair_basis` diagonalizes positive definite A, B (Q_A* X Q_B).
:func:`abs_pair_basis` serves arbitrary A, B: with A = U_A S_A V_A* and
B = U_B S_B V_B*, the singular values are the eigenvalues of |A| and |B*|,
and X~ = V_A* X U_B makes A*A X + X BB* + t|A|X|B*| a quadratic, with
AXB = U_A (S_A X~ S_B) V_B* its cross term.  Both rotate X with
:func:`rotate`, which the sandwich checks on an invertible S call too.

Every check takes a tuple of norm kinds and returns one ChainStack per kind.
Singular values do not depend on the norm, so each check evaluates its
instance once: one SVD stack serves every norm.  The Gauss-Legendre base
rule is computed once per node count.

Every step also takes a stack of instances: (m, n, n) stacks of A, B and
X with one parameter each (a scalar or an (m,) array) give a basis with a
leading instance axis, one eigh or SVD per stack, one SVD of all the
instances' weighted matrices, and per-norm ChainStacks over the
instances.  A single instance is the same path with no leading axis, its
ChainStacks included, and numpy's stacked LAPACK and BLAS calls round
each matrix as the single calls do, so a stacked check equals its
instances' single checks bit for bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import matcore
from .chains import DEFAULT_TOL, chain
from .errors import DimensionMismatch, InvalidParams, NonFinite
from .norms import NormKind, norms_from_sv

__all__ = [
    "require_alpha",
    "PairBasis",
    "pair_basis",
    "abs_pair_basis",
    "rotate",
    "power_pair_sv",
    "quadratic_sv",
    "sandwich_weights",
    "sandwich_sv",
    "weighted_sv",
    "heinz_expr",
    "heinz_check",
    "agm_check",
    "integral_mean_norm",
    "kittaneh_chain",
    "kittaneh_members",
    "gauss_legendre_nodes",
]

# Interval lengths below this are collapsed to an endpoint evaluation of the
# integrand instead of a quadrature rule on a degenerate interval.
DEGENERATE_INTERVAL = 1e-10

DEFAULT_NODES = 32


def require_alpha(alpha) -> None:
    """Raise InvalidParams unless the Heinz exponent alpha (or each of an array) is in [0, 1]."""
    matcore.require_within(alpha, 0.0, 1.0, InvalidParams, "Heinz exponent must be in [0, 1]")


@dataclass(frozen=True, eq=False)
class PairBasis:
    """Eigenvalues of a positive pair (A, B, or |A|, |B*|) with the free
    matrix rotated into its eigenbases (x_rot = Q_A* X Q_B).  A stack of
    pairs carries leading axes: a_eigs (..., n), x_rot (..., n, k)."""

    a_eigs: np.ndarray
    b_eigs: np.ndarray
    x_rot: np.ndarray

    def take(self, index) -> "PairBasis":
        """The pairs at the given indices of the flattened stack."""
        n, k = self.x_rot.shape[-2:]
        return PairBasis(self.a_eigs.reshape(-1, n)[index], self.b_eigs.reshape(-1, k)[index],
                         self.x_rot.reshape(-1, n, k)[index])


def pair_basis(a, b, x) -> PairBasis:
    """Diagonalize positive definite A and B once and rotate X."""
    da, db = matcore.posdef_eigen(a), matcore.posdef_eigen(b)
    return rotate(da.eigenvalues, da.vectors, db.eigenvalues, db.vectors, x)


def abs_pair_basis(a, b, x) -> PairBasis:
    """Eigendata of |A| and |B*| for arbitrary A, B, from one SVD of each,
    with X rotated to V_A* X U_B."""
    da, db = matcore.svd(a), matcore.svd(b)
    return rotate(da.singular_values, da.right, db.singular_values, db.left, x)


def rotate(a_eigs, qa, b_eigs, qb, x) -> PairBasis:
    """The basis of spectra a_eigs, b_eigs with X rotated to Qa* X Qb; a
    stack of spectra takes a stack of X of the same length."""
    x = matcore.as_matrices(x)
    lead = a_eigs.shape[:-1]
    if x.shape != lead + (a_eigs.shape[-1], b_eigs.shape[-1]) or b_eigs.shape[:-1] != lead:
        raise DimensionMismatch(
            f"free matrix shape {x.shape} does not match pair dimensions {a_eigs.shape} and {b_eigs.shape}"
        )
    return PairBasis(a_eigs=a_eigs, b_eigs=b_eigs, x_rot=qa.conj().swapaxes(-1, -2) @ x @ qb)


def power_pair_sv(basis: PairBasis, exponents, total: float = 1.0) -> np.ndarray:
    """Singular values of A^s X B^{total-s} + A^{total-s} X B^s, batched.

    exponents is scalar or an array whose last axes are the basis's stack
    axes; the result has one descending row of singular values per
    exponent.
    """
    s = np.atleast_1d(np.asarray(exponents, dtype=float))[..., None, None]
    la, mu = basis.a_eigs[..., :, None], basis.b_eigs[..., None, :]
    return weighted_sv(basis, la**s * mu ** (total - s) + la ** (total - s) * mu**s)


def quadratic_sv(basis: PairBasis, ts) -> np.ndarray:
    """Singular values of A^2 X + X B^2 + t AXB for each t in ts (a scalar
    or one per pair of the basis), then of AXB, one descending row each."""
    la, mu = basis.a_eigs[..., :, None], basis.b_eigs[..., None, :]
    cross = la * mu
    squares = la**2 + mu**2
    # weighted_sv refuses weights that a t near the float range's end overflows.
    with np.errstate(over="ignore", invalid="ignore"):
        weights = np.stack([squares + np.asarray(t)[..., None, None] * cross for t in ts] + [cross])
    return weighted_sv(basis, weights)


def sandwich_weights(l, m, k) -> np.ndarray:
    """Weights l_i/m_j + m_j/l_i + k of A X B^-1 + A^-1 X B + k X, for
    spectra l of A and m of B; (..., n) stacks of spectra give an
    (..., n, n) stack, with k a scalar or one per spectrum."""
    ratio = l[..., :, None] / m[..., None, :]
    return ratio + 1.0 / ratio + np.asarray(k)[..., None, None]


def sandwich_sv(bases, k) -> np.ndarray:
    """Singular values of A X B^-1 + A^-1 X B + k X on each basis of a
    list (row 0), then of each basis's X (row 1), from one SVD of the bases
    stacked: shape (2, len(bases), ..., n), descending along the last
    axis."""
    a_eigs, b_eigs, x_rot = (np.stack(field) for field in zip(*((p.a_eigs, p.b_eigs, p.x_rot) for p in bases)))
    weights = np.stack((sandwich_weights(a_eigs, b_eigs, k), np.ones(x_rot.shape)))
    return weighted_sv(PairBasis(a_eigs, b_eigs, x_rot), weights)


def weighted_sv(basis: PairBasis, weights) -> np.ndarray:
    """Singular values of the rotated free matrix weighted entrywise by one
    weight matrix or, batched, by each matrix of a (..., m, n) stack; a
    basis of k stacked pairs takes (..., k, m, n) weights.  A weighted
    matrix beyond the float range raises NonFinite before the SVD, which
    LAPACK would otherwise fill with NaN."""
    w = np.asarray(weights, dtype=float)
    if w.shape[-basis.x_rot.ndim :] != basis.x_rot.shape:
        raise DimensionMismatch("weight shape must match the rotated free matrix")
    with np.errstate(over="ignore", invalid="ignore"):
        weighted = w * basis.x_rot
    if not np.all(np.isfinite(weighted)):
        raise NonFinite("a weighted matrix overflowed the float range")
    return np.linalg.svd(weighted, compute_uv=False)


@functools.lru_cache(maxsize=8)
def _legendre_base(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], read-only because the
    cache hands the same arrays to every caller."""
    base, w = np.polynomial.legendre.leggauss(nodes)
    base.flags.writeable = False
    w.flags.writeable = False
    return base, w


def gauss_legendre_nodes(lo: float, hi: float, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights mapped affinely to [lo, hi];
    weights sum to hi - lo."""
    base, w = _legendre_base(int(nodes))
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return mid + half * base, half * w


def heinz_expr(a, b, x, alpha: float) -> np.ndarray:
    """The bracket A^alpha X B^(1-alpha) + A^(1-alpha) X B^alpha."""
    require_alpha(alpha)
    x = matcore.as_matrix(x)
    t1 = matcore.frac_power(a, alpha) @ x @ matcore.frac_power(b, 1.0 - alpha)
    t2 = matcore.frac_power(a, 1.0 - alpha) @ x @ matcore.frac_power(b, alpha)
    return t1 + t2


def dominance(labels, rows, factor, tol: float) -> tuple:
    """Two-value chains |larger| >= factor |smaller|, one per norm: rows is
    norms_from_sv of a (2, ..., n) stack of singular values (larger,
    smaller), factor a scalar or one per instance."""
    with np.errstate(over="ignore"):
        members = np.stack((rows[:, 0], factor * rows[:, 1]), axis=-1)
    return chain(labels, np.moveaxis(members, 0, -2), tol=tol).unstack()


def heinz_check(a, b, x, alpha, kinds, tol: float = DEFAULT_TOL) -> tuple:
    """Two-value chain: |AX+XB| >= |A^a X B^(1-a) + A^(1-a) X B^a|, the
    first and last members of kittaneh_chain, bit for bit."""
    require_alpha(alpha)
    basis = pair_basis(a, b, x)
    shape = basis.a_eigs.shape[:-1]
    exponents = np.stack((np.ones(shape), np.broadcast_to(alpha, shape)))
    rows = norms_from_sv(power_pair_sv(basis, exponents), kinds)
    return dominance(("|AX+XB|", "|A^aXB^(1-a)+A^(1-a)XB^a|"), rows, 1.0, tol)


def agm_check(a, b, x, kinds, tol: float = DEFAULT_TOL) -> tuple:
    """Two-value chain: |A*AX+XBB*| >= 2|AXB| for arbitrary A, B."""
    rows = norms_from_sv(quadratic_sv(abs_pair_basis(a, b, x), (0.0,)), kinds)
    return dominance(("|A*AX+XBB*|", "2|AXB|"), rows, 2.0, tol)


def integral_mean_norm(
    a,
    b,
    x,
    lo: float,
    hi: float,
    kind: NormKind,
    nodes: int = DEFAULT_NODES,
) -> float:
    """Mean of nu -> |A^nu X B^(1-nu) + A^(1-nu) X B^nu| over [lo, hi].

    Gauss-Legendre with the stated node count; the integrand is analytic in
    nu for positive definite inputs, so convergence is spectral.
    """
    if not (0.0 <= lo < hi <= 1.0):
        raise InvalidParams(f"need 0 <= lo < hi <= 1, got [{lo}, {hi}]")
    basis = pair_basis(a, b, x)
    pts, w = gauss_legendre_nodes(lo, hi, nodes)
    return float(np.dot(w, norms_from_sv(power_pair_sv(basis, pts), (kind,))[0]) / (hi - lo))


def kittaneh_chain(
    a,
    b,
    x,
    alpha,
    kinds,
    tol: float = DEFAULT_TOL,
    nodes: int = DEFAULT_NODES,
) -> tuple:
    """Five-value refinement chain for the Heinz bracket, one report per
    norm in kinds, largest first:

        |AX+XB|
        >= 0.5|AX+XB| + 0.5 H(alpha)
        >= mean of H over the regime interval
        >= H at the interval midpoint map
        >= H(alpha)

    with H(s) = |A^s X B^(1-s) + A^(1-s) X B^s|.  The regime interval is
    [0, alpha] with midpoint map alpha/2 for alpha <= 1/2, and [alpha, 1]
    with midpoint map (1+alpha)/2 otherwise.  A zero-length interval
    (alpha at 0 or 1) evaluates the integrand at the endpoint.

    The pair is diagonalized once, and one batched SVD over the bracket
    exponents and the quadrature nodes serves every norm.  Stacks of A, B
    and X with one alpha each give one ChainStack per norm.
    """
    require_alpha(alpha)
    basis = pair_basis(a, b, x)
    regime = np.where(np.asarray(alpha) <= 0.5, 1, 2)
    return _kittaneh_reports(basis, alpha, regime, kinds, tol, nodes)


_KITTANEH_LABELS = ("|AX+XB|", "(|AX+XB|+H(a))/2", "mean H", "H(midmap)", "H(a)")


def _kittaneh_reports(basis: PairBasis, alpha, regime, kinds, tol: float, nodes: int) -> tuple:
    """The chains of :func:`kittaneh_chain` with the regime given."""
    return chain(_KITTANEH_LABELS, kittaneh_members(basis, alpha, regime, kinds, nodes), tol=tol).unstack()


def kittaneh_members(basis: PairBasis, alpha, regime, kinds, nodes: int) -> np.ndarray:
    """The five members of :func:`kittaneh_chain`, largest first, as an
    (..., K, 5) array over the basis's stack axes and the K norms in kinds;
    alpha and regime are scalars or one per pair.  Regime 1 integrates over
    [0, alpha] with midpoint map alpha/2, regime 2 over [alpha, 1] with
    (1+alpha)/2; alpha = 1/2 lies in both.  An interval shorter than
    DEGENERATE_INTERVAL is its endpoint alpha.

    Every pair's exponents (1, alpha, the midpoint map, then the nodes or
    the endpoint) go through one SVD; the quadrature sums stay one
    inner product per pair and norm."""
    shape = basis.a_eigs.shape[:-1]
    alpha = np.broadcast_to(np.asarray(alpha, dtype=float), shape).ravel()
    first = np.broadcast_to(regime, shape).ravel() == 1
    lo, hi = np.where(first, 0.0, alpha), np.where(first, alpha, 1.0)
    mid_map = np.where(first, 0.5 * alpha, 0.5 * (1.0 + alpha))
    quad = hi - lo >= DEGENERATE_INTERVAL
    pts, w = gauss_legendre_nodes(lo[:, None], hi[:, None], nodes)
    exponents = np.concatenate(
        (np.stack((np.ones_like(alpha), alpha, mid_map), axis=1), np.where(quad[:, None], pts, alpha[:, None])), axis=1
    )
    # A degenerate pair keeps its first four exponents only.
    keep = np.ones(exponents.shape, dtype=bool)
    keep[~quad, 4:] = False
    pair, col = np.nonzero(keep)
    vals = np.zeros((len(kinds),) + exponents.shape)
    vals[:, pair, col] = norms_from_sv(power_pair_sv(basis.take(pair), exponents[pair, col]), kinds)
    v_sum, v_alpha, v_mid, v_int = vals[..., 0], vals[..., 1], vals[..., 2], vals[..., 3].copy()
    v_int[:, quad] = (vals[:, quad, None, 3:] @ w[quad, :, None])[..., 0, 0] / (hi - lo)[quad]
    members = np.stack((v_sum, 0.5 * v_sum + 0.5 * v_alpha, v_int, v_mid, v_alpha), axis=-1)
    return np.moveaxis(members, 0, -2).reshape(shape + (len(kinds), 5))
