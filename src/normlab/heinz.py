"""Heinz-mean brackets, the arithmetic-geometric mean bound, and the
chained refinements of the sum bound with a quadrature integral term.

The workhorse is :class:`PairBasis`: for positive definite A, B every
bracket A^s X B^{w-s} + A^{w-s} X B^s equals Q_A (W(s) o X~) Q_B* with
X~ = Q_A* X Q_B and scalar weights W(s)_ij = a_i^s b_j^{w-s} + a_i^{w-s} b_j^s.
Unitarily invariant norms drop the outer unitaries, so chain members and
quadrature nodes reduce to one batched SVD of small weighted matrices.

Every check takes a tuple of norm kinds and returns one report per kind.
Singular values do not depend on the norm, so each check evaluates its
instance once: one SVD stack serves every norm.  The Gauss-Legendre base
rule is computed once per node count.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import matcore
from .chains import DEFAULT_TOL, ChainReport, chain
from .errors import DimensionMismatch
from .norms import NormKind, norms_from_sv, stack_norms

__all__ = [
    "HeinzParams",
    "ChainReport",
    "PairBasis",
    "pair_basis",
    "power_pair_sv",
    "weighted_sv",
    "heinz_expr",
    "heinz_check",
    "agm_check",
    "integral_mean_norm",
    "kittaneh_chain",
    "gauss_legendre_nodes",
]

# Interval lengths below this are collapsed to an endpoint evaluation of the
# integrand instead of a quadrature rule on a degenerate interval.
DEGENERATE_INTERVAL = 1e-10

DEFAULT_NODES = 32


@dataclass(frozen=True)
class HeinzParams:
    """Heinz bracket exponent alpha in [0,1]."""

    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0,1], got {self.alpha}")


@dataclass(frozen=True)
class PairBasis:
    """Eigendata of a positive definite pair with the free matrix rotated
    into the eigenbases (x_rot = Q_A* X Q_B)."""

    a_eigs: np.ndarray
    b_eigs: np.ndarray
    x_rot: np.ndarray


def pair_basis(a, b, x) -> PairBasis:
    """Diagonalize positive definite A and B once and rotate X."""
    da = matcore.posdef_eigen(a)
    db = matcore.posdef_eigen(b)
    x = matcore.as_matrix(x)
    if x.shape != (da.eigenvalues.size, db.eigenvalues.size):
        raise DimensionMismatch(
            f"free matrix shape {x.shape} does not match pair dimensions "
            f"({da.eigenvalues.size}, {db.eigenvalues.size})"
        )
    return PairBasis(
        a_eigs=da.eigenvalues,
        b_eigs=db.eigenvalues,
        x_rot=da.vectors.conj().T @ x @ db.vectors,
    )


def power_pair_sv(basis: PairBasis, exponents, total: float = 1.0) -> np.ndarray:
    """Singular values of A^s X B^{total-s} + A^{total-s} X B^s, batched.

    exponents is scalar or 1-D; the result has one descending row of
    singular values per exponent.
    """
    s = np.atleast_1d(np.asarray(exponents, dtype=float))
    la = basis.a_eigs[None, :]
    mu = basis.b_eigs[None, :]
    la_s = la ** s[:, None]
    la_c = la ** (total - s)[:, None]
    mu_s = mu ** s[:, None]
    mu_c = mu ** (total - s)[:, None]
    w = la_s[:, :, None] * mu_c[:, None, :] + la_c[:, :, None] * mu_s[:, None, :]
    return np.linalg.svd(w * basis.x_rot[None, :, :], compute_uv=False)


def weighted_sv(basis: PairBasis, weights) -> np.ndarray:
    """Singular values of the rotated free matrix weighted entrywise by one
    weight matrix or, batched, by each matrix of a (..., m, n) stack."""
    w = np.asarray(weights, dtype=float)
    if w.shape[-2:] != basis.x_rot.shape:
        raise DimensionMismatch("weight shape must match the rotated free matrix")
    return np.linalg.svd(w * basis.x_rot, compute_uv=False)


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


def mean_nodes(lo: float, hi: float, endpoint: float, nodes: int):
    """Nodes and weights for the mean over [lo, hi]; an interval shorter
    than DEGENERATE_INTERVAL is one node, the endpoint, with no weights."""
    if hi - lo < DEGENERATE_INTERVAL:
        return np.array([endpoint]), None
    return gauss_legendre_nodes(lo, hi, nodes)


def nodes_mean(vals: np.ndarray, w, lo: float, hi: float) -> float:
    """Mean of the integrand from its values at the nodes of mean_nodes."""
    if w is None:
        return float(vals[0])
    return float(np.dot(w, vals) / (hi - lo))


def heinz_expr(a, b, x, alpha: float) -> np.ndarray:
    """The bracket A^alpha X B^(1-alpha) + A^(1-alpha) X B^alpha."""
    HeinzParams(alpha)
    x = matcore.as_matrix(x)
    t1 = matcore.frac_power(a, alpha) @ x @ matcore.frac_power(b, 1.0 - alpha)
    t2 = matcore.frac_power(a, 1.0 - alpha) @ x @ matcore.frac_power(b, alpha)
    return t1 + t2


def dominance(labels, larger, smaller, factor: float, kinds, tol: float) -> tuple[ChainReport, ...]:
    """Two-value chains |larger| >= factor |smaller|, one per norm in kinds,
    from one batched SVD of the two matrices."""
    rows = stack_norms((larger, smaller), kinds).tolist()
    return tuple(chain(labels, (big, factor * small), tol=tol) for big, small in rows)


def heinz_check(a, b, x, alpha: float, kinds, tol: float = DEFAULT_TOL) -> tuple[ChainReport, ...]:
    """Two-value chain: |AX+XB| >= |A^a X B^(1-a) + A^(1-a) X B^a|."""
    a, b, x = matcore.as_matrix(a), matcore.as_matrix(b), matcore.as_matrix(x)
    labels = ("|AX+XB|", "|A^aXB^(1-a)+A^(1-a)XB^a|")
    return dominance(labels, a @ x + x @ b, heinz_expr(a, b, x, alpha), 1.0, kinds, tol)


def agm_check(a, b, x, kinds, tol: float = DEFAULT_TOL) -> tuple[ChainReport, ...]:
    """Two-value chain: |A*AX+XBB*| >= 2|AXB| for arbitrary A, B."""
    a, b, x = matcore.as_matrix(a), matcore.as_matrix(b), matcore.as_matrix(x)
    lhs = (a.conj().T @ a) @ x + x @ (b @ b.conj().T)
    return dominance(("|A*AX+XBB*|", "2|AXB|"), lhs, a @ x @ b, 2.0, kinds, tol)


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
        raise ValueError(f"need 0 <= lo < hi <= 1, got [{lo}, {hi}]")
    basis = pair_basis(a, b, x)
    pts, w = gauss_legendre_nodes(lo, hi, nodes)
    return nodes_mean(norms_from_sv(power_pair_sv(basis, pts, total=1.0), (kind,))[0], w, lo, hi)


def kittaneh_chain(
    a,
    b,
    x,
    alpha: float,
    kinds,
    tol: float = DEFAULT_TOL,
    nodes: int = DEFAULT_NODES,
) -> tuple[ChainReport, ...]:
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
    exponents and the quadrature nodes serves every norm.
    """
    HeinzParams(alpha)
    basis = pair_basis(a, b, x)
    regime = 1 if alpha <= 0.5 else 2
    return _kittaneh_reports(basis, alpha, regime, kinds, tol, nodes)


_KITTANEH_LABELS = ("|AX+XB|", "(|AX+XB|+H(a))/2", "mean H", "H(midmap)", "H(a)")


def _kittaneh_reports(
    basis: PairBasis,
    alpha: float,
    regime: int,
    kinds,
    tol: float,
    nodes: int,
) -> tuple[ChainReport, ...]:
    """The chains of :func:`kittaneh_chain` with the regime given; alpha =
    1/2 lies in both."""
    if regime == 1:
        lo, hi = 0.0, alpha
        mid_map = 0.5 * alpha
    else:
        lo, hi = alpha, 1.0
        mid_map = 0.5 * (1.0 + alpha)

    pts, w = mean_nodes(lo, hi, alpha, nodes)
    sv = power_pair_sv(basis, np.concatenate(([1.0, alpha, mid_map], pts)), total=1.0)
    reports = []
    for vals in norms_from_sv(sv, kinds):
        v_sum, v_alpha, v_mid = vals[:3].tolist()
        v_int = nodes_mean(vals[3:], w, lo, hi)
        v_half = 0.5 * v_sum + 0.5 * v_alpha
        reports.append(chain(_KITTANEH_LABELS, (v_sum, v_half, v_int, v_mid, v_alpha), tol=tol))
    return tuple(reports)
