"""The shifted-sandwich map phi(S,k): X -> SXS^-1 + S^-1XS + kX and the
class of invertible S whose phi stays bounded below by (k+2)|X|.

For self-adjoint S the map is an entrywise (Schur) multiplier in the
eigenbasis: with S = Q diag(l) Q* and X~ = Q*XQ,

    phi(S,k,X) = Q (M o X~) Q*,   M_ij = l_i/l_j + l_j/l_i + k.

That representation powers the pairwise criterion min |M_ij| >= k+2
(constraint_check, which takes one spectrum or a stack of them and serves
both the ratio probe and the conjecture search), the residual check, the
bound check against the classical PSD multiplier theorem, and a
multistart minimizer probing inf |phi(X)| / |X| over the unit sphere,
which descends all its starts as one (S, n, n) stack with one batched SVD
of M o Y and one of Y per iteration.
Sampled checks of the fourteen norm identities that characterize scalar
multiples of self-adjoint, normal, unitary, and reflection classes round
out the module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matcore
from .chains import DEFAULT_TOL, ChainReport, chain
from .errors import DimensionMismatch, InvalidK, NotPSD, Singular
from .norms import OP, stack_norms

__all__ = [
    "ConstraintResult",
    "DkProbeResult",
    "CharacterizationForm",
    "FORMS",
    "EQUALITY_FORMS",
    "phi",
    "constraint_check",
    "schur_rep_residual",
    "schur_theorem_bound_check",
    "dk_ratio_minimize",
    "characterization_check",
    "sample_for_form",
]

# Pass threshold slack for the pairwise spectral criterion.
SPECTRAL_SLACK = 1e-12
# Equality characterizations are exact theorems on their classes.
EQUALITY_TOL = 1e-9
# The ratio probe reads "violated" only for a witness this far below k+2.
VIOLATION_SLACK = 1e-9
# A probe start whose subgradient norm falls below this keeps its iterate.
FROZEN_GRAD_NORM = 1e-14
# A self-adjoint S with an eigenvalue magnitude at or below this fraction of
# the largest counts as numerically singular.
SELFADJOINT_SINGULAR_RTOL = 1e-12
# Largest k the ratio probe accepts: the verdicts compare against k+2 with
# the absolute slacks above, so one ulp of k+2 (1.1e-13 at this bound) must
# stay far below SPECTRAL_SLACK.
DK_K_MAX = 1e3


@dataclass(frozen=True)
class DkProbeResult:
    """Outcome of the ratio-minimization probe.

    best_ratio is an upper bound on inf |phi(S,k,X)| / |X| (operator norm),
    achieved by witness; it is never claimed to be the infimum.  verdict is
    three-valued: "violated" (witness strictly below k+2), "consistent"
    (no witness found within budget), "spectrally-excluded" (the pairwise
    eigenvalue criterion already fails).
    """

    eigenvalues: np.ndarray
    k: float
    spectral_ok: bool
    best_ratio: float
    witness: np.ndarray
    starts_used: int

    @property
    def verdict(self) -> str:
        if not self.spectral_ok:
            return "spectrally-excluded"
        if self.best_ratio < self.k + 2.0 - VIOLATION_SLACK:
            return "violated"
        return "consistent"


def phi(s, k: float, x) -> np.ndarray:
    """SXS^-1 + S^-1XS + kX for invertible S."""
    s = matcore.as_matrix(s)
    si = matcore.inverse(s)
    x = matcore.as_matrix(x)
    return s @ x @ si + si @ x @ s + k * x


def _multiplier_matrix(eigs: np.ndarray, k: float) -> np.ndarray:
    # M_ij = l_i/l_j + l_j/l_i + k, the eigenbasis multiplier of phi(S, k);
    # an (..., n) stack of spectra gives an (..., n, n) stack.
    ratio = eigs[..., :, None] / eigs[..., None, :]
    return ratio + 1.0 / ratio + k


@dataclass(frozen=True)
class ConstraintResult:
    """Pairwise criterion verdict; for an (..., n) stack of spectra every
    field but threshold is a (...)-shaped array and pair a tuple of two such
    arrays."""

    ok: bool | np.ndarray
    min_value: float | np.ndarray
    pair: tuple
    threshold: float


def constraint_check(lambdas, k: float) -> ConstraintResult:
    """Minimum of |l_i/l_j + l_j/l_i + k| over distinct-index pairs,
    against k + 2, for any real k.  Self-pairs are exactly |k + 2| and never
    fail; a singleton spectrum is trivially constrained.  Takes one spectrum
    or an (..., n) stack of them.  The criterion is necessary for membership
    when S is self-adjoint with the given eigenvalues."""
    lam = matcore.as_spectrum(lambdas)
    k = float(k)
    n = lam.shape[-1]
    vals = np.abs(_multiplier_matrix(lam, k)).reshape(lam.shape[:-1] + (n * n,))
    # Self-pairs are masked with inf; a singleton's only pair is then (0, 0).
    search = vals + np.diag(np.full(n, np.inf)).ravel()
    flat = np.argmin(search, axis=-1)
    min_value = np.take_along_axis(vals, flat[..., None], axis=-1)[..., 0]
    threshold = k + 2.0
    ok = min_value >= threshold - SPECTRAL_SLACK
    i, j = np.divmod(flat, n)
    if lam.ndim == 1:
        return ConstraintResult(ok=bool(ok), min_value=float(min_value), pair=(int(i), int(j)), threshold=threshold)
    return ConstraintResult(ok=ok, min_value=min_value, pair=(i, j), threshold=threshold)


def _ratio_subgradients(m: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ratio |M o Y| / |Y| (operator norm) of every matrix of an (S, n, n)
    stack, and a subgradient of each ratio, from one batched SVD of M o Y
    and one of Y."""
    un, sn, vhn = np.linalg.svd(m * y)
    ud, sd, vhd = np.linalg.svd(y)
    ratio = sn[:, 0] / sd[:, 0]
    g_num = m * (un[:, :, :1] * vhn[:, :1, :])
    g_den = ud[:, :, :1] * vhd[:, :1, :]
    return ratio, (g_num - ratio[:, None, None] * g_den) / sd[:, 0, None, None]


def _frobenius(y: np.ndarray) -> np.ndarray:
    """Frobenius norms of an (S, n, n) stack, shaped (S, 1, 1), summed as
    np.linalg.norm sums one matrix (real and imaginary dot products): the
    descent turns a last-bit change into a 1e-9 one near nonsmooth points,
    and this keeps every start on the iterates it takes alone."""
    f = y.reshape(len(y), 1, y.shape[1] * y.shape[2])
    return np.sqrt(f.real @ f.real.transpose(0, 2, 1) + f.imag @ f.imag.transpose(0, 2, 1))


def _selfadjoint_eigen(s) -> matcore.HermEigen:
    dec = matcore.herm_eigen(s)
    mags = np.abs(dec.eigenvalues)
    if mags.min() <= SELFADJOINT_SINGULAR_RTOL * mags.max():
        raise Singular("self-adjoint matrix is numerically singular")
    return dec


def schur_rep_residual(s, k: float, x) -> float:
    """Residual of the eigenbasis multiplier representation of phi.

    Computes phi(S,k,X) directly (explicit inverse) and via
    Q (M o (Q*XQ)) Q*, returning the Frobenius gap over max(1, |phi|_F).
    The two routes share no factorization.
    """
    s = matcore.as_matrix(s)
    x = matcore.as_matrix(x)
    direct = phi(s, k, x)
    dec = _selfadjoint_eigen(s)
    m = _multiplier_matrix(dec.eigenvalues, k)
    q = dec.vectors
    rep = q @ (m * (q.conj().T @ x @ q)) @ q.conj().T
    return float(np.linalg.norm(direct - rep) / max(1.0, np.linalg.norm(direct)))


def schur_theorem_bound_check(n_mat, x, tol: float = DEFAULT_TOL) -> ChainReport:
    """max_i N_ii |X| >= |N o X| in the operator norm, for PSD N."""
    n_mat = matcore.as_matrix(n_mat)
    matcore.require_hermitian(n_mat)
    eigs = np.linalg.eigvalsh(n_mat)
    if eigs[0] < -1e-10 * max(eigs[-1], 0.0):
        raise NotPSD("multiplier matrix must be positive semidefinite")
    x = matcore.as_matrix(x)
    if x.shape != n_mat.shape:
        raise DimensionMismatch(f"entrywise product needs equal shapes, got {n_mat.shape} and {x.shape}")
    nx, nnx = stack_norms((x, n_mat * x), (OP,))[0].tolist()
    return chain(("maxdiag(N)|X|", "|NoX|"), (float(np.max(np.real(np.diagonal(n_mat)))) * nx, nnx), tol=tol)


def dk_ratio_minimize(
    s,
    k: float,
    starts: int = 64,
    iters: int = 500,
    rng: matcore.Rng | None = None,
) -> DkProbeResult:
    """Multistart upper bound on inf |phi(S,k,X)| / |X| over X != 0.

    Works in the eigenbasis of self-adjoint S, where phi is the entrywise
    multiplier M.  Seeds are every rank-one basis matrix e_i e_j* (whose
    ratio is exactly |M_ij|) plus the identity (ratio |k+2|); `starts`
    additional random starts follow.  Every start runs a projected
    subgradient descent on the ratio with step 0.1/sqrt(iter); the starts
    descend together as one (S, n, n) stack, evaluated at their seeds and
    after each of `iters` steps.  A start whose subgradient norm falls
    below FROZEN_GRAD_NORM keeps its iterate from then on.  The witness is
    the best iterate over all starts and iterations; ties go to the earliest
    iteration, then the lowest start.  Deterministic given the rng.  A k
    above DK_K_MAX, or NaN, raises InvalidK.
    """
    if not k <= DK_K_MAX:
        raise InvalidK(f"the ratio probe takes k <= {DK_K_MAX:g}, got {k}")
    if rng is None:
        rng = matcore.Rng(0)
    dec = _selfadjoint_eigen(s)
    eigs = dec.eigenvalues
    n = eigs.size
    m = _multiplier_matrix(eigs, k)
    spectral_ok = constraint_check(eigs, k).ok

    # One draw, consumed start by start: the real part, then the imaginary.
    w = rng.generator().standard_normal((int(starts), 2, n, n))
    z = (w[:, 0] + 1j * w[:, 1]) / np.sqrt(2.0)
    seeds = np.eye(n * n, dtype=complex).reshape(n * n, n, n)
    y = np.concatenate((seeds, np.eye(n, dtype=complex)[None] / np.sqrt(n), z / _frobenius(z)))

    best_ratio, best_y = np.inf, y[0]
    for it in range(int(iters) + 1):
        ratio, grad = _ratio_subgradients(m, y)
        i = int(np.argmin(ratio))
        if ratio[i] < best_ratio:
            best_ratio, best_y = ratio[i], y[i]
        gnorm = _frobenius(grad)
        live = gnorm >= FROZEN_GRAD_NORM
        # Each start has |y| = 1 and moves by at most 0.1, so the projection
        # back onto the unit sphere never divides by zero.
        step = y - (0.1 / np.sqrt(it + 1.0)) * grad / np.where(live, gnorm, 1.0)
        y = np.where(live, step / _frobenius(step), y)

    witness = dec.vectors @ best_y @ dec.vectors.conj().T
    return DkProbeResult(
        eigenvalues=eigs,
        k=float(k),
        spectral_ok=spectral_ok,
        best_ratio=float(best_ratio),
        witness=witness,
        starts_used=len(y),
    )


@dataclass(frozen=True)
class CharacterizationForm:
    """One displayed norm relation: lhs/rhs are expression selectors from
    {E1, E2, N1, N2, TWO_X}; relation is 'ge', 'le', or 'eq'."""

    form_id: str
    lhs: str
    rhs: str
    relation: str


FORMS: dict[str, CharacterizationForm] = {
    f.form_id: f
    for f in (
        CharacterizationForm("ineq6", "E1", "TWO_X", "ge"),
        CharacterizationForm("eq7", "E1", "E2", "eq"),
        CharacterizationForm("ineq8", "E1", "E2", "ge"),
        CharacterizationForm("ineq9", "N1", "TWO_X", "ge"),
        CharacterizationForm("eq10", "N1", "N2", "eq"),
        CharacterizationForm("ineq11", "N1", "N2", "ge"),
        CharacterizationForm("ineq12", "N1", "N2", "le"),
        CharacterizationForm("ineq13", "E1", "TWO_X", "le"),
        CharacterizationForm("eq14", "E1", "TWO_X", "eq"),
        CharacterizationForm("ineq15", "E1", "E2", "le"),
        CharacterizationForm("eq16", "N1", "TWO_X", "eq"),
        CharacterizationForm("ineq17", "N1", "TWO_X", "le"),
        CharacterizationForm("eq18", "E2", "TWO_X", "eq"),
        CharacterizationForm("eq19", "N2", "TWO_X", "eq"),
    )
}

EQUALITY_FORMS = tuple(fid for fid, f in FORMS.items() if f.relation == "eq")

_EXPR_LABELS = {
    "E1": "|SXS^-1+S^-1XS|",
    "E2": "|S*XS^-1+S^-1XS*|",
    "N1": "|SXS^-1|+|S^-1XS|",
    "N2": "|S*XS^-1|+|S^-1XS*|",
    "TWO_X": "2|X|",
}


def _expressions(s: np.ndarray, x: np.ndarray, kinds) -> list[dict[str, float]]:
    """The five expression values in every norm of kinds, from one batched
    SVD of SXS^-1, S^-1XS, S*XS^-1, S^-1XS*, their two sums and X."""
    si = matcore.inverse(s)
    s_star, si_star = s.conj().T, si.conj().T
    a = s @ x @ si
    b = si @ x @ s
    c = s_star @ x @ si
    d = si @ x @ s_star
    return [
        {"E1": e1, "E2": e2, "N1": na + nb, "N2": nc + nd, "TWO_X": 2.0 * nx}
        for e1, e2, na, nb, nc, nd, nx in stack_norms((a + b, c + d, a, b, c, d, x), kinds).tolist()
    ]


def characterization_check(
    s,
    x,
    form: CharacterizationForm | str,
    kinds=(OP,),
    tol: float | None = None,
) -> tuple[ChainReport, ...]:
    """Evaluate one characterization relation on a single sample, one
    report per norm in kinds.

    Inequality reports put the expected-larger side first so the margin is
    nonnegative on the characterized class; equality reports use an 'eq'
    link whose margin is the signed difference lhs - rhs.  Sampled passes
    are evidence about class membership, never a proof.
    """
    if isinstance(form, str):
        try:
            form = FORMS[form]
        except KeyError:
            raise ValueError(f"unknown form id {form!r}") from None
    s = matcore.as_matrix(s)
    x = matcore.as_matrix(x)
    if tol is None:
        tol = EQUALITY_TOL if form.relation == "eq" else DEFAULT_TOL
    relations = ("eq",) if form.relation == "eq" else None
    sides = (form.rhs, form.lhs) if form.relation == "le" else (form.lhs, form.rhs)
    labels = tuple(_EXPR_LABELS[side] for side in sides)
    return tuple(
        chain(labels, [vals[side] for side in sides], tol=tol, relations=relations)
        for vals in _expressions(s, x, kinds)
    )


# Operator class that makes each relation an identity or a theorem.
_FORM_CLASS = {
    "ineq6": "scaled_selfadjoint",
    "eq7": "scaled_selfadjoint",
    "ineq8": "scaled_selfadjoint",
    "ineq9": "normal",
    "eq10": "normal",
    "ineq11": "normal",
    "ineq12": "normal",
    "ineq13": "scaled_unitary",
    "eq14": "scaled_reflection",
    "ineq15": "scaled_unitary",
    "eq16": "scaled_unitary",
    "ineq17": "scaled_unitary",
    "eq18": "scaled_unitary",
    "eq19": "scaled_unitary",
}


def sample_for_form(form_id: str, n: int, rng: matcore.Rng, cond: float = 100.0) -> np.ndarray:
    """Draw S from the operator class characterized by the given form."""
    try:
        family = _FORM_CLASS[form_id]
    except KeyError:
        raise ValueError(f"unknown form id {form_id!r}") from None
    if family == "scaled_selfadjoint":
        return matcore.random_scaled_selfadjoint(n, cond, rng)
    if family == "normal":
        return matcore.random_normal_invertible(n, cond, rng)
    if family == "scaled_unitary":
        return matcore.random_scaled_unitary(n, rng)
    return matcore.random_scaled_reflection(n, rng)
