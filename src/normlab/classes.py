"""The shifted-sandwich map phi(S,k): X -> SXS^-1 + S^-1XS + kX and the
class of invertible S whose phi stays bounded below by (k+2)|X|.

For self-adjoint S the map is an entrywise (Schur) multiplier in the
eigenbasis: with S = Q diag(l) Q* and X~ = Q*XQ,

    phi(S,k,X) = Q (M o X~) Q*,   M_ij = l_i/l_j + l_j/l_i + k,

the sandwich weights ``heinz.sandwich_weights(l, l, k)`` of the multiplier
engine.  That representation powers the pairwise criterion min |M_ij| >= k+2
over i != j (constraint_check, which forms those weights at the
off-diagonal pairs only, takes one spectrum or a stack of them and serves
both the ratio probe and the conjecture search), the residual check, the
bound check against the classical PSD multiplier theorem, and a
multistart minimizer probing inf |phi(X)| / |X| over the unit sphere,
which descends all its live starts as one (S, n, n) stack with one
batched SVD of M o Y and Y per iteration.
Sampled checks of the fourteen norm identities that characterize scalar
multiples of self-adjoint, normal, unitary, and reflection classes round
out the module; they stay explicit products, and take an instance or an
(m, n, n) stack of them through one body.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import matcore
from .chains import DEFAULT_TOL, ChainStack, chain
from .errors import DimensionMismatch, InvalidK, NotPSD, Singular
from .heinz import sandwich_weights
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
# A multiplier matrix whose least eigenvalue is below -PSD_RTOL times its
# largest is not positive semidefinite.
PSD_RTOL = 1e-10
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


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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
    against k + 2, for any real k.  Takes one spectrum or an (..., n) stack
    of them.  The criterion is necessary for membership when S is
    self-adjoint with the given eigenvalues.

    Only the n(n-1) off-diagonal pairs are formed, in row-major order and
    in the arithmetic of heinz.sandwich_weights, so min_value and pair are
    those of the first minimum of the n x n weights with the self-pairs
    masked.  Self-pairs are exactly |k + 2| and never fail; a singleton
    spectrum is trivially constrained, with pair (0, 0).  A ratio beyond
    the float range takes its limit, so its pair's value is inf."""
    lam = matcore.as_spectrum(lambdas)
    k = float(k)
    n = lam.shape[-1]
    rows, cols = np.nonzero(~np.eye(n, dtype=bool)) if n > 1 else (np.zeros(1, dtype=np.intp),) * 2
    with np.errstate(over="ignore", divide="ignore"):
        ratio = lam[..., rows] / lam[..., cols]
        vals = np.abs(ratio + 1.0 / ratio + k)
    at = np.argmin(vals, axis=-1)
    min_value = np.take_along_axis(vals, at[..., None], axis=-1)[..., 0]
    threshold = k + 2.0
    ok = min_value >= threshold - SPECTRAL_SLACK
    i, j = rows[at], cols[at]
    if lam.ndim == 1:
        return ConstraintResult(ok=bool(ok), min_value=float(min_value), pair=(int(i), int(j)), threshold=threshold)
    return ConstraintResult(ok=ok, min_value=min_value, pair=(i, j), threshold=threshold)


def _ratio_subgradients(m: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ratio |M o Y| / |Y| (operator norm) of every matrix of an (S, n, n)
    stack, and a subgradient of each ratio, from one batched SVD of the
    matrices M o Y and Y."""
    u, sv, vh = np.linalg.svd(np.concatenate((m * y, y)))
    (un, ud), (sn, sd), (vhn, vhd) = np.split(u, 2), np.split(sv, 2), np.split(vh, 2)
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
    m = sandwich_weights(dec.eigenvalues, dec.eigenvalues, k)
    q = dec.vectors
    rep = q @ (m * (q.conj().T @ x @ q)) @ q.conj().T
    return float(np.linalg.norm(direct - rep) / max(1.0, np.linalg.norm(direct)))


def schur_theorem_bound_check(n_mat, x, tol: float = DEFAULT_TOL) -> ChainStack:
    """max_i N_ii |X| >= |N o X| in the operator norm, for PSD N."""
    n_mat = matcore.as_matrix(n_mat)
    matcore.require_hermitian(n_mat)
    eigs = np.linalg.eigvalsh(n_mat)
    if eigs[0] < -PSD_RTOL * max(eigs[-1], 0.0):
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
    below FROZEN_GRAD_NORM keeps its iterate from then on, and only the
    live starts go through the batched SVDs.  The witness is
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
    m = sandwich_weights(eigs, eigs, k)
    spectral_ok = constraint_check(eigs, k).ok

    # One draw, consumed start by start: the real part, then the imaginary.
    w = rng.generator().standard_normal((int(starts), 2, n, n))
    z = (w[:, 0] + 1j * w[:, 1]) / np.sqrt(2.0)
    seeds = np.eye(n * n, dtype=complex).reshape(n * n, n, n)
    y = np.concatenate((seeds, np.eye(n, dtype=complex)[None] / np.sqrt(n), z / _frobenius(z)))

    # A frozen start's iterate, ratio and subgradient stay as they are, so
    # only the live starts (indices into y) are evaluated; the frozen ones
    # keep their last ratios in the argmin.
    ratio, live = np.empty(len(y)), np.arange(len(y))
    best_ratio, best_y = np.inf, y[0]
    for it in range(int(iters) + 1):
        ratio[live], grad = _ratio_subgradients(m, y[live])
        i = int(np.argmin(ratio))
        if ratio[i] < best_ratio:
            best_ratio, best_y = ratio[i], y[i].copy()
        gnorm = _frobenius(grad)
        moving = gnorm[:, 0, 0] >= FROZEN_GRAD_NORM
        live, grad, gnorm = live[moving], grad[moving], gnorm[moving]
        if not live.size:
            break
        # Each start has |y| = 1 and moves by at most 0.1, so the projection
        # back onto the unit sphere never divides by zero.
        step = y[live] - (0.1 / np.sqrt(it + 1.0)) * grad / gnorm
        y[live] = step / _frobenius(step)

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
    {E1, E2, N1, N2, TWO_X}; relation is 'ge', 'le', or 'eq'; family is the
    operator class that makes the relation an identity or a theorem."""

    form_id: str
    lhs: str
    rhs: str
    relation: str
    family: str


FORMS: dict[str, CharacterizationForm] = {
    f.form_id: f
    for f in (
        CharacterizationForm("ineq6", "E1", "TWO_X", "ge", "scaled_selfadjoint"),
        CharacterizationForm("eq7", "E1", "E2", "eq", "scaled_selfadjoint"),
        CharacterizationForm("ineq8", "E1", "E2", "ge", "scaled_selfadjoint"),
        CharacterizationForm("ineq9", "N1", "TWO_X", "ge", "normal"),
        CharacterizationForm("eq10", "N1", "N2", "eq", "normal"),
        CharacterizationForm("ineq11", "N1", "N2", "ge", "normal"),
        CharacterizationForm("ineq12", "N1", "N2", "le", "normal"),
        CharacterizationForm("ineq13", "E1", "TWO_X", "le", "scaled_unitary"),
        CharacterizationForm("eq14", "E1", "TWO_X", "eq", "scaled_reflection"),
        CharacterizationForm("ineq15", "E1", "E2", "le", "scaled_unitary"),
        CharacterizationForm("eq16", "N1", "TWO_X", "eq", "scaled_unitary"),
        CharacterizationForm("ineq17", "N1", "TWO_X", "le", "scaled_unitary"),
        CharacterizationForm("eq18", "E2", "TWO_X", "eq", "scaled_unitary"),
        CharacterizationForm("eq19", "N2", "TWO_X", "eq", "scaled_unitary"),
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


def _expressions(s: np.ndarray, x: np.ndarray, kinds) -> np.ndarray:
    """The five expression values, in _EXPR_LABELS order, in every norm of
    kinds as a (..., K, 5) array over the stack axes of S and X, from one
    batched SVD of SXS^-1, S^-1XS, S*XS^-1, S^-1XS*, their two sums and X."""
    si = matcore.inverse(s)
    s_star = s.conj().swapaxes(-1, -2)
    a = s @ x @ si
    b = si @ x @ s
    c = s_star @ x @ si
    d = si @ x @ s_star
    e1, e2, na, nb, nc, nd, nx = stack_norms((a + b, c + d, a, b, c, d, x), kinds).swapaxes(0, 1)
    return np.moveaxis(np.stack((e1, e2, na + nb, nc + nd, 2.0 * nx), axis=-1), 0, -2)


def _form(form: CharacterizationForm | str) -> CharacterizationForm:
    if isinstance(form, CharacterizationForm):
        return form
    try:
        return FORMS[form]
    except KeyError:
        raise ValueError(f"unknown form id {form!r}") from None


def _form_reports(values: np.ndarray, form: CharacterizationForm, tol: float | None) -> tuple:
    """One form's report per norm from _expressions values."""
    if tol is None:
        tol = EQUALITY_TOL if form.relation == "eq" else DEFAULT_TOL
    relations = ("eq",) if form.relation == "eq" else None
    sides = (form.rhs, form.lhs) if form.relation == "le" else (form.lhs, form.rhs)
    labels = tuple(_EXPR_LABELS[side] for side in sides)
    values = values[..., [list(_EXPR_LABELS).index(side) for side in sides]]
    return chain(labels, values, tol=tol, relations=relations).unstack()


def characterization_check(
    s,
    x,
    form,
    kinds=(OP,),
    tol=None,
) -> tuple | list:
    """Evaluate one characterization relation on a sample or an (m, n, n)
    stack of them, one ChainStack per norm in kinds.

    form may instead be a sequence of forms, one per instance of the stack,
    and tol then one value or a sequence likewise; every form is read off
    one evaluation of the five expressions.  The result is then a list of
    (slice, reports) for each run of instances with equal form and tol.

    Inequality reports put the expected-larger side first so the margin is
    nonnegative on the characterized class; equality reports use an 'eq'
    link whose margin is the signed difference lhs - rhs.  A tol of None is
    EQUALITY_TOL for equality forms and DEFAULT_TOL otherwise.  Sampled
    passes are evidence about class membership, never a proof.
    """
    single = isinstance(form, (str, CharacterizationForm))
    forms = [_form(form)] if single else [_form(f) for f in form]
    s, x = matcore.as_matrices(s), matcore.as_matrices(x)
    if single:
        return _form_reports(_expressions(s, x, kinds), forms[0], tol)
    tols = list(tol) if isinstance(tol, (list, tuple)) else [tol] * len(forms)
    if s.ndim != 3 or not len(forms) == len(tols) == len(s):
        raise DimensionMismatch(f"expected one form and tol per matrix of S, got {len(forms)} and {len(tols)}")
    values = _expressions(s, x, kinds)
    runs, at = [], 0
    for (f, t), run in itertools.groupby(zip(forms, tols)):
        span = slice(at, at + sum(1 for _ in run))
        runs.append((span, _form_reports(values[span], f, t)))
        at = span.stop
    return runs


def sample_for_form(form_id: str, n: int, rng: matcore.Rng, cond: float = 100.0) -> np.ndarray:
    """Draw S from the operator class characterized by the given form."""
    try:
        family = FORMS[form_id].family
    except KeyError:
        raise ValueError(f"unknown form id {form_id!r}") from None
    if family == "scaled_selfadjoint":
        return matcore.random_scaled_selfadjoint(n, cond, rng)
    if family == "normal":
        return matcore.random_normal_invertible(n, cond, rng)
    if family == "scaled_unitary":
        return matcore.random_scaled_unitary(n, rng)
    return matcore.random_scaled_reflection(n, rng)
