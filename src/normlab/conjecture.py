"""Numerical search for counterexamples to a positivity conjecture.

For a real spectrum l_1..l_n and shift k in [0, 2], form the matrix

    C_ij = l_i l_j / (l_i^2 + l_j^2 + k l_i l_j),   C_ii = 1/(2+k).

C is the entrywise inverse of the multiplier matrix of the shifted
sandwich map (classes.py), so positive semidefiniteness of C implies the
lower bound (k+2)|X| <= |SXS^-1 + S^-1XS + kX| for S = diag(l) by the
classical fact that a PSD multiplier with constant diagonal c contracts
the operator norm by 1/c.  The conjecture asserts PSD whenever the
spectrum satisfies the pairwise constraint

    |l_i/l_j + l_j/l_i + k| >= k + 2.

This module samples constrained spectra at scale, records any PSD
failures to a JSONL file as they are found, and cross-checks the
multiplier bound on explicit probes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import classes, matcore
from .errors import DegenerateDenominator, InvalidK, SamplerExhausted, ZeroLambda
from .norms import OP, stack_norms

__all__ = [
    "ConstraintResult",
    "ConjectureInstance",
    "KSummary",
    "constraint_check",
    "build_conj_matrix",
    "make_instance",
    "psd_check",
    "sample_constrained_spectrum",
    "conjecture_search",
    "load_violations",
    "conditional_theorem_check",
]

# PSD verdicts tolerate eigenvalues this far below zero (scaled).
PSD_SLACK = 1e-10
# Relative floor below which a denominator counts as degenerate.
DEGENERATE_RTOL = 1e-12
HIST_BINS = 20


@dataclass(frozen=True)
class ConstraintResult:
    ok: bool
    min_value: float
    pair: tuple[int, int]
    threshold: float


@dataclass(frozen=True)
class ConjectureInstance:
    """One fully evaluated spectrum: candidate matrix plus verdicts."""

    k: float
    lambdas: np.ndarray
    constraint_ok: bool
    matrix: np.ndarray
    min_eig: float
    psd: bool


@dataclass(frozen=True)
class KSummary:
    """Per-k tally of one search run."""

    k: float
    accepted: int
    rejected: int
    violations: int
    min_eig_overall: float
    hist_counts: np.ndarray
    hist_edges: np.ndarray


def _validated(lambdas, k: float) -> tuple[np.ndarray, float]:
    lam = np.asarray(lambdas, dtype=float)
    if lam.ndim != 1 or lam.size == 0:
        raise ValueError("lambdas must be a nonempty 1-D real vector")
    if np.any(lam == 0.0):
        raise ZeroLambda("spectrum entries must be nonzero")
    k = float(k)
    if not 0.0 <= k <= 2.0:
        raise InvalidK(f"conjecture is stated for k in [0, 2], got {k}")
    return lam, k


def constraint_check(lambdas, k: float) -> ConstraintResult:
    """Minimum of |l_i/l_j + l_j/l_i + k| over distinct-index pairs,
    against k + 2.  Self-pairs are exactly k + 2 and carry no information;
    a singleton spectrum is trivially constrained."""
    lam, k = _validated(lambdas, k)
    vals = np.abs(classes._multiplier_matrix(lam, k))
    if lam.size > 1:
        search = vals + np.diag(np.full(lam.size, np.inf))
    else:
        search = vals
    idx = np.unravel_index(np.argmin(search), search.shape)
    min_value = float(vals[idx])
    threshold = k + 2.0
    return ConstraintResult(
        ok=min_value >= threshold - classes.SPECTRAL_SLACK,
        min_value=min_value,
        pair=(int(idx[0]), int(idx[1])),
        threshold=threshold,
    )


def build_conj_matrix(lambdas, k: float) -> np.ndarray:
    """Entrywise-inverse multiplier matrix with diagonal pinned to 1/(2+k)."""
    lam, k = _validated(lambdas, k)
    cross = np.multiply.outer(lam, lam)
    sq = lam * lam
    scale = np.add.outer(sq, sq)
    den = scale + k * cross
    bad = np.abs(den) <= DEGENERATE_RTOL * scale
    if np.any(bad):
        i, j = np.unravel_index(np.argmax(bad), bad.shape)
        raise DegenerateDenominator(
            f"denominator vanishes at pair ({i}, {j}): lambdas {lam[i]!r}, {lam[j]!r}, k={k}"
        )
    c = cross / den
    np.fill_diagonal(c, 1.0 / (2.0 + k))
    return c


def make_instance(lambdas, k: float) -> ConjectureInstance:
    """Evaluate one spectrum end to end (constraint, matrix, PSD verdict)."""
    lam, k = _validated(lambdas, k)
    c = build_conj_matrix(lam, k)
    min_eig, psd = psd_check(c)
    return ConjectureInstance(
        k=k,
        lambdas=lam,
        constraint_ok=constraint_check(lam, k).ok,
        matrix=c,
        min_eig=min_eig,
        psd=psd,
    )


def psd_check(c) -> tuple[float, bool]:
    """(min eigenvalue, PSD verdict) with slack scaled by the top eigenvalue."""
    c = matcore.as_matrix(c)
    matcore.require_hermitian(c)
    eigs = np.linalg.eigvalsh(c)
    min_eig = float(eigs[0])
    return min_eig, min_eig >= -PSD_SLACK * max(1.0, float(eigs[-1]))


def sample_constrained_spectrum(
    n: int,
    k: float,
    rng: matcore.Rng,
    max_draws: int = 10**4,
) -> tuple[np.ndarray, int]:
    """Rejection-sample a constrained spectrum; returns (lambdas, rejected).

    Magnitudes are log-uniform over four decades with independent random
    signs, so mixed-sign pairs with close magnitudes (the binding case of
    the constraint) appear often enough to stress the boundary.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    g = rng.generator()
    for attempt in range(int(max_draws)):
        lam = 10.0 ** g.uniform(-2.0, 2.0, size=n)
        lam *= np.where(g.random(n) < 0.5, -1.0, 1.0)
        if constraint_check(lam, k).ok:
            return lam, attempt
    raise SamplerExhausted(
        f"no constrained spectrum after {max_draws} draws (n={n}, k={k})"
    )


def conjecture_search(
    n: int,
    k_list,
    count: int,
    rng: matcore.Rng,
    violations_path=None,
    max_draws: int = 10**4,
) -> list[KSummary]:
    """Sample `count` constrained spectra per k and test PSD of each C.

    Violations are appended to violations_path as JSONL the moment they
    are found, one object per line with keys k, lambdas, min_eig, seed,
    instance, so a crashed run keeps everything seen so far.
    """
    if n < 2:
        raise ValueError("search needs n >= 2 (n=1 is trivially PSD)")
    summaries = []
    sink = open(violations_path, "a") if violations_path is not None else None
    try:
        for k_idx, k in enumerate(k_list):
            k = float(k)
            min_eigs = np.empty(count)
            rejected = 0
            violations = 0
            for i in range(count):
                sub = rng.substream(k_idx).substream(i)
                lam, rej = sample_constrained_spectrum(n, k, sub, max_draws=max_draws)
                rejected += rej
                c = build_conj_matrix(lam, k)
                min_eig, ok = psd_check(c)
                min_eigs[i] = min_eig
                if not ok:
                    violations += 1
                    if sink is not None:
                        record = {
                            "k": k,
                            "lambdas": [float(v) for v in lam],
                            "min_eig": min_eig,
                            "seed": rng.seed,
                            "instance": i,
                        }
                        sink.write(json.dumps(record) + "\n")
                        sink.flush()
            counts, edges = np.histogram(min_eigs, bins=HIST_BINS)
            summaries.append(
                KSummary(
                    k=k,
                    accepted=count,
                    rejected=rejected,
                    violations=violations,
                    min_eig_overall=float(min_eigs.min()) if count else float("nan"),
                    hist_counts=counts,
                    hist_edges=edges,
                )
            )
    finally:
        if sink is not None:
            sink.close()
    return summaries


def load_violations(path) -> list[dict]:
    """Read back a violations JSONL file (empty list if no file)."""
    records = []
    try:
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if line:
                    records.append(json.loads(line))
    except FileNotFoundError:
        return []
    return records


def conditional_theorem_check(
    lambdas,
    k: float,
    x_samples: int,
    rng: matcore.Rng,
    rtol: float = 1e-10,
) -> dict:
    """Cross-check: PSD of C must imply the (k+2) lower bound on probes.

    Evaluates |M o X| / |X| (operator norm) on a stack of random probes in
    the eigenbasis, which equals the sandwich-map ratio for S = diag(lambdas).
    Verdicts: 'consistent' (PSD and every probe respects the bound),
    'anomaly' (PSD yet a probe dips below: implementation bug),
    'nonmember-witnessed' (not PSD and a probe dips below),
    'inconclusive' (not PSD, probes all respect the bound).
    """
    lam, k = _validated(lambdas, k)
    c = build_conj_matrix(lam, k)
    min_eig, psd = psd_check(c)
    m = classes._multiplier_matrix(lam, k)
    xs = np.stack([matcore.random_probe_matrix(lam.size, rng.substream(i)) for i in range(x_samples)])
    worst = np.min(stack_norms(m * xs, (OP,))[0] / stack_norms(xs, (OP,))[0])
    violated = worst < (k + 2.0) * (1.0 - rtol)
    if psd:
        verdict = "anomaly" if violated else "consistent"
    else:
        verdict = "nonmember-witnessed" if violated else "inconclusive"
    return {
        "min_eig": min_eig,
        "psd": psd,
        "worst_ratio": float(worst),
        "bound": k + 2.0,
        "verdict": verdict,
    }
