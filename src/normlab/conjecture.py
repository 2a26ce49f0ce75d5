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

This module samples constrained spectra at scale and records any PSD
failures to a JSONL file.  The pairwise constraint is the ratio probe's
criterion, classes.constraint_check, which forms the n(n-1) off-diagonal
pairs only.  The search runs on stacks: the constraint test, the C build
and the PSD test take a leading stack axis, and one call of each covers a
chunk of SEARCH_CHUNK spectra (one eigvalsh per chunk).  On a single
spectrum or matrix they return scalars.  C is exactly symmetric by
construction, so its Hermitian check passes without norm arithmetic.  The
chunk's Philox streams are keyed in one matcore.substreams pass, with no
Rng per spectrum: every stream starts from the seed's SeedSequence pool,
which takes in the path prefix once and each index of the range.  The
sampler takes that Streams (or one Rng) and draws every block from one
matcore.philox generator by (key, counter), as Philox is counter-based
(Salmon et al., SC'11), so every spectrum still draws exactly its own
stream, and the round schedule (a half block first, since most spectra
accept within a few attempts, then full blocks) decides only how much is
drawn, never what.  The sampler reads only the constraint's verdicts, so
it never pays for locating the minimizing pair.  Violations are written
in instance order at the end of each chunk.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import matcore
from .classes import constraint_check
from .errors import DegenerateDenominator, InvalidK, InvalidParams, NonFinite, SamplerExhausted

__all__ = [
    "require_k",
    "KSummary",
    "build_conj_matrix",
    "psd_check",
    "sample_constrained_spectrum",
    "conjecture_search",
    "load_violations",
]

# PSD verdicts tolerate eigenvalues this far below zero (scaled).
PSD_SLACK = 1e-10
# Relative floor below which a denominator counts as degenerate.
DEGENERATE_RTOL = 1e-12
HIST_BINS = 20
# Attempts each spectrum draws from its stream per sampling round, and in
# the first round, which is half a block: most spectra accept within a few
# attempts, so a full first block is mostly drawn and tested for nothing.
# Both are even, so every block starts on a Philox counter boundary (four
# doubles per counter, 2n doubles per attempt).
SAMPLE_BLOCK = 8
FIRST_BLOCK = SAMPLE_BLOCK // 2
assert SAMPLE_BLOCK % 2 == 0 and FIRST_BLOCK % 2 == 0
# Spectra per sampler call, C stack and eigvalsh in the search; bounds the
# search's memory at any count.
SEARCH_CHUNK = 256


@dataclass(frozen=True, eq=False)
class KSummary:
    """Per-k tally of one search run."""

    k: float
    accepted: int
    rejected: int
    violations: int
    min_eig_overall: float
    hist_counts: np.ndarray
    hist_edges: np.ndarray


def require_k(k) -> None:
    """Raise InvalidK unless the conjecture's k (or each of an array) is in [0, 2]."""
    matcore.require_within(k, 0.0, 2.0, InvalidK, "conjecture k must be in [0, 2]")


def build_conj_matrix(lambdas, k: float) -> np.ndarray:
    """Entrywise-inverse multiplier matrix with diagonal pinned to 1/(2+k);
    an (..., n) stack of spectra gives an (..., n, n) stack.  A spectrum
    whose products overflow the float range raises NonFinite."""
    lam, k = matcore.as_spectrum(lambdas), float(k)
    require_k(k)
    with np.errstate(over="ignore", invalid="ignore"):
        cross = lam[..., :, None] * lam[..., None, :]
        sq = lam * lam
        scale = sq[..., :, None] + sq[..., None, :]
        den = scale + k * cross
    # scale >= 2|cross| and 0 <= k <= 2, so an overflowed cross or scale leaves den non-finite.
    if not np.all(np.isfinite(den)):
        raise NonFinite("a denominator overflowed the float range")
    bad = np.abs(den) <= DEGENERATE_RTOL * scale
    if np.any(bad):
        *at, i, j = np.argwhere(bad)[0]
        where = f" of spectrum {tuple(map(int, at))}" if at else ""
        raise DegenerateDenominator(
            f"denominator vanishes at pair ({i}, {j}){where}: "
            f"lambdas {lam[(*at, i)]!r}, {lam[(*at, j)]!r}, k={k}"
        )
    c = cross / den
    diag = np.arange(lam.shape[-1])
    c[..., diag, diag] = 1.0 / (2.0 + k)
    return c


def psd_check(c) -> tuple[float, bool]:
    """(min eigenvalue, PSD verdict) with slack scaled by the top eigenvalue.

    An (..., n, n) stack gives both as (...)-shaped arrays from one
    eigvalsh.  matcore.as_matrices validates C and casts it to complex, so
    a real C goes through LAPACK's Hermitian solver too: the stored
    conjecture-search reference (bench/reference) was computed that way,
    and the real symmetric solver moves min_eig by up to 2.4e-5 relative on
    its seed-1 spectra, far past the 1e-12 to which those values are
    checked."""
    c = matcore.as_matrices(c)
    matcore.require_hermitian(c)
    eigs = np.linalg.eigvalsh(c)
    min_eig = eigs[..., 0]
    ok = min_eig >= -PSD_SLACK * np.maximum(1.0, eigs[..., -1])
    if c.ndim == 2:
        return float(min_eig), bool(ok)
    return min_eig, ok


def sample_constrained_spectrum(
    n: int,
    k: float,
    rng: matcore.Rng | matcore.Streams,
    max_draws: int = 10**4,
) -> tuple[np.ndarray, int]:
    """Rejection-sample a constrained spectrum; returns (lambdas, rejected).

    Magnitudes are log-uniform over four decades with independent random
    signs, so mixed-sign pairs with close magnitudes (the binding case of
    the constraint) appear often enough to stress the boundary.  An attempt
    takes 2n doubles d of the stream: magnitudes 10**(-2 + 4d) from the
    first n, a minus sign where d < 1/2 for the next n.  `rejected` is the
    number of attempts before the accepted one.

    rng may also be a matcore.Streams of m; the result is then an (m, n)
    stack and an (m,) array of counts, the same as m single calls.  Every
    spectrum draws its first FIRST_BLOCK attempts (half a block) in the
    first round and SAMPLE_BLOCK attempts in every later one, and one
    constraint test covers the blocks of all spectra still pending.  The
    blocks come from the one generator of matcore.philox, and before each
    block matcore.seek sets it to the spectrum's key and to the counter
    where the block starts.  So a spectrum's draws are exactly those of
    its own rng.generator(), whatever the round sizes, and nothing is
    drawn past the block that holds the accepted attempt.
    """
    if n < 1:
        raise InvalidParams(f"n must be >= 1, got {n}")
    keys, bits = matcore.philox(rng)
    lams = np.empty((len(keys), n))
    rejected = np.empty(len(keys), dtype=int)
    pending = np.arange(len(keys))
    buffer = np.empty(len(keys) * max(FIRST_BLOCK, SAMPLE_BLOCK) * 2 * n)
    max_draws = int(max_draws)
    first, size = 0, FIRST_BLOCK
    while pending.size and first < max_draws:
        # Attempt `first` of a stream starts at double 2n * first, the first
        # double of Philox counter 2n * first / 4.
        counter = 2 * n * first // 4
        block = buffer[: pending.size * size * 2 * n].reshape(pending.size, size, 2, n)
        for p, out in zip(pending.tolist(), block):
            matcore.seek(bits, keys[p], counter)
            bits.random((size, 2, n), out=out)
        lam = 10.0 ** (-2.0 + 4.0 * block[:, :, 0])
        lam = np.where(block[:, :, 1] < 0.5, -lam, lam)
        ok = constraint_check(lam, k).ok
        ok[:, max_draws - first :] = False
        hit = ok.any(axis=1)
        at = ok.argmax(axis=1)[hit]
        done = pending[hit]
        lams[done] = lam[hit, at]
        rejected[done] = first + at
        pending = pending[~hit]
        first, size = first + size, SAMPLE_BLOCK
    if pending.size:
        raise SamplerExhausted(
            f"no constrained spectrum after {max_draws} draws (n={n}, k={k})"
        )
    if isinstance(rng, matcore.Rng):
        return lams[0], int(rejected[0])
    return lams, rejected


def conjecture_search(
    n: int,
    k_list,
    count: int,
    rng: matcore.Rng,
    violations_path=None,
    max_draws: int = 10**4,
) -> list[KSummary]:
    """Sample `count` constrained spectra per k and test PSD of each C.

    Instance i of the k_idx-th k draws from rng.substream(k_idx).substream(i).
    The instances of one k go SEARCH_CHUNK at a time through one
    matcore.substreams keying pass, one sampler call, one C stack and one
    PSD test, so no result depends on the chunk size.  Violations are
    appended to violations_path as JSONL in instance order at the end of
    each chunk, one object per line with keys k, lambdas, min_eig, seed,
    instance, so a crashed run keeps every chunk finished before the
    crash.  An n below 2 or a count that is not an integer >= 0
    (InvalidParams), or a k outside [0, 2] (InvalidK), is rejected before
    the file is opened.
    """
    if n < 2:
        raise InvalidParams(f"search needs n >= 2 (n=1 is trivially PSD), got {n}")
    if not isinstance(count, (int, np.integer)) or count < 0:
        raise InvalidParams(f"count must be an integer >= 0, got {count!r}")
    k_list = [float(k) for k in k_list]
    require_k(k_list)
    summaries = []
    sink = open(violations_path, "a") if violations_path is not None else None
    try:
        for k_idx, k in enumerate(k_list):
            prefix = [rng.path + (k_idx,)]
            min_eigs = np.empty(count)
            rejected = 0
            violations = 0
            for start in range(0, count, SEARCH_CHUNK):
                stop = min(start + SEARCH_CHUNK, count)
                streams = matcore.substreams(rng.seed, prefix, np.arange(start, stop))
                lams, rej = sample_constrained_spectrum(n, k, streams, max_draws=max_draws)
                rejected += int(rej.sum())
                mins, ok = psd_check(build_conj_matrix(lams, k))
                min_eigs[start:stop] = mins
                bad = np.flatnonzero(~ok)
                violations += bad.size
                if sink is not None and bad.size:
                    for b in bad:
                        record = {
                            "k": k,
                            "lambdas": [float(v) for v in lams[b]],
                            "min_eig": float(mins[b]),
                            "seed": rng.seed,
                            "instance": start + int(b),
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
