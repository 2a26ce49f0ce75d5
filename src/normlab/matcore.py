"""Dense complex linear algebra and seeded instance generation.

Matrices are numpy ``complex128`` arrays throughout; ``as_matrix`` is the
boundary validator (2-D, finite entries), and ``as_spectrum`` the one for
real spectra (nonempty, nonzero entries).  Decompositions wrap LAPACK via
numpy and normalize its conventions: eigenvalues ascending, singular values
descending, errors mapped onto the :mod:`normlab.errors` taxonomy.

Random sampling is purely functional: an :class:`Rng` is an immutable
(seed, path) pair and every sampler draws from a generator reconstructed
from that pair, so a given Rng always produces the same matrix.  Distinct
instances must use distinct substreams (``rng.substream(i)``).
``stream_keys`` derives the Philox keys of many streams in one pass, for
samplers that draw blocks of many streams from one reused generator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    NoConvergence,
    NotHermitian,
    NotPositiveDefinite,
    Singular,
    ZeroEigenvalue,
)

__all__ = [
    "Rng",
    "stream_keys",
    "HermEigen",
    "SvdResult",
    "as_matrix",
    "as_spectrum",
    "require_hermitian",
    "herm_eigen",
    "posdef_eigen",
    "svd",
    "frac_power",
    "polar_abs",
    "haar_unitary",
    "random_posdef",
    "random_selfadjoint_invertible",
    "random_invertible",
    "random_normal_invertible",
    "random_scaled_unitary",
    "random_scaled_reflection",
    "random_scaled_selfadjoint",
    "ginibre",
    "random_probe_matrix",
    "inverse",
    "direct_sum",
]

# Relative tolerance for "is this matrix Hermitian" at op boundaries.
HERMITICITY_RTOL = 1e-12
# Eigenvalues below this fraction of the largest are treated as zero when a
# positive definite input is required.
POSDEF_RTOL = 1e-12
# Smallest singular value below this fraction of the Frobenius norm means
# numerically singular.
SINGULAR_RTOL = 1e-13


@dataclass(frozen=True)
class Rng:
    """Splittable deterministic random stream.

    The stream is a pure function of ``(seed, path)``: ``generator()``
    always restarts from the stream origin, and ``substream(i)`` derives an
    independent child stream.  Philox keyed through SeedSequence gives
    counter-based, order-independent streams.

    The stream is fixed by its Philox key,
    ``SeedSequence(seed, spawn_key=path).generate_state(2, np.uint64)``,
    which ``stream_keys`` computes for many streams at once.  A Philox
    generator set to that key, to counter c and to an empty buffer draws
    next the doubles 4c, 4c+1, ... of the stream, so a sampler may draw any
    block of any stream from one reused generator and get the values
    ``generator()`` gives.  The conjecture search does so, and
    ``Rng(seed).substream(p).substream(i).generator()`` still regenerates
    any of its spectra.
    """

    seed: int
    path: tuple[int, ...] = field(default=())

    def substream(self, index: int) -> "Rng":
        """Independent child stream; substream(i) != substream(j) for i != j."""
        return Rng(self.seed, self.path + (int(index),))

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(ss))


# numpy's SeedSequence (numpy/random/bit_generator.pyx, after O'Neill's
# seed_seq): uint32 entropy words are hashed into a pool of four words, the
# pool is mixed, and the output words are hashed back out of the pool.
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _uint32_words(v, least: int) -> tuple[int, ...]:
    """Little-endian uint32 words of a nonnegative int, zero-padded to at
    least `least` words."""
    v = int(v)
    if v < 0:
        raise ValueError(f"seed and path entries must be nonnegative, got {v}")
    words = [v & _MASK32]
    while v > _MASK32:
        v >>= 32
        words.append(v & _MASK32)
    return tuple(words + [0] * (least - len(words)))


def _hasher(init: int, mult: int):
    """SeedSequence's uint32 hash.  Its j-th application xors with
    init * mult**j and multiplies by init * mult**(j+1); hash_(words, calls)
    makes the next `calls` applications at once, one per last-axis entry of
    the result, with words broadcast against them."""
    const = init

    def hash_(words: np.ndarray, calls: int) -> np.ndarray:
        nonlocal const
        xor, mul = [], []
        for _ in range(calls):
            xor.append(const)
            const = (const * mult) & _MASK32
            mul.append(const)
        v = (words ^ np.array(xor, dtype=np.uint32)) * np.array(mul, dtype=np.uint32)
        return v ^ (v >> 16)

    return hash_


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    v = _MIX_MULT_L * x - _MIX_MULT_R * y
    return v ^ (v >> 16)


def stream_keys(rngs) -> np.ndarray:
    """Philox keys of a sequence of m Rngs as an (m, 2) uint64 array.

    Row r equals ``np.random.SeedSequence(rngs[r].seed,
    spawn_key=rngs[r].path).generate_state(2, np.uint64)`` bit for bit,
    whatever the seeds and path lengths of the rows: the hashing runs on
    all rows at once, each pool word an (m,)-column.
    """
    rngs = list(rngs)
    # A row's entropy is its seed's words zero-padded to the pool size, then
    # the words of each path entry.
    seed_words = {seed: _uint32_words(seed, _POOL_SIZE) for seed in {r.seed for r in rngs}}
    # Path entries below 2**32, the usual case, are one word each.
    entries = [p for r in rngs for p in r.path]
    if entries and not 0 <= min(entries) <= max(entries) <= _MASK32:
        rows = [seed_words[r.seed] + tuple(w for p in r.path for w in _uint32_words(p, 1)) for r in rngs]
    else:
        rows = [seed_words[r.seed] + tuple(r.path) for r in rngs]
    lengths = np.fromiter(map(len, rows), dtype=int, count=len(rows))
    width = int(lengths.max(initial=_POOL_SIZE))
    entropy = np.zeros((len(rows), width), dtype=np.uint32)
    entropy[np.arange(width) < lengths[:, None]] = np.fromiter(
        itertools.chain.from_iterable(rows), dtype=np.uint32, count=int(lengths.sum())
    )

    # Entropy in: hash the first words into the pool, mix every pool word
    # into every other, then mix each later word into every pool word.
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = hashmix(entropy[:, :_POOL_SIZE], _POOL_SIZE)
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        pool[:, dst] = _mix(pool[:, dst], hashmix(pool[:, src, None], _POOL_SIZE - 1))
    for col in range(_POOL_SIZE, width):
        mixed = _mix(pool, hashmix(entropy[:, col, None], _POOL_SIZE))
        pool = np.where((col < lengths)[:, None], mixed, pool)

    # State out: two uint64 words from four uint32 words, little-endian.
    state = _hasher(_INIT_B, _MULT_B)(pool, _POOL_SIZE)
    return state.astype("<u4").view("<u8").astype(np.uint64)


@dataclass(frozen=True)
class HermEigen:
    """Spectral decomposition of a Hermitian matrix.

    eigenvalues are real and ascending; vectors is unitary with eigenvectors
    in its columns, so ``vectors @ diag(eigenvalues) @ vectors.conj().T``
    reconstructs the input.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True)
class SvdResult:
    """Singular value decomposition ``A = left @ diag(s) @ right.conj().T``.

    singular_values are nonnegative and descending; left and right are
    unitary.
    """

    singular_values: np.ndarray
    left: np.ndarray
    right: np.ndarray


def as_matrix(a) -> np.ndarray:
    """Validate and coerce to a 2-D complex128 array.

    Raises DimensionMismatch for non-2-D input and ValueError for NaN/Inf
    entries (no non-finite value is admitted into any matrix).
    """
    out = np.asarray(a, dtype=complex)
    if out.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got ndim={out.ndim}")
    if not np.all(np.isfinite(out)):
        raise ValueError("matrix entries must be finite")
    return out


def as_spectrum(lambdas) -> np.ndarray:
    """Coerce to a float array: one spectrum or an (..., n) stack of them.

    Raises ValueError for an empty or 0-d input and ZeroEigenvalue for a
    zero entry.
    """
    lam = np.asarray(lambdas, dtype=float)
    if lam.ndim == 0 or lam.size == 0:
        raise ValueError("lambdas must be a nonempty real vector or stack of vectors")
    if np.any(lam == 0.0):
        raise ZeroEigenvalue("spectrum entries must be nonzero")
    return lam


def _require_square(a: np.ndarray) -> None:
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")


def require_hermitian(a: np.ndarray) -> None:
    """Raise NotHermitian unless A, or every matrix of an (..., n, n) stack,
    equals its adjoint within HERMITICITY_RTOL (Frobenius norm, relative to
    max(1, |A|))."""
    axes = None if a.ndim == 2 else (-2, -1)
    scale_ = np.maximum(1.0, np.linalg.norm(a, axis=axes))
    if np.any(np.linalg.norm(a - a.conj().swapaxes(-2, -1), axis=axes) > HERMITICITY_RTOL * scale_):
        raise NotHermitian("matrix is not self-adjoint within tolerance")


def herm_eigen(a) -> HermEigen:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending."""
    a = as_matrix(a)
    _require_square(a)
    require_hermitian(a)
    try:
        eigs, q = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    return HermEigen(eigenvalues=eigs, vectors=q)


def posdef_eigen(a) -> HermEigen:
    """herm_eigen of a positive definite matrix: raises NotPositiveDefinite
    unless the smallest eigenvalue exceeds POSDEF_RTOL times the largest,
    so negative powers stay well posed."""
    dec = herm_eigen(a)
    eigs = dec.eigenvalues
    if eigs[0] <= POSDEF_RTOL * eigs[-1] or eigs[-1] <= 0.0:
        raise NotPositiveDefinite("matrix is not positive definite within tolerance")
    return dec


def svd(a) -> SvdResult:
    """Singular value decomposition with descending singular values."""
    a = as_matrix(a)
    try:
        u, s, vh = np.linalg.svd(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    return SvdResult(singular_values=s, left=u, right=vh.conj().T)


def frac_power(p, s: float) -> np.ndarray:
    """Real power ``P**s`` of a positive definite matrix.

    Defined spectrally: Q diag(eig**s) Q*, with P checked by posdef_eigen.
    """
    dec = posdef_eigen(p)
    powered = (dec.vectors * dec.eigenvalues**s) @ dec.vectors.conj().T
    # The spectral formula is Hermitian; rounding is folded back symmetrically.
    return 0.5 * (powered + powered.conj().T)


def polar_abs(a) -> np.ndarray:
    """Positive factor |A| = (A*A)^(1/2) of the polar decomposition."""
    dec = svd(a)
    absval = (dec.right * dec.singular_values) @ dec.right.conj().T
    return 0.5 * (absval + absval.conj().T)


def haar_unitary(n: int, rng: Rng) -> np.ndarray:
    """Haar-distributed n-by-n unitary.

    QR of a complex Ginibre matrix; multiplying Q by the phases of R's
    diagonal makes the factorization unique and the law exactly Haar.
    """
    return _haar_from_generator(n, rng.generator())


def random_posdef(n: int, cond: float, rng: Rng) -> np.ndarray:
    """Random Hermitian positive definite matrix with Haar eigenvectors and
    eigenvalues log-uniform in [cond**-0.5, cond**0.5] (condition <= cond)."""
    g = rng.generator()
    eigs = np.sort(_log_uniform(g, n, cond))
    return _hermitian(_haar_from_generator(n, g), eigs)


def random_selfadjoint_invertible(n: int, cond: float, rng: Rng) -> np.ndarray:
    """Random self-adjoint invertible matrix: positive log-uniform
    magnitudes with independent random signs, |eig| >= cond**-0.5."""
    g = rng.generator()
    eigs = _log_uniform(g, n, cond) * _random_signs(g, n)
    return _hermitian(_haar_from_generator(n, g), eigs)


def random_invertible(n: int, cond: float, rng: Rng) -> np.ndarray:
    """Random invertible matrix U diag(s) V* with independent Haar factors
    and singular values log-uniform in [cond**-0.5, cond**0.5]."""
    g = rng.generator()
    svals = _log_uniform(g, n, cond)
    u = _haar_from_generator(n, g)
    v = _haar_from_generator(n, g)
    return (u * svals) @ v.conj().T


def random_normal_invertible(n: int, cond: float, rng: Rng) -> np.ndarray:
    """Random invertible normal matrix U diag(d) U* with complex d,
    |d| log-uniform in [cond**-0.5, cond**0.5]."""
    g = rng.generator()
    d = _log_uniform(g, n, cond) * np.exp(2j * np.pi * g.random(n))
    q = _haar_from_generator(n, g)
    return (q * d) @ q.conj().T


def random_scaled_unitary(n: int, rng: Rng) -> np.ndarray:
    """Nonzero real scalar times a Haar unitary."""
    g = rng.generator()
    c = _log_uniform_scale(g) * (-1.0 if g.random() < 0.5 else 1.0)
    return c * _haar_from_generator(n, g)


def random_scaled_reflection(n: int, rng: Rng) -> np.ndarray:
    """Nonzero complex scalar times a self-adjoint unitary (Q diag(+-1) Q*)."""
    g = rng.generator()
    c = _log_uniform_scale(g) * np.exp(2j * np.pi * g.random())
    signs = _random_signs(g, n)
    return c * _hermitian(_haar_from_generator(n, g), signs)


def random_scaled_selfadjoint(n: int, cond: float, rng: Rng) -> np.ndarray:
    """Nonzero complex scalar times a self-adjoint invertible matrix."""
    g = rng.generator()
    c = _log_uniform_scale(g) * np.exp(2j * np.pi * g.random())
    eigs = _log_uniform(g, n, max(cond, 1.0)) * _random_signs(g, n)
    return c * _hermitian(_haar_from_generator(n, g), eigs)


def ginibre(n: int, m: int | None = None, rng: Rng | None = None) -> np.ndarray:
    """Complex Ginibre matrix: i.i.d. standard complex Gaussian entries."""
    if rng is None:
        raise ValueError("rng is required")
    return _ginibre_from_generator(n, n if m is None else m, rng.generator())


def random_probe_matrix(n: int, rng: Rng) -> np.ndarray:
    """Free-matrix sampler for inequality checks.

    Mixture of dense Ginibre draws with the structured extremal candidates:
    rank-one basis matrices e_i e_j*, Hermitian draws, and Haar unitaries.
    Rank-one off-diagonal seeds need n >= 2 and fall back to Ginibre at n=1.
    """
    g = rng.generator()
    pick = g.integers(0, 4)
    if pick == 0 and n >= 2:
        i = int(g.integers(0, n))
        j = int(g.integers(0, n - 1))
        j = j + 1 if j >= i else j
        x = np.zeros((n, n), dtype=complex)
        x[i, j] = 1.0
        return x
    if pick == 1:
        z = _ginibre_from_generator(n, n, g)
        return 0.5 * (z + z.conj().T)
    if pick == 2:
        return _haar_from_generator(n, g)
    return _ginibre_from_generator(n, n, g)


def _ginibre_from_generator(n: int, m: int, g: np.random.Generator) -> np.ndarray:
    return (g.standard_normal((n, m)) + 1j * g.standard_normal((n, m))) / np.sqrt(2.0)


def _haar_from_generator(n: int, g: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(_ginibre_from_generator(n, n, g))
    d = np.diagonal(r).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))


def _log_uniform(g: np.random.Generator, n: int, cond: float) -> np.ndarray:
    # n magnitudes log-uniform in [cond**-0.5, cond**0.5].
    if cond < 1.0:
        raise ValueError("cond must be >= 1")
    return np.exp(g.uniform(-0.5, 0.5, size=n) * np.log(cond))


def _random_signs(g: np.random.Generator, n: int) -> np.ndarray:
    return np.where(g.random(n) < 0.5, -1.0, 1.0)


def _hermitian(q: np.ndarray, eigs: np.ndarray) -> np.ndarray:
    # Q diag(eigs) Q*, with rounding folded back symmetrically.
    a = (q * eigs) @ q.conj().T
    return 0.5 * (a + a.conj().T)


def _log_uniform_scale(g: np.random.Generator) -> float:
    # Magnitude log-uniform in [0.1, 10]; keeps scalar factors moderate.
    return float(10.0 ** g.uniform(-1.0, 1.0))


def inverse(a) -> np.ndarray:
    """Matrix inverse; raises Singular when the smallest singular value is
    below SINGULAR_RTOL times the Frobenius norm."""
    a = as_matrix(a)
    _require_square(a)
    smallest = np.linalg.svd(a, compute_uv=False)[-1]
    if smallest <= SINGULAR_RTOL * max(np.linalg.norm(a), 1e-300):
        raise Singular("matrix is numerically singular")
    return np.linalg.solve(a, np.eye(a.shape[0], dtype=complex))


def direct_sum(a, b) -> np.ndarray:
    """Block-diagonal sum; works for rectangular blocks."""
    a, b = as_matrix(a), as_matrix(b)
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]), dtype=complex)
    out[: a.shape[0], : a.shape[1]] = a
    out[a.shape[0] :, a.shape[1] :] = b
    return out
