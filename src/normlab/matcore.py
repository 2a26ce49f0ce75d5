"""Dense complex linear algebra and seeded instance generation.

Matrices are numpy ``complex128`` arrays throughout; ``as_matrix`` is the
boundary validator (2-D, finite entries), ``as_matrices`` the one for a
matrix or an (..., n, k) stack of them, and ``as_spectrum`` the one for real
spectra (nonempty, finite, nonzero entries).  Decompositions wrap LAPACK
via numpy, take one matrix or a stack (one LAPACK call per stack), and
normalize its conventions: eigenvalues ascending, singular values
descending, errors mapped onto the :mod:`normlab.errors` taxonomy.
``require_hermitian`` passes a stack equal to its adjoint at once and
measures the Frobenius gap of any other.

Random sampling is purely functional: an :class:`Rng` is an immutable
(seed, path) pair and every sampler draws the stream that pair fixes, so a
given Rng always produces the same matrix.  Distinct instances must use
distinct substreams (``rng.substream(i)``).  Every sampler takes one Rng,
or a :class:`Streams` of m and then returns an (m, n, n) stack equal to m
single calls.  A stream is fixed by its Philox key, which numpy's
SeedSequence derives from (seed, path).  ``substreams`` keys a Streams in
one pass: it starts from SeedSequence's pool of the seed, hashes each path
prefix into it once per prefix and mixes every index into every prefix.
A stream's draws are raw generator output (uniforms, normals, integers),
taken from one reused generator (:func:`philox`) set to each stream's key
and start by ``seek``; every transform of them (exponentials, sorts,
signs, complex combines, the QR and the products) runs once on the stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidParams,
    NoConvergence,
    NotHermitian,
    NotPositiveDefinite,
    Singular,
    ZeroEigenvalue,
)

__all__ = [
    "Rng",
    "Streams",
    "substreams",
    "philox",
    "seek",
    "HermEigen",
    "SvdResult",
    "as_matrix",
    "as_matrices",
    "as_spectrum",
    "require_within",
    "require_hermitian",
    "herm_eigen",
    "posdef_eigen",
    "svd",
    "invertible_svd",
    "frac_power",
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

    The stream is fixed by its Philox ``key``, which ``substreams``
    computes for many streams at once.  A Philox generator set to that
    key, to counter c and to an empty buffer (:func:`seek`) draws next the
    doubles 4c, 4c+1, ... of the stream, so a sampler may draw any block of
    any stream from one reused generator and get the values ``generator()``
    gives.  The matrix samplers and the conjecture search do so, and
    ``rng.generator()`` still regenerates any of their draws.
    """

    seed: int
    path: tuple[int, ...] = field(default=())

    def substream(self, index: int) -> "Rng":
        """Independent child stream; substream(i) != substream(j) for i != j."""
        return Rng(self.seed, self.path + (int(index),))

    @property
    def key(self) -> np.ndarray:
        """The stream's Philox key: two uint64 words."""
        return np.random.SeedSequence(self.seed, spawn_key=self.path).generate_state(2, np.uint64)

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(ss))


# numpy's SeedSequence (numpy/random/bit_generator.pyx, after O'Neill's
# seed_seq): uint32 entropy words (the seed's, zero-padded to four words
# when a spawn key follows, then the spawn key's) are hashed into a pool of
# four words, the pool is mixed after the fourth word, and the output words
# are hashed back out of the pool.  The j-th application of a hash xors
# with init * mult**j and multiplies by init * mult**(j+1), mod 2**32.
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hash_constants(init: int, mult: int, calls: int) -> np.ndarray:
    """init * mult**j mod 2**32 for j = 0..calls, as uint32: the constants of
    a hash's first `calls` applications."""
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)


# Entropy of w words takes 4w applications of the pool hash: one per pool
# word for the first four words, three per pool word to mix the pool, then
# four for each later word, so the word at position e >= 4 takes
# applications 4e..4e+3.  The output hash takes four applications.
_CONSTS_B = _hash_constants(_INIT_B, _MULT_B, _POOL_SIZE)


def _hashmix(value, xor, mult):
    # SeedSequence's hash of uint32 words, as ints or arrays.
    v = (value ^ xor) * mult & _MASK32
    return v ^ v >> 16


def _mix(x, y):
    v = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return v ^ v >> 16


def _take(pool: np.ndarray, words: np.ndarray, consts: np.ndarray, at: int) -> np.ndarray:
    """The pools (last axis) after each takes in its entropy word at position
    `at` >= _POOL_SIZE; `words` broadcasts against the pools' leading axes."""
    first = _POOL_SIZE * at
    xor, mult = consts[first : first + _POOL_SIZE], consts[first + 1 : first + _POOL_SIZE + 1]
    return _mix(pool, _hashmix(words[..., None], xor, mult))


def substreams(seed: int, prefixes, indices) -> "Streams":
    """The streams ``Rng(seed, prefix + (index,))`` for every row of the
    (P, L) path prefixes and then every index, prefix-major, as a Streams
    of P * len(indices).

    Every stream's entropy starts with the same seed words, so every
    prefix row starts from the one pool SeedSequence makes of them,
    ``np.random.SeedSequence(seed).pool``; each row then takes in its L
    words, and each index is mixed into every prefix's pool.  The keys cost
    one pass over those word columns, not one per stream.  Row r equals
    ``np.random.SeedSequence(seed, spawn_key=paths[r]).generate_state(2,
    np.uint64)`` bit for bit.  Path entries of 2**32 or more take several
    entropy words each, so those rare batches are keyed one path at a time
    by that SeedSequence call itself.
    """
    # numpy makes floats of a mix of int64 and larger ints; keep them exact.
    prefixes, indices = (np.array(a, dtype=object) if (v := np.asarray(a)).dtype == float else v
                         for a in (prefixes, indices))
    if prefixes.ndim != 2 or indices.ndim != 1:
        raise ValueError("need a (P, L) array of path prefixes and a 1-D array of indices")
    count = len(indices)
    if all(a.dtype.kind in "iu" and np.all((0 <= a) & (a <= _MASK32)) for a in (prefixes, indices)):
        prefixes, indices = prefixes.astype(np.int64), indices.astype(np.int64)
        paths = np.column_stack((np.repeat(prefixes, count, axis=0), np.tile(indices, len(prefixes))))
        pool = np.broadcast_to(np.random.SeedSequence(seed).pool, (len(prefixes), _POOL_SIZE))
        # The path words follow the seed's words, zero-padded to the pool size.
        first = max(_POOL_SIZE, -(-int(seed).bit_length() // 32))
        width = first + prefixes.shape[1] + 1
        consts = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * width)
        for at, word in enumerate(prefixes.astype(np.uint32).T, first):
            pool = _take(pool, word, consts, at)
        pool = _take(pool[:, None, :], indices.astype(np.uint32), consts, width - 1)
        state = _hashmix(pool, _CONSTS_B[:-1], _CONSTS_B[1:])
        # Two uint64 words from four uint32 words, little-endian.
        return Streams(paths, state.astype("<u4").view("<u8").astype(np.uint64).reshape(-1, 2))
    paths = np.array([p + [i] for p in prefixes.tolist() for i in indices.tolist()], dtype=object)
    keys = [np.random.SeedSequence(seed, spawn_key=path).generate_state(2, np.uint64) for path in paths.tolist()]
    return Streams(paths, np.array(keys, dtype=np.uint64).reshape(-1, 2))


@dataclass(frozen=True, eq=False)
class Streams:
    """m streams keyed in one pass, for which a sampler returns an (m, ...)
    stack: stream r is ``Rng(seed, tuple(paths[r]))`` of the keying seed,
    and keys[r] its Philox key.  :func:`substreams` builds them; a slice or
    an index array takes those rows of them."""

    paths: np.ndarray
    keys: np.ndarray

    def __getitem__(self, rows) -> "Streams":
        return Streams(self.paths[rows], self.keys[rows])


def seek(g: np.random.Generator, key, counter: int) -> None:
    """Set a Philox generator to a stream's key (a pair of uint64 words, as
    a row of ``Streams.keys``) and to `counter`, with an empty buffer:
    it then draws the doubles 4 * counter, ... of that stream, and at
    counter 0 exactly what the stream's ``Rng.generator()`` draws."""
    g.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": [counter, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def philox(rng) -> tuple[list, np.random.Generator | None]:
    """The Philox keys of one Rng or of a Streams' streams, as a list of
    pairs of uint64 ints, and one generator keyed to the first of them
    (None when there is none), which :func:`seek` sets to any of them."""
    if isinstance(rng, Rng):
        keys = rng.key[None]
    elif isinstance(rng, Streams):
        keys = rng.keys
    else:
        raise TypeError(f"need an Rng or a Streams, got {type(rng).__name__}")
    # Philox takes its key as uint64 words: a list mixing ints above and
    # below 2**63 would round through float.
    return keys.tolist(), np.random.Generator(np.random.Philox(key=keys[0])) if len(keys) else None


@dataclass(frozen=True, eq=False)
class HermEigen:
    """Spectral decomposition of a Hermitian matrix.

    eigenvalues are real and ascending; vectors is unitary with eigenvectors
    in its columns, so ``vectors @ diag(eigenvalues) @ vectors.conj().T``
    reconstructs the input.  A stack's decompositions carry its leading
    axes.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True, eq=False)
class SvdResult:
    """Singular value decomposition ``A = left @ diag(s) @ right.conj().T``.

    singular_values are nonnegative and descending; left and right are
    unitary.  A stack's decompositions carry its leading axes.
    """

    singular_values: np.ndarray
    left: np.ndarray
    right: np.ndarray


def as_matrix(a) -> np.ndarray:
    """Validate and coerce to a 2-D complex128 array.

    Raises DimensionMismatch for non-2-D input and InvalidParams (a
    ValueError) for NaN/Inf entries (no non-finite value is admitted into
    any matrix).
    """
    out = as_matrices(a)
    if out.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got ndim={out.ndim}")
    return out


def as_matrices(a) -> np.ndarray:
    """as_matrix for one matrix or an (..., n, k) stack of them."""
    out = np.asarray(a, dtype=complex)
    if out.ndim < 2:
        raise DimensionMismatch(f"expected a matrix or a stack of matrices, got ndim={out.ndim}")
    if not np.all(np.isfinite(out)):
        raise InvalidParams("matrix entries must be finite")
    return out


def as_spectrum(lambdas) -> np.ndarray:
    """Coerce to a float array: one spectrum or an (..., n) stack of them.

    The owner of a spectrum's domain: raises InvalidParams for an empty or
    0-d input or a NaN/Inf entry, and ZeroEigenvalue for a zero entry.
    """
    lam = np.asarray(lambdas, dtype=float)
    if lam.ndim == 0 or lam.size == 0:
        raise InvalidParams("lambdas must be a nonempty real vector or stack of vectors")
    if not np.all(np.isfinite(lam)):
        raise InvalidParams(f"spectrum entries must be finite, got {lam[~np.isfinite(lam)][0]}")
    if np.any(lam == 0.0):
        raise ZeroEigenvalue(f"spectrum entries must be nonzero, got {lam[lam == 0.0][0]}")
    return lam


def require_within(values, lo: float, hi: float, error: type, message: str) -> None:
    """Raise error(f"{message}, got {v}") for the first v of values not finite and in [lo, hi]."""
    v = np.asarray(values)
    ok = np.isfinite(v) & (lo <= v) & (v <= hi)
    if not ok.all():
        raise error(f"{message}, got {v[~ok][0].item()}")


def _require_square(a: np.ndarray) -> None:
    if a.shape[-2] != a.shape[-1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")


def _require_nonsingular(singular_values: np.ndarray) -> None:
    # The Frobenius norm of a matrix is the 2-norm of its singular values.
    frobenius = np.linalg.norm(singular_values, axis=-1)
    if np.any(singular_values[..., -1] <= SINGULAR_RTOL * np.maximum(frobenius, 1e-300)):
        raise Singular("matrix is numerically singular")


def require_hermitian(a: np.ndarray) -> None:
    """Raise NotHermitian unless A, or every matrix of an (..., n, n) stack,
    equals its adjoint within HERMITICITY_RTOL (Frobenius norm, relative to
    max(1, |A|)), and DimensionMismatch unless it is square.  A matrix whose
    largest entry magnitude exceeds 1 is first divided by it, so the norms
    cannot overflow.  A stack that equals its adjoint exactly has gap 0
    and passes without the norms: every sampled Hermitian matrix and every
    conjecture C stack takes that path."""
    _require_square(a)
    if np.array_equal(a, _adjoint(a)):
        return
    axes = None if a.ndim == 2 else (-2, -1)
    peak = np.maximum(1.0, np.abs(a).max(axis=(-2, -1), initial=0.0))
    a = a / peak[..., None, None]
    gap = np.linalg.norm(a - a.conj().swapaxes(-2, -1), axis=axes)
    if np.any(gap > HERMITICITY_RTOL * np.maximum(1.0 / peak, np.linalg.norm(a, axis=axes))):
        raise NotHermitian("matrix is not self-adjoint within tolerance")


def herm_eigen(a) -> HermEigen:
    """Eigendecomposition of a Hermitian matrix or stack, eigenvalues
    ascending."""
    a = as_matrices(a)
    require_hermitian(a)
    try:
        eigs, q = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    return HermEigen(eigenvalues=eigs, vectors=q)


def posdef_eigen(a) -> HermEigen:
    """herm_eigen of a positive definite matrix or stack: raises
    NotPositiveDefinite unless every smallest eigenvalue exceeds
    POSDEF_RTOL times its largest, so negative powers stay well posed."""
    dec = herm_eigen(a)
    low, top = dec.eigenvalues[..., 0], dec.eigenvalues[..., -1]
    if np.any(low <= POSDEF_RTOL * top) or np.any(top <= 0.0):
        raise NotPositiveDefinite("matrix is not positive definite within tolerance")
    return dec


def svd(a) -> SvdResult:
    """Singular value decomposition of a matrix or stack, singular values
    descending."""
    a = as_matrices(a)
    try:
        u, s, vh = np.linalg.svd(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    return SvdResult(singular_values=s, left=u, right=_adjoint(vh))


def invertible_svd(a) -> SvdResult:
    """svd of a square matrix or stack, raising Singular on the test of
    inverse."""
    a = as_matrices(a)
    _require_square(a)
    dec = svd(a)
    _require_nonsingular(dec.singular_values)
    return dec


def frac_power(p, s: float) -> np.ndarray:
    """Real power ``P**s`` of a positive definite matrix.

    Defined spectrally: Q diag(eig**s) Q*, with P checked by posdef_eigen.
    """
    dec = posdef_eigen(as_matrix(p))
    powered = (dec.vectors * dec.eigenvalues**s) @ dec.vectors.conj().T
    # The spectral formula is Hermitian; rounding is folded back symmetrically.
    return 0.5 * (powered + powered.conj().T)


def haar_unitary(n: int, rng) -> np.ndarray:
    """Haar-distributed n-by-n unitary.

    QR of a complex Ginibre matrix; multiplying Q by the phases of R's
    diagonal makes the factorization unique and the law exactly Haar.
    """
    return _sample(rng, lambda g: (g.standard_normal((2, n, n)),), lambda w: _haar(_complex(w)))


def random_posdef(n: int, cond: float, rng) -> np.ndarray:
    """Random Hermitian positive definite matrix with Haar eigenvectors and
    eigenvalues log-uniform in [cond**-0.5, cond**0.5] (condition <= cond)."""
    return _sample(
        rng,
        lambda g: (g.uniform(-0.5, 0.5, size=n), g.standard_normal((2, n, n))),
        lambda u, w: _hermitian(_haar(_complex(w)), np.sort(_log_uniform(u, cond), axis=-1)),
    )


def random_selfadjoint_invertible(n: int, cond: float, rng) -> np.ndarray:
    """Random self-adjoint invertible matrix: positive log-uniform
    magnitudes with independent random signs, |eig| >= cond**-0.5."""
    return _sample(
        rng,
        lambda g: (g.uniform(-0.5, 0.5, size=n), g.random(n), g.standard_normal((2, n, n))),
        lambda u, r, w: _hermitian(_haar(_complex(w)), _log_uniform(u, cond) * _signs(r)),
    )


def random_invertible(n: int, cond: float, rng) -> np.ndarray:
    """Random invertible matrix U diag(s) V* with independent Haar factors
    and singular values log-uniform in [cond**-0.5, cond**0.5]."""

    def build(u, w):
        # The normals of U, then those of V.
        q = _haar(_complex(w))
        return (q[:, 0] * _log_uniform(u, cond)[:, None, :]) @ _adjoint(q[:, 1])

    return _sample(rng, lambda g: (g.uniform(-0.5, 0.5, size=n), g.standard_normal((2, 2, n, n))), build)


def random_normal_invertible(n: int, cond: float, rng) -> np.ndarray:
    """Random invertible normal matrix U diag(d) U* with complex d,
    |d| log-uniform in [cond**-0.5, cond**0.5]."""

    def build(u, r, w):
        q = _haar(_complex(w))
        return (q * (_log_uniform(u, cond) * _phases(r))[:, None, :]) @ _adjoint(q)

    return _sample(rng, lambda g: (g.uniform(-0.5, 0.5, size=n), g.random(n), g.standard_normal((2, n, n))), build)


def random_scaled_unitary(n: int, rng) -> np.ndarray:
    """Nonzero real scalar times a Haar unitary."""
    return _sample(
        rng,
        lambda g: (g.uniform(-1.0, 1.0), g.random(), g.standard_normal((2, n, n))),
        lambda u, r, w: (_scales(u) * _signs(r))[:, None, None] * _haar(_complex(w)),
    )


def random_scaled_reflection(n: int, rng) -> np.ndarray:
    """Nonzero complex scalar times a self-adjoint unitary (Q diag(+-1) Q*)."""
    return _sample(
        rng,
        lambda g: (g.uniform(-1.0, 1.0), g.random(), g.random(n), g.standard_normal((2, n, n))),
        lambda u, r, s, w: (_scales(u) * _phases(r))[:, None, None] * _hermitian(_haar(_complex(w)), _signs(s)),
    )


def random_scaled_selfadjoint(n: int, cond: float, rng) -> np.ndarray:
    """Nonzero complex scalar times a self-adjoint invertible matrix."""

    def build(u, r, v, s, w):
        eigs = _log_uniform(v, cond) * _signs(s)
        return (_scales(u) * _phases(r))[:, None, None] * _hermitian(_haar(_complex(w)), eigs)

    return _sample(
        rng,
        lambda g: (g.uniform(-1.0, 1.0), g.random(), g.uniform(-0.5, 0.5, size=n), g.random(n),
                   g.standard_normal((2, n, n))),
        build,
    )


def ginibre(n: int, m: int | None = None, *, rng) -> np.ndarray:
    """Complex Ginibre matrix: i.i.d. standard complex Gaussian entries."""
    return _sample(rng, lambda g: (g.standard_normal((2, n, n if m is None else m)),), _complex)


def random_probe_matrix(n: int, rng) -> np.ndarray:
    """Free-matrix sampler for inequality checks.

    Mixture of dense Ginibre draws with the structured extremal candidates:
    rank-one basis matrices e_i e_j*, Hermitian draws, and Haar unitaries.
    Rank-one off-diagonal seeds need n >= 2 and fall back to Ginibre at n=1.
    """
    # A rank-one pick draws its row and column and no normals.
    no_normals = np.zeros((2, n, n))

    def draw(g):
        pick = g.integers(0, 4)
        if pick == 0 and n >= 2:
            return pick, g.integers(0, n), g.integers(0, n - 1), no_normals
        return pick, 0, 0, g.standard_normal((2, n, n))

    def build(pick, i, j, w):
        x = _complex(w)
        herm, haar = pick == 1, pick == 2
        x[herm] = 0.5 * (x[herm] + _adjoint(x[herm]))
        if haar.any():
            x[haar] = _haar(x[haar])
        unit = np.flatnonzero((pick == 0) & (n >= 2))
        x[unit] = 0.0
        i, j = i[unit], j[unit]
        x[unit, i, np.where(j >= i, j + 1, j)] = 1.0
        return x

    return _sample(rng, draw, build)


def _sample(rng, draw, build):
    """One sample for an Rng, or an (m, ...) stack of them for a Streams
    of m, the same as m single calls.

    draw(g) returns one stream's raw generator output (uniforms, normals,
    integers) in stream order, as a tuple; build takes the tuple's members,
    each stacked over the streams, and makes every transform of them once
    on the stack.  Every stream is drawn from the one generator of
    :func:`philox`, set to the stream's key and start by :func:`seek`, so
    the only per-stream work is the draws.  A Streams of none raises
    ValueError.
    """
    keys, g = philox(rng)
    if g is None:
        raise ValueError("need at least one stream")
    draws = []
    for key in keys:
        seek(g, key, 0)
        draws.append(draw(g))
    out = build(*(np.array(column) for column in zip(*draws)))
    return out[0] if isinstance(rng, Rng) else out


def _complex(w: np.ndarray) -> np.ndarray:
    # Standard complex Gaussians from (..., 2, n, m) normals: the real parts,
    # then the imaginary parts, as two (n, m) draws give them.
    return (w[..., 0, :, :] + 1j * w[..., 1, :, :]) / np.sqrt(2.0)


def _adjoint(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _haar(z: np.ndarray) -> np.ndarray:
    # Haar unitaries from a stack of Ginibre matrices: one batched QR, with
    # Q's columns scaled by the phases of R's diagonal.
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1).copy()
    d[d == 0] = 1.0
    return q * (d / np.abs(d))[..., None, :]


def _log_uniform(u: np.ndarray, cond: float) -> np.ndarray:
    # Magnitudes log-uniform in [cond**-0.5, cond**0.5] from uniforms in
    # [-1/2, 1/2).
    if not 1.0 <= cond < np.inf:
        raise InvalidParams(f"cond must be finite and >= 1, got {cond}")
    return np.exp(u * np.log(cond))


def _signs(r: np.ndarray) -> np.ndarray:
    return np.where(r < 0.5, -1.0, 1.0)


def _phases(r: np.ndarray) -> np.ndarray:
    return np.exp(2j * np.pi * r)


def _scales(u: np.ndarray) -> np.ndarray:
    # Magnitudes log-uniform in [0.1, 10] from uniforms in [-1, 1); keeps
    # scalar factors moderate.  Python's float power: numpy's vectorized
    # power rounds apart from it on some hosts (its SIMD loops).
    return np.array([10.0**v for v in u.tolist()])


def _hermitian(q: np.ndarray, eigs: np.ndarray) -> np.ndarray:
    # Q diag(eigs) Q* over a stack, with rounding folded back symmetrically.
    a = (q * eigs[..., None, :]) @ _adjoint(q)
    return 0.5 * (a + _adjoint(a))


def inverse(a) -> np.ndarray:
    """Inverse of a matrix or stack; raises Singular when a smallest singular
    value is below SINGULAR_RTOL times its matrix's Frobenius norm."""
    a = as_matrices(a)
    _require_square(a)
    _require_nonsingular(np.linalg.svd(a, compute_uv=False))
    return np.linalg.solve(a, np.eye(a.shape[-1], dtype=complex))


def direct_sum(a, b) -> np.ndarray:
    """Block-diagonal sum; works for rectangular blocks."""
    a, b = as_matrix(a), as_matrix(b)
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]), dtype=complex)
    out[: a.shape[0], : a.shape[1]] = a
    out[a.shape[0] :, a.shape[1] :] = b
    return out
