"""Small float64 tensor helpers: stable softmax, seeded draws, matrix norms.

Everything operates on plain numpy arrays. Vectors are 1-D float64, matrices
2-D float64; batched variants act along the last axis.

Draws are bit-reproducible from the seed on one platform and numpy build. The
Gaussian kernel calls libm's log, cos and sin, whose last-bit rounding may
differ between platforms, so no cross-platform identity is claimed.

Every penalty perturbation, for the classifier and the span head alike,
comes from `gaussian_rows` (or its one-row case `gaussian_vec`). The Philox
generator behind `RandomSource.generator` serves only shuffles, datasets,
parameter inits and the property suites' random instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(z: int) -> int:
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


_U64_GOLDEN = np.uint64(_GOLDEN)
_U64_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_U64_MIX2 = np.uint64(0x94D049BB133111EB)
_U64_30, _U64_27, _U64_31 = np.uint64(30), np.uint64(27), np.uint64(31)


def _splitmix64_array(z: np.ndarray) -> np.ndarray:
    """`_splitmix64` elementwise over a uint64 array, wrapping mod 2**64.

    Keep the operands arrays: numpy warns on overflow of uint64 scalars but
    wraps arrays silently. The first sum copies z, so z is not modified.
    """
    z = z + _U64_GOLDEN
    z ^= z >> _U64_30
    z *= _U64_MIX1
    z ^= z >> _U64_27
    z *= _U64_MIX2
    z ^= z >> _U64_31
    return z


@dataclass(frozen=True)
class RandomSource:
    """Value-typed randomness handle: a (seed, stream) pair.

    Draws are pure functions of the pair, so the same source always yields
    the same values. Independent substreams come from `split`, never from
    drawing twice; two draws from one source are identical by design.
    """

    seed: int
    stream: int = 0

    def split(self, *path: int) -> "RandomSource":
        """Derive an independent substream keyed by a tuple of integers."""
        s = self.stream
        for p in path:
            s = _splitmix64(s ^ ((p + 1) * _GOLDEN & _MASK64))
        return RandomSource(self.seed, s)

    def split_rows(self, index) -> "RandomRows":
        """Vectorized `split`: row i of the result is `self.split(index[i])`."""
        index = np.asarray(index)
        if index.ndim != 1:
            raise ValueError(f"split_rows needs a 1-D index array, got shape {index.shape}")
        return RandomRows(np.full(index.size, self.seed & _MASK64, dtype=np.uint64),
                          np.full(index.size, self.stream & _MASK64, dtype=np.uint64)).split(index)

    def generator(self) -> np.random.Generator:
        # Philox is counter-based, so keyed streams are independent.
        key = np.array([self.seed & _MASK64, self.stream & _MASK64], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


class RandomRows:
    """One (seed, stream) pair per batch row, held as two uint64 arrays.

    Row i stands for `RandomSource(seeds[i], streams[i])` with both masked to
    64 bits, so `split` and `gaussian_rows` act on every row in one array op
    while each row's values depend on its own pair alone, never on which
    rows share the batch or in what order. A plain class, not a dataclass:
    it is built on every penalty batch and its import cost counts at set-up.
    """

    __slots__ = ("seeds", "streams")

    def __init__(self, seeds: np.ndarray, streams: np.ndarray):
        self.seeds = seeds
        self.streams = streams

    @classmethod
    def of(cls, sources) -> "RandomRows":
        """Stack RandomSources, one per row."""
        return cls(np.array([r.seed & _MASK64 for r in sources], dtype=np.uint64),
                   np.array([r.stream & _MASK64 for r in sources], dtype=np.uint64))

    def split(self, *path) -> "RandomRows":
        """Row-wise `RandomSource.split`; each path entry is an int for every
        row or an integer array with one entry per row."""
        s = self.streams
        for p in path:
            if isinstance(p, (int, np.integer)):
                tag = np.uint64((int(p) + 1) * _GOLDEN & _MASK64)
            else:
                p = np.asarray(p)
                if not np.issubdtype(p.dtype, np.integer):
                    raise TypeError(f"split path arrays must hold integers, got {p.dtype}")
                tag = (p.astype(np.uint64) + np.uint64(1)) * _U64_GOLDEN
            s = _splitmix64_array(s ^ tag)
        return RandomRows(self.seeds, s)


def gaussian_rows(rows: RandomRows, n: int, std: float = 1.0) -> np.ndarray:
    """Draw a (B, n) array of independent centered Gaussians, B = rows' size.

    Each row hashes its (seed, stream) pair into a splitmix64 key and reads
    the splitmix64 sequence from that key (Salmon et al., SC'11; Claessen &
    Pałka, 2013). Consecutive words are paired into uniforms u1 in (0, 1]
    and u2 in [0, 1), and Box-Muller turns each pair into two normals, so
    row i is the same n-vector whatever the rest of the batch is.
    """
    if n < 1:
        raise ValueError(f"gaussian_rows needs n >= 1, got {n}")
    if not np.isfinite(std) or std < 0:
        raise ValueError(f"gaussian_rows needs finite std >= 0, got {std}")
    half = (n + 1) // 2
    key = _splitmix64_array(_splitmix64_array(rows.seeds) ^ rows.streams)
    # word 2k of a row feeds u1 and word 2k+1 feeds u2 of pair k; laid out as
    # (2, B, half) so log, cos and sin see C-contiguous operands for any B
    counter = np.arange(2 * half, dtype=np.uint64).reshape(half, 2).T * _U64_GOLDEN
    words = _splitmix64_array(key[None, :, None] + counter[:, None, :])
    top = (words >> np.uint64(11)).astype(np.float64)  # 53 random bits
    radius = np.sqrt(-2.0 * np.log((top[0] + 1.0) * 2.0**-53))
    angle = (2.0 * np.pi * 2.0**-53) * top[1]
    pairs = np.stack((radius * np.cos(angle), radius * np.sin(angle)), axis=-1)
    return std * pairs.reshape(rows.seeds.size, 2 * half)[:, :n]


def gaussian_vec(rng: RandomSource, n: int, std: float = 1.0) -> np.ndarray:
    """Draw an n-vector of independent centered Gaussians with the given std.

    The one-row case of `gaussian_rows`.
    """
    return gaussian_rows(RandomRows.of([rng]), n, std)[0]


def permutation(rng: RandomSource, n: int) -> np.ndarray:
    """Seeded permutation of range(n)."""
    if n < 0:
        raise ValueError(f"permutation needs n >= 0, got {n}")
    return rng.generator().permutation(n)


def as_mat(x, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float64 array or raise."""
    m = np.asarray(x, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name} has non-finite entries")
    return m


_SIMPLEX_TOL = 1e-12


def check_simplex(p: np.ndarray, name: str = "distribution") -> np.ndarray:
    """Validate that p lies on the probability simplex (along the last axis)."""
    p = np.asarray(p, dtype=np.float64)
    if p.shape[-1] < 1:
        raise ValueError(f"{name} must have at least one entry")
    if not np.isfinite(p).all():
        raise ValueError(f"{name} has non-finite entries")
    if (p < 0).any():
        raise ValueError(f"{name} has negative entries")
    if (np.abs(p.sum(axis=-1) - 1.0) > _SIMPLEX_TOL).any():
        raise ValueError(f"{name} does not sum to 1 within {_SIMPLEX_TOL}")
    return p


def log_sum_exp(v: np.ndarray) -> np.ndarray:
    """log(sum(exp(v))) along the last axis, stable under large shifts."""
    v = np.asarray(v, dtype=np.float64)
    m = np.max(v, axis=-1, keepdims=True)
    out = m[..., 0] + np.log(np.sum(np.exp(v - m), axis=-1))
    return out if out.ndim else float(out)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax along the last axis via the log-sum-exp shift.

    Output entries are strictly positive and sum to 1 to float64 accuracy;
    the result is invariant to adding a constant to all logits.
    """
    z = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise ValueError("softmax input has non-finite entries")
    e = np.exp(z - np.max(z, axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def frobenius_norm(mat: np.ndarray) -> float:
    """Square root of the sum of squared entries."""
    m = as_mat(mat, "frobenius_norm input")
    return float(np.sqrt(np.sum(m * m)))


def spectral_norm(mat: np.ndarray) -> float:
    """Largest singular value, exact to float64 rounding (LAPACK SVD).

    An empty matrix, with no rows or no columns, has norm 0.0.
    """
    return float(np.linalg.norm(as_mat(mat, "spectral_norm input"), 2))
