"""Counter-based deterministic random streams.

Every random draw in the package flows through :class:`Rng`, a splitmix64
counter generator: draw ``i`` of a stream is ``mix(seed + (i+1) * gamma)``.
The stream therefore depends only on ``(seed, counter)``, is identical
across platforms, and supports cheap independent substreams keyed by an
integer (used to give each generated order its own stream). Standard-library
and numpy generators are deliberately not used on data paths.
"""

import numpy as np

_MASK64 = (1 << 64) - 1
# splitmix64 constants (Steele, Lea & Flood's mixer).
SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
# Distinct odd constant for deriving substream seeds so that a substream
# never replays a contiguous window of its parent stream.
_SPAWN_GAMMA = 0xD1342543DE82EF95
# Words per block of a large uniform draw: its temporaries stay this size.
_BLOCK = 1 << 14


def mix64(z: np.ndarray) -> np.ndarray:
    """Finalize an array of uint64 words (any shape), modulo 2**64, in place
    on its own copy: ``z`` is left unchanged."""
    z = np.array(z, dtype=np.uint64)
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        z ^= z >> np.uint64(shift)
        z *= np.uint64(mult)
    z ^= z >> np.uint64(31)
    return z


def unit_floats(words: np.ndarray, out=None) -> np.ndarray:
    """Uniform floats in [0, 1) from uint64 words: the top 53 bits times
    2**-53, into ``out`` if given. Shifts ``words`` in place."""
    words >>= np.uint64(11)
    return np.multiply(words, 2.0**-53, out=out)


def splitmix64(seed, counters: np.ndarray) -> np.ndarray:
    """Stream words mix64(seed + (counter+1) * gamma) for an array of counters;
    an array of seeds broadcasts against them."""
    counters = np.asarray(counters, dtype=np.uint64)
    return mix64(np.uint64(seed) + (counters + np.uint64(1)) * np.uint64(SPLITMIX_GAMMA))


def splitmix64_block(seeds: np.ndarray, n_cols: int) -> np.ndarray:
    """Row i holds the first ``n_cols`` stream words of ``seeds[i]``, so a
    batch of substreams can be filled in one call."""
    return splitmix64(np.asarray(seeds, dtype=np.uint64)[:, None], np.arange(n_cols))


def derive_seeds(seed: int, keys) -> np.ndarray:
    """Mix a parent seed with integer keys into substream seeds (vectorized)."""
    keys = np.asarray(keys, dtype=np.int64).astype(np.uint64)
    z = np.uint64(seed & _MASK64) + (keys + np.uint64(1)) * np.uint64(_SPAWN_GAMMA)
    return mix64(z + np.uint64(SPLITMIX_GAMMA))


def derive_seed(seed: int, key: int) -> int:
    """Scalar form of :func:`derive_seeds`."""
    return int(derive_seeds(seed, np.array([key]))[0])


class Rng:
    """Deterministic stream of draws; equal seeds give bit-equal streams."""

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self.counter = 0

    def raw(self, n: int) -> np.ndarray:
        """Next ``n`` raw uint64 words of the stream."""
        counters = np.arange(self.counter, self.counter + n, dtype=np.uint64)
        self.counter += n
        return splitmix64(self.seed, counters)

    def uniform(self, low=0.0, high=1.0, size=None):
        """Uniform float64 draws in [low, high), filled ``_BLOCK`` stream
        words at a time."""
        n = 1 if size is None else int(np.prod(size))
        out = np.empty(n)
        for i in range(0, n, _BLOCK):
            u = unit_floats(self.raw(min(_BLOCK, n - i)), out=out[i:i + _BLOCK])
            u *= high - low
            u += low
        if size is None:
            return float(out[0])
        return out.reshape(size)

    def normal(self, mean=0.0, sd=1.0, size=None):
        """Gaussian draws via Box-Muller; consumes 2*ceil(n/2) raw words."""
        n = 1 if size is None else int(np.prod(size))
        pairs = (n + 1) // 2
        u = unit_floats(self.raw(2 * pairs))
        # u1 in (0, 1] so the log is finite (each sum is exact); u2 in [0, 1).
        u1, u2 = u[:pairs] + 2.0**-53, u[pairs:]
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
        out = mean + sd * z
        if size is None:
            return float(out[0])
        return out.reshape(size)

    def integers(self, high: int, size=None):
        """Integer draws in [0, high). Bias is < 2**-53 * high, negligible
        for the data-generation ranges used here."""
        n = 1 if size is None else int(np.prod(size))
        out = np.floor(unit_floats(self.raw(n)) * high).astype(np.int64)
        if size is None:
            return int(out[0])
        return out.reshape(size)

    def permutation(self, n: int) -> np.ndarray:
        """Uniform random permutation of range(n) (argsort of raw keys)."""
        return np.argsort(self.raw(n), kind="stable").astype(np.int64)

    def permutation_prefix(self, n: int, k: int) -> np.ndarray:
        """``permutation(n)[:k]`` for k >= 0 in O(n): the same ``raw(n)``
        keys, of which only the k smallest are sorted, ties by index."""
        if k < 0:
            raise ValueError(f"prefix length must be nonnegative, got {k}")
        keys = self.raw(n)
        if k >= n:
            return np.argsort(keys, kind="stable").astype(np.int64)
        if k == 0:
            return np.empty(0, dtype=np.int64)
        kth = np.partition(keys, k - 1)[k - 1]
        below = np.flatnonzero(keys < kth)
        ties = np.flatnonzero(keys == kth)[:k - below.size]
        picked = np.concatenate([below, ties])
        return picked[np.argsort(keys[picked], kind="stable")].astype(np.int64)

    def spawn(self, key: int) -> "Rng":
        """Independent substream keyed by an integer."""
        return Rng(derive_seed(self.seed, int(key)))
