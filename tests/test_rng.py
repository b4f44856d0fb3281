"""Deterministic counter-based stream contracts."""

import numpy as np
import pytest

from sebrange.rng import (
    _BLOCK,
    Rng,
    derive_seed,
    derive_seeds,
    mix64,
    splitmix64,
    splitmix64_block,
)

MASK = (1 << 64) - 1


def splitmix64_reference(seed, i):
    """Independent big-int implementation of the stream word."""
    z = (seed + (i + 1) * 0x9E3779B97F4A7C15) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def test_splitmix64_matches_bigint_reference():
    for seed in (0, 1, 42, 2**63 + 12345, MASK):
        got = splitmix64(seed, np.arange(20, dtype=np.uint64))
        expected = [splitmix64_reference(seed, i) for i in range(20)]
        assert [int(x) for x in got] == expected


def test_splitmix64_block_rows_match_streams():
    seeds = np.array([3, 999, 2**40], dtype=np.uint64)
    block = splitmix64_block(seeds, 17)
    for row, seed in zip(block, seeds):
        assert np.array_equal(row, splitmix64(int(seed), np.arange(17)))


def test_mix64_leaves_its_input_unchanged():
    z = np.arange(1, 40, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    before = z.copy()
    out = mix64(z)
    assert z.tobytes() == before.tobytes()
    assert [int(x) for x in out] == [splitmix64_reference(0, i) for i in range(39)]


def one_shot_uniform(seed, n, low, high):
    """``Rng(seed).uniform(low, high, size=(n,))`` as one formula over all n words."""
    u = (Rng(seed).raw(n) >> np.uint64(11)).astype(np.float64) * 2.0**-53
    return low + u * (high - low)


def test_uniform_in_blocks_matches_the_one_shot_formula():
    n = 3 * _BLOCK + 17
    # A glorot-style limit, as numpy floats, and plain Python bounds.
    limit = np.sqrt(6.0 / 16)
    for low, high in ((-limit, limit), (0.0, 1.0), (-2, 5)):
        want = one_shot_uniform(31, n, low, high)
        assert Rng(31).uniform(low, high, size=(n,)).tobytes() == want.tobytes()
        r = Rng(31)
        parts = [r.uniform(low, high, size=(k,)) for k in (5, _BLOCK, 2 * _BLOCK + 11)]
        assert np.concatenate(parts + [np.array([r.uniform(low, high)])]).tobytes() \
            == want.tobytes()
    table = Rng(31).uniform(-limit, limit, size=(n // 8, 8))
    assert table.tobytes() == one_shot_uniform(31, n // 8 * 8, -limit, limit).tobytes()


def test_integers_match_the_one_shot_formula():
    u = (Rng(8).raw(5000) >> np.uint64(11)).astype(np.float64) * 2.0**-53
    want = np.floor(u * 13).astype(np.int64)
    assert np.array_equal(Rng(8).integers(13, size=(5000,)), want)


def test_normal_matches_the_one_shot_formula():
    w = Rng(9).raw(2 * 2501)
    u1 = ((w[:2501] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53
    u2 = (w[2501:] >> np.uint64(11)).astype(np.float64) * 2.0**-53
    r, theta = np.sqrt(-2.0 * np.log(u1)), 2.0 * np.pi * u2
    want = 3.0 + 2.0 * np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:5001]
    assert Rng(9).normal(3.0, 2.0, size=(5001,)).tobytes() == want.tobytes()


def test_equal_seeds_bit_identical():
    a, b = Rng(12345), Rng(12345)
    assert np.array_equal(a.raw(1000), b.raw(1000))
    assert np.array_equal(a.normal(size=(100,)), b.normal(size=(100,)))
    assert np.array_equal(a.permutation(50), b.permutation(50))


def test_different_seeds_differ():
    assert not np.array_equal(Rng(1).raw(100), Rng(2).raw(100))


def test_stream_continues_across_calls():
    a = Rng(7)
    first = np.concatenate([a.raw(3), a.raw(5)])
    assert np.array_equal(first, Rng(7).raw(8))


def test_uniform_bounds_and_mean():
    u = Rng(3).uniform(size=(50_000,))
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.01
    lo_hi = Rng(4).uniform(-2.0, 5.0, size=(10_000,))
    assert lo_hi.min() >= -2.0 and lo_hi.max() < 5.0


def test_normal_moments():
    z = Rng(11).normal(3.0, 2.0, size=(100_000,))
    assert abs(z.mean() - 3.0) < 0.05
    assert abs(z.std() - 2.0) < 0.05


def test_integers_range():
    k = Rng(5).integers(7, size=(10_000,))
    assert k.min() >= 0 and k.max() < 7
    assert set(np.unique(k)) == set(range(7))


def test_permutation_is_permutation():
    p = Rng(9).permutation(128)
    assert sorted(p) == list(range(128))


def assert_prefix_matches(seed, n, k):
    full, prefix = Rng(seed), Rng(seed)
    expect = full.permutation(n)[:k]
    got = prefix.permutation_prefix(n, k)
    assert got.dtype == np.int64 and np.array_equal(got, expect)
    assert prefix.counter == full.counter
    assert np.array_equal(prefix.raw(4), full.raw(4))


@pytest.mark.parametrize("n", [0, 1, 2, 7, 300])
def test_permutation_prefix_is_permutation_head(n):
    for k in sorted({0, 1, n // 2, max(n - 1, 0), n, n + 1, n + 50}):
        assert_prefix_matches(n + k, n, k)


def test_permutation_prefix_keeps_tie_order(monkeypatch):
    # Keys from {0, 1, 2} tie everywhere; both must break ties by index.
    r = Rng(12)
    sizes = [(n, int(r.integers(n + 3))) for n in (1 + r.integers(60, size=(40,))).tolist()]
    raw = Rng.raw
    monkeypatch.setattr(Rng, "raw", lambda self, n: raw(self, n) % np.uint64(3))
    assert (Rng(5).raw(6) < 3).all()
    for seed, (n, k) in enumerate(sizes):
        assert_prefix_matches(seed, n, k)
    assert sum(0 < k < n for n, k in sizes) >= 20


def test_permutation_prefix_rejects_negative_length():
    with pytest.raises(ValueError):
        Rng(1).permutation_prefix(5, -1)


def test_spawn_streams_are_independent():
    base = Rng(100)
    s1 = base.spawn(0).raw(64)
    s2 = base.spawn(1).raw(64)
    assert not np.array_equal(s1, s2)
    # spawning does not consume from or disturb the parent stream
    assert np.array_equal(base.raw(8), Rng(100).raw(8))


def test_derive_seeds_vectorized_matches_scalar():
    keys = np.arange(20)
    vec = derive_seeds(42, keys)
    assert [int(v) for v in vec] == [derive_seed(42, int(k)) for k in keys]


def test_scalar_draw_shapes():
    r = Rng(1)
    assert isinstance(r.uniform(), float)
    assert isinstance(r.normal(), float)
    assert isinstance(r.integers(10), int)
