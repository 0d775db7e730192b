"""Tests for the content-hash result cache."""

import numpy as np
import pytest

from repro.serve.cache import ResultCache, exact_key


def grid(seed, size=8):
    return np.random.default_rng(seed).integers(0, 3, size=(size, size)).astype(np.uint8)


class TestKeys:
    def test_exact_key_discriminates_content(self):
        assert exact_key(grid(0)) != exact_key(grid(1))
        assert exact_key(grid(0)) == exact_key(grid(0).copy())

    def test_exact_key_includes_shape(self):
        flat = np.zeros((2, 8), dtype=np.uint8)
        tall = np.zeros((8, 2), dtype=np.uint8)
        assert exact_key(flat) != exact_key(tall)

    def test_exact_key_handles_non_contiguous(self):
        g = grid(3, size=16)
        view = g[::2, ::2]
        assert exact_key(view) == exact_key(np.ascontiguousarray(view))


class TestResultCache:
    def test_roundtrip_and_counters(self):
        cache = ResultCache(max_bytes=1 << 20)
        key = cache.key(grid(0))
        assert cache.get(key) is None
        probs = np.array([0.1, 0.9], dtype=np.float32)
        cache.put(key, probs, score=1.5)
        entry = cache.get(key)
        np.testing.assert_array_equal(entry.probabilities, probs)
        assert entry.score == 1.5
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_put_copies_probabilities(self):
        cache = ResultCache()
        key = cache.key(grid(0))
        probs = np.array([0.5, 0.5], dtype=np.float32)
        cache.put(key, probs, score=0.0)
        probs[0] = -1.0
        assert cache.get(key).probabilities[0] == 0.5

    def test_lru_eviction_under_byte_budget(self):
        probs = np.zeros(16, dtype=np.float32)
        entry_cost = 16 * 4 + 16 + len(exact_key(grid(0)))
        cache = ResultCache(max_bytes=3 * entry_cost)
        keys = [cache.key(grid(seed)) for seed in range(4)]
        for key in keys[:3]:
            cache.put(key, probs, 0.0)
        cache.get(keys[0])  # refresh: keys[1] is now the LRU
        cache.put(keys[3], probs, 0.0)
        assert cache.get(keys[1]) is None  # evicted
        assert cache.get(keys[0]) is not None
        assert cache.get(keys[3]) is not None
        assert cache.evictions == 1
        assert cache.nbytes <= 3 * entry_cost

    def test_zero_budget_disables_storage(self):
        cache = ResultCache(max_bytes=0)
        key = cache.key(grid(0))
        cache.put(key, np.zeros(2, dtype=np.float32), 0.0)
        assert cache.get(key) is None
        assert len(cache) == 0

    def test_replacing_key_does_not_leak_bytes(self):
        cache = ResultCache(max_bytes=1 << 20)
        key = cache.key(grid(0))
        for _ in range(5):
            cache.put(key, np.zeros(8, dtype=np.float32), 0.0)
        assert len(cache) == 1
        assert cache.nbytes == 8 * 4 + 16 + len(key)

    def test_stats_dict(self):
        cache = ResultCache()
        cache.get(cache.key(grid(0)))
        stats = cache.stats()
        assert stats["misses"] == 1
        assert stats["entries"] == 0

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError):
            ResultCache(max_bytes=-1)
