"""Unit tests for the bounded LRU DIL cache and its counters."""

import threading
import time

import pytest

from repro.core.cache import DILCache
from repro.core.config import RELATIONSHIPS, XOntoRankConfig
from repro.core.query.engine import XOntoRankEngine
from repro.core.stats import StatsRegistry
from repro.ir.tokenizer import Keyword


class TestLRUSemantics:
    def test_eviction_order_is_least_recently_used(self):
        cache = DILCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)  # evicts a (oldest)
        assert "a" not in cache
        assert cache.get("b") == 2
        assert cache.get("c") == 3

    def test_hit_refreshes_recency(self):
        cache = DILCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # a is now most recent
        cache.put("c", 3)  # evicts b, not a
        assert "a" in cache
        assert "b" not in cache

    def test_put_refreshes_recency(self):
        cache = DILCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # replace refreshes, no eviction
        cache.put("c", 3)  # evicts b
        assert cache.get("a") == 10
        assert "b" not in cache
        assert cache.stats().evictions == 1

    def test_capacity_never_exceeded(self):
        cache = DILCache(capacity=3)
        for value in range(50):
            cache.put(f"key-{value}", value)
            assert len(cache) <= 3
        assert cache.stats().evictions == 47

    def test_keys_in_recency_order(self):
        cache = DILCache(capacity=3)
        for key in ("a", "b", "c"):
            cache.put(key, key)
        cache.get("a")
        assert list(cache.keys()) == ["b", "c", "a"]


class TestCapacityModes:
    def test_capacity_zero_disables_caching(self):
        cache = DILCache(capacity=0)
        cache.put("a", 1)
        assert len(cache) == 0
        assert cache.get("a") is None
        stats = cache.stats()
        assert stats.misses == 1
        assert stats.evictions == 0

    def test_capacity_zero_get_or_build_always_builds(self):
        cache = DILCache(capacity=0)
        calls = []
        for _ in range(3):
            value = cache.get_or_build("a", lambda: calls.append(1) or 7)
        assert value == 7
        assert len(calls) == 3
        assert cache.stats().misses == 3

    def test_capacity_none_is_unbounded(self):
        cache = DILCache(capacity=None)
        for value in range(500):
            cache.put(value, value)
        assert len(cache) == 500
        assert cache.stats().evictions == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            DILCache(capacity=-1)


class TestCounters:
    def test_hit_miss_accounting(self):
        cache = DILCache(capacity=4)
        assert cache.get("a") is None  # miss
        cache.put("a", 1)
        assert cache.get("a") == 1  # hit
        assert cache.get("a") == 1  # hit
        assert cache.get("b") is None  # miss
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (2, 2)
        assert stats.lookups == 4
        assert stats.hit_rate == pytest.approx(0.5)

    def test_get_or_build_counts_miss_then_hits(self):
        cache = DILCache(capacity=4)
        assert cache.get_or_build("a", lambda: 1) == 1
        assert cache.get_or_build("a", lambda: 2) == 1
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)

    def test_counters_survive_clear(self):
        cache = DILCache(capacity=2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().hits == 1

    def test_shared_registry_and_render(self):
        registry = StatsRegistry()
        cache = DILCache(capacity=2, stats=registry, namespace="dc")
        cache.get("a")
        cache.put("a", 1)
        cache.get("a")
        assert registry.value("dc.hits") == 1
        assert registry.value("dc.misses") == 1
        assert "dc.hits=1" in registry.render()
        assert "hits=1" in cache.stats().render()

    def test_idle_hit_rate_is_zero(self):
        assert DILCache(capacity=1).stats().hit_rate == 0.0


class TestThreadSafety:
    def test_concurrent_mixed_operations(self):
        cache = DILCache(capacity=16)
        errors = []

        def worker(worker_id: int) -> None:
            try:
                for step in range(300):
                    key = (worker_id * 7 + step) % 40
                    if step % 3 == 0:
                        cache.put(key, key)
                    else:
                        value = cache.get(key)
                        assert value is None or value == key
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(n,))
                   for n in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(cache) <= 16
        stats = cache.stats()
        assert stats.hits + stats.misses == 8 * 200  # 2 of 3 steps read

    def test_concurrent_get_or_build_shares_one_value(self):
        cache = DILCache(capacity=8)
        barrier = threading.Barrier(6)
        seen = []

        def worker() -> None:
            barrier.wait()
            seen.append(cache.get_or_build("key", lambda: object()))

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Racing builders may construct several objects, but every
        # caller after the race resolves through the cache, which holds
        # exactly one.
        assert cache.get("key") in seen
        assert len(cache) == 1

    def test_losing_builder_never_replaces_the_winner(self):
        """Regression: the cold-build race must be first-insert-wins.

        The broken interleaving was: thread T1 misses, builds, re-checks
        under the lock (still absent), releases the lock, and only then
        inserts via ``put`` -- so a thread T2 that completed its own
        build-and-insert inside that window got its value *replaced*,
        leaving T1 and T2 holding distinct objects for the same key.

        The test forces exactly that interleaving by hooking the
        instance's ``put``: T1's first call parks there (after its
        under-lock re-check, before its insert) while the main thread
        completes a full ``get_or_build``. On the fixed code the hook
        never fires -- ``get_or_build`` inserts under one lock
        acquisition -- and the loop below falls through when T1's
        thread exits.
        """
        cache = DILCache(capacity=8)
        original_put = cache.put
        t1_at_put = threading.Event()
        t2_done = threading.Event()

        def parking_put(key, value):
            if not t1_at_put.is_set():
                t1_at_put.set()
                assert t2_done.wait(timeout=5.0)
            original_put(key, value)

        cache.put = parking_put
        t1_results = []
        thread = threading.Thread(
            target=lambda: t1_results.append(
                cache.get_or_build("key", object)))
        thread.start()
        while not t1_at_put.is_set() and thread.is_alive():
            time.sleep(0.001)
        t2_value = cache.get_or_build("key", object)
        t2_done.set()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        cache.put = original_put

        cached = cache.get("key")
        assert cached is t2_value
        assert cached is t1_results[0]


class TestEngineIntegration:
    @pytest.fixture()
    def bounded_engine(self, figure1_corpus, core_ontology):
        config = XOntoRankConfig(dil_cache_capacity=3)
        return XOntoRankEngine(figure1_corpus, core_ontology,
                               strategy=RELATIONSHIPS, config=config)

    def test_vocabulary_sweep_stays_bounded(self, bounded_engine):
        vocabulary = sorted(
            bounded_engine.build_index().keywords())
        assert len(bounded_engine.dil_cache) <= 3
        for word in vocabulary[:20]:
            bounded_engine.search(word, k=3)
            assert len(bounded_engine.dil_cache) <= 3

    def test_repeat_query_hits_cache(self, figure1_corpus, core_ontology):
        engine = XOntoRankEngine(figure1_corpus, core_ontology,
                                 strategy=RELATIONSHIPS)
        engine.search("asthma medications", k=3)
        misses_after_first = engine.cache_stats().misses
        engine.search("asthma medications", k=3)
        stats = engine.cache_stats()
        assert stats.misses == misses_after_first
        assert stats.hits >= 2

    def test_concurrent_dil_for_is_safe_and_deterministic(
            self, figure1_corpus, core_ontology):
        config = XOntoRankConfig(dil_cache_capacity=4)
        engine = XOntoRankEngine(figure1_corpus, core_ontology,
                                 strategy=RELATIONSHIPS, config=config)
        words = ("asthma", "medications", "temperature", "theophylline",
                 "disorder", "observation")
        reference = {
            word: engine.builder.build_keyword(
                Keyword.from_text(word))[0].encoded()
            for word in words}
        errors = []

        def worker(offset: int) -> None:
            try:
                for step in range(12):
                    word = words[(offset + step) % len(words)]
                    dil = engine.dil_for(Keyword.from_text(word))
                    assert dil.encoded() == reference[word]
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(n,))
                   for n in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(engine.dil_cache) <= 4

    @pytest.mark.parametrize("capacity", [3, None])
    def test_federated_capacity_sums_over_shards(self, cda_corpus,
                                                 synthetic_ontology,
                                                 capacity):
        """Every shard holds its own cache, so the aggregate reported
        one shard's capacity next to the summed size (``size=6
        capacity=3``); sizes and capacities must add up together."""
        from repro.core.query.federated import FederatedEngine
        engine = FederatedEngine(
            cda_corpus, synthetic_ontology, shards=2,
            config=XOntoRankConfig(dil_cache_capacity=capacity))
        for word in ("asthma", "amiodarone", "aspirin", "arrest",
                     "fever"):
            engine.search(word, k=3)
        stats = engine.cache_stats()
        if capacity is None:
            assert stats.capacity is None
        else:
            assert stats.capacity == 2 * capacity
            assert stats.size <= stats.capacity
            assert stats.size > capacity

    def test_federated_counters_are_not_multiplied_by_shards(
            self, cda_corpus, synthetic_ontology):
        """The shard caches count into the one registry the shards
        share; summing that shared counter once per shard reported
        ``misses=18`` next to ``dil_cache.misses=6`` on three shards."""
        from repro.core.query.federated import FederatedEngine
        engine = FederatedEngine(cda_corpus, synthetic_ontology,
                                 shards=3)
        engine.search("fever acetaminophen", k=3)
        engine.search("fever", k=3)
        stats = engine.cache_stats()
        # 2 keywords x 3 shards missed once; "fever" then hit 3 caches.
        assert (stats.hits, stats.misses, stats.evictions) == (3, 6, 0)
        assert stats.misses == engine.stats.value("dil_cache.misses")
        assert stats.hits == engine.stats.value("dil_cache.hits")
        assert stats.size == 6
