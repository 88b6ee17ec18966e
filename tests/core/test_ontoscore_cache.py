"""The persisted OntoScore expansion cache (the cache layer).

Two halves: unit coverage of :class:`OntoScoreCache` (hit/miss/
invalidation counters, epoch advance, the empty-expansion sentinel),
and the acceptance differential -- a cache-cold and a cache-warm
engine ``build_index`` must produce byte-identical ``canonical_dump``
output across Memory, SQLite and mmap backends, so the cache can never
change what gets built, only how fast.
"""

from __future__ import annotations

import pytest

from repro.core.config import (GRAPH, RELATIONSHIPS, XRANK,
                               XOntoRankConfig)
from repro.core.ontoscore import OntoScoreCache, expansion_params
from repro.core.query.engine import XOntoRankEngine
from repro.core.stats import (ONTOLOGY_CACHE_HITS,
                              ONTOLOGY_CACHE_INVALIDATIONS,
                              ONTOLOGY_CACHE_MISSES, StatsRegistry)
from repro.ir.tokenizer import Keyword
from repro.storage import (MemoryStore, MmapStore, SQLiteStore,
                           atomic_mmap_build, canonical_dump)

ASTHMA_KW = Keyword(("asthma",))
PHRASE_KW = Keyword(("cardiac", "arrest"), is_phrase=True)
SCORES = {"195967001": 1.0, "233604007": 0.25}


def _cache(store, fingerprint="fp-a", params=None, stats=None,
           strategy=RELATIONSHIPS):
    if params is None:
        params = expansion_params(XOntoRankConfig())
    return OntoScoreCache(store, fingerprint, strategy, params,
                          stats=stats)


class TestRoundTrip:
    def test_put_get_and_counters(self):
        stats = StatsRegistry()
        cache = _cache(MemoryStore(), stats=stats)
        assert cache.get(ASTHMA_KW) is None
        cache.put(ASTHMA_KW, SCORES)
        assert cache.get(ASTHMA_KW) == SCORES
        snapshot = stats.snapshot()
        assert snapshot[ONTOLOGY_CACHE_MISSES] == 1
        assert snapshot[ONTOLOGY_CACHE_HITS] == 1
        assert ONTOLOGY_CACHE_INVALIDATIONS not in snapshot

    def test_empty_expansion_is_cached_not_missed(self):
        stats = StatsRegistry()
        cache = _cache(MemoryStore(), stats=stats)
        cache.put(ASTHMA_KW, {})
        # {} round-trips as a *hit*: without the sentinel an empty
        # expansion would be recomputed on every build forever.
        assert cache.get(ASTHMA_KW) == {}
        assert stats.snapshot()[ONTOLOGY_CACHE_HITS] == 1
        assert ONTOLOGY_CACHE_MISSES not in stats.snapshot()

    def test_phrase_and_token_keys_are_distinct(self):
        cache = _cache(MemoryStore())
        single = Keyword(("cardiac arrest",))
        cache.put(PHRASE_KW, {"1": 1.0})
        cache.put(single, {"2": 1.0})
        assert cache.get(PHRASE_KW) == {"1": 1.0}
        assert cache.get(single) == {"2": 1.0}

    def test_put_is_buffered_until_flush(self):
        store = MemoryStore()
        cache = _cache(store)
        cache.put(ASTHMA_KW, SCORES)
        cache.put(PHRASE_KW, {})
        # The writer sees its own buffer; the store sees nothing yet.
        assert cache.get(ASTHMA_KW) == SCORES
        assert cache.get(PHRASE_KW) == {}
        assert _cache(store).get(ASTHMA_KW) is None
        cache.flush()
        reader = _cache(store)
        assert reader.get(ASTHMA_KW) == SCORES
        assert reader.get(PHRASE_KW) == {}

    def test_scores_survive_sqlite_reopen(self, tmp_path):
        path = str(tmp_path / "cache.db")
        cache = _cache(SQLiteStore(path))
        cache.put(ASTHMA_KW, SCORES)
        cache.close()
        reopened = _cache(SQLiteStore(path))
        assert not reopened.invalidated
        assert reopened.get(ASTHMA_KW) == SCORES


class TestInvalidation:
    def test_fresh_store_starts_at_epoch_one(self):
        stats = StatsRegistry()
        cache = _cache(MemoryStore(), stats=stats)
        assert cache.epoch == 1
        assert not cache.invalidated
        assert ONTOLOGY_CACHE_INVALIDATIONS not in stats.snapshot()

    def test_matching_descriptor_reattaches_warm(self):
        store = MemoryStore()
        first = _cache(store)
        first.put(ASTHMA_KW, SCORES)
        first.flush()
        second = _cache(store)
        assert not second.invalidated
        assert second.epoch == first.epoch
        assert second.get(ASTHMA_KW) == SCORES

    def test_fingerprint_mismatch_advances_epoch(self):
        store = MemoryStore()
        stats = StatsRegistry()
        first = _cache(store, fingerprint="fp-a")
        first.put(ASTHMA_KW, SCORES)
        first.flush()
        second = _cache(store, fingerprint="fp-b", stats=stats)
        assert second.invalidated
        assert second.epoch == first.epoch + 1
        # Stale entries live in the old epoch's namespace: unreachable.
        assert second.get(ASTHMA_KW) is None
        assert stats.snapshot()[ONTOLOGY_CACHE_INVALIDATIONS] == 1

    def test_params_mismatch_invalidates(self):
        store = MemoryStore()
        base = expansion_params(XOntoRankConfig())
        first = _cache(store, params=base)
        first.put(ASTHMA_KW, SCORES)
        first.flush()
        changed = dict(base, threshold=base["threshold"] / 2)
        second = _cache(store, params=changed)
        assert second.invalidated
        assert second.get(ASTHMA_KW) is None

    def test_strategies_are_independent_namespaces(self):
        store = MemoryStore()
        rel = _cache(store, strategy=RELATIONSHIPS)
        rel.put(ASTHMA_KW, SCORES)
        graph = _cache(store, strategy=GRAPH)
        assert not graph.invalidated  # no prior graph descriptor
        assert graph.get(ASTHMA_KW) is None
        assert rel.get(ASTHMA_KW) == SCORES


class TestEngineIntegration:
    def test_xrank_attach_returns_none(self, cda_corpus,
                                       synthetic_ontology):
        engine = XOntoRankEngine(cda_corpus, synthetic_ontology,
                                 strategy=XRANK)
        assert engine.attach_ontology_cache(MemoryStore()) is None

    def test_cold_then_warm_counters(self, cda_corpus,
                                     synthetic_ontology):
        cache_store = MemoryStore()
        cold = XOntoRankEngine(cda_corpus, synthetic_ontology,
                               strategy=RELATIONSHIPS)
        cold.attach_ontology_cache(cache_store)
        cold.build_index()
        cold_stats = cold.stats.snapshot()
        assert cold_stats[ONTOLOGY_CACHE_MISSES] > 0
        assert cold_stats.get(ONTOLOGY_CACHE_HITS, 0) == 0

        warm = XOntoRankEngine(cda_corpus, synthetic_ontology,
                               strategy=RELATIONSHIPS)
        warm.attach_ontology_cache(cache_store)
        warm.build_index()
        warm_stats = warm.stats.snapshot()
        assert warm_stats[ONTOLOGY_CACHE_HITS] \
            == cold_stats[ONTOLOGY_CACHE_MISSES]
        assert warm_stats.get(ONTOLOGY_CACHE_MISSES, 0) == 0


class TestColdWarmDifferential:
    """The acceptance gate: cache-warm and cache-cold builds are
    byte-identical through every backend."""

    @pytest.fixture(scope="class")
    def dumps(self, tmp_path_factory, cda_corpus, synthetic_ontology):
        root = tmp_path_factory.mktemp("onto_cache_diff")
        cache_store = MemoryStore()
        results = {}
        for mode in ("cold", "warm"):
            engine = XOntoRankEngine(cda_corpus, synthetic_ontology,
                                     strategy=RELATIONSHIPS)
            engine.attach_ontology_cache(cache_store)
            memory = MemoryStore()
            sqlite = SQLiteStore(str(root / f"{mode}.db"))
            mmap_path = str(root / f"{mode}.mm")
            with atomic_mmap_build(mmap_path) as writer:
                for store in (memory, sqlite, writer):
                    engine.build_index(store=store)
            mmap = MmapStore(mmap_path)
            for backend, store in (("memory", memory),
                                   ("sqlite", sqlite),
                                   ("mmap", mmap)):
                results[(mode, backend)] = canonical_dump(
                    store, [RELATIONSHIPS])
            mmap.close()
            sqlite.close()
            # The cold pass populated the shared cache store; the warm
            # pass must serve every expansion from it.
            snapshot = engine.stats.snapshot()
            if mode == "cold":
                assert snapshot[ONTOLOGY_CACHE_MISSES] > 0
            else:
                assert snapshot.get(ONTOLOGY_CACHE_MISSES, 0) == 0
                assert snapshot[ONTOLOGY_CACHE_HITS] > 0
        return results

    def test_all_six_dumps_identical(self, dumps):
        assert len(set(dumps.values())) == 1

    @pytest.mark.parametrize("backend", ("memory", "sqlite", "mmap"))
    def test_cold_equals_warm_per_backend(self, dumps, backend):
        assert dumps[("cold", backend)] == dumps[("warm", backend)]
