"""Chaos acceptance test: one shard failing 100% under concurrent load
must yield zero non-deadline errors -- every affected query either
succeeds degraded (shard omitted, visibly) or is shed -- and full
fidelity must resume after the breaker cooldown.

The service core is driven directly from plain threads (the asyncio
front-end only adds transport); the failing shard is a toggleable
100%-transient wrapper around its read store, and the breaker clock is
manual, so the whole trip/cooldown/recover cycle runs without sleeping.
"""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.config import XRANK, XOntoRankConfig
from repro.core.query.federated import FederatedEngine
from repro.core.query.results import SearchOutcome
from repro.core.stats import (SERVER_BREAKER_RESETS,
                              SERVER_BREAKER_TRIPS,
                              SERVER_DEGRADED_RESPONSES, StatsRegistry)
from repro.server import SearchService
from repro.storage.errors import TransientStorageError
from repro.storage.interface import IndexStore
from repro.storage.memory_store import MemoryStore

VOCABULARY = {"patient", "aspirin", "pain", "heart", "blood"}
QUERIES = sorted(VOCABULARY)
SHARDS = 2
#: A tiny capacity-0 cache forces every query through the read store,
#: so shard faults are visible at query time (the breaker's food).
CONFIG = XOntoRankConfig(dil_cache_capacity=0)


class ToggleFaultStore(IndexStore):
    """Delegating store whose reads fail 100% while ``failing``."""

    def __init__(self, inner: IndexStore) -> None:
        self._inner = inner
        self.failing = False
        self._lock = threading.Lock()
        self.faulted_reads = 0

    def _guard(self) -> None:
        if self.failing:
            with self._lock:
                self.faulted_reads += 1
            raise TransientStorageError("injected: shard store down")

    def get_posting_block(self, strategy, keyword):
        self._guard()
        return self._inner.get_posting_block(strategy, keyword)

    def keywords(self, strategy):
        self._guard()
        return self._inner.keywords(strategy)

    def posting_count(self, strategy, keyword):
        self._guard()
        return self._inner.posting_count(strategy, keyword)

    def put_postings_many(self, strategy, items):
        self._inner.put_postings_many(strategy, items)

    def put_document(self, doc_id, xml_text):
        self._inner.put_document(doc_id, xml_text)

    def get_document(self, doc_id):
        self._guard()
        return self._inner.get_document(doc_id)

    def document_ids(self):
        self._guard()
        return self._inner.document_ids()

    def delete_document(self, doc_id):
        self._inner.delete_document(doc_id)

    def put_metadata(self, key, value):
        self._inner.put_metadata(key, value)

    def get_metadata(self, key, default=None):
        self._guard()
        return self._inner.get_metadata(key, default)

    def metadata_keys(self):
        self._guard()
        return self._inner.metadata_keys()

    def close(self):
        self._inner.close()


class ManualClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture(scope="module")
def shard_stores(cda_corpus):
    """Per-shard persisted indexes of the test vocabulary."""
    builder_engine = FederatedEngine(cda_corpus, None, strategy=XRANK,
                                     shards=SHARDS)
    stores = [MemoryStore() for _ in range(SHARDS)]
    builder_engine.build_index(vocabulary=set(VOCABULARY),
                               stores=stores)
    return stores


def make_service(cda_corpus, shard_stores):
    """A fresh serving stack: read-through engine, toggleable shard 1,
    manual breaker clock."""
    stats = StatsRegistry()
    engine = FederatedEngine(cda_corpus, None, strategy=XRANK,
                             shards=SHARDS, config=CONFIG, stats=stats)
    toggle = ToggleFaultStore(shard_stores[1])
    engine.attach_read_stores([shard_stores[0], toggle])
    clock = ManualClock()
    service = SearchService(stats=stats, breaker_threshold=3,
                            breaker_cooldown=5.0, clock=clock)
    service.add_corpus("emr", engine)
    return service, engine, toggle, clock


class TestChaosAcceptance:
    def test_one_failing_shard_degrades_never_errors(self, cda_corpus,
                                                     shard_stores):
        service, engine, toggle, clock = make_service(cda_corpus,
                                                      shard_stores)

        # Phase 1 -- healthy: read-through serving is exact.
        baseline_full = {}
        baseline_degraded = {}
        for query in QUERIES:
            outcome = service.execute("emr", query, k=5)
            assert outcome.exact, f"healthy serving degraded: {query}"
            baseline_full[query] = outcome.results
            baseline_degraded[query] = engine.search_outcome(
                query, 5, skip_shards={1}).results

        # Phase 2 -- shard 1 fails 100% under concurrent load.
        toggle.failing = True
        jobs = [QUERIES[index % len(QUERIES)] for index in range(40)]

        def hit(query: str) -> tuple[str, SearchOutcome]:
            # No deadline: the only allowed failure mode would be
            # DeadlineExceeded, so nothing may raise here at all.
            return query, service.execute("emr", query, k=5)

        with ThreadPoolExecutor(max_workers=8) as pool:
            outcomes = list(pool.map(hit, jobs))

        for query, outcome in outcomes:
            # Zero non-deadline errors: every query succeeded, shard 1
            # visibly omitted, and what was served is exactly the
            # healthy shards' answer.
            assert outcome.degraded_shards == (1,)
            assert outcome.results == baseline_degraded[query]
        stats = service.stats
        assert stats.value(SERVER_BREAKER_TRIPS) >= 1
        assert stats.value(SERVER_DEGRADED_RESPONSES) >= len(jobs)
        assert toggle.faulted_reads >= 1

        # Once open, the breaker keeps load off the dead shard: more
        # queries add no store reads.
        faulted_before = toggle.faulted_reads
        for query in QUERIES:
            outcome = service.execute("emr", query, k=5)
            assert outcome.degraded_shards == (1,)
        assert toggle.faulted_reads == faulted_before

        # Phase 3 -- the shard recovers; after the cooldown the next
        # request is the probe and full fidelity resumes immediately.
        toggle.failing = False
        clock.now = 100.0
        outcome = service.execute("emr", QUERIES[0], k=5)
        assert outcome.degraded_shards == ()
        assert outcome.results == baseline_full[QUERIES[0]]
        assert stats.value(SERVER_BREAKER_RESETS) >= 1
        for query in QUERIES:  # and it stays healthy
            assert service.execute("emr", query,
                                   k=5).results == baseline_full[query]

    def test_unknown_corpus_raises_not_found(self, cda_corpus,
                                             shard_stores):
        service, _, _, _ = make_service(cda_corpus, shard_stores)
        from repro.server import UnknownCorpusError
        with pytest.raises(UnknownCorpusError):
            service.execute("nope", "patient", k=5)

    def test_single_engine_corpus_degrades_as_one_shard(self,
                                                        cda_corpus):
        # A plain engine is one breaker: repeated storage failures
        # yield degraded-empty answers, not exceptions.
        from repro.core.query.engine import XOntoRankEngine

        def exploding_run(*args, **kwargs):
            raise TransientStorageError("store down")

        stats = StatsRegistry()
        engine = XOntoRankEngine(cda_corpus, None, strategy=XRANK)
        engine.pipeline.run = exploding_run
        service = SearchService(stats=stats, breaker_threshold=2,
                                breaker_cooldown=5.0,
                                clock=ManualClock())
        service.add_corpus("solo", engine)
        for _ in range(5):
            outcome = service.execute("solo", "patient", k=3)
            assert outcome.results == []
            assert outcome.degraded_shards == (0,)
        assert stats.value(SERVER_BREAKER_TRIPS) == 1
