"""IndexManager lifecycle: fingerprint memoization, validated loads,
and the engine facade's lazily-shared components."""

from __future__ import annotations

import pytest

from repro.cda.sample import build_figure1_document
from repro.core.index import manager as manager_module
from repro.core.index.manager import memoized_corpus_fingerprint
from repro.core.obs import Tracer
from repro.core.query.engine import XOntoRankEngine, build_engines
from repro.core.stats import INTEGRITY_VALIDATIONS, StatsRegistry
from repro.storage.memory_store import MemoryStore
from repro.xmldoc.model import Corpus


@pytest.fixture()
def corpus():
    """A fresh corpus object per test -- the fingerprint memo is keyed
    by object identity, so sharing the session corpus would leak warm
    memo entries between tests."""
    return Corpus([build_figure1_document()])


@pytest.fixture()
def count_serializations(monkeypatch):
    """Count document serializations inside the manager module."""
    calls = []
    real = manager_module.serialize

    def counting(document, *args, **kwargs):
        calls.append(document)
        return real(document, *args, **kwargs)

    monkeypatch.setattr(manager_module, "serialize", counting)
    return calls


class TestFingerprintMemo:
    def test_serializes_at_most_once(self, corpus,
                                     count_serializations):
        first = memoized_corpus_fingerprint(corpus)
        assert len(count_serializations) == len(corpus)
        second = memoized_corpus_fingerprint(corpus)
        assert second == first
        assert len(count_serializations) == len(corpus)  # no re-walk

    def test_invalidated_when_corpus_changes(self, corpus,
                                             count_serializations):
        before = memoized_corpus_fingerprint(corpus)
        document = build_figure1_document()
        document.doc_id = 1
        corpus.add(document)
        after = memoized_corpus_fingerprint(corpus)
        assert after != before
        assert len(count_serializations) == 1 + 2  # full re-walk

    def test_build_seeds_the_memo(self, corpus, count_serializations):
        """The build path serializes every document to persist it; the
        memo is seeded from those texts, so the subsequent validated
        load serializes nothing."""
        store = MemoryStore()
        engine = XOntoRankEngine(corpus, strategy="xrank")
        engine.build_index(vocabulary={"asthma"}, store=store)
        builds = len(count_serializations)
        loader = XOntoRankEngine(corpus, strategy="xrank")
        loader.load_index(store, validate=True)
        assert len(count_serializations) == builds  # memo hit
        assert loader.stats.value(INTEGRITY_VALIDATIONS) == 1

    def test_repeated_loads_validate_without_serializing(
            self, corpus, count_serializations):
        store = MemoryStore()
        XOntoRankEngine(corpus, strategy="xrank").build_index(
            vocabulary={"asthma"}, store=store)
        loader = XOntoRankEngine(corpus, strategy="xrank")
        loader.load_index(store)
        marker = len(count_serializations)
        loader.load_index(store)
        loader.load_index(store)
        assert len(count_serializations) == marker
        assert loader.stats.value(INTEGRITY_VALIDATIONS) == 3


class TestValidatedOnce:
    def test_attach_then_warm_validates_each_shard_once(self, corpus):
        """The ``serve`` start-up sequence: attach read-through
        (validates), then warm with ``validate=False``."""
        from repro.core.query.federated import FederatedEngine
        document = build_figure1_document()
        document.doc_id = 1
        corpus.add(document)
        stores = [MemoryStore(), MemoryStore()]
        FederatedEngine(corpus, strategy="xrank", shards=2).build_index(
            vocabulary={"asthma"}, stores=stores)
        server = FederatedEngine(corpus, strategy="xrank", shards=2)
        server.attach_read_stores(stores)
        assert server.load_index(stores, validate=False) > 0
        assert server.stats.value(INTEGRITY_VALIDATIONS) == 2

    def test_the_logical_view_is_resolved_once_per_entry(
            self, corpus, monkeypatch):
        """Validation and reads share one logical view of the store;
        ``load_index`` and ``attach_read_store`` used to resolve it
        twice each (once to validate, once to read)."""
        calls = []
        real = manager_module.segment_view
        monkeypatch.setattr(
            manager_module, "segment_view",
            lambda store: calls.append(store) or real(store))
        store = MemoryStore()
        XOntoRankEngine(corpus, strategy="xrank").build_index(
            vocabulary={"asthma"}, store=store)
        engine = XOntoRankEngine(corpus, strategy="xrank")
        engine.load_index(store)
        engine.attach_read_store(store)
        assert calls == [store, store]


class TestEngineFacade:
    def test_search_naive_reuses_one_evaluator(self, corpus):
        engine = XOntoRankEngine(corpus, strategy="xrank")
        assert engine._naive_evaluator is None
        first = engine.search_naive("asthma", k=5)
        evaluator = engine._naive_evaluator
        assert evaluator is not None
        second = engine.search_naive("asthma", k=5)
        assert engine._naive_evaluator is evaluator
        assert [(r.dewey, r.score) for r in first] == \
            [(r.dewey, r.score) for r in second]

    def test_facade_views_delegate_to_manager(self, corpus):
        engine = XOntoRankEngine(corpus, strategy="xrank")
        assert engine.builder is engine.index_manager.builder
        assert engine.dil_cache is engine.index_manager.dil_cache
        assert [stage.name for stage in engine.pipeline.stages] == \
            ["parse", "dil_fetch", "merge", "rank"]


class TestBuildEngines:
    def test_threads_shared_tracer_and_stats(self, corpus,
                                             core_ontology):
        tracer = Tracer()
        stats = StatsRegistry()
        engines = build_engines(corpus, core_ontology, tracer=tracer,
                                stats=stats)
        for engine in engines.values():
            assert engine.stats is stats
            assert engine.tracer is tracer
        assert tracer.registry is stats
        for engine in engines.values():
            engine.search("asthma", k=3)
        timer = stats.timers().get("query.search")
        assert timer is not None and timer.count == len(engines)

    def test_defaults_to_private_registries(self, corpus,
                                            core_ontology):
        engines = build_engines(corpus, core_ontology)
        registries = [engine.stats for engine in engines.values()]
        assert len({id(registry) for registry in registries}) == \
            len(registries)
