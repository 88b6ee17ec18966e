"""Unit tests for the index stores (memory and SQLite)."""

import os

import pytest

from repro.storage.codec import UnencodablePostings
from repro.storage.interface import StorageError, canonical_dump
from repro.storage.memory_store import MemoryStore
from repro.storage.sqlite_store import SQLiteStore

POSTINGS = [("0.1.2", 0.5), ("0.3", 1.0), ("2.0.1.4", 0.25)]


@pytest.fixture(params=["memory", "sqlite", "sqlite-file"])
def store(request, tmp_path):
    if request.param == "memory":
        yield MemoryStore()
    elif request.param == "sqlite":
        with SQLiteStore() as sqlite_store:
            yield sqlite_store
    else:
        path = str(tmp_path / "index.db")
        with SQLiteStore(path) as sqlite_store:
            yield sqlite_store


class TestPostings:
    def test_roundtrip(self, store):
        store.put_postings("graph", "asthma", POSTINGS)
        assert store.get_postings("graph", "asthma") == POSTINGS

    def test_missing_keyword_is_empty(self, store):
        assert store.get_postings("graph", "nope") == []

    def test_replace_semantics(self, store):
        store.put_postings("graph", "asthma", POSTINGS)
        store.put_postings("graph", "asthma", POSTINGS[:1])
        assert store.get_postings("graph", "asthma") == POSTINGS[:1]

    def test_strategies_namespaced(self, store):
        store.put_postings("graph", "asthma", POSTINGS)
        store.put_postings("taxonomy", "asthma", POSTINGS[:1])
        assert len(store.get_postings("graph", "asthma")) == 3
        assert len(store.get_postings("taxonomy", "asthma")) == 1

    def test_keywords_listing(self, store):
        store.put_postings("graph", "a", POSTINGS)
        store.put_postings("graph", "b", POSTINGS)
        store.put_postings("taxonomy", "c", POSTINGS)
        assert sorted(store.keywords("graph")) == ["a", "b"]

    def test_posting_count(self, store):
        store.put_postings("graph", "asthma", POSTINGS)
        assert store.posting_count("graph", "asthma") == 3
        assert store.posting_count("graph", "nope") == 0

    def test_order_preserved(self, store):
        # Lists come back in the Dewey order they were written in; a
        # list out of that order cannot be encoded as a block and is
        # refused at write time, leaving the stored list untouched.
        store.put_postings("graph", "asthma", POSTINGS)
        with pytest.raises(UnencodablePostings):
            store.put_postings("graph", "asthma", list(reversed(POSTINGS)))
        assert store.get_postings("graph", "asthma") == POSTINGS


class TestDocuments:
    def test_roundtrip(self, store):
        store.put_document(3, "<doc/>")
        assert store.get_document(3) == "<doc/>"

    def test_missing_raises(self, store):
        with pytest.raises(StorageError):
            store.get_document(99)

    def test_ids_sorted(self, store):
        store.put_document(5, "<a/>")
        store.put_document(1, "<b/>")
        assert list(store.document_ids()) == [1, 5]

    def test_overwrite(self, store):
        store.put_document(1, "<a/>")
        store.put_document(1, "<b/>")
        assert store.get_document(1) == "<b/>"


class TestMetadata:
    def test_roundtrip(self, store):
        store.put_metadata("decay", "0.5")
        assert store.get_metadata("decay") == "0.5"

    def test_default(self, store):
        assert store.get_metadata("missing") is None
        assert store.get_metadata("missing", "x") == "x"

    def test_keys_listing(self, store):
        store.put_metadata("decay", "0.5")
        store.put_metadata("strategy", "graph")
        assert sorted(store.metadata_keys()) == ["decay", "strategy"]


class TestCanonicalDump:
    def test_backend_independent(self):
        memory, sqlite = MemoryStore(), SQLiteStore()
        for target in (memory, sqlite):
            target.put_postings("graph", "asthma", POSTINGS)
            target.put_document(0, "<doc/>")
            target.put_metadata("strategy", "graph")
        assert canonical_dump(memory, ["graph"]) == \
            canonical_dump(sqlite, ["graph"])
        sqlite.close()

    def test_insertion_order_independent(self):
        first, second = MemoryStore(), MemoryStore()
        first.put_postings("graph", "a", POSTINGS)
        first.put_postings("graph", "b", POSTINGS[:1])
        second.put_postings("graph", "b", POSTINGS[:1])
        second.put_postings("graph", "a", POSTINGS)
        assert canonical_dump(first, ["graph"]) == \
            canonical_dump(second, ["graph"])

    def test_detects_differences(self):
        first, second = MemoryStore(), MemoryStore()
        first.put_postings("graph", "a", POSTINGS)
        second.put_postings("graph", "a", POSTINGS[:1])
        assert canonical_dump(first, ["graph"]) != \
            canonical_dump(second, ["graph"])


class TestEngineRoundTrip:
    """build_index(store=...) → fresh engine → load_index → search must
    yield identical results on every backend, with the build metadata
    intact."""

    QUERIES = ("asthma medications", '"bronchial structure" theophylline',
               "theophylline temperature")

    @pytest.fixture(scope="class")
    def corpus_and_ontology(self):
        from repro.cda.sample import build_figure1_document
        from repro.ontology.snomed import build_core_ontology
        from repro.xmldoc.model import Corpus
        return (Corpus([build_figure1_document()]), build_core_ontology())

    def _engine(self, corpus_and_ontology):
        from repro import RELATIONSHIPS, XOntoRankEngine
        corpus, ontology = corpus_and_ontology
        return XOntoRankEngine(corpus, ontology, strategy=RELATIONSHIPS)

    @pytest.mark.parametrize("backend", ["memory", "sqlite"])
    def test_roundtrip_search_identical(self, corpus_and_ontology,
                                        backend, tmp_path):
        if backend == "memory":
            store = MemoryStore()
        else:
            store = SQLiteStore(str(tmp_path / "rt.db"))
        builder_engine = self._engine(corpus_and_ontology)
        index = builder_engine.build_index(store=store)
        assert len(index) > 0
        assert store.get_metadata("strategy") == "relationships"
        persisted = sum(1 for dil in index.lists.values() if dil)

        fresh = self._engine(corpus_and_ontology)
        assert fresh.load_index(store) == persisted
        # Vocabulary words are answered from the warmed cache: no
        # rebuild on the loaded path.
        loaded = fresh.search("asthma medications", k=10)
        built = builder_engine.search("asthma medications", k=10)
        assert fresh.cache_stats().misses == 0
        assert [(r.dewey, pytest.approx(r.score)) for r in built] == \
            [(r.dewey, r.score) for r in loaded]
        # Phrase queries (not in the vocabulary) rebuild identically.
        for query in self.QUERIES[1:]:
            built = builder_engine.search(query, k=10)
            loaded = fresh.search(query, k=10)
            assert [(r.dewey, pytest.approx(r.score)) for r in built] == \
                [(r.dewey, r.score) for r in loaded]
        store.close()

    def test_workers_shim_builds_the_same_index(self, corpus_and_ontology):
        """``build_index(workers=...)`` survives only for the benchmark
        harness; it is accepted and changes nothing."""
        plain_store, shim_store = MemoryStore(), MemoryStore()
        plain = self._engine(corpus_and_ontology).build_index(
            store=plain_store)
        shimmed = self._engine(corpus_and_ontology).build_index(
            store=shim_store, workers=1)
        assert plain.keywords() == shimmed.keywords()
        for key in plain.keywords():
            assert plain.lists[key].encoded() == \
                shimmed.lists[key].encoded(), key
        assert canonical_dump(plain_store, ["relationships"]) == \
            canonical_dump(shim_store, ["relationships"])


class TestSQLitePersistence:
    def test_survives_reopen(self, tmp_path):
        path = str(tmp_path / "persist.db")
        with SQLiteStore(path) as store:
            store.put_postings("graph", "asthma", POSTINGS)
            store.put_document(0, "<doc/>")
            store.put_metadata("strategy", "graph")
        assert os.path.exists(path)
        with SQLiteStore(path) as reopened:
            assert reopened.get_postings("graph", "asthma") == POSTINGS
            assert reopened.get_document(0) == "<doc/>"
            assert reopened.get_metadata("strategy") == "graph"
