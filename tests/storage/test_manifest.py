"""Integrity manifest round-trips, tamper detection, and crash-safe
builds (interrupted at every write)."""

import os

import pytest

from repro import RELATIONSHIPS, XOntoRankEngine
from repro.cda.sample import build_figure1_document
from repro.ontology.snomed import build_core_ontology
from repro.storage.codec import PostingBlock, encode_postings
from repro.storage.errors import CorruptIndexError, StorageError
from repro.storage.faults import FaultInjectingStore
from repro.storage.manifest import (BUILD_COMPLETE_KEY,
                                    CHECKSUM_KEY_PREFIX,
                                    atomic_sqlite_build,
                                    corpus_fingerprint,
                                    manifest_strategies,
                                    postings_checksum, require_complete,
                                    store_checksum, verify_manifest)
from repro.storage.memory_store import MemoryStore
from repro.storage.sqlite_store import SQLiteStore
from repro.xmldoc.model import Corpus

VOCABULARY = {"asthma", "medications", "theophylline"}


@pytest.fixture(scope="module")
def corpus_and_ontology():
    return Corpus([build_figure1_document()]), build_core_ontology()


def make_engine(corpus_and_ontology) -> XOntoRankEngine:
    corpus, ontology = corpus_and_ontology
    return XOntoRankEngine(corpus, ontology, strategy=RELATIONSHIPS)


def built_store(corpus_and_ontology, store):
    make_engine(corpus_and_ontology).build_index(vocabulary=VOCABULARY,
                                                 store=store)
    return store


@pytest.fixture(params=["memory", "sqlite"])
def store(request, tmp_path, corpus_and_ontology):
    if request.param == "memory":
        yield built_store(corpus_and_ontology, MemoryStore())
    else:
        with SQLiteStore(str(tmp_path / "manifest.db")) as sqlite_store:
            yield built_store(corpus_and_ontology, sqlite_store)


class TestChecksums:
    def test_checksum_is_content_addressed(self):
        def block(postings):
            return PostingBlock(encode_postings(postings))

        lists = {"a": block([("0.1", 0.5)]), "b": block([("0.2", 1.0)])}
        assert postings_checksum(lists) == postings_checksum(dict(
            reversed(list(lists.items()))))
        assert postings_checksum(lists) != postings_checksum(
            {"a": block([("0.1", 0.5)])})

    def test_store_checksum_backend_independent(self, tmp_path,
                                                corpus_and_ontology):
        memory = built_store(corpus_and_ontology, MemoryStore())
        with SQLiteStore(str(tmp_path / "cmp.db")) as sqlite_store:
            built_store(corpus_and_ontology, sqlite_store)
            assert store_checksum(memory, RELATIONSHIPS) == \
                store_checksum(sqlite_store, RELATIONSHIPS)

    def test_fingerprint_order_free(self):
        docs = [(0, "<a/>"), (1, "<b/>")]
        assert corpus_fingerprint(docs) == \
            corpus_fingerprint(reversed(docs))
        assert corpus_fingerprint(docs) != \
            corpus_fingerprint([(0, "<a/>"), (1, "<c/>")])


class TestManifestRoundTrip:
    def test_built_store_verifies_clean(self, store):
        report = verify_manifest(store)
        assert report.ok, report.problems
        assert report.strategies == {RELATIONSHIPS: 3}
        assert report.documents == 1
        assert manifest_strategies(store) == [RELATIONSHIPS]
        require_complete(store)  # must not raise

    def test_describe_mentions_ok(self, store):
        lines = verify_manifest(store).describe()
        assert any("OK" in line for line in lines)

    def test_tampered_postings_detected(self, store):
        store.put_postings(RELATIONSHIPS, "asthma", [("0.9.9", 9.9)])
        report = verify_manifest(store)
        assert not report.ok
        assert any("checksum mismatch" in p for p in report.problems)

    def test_deleted_posting_list_detected(self, store):
        store.put_postings(RELATIONSHIPS, "asthma", [])
        assert not verify_manifest(store).ok

    def test_tampered_document_detected(self, store):
        store.put_document(0, "<tampered/>")
        report = verify_manifest(store)
        assert any("fingerprint" in p for p in report.problems)

    def test_unset_marker_detected(self, store):
        store.put_metadata(BUILD_COMPLETE_KEY, "0")
        assert not verify_manifest(store).ok
        with pytest.raises(CorruptIndexError):
            require_complete(store)

    def test_bare_store_fails_verification(self):
        bare = MemoryStore()
        bare.put_postings(RELATIONSHIPS, "asthma", [("0.1", 0.5)])
        report = verify_manifest(bare)
        assert not report.ok
        with pytest.raises(CorruptIndexError):
            require_complete(bare)


class TestInterruptedBuilds:
    """Kill the build after every possible write: the surviving store
    must never be accepted by load_index or verify_manifest."""

    def total_writes(self, corpus_and_ontology) -> int:
        counter = FaultInjectingStore(MemoryStore())
        built_store(corpus_and_ontology, counter)
        return counter.writes

    def test_every_cut_point_is_rejected(self, corpus_and_ontology):
        total = self.total_writes(corpus_and_ontology)
        assert total > 5
        for cut in range(total):
            wrapped = FaultInjectingStore(MemoryStore(),
                                          fail_after_writes=cut)
            with pytest.raises(StorageError):
                built_store(corpus_and_ontology, wrapped)
            survivor = wrapped.inner
            assert not verify_manifest(survivor).ok, f"cut at {cut}"
            with pytest.raises(CorruptIndexError):
                make_engine(corpus_and_ontology).load_index(survivor)

    def test_uninterrupted_build_is_accepted(self, corpus_and_ontology):
        total = self.total_writes(corpus_and_ontology)
        wrapped = FaultInjectingStore(MemoryStore(),
                                      fail_after_writes=total)
        built_store(corpus_and_ontology, wrapped)
        assert verify_manifest(wrapped.inner).ok
        loaded = make_engine(corpus_and_ontology).load_index(
            wrapped.inner)
        assert loaded == 3


class TestAtomicSQLiteBuild:
    def test_success_publishes_and_cleans_temp(self, tmp_path,
                                               corpus_and_ontology):
        path = str(tmp_path / "atomic.db")
        with atomic_sqlite_build(path) as store:
            built_store(corpus_and_ontology, store)
            assert not os.path.exists(path)  # nothing published yet
        assert os.path.exists(path)
        assert not os.path.exists(path + ".building")
        with SQLiteStore(path, read_only=True) as reopened:
            assert verify_manifest(reopened).ok

    def test_failure_leaves_no_file(self, tmp_path):
        path = str(tmp_path / "failed.db")
        with pytest.raises(RuntimeError, match="boom"):
            with atomic_sqlite_build(path) as store:
                store.put_metadata("partial", "1")
                raise RuntimeError("boom")
        assert not os.path.exists(path)
        assert not os.path.exists(path + ".building")

    def test_failure_preserves_previous_index(self, tmp_path,
                                              corpus_and_ontology):
        path = str(tmp_path / "stable.db")
        with atomic_sqlite_build(path) as store:
            built_store(corpus_and_ontology, store)
        checksum_key = CHECKSUM_KEY_PREFIX + RELATIONSHIPS
        with SQLiteStore(path, read_only=True) as before:
            original = before.get_metadata(checksum_key)
        with pytest.raises(RuntimeError):
            with atomic_sqlite_build(path) as store:
                store.put_metadata("junk", "1")
                raise RuntimeError("interrupted rebuild")
        with SQLiteStore(path, read_only=True) as after:
            assert after.get_metadata(checksum_key) == original
            assert after.get_metadata("junk") is None
            assert verify_manifest(after).ok

    def test_stale_temp_file_discarded(self, tmp_path,
                                       corpus_and_ontology):
        path = str(tmp_path / "fresh.db")
        with open(path + ".building", "w", encoding="utf-8") as handle:
            handle.write("stale garbage from a killed build")
        with atomic_sqlite_build(path) as store:
            built_store(corpus_and_ontology, store)
        with SQLiteStore(path, read_only=True) as reopened:
            assert verify_manifest(reopened).ok
