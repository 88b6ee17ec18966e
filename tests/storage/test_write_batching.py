"""Deterministic write counters: one SQLite transaction per write batch.

Every posting writer hands a whole namespace (or build shard) to
``put_postings_many`` and every group of metadata entries to
``put_metadata_many``, so the COMMITs a build, an append or a compaction
issues grow with the documents it writes and the commit points it has,
never with the vocabulary. Compaction ends with ``reclaim_space`` and
so never leaves the file larger than it found it.

COMMITs are counted exactly with ``sqlite3``'s statement trace on the
store's connection: the counts are a function of the code and the
corpus, not of the machine.
"""

from __future__ import annotations

import os

import pytest

from repro.core.config import RELATIONSHIPS
from repro.core.index.vocabulary import default_vocabulary
from repro.core.query.engine import XOntoRankEngine
from repro.storage import SQLiteStore, canonical_dump, load_catalog
from repro.xmldoc import Corpus

BASE_DOCS = 8
BATCH = 2
#: Tombstoned before the compaction. The merged segment's namespace
#: (``relationships.seg000003``) is longer than the base build's, and
#: SQLite repeats it on every posting row, so on a corpus this small it
#: takes a few reclaimed documents to outweigh that.
REMOVED = 3


class CommitCounter:
    """Counts the COMMIT statements one SQLite store executes."""

    def __init__(self, store: SQLiteStore) -> None:
        self.statements: list[str] = []
        store._connection.set_trace_callback(self.statements.append)

    def take(self) -> int:
        """COMMITs since the last call."""
        commits = sum(1 for statement in self.statements
                      if statement.strip().upper() == "COMMIT")
        self.statements.clear()
        return commits


def dump(store: SQLiteStore) -> bytes:
    return canonical_dump(store, [RELATIONSHIPS])


@pytest.fixture(scope="module")
def lifecycle(cda_corpus, synthetic_ontology, tmp_path_factory):
    """Build 8 documents, append two batches of 2, tombstone 3
    documents, compact -- recording COMMITs, file bytes and dumps."""
    documents = list(cda_corpus)
    assert len(documents) >= BASE_DOCS + 2 * BATCH
    engine = XOntoRankEngine(Corpus(documents[:BASE_DOCS]),
                             synthetic_ontology, strategy=RELATIONSHIPS)
    path = str(tmp_path_factory.mktemp("batching") / "index.db")
    facts: dict = {}
    with SQLiteStore(path) as store:
        counter = CommitCounter(store)
        index = engine.build_index(store=store)
        facts["build"] = counter.take()
        facts["lists"] = len(index)
        facts["appends"] = []
        for start in (BASE_DOCS, BASE_DOCS + BATCH):
            engine.add_documents(documents[start:start + BATCH], store)
            facts["appends"].append(counter.take())
        engine.remove_documents(
            [document.doc_id for document in documents[:REMOVED]], store)
        counter.take()
        catalog = load_catalog(store)
        facts["segments"] = len(catalog.segments)
        facts["tombstones"] = catalog.tombstone_count
        facts["dump_before"] = dump(store)
        facts["bytes_before"] = os.path.getsize(path)
        engine.compact(store)
        facts["compact"] = counter.take()
        facts["bytes_after"] = os.path.getsize(path)
        facts["dump_after"] = dump(store)
    facts["path"] = path
    return facts


class TestCommitCounts:
    def test_build_commits_per_document_not_per_keyword(self, lifecycle):
        assert lifecycle["lists"] > 100
        assert lifecycle["build"] <= BASE_DOCS + 16

    def test_build_commits_do_not_grow_with_vocabulary(
            self, cda_corpus, synthetic_ontology, tmp_path):
        def build_commits(vocabulary, name):
            engine = XOntoRankEngine(
                Corpus(list(cda_corpus)[:BASE_DOCS]), synthetic_ontology,
                strategy=RELATIONSHIPS)
            with SQLiteStore(str(tmp_path / name)) as store:
                counter = CommitCounter(store)
                engine.build_index(vocabulary=vocabulary, store=store)
                return counter.take()

        vocabulary = sorted(default_vocabulary(
            Corpus(list(cda_corpus)[:BASE_DOCS]), synthetic_ontology,
            RELATIONSHIPS))
        assert build_commits(vocabulary[:10], "small.db") == \
            build_commits(vocabulary, "full.db")

    def test_append_commits_per_document(self, lifecycle):
        for commits in lifecycle["appends"]:
            assert commits <= BATCH + 4

    def test_compact_commits_per_segment_and_tombstone(self, lifecycle):
        assert lifecycle["segments"] == 3
        assert lifecycle["tombstones"] == REMOVED
        assert lifecycle["compact"] <= (lifecycle["segments"]
                                        + lifecycle["tombstones"] + 6)


class TestCompactionReclaimsSpace:
    def test_file_does_not_grow_across_compact(self, lifecycle):
        assert lifecycle["bytes_after"] <= lifecycle["bytes_before"]

    def test_vacuum_leaves_the_logical_index_unchanged(self, lifecycle):
        assert lifecycle["dump_after"] == lifecycle["dump_before"]
        with SQLiteStore(lifecycle["path"]) as store:
            store.reclaim_space()
            assert dump(store) == lifecycle["dump_before"]
