"""Deterministic write counters: one SQLite transaction per write batch.

Every posting writer hands a whole namespace (or build shard) to
``put_postings_many``, every group of documents to
``put_documents_many`` and every group of metadata entries to
``put_metadata_many``, so a build or an append issues a fixed number of
COMMITs, whatever the documents and the vocabulary it writes; only a
compaction's grow, with the segments and tombstones it reclaims. The
OntoScore expansion cache writes a build's expansions back the same
way: one batch per build.
Compaction ends with ``reclaim_space`` and so never leaves the file
larger than it found it.

COMMITs are counted exactly with ``sqlite3``'s statement trace on the
store's connection: the counts are a function of the code and the
corpus, not of the machine.
"""

from __future__ import annotations

import os

import pytest

from repro.cli import main
from repro.core.config import RELATIONSHIPS
from repro.core.index.vocabulary import default_vocabulary
from repro.core.query.engine import XOntoRankEngine
from repro.core.stats import ONTOLOGY_CACHE_MISSES
from repro.storage import SQLiteStore, canonical_dump, load_catalog
from repro.xmldoc import Corpus

BASE_DOCS = 8
BATCH = 2
#: Tombstoned before the compaction, so the compaction has documents
#: to reclaim; the plain append -> compact flow, with none, is
#: :class:`TestPlainAppendThenCompact`.
REMOVED = 3
#: Seeds of the plain CLI append -> compact flow. Tier 1 runs the first
#: three; the incremental-differential CI job sets
#: ``COMPACT_FLOW_SEEDS=10``.
COMPACT_FLOW_SEEDS = range(
    1, int(os.environ.get("COMPACT_FLOW_SEEDS", "3")) + 1)


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


def build_commits(documents, synthetic_ontology, path, vocabulary=None):
    engine = XOntoRankEngine(Corpus(documents), synthetic_ontology,
                             strategy=RELATIONSHIPS)
    with SQLiteStore(str(path)) as store:
        counter = CommitCounter(store)
        engine.build_index(vocabulary=vocabulary, store=store)
        return counter.take()


class TestCommitCounts:
    def test_build_commits_do_not_grow_with_documents(
            self, lifecycle, cda_corpus, synthetic_ontology, tmp_path):
        """Marker, postings, documents, parameters, manifest, marker."""
        assert lifecycle["lists"] > 100
        assert lifecycle["build"] == 6
        documents = list(cda_corpus)[:BASE_DOCS]
        assert build_commits(documents[:2], synthetic_ontology,
                             tmp_path / "two.db") == lifecycle["build"]

    def test_build_commits_do_not_grow_with_vocabulary(
            self, cda_corpus, synthetic_ontology, tmp_path):
        documents = list(cda_corpus)[:BASE_DOCS]
        vocabulary = sorted(default_vocabulary(
            Corpus(documents), synthetic_ontology, RELATIONSHIPS))
        assert build_commits(documents, synthetic_ontology,
                             tmp_path / "small.db", vocabulary[:10]) == \
            build_commits(documents, synthetic_ontology,
                          tmp_path / "full.db", vocabulary)

    def test_ontology_cache_writes_back_once_per_build(
            self, cda_corpus, synthetic_ontology, tmp_path):
        """Descriptor, then every computed expansion in one batch --
        not one transaction per keyword. A warm build writes nothing,
        and both builds dump identically."""
        documents = list(cda_corpus)[:BASE_DOCS]
        dumps = []
        for mode in ("cold", "warm"):
            engine = XOntoRankEngine(Corpus(documents), synthetic_ontology,
                                     strategy=RELATIONSHIPS)
            with SQLiteStore(str(tmp_path / "cache.db")) as cache_store, \
                    SQLiteStore(str(tmp_path / f"{mode}.db")) as store:
                counter = CommitCounter(cache_store)
                engine.attach_ontology_cache(cache_store)
                engine.build_index(store=store)
                commits = counter.take()
                dumps.append(dump(store))
            misses = engine.stats.value(ONTOLOGY_CACHE_MISSES)
            if mode == "cold":
                assert misses > 100
                assert commits <= 3
            else:
                assert misses == 0
                assert commits == 0
        assert dumps[0] == dumps[1]

    def test_append_commits_per_batch(self, lifecycle):
        """Postings, documents, catalog -- plus, on the first append,
        the catalog that adopts the base build as segment 0."""
        for commits in lifecycle["appends"]:
            assert commits <= 5

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


class TestPlainAppendThenCompact:
    """The CLI flow ``tests/golden/cli_default_shards.txt`` runs -- 4
    patients indexed, 2 appended, compacted, no document removed --
    gives bytes back: each list's runs land in one block, and the
    dropped segment's rows go."""

    @pytest.mark.parametrize("seed", COMPACT_FLOW_SEEDS)
    def test_compact_shrinks_the_file(self, seed, tmp_path, capsys):
        data, store = str(tmp_path / "data"), str(tmp_path / "idx.db")
        for patients in ("4", "6"):
            assert main(["generate", "--out", data, "--patients",
                         patients, "--seed", str(seed)]) == 0
            extra = ["--append"] if patients == "6" else []
            assert main(["index", "--data", data, "--store", store]
                        + extra) == 0
        before = os.path.getsize(store)
        assert main(["compact", "--store", store]) == 0
        assert os.path.getsize(store) < before
        capsys.readouterr()
