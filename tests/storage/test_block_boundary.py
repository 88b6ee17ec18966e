"""One posting representation at the store boundary.

Every backend stores XPB1 blocks and hands them back undecoded; the
merge of a segmented store splices document runs instead of decoding
postings; a block-backed list decodes each document run once; and a
store in the retired row-per-posting SQLite layout is a typed error
everywhere the CLI opens one.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro.cli import main
from repro.core.config import RELATIONSHIPS, XOntoRankConfig
from repro.core.query.engine import XOntoRankEngine
from repro.storage import (IncompatibleIndexError, MemoryStore,
                           PostingBlock, SQLiteStore, encode_triples,
                           segment_view)
from repro.xmldoc import Corpus

#: The SQLite layout before schema v2: one row per posting.
V1_SCHEMA = """
CREATE TABLE postings (
    strategy  TEXT NOT NULL,
    keyword   TEXT NOT NULL,
    position  INTEGER NOT NULL,
    dewey     TEXT NOT NULL,
    score     REAL NOT NULL,
    PRIMARY KEY (strategy, keyword, position)
);
CREATE TABLE documents (
    doc_id    INTEGER PRIMARY KEY,
    xml_text  TEXT NOT NULL
);
CREATE TABLE metadata (
    key       TEXT PRIMARY KEY,
    value     TEXT NOT NULL
);
INSERT INTO postings VALUES ('relationships', 'fever', 0, '0.1', 0.5);
INSERT INTO metadata VALUES ('manifest.build_complete', '1');
"""

REBUILD = "python -m repro index --data"


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("boundary-data"))
    assert main(["generate", "--out", directory, "--patients", "4",
                 "--seed", "3"]) == 0
    return directory


@pytest.fixture
def v1_store(tmp_path):
    path = str(tmp_path / "v1.db")
    connection = sqlite3.connect(path)
    connection.executescript(V1_SCHEMA)
    connection.close()
    return path


def _tables(path: str) -> set[str]:
    connection = sqlite3.connect(path)
    try:
        return {name for (name,) in connection.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'")}
    finally:
        connection.close()


class TestOldSqliteLayout:
    @pytest.mark.parametrize("read_only", [False, True])
    def test_open_is_a_typed_error_naming_the_rebuild(self, v1_store,
                                                      read_only):
        with pytest.raises(IncompatibleIndexError) as excinfo:
            SQLiteStore(v1_store, read_only=read_only)
        assert "schema v1" in str(excinfo.value)
        assert f"{REBUILD} DATA --store {v1_store}" in str(excinfo.value)
        # Refused before anything was written into it.
        assert _tables(v1_store) == {"postings", "documents", "metadata"}

    def test_search_degrades_or_fails_per_policy(self, data_dir,
                                                 v1_store, capsys):
        code = main(["search", "--data", data_dir, "--store", v1_store,
                     "fever", "-k", "2"])
        err = capsys.readouterr().err
        assert code in (0, 1)
        assert "warning: ignoring index store" in err
        assert "schema v1" in err and REBUILD in err
        code = main(["search", "--data", data_dir, "--store", v1_store,
                     "fever", "--strict"])
        err = capsys.readouterr().err
        assert code == 2
        assert "cannot use index store" in err and REBUILD in err

    def test_serve_refuses_to_start(self, data_dir, v1_store, capsys):
        code = main(["serve", "--data", data_dir, "--store", v1_store,
                     "--port", "0"])
        assert code == 2
        assert "schema v1" in capsys.readouterr().err

    def test_verify_index_fails(self, v1_store, capsys):
        assert main(["verify-index", "--store", v1_store]) == 1
        out = capsys.readouterr().out
        assert "verify-index: FAIL" in out and REBUILD in out

    def test_append_and_compact_refuse(self, data_dir, v1_store, capsys):
        assert main(["index", "--data", data_dir, "--store", v1_store,
                     "--append"]) == 2
        assert "schema v1" in capsys.readouterr().err
        assert main(["compact", "--store", v1_store]) == 2
        assert "schema v1" in capsys.readouterr().err
        assert _tables(v1_store) == {"postings", "documents", "metadata"}

    def test_old_ontology_cache_is_refused(self, data_dir, v1_store,
                                           tmp_path, capsys):
        code = main(["index", "--data", data_dir, "--store",
                     str(tmp_path / "idx.db"), "--ontology-cache",
                     v1_store])
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot use ontology cache" in err and "schema v1" in err

    def test_a_rebuild_replaces_it(self, data_dir, v1_store, capsys):
        assert main(["index", "--data", data_dir,
                     "--store", v1_store]) == 0
        assert main(["verify-index", "--store", v1_store]) == 0
        capsys.readouterr()


class TestVerifyIndexReadsSqliteBlocks:
    def test_flipped_byte_inside_a_blob_fails(self, data_dir, tmp_path,
                                              capsys):
        store = str(tmp_path / "idx.db")
        assert main(["index", "--data", data_dir, "--store", store]) == 0
        assert main(["verify-index", "--store", store]) == 0
        assert "blocks[relationships]: " in capsys.readouterr().out
        connection = sqlite3.connect(store)
        with connection:
            keyword, block = connection.execute(
                "SELECT keyword, block FROM posting_blocks "
                "ORDER BY keyword LIMIT 1").fetchone()
            damaged = bytearray(block)
            damaged[len(damaged) // 2] ^= 0x01
            connection.execute(
                "UPDATE posting_blocks SET block = ? WHERE keyword = ?",
                (bytes(damaged), keyword))
        connection.close()
        assert main(["verify-index", "--store", store]) == 1
        out = capsys.readouterr().out
        assert f"blocks: FAIL - stored posting list " \
               f"relationships/{keyword!r} is corrupt" in out
        assert "manifest: FAIL" in out


def _decodes(monkeypatch) -> list[int]:
    """Documents whose runs ``PostingBlock.doc_postings`` decodes."""
    decoded: list[int] = []
    original = PostingBlock.doc_postings

    def counted(self, doc_id):
        decoded.append(doc_id)
        return original(self, doc_id)

    monkeypatch.setattr(PostingBlock, "doc_postings", counted)
    return decoded


@pytest.fixture(scope="module")
def grown(cda_corpus, synthetic_ontology):
    """A segmented store: 6 documents built, 2 appended, 1 removed."""
    documents = list(cda_corpus)[:8]
    engine = XOntoRankEngine(Corpus(documents[:6]), synthetic_ontology,
                             strategy=RELATIONSHIPS)
    store = MemoryStore()
    engine.build_index(store=store)
    engine.add_documents(documents[6:8], store)
    engine.remove_documents([documents[1].doc_id], store)
    return documents, store


class TestRunSplice:
    def test_merged_blocks_equal_fresh_encodes(self, grown):
        _, store = grown
        view = segment_view(store)
        keywords = list(view.keywords(RELATIONSHIPS))
        assert len(keywords) > 100
        for keyword in keywords:
            block = view.get_posting_block(RELATIONSHIPS, keyword)
            assert block.to_bytes() == encode_triples(list(block.items()))

    def test_merge_decodes_no_posting(self, grown, monkeypatch):
        _, store = grown
        decoded = []
        original = PostingBlock._decode_run

        def counted(self, index):
            decoded.append(index)
            return original(self, index)

        monkeypatch.setattr(PostingBlock, "_decode_run", counted)
        view = segment_view(store)
        for keyword in list(view.keywords(RELATIONSHIPS)):
            view.get_posting_block(RELATIONSHIPS, keyword)
        assert decoded == []


class TestDecodeOnce:
    QUERY = "asthma theophylline"

    def _engine(self, grown, synthetic_ontology, capacity=None):
        documents, store = grown
        live = [document for document in documents
                if document.doc_id != documents[1].doc_id]
        config = XOntoRankConfig(dil_cache_capacity=capacity)
        engine = XOntoRankEngine(Corpus(live), synthetic_ontology,
                                 strategy=RELATIONSHIPS, config=config)
        engine.attach_read_store(store)
        return engine

    def test_cached_list_decodes_each_run_once(self, grown,
                                               synthetic_ontology,
                                               monkeypatch):
        engine = self._engine(grown, synthetic_ontology)
        decoded = _decodes(monkeypatch)
        first = engine.search(self.QUERY, k=5)
        runs = len(decoded)
        assert runs > 0
        assert engine.search(self.QUERY, k=5) == first
        assert len(decoded) == runs
        full = engine.search(self.QUERY)  # visits the pruned documents
        runs = len(decoded)
        assert engine.search(self.QUERY) == full
        assert len(decoded) == runs

    def test_evicted_list_takes_its_runs_along(self, grown,
                                               synthetic_ontology,
                                               monkeypatch):
        engine = self._engine(grown, synthetic_ontology, capacity=0)
        decoded = _decodes(monkeypatch)
        first = engine.search(self.QUERY, k=5)
        runs = len(decoded)
        assert engine.search(self.QUERY, k=5) == first
        assert len(decoded) == 2 * runs
