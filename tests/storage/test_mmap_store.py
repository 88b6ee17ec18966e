"""Tests for the memory-mapped XMS1 store backend."""

import json
import struct
import threading
import zlib

import pytest

from repro.storage.codec import PostingBlock, UnencodablePostings
from repro.storage.errors import (CorruptIndexError,
                                  IncompatibleIndexError, StorageError)
from repro.storage.mmap_store import (CONTAINER_VERSION, FILE_MAGIC,
                                      TRAILER_MAGIC, MmapStore,
                                      atomic_mmap_build,
                                      open_read_store,
                                      sniff_store_format,
                                      write_mmap_store)
from repro.storage.memory_store import MemoryStore
from repro.storage.sqlite_store import SQLiteStore

POSTINGS = [("0.1.2", 0.5), ("0.3", 1.0), ("2.0.1.4", 0.25)]
DOC = "<record><name>Jane Doe</name></record>"


@pytest.fixture
def store_path(tmp_path):
    path = str(tmp_path / "index.mm")
    with atomic_mmap_build(path) as writer:
        writer.put_postings("xrank", "diabetes", POSTINGS)
        writer.put_document(0, DOC)
        writer.put_document(7, "<other/>")
        writer.put_metadata("built_by", "test")
    return path


@pytest.fixture
def store(store_path):
    reader = MmapStore(store_path)
    yield reader
    reader.close()


class TestContract:
    def test_postings_round_trip(self, store):
        assert store.get_postings("xrank", "diabetes") == POSTINGS

    def test_unsorted_list_rejected_at_write(self, tmp_path):
        # Every list is an XPB1 block, so one the codec cannot pack is
        # refused when it is written, not stored in another form.
        with pytest.raises(UnencodablePostings):
            with atomic_mmap_build(str(tmp_path / "bad.mm")) as writer:
                writer.put_postings("xrank", "unsorted",
                                    list(reversed(POSTINGS)))
        assert not (tmp_path / "bad.mm").exists()

    def test_missing_keyword_is_empty(self, store):
        assert store.get_postings("xrank", "absent") == []
        assert store.get_postings("other", "diabetes") == []

    def test_posting_count_from_toc(self, store):
        assert store.posting_count("xrank", "diabetes") == 3
        assert store.posting_count("xrank", "absent") == 0

    def test_keywords(self, store):
        assert sorted(store.keywords("xrank")) == ["diabetes"]
        assert list(store.keywords("other")) == []

    def test_documents(self, store):
        assert store.get_document(0) == DOC
        assert list(store.document_ids()) == [0, 7]
        with pytest.raises(StorageError, match="no stored document 3"):
            store.get_document(3)

    def test_metadata(self, store):
        assert store.get_metadata("built_by") == "test"
        assert store.get_metadata("absent", "fallback") == "fallback"
        assert "built_by" in list(store.metadata_keys())

    def test_posting_block_is_lazy_and_exact(self, store):
        block = store.get_posting_block("xrank", "diabetes")
        assert isinstance(block, PostingBlock)
        assert block.encoded() == POSTINGS
        assert block.doc_max_scores() == {0: 1.0, 2: 0.25}


class TestImmutability:
    def test_all_writes_rejected(self, store):
        with pytest.raises(StorageError, match="immutable"):
            store.put_postings("xrank", "new", POSTINGS)
        with pytest.raises(StorageError, match="immutable"):
            store.put_document(9, "<x/>")
        with pytest.raises(StorageError, match="immutable"):
            store.delete_document(0)
        with pytest.raises(StorageError, match="immutable"):
            store.put_metadata("k", "v")

    def test_error_names_the_rebuild_path(self, store):
        with pytest.raises(StorageError, match="--store-format mmap"):
            store.put_postings("xrank", "new", POSTINGS)


class TestLifecycle:
    def test_closed_store_rejects_reads(self, store_path):
        reader = MmapStore(store_path)
        reader.close()
        with pytest.raises(StorageError, match="closed"):
            reader.get_postings("xrank", "diabetes")
        with pytest.raises(StorageError, match="closed"):
            reader.get_document(0)
        reader.close()  # idempotent

    def test_blocks_outlive_the_store(self, store_path):
        # A PostingBlock holds a memoryview into the mapping; closing
        # the store must not invalidate it (pages are released when the
        # last block is collected).
        reader = MmapStore(store_path)
        block = reader.get_posting_block("xrank", "diabetes")
        reader.close()
        assert block.encoded() == POSTINGS

    def test_atomic_build_publishes_nothing_on_failure(self, tmp_path):
        path = str(tmp_path / "failed.mm")
        with pytest.raises(RuntimeError):
            with atomic_mmap_build(path) as writer:
                writer.put_postings("xrank", "diabetes", POSTINGS)
                raise RuntimeError("build interrupted")
        assert not (tmp_path / "failed.mm").exists()
        assert not (tmp_path / "failed.mm.building").exists()

    def test_empty_build_round_trips(self, tmp_path):
        path = str(tmp_path / "empty.mm")
        with atomic_mmap_build(path):
            pass
        reader = MmapStore(path)
        try:
            assert list(reader.keywords("xrank")) == []
            assert list(reader.document_ids()) == []
        finally:
            reader.close()


class TestCorruption:
    def test_truncated_file(self, store_path, tmp_path):
        data = open(store_path, "rb").read()
        bad = tmp_path / "trunc.mm"
        bad.write_bytes(data[:len(data) // 2])
        with pytest.raises(CorruptIndexError, match="trailer|truncat"):
            MmapStore(str(bad))

    def test_toc_crc_flip(self, store_path, tmp_path):
        data = bytearray(open(store_path, "rb").read())
        toc_offset, = struct.unpack_from("<Q", data, len(data) - 16)
        data[toc_offset] ^= 0x01
        bad = tmp_path / "crc.mm"
        bad.write_bytes(bytes(data))
        with pytest.raises(CorruptIndexError, match="checksum"):
            MmapStore(str(bad))

    def test_container_version_mismatch(self, store_path, tmp_path):
        data = bytearray(open(store_path, "rb").read())
        struct.pack_into("<I", data, 4, CONTAINER_VERSION + 1)
        bad = tmp_path / "vers.mm"
        bad.write_bytes(bytes(data))
        with pytest.raises(IncompatibleIndexError, match="container v2"):
            MmapStore(str(bad))

    def test_damaged_posting_block_localized_by_report(self, store_path,
                                                       tmp_path):
        # Flip one byte inside the diabetes block's payload; the TOC
        # still checks out, so open succeeds -- block_report must name
        # the single damaged record.
        good = MmapStore(store_path)
        entry = good._postings["xrank"]["diabetes"]
        good.close()
        data = bytearray(open(store_path, "rb").read())
        data[entry[0] + 16] ^= 0xFF  # first payload byte of the block
        bad_path = tmp_path / "block.mm"
        bad_path.write_bytes(bytes(data))
        bad = MmapStore(str(bad_path))
        try:
            per_strategy, raw, problems = bad.block_report()
            assert raw == 0
            assert len(problems) == 1
            assert "diabetes" in problems[0]
        finally:
            bad.close()

    def test_clean_store_reports_no_problems(self, store):
        per_strategy, raw, problems = store.block_report()
        assert per_strategy == {"xrank": 1}
        assert raw == 0
        assert problems == []

    def test_raw_record_file_is_incompatible(self, store_path, tmp_path):
        # A file holding a retired raw JSON record kind is refused at
        # open with the rebuild command, not misread.
        data = open(store_path, "rb").read()
        toc_offset, _, _ = struct.unpack("<QI4s", data[-16:])
        toc = json.loads(data[toc_offset:-16])
        toc["postings"]["xrank"]["diabetes"][3] = "raw"
        encoded = json.dumps(toc, sort_keys=True,
                             separators=(",", ":")).encode("utf-8")
        old = tmp_path / "raw.mm"
        old.write_bytes(data[:toc_offset] + encoded + struct.pack(
            "<QI4s", toc_offset, zlib.crc32(encoded) & 0xFFFFFFFF,
            TRAILER_MAGIC))
        with pytest.raises(IncompatibleIndexError,
                           match="python -m repro index"):
            MmapStore(str(old))

    def test_not_an_mmap_file(self, tmp_path):
        bogus = tmp_path / "bogus.mm"
        bogus.write_bytes(b"not a store" * 10)
        with pytest.raises(CorruptIndexError, match="magic"):
            MmapStore(str(bogus))


class TestConcurrency:
    def test_many_threads_share_one_reader(self, store):
        errors = []

        def hammer():
            try:
                for _ in range(200):
                    assert store.get_postings("xrank", "diabetes") \
                        == POSTINGS
                    block = store.get_posting_block("xrank", "diabetes")
                    assert block.doc_max_scores() == {0: 1.0, 2: 0.25}
                    assert store.get_document(0) == DOC
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []

    def test_two_processes_worth_of_readers(self, store_path):
        # Two independent opens of one file (the N-serving-processes
        # shape, in-process): both see identical data, neither's close
        # disturbs the other.
        first = MmapStore(store_path)
        second = MmapStore(store_path)
        try:
            assert first.get_postings("xrank", "diabetes") \
                == second.get_postings("xrank", "diabetes")
            first.close()
            assert second.get_document(0) == DOC
        finally:
            first.close()
            second.close()


class TestDetection:
    def test_sniff(self, store_path, tmp_path):
        assert sniff_store_format(store_path) == "mmap"
        db = str(tmp_path / "index.db")
        sqlite = SQLiteStore(db)
        sqlite.put_postings("xrank", "kw", POSTINGS)
        sqlite.close()
        assert sniff_store_format(db) == "sqlite"
        assert sniff_store_format(str(tmp_path / "missing")) == "unknown"
        text = tmp_path / "plain.txt"
        text.write_text("hello")
        assert sniff_store_format(str(text)) == "unknown"

    def test_open_read_store_picks_backend(self, store_path, tmp_path):
        mm = open_read_store(store_path)
        try:
            assert isinstance(mm, MmapStore)
        finally:
            mm.close()
        db = str(tmp_path / "index.db")
        writer = SQLiteStore(db)
        writer.put_postings("xrank", "kw", POSTINGS)
        writer.close()
        reader = open_read_store(db)
        try:
            assert isinstance(reader, SQLiteStore)
            assert reader.get_postings("xrank", "kw") == POSTINGS
        finally:
            reader.close()


class TestConversion:
    def test_write_mmap_store_copies_everything(self, tmp_path):
        source = MemoryStore()
        source.put_postings("xrank", "a", POSTINGS)
        source.put_postings("relationships", "b", [("1.2", 0.5)])
        source.put_document(3, DOC)
        source.put_metadata("k", "v")
        path = str(tmp_path / "converted.mm")
        write_mmap_store(path, source, ["xrank", "relationships"])
        reader = MmapStore(path)
        try:
            assert reader.get_postings("xrank", "a") == POSTINGS
            assert reader.get_postings("relationships", "b") \
                == [("1.2", 0.5)]
            assert reader.get_document(3) == DOC
            assert reader.get_metadata("k") == "v"
        finally:
            reader.close()

    def test_trailer_is_last_sixteen_bytes(self, store_path):
        data = open(store_path, "rb").read()
        assert data[:4] == FILE_MAGIC
        assert data[-4:] == TRAILER_MAGIC
        toc_offset, crc, _ = struct.unpack("<QI4s", data[-16:])
        toc = data[toc_offset:-16]
        assert zlib.crc32(toc) & 0xFFFFFFFF == crc
        json.loads(toc)  # the TOC is plain canonical JSON
