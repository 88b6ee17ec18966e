"""Unit tests for the segment catalog and the merged read view."""

from __future__ import annotations

import json

import pytest

from repro.storage import (CATALOG_KEY, MemoryStore, SegmentCatalog,
                           SegmentRecord, SegmentView, load_catalog,
                           save_catalog, segment_namespace,
                           segment_view)
from repro.storage.errors import CorruptIndexError, StorageError
from repro.storage.segments import merged_block, merged_keywords


def catalog_fixture():
    return SegmentCatalog(
        strategy="relationships", next_id=2, live=(1, 3),
        live_fingerprint="sha256:feed",
        segments=(
            SegmentRecord(0, "relationships", (1, 2), "sha256:aa"),
            SegmentRecord(1, "relationships.seg000001", (3,),
                          "sha256:bb"),
        ))


class TestCatalog:
    def test_namespace_of_base_segment_is_plain(self):
        assert segment_namespace("relationships", 0) == "relationships"
        assert segment_namespace("relationships", 7) == \
            "relationships.seg000007"

    def test_json_round_trip(self):
        catalog = catalog_fixture()
        assert SegmentCatalog.from_json(catalog.to_json()) == catalog

    def test_store_round_trip(self):
        store = MemoryStore()
        save_catalog(store, catalog_fixture())
        assert load_catalog(store) == catalog_fixture()

    def test_missing_catalog_is_none(self):
        assert load_catalog(MemoryStore()) is None

    def test_garbage_and_wrong_version_rejected(self):
        with pytest.raises(CorruptIndexError):
            SegmentCatalog.from_json("not json at all {")
        payload = json.loads(catalog_fixture().to_json())
        payload["version"] = 99
        with pytest.raises(CorruptIndexError):
            SegmentCatalog.from_json(json.dumps(payload))

    def test_derived_sets(self):
        catalog = catalog_fixture()
        assert catalog.live_set == frozenset({1, 3})
        assert catalog.segment_doc_ids() == frozenset({1, 2, 3})
        assert catalog.tombstone_count == 1

    def test_with_segment_appends_and_bumps_next_id(self):
        catalog = catalog_fixture()
        record = SegmentRecord(2, "relationships.seg000002", (5,),
                               "sha256:cc")
        grown = catalog.with_segment(record, (1, 3, 5), "sha256:new")
        assert grown.next_id == 3
        assert grown.segments[-1] is record
        assert grown.live_set == frozenset({1, 3, 5})
        # The original is immutable and untouched.
        assert catalog.next_id == 2


class TestSegmentView:
    def build_segmented_store(self):
        store = MemoryStore()
        store.put_postings("relationships", "fever",
                           [("1.0", 0.5), ("2.0", 0.25)])
        store.put_postings("relationships.seg000001", "fever",
                           [("3.0", 0.75)])
        store.put_postings("relationships.seg000001", "pain",
                           [("3.1", 0.5)])
        for doc_id in (1, 2, 3):
            store.put_document(doc_id, f"<doc id='{doc_id}'/>")
        save_catalog(store, catalog_fixture())
        return store

    def test_merges_segments_and_masks_tombstones(self):
        store = self.build_segmented_store()
        view = segment_view(store)
        postings = view.get_postings("relationships", "fever")
        # Document 2 is tombstoned; documents 1 and 3 merge in Dewey
        # order across the two segment namespaces.
        assert postings == [("1.0", 0.5), ("3.0", 0.75)]
        assert list(view.keywords("relationships")) == ["fever",
                                                        "pain"]
        assert sorted(view.document_ids()) == [1, 3]

    def test_view_is_read_only_and_hides_catalog_key(self):
        view = segment_view(self.build_segmented_store())
        with pytest.raises(StorageError):
            view.put_postings("relationships", "x", [("1.0", 1.0)])
        with pytest.raises(StorageError):
            view.put_document(9, "<doc/>")
        with pytest.raises(StorageError):
            view.delete_document(1)
        assert CATALOG_KEY not in set(view.metadata_keys())

    def test_wrapping_is_idempotent_and_plain_stores_pass_through(self):
        store = self.build_segmented_store()
        view = segment_view(store)
        assert isinstance(view, SegmentView)
        assert segment_view(view) is view
        plain = MemoryStore()
        assert segment_view(plain) is plain

    def test_merge_prefers_newest_segment_for_readded_doc(self):
        # A document removed and re-added lives in two segments; the
        # newest segment's postings win and no duplicates surface.
        store = MemoryStore()
        store.put_postings("relationships", "fever", [("1.0", 0.5)])
        store.put_postings("relationships.seg000001", "fever",
                           [("1.0", 0.5)])
        store.put_document(1, "<doc id='1'/>")
        catalog = SegmentCatalog(
            strategy="relationships", next_id=2, live=(1,),
            live_fingerprint="sha256:feed",
            segments=(
                SegmentRecord(0, "relationships", (1,), "sha256:aa"),
                SegmentRecord(1, "relationships.seg000001", (1,),
                              "sha256:bb"),
            ))
        save_catalog(store, catalog)
        assert merged_block(store, catalog, "fever").encoded() == \
            [("1.0", 0.5)]
        assert list(merged_keywords(store, catalog)) == ["fever"]
