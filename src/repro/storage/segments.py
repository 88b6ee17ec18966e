"""LSM-style segment bookkeeping for incrementally grown indexes.

An incrementally maintained index is a stack of *immutable segments*:
the base build is segment 0 (living in the plain strategy namespace),
every append writes a fresh segment into its own posting namespace
(``<strategy>.seg000001``, ...), and deletions only mark documents dead
(*tombstones*). One metadata entry -- the **catalog** under
:data:`CATALOG_KEY` -- is the single atomic commit point: it lists the
live segments, their document sets and per-segment checksums, and the
set of live document ids. All posting and document rows of a mutation
land *before* the catalog is rewritten, so a crash at any point leaves
the previous catalog in force and the half-written rows invisible
(orphans, reported by ``verify-index`` and reclaimed by compaction).

The *logical* index -- what queries, checksums and
:func:`~repro.storage.interface.canonical_dump` see -- is the
newest-wins merge of the live segments with tombstoned documents
masked, presented by :class:`SegmentView` under the plain strategy
name. The merge works on whole document runs: each live document's
run is copied, bytes and directory entry, from the newest segment whose
block holds the document (:func:`~repro.storage.codec.splice_runs`),
and no posting is decoded. Re-adding a document requires identical
content, so this equals a newest-wins merge per Dewey ID. Two stores
hold the same logical index iff their dumps are byte-identical,
whether they were grown segment by segment or built from scratch: the
incremental-vs-rebuild differential contract.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Iterable, Iterator

from .codec import PostingBlock, splice_runs
from .errors import CorruptIndexError, StorageError
from .interface import IndexStore
from .manifest import (CHECKSUM_KEY_PREFIX, CORPUS_FINGERPRINT_KEY,
                       corpus_fingerprint, postings_checksum)

#: The catalog's metadata key -- the one entry whose rewrite commits a
#: mutation. Everything else written by an append/remove/compact is
#: unreachable until the catalog names it.
CATALOG_KEY = "segments.catalog"

#: Format version of the catalog payload itself.
CATALOG_VERSION = 1


def segment_namespace(strategy: str, segment_id: int) -> str:
    """Posting namespace of one segment.

    Segment 0 *is* the base build, so it keeps the plain strategy
    namespace -- a store that never mutates is indistinguishable from a
    classic full build.
    """
    if segment_id == 0:
        return strategy
    return f"{strategy}.seg{segment_id:06d}"


@dataclass(frozen=True)
class SegmentRecord:
    """One immutable segment: its namespace, documents and checksum."""

    segment_id: int
    namespace: str
    doc_ids: tuple[int, ...]
    checksum: str


@dataclass(frozen=True)
class SegmentCatalog:
    """The committed state of a segmented index."""

    strategy: str
    next_id: int
    live: tuple[int, ...]
    live_fingerprint: str
    segments: tuple[SegmentRecord, ...]

    @property
    def live_set(self) -> frozenset[int]:
        return frozenset(self.live)

    @property
    def tombstone_count(self) -> int:
        """Documents still held by some segment but no longer live."""
        held = {doc_id for record in self.segments
                for doc_id in record.doc_ids}
        return len(held - self.live_set)

    def segment_doc_ids(self) -> frozenset[int]:
        return frozenset(doc_id for record in self.segments
                         for doc_id in record.doc_ids)

    def with_segment(self, record: SegmentRecord,
                     live: Iterable[int],
                     live_fingerprint: str) -> "SegmentCatalog":
        return replace(
            self, next_id=max(self.next_id, record.segment_id + 1),
            live=tuple(sorted(live)), live_fingerprint=live_fingerprint,
            segments=self.segments + (record,))

    # ------------------------------------------------------------------
    def to_json(self) -> str:
        payload = {
            "version": CATALOG_VERSION,
            "strategy": self.strategy,
            "next_id": self.next_id,
            "live": list(self.live),
            "live_fingerprint": self.live_fingerprint,
            "segments": [{"id": record.segment_id,
                          "namespace": record.namespace,
                          "docs": list(record.doc_ids),
                          "checksum": record.checksum}
                         for record in self.segments],
        }
        return json.dumps(payload, sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_json(cls, raw: str) -> "SegmentCatalog":
        try:
            payload = json.loads(raw)
            if payload["version"] != CATALOG_VERSION:
                raise ValueError(
                    f"unsupported catalog version {payload['version']!r}")
            segments = tuple(
                SegmentRecord(segment_id=int(entry["id"]),
                              namespace=str(entry["namespace"]),
                              doc_ids=tuple(int(doc_id)
                                            for doc_id in entry["docs"]),
                              checksum=str(entry["checksum"]))
                for entry in payload["segments"])
            return cls(strategy=str(payload["strategy"]),
                       next_id=int(payload["next_id"]),
                       live=tuple(int(doc_id)
                                  for doc_id in payload["live"]),
                       live_fingerprint=str(payload["live_fingerprint"]),
                       segments=segments)
        except (KeyError, TypeError, ValueError) as exc:
            raise CorruptIndexError(
                f"segment catalog is unreadable: {exc}") from exc


def load_catalog(store: IndexStore) -> SegmentCatalog | None:
    """The committed catalog, or ``None`` for an unsegmented store."""
    raw = store.get_metadata(CATALOG_KEY)
    if raw is None:
        return None
    return SegmentCatalog.from_json(raw)


def save_catalog(store: IndexStore, catalog: SegmentCatalog) -> None:
    """THE commit point: one metadata write publishes the mutation."""
    store.put_metadata(CATALOG_KEY, catalog.to_json())


# ----------------------------------------------------------------------
# Newest-wins run merge
# ----------------------------------------------------------------------
def merged_block(store: IndexStore, catalog: SegmentCatalog,
                 keyword: str) -> PostingBlock | None:
    """One keyword's logical posting list: each live document's run
    taken from the newest segment holding it, tombstoned documents
    masked. ``None`` when no live document has a posting."""
    live = catalog.live_set
    blocks = []
    chosen: dict[int, tuple[PostingBlock, int]] = {}
    for record in reversed(catalog.segments):  # newest first
        block = store.get_posting_block(record.namespace, keyword)
        if block is None:
            continue
        blocks.append(block)
        for index, doc_id in enumerate(block.doc_ids()):
            if doc_id in live and doc_id not in chosen:
                chosen[doc_id] = (block, index)
    if not chosen:
        return None
    if len(blocks) == 1 and len(chosen) == blocks[0].doc_count:
        return blocks[0]  # one segment, nothing masked: as stored
    return PostingBlock(splice_runs(chosen[doc_id]
                                    for doc_id in sorted(chosen)))


def merged_keywords(store: IndexStore,
                    catalog: SegmentCatalog) -> list[str]:
    """Sorted union of the keywords held by any live segment (with
    tombstones, some may merge to an empty, hence absent, logical
    list)."""
    keywords: set[str] = set()
    for record in catalog.segments:
        keywords.update(store.keywords(record.namespace))
    return sorted(keywords)


def merged_lists(store: IndexStore, catalog: SegmentCatalog,
                 ) -> dict[str, PostingBlock]:
    """Every non-empty logical posting list, keyed by keyword."""
    lists: dict[str, PostingBlock] = {}
    for keyword in merged_keywords(store, catalog):
        block = merged_block(store, catalog, keyword)
        if block is not None:
            lists[keyword] = block
    return lists


# ----------------------------------------------------------------------
# The logical view
# ----------------------------------------------------------------------
class SegmentView(IndexStore):
    """Read-only logical view of a segmented store.

    Presents the newest-wins merge of the live segments under the plain
    strategy name, masks tombstoned documents, hides the catalog entry,
    and synthesizes the manifest checksum/fingerprint of the *logical*
    index -- so integrity checks and :func:`canonical_dump` compare a
    grown store against a from-scratch build without special cases.
    Posting namespaces of other strategies pass through untouched.
    """

    def __init__(self, inner: IndexStore,
                 catalog: SegmentCatalog) -> None:
        self._inner = inner
        self.catalog = catalog
        self._checksum: str | None = None
        self._fingerprint: str | None = None

    @property
    def inner(self) -> IndexStore:
        return self._inner

    def _read_only(self) -> StorageError:
        return StorageError(
            "SegmentView is read-only; mutate through the index "
            "lifecycle (add_documents / remove_documents / compact)")

    # ------------------------------------------------------------------
    def put_postings_many(
            self, strategy: str,
            items: Iterable[tuple[str, bytes | None]]) -> None:
        raise self._read_only()

    def get_posting_block(self, strategy: str, keyword: str,
                          ) -> PostingBlock | None:
        if strategy == self.catalog.strategy:
            return merged_block(self._inner, self.catalog, keyword)
        return self._inner.get_posting_block(strategy, keyword)

    def keywords(self, strategy: str) -> Iterator[str]:
        if strategy != self.catalog.strategy:
            yield from self._inner.keywords(strategy)
            return
        keywords = merged_keywords(self._inner, self.catalog)
        if not self.catalog.tombstone_count:
            # Every held document is live and stores hold no empty
            # list, so every held keyword has a live posting.
            yield from keywords
            return
        for keyword in keywords:
            if merged_block(self._inner, self.catalog,
                            keyword) is not None:
                yield keyword

    # ------------------------------------------------------------------
    def put_document(self, doc_id: int, xml_text: str) -> None:
        raise self._read_only()

    def get_document(self, doc_id: int) -> str:
        if doc_id not in self.catalog.live_set:
            raise StorageError(f"no stored document {doc_id}")
        return self._inner.get_document(doc_id)

    def document_ids(self) -> Iterator[int]:
        live = self.catalog.live_set
        return iter(sorted(doc_id
                           for doc_id in self._inner.document_ids()
                           if doc_id in live))

    def delete_document(self, doc_id: int) -> None:
        raise self._read_only()

    # ------------------------------------------------------------------
    def put_metadata(self, key: str, value: str) -> None:
        raise self._read_only()

    def get_metadata(self, key: str, default: str | None = None,
                     ) -> str | None:
        if key == CATALOG_KEY:
            return default
        if key == CHECKSUM_KEY_PREFIX + self.catalog.strategy:
            if self._checksum is None:
                self._checksum = postings_checksum(
                    merged_lists(self._inner, self.catalog))
            return self._checksum
        if key == CORPUS_FINGERPRINT_KEY:
            if self._fingerprint is None:
                self._fingerprint = corpus_fingerprint(
                    (doc_id, self._inner.get_document(doc_id))
                    for doc_id in self.document_ids())
            return self._fingerprint
        return self._inner.get_metadata(key, default)

    def metadata_keys(self) -> Iterator[str]:
        keys = set(self._inner.metadata_keys())
        keys.discard(CATALOG_KEY)
        keys.add(CHECKSUM_KEY_PREFIX + self.catalog.strategy)
        keys.add(CORPUS_FINGERPRINT_KEY)
        return iter(sorted(keys))

    # ------------------------------------------------------------------
    def close(self) -> None:
        self._inner.close()


def segment_view(store: IndexStore) -> IndexStore:
    """The logical view of a store: a :class:`SegmentView` when it
    holds a segment catalog, the store itself otherwise."""
    if isinstance(store, SegmentView):
        return store
    catalog = load_catalog(store)
    if catalog is None:
        return store
    return SegmentView(store, catalog)
