"""Persistent index storage interface (substitute for SQL Server 2000).

The paper's prototype used "Microsoft SQL Server 2000 for the persistent
storage of indexes". We define a small storage interface with three
backends: an in-memory store (fast, test-friendly), a SQLite store
(durable, inspectable with any SQLite client) and a read-only mmap
file. The Index Creation Module writes XOnto-DIL posting lists through
this interface; the Query Module reads them back.

A posting list crosses this boundary in one form only: a compact XPB1
block (:mod:`repro.storage.codec`), written as bytes and read back as a
lazily decoded :class:`~repro.storage.codec.PostingBlock` -- keeping
this layer independent of the core index structures.
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from typing import Iterable, Iterator, Sequence

from .codec import PostingBlock, encode_postings
from .errors import (CorruptIndexError, IncompatibleIndexError,
                     StorageError, TransientStorageError)

__all__ = ["CorruptIndexError", "EncodedPosting", "IncompatibleIndexError",
           "IndexStore", "StorageError", "TransientStorageError",
           "canonical_dump", "open_block"]

#: Encoded posting: (dotted-decimal Dewey ID, node score) -- the text
#: form :meth:`IndexStore.get_postings` renders for dumps and checks.
EncodedPosting = tuple[str, float]


def open_block(data, namespace: str, keyword: str) -> PostingBlock:
    """Parse a stored block; damage names the list it was read for."""
    try:
        return PostingBlock(data)
    except CorruptIndexError as exc:
        raise CorruptIndexError(
            f"stored posting list {namespace}/{keyword!r} is corrupt: "
            f"{exc}") from exc


class IndexStore(ABC):
    """Keyed storage of posting lists, documents and metadata.

    Posting lists are namespaced by *strategy* (``xrank``, ``graph``,
    ``taxonomy``, ``relationships``) so one store can hold the indexes
    of all four approaches side by side, as the experiments require.
    """

    # ------------------------------------------------------------------
    # Posting lists
    # ------------------------------------------------------------------
    @abstractmethod
    def put_postings_many(
            self, strategy: str,
            items: Iterable[tuple[str, bytes | None]]) -> None:
        """Store many posting lists of one strategy, each an XPB1
        block holding at least one posting (``None`` deletes the
        keyword's list).

        Transactional backends land the whole batch under one
        transaction -- the difference between hundreds and hundreds of
        thousands of lists per second. Every index writer (builds,
        segment appends, compaction) writes through here.
        """

    @abstractmethod
    def get_posting_block(self, strategy: str, keyword: str,
                          ) -> PostingBlock | None:
        """A keyword's posting list, undecoded; ``None`` when absent."""

    @abstractmethod
    def keywords(self, strategy: str) -> Iterator[str]:
        """All keywords with stored posting lists for a strategy."""

    def posting_count(self, strategy: str, keyword: str) -> int:
        """Number of postings, read from the block's directory."""
        block = self.get_posting_block(strategy, keyword)
        return 0 if block is None else block.posting_count

    def put_postings(self, strategy: str, keyword: str,
                     postings: Sequence[EncodedPosting]) -> None:
        """Store one list given as dotted ``(dewey, score)`` pairs
        (an empty list deletes). For tests and tools that hold Dewey
        text; index writers encode blocks themselves."""
        self.put_postings_many(
            strategy, [(keyword,
                        encode_postings(postings) if postings else None)])

    def get_postings(self, strategy: str, keyword: str,
                     ) -> list[EncodedPosting]:
        """A keyword's list rendered as dotted ``(dewey, score)``
        pairs; empty when the keyword is unknown. For dumps, checks
        and tools -- the query path reads blocks."""
        block = self.get_posting_block(strategy, keyword)
        return [] if block is None else block.encoded()

    def posting_namespaces(self) -> list[str]:
        """Every namespace holding a posting list. Backends that keep
        their own files answer; decorators and views do not."""
        raise NotImplementedError(
            f"{type(self).__name__} does not enumerate its namespaces")

    def block_report(self) -> tuple[dict[str, int], int, list[str]]:
        """Validate every stored posting block's own bytes.

        Returns ``(blocks per namespace, 0, problems)``; the middle
        slot counted raw records, a list form no backend stores any
        more. Each block is checked by reading it, which constructs its
        :class:`PostingBlock` (magic, version, crc32, directory, and on
        mmap the TOC's posting count). This is the per-block arm of
        ``verify-index``, complementary to the manifest's per-strategy
        SHA-256 (which checks *values*; this checks *bytes*, and
        localizes damage to one keyword).
        """
        per_namespace: dict[str, int] = {}
        problems: list[str] = []
        for namespace in sorted(self.posting_namespaces()):
            per_namespace[namespace] = 0
            for keyword in sorted(self.keywords(namespace)):
                try:
                    self.get_posting_block(namespace, keyword)
                except StorageError as exc:
                    problems.append(str(exc))
                else:
                    per_namespace[namespace] += 1
        return per_namespace, 0, problems

    def format_description(self) -> str:
        """One line naming the store's on-disk format."""
        return type(self).__name__

    # ------------------------------------------------------------------
    # Documents
    # ------------------------------------------------------------------
    @abstractmethod
    def put_document(self, doc_id: int, xml_text: str) -> None:
        """Store a document's serialized XML."""

    def put_documents_many(self,
                           items: Iterable[tuple[int, str]]) -> None:
        """Store many documents; same batching contract as
        :meth:`put_postings_many` (default loops, transactional
        backends override with one transaction)."""
        for doc_id, xml_text in items:
            self.put_document(doc_id, xml_text)

    @abstractmethod
    def get_document(self, doc_id: int) -> str:
        """Serialized XML of a document; raises on unknown ids."""

    @abstractmethod
    def document_ids(self) -> Iterator[int]:
        """All stored document ids, ascending."""

    @abstractmethod
    def delete_document(self, doc_id: int) -> None:
        """Remove a stored document; unknown ids are a no-op (the
        compactor garbage-collects rows that may already be gone)."""

    # ------------------------------------------------------------------
    # Metadata
    # ------------------------------------------------------------------
    @abstractmethod
    def put_metadata(self, key: str, value: str) -> None:
        """Store one configuration/bookkeeping entry."""

    @abstractmethod
    def get_metadata(self, key: str, default: str | None = None,
                     ) -> str | None:
        """Read one metadata entry."""

    @abstractmethod
    def metadata_keys(self) -> Iterator[str]:
        """All stored metadata keys (any order)."""

    def put_metadata_many(self,
                          items: Iterable[tuple[str, str]]) -> None:
        """Store many metadata entries; same batching contract as
        :meth:`put_postings_many` (default loops, transactional
        backends override with one transaction)."""
        for key, value in items:
            self.put_metadata(key, value)

    def reclaim_space(self) -> None:
        """Give the space of deleted rows back to the file system.

        Called after a committed compaction; it must never change what
        the store holds. The default is a no-op (in-memory and
        immutable backends have nothing to reclaim)."""

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release resources; default is a no-op."""

    def __enter__(self) -> "IndexStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def canonical_dump(store: IndexStore, strategies: Sequence[str]) -> bytes:
    """A deterministic byte serialization of a store's contents.

    Two stores hold the same index if and only if their dumps are
    byte-identical, regardless of backend (memory vs SQLite), page
    layout or insertion order -- the comparison form of the
    differential suites.

    A segmented store (one holding a ``segments.catalog``) is dumped
    through its *logical* view -- live segments merged, tombstoned
    documents masked, segment bookkeeping hidden -- so an incrementally
    grown index and a from-scratch build of the same corpus compare
    equal. That is the incremental-vs-rebuild differential contract.
    """
    from .segments import segment_view  # local import: avoids a cycle
    store = segment_view(store)
    postings = {
        strategy: {keyword: store.get_postings(strategy, keyword)
                   for keyword in store.keywords(strategy)}
        for strategy in sorted(set(strategies))}
    documents = {str(doc_id): store.get_document(doc_id)
                 for doc_id in store.document_ids()}
    metadata: dict[str, str] = {}
    for key in sorted(store.metadata_keys()):
        value = store.get_metadata(key)
        if value is not None:
            metadata[key] = value
    payload = {"postings": postings, "documents": documents,
               "metadata": metadata}
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")
