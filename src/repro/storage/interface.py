"""Persistent index storage interface (substitute for SQL Server 2000).

The paper's prototype used "Microsoft SQL Server 2000 for the persistent
storage of indexes". We define a small storage interface with two
implementations: an in-memory store (fast, test-friendly) and a SQLite
store (durable, inspectable with any SQLite client). The Index Creation
Module writes XOnto-DIL posting lists through this interface; the Query
Module reads them back.

Postings are stored in their encoded form -- ``(dewey_string, score)``
pairs, sorted by Dewey ID -- keeping this layer independent of the core
index structures.
"""

from __future__ import annotations

import json
from abc import ABC, abstractmethod
from typing import Iterable, Iterator, Sequence

from .errors import (CorruptIndexError, IncompatibleIndexError,
                     StorageError, TransientStorageError)

__all__ = ["CorruptIndexError", "EncodedPosting", "IncompatibleIndexError",
           "IndexStore", "StorageError", "TransientStorageError",
           "canonical_dump"]

#: Encoded posting: (dotted-decimal Dewey ID, node score).
EncodedPosting = tuple[str, float]


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
    def put_postings(self, strategy: str, keyword: str,
                     postings: Sequence[EncodedPosting]) -> None:
        """Store the full posting list of a keyword (replacing any)."""

    @abstractmethod
    def get_postings(self, strategy: str, keyword: str,
                     ) -> list[EncodedPosting]:
        """Posting list of a keyword; empty when the keyword is unknown."""

    @abstractmethod
    def keywords(self, strategy: str) -> Iterator[str]:
        """All keywords with stored posting lists for a strategy."""

    @abstractmethod
    def posting_count(self, strategy: str, keyword: str) -> int:
        """Number of postings without materializing the list."""

    def put_postings_many(
            self, strategy: str,
            items: Iterable[tuple[str, Sequence[EncodedPosting]]]) -> None:
        """Store many posting lists of one strategy.

        Semantically equivalent to calling :meth:`put_postings` per
        item; the default does exactly that. Transactional backends
        override this to land the whole batch under one transaction --
        the difference between hundreds and hundreds of thousands of
        lists per second. Every index writer (builds, segment appends,
        compaction, the ontology indexes) writes through here.
        """
        for keyword, postings in items:
            self.put_postings(strategy, keyword, postings)

    # ------------------------------------------------------------------
    # Documents
    # ------------------------------------------------------------------
    @abstractmethod
    def put_document(self, doc_id: int, xml_text: str) -> None:
        """Store a document's serialized XML."""

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
