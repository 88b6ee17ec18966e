"""Deterministic fault injection for storage resilience tests.

:class:`FaultInjectingStore` decorates any
:class:`~repro.storage.interface.IndexStore` with seeded chaos:

* **transient faults** -- each guarded call fails with
  :class:`TransientStorageError` with probability ``transient_rate``
  (a seeded PRNG, so a given seed always produces the same fault
  pattern and tests are reproducible);
* **corruption** -- posting lists of ``corrupt_keywords`` come back
  with a flipped payload byte, modeling on-disk damage that the block
  checksum catches when the list is read;
* **latency** -- every guarded call sleeps ``latency`` seconds first
  (the sleep function is injectable so tests just count calls);
* **simulated crashes** -- after ``fail_after_writes`` successful write
  operations, every further write raises a permanent
  :class:`StorageError`, which aborts a build mid-flight exactly the
  way a killed process would: with the completion marker never set.

The injected-fault counters land in a
:class:`~repro.core.stats.StatsRegistry` under ``faults.injected.*`` so
assertions can check that a test actually exercised the fault path.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Collection, Iterable, Iterator

from ..core.stats import (FAULTS_CORRUPTION, FAULTS_CRASHES,
                          FAULTS_LATENCY, FAULTS_TRANSIENT,
                          StatsRegistry)
from .codec import HEADER_SIZE, PostingBlock, encode_triples
from .errors import StorageError, TransientStorageError
from .interface import IndexStore, open_block

#: Batch writes are not listed: ``put_postings_many`` guards each list
#: as a ``put_postings`` write, and ``put_documents_many`` /
#: ``put_metadata_many`` keep the interface's per-item loop, so every
#: list, document or entry of a batch is its own write and its own cut
#: point.
_WRITE_OPERATIONS = frozenset(
    {"put_postings", "put_document", "put_metadata",
     "delete_document", "reclaim_space"})


class FaultInjectingStore(IndexStore):
    """Seeded chaos decorator around any :class:`IndexStore`."""

    def __init__(self, inner: IndexStore, seed: int = 0,
                 transient_rate: float = 0.0,
                 corrupt_keywords: Collection[str] = (),
                 latency: float = 0.0,
                 fail_after_writes: int | None = None,
                 operations: Collection[str] | None = None,
                 stats: StatsRegistry | None = None,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        if not 0.0 <= transient_rate < 1.0:
            raise ValueError("transient_rate must lie in [0, 1)")
        if latency < 0:
            raise ValueError("latency must be non-negative")
        if fail_after_writes is not None and fail_after_writes < 0:
            raise ValueError("fail_after_writes must be None or >= 0")
        self._inner = inner
        self._random = random.Random(seed)
        self._transient_rate = transient_rate
        self._corrupt_keywords = frozenset(corrupt_keywords)
        self._latency = latency
        self._fail_after_writes = fail_after_writes
        self._operations = (frozenset(operations)
                            if operations is not None else None)
        self._stats = stats if stats is not None else StatsRegistry()
        self._sleep = sleep
        self._writes = 0

    # ------------------------------------------------------------------
    @property
    def inner(self) -> IndexStore:
        return self._inner

    @property
    def registry(self) -> StatsRegistry:
        return self._stats

    @property
    def writes(self) -> int:
        """Write operations that reached the inner store."""
        return self._writes

    def _guard(self, operation: str) -> None:
        if (self._operations is not None
                and operation not in self._operations):
            return
        if self._latency > 0:
            self._stats.increment(FAULTS_LATENCY)
            self._sleep(self._latency)
        if (operation in _WRITE_OPERATIONS
                and self._fail_after_writes is not None
                and self._writes >= self._fail_after_writes):
            self._stats.increment(FAULTS_CRASHES)
            raise StorageError(
                f"injected permanent write failure in {operation} "
                f"(simulated crash after {self._writes} writes)")
        if (self._transient_rate
                and self._random.random() < self._transient_rate):
            self._stats.increment(FAULTS_TRANSIENT)
            raise TransientStorageError(
                f"injected transient fault in {operation}")
        if operation in _WRITE_OPERATIONS:
            self._writes += 1

    # ------------------------------------------------------------------
    def put_postings_many(
            self, strategy: str,
            items: Iterable[tuple[str, bytes | None]]) -> None:
        for keyword, data in items:
            self._guard("put_postings")
            self._inner.put_postings_many(strategy, [(keyword, data)])

    def get_posting_block(self, strategy: str, keyword: str,
                          ) -> PostingBlock | None:
        self._guard("get_posting_block")
        block = self._inner.get_posting_block(strategy, keyword)
        if keyword not in self._corrupt_keywords:
            return block
        self._stats.increment(FAULTS_CORRUPTION)
        damaged = bytearray(block.to_bytes() if block is not None
                            else encode_triples([(0, (), 1.0)]))
        damaged[HEADER_SIZE] ^= 0xFF
        return open_block(bytes(damaged), strategy, keyword)

    def keywords(self, strategy: str) -> Iterator[str]:
        self._guard("keywords")
        return iter(list(self._inner.keywords(strategy)))

    def posting_count(self, strategy: str, keyword: str) -> int:
        self._guard("posting_count")
        return self._inner.posting_count(strategy, keyword)

    # ------------------------------------------------------------------
    def put_document(self, doc_id: int, xml_text: str) -> None:
        self._guard("put_document")
        self._inner.put_document(doc_id, xml_text)

    def get_document(self, doc_id: int) -> str:
        self._guard("get_document")
        return self._inner.get_document(doc_id)

    def document_ids(self) -> Iterator[int]:
        self._guard("document_ids")
        return iter(list(self._inner.document_ids()))

    def delete_document(self, doc_id: int) -> None:
        self._guard("delete_document")
        self._inner.delete_document(doc_id)

    # ------------------------------------------------------------------
    def put_metadata(self, key: str, value: str) -> None:
        self._guard("put_metadata")
        self._inner.put_metadata(key, value)

    def get_metadata(self, key: str, default: str | None = None,
                     ) -> str | None:
        self._guard("get_metadata")
        return self._inner.get_metadata(key, default)

    def metadata_keys(self) -> Iterator[str]:
        self._guard("metadata_keys")
        return iter(list(self._inner.metadata_keys()))

    # ------------------------------------------------------------------
    def reclaim_space(self) -> None:
        self._guard("reclaim_space")
        self._inner.reclaim_space()

    def close(self) -> None:
        self._inner.close()
