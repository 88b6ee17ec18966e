"""In-memory :class:`IndexStore` implementation."""

from __future__ import annotations

from typing import Iterable, Iterator

from .codec import PostingBlock
from .interface import IndexStore, StorageError, open_block


class MemoryStore(IndexStore):
    """Dictionary-backed store; the default for tests and experiments."""

    def __init__(self) -> None:
        self._postings: dict[tuple[str, str], PostingBlock] = {}
        self._documents: dict[int, str] = {}
        self._metadata: dict[str, str] = {}

    # ------------------------------------------------------------------
    def put_postings_many(
            self, strategy: str,
            items: Iterable[tuple[str, bytes | None]]) -> None:
        for keyword, data in items:
            if data is None:
                self._postings.pop((strategy, keyword), None)
            else:
                self._postings[(strategy, keyword)] = open_block(
                    bytes(data), strategy, keyword)

    def get_posting_block(self, strategy: str, keyword: str,
                          ) -> PostingBlock | None:
        return self._postings.get((strategy, keyword))

    def keywords(self, strategy: str) -> Iterator[str]:
        for stored_strategy, keyword in self._postings:
            if stored_strategy == strategy:
                yield keyword

    def posting_namespaces(self) -> list[str]:
        return sorted({strategy for strategy, _ in self._postings})

    # ------------------------------------------------------------------
    def put_document(self, doc_id: int, xml_text: str) -> None:
        self._documents[doc_id] = xml_text

    def get_document(self, doc_id: int) -> str:
        try:
            return self._documents[doc_id]
        except KeyError:
            raise StorageError(f"no stored document {doc_id}") from None

    def document_ids(self) -> Iterator[int]:
        return iter(sorted(self._documents))

    def delete_document(self, doc_id: int) -> None:
        self._documents.pop(doc_id, None)

    # ------------------------------------------------------------------
    def put_metadata(self, key: str, value: str) -> None:
        self._metadata[key] = value

    def get_metadata(self, key: str, default: str | None = None,
                     ) -> str | None:
        return self._metadata.get(key, default)

    def metadata_keys(self) -> Iterator[str]:
        return iter(sorted(self._metadata))
