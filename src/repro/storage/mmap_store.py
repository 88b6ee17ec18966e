"""Memory-mapped, read-only :class:`IndexStore` (the XMS1 container).

The SQLite backend pays per-row query cost on every posting read and
keeps a private page cache per process.  For serving -- many processes,
one immutable index -- the better shape is a single append-only file of
compact posting blocks plus a JSON table of contents at the tail:

* **O(1) open.**  ``MmapStore(path)`` maps the file, reads the
  fixed-size trailer, checksums and parses the TOC, and is ready; no
  posting bytes are touched until a query asks for them.
* **Shared page cache.**  N serving processes mapping one file share
  the OS page cache; posting blocks are served as ``memoryview`` slices
  of the mapping, so a read copies nothing.
* **Immutable by construction.**  There is no write path on the
  reader; rebuilds publish a whole new file atomically (temp sibling +
  ``os.replace``), the same crash-safety contract as
  :func:`~repro.storage.manifest.atomic_sqlite_build`.

The byte layout (container header, record region, TOC, 16-byte
trailer) is normatively specified in ``docs/STORAGE.md``.  Every
posting list is one compact XPB1 block (:mod:`repro.storage.codec`),
written as the writer was given it; a file holding any other record
kind (the retired raw JSON records) is refused with
:class:`IncompatibleIndexError`.

Writes go through :class:`MmapStoreWriter` (an in-memory store that
serializes everything on :meth:`~MmapStoreWriter.finalize`) or the
:func:`atomic_mmap_build` context manager the CLI uses.
"""

from __future__ import annotations

import contextlib
import json
import mmap
import os
import struct
import zlib
from typing import Iterable, Iterator, Sequence

from .codec import FORMAT_VERSION, PostingBlock
from .errors import (CorruptIndexError, IncompatibleIndexError,
                     StorageError)
from .interface import IndexStore, open_block
from .memory_store import MemoryStore

#: Leading bytes of every mmap store file ("XOnto Mmap Store").
FILE_MAGIC = b"XMS1"

#: Trailing bytes of the 16-byte trailer ("... Footer").
TRAILER_MAGIC = b"XMSF"

#: Current (and only) container format version.
CONTAINER_VERSION = 1

_FILE_HEADER = struct.Struct("<4sI")      # magic | container version
_TRAILER = struct.Struct("<QI4s")         # toc offset | toc crc32 | magic

#: TOC record kind of a posting list (an XPB1 block; the only kind).
KIND_BLOCK = "xpb"


def _null_tracer():
    from ..core.obs.tracer import NULL_TRACER  # lazy: avoids a cycle
    return NULL_TRACER


# ----------------------------------------------------------------------
# Reader
# ----------------------------------------------------------------------
class MmapStore(IndexStore):
    """Read-only store over one memory-mapped XMS1 file.

    All state after construction is immutable, so every read method is
    thread-safe without locking -- the concurrent-readers property the
    serving layer relies on.  Mutating methods raise
    :class:`StorageError`; rebuild and republish instead.

    ``close()`` releases the file descriptor immediately; the mapping
    itself is released once the last outstanding
    :class:`~repro.storage.codec.PostingBlock` (which may hold a
    ``memoryview`` into it) is garbage-collected.
    """

    def __init__(self, path: str, tracer=None) -> None:
        self.path = path
        self.tracer = tracer if tracer is not None else _null_tracer()
        self._closed = False
        with self.tracer.span("storage.mmap.open") as span:
            try:
                self._file = open(path, "rb")
            except OSError as exc:
                raise StorageError(
                    f"cannot open mmap store {path!r}: {exc}") from exc
            try:
                self._mmap = mmap.mmap(self._file.fileno(), 0,
                                       access=mmap.ACCESS_READ)
            except (OSError, ValueError) as exc:
                self._file.close()
                raise CorruptIndexError(
                    f"cannot map store {path!r}: {exc}") from exc
            self._view = memoryview(self._mmap)
            try:
                self._load_toc()
            except BaseException:
                self._release()
                raise
            span.annotate(
                blocks=sum(len(lists)
                           for lists in self._postings.values()),
                documents=len(self._documents))

    # -- open-time parsing ---------------------------------------------

    def _load_toc(self) -> None:
        view = self._view
        size = len(view)
        if size < _FILE_HEADER.size + _TRAILER.size:
            raise CorruptIndexError(
                f"mmap store {self.path!r} is shorter than its header "
                f"and trailer ({size} bytes)")
        magic, version = _FILE_HEADER.unpack_from(view, 0)
        if magic != FILE_MAGIC:
            raise CorruptIndexError(
                f"{self.path!r} is not an mmap index store "
                f"(bad magic {bytes(magic)!r})")
        if version != CONTAINER_VERSION:
            raise IncompatibleIndexError(
                f"mmap store container v{version} is not supported "
                f"(this build reads v{CONTAINER_VERSION})")
        toc_offset, toc_crc, trailer_magic = _TRAILER.unpack_from(
            view, size - _TRAILER.size)
        if trailer_magic != TRAILER_MAGIC:
            raise CorruptIndexError(
                f"mmap store {self.path!r} has no trailer -- the file "
                f"is truncated or was not finalized")
        if not _FILE_HEADER.size <= toc_offset <= size - _TRAILER.size:
            raise CorruptIndexError(
                f"mmap store TOC offset {toc_offset} is outside the "
                f"file")
        toc_bytes = view[toc_offset:size - _TRAILER.size]
        if zlib.crc32(toc_bytes) & 0xFFFFFFFF != toc_crc:
            raise CorruptIndexError(
                "mmap store TOC checksum mismatch")
        try:
            toc = json.loads(bytes(toc_bytes).decode("utf-8"))
            postings = {
                strategy: {keyword: tuple(entry)
                           for keyword, entry in lists.items()}
                for strategy, lists in toc["postings"].items()}
            documents = {int(doc_id): tuple(entry)
                         for doc_id, entry in toc["documents"].items()}
            metadata = dict(toc["metadata"])
        except (KeyError, TypeError, ValueError,
                UnicodeDecodeError) as exc:
            raise CorruptIndexError(
                f"mmap store TOC is malformed: {exc}") from exc
        data_end = size - _TRAILER.size
        for lists in postings.values():
            for offset, length, _, kind in lists.values():
                if kind == "raw":
                    raise IncompatibleIndexError(
                        f"mmap store {self.path!r} holds raw posting "
                        f"records, a form this build no longer reads; "
                        f"rebuild it with `python -m repro index "
                        f"--data DATA --store {self.path} "
                        f"--store-format mmap`")
                if kind != KIND_BLOCK:
                    raise CorruptIndexError(
                        f"unknown posting record kind {kind!r}")
                if not 0 <= offset <= offset + length <= data_end:
                    raise CorruptIndexError(
                        "posting record lies outside the file")
        for offset, length in documents.values():
            if not 0 <= offset <= offset + length <= data_end:
                raise CorruptIndexError(
                    "document record lies outside the file")
        self._postings = postings
        self._documents = documents
        self._metadata = metadata

    def _require_open(self) -> None:
        if self._closed:
            raise StorageError(
                f"mmap store {self.path!r} is closed")

    def _read_only(self) -> StorageError:
        return StorageError(
            f"mmap store {self.path!r} is immutable: rebuild with "
            f"`python -m repro index --store-format mmap` instead of "
            f"writing in place")

    # -- posting lists --------------------------------------------------

    def put_postings_many(
            self, strategy: str,
            items: Iterable[tuple[str, bytes | None]]) -> None:
        raise self._read_only()

    def get_posting_block(self, strategy: str, keyword: str,
                          ) -> PostingBlock | None:
        """The compact block of a keyword, *undecoded* -- a zero-copy
        ``memoryview`` slice of the mapping.  ``None`` when the keyword
        is absent."""
        self._require_open()
        entry = self._postings.get(strategy, {}).get(keyword)
        if entry is None:
            return None
        offset, length, count, _ = entry
        block = open_block(self._view[offset:offset + length], strategy,
                           keyword)
        if block.posting_count != count:
            raise CorruptIndexError(
                f"stored posting list {strategy}/{keyword!r} is corrupt: "
                f"the TOC posting count disagrees with the block "
                f"directory")
        return block

    def keywords(self, strategy: str) -> Iterator[str]:
        self._require_open()
        return iter(list(self._postings.get(strategy, {})))

    def posting_count(self, strategy: str, keyword: str) -> int:
        self._require_open()
        entry = self._postings.get(strategy, {}).get(keyword)
        return 0 if entry is None else entry[2]

    def posting_namespaces(self) -> list[str]:
        self._require_open()
        return sorted(self._postings)

    def format_description(self) -> str:
        return (f"mmap store (container v{CONTAINER_VERSION}, compact "
                f"posting blocks v{FORMAT_VERSION})")

    # -- documents ------------------------------------------------------

    def put_document(self, doc_id: int, xml_text: str) -> None:
        raise self._read_only()

    def get_document(self, doc_id: int) -> str:
        self._require_open()
        entry = self._documents.get(doc_id)
        if entry is None:
            raise StorageError(f"no stored document {doc_id}")
        offset, length = entry
        return bytes(self._view[offset:offset + length]).decode("utf-8")

    def document_ids(self) -> Iterator[int]:
        self._require_open()
        return iter(sorted(self._documents))

    def delete_document(self, doc_id: int) -> None:
        raise self._read_only()

    # -- metadata -------------------------------------------------------

    def put_metadata(self, key: str, value: str) -> None:
        raise self._read_only()

    def get_metadata(self, key: str, default: str | None = None,
                     ) -> str | None:
        self._require_open()
        return self._metadata.get(key, default)

    def metadata_keys(self) -> Iterator[str]:
        self._require_open()
        return iter(sorted(self._metadata))

    # -- lifecycle ------------------------------------------------------

    def _release(self) -> None:
        self._view.release()
        with contextlib.suppress(BufferError):
            # Outstanding PostingBlocks hold memoryviews into the
            # mapping; it stays alive until they are collected.
            self._mmap.close()
        self._file.close()

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._release()


# ----------------------------------------------------------------------
# Writer
# ----------------------------------------------------------------------
class MmapStoreWriter(MemoryStore):
    """Build-side store for the mmap backend.

    Accumulates postings/documents/metadata in memory (it *is* a
    :class:`MemoryStore`, so build pipelines and the manifest protocol
    work unchanged) and serializes the XMS1 file on :meth:`finalize` --
    written to a temp sibling and atomically renamed, so a build killed
    at any point leaves the published path untouched.
    """

    def __init__(self, path: str, tracer=None) -> None:
        super().__init__()
        self.path = path
        self.tracer = tracer if tracer is not None else _null_tracer()
        self._finalized = False

    def abandon(self) -> None:
        """Drop the build: :meth:`close` will no longer publish."""
        self._finalized = True

    def finalize(self) -> None:
        """Serialize and atomically publish the store file."""
        if self._finalized:
            return
        with self.tracer.span("storage.mmap.write") as span:
            size = _write_file(self.path, self._postings,
                               self._documents, self._metadata)
            span.annotate(blocks=len(self._postings), bytes=size)
        self._finalized = True

    def close(self) -> None:
        self.finalize()


def _write_file(path: str, postings, documents, metadata) -> int:
    """Serialize one XMS1 file; returns its size in bytes."""
    temp_path = path + ".building"
    try:
        with open(temp_path, "wb") as handle:
            handle.write(_FILE_HEADER.pack(FILE_MAGIC,
                                           CONTAINER_VERSION))
            offset = _FILE_HEADER.size
            toc_postings: dict[str, dict[str, list]] = {}
            for strategy, keyword in sorted(postings):
                block = postings[(strategy, keyword)]
                record = block.to_bytes()
                handle.write(record)
                toc_postings.setdefault(strategy, {})[keyword] = [
                    offset, len(record), block.posting_count, KIND_BLOCK]
                offset += len(record)
            toc_documents: dict[str, list] = {}
            for doc_id in sorted(documents):
                record = documents[doc_id].encode("utf-8")
                handle.write(record)
                toc_documents[str(doc_id)] = [offset, len(record)]
                offset += len(record)
            toc = json.dumps(
                {"postings": toc_postings, "documents": toc_documents,
                 "metadata": dict(metadata)},
                sort_keys=True, separators=(",", ":")).encode("utf-8")
            handle.write(toc)
            handle.write(_TRAILER.pack(offset,
                                       zlib.crc32(toc) & 0xFFFFFFFF,
                                       TRAILER_MAGIC))
            handle.flush()
            os.fsync(handle.fileno())
            size = offset + len(toc) + _TRAILER.size
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(temp_path)
        raise
    os.replace(temp_path, path)
    return size


@contextlib.contextmanager
def atomic_mmap_build(path: str, tracer=None,
                      ) -> Iterator[MmapStoreWriter]:
    """Build an mmap index at ``path``; publish only on success.

    The ``with`` body writes into an in-memory
    :class:`MmapStoreWriter`; the file appears at ``path`` (temp
    sibling + atomic rename) only when the body completes without
    raising.  The mmap analogue of
    :func:`~repro.storage.manifest.atomic_sqlite_build`.
    """
    writer = MmapStoreWriter(path, tracer=tracer)
    try:
        yield writer
    except BaseException:
        writer.abandon()
        raise
    writer.finalize()


def write_mmap_store(path: str, store: IndexStore,
                     strategies: Sequence[str], tracer=None) -> None:
    """Convert any store's contents into an XMS1 file at ``path``."""
    with atomic_mmap_build(path, tracer=tracer) as writer:
        for strategy in strategies:
            writer.put_postings_many(
                strategy,
                ((keyword,
                  store.get_posting_block(strategy, keyword).to_bytes())
                 for keyword in store.keywords(strategy)))
        for doc_id in store.document_ids():
            writer.put_document(doc_id, store.get_document(doc_id))
        for key in store.metadata_keys():
            value = store.get_metadata(key)
            if value is not None:
                writer.put_metadata(key, value)


# ----------------------------------------------------------------------
# Format detection
# ----------------------------------------------------------------------
def sniff_store_format(path: str) -> str:
    """``"mmap"``, ``"sqlite"``, or ``"unknown"`` from a file's leading
    bytes (missing/unreadable files sniff as ``"unknown"``)."""
    try:
        with open(path, "rb") as handle:
            head = handle.read(16)
    except OSError:
        return "unknown"
    if head[:4] == FILE_MAGIC:
        return "mmap"
    if head == b"SQLite format 3\x00":
        return "sqlite"
    return "unknown"


def open_read_store(path: str, tracer=None) -> IndexStore:
    """Open an index file read-only, whichever backend wrote it.

    Mmap files open as :class:`MmapStore`; everything else -- including
    missing or damaged paths, whose errors the SQLite backend already
    reports well -- opens as a read-only
    :class:`~repro.storage.sqlite_store.SQLiteStore`.
    """
    if sniff_store_format(path) == "mmap":
        return MmapStore(path, tracer=tracer)
    from .sqlite_store import SQLiteStore
    return SQLiteStore(path, read_only=True, tracer=tracer)
