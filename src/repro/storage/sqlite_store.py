"""SQLite-backed :class:`IndexStore` implementation.

The durable counterpart of :class:`~repro.storage.memory_store.MemoryStore`
and the stand-in for the paper's SQL Server deployment. Each posting list
is one row: its ``(strategy, keyword)`` key and its XPB1 block as a BLOB
(schema v2, recorded in ``PRAGMA user_version``; the normative layout is
in ``docs/STORAGE.md``). A file of another schema version -- such as the
v1 row-per-posting layout -- is refused at open with
:class:`IncompatibleIndexError`. Every write call is one transaction: a
:meth:`~SQLiteStore.put_postings_many`,
:meth:`~SQLiteStore.put_documents_many` or
:meth:`~SQLiteStore.put_metadata_many` batch commits (and fsyncs) once,
however many lists or entries it carries, and a failure rolls the whole
batch back. :meth:`~SQLiteStore.reclaim_space` runs ``VACUUM``.

Resilience contract (see :mod:`repro.storage.errors`):

* no raw ``sqlite3`` exception escapes -- every driver error is
  translated at the API boundary (locked/busy handles become
  :class:`TransientStorageError`, damaged files become
  :class:`CorruptIndexError`, the rest :class:`StorageError`);
* the file is probed at *open* time, so pointing the store at garbage
  fails immediately with the path in the message instead of at the
  first query;
* ``read_only=True`` opens the database through a ``mode=ro`` URI and
  requires the file (and the index schema) to already exist -- the
  query path can never silently create an empty index;
* one connection is shared across threads (``check_same_thread=False``)
  behind an internal lock, so concurrent readers -- e.g. the request
  threads of a server front-end -- are safe.
"""

from __future__ import annotations

import os
import sqlite3
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator

from .codec import FORMAT_VERSION, PostingBlock
from .errors import (CorruptIndexError, IncompatibleIndexError,
                     StorageError, TransientStorageError)
from .interface import IndexStore, open_block

#: ``PRAGMA user_version`` of the current layout. Version 1 (never
#: recorded, so it reads as 0) kept one row per posting.
SCHEMA_VERSION = 2

_SCHEMA = """
CREATE TABLE IF NOT EXISTS posting_blocks (
    strategy  TEXT NOT NULL,
    keyword   TEXT NOT NULL,
    block     BLOB NOT NULL,
    PRIMARY KEY (strategy, keyword)
);
CREATE TABLE IF NOT EXISTS documents (
    doc_id    INTEGER PRIMARY KEY,
    xml_text  TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS metadata (
    key       TEXT PRIMARY KEY,
    value     TEXT NOT NULL
);
"""

_TABLES = frozenset({"posting_blocks", "documents", "metadata"})

#: ``sqlite3.OperationalError`` messages that mark a retryable fault.
_TRANSIENT_MARKERS = ("locked", "busy")

#: Messages that mark a damaged database regardless of exception class.
_CORRUPT_MARKERS = ("malformed", "not a database", "corrupt")


def translate_sqlite_error(exc: sqlite3.Error, path: str) -> StorageError:
    """Map a raw ``sqlite3`` exception onto the storage taxonomy."""
    message = str(exc) or exc.__class__.__name__
    lowered = message.lower()
    if any(marker in lowered for marker in _CORRUPT_MARKERS):
        return CorruptIndexError(f"{path}: {message}")
    if isinstance(exc, sqlite3.OperationalError):
        if any(marker in lowered for marker in _TRANSIENT_MARKERS):
            return TransientStorageError(f"{path}: {message}")
        return StorageError(f"{path}: {message}")
    if isinstance(exc, sqlite3.DatabaseError):
        # DatabaseError outside the Operational subtree means the file
        # itself is unreadable as a database.
        return CorruptIndexError(f"{path}: {message}")
    return StorageError(f"{path}: {message}")


class SQLiteStore(IndexStore):
    """Stores indexes in a SQLite database file (or ``":memory:"``).

    ``tracer`` (any :class:`~repro.core.obs.tracer.Tracer`-shaped
    object) wraps each posting-list read in a ``storage.sqlite.read``
    span so ``--profile`` attributes query latency to the backend.
    """

    def __init__(self, path: str = ":memory:",
                 read_only: bool = False, tracer=None) -> None:
        if tracer is None:
            from ..core.obs.tracer import NULL_TRACER
            tracer = NULL_TRACER
        self.tracer = tracer
        self._path = path
        self._lock = threading.RLock()
        if read_only:
            if path == ":memory:":
                raise StorageError(
                    "read-only mode needs an existing database file")
            if not os.path.exists(path):
                raise StorageError(f"no index store at {path}")
            self._recover_hot_journal(path)
            uri = f"{Path(path).resolve().as_uri()}?mode=ro"
            connect_args: tuple = (uri,)
            connect_kwargs = {"uri": True, "check_same_thread": False}
        else:
            connect_args = (path,)
            connect_kwargs = {"check_same_thread": False}
        try:
            self._connection = sqlite3.connect(*connect_args,
                                               **connect_kwargs)
        except sqlite3.Error as exc:
            raise translate_sqlite_error(exc, path) from exc
        self._probe(read_only)

    # ------------------------------------------------------------------
    @property
    def path(self) -> str:
        return self._path

    @staticmethod
    def _recover_hot_journal(path: str) -> None:
        """Roll back a crashed writer's hot journal before a read-only
        open.

        Incremental appends and compactions mutate the published store
        in place, so a SIGKILLed writer can leave ``<path>-journal``
        behind. SQLite recovers it (restoring the last committed
        state) on the next access -- but recovery is a write, which a
        ``mode=ro`` connection refuses. One throwaway writable open
        performs the rollback; if the file is on read-only media the
        attempt fails silently and the read-only open reports the
        original condition.
        """
        if not os.path.exists(path + "-journal"):
            return
        try:
            recovery = sqlite3.connect(path)
            try:
                recovery.execute("PRAGMA schema_version").fetchone()
            finally:
                recovery.close()
        except sqlite3.Error:
            pass

    def _probe(self, read_only: bool) -> None:
        """Validate the file at open time; create the schema if allowed.

        A truncated or garbage file passes ``sqlite3.connect`` (the
        driver opens lazily) but fails the first real read, so we force
        one here -- a corrupt store raises :class:`CorruptIndexError`
        with the path immediately instead of at an arbitrary later
        query.
        """
        try:
            self._connection.execute("PRAGMA schema_version").fetchone()
            tables = {name for (name,) in self._connection.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'")}
            (version,) = self._connection.execute(
                "PRAGMA user_version").fetchone()
            if version != SCHEMA_VERSION and (version
                                              or "postings" in tables):
                raise IncompatibleIndexError(
                    f"{self._path}: index store schema v{version or 1} "
                    f"is not supported (this build reads "
                    f"v{SCHEMA_VERSION}: one XPB1 block per posting "
                    f"list); rebuild it with `python -m repro index "
                    f"--data DATA --store {self._path}`")
            if read_only:
                missing = _TABLES - tables
                if missing:
                    raise CorruptIndexError(
                        f"{self._path}: not an index store "
                        f"(missing tables: {', '.join(sorted(missing))})")
            elif version != SCHEMA_VERSION:  # a new file
                self._connection.executescript(_SCHEMA)
                self._connection.execute(
                    f"PRAGMA user_version = {SCHEMA_VERSION}")
                self._connection.commit()
        except sqlite3.Error as exc:
            self._connection.close()
            raise translate_sqlite_error(exc, self._path) from exc
        except StorageError:
            self._connection.close()
            raise

    @contextmanager
    def _guarded(self):
        """Serialize access to the shared connection and translate any
        driver exception into the storage taxonomy."""
        with self._lock:
            try:
                yield
            except sqlite3.Error as exc:
                raise translate_sqlite_error(exc, self._path) from exc

    # ------------------------------------------------------------------
    def put_postings_many(
            self, strategy: str,
            items: Iterable[tuple[str, bytes | None]]) -> None:
        # One transaction for the whole batch: per-list transactions
        # commit (fsync) each list and cap throughput at a few hundred
        # lists per second.
        with self._guarded(), self._connection:
            for keyword, data in items:
                if data is None:
                    self._connection.execute(
                        "DELETE FROM posting_blocks "
                        "WHERE strategy = ? AND keyword = ?",
                        (strategy, keyword))
                else:
                    self._connection.execute(
                        "INSERT OR REPLACE INTO posting_blocks "
                        "(strategy, keyword, block) VALUES (?, ?, ?)",
                        (strategy, keyword, data))

    def get_posting_block(self, strategy: str, keyword: str,
                          ) -> PostingBlock | None:
        with self.tracer.span("storage.sqlite.read",
                              keyword=keyword) as span:
            with self._guarded():
                row = self._connection.execute(
                    "SELECT block FROM posting_blocks "
                    "WHERE strategy = ? AND keyword = ?",
                    (strategy, keyword)).fetchone()
            if row is None:
                return None
            span.annotate(bytes=len(row[0]))
            return open_block(row[0], strategy, keyword)

    def keywords(self, strategy: str) -> Iterator[str]:
        with self._guarded():
            rows = self._connection.execute(
                "SELECT keyword FROM posting_blocks WHERE strategy = ?",
                (strategy,)).fetchall()
        for (keyword,) in rows:
            yield keyword

    def posting_namespaces(self) -> list[str]:
        with self._guarded():
            rows = self._connection.execute(
                "SELECT DISTINCT strategy FROM posting_blocks").fetchall()
        return sorted(strategy for (strategy,) in rows)

    def format_description(self) -> str:
        return (f"sqlite store (schema v{SCHEMA_VERSION}, compact "
                f"posting blocks v{FORMAT_VERSION})")

    # ------------------------------------------------------------------
    def put_document(self, doc_id: int, xml_text: str) -> None:
        with self._guarded(), self._connection:
            self._connection.execute(
                "INSERT OR REPLACE INTO documents (doc_id, xml_text) "
                "VALUES (?, ?)", (doc_id, xml_text))

    def put_documents_many(self,
                           items: Iterable[tuple[int, str]]) -> None:
        with self._guarded(), self._connection:
            self._connection.executemany(
                "INSERT OR REPLACE INTO documents (doc_id, xml_text) "
                "VALUES (?, ?)", items)

    def get_document(self, doc_id: int) -> str:
        with self._guarded():
            row = self._connection.execute(
                "SELECT xml_text FROM documents WHERE doc_id = ?",
                (doc_id,)).fetchone()
        if row is None:
            raise StorageError(f"no stored document {doc_id}")
        return row[0]

    def document_ids(self) -> Iterator[int]:
        with self._guarded():
            rows = self._connection.execute(
                "SELECT doc_id FROM documents ORDER BY doc_id").fetchall()
        for (doc_id,) in rows:
            yield int(doc_id)

    def delete_document(self, doc_id: int) -> None:
        with self._guarded(), self._connection:
            self._connection.execute(
                "DELETE FROM documents WHERE doc_id = ?", (doc_id,))

    # ------------------------------------------------------------------
    def put_metadata(self, key: str, value: str) -> None:
        with self._guarded(), self._connection:
            self._connection.execute(
                "INSERT OR REPLACE INTO metadata (key, value) "
                "VALUES (?, ?)", (key, value))

    def put_metadata_many(self,
                          items: Iterable[tuple[str, str]]) -> None:
        with self._guarded(), self._connection:
            self._connection.executemany(
                "INSERT OR REPLACE INTO metadata (key, value) "
                "VALUES (?, ?)", items)

    def get_metadata(self, key: str, default: str | None = None,
                     ) -> str | None:
        with self._guarded():
            row = self._connection.execute(
                "SELECT value FROM metadata WHERE key = ?",
                (key,)).fetchone()
        return default if row is None else row[0]

    def metadata_keys(self) -> Iterator[str]:
        with self._guarded():
            rows = self._connection.execute(
                "SELECT key FROM metadata ORDER BY key").fetchall()
        for (key,) in rows:
            yield key

    # ------------------------------------------------------------------
    def reclaim_space(self) -> None:
        # VACUUM rewrites the file without the free pages deleted rows
        # left behind. It builds the copy aside and writes it back
        # through the rollback journal, so a kill mid-VACUUM leaves the
        # committed file either untouched or behind a hot journal the
        # next open rolls back.
        with self._guarded():
            self._connection.execute("VACUUM")

    def close(self) -> None:
        with self._lock:
            self._connection.close()
