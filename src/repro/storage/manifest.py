"""Integrity manifests and crash-safe index builds.

A persisted XOnto-DIL index is only trustworthy if we can tell, after
the fact, that (a) the build that wrote it ran to completion and (b)
nothing has silently changed since. The manifest is a small set of
metadata entries written by the build and checked by
:func:`verify_manifest` / ``python -m repro verify-index``:

``manifest.version``
    Format version of the manifest itself.
``manifest.build_complete``
    ``"0"`` while a build is writing, ``"1"`` only after everything
    else (postings, documents, parameters, checksums) has landed.
    Written *last*, so a build killed at any point leaves a store that
    loaders reject.
``manifest.checksum.<strategy>``
    SHA-256 over the canonical JSON form of every posting list of the
    strategy (dotted Dewey text and score per posting), computed from
    exactly the lists the build wrote (the build replaces the whole
    namespace, see :func:`replace_namespace`) -- truncation or
    tampering of any list changes it.
``manifest.corpus_fingerprint``
    SHA-256 over the serialized documents the index was built from.
    Lets the engine refuse an index built from a different corpus, and
    lets ``verify-index`` detect damaged documents without the corpus.

Crash safety of ``python -m repro index`` is completed by
:func:`atomic_sqlite_build`: the database is written to a temporary
sibling path and atomically renamed over the target only on success,
so an interrupted build never leaves a partial file at the published
path at all.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator, Mapping, Protocol, Sequence

from .errors import CorruptIndexError, StorageError
from .interface import IndexStore
from .sqlite_store import SQLiteStore

MANIFEST_VERSION_KEY = "manifest.version"
MANIFEST_VERSION = "1"
BUILD_COMPLETE_KEY = "manifest.build_complete"
BUILD_COMPLETE = "1"
BUILD_IN_PROGRESS = "0"
CORPUS_FINGERPRINT_KEY = "manifest.corpus_fingerprint"
CHECKSUM_KEY_PREFIX = "manifest.checksum."


# ----------------------------------------------------------------------
# Checksums
# ----------------------------------------------------------------------
class PostingList(Protocol):
    """What the manifest reads of a posting list: a
    :class:`~repro.storage.codec.PostingBlock` or a
    :class:`~repro.core.index.dil.DeweyInvertedList`."""

    def encoded(self) -> list[tuple[str, float]]:
        """``(dotted Dewey ID, score)`` pairs in Dewey order."""

    def to_bytes(self) -> bytes:
        """The list as one XPB1 block."""


def postings_checksum(lists: Mapping[str, PostingList]) -> str:
    """SHA-256 over the canonical JSON form of keyword → posting list.

    Each posting is ``[dotted Dewey ID, score]``: a block renders the
    text from its ``(doc_id, path, score)`` triples, a built list reads
    its Dewey IDs' memoized text. Keys are sorted and floats use
    Python's shortest round-trip repr, so two stores hold
    checksum-equal postings iff the lists are value-identical (same
    contract as :func:`~repro.storage.interface.canonical_dump`).
    """
    payload = {keyword: [[dewey, float(score)]
                         for dewey, score in entry.encoded()]
               for keyword, entry in lists.items()}
    encoded = json.dumps(payload, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


def namespace_lists(store: IndexStore,
                    namespace: str) -> dict[str, PostingList]:
    """Every posting list of one namespace, as stored blocks."""
    return {keyword: store.get_posting_block(namespace, keyword)
            for keyword in store.keywords(namespace)}


def store_checksum(store: IndexStore, strategy: str) -> str:
    """Checksum of one strategy's posting lists as the store holds them."""
    return postings_checksum(namespace_lists(store, strategy))


def replace_namespace(store: IndexStore, namespace: str,
                      lists: Mapping[str, PostingList]) -> str:
    """Make ``lists`` the whole content of a posting namespace, in one
    ``put_postings_many`` batch (one transaction on SQLite), and return
    their :func:`postings_checksum`.

    Every key already there that ``lists`` does not hold -- the lists
    of an earlier build, orphans of a crashed mutation that targeted the
    same segment id, a dead segment being reclaimed -- is deleted first;
    then the lists are written in ``lists`` order, each as its XPB1
    block. ``lists`` must hold no empty list (stores treat one as
    absent), so the checksum is the one the namespace now reads back
    as, without reading it back.
    """
    stale = [(keyword, None) for keyword in list(store.keywords(namespace))
             if keyword not in lists]
    store.put_postings_many(namespace, chain(
        stale, ((keyword, entry.to_bytes())
                for keyword, entry in lists.items())))
    return postings_checksum(lists)


def corpus_fingerprint(documents: Iterable[tuple[int, str]]) -> str:
    """SHA-256 over ``(doc_id, serialized XML)`` pairs, order-free."""
    payload = [[doc_id, text] for doc_id, text in sorted(documents)]
    encoded = json.dumps(payload, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


# ----------------------------------------------------------------------
# Build protocol
# ----------------------------------------------------------------------
def mark_build_started(store: IndexStore) -> None:
    """First write of a build: flip the store to *incomplete* so a
    crash anywhere after this point leaves a rejectable store."""
    store.put_metadata(BUILD_COMPLETE_KEY, BUILD_IN_PROGRESS)


def finalize_manifest(store: IndexStore, strategy: str, checksum: str,
                      fingerprint: str) -> None:
    """Last writes of a build: the manifest entries as one batch, then
    the completion marker strictly last, on its own. ``checksum`` is
    what :func:`replace_namespace` returned for the build's lists."""
    store.put_metadata_many([
        (MANIFEST_VERSION_KEY, MANIFEST_VERSION),
        (CHECKSUM_KEY_PREFIX + strategy, checksum),
        (CORPUS_FINGERPRINT_KEY, fingerprint)])
    store.put_metadata(BUILD_COMPLETE_KEY, BUILD_COMPLETE)


def manifest_strategies(store: IndexStore) -> list[str]:
    """Strategies with a recorded posting-list checksum."""
    return sorted(key[len(CHECKSUM_KEY_PREFIX):]
                  for key in store.metadata_keys()
                  if key.startswith(CHECKSUM_KEY_PREFIX))


def is_complete(store: IndexStore) -> bool:
    return store.get_metadata(BUILD_COMPLETE_KEY) == BUILD_COMPLETE


def require_complete(store: IndexStore) -> None:
    """Raise :class:`CorruptIndexError` unless the completion marker is
    set -- the load-time gate against interrupted builds."""
    marker = store.get_metadata(BUILD_COMPLETE_KEY)
    if marker == BUILD_COMPLETE:
        return
    if marker == BUILD_IN_PROGRESS:
        raise CorruptIndexError(
            "index store was written by a build that never completed "
            "(manifest.build_complete=0); rebuild it with "
            "`python -m repro index`")
    raise CorruptIndexError(
        "index store has no build-completion marker (interrupted or "
        "pre-manifest build); rebuild it with `python -m repro index`")


# ----------------------------------------------------------------------
# Verification
# ----------------------------------------------------------------------
@dataclass
class ManifestReport:
    """Outcome of an end-to-end manifest check."""

    problems: list[str] = field(default_factory=list)
    #: strategy → number of posting lists whose checksum was verified.
    strategies: dict[str, int] = field(default_factory=dict)
    #: strategy/namespace → the recorded SHA-256 the check ran against
    #: (so operators can quote and compare checksums across replicas).
    checksums: dict[str, str] = field(default_factory=dict)
    documents: int = 0
    #: Benign observations that do not fail the check -- tombstones
    #: awaiting compaction, orphaned rows left by a crashed append or
    #: compaction (invisible to queries, reclaimed by compaction).
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def describe(self) -> list[str]:
        lines = []
        for strategy in sorted(self.strategies):
            checksum = self.checksums.get(strategy)
            suffix = (f" (sha256 {checksum[:12]})" if checksum else "")
            lines.append(f"strategy {strategy}: "
                         f"{self.strategies[strategy]} posting lists "
                         f"checksum-verified{suffix}")
        lines.append(f"documents: {self.documents} fingerprint-checked")
        for note in self.notes:
            lines.append(f"manifest: NOTE - {note}")
        if self.ok:
            lines.append("manifest: OK")
        else:
            for problem in self.problems:
                lines.append(f"manifest: FAIL - {problem}")
        return lines


def verify_manifest(store: IndexStore,
                    strategies: Sequence[str] | None = None,
                    ) -> ManifestReport:
    """Check a store's manifest end to end.

    Verifies the completion marker, recomputes every per-strategy
    posting-list checksum and the corpus fingerprint from the stored
    documents, and reports every divergence (it does not stop at the
    first problem -- operators want the full damage picture).

    A *segmented* store (one holding a ``segments.catalog``) is checked
    segment-aware instead: every live segment's checksum is recomputed
    over its own namespace, the live-document fingerprint is checked
    against the catalog, and leftovers of crash-interrupted mutations
    (orphaned rows/namespaces, tombstones awaiting compaction) are
    surfaced as notes -- they are invisible to queries, not damage.
    """
    from .segments import load_catalog
    report = ManifestReport()
    marker = store.get_metadata(BUILD_COMPLETE_KEY)
    if marker != BUILD_COMPLETE:
        report.problems.append(
            "build-completion marker missing or unset "
            f"(found {marker!r}); the build was interrupted or predates "
            "manifests")
    if store.get_metadata(MANIFEST_VERSION_KEY) != MANIFEST_VERSION:
        report.problems.append("manifest version missing or unsupported")
    catalog = None
    try:
        catalog = load_catalog(store)
    except CorruptIndexError as exc:
        report.problems.append(str(exc))
    names = list(strategies) if strategies else manifest_strategies(store)
    if catalog is not None:
        _verify_segments(store, catalog, report)
        # The catalog supersedes the plain checksum/fingerprint entries
        # for its own strategy: appends leave those stale by design
        # (refreshing them would cost a whole-index checksum per
        # append); compaction brings them back in sync.
        names = [name for name in names if name != catalog.strategy]
    elif not names:
        report.problems.append("no per-strategy checksums recorded")
    for strategy in names:
        expected = store.get_metadata(CHECKSUM_KEY_PREFIX + strategy)
        if expected is None:
            report.problems.append(
                f"no checksum recorded for strategy {strategy!r}")
            continue
        try:
            lists = namespace_lists(store, strategy)
        except StorageError as exc:
            report.problems.append(
                f"posting lists of strategy {strategy!r} are "
                f"unreadable: {exc}")
            continue
        if postings_checksum(lists) != expected:
            report.problems.append(
                f"posting-list checksum mismatch for strategy "
                f"{strategy!r} ({len(lists)} lists)")
        report.strategies[strategy] = len(lists)
        report.checksums[strategy] = expected
    if catalog is None:
        expected_fingerprint = store.get_metadata(CORPUS_FINGERPRINT_KEY)
        documents = [(doc_id, store.get_document(doc_id))
                     for doc_id in store.document_ids()]
        report.documents = len(documents)
        if expected_fingerprint is None:
            report.problems.append("no corpus fingerprint recorded")
        elif corpus_fingerprint(documents) != expected_fingerprint:
            report.problems.append(
                "corpus fingerprint mismatch: stored documents differ "
                "from the corpus the index was built from")
    return report


def _verify_segments(store: IndexStore, catalog,
                     report: ManifestReport) -> None:
    """The segment-aware arm of :func:`verify_manifest`."""
    from .segments import segment_namespace
    for record in catalog.segments:
        try:
            lists = namespace_lists(store, record.namespace)
        except StorageError as exc:
            report.problems.append(
                f"posting lists of segment {record.segment_id} "
                f"({record.namespace!r}) are unreadable: {exc}")
            continue
        if postings_checksum(lists) != record.checksum:
            report.problems.append(
                f"posting-list checksum mismatch for segment "
                f"{record.segment_id} ({record.namespace!r}, "
                f"{len(lists)} lists)")
        report.strategies[record.namespace] = len(lists)
        report.checksums[record.namespace] = record.checksum
    live_documents = []
    missing = []
    for doc_id in sorted(catalog.live_set):
        try:
            live_documents.append((doc_id, store.get_document(doc_id)))
        except StorageError:
            missing.append(doc_id)
    report.documents = len(live_documents)
    if missing:
        report.problems.append(
            f"live documents missing from the store: {missing}")
    elif corpus_fingerprint(live_documents) != catalog.live_fingerprint:
        report.problems.append(
            "live-corpus fingerprint mismatch: stored documents differ "
            "from the documents the segments were built from")
    tombstones = catalog.tombstone_count
    if tombstones:
        report.notes.append(
            f"{tombstones} tombstoned document(s) awaiting compaction")
    orphan_rows = sorted(set(store.document_ids())
                         - catalog.segment_doc_ids())
    if orphan_rows:
        report.notes.append(
            f"orphaned document rows {orphan_rows} from an interrupted "
            f"append; invisible to queries, reclaimed by compaction")
    known = {record.namespace for record in catalog.segments}
    for probe_id in range(catalog.next_id + 2):
        namespace = segment_namespace(catalog.strategy, probe_id)
        if namespace in known:
            continue
        if next(iter(store.keywords(namespace)), None) is not None:
            report.notes.append(
                f"orphaned posting namespace {namespace!r} from an "
                f"interrupted append or compaction; invisible to "
                f"queries, reclaimed by compaction")


# ----------------------------------------------------------------------
# Crash-safe file builds
# ----------------------------------------------------------------------
@contextmanager
def atomic_sqlite_build(path: str) -> Iterator[SQLiteStore]:
    """Build a SQLite index at ``path`` via temp-file + atomic rename.

    The store handed to the ``with`` body lives at ``path + ".building"``
    (same directory, so the final ``os.replace`` is atomic on POSIX).
    On success the temp file replaces ``path``; on any error -- or a
    process kill, which simply never reaches the rename -- the
    published path is untouched and the temp file is removed (or left
    behind by a kill, where the next build discards it).
    """
    temp_path = path + ".building"
    if os.path.exists(temp_path):
        os.remove(temp_path)
    store = SQLiteStore(temp_path)
    try:
        yield store
    except BaseException:
        store.close()
        with contextlib.suppress(OSError):
            os.remove(temp_path)
        raise
    store.close()
    os.replace(temp_path, path)
