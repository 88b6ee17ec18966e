"""The Index Creation Module's lifecycle owner (paper Figure 8).

:class:`IndexManager` owns everything about one strategy's XOnto-DIL
index *except* query execution: building, persistence into an
:class:`~repro.storage.interface.IndexStore` with the crash-safe
manifest protocol, validated loading with per-keyword degraded rebuilds,
and the bounded query-time :class:`~repro.core.cache.DILCache`. The
:class:`~repro.core.query.engine.XOntoRankEngine` facade delegates its
``build_index`` / ``load_index`` / ``dil_for`` surface here; the
federated engine gives each shard its own manager over the shard's
sub-corpus and store.

Corpus fingerprints (the manifest's defense against loading an index
built from different documents) are memoized per :class:`Corpus`
object -- serializing every document on every ``load_index`` was the
single hottest redundant step of the old engine. The memo is invalidated
when the corpus gains or loses documents; in-place mutation of a
document's nodes is outside the supported lifecycle (corpora are
read-only once indexed).
"""

from __future__ import annotations

import weakref
from typing import Iterable, MutableMapping

from ...ir.tokenizer import Keyword
from ...storage import manifest as store_manifest
from ...storage.errors import (CorruptIndexError, IncompatibleIndexError,
                               StorageError)
from ...storage.interface import IndexStore
from ...storage.segments import segment_view
from ...xmldoc.model import Corpus
from ...xmldoc.serializer import serialize
from ..cache import DILCache
from ..config import XOntoRankConfig
from ..obs.tracer import NULL_TRACER
from ..stats import (CODEC_LAZY_LISTS, CODEC_RAW_FALLBACKS,
                     FALLBACK_REBUILDS, INTEGRITY_FAILURES,
                     INTEGRITY_VALIDATIONS, CacheStats, StatsRegistry)
from .builder import IndexBuilder
from .dil import (DeweyInvertedList, XOntoDILIndex, index_key,
                  keyword_from_key)
from .segments import SegmentLifecycle
from .vocabulary import default_vocabulary

#: corpus object -> (corpus version, fingerprint). Keyed weakly so a
#: discarded corpus does not pin its fingerprint; the membership version
#: invalidates the entry when documents are added or removed (a plain
#: length check would miss a remove-then-add of the same count).
_FINGERPRINTS: MutableMapping[Corpus, tuple[int, str]] = (
    weakref.WeakKeyDictionary())


def memoized_corpus_fingerprint(
        corpus: Corpus,
        texts: list[tuple[int, str]] | None = None) -> str:
    """The corpus's manifest fingerprint, serialized at most once.

    ``texts`` lets a caller that already serialized every document (the
    build path persists them anyway) seed the memo for free.
    """
    cached = _FINGERPRINTS.get(corpus)
    if cached is not None and cached[0] == corpus.version:
        return cached[1]
    pairs = texts if texts is not None else [
        (document.doc_id, serialize(document)) for document in corpus]
    fingerprint = store_manifest.corpus_fingerprint(pairs)
    _FINGERPRINTS[corpus] = (corpus.version, fingerprint)
    return fingerprint


class IndexManager:
    """Build/load/persist lifecycle of one strategy's XOnto-DIL index."""

    def __init__(self, corpus: Corpus, builder: IndexBuilder,
                 strategy: str, config: XOntoRankConfig,
                 ontology=None, stats: StatsRegistry | None = None,
                 tracer=None, cache: DILCache | None = None) -> None:
        self.corpus = corpus
        self.builder = builder
        self.strategy = strategy
        self.config = config
        self.ontology = ontology
        self.stats = stats if stats is not None else StatsRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.dil_cache = cache if cache is not None else DILCache(
            capacity=config.dil_cache_capacity, stats=self.stats)
        #: The incremental (LSM-segment) lifecycle, bound lazily to the
        #: first store an add/remove/compact call targets.
        self._segments: SegmentLifecycle | None = None
        #: Read-through store for query-time cache misses (serving
        #: mode); see :meth:`attach_read_store`.
        self._read_store: IndexStore | None = None
        self._read_on_error = None

    # ------------------------------------------------------------------
    # Query-time DIL access
    # ------------------------------------------------------------------
    def dil_for(self, keyword: Keyword) -> DeweyInvertedList:
        """The keyword's XOnto-DIL, built on first use.

        Cached under ``(text, is_phrase)``: a phrase keyword and a term
        keyword with identical text are distinct cache entries. With an
        attached read store (:meth:`attach_read_store`), a miss is
        served from the store before falling back to a corpus build.
        """
        with self.tracer.span("query.dil_fetch",
                              keyword=keyword.text) as span:
            if self._read_store is not None:
                build = lambda: self._read_through(keyword)
            elif self._segments is not None:
                build = lambda: self._segments.build_dil(keyword)
            else:
                build = lambda: self.builder.build_keyword(keyword)[0]
            dil = self.dil_cache.get_or_build(
                (keyword.text, keyword.is_phrase), build)
            span.annotate(postings=len(dil))
            return dil

    # ------------------------------------------------------------------
    # Read-through serving mode
    # ------------------------------------------------------------------
    def attach_read_store(self, store: IndexStore, *,
                          validate: bool = True,
                          on_error=None) -> None:
        """Serve DIL-cache misses from ``store`` instead of rebuilding.

        The serving layer's bounded-memory mode: with a bounded
        :class:`~repro.core.cache.DILCache`, evicted posting lists are
        re-read from the persisted index (cheap) rather than re-derived
        from the corpus (expensive). The store is validated and read
        as :meth:`load_index` does (:meth:`_logical_view`).

        ``on_error`` decides what a query-time storage failure does:
        ``None`` (default) propagates the
        :class:`~repro.storage.errors.StorageError` to the caller --
        the strict mode a federated serving layer needs so its circuit
        breaker sees shard faults. A callable ``on_error(exc) -> bool``
        returning True absorbs the failure by rebuilding the list from
        the corpus (counted under ``engine.fallback.rebuilds``,
        PR 2's degradation path); returning False re-raises.

        A keyword the store does not hold (a query word outside the
        indexed vocabulary) is always built from the corpus -- that is
        vocabulary coverage, not a fault.
        """
        self._read_store = self._logical_view(store, validate)
        self._read_on_error = on_error

    def detach_read_store(self) -> None:
        """Back to corpus-built misses (does not close the store)."""
        self._read_store = None
        self._read_on_error = None

    @property
    def read_store(self) -> IndexStore | None:
        return self._read_store

    def _read_through(self, keyword: Keyword) -> DeweyInvertedList:
        dil = self._fetch_or_degrade(self._read_store, index_key(keyword),
                                     keyword, self._read_on_error)
        if dil is None:
            # Not a fault: the keyword is simply outside the
            # persisted vocabulary (stores never hold empty lists).
            return self.builder.build_keyword(keyword)[0]
        return dil

    def _fetch_or_degrade(self, store: IndexStore, key: str,
                          keyword: Keyword,
                          on_error) -> DeweyInvertedList | None:
        """One stored posting list (``None`` when the store holds none
        for the key) -- and the one place a failed store read becomes a
        rebuild or a raise, for :meth:`load_index` and read-through
        alike. An undecodable list is a :class:`CorruptIndexError`; any
        other :class:`StorageError` is kept as it came. ``on_error`` is
        :meth:`attach_read_store`'s: ``None`` raises, a callable
        returning True rebuilds the list from the corpus (counted under
        ``engine.fallback.rebuilds``)."""
        failure: StorageError
        try:
            return self._dil_from_store(store, key, keyword)
        except ValueError as exc:
            failure = CorruptIndexError(
                f"stored posting list for {key!r} is corrupt: {exc}")
            failure.__cause__ = exc
        except StorageError as exc:
            failure = exc
        if on_error is None or not on_error(failure):
            raise failure
        self.stats.increment(FALLBACK_REBUILDS)
        return self.builder.build_keyword(keyword)[0]

    def _dil_from_store(self, store: IndexStore, key: str,
                        keyword: Keyword) -> DeweyInvertedList | None:
        """One keyword's DIL out of ``store``, lazily when possible.

        A store exposing ``get_posting_block`` (the mmap backend)
        serves most lists as compact blocks wrapped *without decoding a
        posting* -- construction cost is the block's document
        directory, and bounded top-k can prune whole documents from the
        directory's ``doc_max`` sidecar alone. Raw records and
        block-less backends take the eager decoded path. Returns
        ``None`` when the store holds no postings for the key.
        """
        block_reader = getattr(store, "get_posting_block", None)
        if block_reader is not None:
            block = block_reader(self.strategy, key)
            if block is not None:
                self.stats.increment(CODEC_LAZY_LISTS)
                return DeweyInvertedList.from_block(keyword, block)
        encoded = store.get_postings(self.strategy, key)
        if not encoded:
            return None
        if block_reader is not None:
            self.stats.increment(CODEC_RAW_FALLBACKS)
        return DeweyInvertedList.from_encoded(keyword, encoded)

    def cache_stats(self) -> CacheStats:
        """Hit/miss/eviction counters of the DIL cache."""
        return self.dil_cache.stats()

    # ------------------------------------------------------------------
    # Incremental maintenance (LSM segments)
    # ------------------------------------------------------------------
    def _lifecycle(self, store: IndexStore | None) -> SegmentLifecycle:
        if store is None:
            raise ValueError(
                "incremental index operations require a store")
        if self._segments is None or self._segments.store is not store:
            self._segments = SegmentLifecycle(self, store)
        return self._segments

    def add_documents(self, documents, store: IndexStore,
                      radius: int = 2):
        """Index new documents as one immutable appended segment --
        no existing segment is rebuilt. Returns the new catalog."""
        return self._lifecycle(store).append(documents, radius=radius)

    def remove_documents(self, doc_ids: Iterable[int],
                         store: IndexStore):
        """Tombstone documents (one catalog write; rows are reclaimed
        by the next :meth:`compact`). Returns the new catalog."""
        return self._lifecycle(store).remove(doc_ids)

    def compact(self, store: IndexStore):
        """Fold the store's live segments into one and reclaim dead
        rows; the logical index is unchanged. Returns the new catalog."""
        return self._lifecycle(store).compact()

    # ------------------------------------------------------------------
    # Pre-processing phase
    # ------------------------------------------------------------------
    def build_index(self, vocabulary: Iterable[str] | None = None,
                    radius: int = 2,
                    store: IndexStore | None = None) -> XOntoDILIndex:
        """Pre-build DILs for a whole vocabulary (Section V-B).

        Without an explicit vocabulary, ontology-aware strategies use
        the paper's experimental rule (document words plus concepts
        within ``radius`` relationships of referenced concepts); the
        XRANK baseline indexes the document words.
        """
        if vocabulary is None:
            vocabulary = default_vocabulary(
                self.corpus, self.ontology, self.strategy, radius,
                self.config.text_policy)
        vocabulary = set(vocabulary)
        if store is not None:
            # Crash-safety protocol: flip the store to *incomplete*
            # before the first posting lands, so a build killed at any
            # later point leaves a store that load_index rejects; the
            # completion marker is re-set only by finalize_manifest
            # after everything else has been written.
            store_manifest.mark_build_started(store)
        with self.tracer.span("index.serial_build",
                              keywords=len(vocabulary)):
            index = self.builder.build(vocabulary,
                                       strategy_name=self.strategy)
        if store is not None:
            with self.tracer.span("storage.save_index"):
                index.save(store)
        for key, dil in index.lists.items():
            keyword = keyword_from_key(key)
            self.dil_cache.put((keyword.text, keyword.is_phrase), dil)
        if store is not None:
            self._persist_corpus_and_manifest(store)
        return index

    def _persist_corpus_and_manifest(self, store: IndexStore) -> None:
        document_texts = []
        for document in self.corpus:
            text = serialize(document)
            store.put_document(document.doc_id, text)
            document_texts.append((document.doc_id, text))
        store.put_metadata_many([
            ("strategy", self.strategy),
            ("decay", str(self.config.decay)),
            ("threshold", str(self.config.threshold)),
            ("t", str(self.config.t))])
        store_manifest.finalize_manifest(
            store, self.strategy,
            memoized_corpus_fingerprint(self.corpus, document_texts))

    # ------------------------------------------------------------------
    # Load phase
    # ------------------------------------------------------------------
    def load_index(self, store: IndexStore, *, validate: bool = True,
                   fallback: bool = True) -> int:
        """Warm the DIL cache from a persisted index; returns list
        count.

        With ``validate=True`` (the default) the store's manifest is
        checked first: an interrupted build raises
        :class:`CorruptIndexError`, and a store built with a different
        strategy, decay/threshold/``t``, or corpus raises
        :class:`IncompatibleIndexError` -- silently loading such an
        index would corrupt every ranking.

        With ``fallback=True`` (the default) a posting list that fails
        to load -- a transient fault the caller's retries did not clear,
        or a corrupt/undecodable list -- is rebuilt from the corpus
        instead of failing the load (counted under
        ``engine.fallback.rebuilds``); ``fallback=False`` re-raises,
        for fail-fast operation.
        """
        store = self._logical_view(store, validate)
        on_error = (lambda failure: True) if fallback else None
        with self.tracer.span("storage.load_index",
                              strategy=self.strategy) as span:
            loaded = 0
            for key in sorted(store.keywords(self.strategy)):
                keyword = keyword_from_key(key)
                dil = self._fetch_or_degrade(store, key, keyword,
                                             on_error)
                if dil is None:
                    dil = DeweyInvertedList(keyword)
                self.dil_cache.put((keyword.text, keyword.is_phrase), dil)
                loaded += 1
            span.annotate(lists=loaded)
        return loaded

    def _logical_view(self, store: IndexStore,
                      validate: bool) -> IndexStore:
        """``store`` as every reader sees it, validated once unless
        the caller opted out. A store holding a segment catalog is read
        through its :class:`~repro.storage.segments.SegmentView`: the
        *logical* (merged, tombstone-masked) posting lists,
        byte-identical to a from-scratch build of the live documents."""
        view = segment_view(store)
        if validate:
            self.validate_store(view)
        return view

    def validate_store(self, store: IndexStore) -> None:
        """Reject interrupted builds and parameter/corpus mismatches.

        ``store`` is the logical view (:meth:`_logical_view`), so a
        segmented store's corpus fingerprint is checked against the
        *live* documents.
        """
        try:
            store_manifest.require_complete(store)
            stored_strategy = store.get_metadata("strategy")
            if stored_strategy != self.strategy:
                raise IncompatibleIndexError(
                    f"index store was built for strategy "
                    f"{stored_strategy!r}, engine runs "
                    f"{self.strategy!r}")
            parameters = (("decay", self.config.decay),
                          ("threshold", self.config.threshold),
                          ("t", self.config.t))
            for name, expected in parameters:
                raw = store.get_metadata(name)
                try:
                    stored = None if raw is None else float(raw)
                except ValueError:
                    stored = None
                if stored != expected:
                    raise IncompatibleIndexError(
                        f"index store was built with {name}={raw}, "
                        f"engine is configured with {name}={expected}")
            stored_fingerprint = store.get_metadata(
                store_manifest.CORPUS_FINGERPRINT_KEY)
            if stored_fingerprint != memoized_corpus_fingerprint(
                    self.corpus):
                raise IncompatibleIndexError(
                    "index store was built from a different corpus "
                    "(corpus fingerprint mismatch)")
        except StorageError:
            self.stats.increment(INTEGRITY_FAILURES)
            raise
        self.stats.increment(INTEGRITY_VALIDATIONS)
