"""Incremental (LSM-style) index maintenance over a persisted store.

The classic lifecycle pays a whole-corpus rebuild for every new CDA
document. :class:`SegmentLifecycle` replaces that with log-structured
maintenance on top of :mod:`repro.storage.segments`:

* **append** -- new documents become one immutable segment: posting
  lists scoped to the new documents, written into a fresh namespace,
  published by a single catalog write. Keywords already held by older
  segments are re-built *only* when the new documents can actually
  touch them (their tokens appear in the new text, or they reach a
  concept a new code node resolves to) -- a provably exact filter,
  since a keyword failing both tests has NodeScore zero on every new
  element. Keywords new to the index are backfilled over all live
  documents into the same segment.
* **remove** -- a tombstone: the document leaves the catalog's live
  set (one metadata write); its rows linger, masked, until compaction.
* **compact** -- folds every live segment into one via the
  newest-wins run merge (each live document's run copied from the
  newest segment holding it, no posting decoded), commits the new
  catalog, then garbage-collects dead namespaces, tombstoned document
  rows and any orphans from crashed mutations, and gives the freed
  file space back.

Every namespace write is one
:func:`~repro.storage.manifest.replace_namespace` batch and an append's
documents are one ``put_documents_many`` batch, so on SQLite each lands
(or rolls back) as one transaction; see docs/STORAGE.md, "Interaction
with manifests and segments".

**Statistics epochs.** NodeScores embed corpus-global BM25 statistics
(element count, document frequencies, per-keyword normalization), so a
segment's scores are pinned to the statistics *epoch* it was written
under. When an appended document is already part of the engine's
scoring substrate (the pinned-universe configuration the differential
tests build, and the CLI path where the engine loads the whole data
directory), every segment shares one epoch and the segmented index is
byte-identical to a from-scratch build. When the substrate has to grow
at append time, older segments keep their older epoch until the next
full rebuild -- the documented departure from the paper's static
Table III builds (see docs/PAPER_MAP.md).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Sequence

from ...ir.tokenizer import Keyword, tokenize
from ...storage.interface import IndexStore
from ...storage.manifest import (CHECKSUM_KEY_PREFIX,
                                 CORPUS_FINGERPRINT_KEY,
                                 corpus_fingerprint, replace_namespace,
                                 require_complete, store_checksum)
from ...storage.errors import IncompatibleIndexError
from ...storage.segments import (SegmentCatalog, SegmentRecord,
                                 load_catalog, merged_block, merged_lists,
                                 save_catalog, segment_namespace)
from ...xmldoc.model import Corpus, XMLDocument
from ...xmldoc.serializer import serialize
from ..config import XRANK
from ..obs.tracer import NULL_TRACER
from ..stats import (APPEND_DOCS, APPEND_KEYWORDS_BUILT,
                     APPEND_KEYWORDS_SKIPPED, COMPACTIONS,
                     SEGMENTS_LIVE, TOMBSTONES)
from .dil import DeweyInvertedList, index_key, keyword_from_key
from .vocabulary import corpus_vocabulary, experiment_vocabulary


def compact_store(store: IndexStore, tracer=None) -> SegmentCatalog | None:
    """Fold a segmented store's live segments into one.

    Pure merge, no rescoring: the logical index (and therefore
    ``canonical_dump``) is byte-identical before and after. Returns the
    new catalog, or ``None`` when the store holds no segment catalog.
    The single ``save_catalog`` write is the commit point; everything
    after it is garbage collection that a crash can only leave as
    harmless orphans for the *next* compaction, ending with
    :meth:`~IndexStore.reclaim_space` (``VACUUM`` on SQLite) so the
    file shrinks by what the collection freed.
    """
    tracer = tracer if tracer is not None else NULL_TRACER
    catalog = load_catalog(store)
    if catalog is None:
        return None
    with tracer.span("index.compact",
                     segments=len(catalog.segments)) as span:
        lists = merged_lists(store, catalog)
        namespace = segment_namespace(catalog.strategy, catalog.next_id)
        record = SegmentRecord(
            segment_id=catalog.next_id, namespace=namespace,
            doc_ids=tuple(catalog.live),
            checksum=replace_namespace(store, namespace, lists))
        compacted = SegmentCatalog(
            strategy=catalog.strategy, next_id=catalog.next_id + 1,
            live=catalog.live,
            live_fingerprint=catalog.live_fingerprint,
            segments=(record,))
        save_catalog(store, compacted)  # <-- the commit point
        # Post-commit GC: dead namespaces, tombstoned/orphaned document
        # rows, the plain manifest entries brought back in sync with
        # the logical index, and last the file space all that freed.
        for old in catalog.segments:
            replace_namespace(store, old.namespace, {})
        for doc_id in sorted(set(store.document_ids())
                             - catalog.live_set):
            store.delete_document(doc_id)
        store.put_metadata_many([
            (CHECKSUM_KEY_PREFIX + catalog.strategy, record.checksum),
            (CORPUS_FINGERPRINT_KEY, catalog.live_fingerprint)])
        store.reclaim_space()
        span.annotate(keywords=len(lists),
                      tombstones_reclaimed=catalog.tombstone_count)
    return compacted


def reset_segments(store: IndexStore, strategy: str,
                   doc_ids: Sequence[int], checksum: str,
                   fingerprint: str) -> None:
    """Make a full build of ``strategy`` the only segment of a store
    that holds that strategy's segment catalog (no-op otherwise): the
    other segments' namespaces are cleared and the catalog names the
    build's namespace and documents alone, as if it had adopted a
    fresh build (:meth:`SegmentLifecycle._bootstrap_catalog`)."""
    catalog = load_catalog(store)
    if catalog is None or catalog.strategy != strategy:
        return
    for record in catalog.segments:
        if record.namespace != strategy:
            replace_namespace(store, record.namespace, {})
    live = tuple(sorted(doc_ids))
    save_catalog(store, SegmentCatalog(
        strategy=strategy, next_id=catalog.next_id, live=live,
        live_fingerprint=fingerprint,
        segments=(SegmentRecord(segment_id=0, namespace=strategy,
                                doc_ids=live, checksum=checksum),)))


class SegmentLifecycle:
    """Incremental add/remove/compact over one manager + one store."""

    def __init__(self, manager, store: IndexStore) -> None:
        if manager.config.use_elemrank:
            raise ValueError(
                "incremental indexing does not support use_elemrank: "
                "ElemRank weights are whole-corpus and would silently "
                "drift across segments")
        self.manager = manager
        self.store = store
        require_complete(store)
        self._check_parameters(store)
        catalog = load_catalog(store)
        if catalog is None:
            catalog = self._bootstrap_catalog(store)
        if catalog.strategy != manager.strategy:
            raise IncompatibleIndexError(
                f"segment catalog was built for strategy "
                f"{catalog.strategy!r}, engine runs "
                f"{manager.strategy!r}")
        self.catalog = catalog
        #: doc_id -> serialized XML of every document any segment holds
        #: (live or tombstoned) -- the content ledger behind re-add
        #: checks and cheap live-fingerprint recomputation.
        self.universe_texts: dict[int, str] = {
            doc_id: store.get_document(doc_id)
            for doc_id in sorted(catalog.segment_doc_ids())}
        self._keys: set[str] | None = None
        self._check_corpus_matches_live()
        self.manager.stats.increment_many({
            SEGMENTS_LIVE: len(catalog.segments),
            TOMBSTONES: catalog.tombstone_count})

    # ------------------------------------------------------------------
    # Bootstrap / validation
    # ------------------------------------------------------------------
    def _check_parameters(self, store: IndexStore) -> None:
        manager = self.manager
        stored_strategy = store.get_metadata("strategy")
        if stored_strategy != manager.strategy:
            raise IncompatibleIndexError(
                f"index store was built for strategy {stored_strategy!r}, "
                f"engine runs {manager.strategy!r}")
        for name, expected in (("decay", manager.config.decay),
                               ("threshold", manager.config.threshold),
                               ("t", manager.config.t)):
            raw = store.get_metadata(name)
            try:
                stored = None if raw is None else float(raw)
            except ValueError:
                stored = None
            if stored != expected:
                raise IncompatibleIndexError(
                    f"index store was built with {name}={raw}, "
                    f"engine is configured with {name}={expected}")

    def _bootstrap_catalog(self, store: IndexStore) -> SegmentCatalog:
        """Adopt a classic full build as segment 0 of a new catalog."""
        strategy = self.manager.strategy
        doc_ids = tuple(store.document_ids())
        checksum = store.get_metadata(CHECKSUM_KEY_PREFIX + strategy)
        if checksum is None:
            checksum = store_checksum(store, strategy)
        fingerprint = store.get_metadata(CORPUS_FINGERPRINT_KEY)
        if fingerprint is None:
            fingerprint = corpus_fingerprint(
                (doc_id, store.get_document(doc_id))
                for doc_id in doc_ids)
        catalog = SegmentCatalog(
            strategy=strategy, next_id=1, live=doc_ids,
            live_fingerprint=fingerprint,
            segments=(SegmentRecord(segment_id=0, namespace=strategy,
                                    doc_ids=doc_ids, checksum=checksum),))
        save_catalog(store, catalog)
        return catalog

    def _check_corpus_matches_live(self) -> None:
        """Every live document must be present in the engine's corpus
        with identical content (the corpus may hold *more* -- documents
        staged for append, as when the CLI loads the whole data
        directory)."""
        corpus = self.manager.corpus
        pairs = []
        for doc_id in sorted(self.catalog.live_set):
            if doc_id not in corpus:
                raise IncompatibleIndexError(
                    f"store's live document {doc_id} is missing from "
                    f"the engine's corpus")
            pairs.append((doc_id, serialize(corpus.get(doc_id))))
        if corpus_fingerprint(pairs) != self.catalog.live_fingerprint:
            raise IncompatibleIndexError(
                "engine corpus differs from the store's live documents "
                "(live-corpus fingerprint mismatch)")

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    @property
    def _builder(self):
        """The unscoped builder: the lifecycle applies its own
        per-operation document scoping, so a shard-scoped wrapper is
        unwrapped to the shared corpus-global builder underneath."""
        builder = self.manager.builder
        return getattr(builder, "inner", builder)

    def known_keys(self) -> set[str]:
        """Union of the index keys held by any live segment."""
        if self._keys is None:
            keys: set[str] = set()
            for record in self.catalog.segments:
                keys.update(self.store.keywords(record.namespace))
            self._keys = keys
        return self._keys

    def _commit(self, catalog: SegmentCatalog) -> None:
        save_catalog(self.store, catalog)
        self.catalog = catalog
        self._keys = None
        self.manager.dil_cache.clear()

    def _live_fingerprint(self, live: Iterable[int]) -> str:
        return corpus_fingerprint((doc_id, self.universe_texts[doc_id])
                                  for doc_id in sorted(live))

    # ------------------------------------------------------------------
    # Query-time view
    # ------------------------------------------------------------------
    def build_dil(self, keyword: Keyword) -> DeweyInvertedList:
        """The keyword's *logical* DIL: live segments merged newest-wins
        with tombstones masked; an on-demand scoped build for keywords
        no segment has indexed."""
        key = index_key(keyword)
        if key in self.known_keys():
            with self.manager.tracer.span(
                    "query.segment_merge", keyword=keyword.text,
                    segments=len(self.catalog.segments)) as span:
                block = merged_block(self.store, self.catalog, key)
                if block is None:
                    return DeweyInvertedList(keyword)
                span.annotate(postings=block.posting_count)
            return DeweyInvertedList.from_block(keyword, block)
        return self._builder.build_keyword(keyword,
                                           self.catalog.live_set)[0]

    # ------------------------------------------------------------------
    # Append
    # ------------------------------------------------------------------
    def append(self, documents: Sequence[XMLDocument],
               radius: int = 2) -> SegmentCatalog:
        """Index new documents as one immutable segment."""
        documents = list(documents)
        if not documents:
            raise ValueError("no documents to append")
        ids = [document.doc_id for document in documents]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate document ids in batch: {ids}")
        manager = self.manager
        live = self.catalog.live_set
        texts: dict[int, str] = {}
        for document in documents:
            if document.doc_id in live:
                raise ValueError(
                    f"document {document.doc_id} is already live in "
                    f"the index; remove it first to replace it")
            text = serialize(document)
            known = self.universe_texts.get(document.doc_id)
            if known is not None and known != text:
                raise ValueError(
                    f"document {document.doc_id} was indexed before "
                    f"with different content; re-adding requires "
                    f"byte-identical content (documents are immutable)")
            if document.doc_id in manager.corpus and \
                    serialize(manager.corpus.get(document.doc_id)) != text:
                raise ValueError(
                    f"document {document.doc_id} differs from the "
                    f"engine corpus's copy")
            texts[document.doc_id] = text
        with manager.tracer.span("index.append_segment",
                                 docs=len(documents)) as span:
            new_ids = frozenset(ids)
            built, skipped, lists = self._build_segment_lists(
                documents, new_ids, radius)
            namespace = segment_namespace(self.catalog.strategy,
                                          self.catalog.next_id)
            checksum = replace_namespace(self.store, namespace, lists)
            self.store.put_documents_many(texts.items())
            self.universe_texts.update(texts)
            record = SegmentRecord(
                segment_id=self.catalog.next_id, namespace=namespace,
                doc_ids=tuple(sorted(new_ids)), checksum=checksum)
            live_after = live | new_ids
            catalog = self.catalog.with_segment(
                record, live_after, self._live_fingerprint(live_after))
            self._commit(catalog)
            for document in documents:
                if document.doc_id not in manager.corpus:
                    manager.corpus.add(document)
            manager.stats.increment_many({
                SEGMENTS_LIVE: 1,
                APPEND_DOCS: len(documents),
                APPEND_KEYWORDS_BUILT: built,
                APPEND_KEYWORDS_SKIPPED: skipped})
            span.annotate(segment=record.segment_id,
                          keywords_built=built,
                          keywords_skipped=skipped)
        return catalog

    def _build_segment_lists(self, documents: Sequence[XMLDocument],
                             new_ids: frozenset[int], radius: int,
                             ) -> tuple[int, int, dict]:
        """Posting lists of one append segment, in key order.

        Keywords already indexed somewhere are built scoped to the *new*
        documents (older segments already cover the rest) unless the
        exactness filter proves them untouchable; keywords new to the
        index are backfilled over every live document.
        """
        manager = self.manager
        builder = self._builder
        element_index = builder.element_index
        grew = False
        for document in documents:
            if not element_index.has_document(document.doc_id):
                element_index.add_document(document)
                grew = True
        if grew:
            builder.node_scorer.invalidate()
        scoped = manager.builder
        if scoped is not builder and hasattr(scoped, "extend_scope"):
            scoped.extend_scope(new_ids)

        new_corpus = Corpus(documents)
        text_policy = manager.config.text_policy
        if manager.strategy == XRANK or manager.ontology is None:
            new_vocabulary = corpus_vocabulary(new_corpus, text_policy)
        else:
            new_vocabulary = experiment_vocabulary(
                new_corpus, manager.ontology, radius=radius,
                text_policy=text_policy)
        new_tokens: set[str] = set()
        for document in new_corpus:
            for node in document.iter():
                new_tokens.update(
                    tokenize(node.textual_description(text_policy)))
        new_concepts = element_index.concepts_in(new_ids)

        lists: dict[str, list] = {}
        built = skipped = 0
        for key in sorted(self.known_keys()):
            keyword = keyword_from_key(key)
            if self._cannot_touch(keyword, new_tokens, new_concepts):
                skipped += 1
                continue
            built += 1
            dil, _ = builder.build_keyword(keyword, new_ids)
            if dil:
                lists[key] = dil
        live_after = self.catalog.live_set | new_ids
        for word in sorted(new_vocabulary):
            keyword = Keyword.from_text(word)
            key = index_key(keyword)
            if key in self.known_keys():
                continue
            built += 1
            dil, _ = builder.build_keyword(keyword, live_after)
            if dil:
                lists[key] = dil
        return built, skipped, dict(sorted(lists.items()))

    def _cannot_touch(self, keyword: Keyword, new_tokens: set[str],
                      new_concepts: set[str]) -> bool:
        """Exactness filter: True only when every new element provably
        has NodeScore zero for the keyword.

        IRS needs each keyword token present in some new element's
        text; the ontological term needs a new code node resolving to a
        concept the keyword's OntoScore map reaches. Failing both, the
        keyword's posting list gains nothing from the new documents, so
        skipping the build writes the exact same (empty) delta.
        """
        if set(keyword.tokens) <= new_tokens:
            return False
        if not new_concepts:
            return True
        onto = self._builder.ontoscore.compute(keyword)
        return not any(onto.get(code, 0.0) > 0.0
                       for code in new_concepts)

    # ------------------------------------------------------------------
    # Remove / compact
    # ------------------------------------------------------------------
    def remove(self, doc_ids: Iterable[int]) -> SegmentCatalog:
        """Tombstone documents: one catalog write, no posting I/O."""
        doc_ids = list(doc_ids)
        if not doc_ids:
            raise ValueError("no documents to remove")
        live = set(self.catalog.live_set)
        for doc_id in doc_ids:
            if doc_id not in live:
                raise KeyError(f"no live document with id {doc_id}")
            live.discard(doc_id)
        manager = self.manager
        with manager.tracer.span("index.tombstone",
                                 docs=len(doc_ids)):
            catalog = replace(self.catalog, live=tuple(sorted(live)),
                              live_fingerprint=self._live_fingerprint(live))
            self._commit(catalog)
            for doc_id in doc_ids:
                if doc_id in manager.corpus:
                    manager.corpus.remove(doc_id)
            scoped = manager.builder
            if scoped is not self._builder and \
                    hasattr(scoped, "shrink_scope"):
                scoped.shrink_scope(doc_ids)
            manager.stats.increment(TOMBSTONES, len(doc_ids))
        return catalog

    def compact(self) -> SegmentCatalog:
        """Fold every live segment into one and reclaim dead rows."""
        before = self.catalog
        catalog = compact_store(self.store, tracer=self.manager.tracer)
        assert catalog is not None  # a lifecycle always has a catalog
        self.catalog = catalog
        self._keys = None
        # Tombstoned documents are gone from the store for good; the
        # content ledger follows (a post-compaction re-add is a plain
        # new add).
        self.universe_texts = {
            doc_id: text for doc_id, text
            in self.universe_texts.items()
            if doc_id in catalog.live_set}
        self.manager.stats.increment_many({
            COMPACTIONS: 1,
            SEGMENTS_LIVE: 1 - len(before.segments),
            TOMBSTONES: -before.tombstone_count})
        return catalog
