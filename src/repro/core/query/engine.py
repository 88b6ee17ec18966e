"""The XOntoRank engine: the system facade (paper Figure 8).

A thin coordinator over the three layered services that mirror the
architecture diagram:

* the :class:`~repro.core.index.manager.IndexManager` owns the Index
  Creation Module's lifecycle -- building, persistence, validated
  loading, and the bounded DIL cache;
* the :class:`~repro.core.query.pipeline.QueryPipeline` is the Query
  Module -- an explicit parse → dil_fetch → merge → rank stage chain
  running XRANK's DIL algorithm;
* the Database Access Module methods (:meth:`fragment`,
  :meth:`snippet`) resolve result Dewey IDs back to XML fragments.

Typical use::

    engine = XOntoRankEngine(corpus, ontology, strategy=RELATIONSHIPS)
    results = engine.search('"bronchial structure" theophylline', k=5)
    fragment = engine.fragment(results[0])

Both engines implement one protocol, :class:`SearchEngine`: this class
is its one-shard *leaf*, and
:class:`~repro.core.query.federated.FederatedEngine` is the *composite*
over N >= 1 leaves (docs/ARCHITECTURE.md, "The engine protocol").
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable

from ...ir.tokenizer import Keyword, KeywordQuery
from ...ontology.api import TerminologyService
from ...ontology.model import Ontology
from ...storage.errors import StorageError
from ...storage.interface import IndexStore
from ...xmldoc.model import Corpus, XMLNode
from ...xmldoc.serializer import serialize
from ..cache import DILCache
from ..config import (DEFAULT_CONFIG, GRAPH, ONTOLOGY_STRATEGIES,
                      RELATIONSHIPS, TAXONOMY, XRANK, XOntoRankConfig)
from ..deadline import Deadline
from ..index.builder import IndexBuilder
from ..index.dil import DeweyInvertedList, XOntoDILIndex
from ..index.manager import IndexManager
from ..obs.tracer import NULL_TRACER, Tracer
from ..ontoscore.base import SeedScorer
from ..ontoscore.factory import make_ontoscore, make_seed_scorer
from ..scoring import ElementIndex
from ..stats import CacheStats, StatsRegistry
from .dil_algorithm import DILQueryProcessor
from .naive import NaiveEvaluator
from .pipeline import QueryPipeline
from .results import QueryResult, SearchOutcome


class SearchEngine:
    """The engine protocol the CLI, the server and the experiments use.

    Two implementations: :class:`XOntoRankEngine`, the one-shard leaf,
    and :class:`~repro.core.query.federated.FederatedEngine`, the
    composite over N >= 1 leaves. Each provides :attr:`shard_count` and
    :meth:`search_outcome`; everything here is written once on top of
    those and of the corpus-global builder both construct through
    :meth:`_make_builder`.
    """

    def __init__(self, corpus: Corpus, ontology: Ontology | None,
                 strategy: str, config: XOntoRankConfig,
                 tracer: Tracer | None,
                 stats: StatsRegistry | None) -> None:
        if strategy != XRANK and ontology is None:
            raise ValueError(
                f"strategy {strategy!r} needs an ontology; "
                f"use strategy='xrank' for ontology-free search")
        self.corpus = corpus
        self.ontology = ontology
        self.strategy = strategy
        self.config = config
        self.stats = stats if stats is not None else StatsRegistry()
        # One tracer threads every hot path; a tracer without its own
        # registry adopts the engine's, so each span also feeds the
        # timer histogram of the same name.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if tracer is not None and tracer.registry is None:
            tracer.registry = self.stats
        self.terminology: TerminologyService | None = None
        self._narrative_mapper = None
        self._narrative_lock = threading.Lock()

    def _make_builder(self, element_index: ElementIndex | None,
                      seed_scorer: SeedScorer | None) -> IndexBuilder:
        """The corpus-global scoring substrate (full-text statistics,
        OntoScore computer, optional ElemRank weights). An injected
        ``element_index`` (covering at least this corpus) pins the
        statistics epoch externally, e.g. to compare incremental growth
        against full rebuilds."""
        self.terminology = (TerminologyService([self.ontology])
                            if self.ontology is not None else None)
        resolver = (self.terminology.resolve
                    if self.terminology is not None else None)
        config = self.config
        if element_index is None:
            element_index = ElementIndex(
                self.corpus, text_policy=config.text_policy,
                concept_resolver=resolver, k1=config.bm25_k1,
                b=config.bm25_b, ir_function=config.ir_function)
        ontoscore = make_ontoscore(self.strategy, self.ontology, config,
                                   seed_scorer=seed_scorer)
        node_weights = None
        if config.use_elemrank:
            from ..elemrank import ElemRankComputer
            node_weights = ElemRankComputer(
                self.corpus).normalized_weights()
        return IndexBuilder(element_index, ontoscore,
                            node_weights=node_weights,
                            tracer=self.tracer)

    def attach_ontology_cache(self, store: IndexStore) -> "OntoScoreCache | None":
        """Read OntoScore expansions through a persisted cache store.

        Binds ``store`` to this engine's ontology fingerprint, strategy
        and expansion parameters (invalidating any mismatched cache
        generation it holds) and attaches it to the strategy computer
        -- the one every shard builds through. Returns the attached
        :class:`~repro.core.ontoscore.cache.OntoScoreCache`, or
        ``None`` for the ontology-free XRANK strategy, which has
        nothing to cache.
        """
        if self.ontology is None or self.strategy == XRANK:
            return None
        from ..ontoscore.cache import OntoScoreCache, expansion_params
        cache = OntoScoreCache(
            store, self.ontology.fingerprint(), self.strategy,
            expansion_params(self.config), stats=self.stats)
        self.ontoscore.attach_persistent_cache(cache)
        return cache

    # ------------------------------------------------------------------
    # Query phase
    # ------------------------------------------------------------------
    @property
    def shard_count(self) -> int:
        """How many shards answer a query (one breaker each when
        served)."""
        raise NotImplementedError

    def search_outcome(self, query: str | KeywordQuery,
                       k: int | None = None, *,
                       deadline: "Deadline | None" = None,
                       skip_shards: Iterable[int] = (),
                       on_shard_error: "Callable[[int, StorageError], bool] | None" = None,
                       ) -> SearchOutcome:
        """:meth:`search` plus serving-quality annotations.

        ``k=None`` falls back to ``config.top_k``. With a ``deadline``,
        expiry between per-document merges returns the best-so-far
        prefix with ``partial=True``; expiry before any result could
        exist raises :class:`~repro.core.deadline.DeadlineExceeded`.

        ``skip_shards`` are not queried at all (their circuit breaker
        is open); a shard raising a
        :class:`~repro.storage.errors.StorageError` is offered to
        ``on_shard_error(shard, error)`` -- returning True absorbs the
        failure and serves without that shard, returning False (or
        passing no handler) re-raises it. Every shard that contributed
        nothing lands in the outcome's ``degraded_shards``.
        """
        raise NotImplementedError

    def search(self, query: str | KeywordQuery, k: int | None = None,
               *, deadline: "Deadline | None" = None,
               ) -> list[QueryResult]:
        """Top-k ontology-aware keyword search.

        ``k=None`` falls back to ``config.top_k``; any given ``k`` runs
        the bounded (document-skipping) merge mode, which returns the
        byte-identical ranking of full evaluation plus truncation. A
        ``deadline`` bounds the evaluation, and shard failures
        propagate -- see :meth:`search_outcome` for the partial and
        degraded modes the serving layer uses.
        """
        return self.search_outcome(query, k, deadline=deadline).results

    def narrative_mapper(self):
        """The engine's clinical-narrative mapper, built on first use.

        The one mapper :meth:`enable_narrative` installs and the
        serving layer applies per request (``narrative=1`` must not
        mutate a warm engine, so it maps the query itself and runs the
        resulting keywords). Raises ``ValueError`` when the engine has
        no ontology to map against (bare XRANK).
        """
        with self._narrative_lock:
            if self._narrative_mapper is None:
                if self.terminology is None:
                    if self.ontology is None:
                        raise ValueError(
                            "narrative mapping needs an ontology (or "
                            "an explicit mapper built on a "
                            "TerminologyService)")
                    self.terminology = TerminologyService(
                        [self.ontology])
                from .narrative import NarrativeQueryMapper
                self._narrative_mapper = NarrativeQueryMapper(
                    self.terminology, tracer=self.tracer,
                    stats=self.stats)
            return self._narrative_mapper

    # ------------------------------------------------------------------
    # Database Access Module (needs only the global corpus)
    # ------------------------------------------------------------------
    def fragment(self, result: QueryResult) -> XMLNode:
        """The XML fragment a result addresses (Figure 4)."""
        return result.fragment(self.corpus)

    def fragment_text(self, result: QueryResult,
                      indent: str | None = "  ") -> str:
        """Serialized form of the result fragment, for display."""
        return serialize(self.fragment(result), indent=indent,
                         xml_declaration=False)


class XOntoRankEngine(SearchEngine):
    """Ontology-aware keyword search over one CDA corpus: the
    protocol's one-shard leaf."""

    shard_count = 1

    def __init__(self, corpus: Corpus, ontology: Ontology | None = None,
                 strategy: str = RELATIONSHIPS,
                 config: XOntoRankConfig = DEFAULT_CONFIG,
                 element_index: ElementIndex | None = None,
                 seed_scorer: SeedScorer | None = None,
                 tracer: Tracer | None = None,
                 stats: StatsRegistry | None = None,
                 builder: IndexBuilder | None = None) -> None:
        super().__init__(corpus, ontology, strategy, config, tracer,
                         stats)
        if builder is None:
            builder = self._make_builder(element_index, seed_scorer)
        self.element_index = builder.element_index
        self.ontoscore = builder.ontoscore
        self.ontoscore.tracer = self.tracer
        self.index_manager = IndexManager(
            corpus, builder, strategy, config, ontology=ontology,
            stats=self.stats, tracer=self.tracer)
        self.processor = DILQueryProcessor(decay=config.decay,
                                           tracer=self.tracer,
                                           stats=self.stats)
        self.pipeline = QueryPipeline.default(
            self.index_manager.dil_for, self.processor,
            tracer=self.tracer)
        self._naive_evaluator: NaiveEvaluator | None = None

    # ------------------------------------------------------------------
    # Backward-compatible views into the layered services
    # ------------------------------------------------------------------
    @property
    def builder(self) -> IndexBuilder:
        """The Index Creation Module's builder (owned by the manager)."""
        return self.index_manager.builder

    @property
    def dil_cache(self) -> DILCache:
        """The query-time DIL cache (owned by the manager)."""
        return self.index_manager.dil_cache

    # ------------------------------------------------------------------
    # Query phase
    # ------------------------------------------------------------------
    def search_outcome(self, query: str | KeywordQuery,
                       k: int | None = None, *,
                       deadline: "Deadline | None" = None,
                       skip_shards: Iterable[int] = (),
                       on_shard_error: "Callable[[int, StorageError], bool] | None" = None,
                       ) -> SearchOutcome:
        """See :meth:`SearchEngine.search_outcome`. The whole corpus is
        shard 0: skipped or absorbed, the answer is the fast
        degraded-empty outcome instead of a doomed attempt."""
        if 0 in skip_shards:
            return SearchOutcome(results=[], degraded_shards=(0,))
        try:
            with self.tracer.span("query.search",
                                  strategy=self.strategy) as span:
                context = self.pipeline.run(
                    query, k=k if k is not None else self.config.top_k,
                    deadline=deadline)
                span.annotate(keywords=len(context.dils),
                              results=len(context.results))
                if context.partial:
                    span.annotate(partial=True)
                return SearchOutcome(
                    results=context.results, partial=context.partial,
                    narrative=context.extras.get("narrative"))
        except StorageError as error:
            if on_shard_error is not None and on_shard_error(0, error):
                return SearchOutcome(results=[], degraded_shards=(0,))
            raise

    def enable_narrative(self, mapper=None):
        """Insert the clinical-narrative mapping stage before ``parse``.

        String queries are then treated as free narrative text and
        mapped to concept keywords (see
        :mod:`repro.core.query.narrative`); pre-parsed
        :class:`KeywordQuery` objects still pass through untouched.
        Returns the active mapper (:meth:`narrative_mapper` unless one
        is given). Raises ``ValueError`` without an ontology (or
        explicit ``mapper``) to map against, or when the stage is
        already installed.
        """
        from .narrative import NarrativeStage
        if mapper is None:
            mapper = self.narrative_mapper()
        self.pipeline.insert_before("parse", NarrativeStage(mapper))
        return mapper

    def disable_narrative(self) -> None:
        """Remove the narrative stage; the pipeline (and every result)
        is byte-identical to one that never had it."""
        self.pipeline.remove("narrative")

    def search_naive(self, query: str | KeywordQuery,
                     k: int | None = None) -> list[QueryResult]:
        """The same search through the naive reference evaluator
        (built lazily once, then reused)."""
        parsed = (KeywordQuery.parse(query) if isinstance(query, str)
                  else query)
        if self._naive_evaluator is None:
            self._naive_evaluator = NaiveEvaluator(
                self.builder.node_scorer, decay=self.config.decay)
        return self._naive_evaluator.execute(
            parsed, k=k if k is not None else self.config.top_k)

    def dil_for(self, keyword: Keyword) -> DeweyInvertedList:
        """The keyword's XOnto-DIL, built on first use (cached under
        ``(text, is_phrase)``)."""
        return self.index_manager.dil_for(keyword)

    def cache_stats(self) -> CacheStats:
        """Hit/miss/eviction counters of the DIL cache."""
        return self.index_manager.cache_stats()

    def explain(self, result: QueryResult, query: str | KeywordQuery):
        """Per-keyword evidence for a result (see
        :mod:`repro.core.query.explain`): which element contributed each
        keyword's score, through text or through which ontology path."""
        from .explain import explain_result
        return explain_result(self, result, query)

    # ------------------------------------------------------------------
    # Database Access Module
    # ------------------------------------------------------------------
    def snippet(self, result: QueryResult,
                query: str | KeywordQuery) -> XMLNode:
        """Compact result fragment: only the paths to the elements that
        actually contributed each keyword's score (the minimal
        connecting tree, in the spirit of Figure 4)."""
        from ...xmldoc.dewey import node_at
        from ...xmldoc.navigation import copy_subtree, prune_to_paths
        explanation = self.explain(result, query)
        document = self.corpus.get(result.doc_id)
        root = node_at(document, result.dewey)
        targets = [node_at(document, item.contributor)
                   for item in explanation.evidence
                   if item.propagated_score > 0.0]
        if not targets:
            return copy_subtree(root)
        return prune_to_paths(root, targets)

    def snippet_text(self, result: QueryResult,
                     query: str | KeywordQuery,
                     indent: str | None = "  ") -> str:
        """Serialized snippet, for display."""
        return serialize(self.snippet(result, query), indent=indent,
                         xml_declaration=False)

    # ------------------------------------------------------------------
    # Pre-processing phase (delegated to the IndexManager)
    # ------------------------------------------------------------------
    def build_index(self, vocabulary: set[str] | None = None,
                    radius: int = 2,
                    store: IndexStore | None = None,
                    workers: int | None = None) -> XOntoDILIndex:
        """Pre-build DILs for a whole vocabulary (Section V-B); see
        :meth:`IndexManager.build_index
        <repro.core.index.manager.IndexManager.build_index>`."""
        # Inert shim: ``workers`` is accepted and ignored because
        # benchmarks/e2e/building.py still passes workers=1. It goes when
        # ROADMAP item 1's [benchmark] PR drops index.build.workers2_wall_s.
        return self.index_manager.build_index(
            vocabulary=vocabulary, radius=radius, store=store)

    def load_index(self, store: IndexStore, *, validate: bool = True,
                   fallback: bool = True) -> int:
        """Warm the DIL cache from a persisted index; see
        :meth:`IndexManager.load_index
        <repro.core.index.manager.IndexManager.load_index>`."""
        return self.index_manager.load_index(store, validate=validate,
                                             fallback=fallback)

    def attach_read_store(self, store: IndexStore, *,
                          validate: bool = True,
                          on_error=None) -> None:
        """Serve DIL-cache misses from a persisted store (read-through
        mode, for bounded-memory serving); see
        :meth:`IndexManager.attach_read_store
        <repro.core.index.manager.IndexManager.attach_read_store>`."""
        self.index_manager.attach_read_store(store, validate=validate,
                                             on_error=on_error)

    # ------------------------------------------------------------------
    # Incremental maintenance (LSM segments; delegated to the manager)
    # ------------------------------------------------------------------
    def add_documents(self, documents, store: IndexStore,
                      radius: int = 2):
        """Index new documents as one immutable appended segment; no
        existing segment is rebuilt. Returns the new segment catalog."""
        return self.index_manager.add_documents(documents, store,
                                                radius=radius)

    def remove_documents(self, doc_ids, store: IndexStore):
        """Tombstone documents: they vanish from query results with one
        catalog write; their rows are reclaimed by :meth:`compact`."""
        return self.index_manager.remove_documents(doc_ids, store)

    def compact(self, store: IndexStore):
        """Fold the store's live segments into one; the logical index
        (and every query result) is unchanged."""
        return self.index_manager.compact(store)


def build_engines(corpus: Corpus, ontology: Ontology,
                  strategies: tuple[str, ...] = (XRANK, GRAPH, TAXONOMY,
                                                 RELATIONSHIPS),
                  config: XOntoRankConfig = DEFAULT_CONFIG,
                  tracer: Tracer | None = None,
                  stats: StatsRegistry | None = None,
                  ) -> dict[str, XOntoRankEngine]:
    """One engine per strategy, sharing the expensive common stages.

    The element index (full-text stage) is strategy-independent; the
    concept seed scorer is shared between Graph and Taxonomy. This is
    how the experiments compare the four approaches on equal footing.
    A ``tracer`` and/or ``stats`` registry passed here is threaded into
    *every* engine, so cross-strategy experiments land their spans and
    counters in one unified profile.
    """
    terminology = TerminologyService([ontology])
    element_index = ElementIndex(
        corpus, text_policy=config.text_policy,
        concept_resolver=terminology.resolve, k1=config.bm25_k1,
        b=config.bm25_b, ir_function=config.ir_function)
    concept_seeds: SeedScorer | None = None
    if GRAPH in strategies or TAXONOMY in strategies:
        concept_seeds = make_seed_scorer(GRAPH, ontology, config)
    engines: dict[str, XOntoRankEngine] = {}
    for strategy in strategies:
        seeds = concept_seeds if strategy in (GRAPH, TAXONOMY) else None
        engines[strategy] = XOntoRankEngine(
            corpus, ontology if strategy in ONTOLOGY_STRATEGIES else None,
            strategy=strategy, config=config,
            element_index=element_index, seed_scorer=seeds,
            tracer=tracer, stats=stats)
    return engines
