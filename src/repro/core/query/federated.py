"""Shard-parallel federated search: the engine protocol's composite.

A :class:`FederatedEngine` partitions the corpus with a
:class:`~repro.xmldoc.sharding.ShardedCorpus`, backs every shard with
its own :class:`~repro.core.query.engine.XOntoRankEngine` leaf (and,
when persisted, its own index store + manifest), fans queries out
across the shards -- sequentially or on a thread pool -- and
k-way-merges the per-shard top-k into a global top-k. One shard is the
degenerate case, not a special one: the scope filters nothing, the
merge of one ranking is that ranking, and the store is the plain path
(:func:`shard_store_paths`).

**The identity contract.** Federated results are byte-identical to a
single engine over the same corpus, for every shard count and policy.
Two facts make this exact rather than approximate:

* NodeScores are corpus-global (BM25 statistics come from the shared
  :class:`~repro.core.scoring.ElementIndex`; OntoScores from the
  ontology alone), so every shard scores with the *whole-corpus*
  statistics: each shard wraps one shared
  :class:`~repro.core.index.builder.IndexBuilder` in a
  :class:`ShardScopedBuilder` that restricts posting lists to the
  shard's documents instead of re-deriving statistics per shard.
* XRANK's stack merge never crosses a document boundary (Dewey IDs
  root at the document), so a shard's results are exactly the global
  results whose documents live in that shard, and the global ranking
  order ``(-score, dewey)`` is a total order (Dewey IDs are unique) --
  a stable k-way merge of per-shard rankings reproduces it.
"""

from __future__ import annotations

import heapq
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

from ...ir.tokenizer import Keyword, KeywordQuery
from ...ontology.model import Ontology
from ...storage.errors import StorageError
from ...storage.interface import IndexStore
from ...xmldoc.model import Corpus
from ...xmldoc.sharding import HASH, ShardedCorpus
from ..config import DEFAULT_CONFIG, RELATIONSHIPS, XOntoRankConfig
from ..deadline import Deadline, DeadlineExceeded
from ..index.builder import IndexBuilder
from ..index.dil import (DeweyInvertedList, KeywordBuildStats,
                         XOntoDILIndex, keyword_from_key)
from ..index.vocabulary import default_vocabulary
from ..obs.tracer import Tracer
from ..scoring import ElementIndex
from ..stats import CacheStats, StatsRegistry
from .engine import SearchEngine, XOntoRankEngine
from .results import QueryResult, SearchOutcome

Shard = TypeVar("Shard")
Value = TypeVar("Value")


def shard_store_path(path: str, shard: int, shard_count: int) -> str:
    """Canonical per-shard store path derived from the logical path."""
    return f"{path}.shard{shard:02d}-of-{shard_count:02d}"


def shard_store_paths(path: str, shard_count: int) -> list[str]:
    """Every shard's store path, in shard order.

    One shard *is* the logical path: an unsharded store and a
    federation of one are the same file, so stores written before the
    engines were unified load, serve, append and compact unchanged.
    This is the only rule anywhere that knows the count one.
    """
    if shard_count == 1:
        return [path]
    return [shard_store_path(path, shard, shard_count)
            for shard in range(shard_count)]


def merge_ranked(result_lists: Iterable[Sequence[QueryResult]],
                 k: int | None = None) -> list[QueryResult]:
    """Stable k-way merge of ranked result lists into one ranking.

    Inputs must each be sorted by ``(-score, dewey)`` (what
    :func:`~repro.core.query.results.rank_results` produces); the merge
    preserves that order globally and optionally truncates to ``k``.
    Dewey IDs are unique across shards, so the order is total and the
    output is independent of the shard decomposition.
    """
    merged = heapq.merge(*result_lists,
                         key=lambda result: (-result.score,
                                             result.dewey))
    if k is None:
        return list(merged)
    if k < 1:
        raise ValueError("k must be positive")
    return [result for result, _ in zip(merged, range(k))]


class ShardScopedBuilder:
    """An :class:`IndexBuilder` view restricted to one shard's documents.

    Delegates the expensive work (OntoScore expansion, NodeScores over
    the shared corpus-global element index) to the wrapped builder --
    whose per-keyword caches are therefore shared across shards -- and
    filters the resulting posting lists down to the shard's doc IDs.
    """

    def __init__(self, builder: IndexBuilder,
                 doc_ids: frozenset[int]) -> None:
        self._builder = builder
        self._doc_ids = doc_ids

    @property
    def doc_ids(self) -> frozenset[int]:
        return self._doc_ids

    @property
    def inner(self) -> IndexBuilder:
        """The wrapped corpus-global builder. The incremental segment
        lifecycle unwraps through this to apply its own per-operation
        document scoping."""
        return self._builder

    def extend_scope(self, doc_ids: Iterable[int]) -> None:
        """Grow the scope when documents join this shard (append)."""
        self._doc_ids = self._doc_ids | frozenset(doc_ids)

    def shrink_scope(self, doc_ids: Iterable[int]) -> None:
        """Drop removed documents, so direct builds stay live-only."""
        self._doc_ids = self._doc_ids - frozenset(doc_ids)

    # The IndexBuilder surface the manager and engine rely on.
    @property
    def element_index(self) -> ElementIndex:
        return self._builder.element_index

    @property
    def ontoscore(self):
        return self._builder.ontoscore

    @property
    def node_scorer(self):
        return self._builder.node_scorer

    def build_keyword(self, keyword: Keyword,
                      ) -> tuple[DeweyInvertedList, KeywordBuildStats]:
        dil, stats = self._builder.build_keyword(keyword)
        postings = [posting for posting in dil
                    if posting.dewey.doc_id in self._doc_ids]
        if len(postings) == len(dil):
            # The scope filtered nothing (always so for one shard):
            # the builder's list and stats are already the answer.
            return dil, stats
        scoped = DeweyInvertedList(keyword, postings)
        return scoped, KeywordBuildStats(
            keyword=stats.keyword,
            creation_time_ms=stats.creation_time_ms,
            posting_count=len(scoped),
            size_bytes=scoped.size_bytes(),
            ontology_entries=stats.ontology_entries)

    #: The builder's vocabulary loop, run over the scoped
    #: :meth:`build_keyword`.
    build = IndexBuilder.build


class FederatedEngine(SearchEngine):
    """The engine protocol's composite: one query facade over N >= 1
    :class:`XOntoRankEngine` shard leaves."""

    def __init__(self, corpus: Corpus, ontology: Ontology | None = None,
                 strategy: str = RELATIONSHIPS,
                 config: XOntoRankConfig = DEFAULT_CONFIG,
                 shards: int = 2, policy: str = HASH,
                 shard_workers: int | None = None,
                 tracer: Tracer | None = None,
                 stats: StatsRegistry | None = None,
                 element_index: ElementIndex | None = None) -> None:
        super().__init__(corpus, ontology, strategy, config, tracer,
                         stats)
        if shard_workers is not None and shard_workers < 1:
            raise ValueError("shard_workers must be None or >= 1")
        self.shard_workers = shard_workers
        self.sharded = ShardedCorpus(corpus, shards, policy=policy)

        # The corpus-global scoring substrate, built exactly once and
        # shared by every shard -- the reason federated scores equal
        # single-engine scores (BM25 statistics span the whole corpus).
        self.builder = self._make_builder(element_index, None)
        self.element_index = self.builder.element_index
        self.ontoscore = self.builder.ontoscore

        self.shard_engines: list[XOntoRankEngine] = [
            XOntoRankEngine(
                shard_corpus, ontology, strategy=strategy,
                config=config, tracer=tracer, stats=self.stats,
                builder=ShardScopedBuilder(
                    self.builder, self.sharded.shard_doc_ids(shard)))
            for shard, shard_corpus in enumerate(self.sharded)]
        #: The mapper applied once before the fan-out; ``None`` = off.
        self._fan_out_mapper = None

    # ------------------------------------------------------------------
    @property
    def shard_count(self) -> int:
        return self.sharded.shard_count

    def enable_narrative(self, mapper=None):
        """Treat string queries as clinical narrative: map them to
        concept keywords *once*, before the shard fan-out (each shard
        then receives the same pre-parsed :class:`KeywordQuery`, so the
        federated identity contract applies to the mapped query).
        Returns the active mapper (:meth:`narrative_mapper` unless one
        is given); raises ``ValueError`` without an ontology to map
        against.
        """
        if mapper is None:
            mapper = self.narrative_mapper()
        self._fan_out_mapper = mapper
        return mapper

    def disable_narrative(self) -> None:
        """String queries parse as curated keywords again."""
        self._fan_out_mapper = None

    def _fan_out(self, task: Callable[[XOntoRankEngine, int], Value],
                 ) -> list[Value]:
        """Run ``task(engine, shard)`` per shard; results in shard
        order regardless of execution interleaving."""
        engines = self.shard_engines
        if self.shard_workers is None or self.shard_workers == 1 \
                or len(engines) == 1:
            return [task(engine, shard)
                    for shard, engine in enumerate(engines)]
        workers = min(self.shard_workers, len(engines))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(task, engine, shard)
                       for shard, engine in enumerate(engines)]
            return [future.result() for future in futures]

    # ------------------------------------------------------------------
    # Query phase
    # ------------------------------------------------------------------
    def search_outcome(self, query: str | KeywordQuery,
                       k: int | None = None, *,
                       deadline: Deadline | None = None,
                       skip_shards: Iterable[int] = (),
                       on_shard_error: "Callable[[int, StorageError], bool] | None" = None,
                       ) -> SearchOutcome:
        """Global top-k: per-shard top-k, k-way merged (see
        :meth:`SearchEngine.search_outcome` for the parameters).

        Any global top-k result is in its shard's top-k, so merging
        the per-shard prefixes loses nothing. Each shard runs the
        bounded (document-skipping) merge locally; the global
        truncation of the k-way merge is traced as
        ``query.topk_pruned``. A degraded answer is exact *over the
        shards that answered* but may miss results whose documents
        live in a degraded shard -- the identity contract holds only
        for exact outcomes.

        A shard whose deadline expires before it produced anything is
        treated as degraded-by-timeout with ``partial=True``; if every
        shard times out,
        :class:`~repro.core.deadline.DeadlineExceeded` propagates
        (there is nothing to serve).
        """
        k = k if k is not None else self.config.top_k
        skip = frozenset(skip_shards)
        with self.tracer.span("query.federated_search",
                              strategy=self.strategy,
                              shards=self.shard_count) as span:
            narrative = None
            if self._fan_out_mapper is not None \
                    and isinstance(query, str):
                narrative = self._fan_out_mapper.map(query)
                query = narrative.query
            parsed = (KeywordQuery.parse(query)
                      if isinstance(query, str) else query)

            timed_out: list[int] = []

            def shard_search(engine: XOntoRankEngine, shard: int):
                """The shard's outcome, or None when it contributed
                nothing (skipped, timed out, or failure absorbed)."""
                if shard in skip:
                    return None
                try:
                    return engine.search_outcome(parsed, k=k,
                                                 deadline=deadline)
                except DeadlineExceeded:
                    timed_out.append(shard)
                except StorageError as error:
                    if on_shard_error is None \
                            or not on_shard_error(shard, error):
                        raise
                return None

            per_shard = self._fan_out(shard_search)
            outcomes = [outcome for outcome in per_shard
                        if outcome is not None]
            degraded = tuple(
                shard for shard, outcome in enumerate(per_shard)
                if outcome is None)
            if timed_out and not outcomes:
                raise DeadlineExceeded(
                    f"deadline exceeded in all {len(timed_out)} live "
                    f"shard(s) before any result was produced")
            partial = (bool(timed_out)
                       or any(outcome.partial for outcome in outcomes))
            with self.tracer.span("query.topk_pruned",
                                  shards=self.shard_count) as prune:
                merged = merge_ranked(
                    [outcome.results for outcome in outcomes], k)
                prune.annotate(
                    candidates=sum(len(outcome.results)
                                   for outcome in outcomes),
                    results=len(merged))
            span.annotate(results=len(merged))
            if degraded:
                span.annotate(degraded_shards=len(degraded))
            return SearchOutcome(results=merged, partial=partial,
                                 degraded_shards=degraded,
                                 narrative=narrative)

    def dil_for(self, keyword: Keyword) -> DeweyInvertedList:
        """The *global* DIL of a keyword: shard DILs re-merged (mostly
        useful to compare against a single engine)."""
        postings = [posting
                    for engine in self.shard_engines
                    for posting in engine.dil_for(keyword)]
        return DeweyInvertedList(keyword, postings)

    def explain(self, result: QueryResult, query: str | KeywordQuery):
        """Per-keyword evidence, answered by the shard that owns the
        result's document (scores are identical corpus-wide)."""
        shard = self.sharded.shard_of(result.doc_id)
        return self.shard_engines[shard].explain(result, query)

    def cache_stats(self) -> CacheStats:
        """DIL-cache counters across every shard. Each shard holds its
        own cache, so sizes and capacities add up; hits, misses and
        evictions are read once, because every shard cache counts into
        the one registry the shards share."""
        parts = [engine.cache_stats() for engine in self.shard_engines]
        capacities = [part.capacity for part in parts]
        return CacheStats(
            hits=parts[0].hits, misses=parts[0].misses,
            evictions=parts[0].evictions,
            size=sum(part.size for part in parts),
            capacity=None if None in capacities else sum(capacities))

    # ------------------------------------------------------------------
    # Pre-processing phase
    # ------------------------------------------------------------------
    def build_index(self, vocabulary: set[str] | None = None,
                    radius: int = 2,
                    stores: Sequence[IndexStore] | None = None,
                    ) -> XOntoDILIndex:
        """Build every shard's index (optionally into per-shard stores)
        and return the re-combined global index.

        The vocabulary is computed once from the *global* corpus (the
        paper's experimental rule), so every shard indexes the same
        keyword set; the union of the shard-scoped posting lists equals
        the single-engine index.
        """
        if stores is not None:
            self._check_shard_stores(stores)
        if vocabulary is None:
            vocabulary = default_vocabulary(
                self.corpus, self.ontology, self.strategy, radius,
                self.config.text_policy)
        with self.tracer.span("index.federated_build",
                              shards=self.shard_count,
                              keywords=len(vocabulary)):
            shard_indices = self._fan_out(
                lambda engine, shard: engine.build_index(
                    vocabulary=vocabulary,
                    store=stores[shard] if stores is not None else None))
        return self._combine(shard_indices)

    def _combine(self,
                 shard_indices: Sequence[XOntoDILIndex],
                 ) -> XOntoDILIndex:
        """Union of shard indices: the single-engine index, re-formed
        (the union of one shard index is that index)."""
        if len(shard_indices) == 1:
            return shard_indices[0]
        combined = XOntoDILIndex(strategy=self.strategy)
        keys = sorted({key for index in shard_indices
                       for key in index.lists})
        for key in keys:
            keyword = keyword_from_key(key)
            postings = [posting for index in shard_indices
                        if key in index.lists
                        for posting in index.lists[key]]
            stats = [index.stats[key] for index in shard_indices
                     if key in index.stats]
            merged = DeweyInvertedList(keyword, postings)
            combined.add(merged, KeywordBuildStats(
                keyword=keyword.text,
                creation_time_ms=max((stat.creation_time_ms
                                      for stat in stats), default=0.0),
                posting_count=len(merged),
                size_bytes=merged.size_bytes(),
                ontology_entries=max((stat.ontology_entries
                                      for stat in stats), default=0),
            ) if stats else None)
        return combined

    def attach_read_stores(self, stores: Sequence[IndexStore], *,
                           validate: bool = True,
                           on_error=None) -> None:
        """Put every shard engine in read-through mode against its own
        store (see :meth:`IndexManager.attach_read_store
        <repro.core.index.manager.IndexManager.attach_read_store>`).
        Strict per shard by default: a shard store failure surfaces as
        that shard's :class:`~repro.storage.errors.StorageError`, which
        is what :meth:`search_outcome`'s ``on_shard_error`` degradation
        (and the serving layer's circuit breaker) keys off."""
        self._check_shard_stores(stores)
        for shard, engine in enumerate(self.shard_engines):
            engine.attach_read_store(stores[shard], validate=validate,
                                     on_error=on_error)

    def load_index(self, stores: Sequence[IndexStore], *,
                   validate: bool = True, fallback: bool = True) -> int:
        """Warm every shard's cache from its store; returns the total
        list count. Validation and degraded rebuilds apply per shard
        (one damaged shard store does not poison the others)."""
        self._check_shard_stores(stores)
        loaded = self._fan_out(
            lambda engine, shard: engine.load_index(
                stores[shard], validate=validate, fallback=fallback))
        return sum(loaded)

    # ------------------------------------------------------------------
    # Incremental maintenance (LSM segments, fanned out per shard)
    # ------------------------------------------------------------------
    def _check_shard_stores(self,
                            stores: Sequence[IndexStore]) -> None:
        if len(stores) != self.shard_count:
            raise ValueError(
                f"need one store per shard: got {len(stores)} stores "
                f"for {self.shard_count} shards")

    def add_documents(self, documents, stores: Sequence[IndexStore],
                      radius: int = 2) -> None:
        """Route new documents to their hash shards and append each
        group as one segment of the owning shard's store.

        Requires the ``hash`` policy (round-robin assignment depends on
        every other document's position). Each shard store is its own
        commit domain: a failure mid-way leaves the already-appended
        shards committed and the rest untouched -- every shard store is
        individually consistent either way.
        """
        self._check_shard_stores(stores)
        documents = list(documents)
        groups: dict[int, list] = {}
        fresh: set[int] = set()
        for document in documents:
            try:
                shard = self.sharded.shard_of(document.doc_id)
            except KeyError:
                shard = self.sharded.route(document.doc_id)
                fresh.add(document.doc_id)
            groups.setdefault(shard, []).append(document)
        for shard in sorted(groups):
            # The shard engine's corpus IS the shard sub-corpus; its
            # lifecycle adds the documents there, so only the global
            # corpus and the assignment map need updating here.
            self.shard_engines[shard].add_documents(
                groups[shard], stores[shard], radius=radius)
            for document in groups[shard]:
                if document.doc_id in fresh:
                    self.sharded.record(document.doc_id, shard)
                if document.doc_id not in self.corpus:
                    self.corpus.add(document)

    def remove_documents(self, doc_ids,
                         stores: Sequence[IndexStore]) -> None:
        """Tombstone documents in the shard stores that own them."""
        self._check_shard_stores(stores)
        groups: dict[int, list[int]] = {}
        for doc_id in doc_ids:
            groups.setdefault(self.sharded.shard_of(doc_id),
                              []).append(doc_id)
        for shard in sorted(groups):
            self.shard_engines[shard].remove_documents(
                groups[shard], stores[shard])
            for doc_id in groups[shard]:
                self.sharded.forget(doc_id)
                if doc_id in self.corpus:
                    self.corpus.remove(doc_id)

    def compact(self, stores: Sequence[IndexStore]) -> None:
        """Compact every shard store (logical indexes unchanged)."""
        self._check_shard_stores(stores)
        for shard, engine in enumerate(self.shard_engines):
            engine.compact(stores[shard])
