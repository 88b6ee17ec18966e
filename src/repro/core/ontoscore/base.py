"""Shared machinery of the OntoScore computers (paper Sections IV & VI).

OntoScore quantifies the semantic relevance of an ontology concept to a
query keyword by *authority flow*: concepts textually matching the
keyword are seeded with their (normalized) IR score, and authority then
flows along ontology edges under strategy-specific rules, shrinking at
every step (all edge factors lie in (0, 1]) until it falls below the
pruning ``threshold``. Multiple arrivals at a node combine with ``max``
(Eq. 6 / Observation 1).

Two expansion engines are provided:

* :func:`best_first_expansion` -- a max-heap (Dijkstra-style) search.
  Because factors never exceed 1, finalizing nodes in decreasing score
  order yields the *exact* max-product fixpoint.
* :func:`level_order_expansion` -- the paper's literal merged parallel
  BFS (Algorithm 1 with the Observation 1 optimization): a FIFO queue
  where a node expands at the first score it is reached with and later,
  better arrivals update the stored score but do not re-expand. For
  uniform factors (the Graph strategy) this equals best-first; for the
  non-uniform Taxonomy/Relationships factors it can under-approximate.
  The ablation benchmark quantifies the gap.
"""

from __future__ import annotations

import heapq
from abc import ABC, abstractmethod
from collections import deque
from typing import Callable, Hashable, Iterable

from ...ir.bm25 import BM25Scorer
from ...ir.inverted_index import PositionalIndex
from ...ir.tfidf import TfIdfScorer
from ...ir.tokenizer import Keyword
from ..obs.tracer import NULL_TRACER

NodeId = Hashable

#: Neighbor function: node -> iterable of (neighbor, edge factor).
NeighborFn = Callable[[NodeId], Iterable[tuple[NodeId, float]]]


def best_first_expansion(seeds: dict[NodeId, float],
                         neighbors: NeighborFn,
                         threshold: float) -> dict[NodeId, float]:
    """Exact max-product authority flow from ``seeds``.

    Returns every node whose final score exceeds ``threshold``. Seeds
    below the threshold still participate (they may be unreachable
    otherwise) but are dropped from the result, matching Algorithm 1's
    "stop BFS expansion" rule.
    """
    scores, _ = best_first_expansion_traced(seeds, neighbors, threshold)
    return scores


def best_first_expansion_traced(
        seeds: dict[NodeId, float], neighbors: NeighborFn,
        threshold: float,
        ) -> tuple[dict[NodeId, float], dict[NodeId, NodeId | None]]:
    """:func:`best_first_expansion` plus flow provenance.

    The second mapping records, for every finalized node, the neighbor
    its final score flowed in from (``None`` for nodes whose own seed
    won) -- following it backwards reconstructs the maximum-product path
    to a seed, which powers the engine's ``explain`` API.
    """
    _check_threshold(threshold)
    finalized: dict[NodeId, float] = {}
    predecessors: dict[NodeId, NodeId | None] = {}
    heap: list[tuple[float, int, NodeId]] = []
    entries: list[NodeId | None] = []  # heap-entry index -> origin node
    counter = 0  # tie-breaker keeping heap comparisons off NodeId
    for node, score in seeds.items():
        if score > 0.0:
            heap.append((-score, counter, node))
            entries.append(None)
            counter += 1
    heapq.heapify(heap)
    while heap:
        negative_score, entry_index, node = heapq.heappop(heap)
        score = -negative_score
        if node in finalized:
            continue  # already finalized at an equal-or-better score
        finalized[node] = score
        predecessors[node] = entries[entry_index]
        if score <= threshold:
            continue  # node keeps its score but does not expand further
        for neighbor, factor in neighbors(node):
            if not 0.0 < factor <= 1.0:
                raise ValueError(f"edge factor {factor} outside (0, 1]")
            propagated = score * factor
            if propagated > threshold and neighbor not in finalized:
                heapq.heappush(heap, (-propagated, counter, neighbor))
                entries.append(node)
                counter += 1
    pruned = {node: score for node, score in finalized.items()
              if score > threshold}
    return pruned, {node: predecessors[node] for node in pruned}


def level_order_expansion(seeds: dict[NodeId, float],
                          neighbors: NeighborFn,
                          threshold: float) -> dict[NodeId, float]:
    """The paper's merged parallel BFS (Algorithm 1 + Observation 1)."""
    _check_threshold(threshold)
    scores: dict[NodeId, float] = {}
    expanded: set[NodeId] = set()
    queue: deque[NodeId] = deque()
    for node, score in seeds.items():
        if score > 0.0:
            scores[node] = max(scores.get(node, 0.0), score)
    queue.extend(sorted(scores, key=lambda node: -scores[node]))
    while queue:
        node = queue.popleft()
        if node in expanded:
            continue
        expanded.add(node)
        score = scores[node]
        if score <= threshold:
            continue
        for neighbor, factor in neighbors(node):
            if not 0.0 < factor <= 1.0:
                raise ValueError(f"edge factor {factor} outside (0, 1]")
            propagated = score * factor
            if propagated <= threshold:
                continue
            previous = scores.get(neighbor, 0.0)
            if propagated > previous:
                scores[neighbor] = propagated
            if neighbor not in expanded:
                queue.append(neighbor)
    return {node: score for node, score in scores.items()
            if score > threshold}


def make_scorer(index: PositionalIndex, ir_function: str,
                k1: float = 1.2, b: float = 0.75):
    """Instantiate the configured IR function over an index.

    The paper's framework is parametric in the IR function ("popular IR
    functions [17], [19], [20]"; their experiments use BM25).
    """
    if ir_function == "bm25":
        return BM25Scorer(index, k1=k1, b=b)
    if ir_function == "tfidf":
        return TfIdfScorer(index)
    raise ValueError(f"unknown IR function {ir_function!r}")


def _check_threshold(threshold: float) -> None:
    if not 0.0 <= threshold < 1.0:
        raise ValueError("threshold must lie in [0, 1)")


class SeedScorer:
    """Per-keyword normalized IR scores over ontology nodes.

    "Initially, each concept in the ontology is granted a certain
    authority based on how strongly it is related to w, as measured by
    its IR score" (Section IV). Nodes are indexed once by their textual
    description; per-keyword scores are max-normalized into (0, 1].
    """

    def __init__(self, node_texts: Iterable[tuple[NodeId, str]],
                 k1: float = 1.2, b: float = 0.75,
                 ir_function: str = "bm25") -> None:
        self._index = PositionalIndex()
        for node, text in node_texts:
            self._index.add(node, text)
        self._scorer = make_scorer(self._index, ir_function, k1=k1, b=b)
        self._cache: dict[Keyword, dict[NodeId, float]] = {}

    def seeds(self, keyword: Keyword) -> dict[NodeId, float]:
        """Normalized seed scores of every node matching ``keyword``."""
        cached = self._cache.get(keyword)
        if cached is None:
            cached = self._scorer.normalized_scores(keyword)
            self._cache[keyword] = cached
        return dict(cached)

    @property
    def index(self) -> PositionalIndex:
        return self._index


class OntoScoreComputer(ABC):
    """One OntoScore strategy: seeds + strategy-specific flow rules.

    Subclasses define the node universe (via the seed scorer they are
    built with) and :meth:`neighbors`. :meth:`compute` returns the
    OntoScore hash-map slice for one keyword -- the paper's
    ``H[(c, w)] -> OS`` restricted to concepts above threshold.

    The ontology is read-only once a computer has expanded a keyword:
    both the per-keyword score maps and the per-node edge lists
    (:meth:`edges`, each node's :meth:`neighbors` derived once and
    shared by every keyword's expansion) are memoized for the
    computer's lifetime. To change the ontology, build a new computer.
    """

    #: Name used to namespace index storage ("graph", "taxonomy", ...).
    name: str = ""

    #: Span tracer for the expansion hot path; the engine re-points
    #: this at its own tracer when profiling is on (the class default
    #: is the zero-cost disabled singleton).
    tracer = NULL_TRACER

    def __init__(self, seed_scorer: SeedScorer, threshold: float = 0.1,
                 exact: bool = True) -> None:
        self._seed_scorer = seed_scorer
        self._threshold = threshold
        self._exact = exact
        self._cache: dict[Keyword, dict[NodeId, float]] = {}
        self._edges: dict[NodeId, tuple[tuple[NodeId, float], ...]] = {}
        self._persistent_cache = None
        self._trace_cache: dict[
            Keyword, tuple[dict[NodeId, float],
                           dict[NodeId, NodeId | None]]] = {}

    # ------------------------------------------------------------------
    @abstractmethod
    def neighbors(self, node: NodeId) -> Iterable[tuple[NodeId, float]]:
        """Strategy-specific outgoing flow edges of ``node``."""

    def edges(self, node: NodeId) -> tuple[tuple[NodeId, float], ...]:
        """:meth:`neighbors` of ``node``, derived once per computer.

        Every expansion (:meth:`compute` and :meth:`flow_path`) walks
        the ontology through this memo.
        """
        edges = self._edges.get(node)
        if edges is None:
            edges = self._edges[node] = tuple(self.neighbors(node))
        return edges

    def postprocess(self, scores: dict[NodeId, float],
                    ) -> dict[NodeId, float]:
        """Hook: map expansion-state scores to concept scores.

        The default keeps everything; the Relationships strategies drop
        the intermediate existential states here (documents can only
        reference real concepts).
        """
        return scores

    def attach_persistent_cache(self, cache) -> None:
        """Read expansions through a persisted
        :class:`~repro.core.ontoscore.cache.OntoScoreCache`.

        The in-memory per-keyword cache stays in front (one store read
        per keyword per computer lifetime); on a persistent miss the
        freshly computed expansion is put back (buffered until the
        cache flushes), so the next build against the same
        ontology/strategy/parameters starts warm. The
        caller is responsible for binding the cache to this computer's
        strategy and parameters -- the cache's descriptor check only
        protects against *stores* from other configurations.
        """
        self._persistent_cache = cache

    # ------------------------------------------------------------------
    def compute(self, keyword: Keyword) -> dict[NodeId, float]:
        """OntoScores of all concepts for ``keyword`` (above threshold)."""
        cached = self._cache.get(keyword)
        if cached is None and self._persistent_cache is not None:
            cached = self._persistent_cache.get(keyword)
            if cached is not None:
                self._cache[keyword] = cached
        if cached is None:
            with self.tracer.span("ontoscore.expand",
                                  keyword=keyword.text,
                                  strategy=self.name or "null") as span:
                with self.tracer.span("ontoscore.seeds",
                                      keyword=keyword.text):
                    seeds = self._seed_scorer.seeds(keyword)
                expand = (best_first_expansion if self._exact
                          else level_order_expansion)
                scores = expand(seeds, self.edges, self._threshold)
                cached = self.postprocess(scores)
                span.annotate(
                    algorithm=("best_first" if self._exact
                               else "level_order"),
                    seeds=len(seeds), concepts=len(cached))
            if self._persistent_cache is not None:
                self._persistent_cache.put(keyword, cached)
            self._cache[keyword] = cached
        return dict(cached)

    def score(self, concept: NodeId, keyword: Keyword) -> float:
        """OntoScore of one concept (0.0 when below threshold)."""
        return self.compute(keyword).get(concept, 0.0)

    def flow_path(self, concept: NodeId,
                  keyword: Keyword) -> list[NodeId] | None:
        """The maximum-product authority path from a seed to ``concept``.

        Returns the node sequence seed-first (it may pass through
        intermediate states such as existential restrictions), or
        ``None`` when the concept received no OntoScore for the keyword.
        Paths always follow the exact best-first expansion -- the
        explanation of *why* a score exists is well-defined even when
        :attr:`exact` is off for the scores themselves.
        """
        traced = self._trace_cache.get(keyword)
        if traced is None:
            seeds = self._seed_scorer.seeds(keyword)
            traced = best_first_expansion_traced(seeds, self.edges,
                                                 self._threshold)
            self._trace_cache[keyword] = traced
        _, predecessors = traced
        if concept not in predecessors:
            return None
        path: list[NodeId] = []
        current: NodeId | None = concept
        while current is not None:
            path.append(current)
            current = predecessors.get(current)
        path.reverse()
        return path

    @property
    def threshold(self) -> float:
        return self._threshold


class NullOntoScore(OntoScoreComputer):
    """The XRANK baseline: no ontology, every OntoScore is zero."""

    name = "xrank"

    def __init__(self) -> None:
        super().__init__(SeedScorer(()), threshold=0.0)

    def neighbors(self, node: NodeId) -> Iterable[tuple[NodeId, float]]:
        return ()

    def compute(self, keyword: Keyword) -> dict[NodeId, float]:
        return {}
