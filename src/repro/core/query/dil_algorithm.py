"""XRANK's DIL query algorithm over XOnto-DILs (paper Section V-A).

"During the query phase, the Query Module inputs the user keyword query
and executes XRANK's DIL algorithm using the XOnto-DILs generated in the
pre-processing phase."

The algorithm walks the k posting lists in global Dewey (document)
order while maintaining a stack that mirrors the root-to-current-node
path. Each stack frame accumulates, per keyword, the best propagated
score seen in the frame's fully-processed subtree; when a frame is
popped (its subtree exhausted) it is emitted as a result if it covers
all keywords and none of its descendants already did (Eq. 1), and its
scores flow to its parent attenuated by ``decay`` (Eq. 2-3). Result
scores are the per-keyword sums (Eq. 4).

No result spans two documents, so the walk is one routine,
:meth:`DILQueryProcessor._merge_document`, called per document: it
sorts that document's ``(path, keyword index, score)`` postings, keeps
the stack as plain per-depth score lists, and builds a Dewey ID and a
:class:`QueryResult` only for a frame it emits. One sequential pass,
O(depth) stack memory plus one document's postings -- the structural
reason the paper adopts DILs.

Two execution modes share that routine:

* :meth:`DILQueryProcessor.collect` -- the full Eq. 1 enumeration, as
  the paper describes it: every document of every list is merged, so
  every posting is read; ranking/truncation is a separate stage.
* :meth:`DILQueryProcessor.collect_topk` -- bounded evaluation: a
  size-k result heap plus per-document score upper bounds
  (``sum(per-keyword doc max)``, i.e. the optimistic score with zero
  propagation decay) let whole documents be skipped once the heap is
  full. Because documents are visited in ascending doc-id order and
  results tie-break on ``(-score, dewey)``, a document whose bound
  *equals* the current heap minimum can also be skipped: any tying
  result would lose the Dewey tie-break against the earlier entry.
  Returns the byte-identical ranking the full mode's top-k prefix
  would.
"""

from __future__ import annotations

import bisect
import heapq
from dataclasses import dataclass

from ...xmldoc.dewey import DeweyID
from ..deadline import Deadline
from ..index.dil import DeweyInvertedList
from ..obs.tracer import NULL_TRACER
from ..stats import TOPK_DOCS_SKIPPED, TOPK_HEAP_EVICTIONS, StatsRegistry
from .results import QueryResult, rank_results

#: A merge tuple: (Dewey path, keyword index, NodeScore), all within
#: one document. Tuples sort natively on the leading path, which is
#: document order.
_MergeItem = tuple[tuple[int, ...], int, float]

#: Marks the end of a document's postings: it unwinds every frame.
_END = (None, 0, 0.0)


class _HeapDewey:
    """A DeweyID wrapper whose ordering is *reversed*.

    The bounded result heap is a min-heap holding the current top-k
    with the **worst** entry at the root. "Worst" means lowest score,
    ties broken by *largest* Dewey ID (the final ranking prefers
    smaller Dewey IDs among equals). Scores compare naturally in a
    min-heap; Dewey IDs need their order flipped, and negation does
    not reverse variable-length tuple prefix order -- hence this
    wrapper.
    """

    __slots__ = ("dewey",)

    def __init__(self, dewey: DeweyID) -> None:
        self.dewey = dewey

    def __lt__(self, other: "_HeapDewey") -> bool:
        return other.dewey < self.dewey

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, _HeapDewey)
                and other.dewey == self.dewey)


class _DocStream:
    """A cursor over one DIL that serves per-document posting runs.

    ``doc_postings(doc_id)`` bisects forward from the cursor to the
    document's run and returns its merge tuples. Skipped documents
    cost O(log n) cursor moves and zero posting reads -- the mechanism
    behind the top-k mode's ``postings_read`` reduction.

    A compact (block-backed) DIL gets a better deal still: its block's
    document directory locates the run exactly, so skipped documents
    cost nothing and visited documents read only their own run as path
    tuples, decoded once per list (``CompactDeweyInvertedList.doc_run``)
    -- neither the materialized posting sequence nor a Dewey ID per
    posting is ever built. The per-call streams also keep block-backed
    DILs safely shareable across concurrent queries: all cursor state
    lives here, the block itself is immutable.
    """

    __slots__ = ("_postings", "_index", "_pos", "_doc_run")

    def __init__(self, dil: DeweyInvertedList, index: int) -> None:
        self._index = index
        self._pos = 0
        self._doc_run = dil.doc_run if dil.block is not None else None
        self._postings = (dil.sorted_postings()
                          if self._doc_run is None else ())

    def doc_postings(self, doc_id: int) -> list[_MergeItem]:
        index = self._index
        if self._doc_run is not None:
            return [(path, index, score)
                    for path, score in self._doc_run(doc_id)]
        postings = self._postings
        start = bisect.bisect_left(postings, doc_id, lo=self._pos,
                                   key=_doc_id)
        self._pos = bisect.bisect_right(postings, doc_id, lo=start,
                                        key=_doc_id)
        return [(posting.dewey.path, index, posting.score)
                for posting in postings[start:self._pos]]


def _doc_id(posting) -> int:
    return posting.dewey.doc_id


@dataclass
class DILQueryStatistics:
    """Counters exposed for the performance experiments (Figure 11)."""

    postings_read: int = 0
    frames_pushed: int = 0
    results_found: int = 0
    #: Documents the bounded (top-k) mode never merged: missing at
    #: least one keyword, or upper-bounded below the heap minimum.
    docs_skipped: int = 0
    #: Heap replacements in the bounded mode -- results that entered a
    #: full heap by displacing the then-worst entry.
    heap_evictions: int = 0
    #: True when a request deadline expired between per-document merges
    #: and the bounded mode returned its best-so-far heap (a *partial*
    #: answer) instead of finishing the candidate scan.
    deadline_hit: bool = False


class DILQueryProcessor:
    """Executes one keyword query against per-keyword Dewey lists."""

    def __init__(self, decay: float = 0.5, tracer=None,
                 stats: StatsRegistry | None = None) -> None:
        if not 0.0 < decay <= 1.0:
            raise ValueError("decay must lie in (0, 1]")
        self._decay = decay
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._stats = stats
        self.last_statistics = DILQueryStatistics()

    # ------------------------------------------------------------------
    def execute(self, dils: list[DeweyInvertedList],
                k: int | None = None) -> list[QueryResult]:
        """All Eq. 1 results of the query, ranked; top-k when given
        (the bounded mode, identical to ranking-then-truncating)."""
        if k is None:
            return rank_results(self.collect(dils), None)
        return self.collect_topk(dils, k)

    def collect(self, dils: list[DeweyInvertedList],
                ) -> list[QueryResult]:
        """All Eq. 1 results of the query, *unranked* -- the merge
        stage of the query pipeline; ranking is a separate stage."""
        if not dils:
            raise ValueError("a query needs at least one keyword list")
        with self._tracer.span("query.dil_merge",
                               keywords=len(dils)) as span:
            results = self._merge(dils)
            span.annotate(
                postings_read=self.last_statistics.postings_read,
                frames_pushed=self.last_statistics.frames_pushed,
                results=self.last_statistics.results_found)
            return results

    def collect_topk(self, dils: list[DeweyInvertedList], k: int,
                     deadline: Deadline | None = None,
                     ) -> list[QueryResult]:
        """The top-k Eq. 1 results, *ranked*, via bounded evaluation.

        Equivalent to ``rank_results(self.collect(dils), k)`` but
        short-circuiting: documents whose optimistic score cannot enter
        the full result heap are skipped without reading a posting.
        With a ``deadline``, the candidate scan stops once it expires
        and the best-so-far heap is returned (see
        :meth:`collect_topk_stats` for the partial flag).
        """
        return self.collect_topk_stats(dils, k, deadline)[0]

    def collect_topk_stats(self, dils: list[DeweyInvertedList], k: int,
                           deadline: Deadline | None = None,
                           ) -> tuple[list[QueryResult],
                                      DILQueryStatistics]:
        """:meth:`collect_topk` plus *this call's own* statistics.

        The returned statistics object is local to the call --
        concurrent queries through one shared processor each get their
        own (``last_statistics`` keeps only the most recent writer and
        is for single-threaded inspection). ``statistics.deadline_hit``
        is the partial-results flag the serving layer surfaces.
        """
        if not dils:
            raise ValueError("a query needs at least one keyword list")
        if k < 1:
            raise ValueError("k must be positive")
        with self._tracer.span("query.dil_merge",
                               keywords=len(dils)) as span:
            results, statistics = self._merge_topk(dils, k, deadline)
            span.annotate(
                postings_read=statistics.postings_read,
                frames_pushed=statistics.frames_pushed,
                results=statistics.results_found,
                docs_skipped=statistics.docs_skipped,
                heap_evictions=statistics.heap_evictions)
            if statistics.deadline_hit:
                span.annotate(deadline_hit=True)
            if self._stats is not None:
                self._stats.increment_many({
                    TOPK_DOCS_SKIPPED: statistics.docs_skipped,
                    TOPK_HEAP_EVICTIONS: statistics.heap_evictions})
            return results, statistics

    # ------------------------------------------------------------------
    def _merge(self, dils: list[DeweyInvertedList],
               ) -> list[QueryResult]:
        statistics = DILQueryStatistics()
        self.last_statistics = statistics
        if any(not dil for dil in dils):
            # Some keyword matches nothing anywhere: no subtree can
            # cover all keywords.
            return []
        # Every document of every list, even one missing a keyword:
        # the paper's full pass reads every posting.
        doc_ids = sorted(set().union(*(dil.doc_max_scores()
                                       for dil in dils)))
        streams = [_DocStream(dil, index)
                   for index, dil in enumerate(dils)]
        results: list[QueryResult] = []
        for doc_id in doc_ids:
            results += self._merge_document(streams, doc_id, statistics)
        statistics.results_found = len(results)
        return results

    def _merge_topk(self, dils: list[DeweyInvertedList], k: int,
                    deadline: Deadline | None = None,
                    ) -> tuple[list[QueryResult], DILQueryStatistics]:
        statistics = DILQueryStatistics()
        self.last_statistics = statistics
        if any(not dil for dil in dils):
            return [], statistics

        doc_maxes = [dil.doc_max_scores() for dil in dils]
        # Only documents containing every keyword can produce results;
        # ascending doc-id order is what makes the equality skip below
        # safe (heap entries always precede the current document).
        candidates = sorted(set.intersection(
            *(set(maxes) for maxes in doc_maxes)))
        union_size = len(set.union(*(set(maxes) for maxes in doc_maxes)))
        statistics.docs_skipped += union_size - len(candidates)

        streams = [_DocStream(dil, index)
                   for index, dil in enumerate(dils)]
        heap: list[tuple[float, _HeapDewey, QueryResult]] = []
        for doc_id in candidates:
            if deadline is not None and deadline.expired:
                # Mid-merge expiry: stop scanning and serve what the
                # heap holds. Document granularity keeps every served
                # result exact (a document merge is never cut in half).
                statistics.deadline_hit = True
                break
            if len(heap) == k:
                bound = sum(maxes[doc_id] for maxes in doc_maxes)
                if bound <= heap[0][0]:
                    statistics.docs_skipped += 1
                    continue
            doc_results = self._merge_document(streams, doc_id,
                                               statistics)
            statistics.results_found += len(doc_results)
            for result in doc_results:
                entry = (result.score, _HeapDewey(result.dewey), result)
                if len(heap) < k:
                    heapq.heappush(heap, entry)
                elif heap[0] < entry:
                    heapq.heapreplace(heap, entry)
                    statistics.heap_evictions += 1
        ordered = sorted(heap)
        ordered.reverse()
        return [entry[2] for entry in ordered], statistics

    # ------------------------------------------------------------------
    def _merge_document(self, streams: list[_DocStream], doc_id: int,
                        statistics: DILQueryStatistics,
                        ) -> list[QueryResult]:
        """Run the stack merge over one document's postings and return
        its Eq. 1 results in the order their frames pop.

        ``frames[i]`` holds the per-keyword scores of the element at
        path ``top[:i]``, where ``top`` is the last posting's path, and
        ``covers[i]`` whether a result lies in its subtree. Scores only
        ever rise from 0.0 through ``>``, so they are never negative
        and ``min(scores) > 0.0`` means every keyword is covered.
        """
        items: list[_MergeItem] = []
        for stream in streams:
            items += stream.doc_postings(doc_id)
        # ``(path, keyword index)`` is unique within a document, so
        # the sort never compares scores and Dewey order is total.
        items.sort()
        items.append(_END)
        keyword_count = len(streams)
        decay = self._decay
        frames: list[list[float]] = []
        covers: list[bool] = []
        top: tuple[int, ...] = ()
        results: list[QueryResult] = []
        pushed = 0
        for path, keyword_index, score in items:
            # Frames that are ancestors-or-self of ``path`` survive.
            common = 0
            if path is not None:
                common = 1
                for old, new in zip(top, path):
                    if old != new:
                        break
                    common += 1
            depth = len(frames)
            while depth > common:
                depth -= 1
                scores = frames.pop()
                covered = covers.pop()
                emitted = not covered and min(scores) > 0.0
                if emitted:
                    results.append(QueryResult(
                        dewey=DeweyID(doc_id, top[:depth]),
                        score=sum(scores), keyword_scores=tuple(scores)))
                if depth:
                    # Eq. 2-3: one containment edge of decay, max
                    # over the parent's other descendants.
                    parent = frames[-1]
                    for index, child in enumerate(scores):
                        decayed = child * decay
                        if decayed > parent[index]:
                            parent[index] = decayed
                    if covered or emitted:
                        covers[-1] = True
            if path is None:
                break
            # Push the document root (depth 0), then one frame per
            # Dewey component down to ``path``.
            missing = len(path) + 1 - depth
            frames += [[0.0] * keyword_count for _ in range(missing)]
            covers += [False] * missing
            pushed += missing
            top = path
            own = frames[-1]
            if score > own[keyword_index]:
                own[keyword_index] = score
        statistics.postings_read += len(items) - 1
        statistics.frames_pushed += pushed
        return results
