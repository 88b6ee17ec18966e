"""The Query Module as an explicit stage chain (paper Figure 8).

Each step of a search is a named, independently testable stage object,
fixed when the pipeline is built:

``parse``
    Keyword-query parsing (:class:`ParseStage`).
``dil_fetch``
    One XOnto-DIL per keyword, through the
    :class:`~repro.core.index.manager.IndexManager`'s cache
    (:class:`DILFetchStage`).
``merge``
    XRANK's stack merge over the fetched lists
    (:class:`MergeStage`, unranked Eq. 1 results).
``rank``
    Deterministic ``(-score, dewey)`` ordering and top-k truncation
    (:class:`RankStage`).

Stages communicate through a :class:`QueryContext` that accumulates the
intermediate artifacts; each stage reads what earlier stages wrote and
is traced by the component it wraps (``query.parse``,
``query.dil_fetch`` per keyword, ``query.dil_merge``, ``query.rank``).
Clinical-narrative text is mapped to keywords before the chain runs
(:meth:`SearchEngine.search_outcome
<repro.core.query.engine.SearchEngine.search_outcome>`), so the chain
only ever sees keyword queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from ...ir.tokenizer import Keyword, KeywordQuery
from ..deadline import Deadline
from ..index.dil import DeweyInvertedList
from ..obs.tracer import NULL_TRACER
from .dil_algorithm import DILQueryProcessor
from .results import QueryResult, rank_results


@dataclass
class QueryContext:
    """Mutable state threaded through the stage chain."""

    query: str | KeywordQuery
    k: int | None = None
    parsed: KeywordQuery | None = None
    dils: list[DeweyInvertedList] = field(default_factory=list)
    unranked: list[QueryResult] = field(default_factory=list)
    results: list[QueryResult] = field(default_factory=list)
    #: The request's time budget (None = unbounded, the historical
    #: behavior). Stages that can do real work check it: the fetch
    #: stage between keywords (a fetch may rebuild a posting list from
    #: the corpus), the merge stage between per-document merges.
    deadline: Deadline | None = None
    #: Set by the merge stage when the deadline expired mid-merge and
    #: ``results`` holds a best-so-far prefix instead of the exact
    #: top-k. Expiry *before* any result exists raises
    #: :class:`~repro.core.deadline.DeadlineExceeded` instead.
    partial: bool = False

    def check_deadline(self, where: str = "") -> None:
        """Raise :class:`~repro.core.deadline.DeadlineExceeded` once
        the request's budget is spent (no-op without a deadline)."""
        if self.deadline is not None:
            self.deadline.check(where)


class QueryStage:
    """One named step of the pipeline. Subclasses set :attr:`name` and
    implement :meth:`run`; stages must be reentrant (one pipeline can
    serve many queries)."""

    name = "stage"

    def run(self, context: QueryContext) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class ParseStage(QueryStage):
    """``query`` → ``parsed`` (string queries only; pre-parsed
    :class:`KeywordQuery` objects pass through)."""

    name = "parse"

    def __init__(self, tracer=None) -> None:
        self._tracer = tracer if tracer is not None else NULL_TRACER

    def run(self, context: QueryContext) -> None:
        with self._tracer.span("query.parse"):
            context.parsed = (KeywordQuery.parse(context.query)
                              if isinstance(context.query, str)
                              else context.query)


class DILFetchStage(QueryStage):
    """``parsed`` → ``dils`` via a keyword→DIL source (usually
    :meth:`IndexManager.dil_for <repro.core.index.manager.IndexManager.dil_for>`,
    which traces each fetch as ``query.dil_fetch``)."""

    name = "dil_fetch"

    def __init__(self, dil_source: Callable[[Keyword],
                                            DeweyInvertedList]) -> None:
        self._source = dil_source

    def run(self, context: QueryContext) -> None:
        assert context.parsed is not None, "parse stage must run first"
        dils = []
        for keyword in context.parsed:
            # A fetch can rebuild a whole posting list (cache miss with
            # no store, or degraded mode); don't start one the request
            # can no longer use.
            context.check_deadline("dil_fetch")
            dils.append(self._source(keyword))
        context.dils = dils


class MergeStage(QueryStage):
    """``dils`` → ``unranked`` through the XRANK stack merge (traced as
    ``query.dil_merge`` by the processor).

    With a bounded query (``context.k`` set) the merge runs in the
    processor's top-k mode: ``unranked`` then already holds the ranked
    top-k (the bounded heap drained in final order), which the rank
    stage passes through instead of re-sorting."""

    name = "merge"

    def __init__(self, processor: DILQueryProcessor) -> None:
        self.processor = processor

    def run(self, context: QueryContext) -> None:
        context.check_deadline("dil_merge")
        if context.k is not None:
            context.unranked, statistics = \
                self.processor.collect_topk_stats(
                    context.dils, context.k, context.deadline)
            context.partial = statistics.deadline_hit
        else:
            # Full enumeration has no partial mode: the stack merge's
            # Eq. 1 emission order is document order, not rank order,
            # so a prefix of it is not a top-k prefix. The entry check
            # above is the full mode's only deadline gate.
            context.unranked = self.processor.collect(context.dils)


class RankStage(QueryStage):
    """``unranked`` → ``results``: deterministic ordering + top-k.

    When the merge stage already bounded the evaluation (``context.k``
    set), this stage is a heap-drain pass-through -- the candidates
    arrive ranked and truncated, so sorting them again would only
    re-verify the heap's invariant."""

    name = "rank"

    def __init__(self, tracer=None) -> None:
        self._tracer = tracer if tracer is not None else NULL_TRACER

    def run(self, context: QueryContext) -> None:
        with self._tracer.span("query.rank",
                               candidates=len(context.unranked)):
            if context.k is not None:
                context.results = list(context.unranked)
            else:
                context.results = rank_results(context.unranked,
                                               context.k)


class QueryPipeline:
    """An ordered chain of named stages executing one keyword query.

    The chain is fixed at construction: :attr:`stages` is a tuple, so
    concurrent queries always run the same stages."""

    def __init__(self, stages: Sequence[QueryStage]) -> None:
        self.stages: tuple[QueryStage, ...] = tuple(stages)

    @classmethod
    def default(cls, dil_source: Callable[[Keyword], DeweyInvertedList],
                processor: DILQueryProcessor,
                tracer=None) -> "QueryPipeline":
        """The paper's parse → dil_fetch → merge → rank chain."""
        return cls([ParseStage(tracer), DILFetchStage(dil_source),
                    MergeStage(processor), RankStage(tracer)])

    def run(self, query: str | KeywordQuery, k: int | None = None,
            deadline: Deadline | None = None) -> QueryContext:
        """Execute every stage in order; returns the filled context.

        A ``deadline`` bounds the whole chain: expiry before the merge
        produced anything raises
        :class:`~repro.core.deadline.DeadlineExceeded`; expiry
        mid-merge returns the filled context with ``partial=True``.
        """
        context = QueryContext(query=query, k=k, deadline=deadline)
        for stage in self.stages:
            stage.run(context)
        return context
