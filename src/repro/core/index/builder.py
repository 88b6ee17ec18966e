"""The Index Creation Module (paper Section V-B).

Builds XOnto-DILs in the paper's three stages:

1. **Full-text indexing** -- the corpus's elements and the ontology's
   concepts are indexed as IR documents (shared across strategies; done
   by the :class:`~repro.core.scoring.ElementIndex` and the strategy's
   seed scorer, both passed in).
2. **OntoScore computation** -- for each keyword, the strategy's
   authority-flow expansion produces the hash-map slice
   ``(concept, keyword) → OS`` above threshold.
3. **DIL creation** -- Eq. 5 combines per-element IR scores with the
   OntoScores of referenced concepts into NodeScores; nonzero NodeScores
   become postings, sorted by Dewey ID.

The builder measures per-keyword creation time, posting counts and list
sizes -- the three columns of Table III.
"""

from __future__ import annotations

import time
from typing import Container, Iterable

from ...ir.tokenizer import Keyword
from ..obs.tracer import NULL_TRACER
from ..ontoscore.base import OntoScoreComputer
from ..scoring import ElementIndex, NodeScorer
from .dil import (DeweyInvertedList, KeywordBuildStats, Posting,
                  XOntoDILIndex)


class IndexBuilder:
    """Builds the XOnto-DIL index of one strategy."""

    def __init__(self, element_index: ElementIndex,
                 ontoscore: OntoScoreComputer,
                 node_weights: dict | None = None, tracer=None) -> None:
        self._elements = element_index
        self._ontoscore = ontoscore
        self._tracer = tracer if tracer is not None else NULL_TRACER
        if tracer is not None:
            ontoscore.tracer = tracer
        self._node_scorer = NodeScorer(element_index, ontoscore,
                                       node_weights=node_weights,
                                       tracer=self._tracer)

    # ------------------------------------------------------------------
    def build_keyword(self, keyword: Keyword,
                      doc_ids: Container[int] | None = None,
                      ) -> tuple[DeweyInvertedList, KeywordBuildStats]:
        """Stages 2+3 for a single keyword, with measurements.

        ``doc_ids`` scopes the list to those documents (``None``: every
        document of the element index). OntoScores and NodeScores stay
        corpus-global, so a scoped list is exactly the unscoped one
        filtered to the scope; only the postings the scope keeps are
        ever created, sorted and measured.
        """
        with self._tracer.span("index.build_keyword",
                               keyword=keyword.text) as span:
            started = time.perf_counter()
            onto = self._ontoscore.compute(keyword)
            onto_entries = len(onto)
            node_scores = self._node_scorer.node_scores(keyword, onto)
            postings = [Posting(dewey, score)
                        for dewey, score in node_scores.items()
                        if score > 0.0 and (doc_ids is None
                                            or dewey.doc_id in doc_ids)]
            dil = DeweyInvertedList(keyword, postings)
            elapsed_ms = (time.perf_counter() - started) * 1000.0
            stats = KeywordBuildStats(
                keyword=keyword.text, creation_time_ms=elapsed_ms,
                dil=dil, ontology_entries=onto_entries)
            span.annotate(postings=len(dil),
                          ontology_entries=onto_entries)
        return dil, stats

    def build(self, vocabulary: Iterable[str],
              strategy_name: str | None = None) -> XOntoDILIndex:
        """Build DILs for every word of ``vocabulary``."""
        index = XOntoDILIndex(
            strategy=strategy_name or self.ontoscore.name)
        for word in sorted(set(vocabulary)):
            keyword = Keyword.from_text(word)
            dil, stats = self.build_keyword(keyword)
            index.add(dil, stats)
        return index

    # ------------------------------------------------------------------
    @property
    def element_index(self) -> ElementIndex:
        return self._elements

    @property
    def ontoscore(self) -> OntoScoreComputer:
        return self._ontoscore

    @property
    def node_scorer(self) -> NodeScorer:
        return self._node_scorer
