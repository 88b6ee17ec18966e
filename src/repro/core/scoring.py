"""Node scores and score propagation (paper Section III, Eq. 2-5).

* **NodeScore** (Eq. 5): ``NS(v, w) = max(IRS(v, w | D), OS(onto(v), w))``
  -- a node is associated with a keyword either through its textual
  description (BM25 over XML elements as documents, normalized per
  keyword) or through its ontological reference (the OntoScore of the
  referenced concept). Non-code nodes have a zero ontological term.
* **Propagation** (Eq. 2-3): scores flow up the XML tree attenuated by
  ``decay`` per containment edge, combined with ``max``.
* **Result score** (Eq. 4): the sum over query keywords of the
  propagated per-keyword scores.
"""

from __future__ import annotations

from typing import Container, Mapping, Sequence

from ..ir.inverted_index import PositionalIndex
from .obs.tracer import NULL_TRACER
from .ontoscore.base import make_scorer
from ..ir.tokenizer import Keyword
from ..xmldoc.dewey import DeweyID, assign_dewey_ids
from ..xmldoc.model import Corpus, TextPolicy
from .ontoscore.base import OntoScoreComputer


class ElementIndex:
    """Full-text index of XML elements as IR documents.

    Units are :class:`DeweyID`\\ s; each element contributes its own
    textual description (not its subtree's -- subtree association is
    what propagation provides). Also records which code node resolves to
    which concept of the search ontology, the ``onto(D, v)`` map, and its
    inverse, concept → code nodes, so Eq. 5 visits only the code nodes
    a keyword's OntoScores reach.
    """

    def __init__(self, corpus: Corpus, text_policy: TextPolicy | None = None,
                 concept_resolver=None, k1: float = 1.2,
                 b: float = 0.75, ir_function: str = "bm25") -> None:
        self._index = PositionalIndex()
        self._code_node_concepts: dict[DeweyID, str] = {}
        # The inverse of ``_code_node_concepts`` (see concept_code_nodes).
        self._concept_nodes: dict[str, list[tuple[int, DeweyID]]] = {}
        self._node_order: list[DeweyID] = []
        self._doc_ids: set[int] = set()
        self._text_policy = text_policy
        self._resolver = concept_resolver
        for document in corpus:
            self._ingest(document)
        self._scorer = make_scorer(self._index, ir_function, k1=k1, b=b)

    def _ingest(self, document) -> None:
        self._doc_ids.add(document.doc_id)
        dewey_ids = assign_dewey_ids(document)
        for node in document.iter():
            dewey = dewey_ids[node]
            self._index.add(dewey,
                            node.textual_description(self._text_policy))
            self._node_order.append(dewey)
            if node.reference is not None and self._resolver is not None:
                concept = self._resolver(node.reference)
                if concept is not None:
                    self._concept_nodes.setdefault(concept.code, []).append(
                        (len(self._code_node_concepts), dewey))
                    self._code_node_concepts[dewey] = concept.code

    def has_document(self, doc_id: int) -> bool:
        """Whether a document already contributes to the statistics."""
        return doc_id in self._doc_ids

    def add_document(self, document) -> None:
        """Grow the statistics substrate with one more document.

        The index is add-order independent (term statistics are set
        aggregates over elements), but growing it *does* shift the
        corpus-global BM25 statistics -- callers holding normalized
        score caches (:class:`NodeScorer`) must invalidate them.
        """
        if document.doc_id in self._doc_ids:
            raise ValueError(
                f"document {document.doc_id} is already indexed")
        self._ingest(document)

    # ------------------------------------------------------------------
    @property
    def index(self) -> PositionalIndex:
        return self._index

    @property
    def scorer(self):
        """The configured IR scorer (BM25 by default)."""
        return self._scorer

    def code_node_concepts(self) -> dict[DeweyID, str]:
        """Dewey ID → referenced concept code, for resolvable code nodes."""
        return dict(self._code_node_concepts)

    def concept_code_nodes(self,
                           ) -> Mapping[str, Sequence[tuple[int, DeweyID]]]:
        """Concept code → ``(ordinal, Dewey ID)`` of each code node
        referencing it; the ordinal is the node's position in
        :meth:`code_node_concepts` order. The live map, not a copy --
        callers must not mutate it."""
        return self._concept_nodes

    def concepts_in(self, doc_ids: Container[int]) -> set[str]:
        """Concept codes referenced by code nodes of the given documents."""
        return {code for dewey, code in self._code_node_concepts.items()
                if dewey.doc_id in doc_ids}

    def concept_of(self, dewey: DeweyID) -> str | None:
        return self._code_node_concepts.get(dewey)

    def element_count(self) -> int:
        return len(self._node_order)

    def irs(self, keyword: Keyword) -> dict[DeweyID, float]:
        """Normalized per-element IR scores for a keyword."""
        return self._scorer.normalized_scores(keyword)


class NodeScorer:
    """Eq. 5 over a corpus: combines element IRS with OntoScore.

    ``node_weights`` optionally modulates NodeScores per element --
    the hook through which ElemRank (XRANK's structural prestige score,
    see :mod:`repro.core.elemrank`) enters the ranking; elements absent
    from the mapping keep weight 1.
    """

    def __init__(self, element_index: ElementIndex,
                 ontoscore: OntoScoreComputer,
                 node_weights: dict[DeweyID, float] | None = None,
                 tracer=None) -> None:
        self._elements = element_index
        self._ontoscore = ontoscore
        self._node_weights = node_weights
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._cache: dict[Keyword, dict[DeweyID, float]] = {}

    def invalidate(self) -> None:
        """Drop memoized per-keyword scores; required after the element
        index's corpus-global statistics change (document added)."""
        self._cache.clear()

    def node_scores(self, keyword: Keyword,
                    onto: Mapping[str, float] | None = None,
                    ) -> dict[DeweyID, float]:
        """All nonzero ``NS(v, w)`` values for one keyword.

        ``onto`` is the keyword's OntoScore map when the caller already
        holds it; by default it is read from the OntoScore computer.
        """
        cached = self._cache.get(keyword)
        if cached is None:
            with self._tracer.span("index.node_scores",
                                   keyword=keyword.text) as span:
                if onto is None:
                    onto = self._ontoscore.compute(keyword)
                cached = self._compute(keyword, onto)
                span.annotate(scored_nodes=len(cached))
            self._cache[keyword] = cached
        return dict(cached)

    def _compute(self, keyword: Keyword,
                 onto: Mapping[str, float]) -> dict[DeweyID, float]:
        scores = self._elements.irs(keyword)
        # Only code nodes referencing a concept in ``onto`` can take the
        # ontological side of the max. Raised nodes are inserted in
        # code-node order, so the map's order matches a full scan.
        code_nodes = self._elements.concept_code_nodes()
        raised = []
        for concept, ontoscore in onto.items():
            for ordinal, dewey in code_nodes.get(concept, ()):
                if ontoscore > scores.get(dewey, 0.0):
                    raised.append((ordinal, dewey, ontoscore))
        raised.sort()  # ordinals are unique: Dewey IDs never compared
        for _, dewey, ontoscore in raised:
            scores[dewey] = ontoscore
        if self._node_weights is not None:
            scores = {dewey: value * self._node_weights.get(dewey, 1.0)
                      for dewey, value in scores.items()}
        return scores


def propagate_scores(node_scores: dict[DeweyID, float],
                     decay: float) -> dict[DeweyID, float]:
    """Eq. 2-3: best decayed descendant-or-self score for every node.

    ``Score(v, w) = max over u in desc-or-self(v) of
    decay^d(v,u) · NS(u, w)``. Implemented bottom-up over the Dewey IDs
    actually present: each scored node pushes its decayed score to every
    ancestor. Nodes that end with a zero score are omitted.
    """
    if not 0.0 < decay <= 1.0:
        raise ValueError("decay must lie in (0, 1]")
    propagated: dict[DeweyID, float] = {}
    for dewey, score in node_scores.items():
        if score <= 0.0:
            continue
        current = dewey
        value = score
        while True:
            if propagated.get(current, 0.0) < value:
                propagated[current] = value
            else:
                # Every ancestor already dominates through this path.
                break
            if not current.path:
                break
            current = current.parent()
            value *= decay
    return propagated


def result_score(per_keyword_scores: list[float]) -> float:
    """Eq. 4: monotonic aggregation (sum) over the query keywords."""
    return sum(per_keyword_scores)
