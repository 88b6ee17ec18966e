"""Clinical-narrative query understanding (ROADMAP's last open item).

The paper assumes curated keyword queries (``"cardiac arrest"
amiodarone``, Section VII), but real EMR users paste narrative text
("super-morbidly obese, fundic gland polyps"). This module maps such
text to a keyword query with AutoHPO's two-stage strategy:

1. **Extract** candidate clinical phrases from the free text: the
   longest-match scan of :meth:`TerminologyService.match_in_text` finds
   every in-vocabulary span, and the leftover token runs (split on
   stopwords) become out-of-vocabulary candidates.
2. **Map** each phrase to ontology concepts through the terminology
   service, with a fallback ladder recorded per phrase: *exact*
   preferred-term match, then *synonym*, then *parent-term* — the
   out-of-vocabulary phrase's per-token concept candidates are
   generalized to their nearest common is-a ancestor (min-hop depths
   from a BFS over the ontology graph). A phrase no concept can be
   found for degrades to its plain content tokens — never silently
   dropped.
3. **Weight** mapped concepts by specificity (hierarchy depth plus
   inverse descendant count, so rare/specific concepts outrank broad
   axes) and emit a :class:`~repro.ir.tokenizer.KeywordQuery` the
   unchanged engine executes.

The mapping is opt-in per call: ``search_outcome(text, narrative=True)``
(:meth:`~repro.core.query.engine.SearchEngine.search_outcome`) maps a
string query through the engine's one cached mapper before any shard
or stage sees it; without the flag nothing here runs. Mapping runs
under a ``query.narrative.map`` span and feeds the
``query.narrative.*`` counters.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...ir.tokenizer import (DEFAULT_STOPWORDS, Keyword, KeywordQuery,
                             normalize_term, tokenize)
from ...ontology.api import TerminologyService
from ...ontology.model import OntologyError
from .. import stats as counters
from ..obs.tracer import NULL_TRACER

#: Provenance labels, one rung of the fallback ladder each.
EXACT = "exact"
SYNONYM = "synonym"
PARENT = "parent"
KEYWORD = "keyword"


@dataclass(frozen=True)
class PhraseMapping:
    """How one extracted phrase became query keywords.

    ``phrase`` is the normalized text span from the narrative;
    ``method`` is the ladder rung that resolved it (``exact`` /
    ``synonym`` / ``parent`` / ``keyword``); ``concept_code`` and
    ``term`` name the mapped concept and the emitted keyword text
    (for ``keyword`` degradations, ``concept_code`` is empty and
    ``term`` is the kept token run); ``weight`` is the specificity
    score used for selection; ``via`` records the candidate concept
    codes a parent-term generalization was computed from.
    """

    phrase: str
    method: str
    concept_code: str
    term: str
    weight: float
    via: tuple[str, ...] = ()


@dataclass(frozen=True)
class NarrativeMapping:
    """The full provenance of one narrative → keyword-query mapping."""

    text: str
    query: KeywordQuery
    mappings: tuple[PhraseMapping, ...]

    def by_method(self, method: str) -> list[PhraseMapping]:
        return [m for m in self.mappings if m.method == method]


def _code_order(code: str) -> tuple[int, int, str]:
    """All-digit concept codes in numeric order, others after: the
    deterministic tie-break of candidate ranking."""
    if code.isdigit() and (code == "0" or not code.startswith("0")):
        return (0, len(code), code)
    return (1, 0, code)


class NarrativeQueryMapper:
    """Maps free clinical narrative onto a :class:`KeywordQuery`.

    ``max_phrase_words`` bounds the in-vocabulary window scan;
    ``max_keywords`` caps how many *concept* keywords the emitted query
    keeps (most specific first — plain-keyword degradations are always
    kept, so no phrase disappears entirely).
    """

    def __init__(self, terminology: TerminologyService,
                 system_code: str | None = None,
                 max_phrase_words: int = 4,
                 max_keywords: int = 6,
                 stopwords: frozenset[str] = DEFAULT_STOPWORDS,
                 tracer=None, stats=None) -> None:
        if max_keywords < 1:
            raise ValueError("max_keywords must be at least 1")
        self.terminology = terminology
        self.system_code = system_code
        self.max_phrase_words = max_phrase_words
        self.max_keywords = max_keywords
        self.stopwords = stopwords
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.stats = stats
        # token -> [(code, weight)] maps, built lazily once per system;
        # hierarchy statistics memoized per concept (the same concepts
        # recur across a workload).
        self._token_maps: dict[str, dict[str, list[tuple[str, float]]]] = {}
        self._hier_stats: dict[tuple[str, str], tuple[int, int]] = {}
        self._depth_maps: dict[tuple[str, str], dict[str, int]] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def map(self, text: str) -> NarrativeMapping:
        """Extract, map and weight; raises ``ValueError`` on text with
        no indexable tokens (mirroring ``KeywordQuery.parse``)."""
        tokens = tokenize(text)
        if not tokens:
            raise ValueError(f"no indexable tokens in narrative {text!r}")
        with self.tracer.span("query.narrative.map",
                              tokens=len(tokens)) as span:
            mapping = self._map(text, tokens, span)
        return mapping

    # ------------------------------------------------------------------
    # The two-stage strategy
    # ------------------------------------------------------------------
    def _map(self, text: str, tokens: list[str], span) -> NarrativeMapping:
        matches = self.terminology.match_in_text(
            text, self.system_code, self.max_phrase_words)
        covered = [False] * len(tokens)
        concept_mappings: list[PhraseMapping] = []
        keyword_mappings: list[PhraseMapping] = []

        # Stage 1a: in-vocabulary spans. ``match_in_text`` scanned this
        # very token list left to right without overlaps, so each
        # match's tokens occur at or after the previous match's end.
        position = 0
        for phrase, concept in matches:
            phrase_tokens = phrase.split(" ")
            start = self._find_span(tokens, phrase_tokens, position)
            if start < 0:  # pragma: no cover - defensive
                continue
            for index in range(start, start + len(phrase_tokens)):
                covered[index] = True
            position = start + len(phrase_tokens)
            # Emit the concept's canonical term: an exact hit keeps the
            # phrase verbatim, a synonym hit normalizes the user's
            # phrasing ("cardiopulmonary arrest") to the preferred term
            # ("cardiac arrest") the corpus and curated queries use.
            term = normalize_term(concept.preferred_term)
            method = EXACT if term == phrase else SYNONYM
            concept_mappings.append(PhraseMapping(
                phrase=phrase, method=method,
                concept_code=concept.code,
                term=term,
                weight=self._specificity(concept.code)))

        # Stage 1b: leftover runs (consecutive uncovered content
        # tokens, split on stopwords) are the out-of-vocabulary
        # candidates.
        for run in self._leftover_runs(tokens, covered):
            mapping = self._map_oov(run)
            if mapping.method == KEYWORD:
                keyword_mappings.append(mapping)
            else:
                concept_mappings.append(mapping)

        # Stage 2: specificity selection. Concept keywords are ordered
        # most-specific-first and capped; keyword degradations always
        # survive (a dropped phrase would silently change recall).
        concept_mappings.sort(key=lambda m: (-m.weight, m.term))
        kept = concept_mappings[:self.max_keywords]
        dropped = len(concept_mappings) - len(kept)

        keywords: list[Keyword] = []
        seen: set[tuple[tuple[str, ...], bool]] = set()
        for mapping in (*kept, *keyword_mappings):
            for keyword in self._keywords_of(mapping):
                key = (keyword.tokens, keyword.is_phrase)
                if key not in seen:
                    seen.add(key)
                    keywords.append(keyword)
        if not keywords:
            # Nothing mapped and every token was a stopword-free bust:
            # fall back to the raw tokens so the query still runs.
            fallback = [t for t in tokens if t not in self.stopwords]
            keywords = [Keyword((t,)) for t in (fallback or tokens)]

        all_mappings = (*kept, *keyword_mappings)
        span.annotate(phrases=len(all_mappings) + dropped,
                      keywords=len(keywords), dropped=dropped)
        self._count(all_mappings, dropped)
        return NarrativeMapping(text=text,
                                query=KeywordQuery(tuple(keywords)),
                                mappings=all_mappings)

    # ------------------------------------------------------------------
    # Extraction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _find_span(tokens: list[str], phrase_tokens: list[str],
                   start: int) -> int:
        width = len(phrase_tokens)
        for index in range(start, len(tokens) - width + 1):
            if tokens[index:index + width] == phrase_tokens:
                return index
        return -1

    def _leftover_runs(self, tokens: list[str],
                       covered: list[bool]) -> list[list[str]]:
        runs: list[list[str]] = []
        current: list[str] = []
        for token, taken in zip(tokens, covered):
            if taken or token in self.stopwords:
                if current:
                    runs.append(current)
                    current = []
                continue
            current.append(token)
        if current:
            runs.append(current)
        return runs

    # ------------------------------------------------------------------
    # The parent-term fallback (OOV ladder rung 3)
    # ------------------------------------------------------------------
    def _map_oov(self, run: list[str]) -> PhraseMapping:
        phrase = " ".join(run)
        candidates = self._candidates(run)
        if not candidates:
            return PhraseMapping(phrase=phrase, method=KEYWORD,
                                 concept_code="", term=phrase,
                                 weight=0.0)
        system, top = candidates[0][0], candidates[0][1]
        # Generalize within the best candidate's system only, and over a
        # bounded peer set: past a handful of equally-good candidates
        # the common ancestor degrades toward the root anyway.
        peers = [code for cand_system, code, _overlap, _weight
                 in candidates if cand_system == system][:8]
        chosen = self._common_ancestor(system, peers) or top
        concept = self.terminology.concept_for_code(system, chosen)
        return PhraseMapping(phrase=phrase, method=PARENT,
                             concept_code=chosen,
                             term=normalize_term(concept.preferred_term),
                             weight=self._specificity(chosen, system),
                             via=tuple(peers))

    def _candidates(self, run: list[str],
                    ) -> list[tuple[str, str, int, float]]:
        """Concepts sharing tokens with the run, ranked by (overlap
        desc, best match weight desc, code order). Only maximal-overlap
        candidates are returned — they are what the run is *about*."""
        per_system: dict[str, dict[str, list[float]]] = {}
        for token in run:
            for system, code, weight in self._token_hits(token):
                per_system.setdefault(system, {}).setdefault(
                    code, []).append(weight)
        ranked: list[tuple[str, str, int, float]] = []
        for system, codes in per_system.items():
            for code, weights in codes.items():
                ranked.append((system, code, len(weights), max(weights)))
        if not ranked:
            return []
        ranked.sort(key=lambda item: (-item[2], -item[3],
                                      _code_order(item[1]), item[0]))
        best_overlap = ranked[0][2]
        return [item for item in ranked if item[2] == best_overlap]

    def _token_hits(self, token: str) -> list[tuple[str, str, float]]:
        hits: list[tuple[str, str, float]] = []
        for system in self.terminology.systems():
            if self.system_code is not None and system != self.system_code:
                continue
            for code, weight in self._token_map(system).get(
                    token, ()):
                hits.append((system, code, weight))
        return hits

    def _token_map(self, system: str,
                         ) -> dict[str, list[tuple[str, float]]]:
        cached = self._token_maps.get(system)
        if cached is not None:
            return cached
        ontology = self.terminology.ontology(system)
        weights: dict[str, dict[str, float]] = {}
        for concept in ontology.concepts():
            for term_index, term in enumerate(concept.terms):
                weight = 1.0 if term_index == 0 else 0.5
                for token in set(tokenize(term)):
                    bucket = weights.setdefault(token, {})
                    bucket[concept.code] = max(
                        bucket.get(concept.code, 0.0), weight)
        token_map = {
            token: [(code, codes[code])
                    for code in sorted(codes, key=_code_order)]
            for token, codes in weights.items()}
        self._token_maps[system] = token_map
        return token_map

    def _common_ancestor(self, system: str,
                         codes: list[str]) -> str | None:
        """Nearest common is-a ancestor of ``codes`` (reflexive: a
        single candidate is its own ancestor at depth 0); ``None`` when
        the candidates share no ancestor."""
        depth_maps = [self._ancestor_depths(system, code)
                      for code in codes]
        common = set(depth_maps[0])
        for depths in depth_maps[1:]:
            common &= set(depths)
        if not common:
            return None
        return min(common,
                   key=lambda code: (sum(depths[code]
                                         for depths in depth_maps),
                                     _code_order(code)))

    def _ancestor_depths(self, system: str, code: str) -> dict[str, int]:
        """Min-hop depth to every is-a ancestor, the concept itself at
        depth 0 (reflexive so a lone candidate generalizes to itself)."""
        key = (system, code)
        cached = self._depth_maps.get(key)
        if cached is not None:
            return cached
        ontology = self.terminology.ontology(system)
        depths = {code: 0}
        frontier = [code]
        hop = 0
        while frontier:
            hop += 1
            next_frontier: list[str] = []
            for current in frontier:
                for parent in ontology.parents(current):
                    if parent not in depths:
                        depths[parent] = hop
                        next_frontier.append(parent)
            frontier = next_frontier
        self._depth_maps[key] = depths
        return depths

    # ------------------------------------------------------------------
    # Specificity weighting
    # ------------------------------------------------------------------
    def _specificity(self, code: str,
                     system: str | None = None) -> float:
        """Hierarchy depth plus inverse descendant count: deep, rare
        concepts ("supraventricular arrhythmia") outrank broad axes
        ("disorder of heart") when the keyword cap bites."""
        depth, descendants = self._hierarchy_stats(code, system)
        return depth + 1.0 / (1.0 + descendants)

    def _hierarchy_stats(self, code: str,
                         system: str | None = None) -> tuple[int, int]:
        system = system or self._system_of(code)
        if system is None:
            return (0, 0)
        key = (system, code)
        cached = self._hier_stats.get(key)
        if cached is not None:
            return cached
        depth = max(self._ancestor_depths(system, code).values())
        descendants = len(self.terminology.ontology(system).descendants(code))
        stats = (depth, descendants)
        self._hier_stats[key] = stats
        return stats

    def _system_of(self, code: str) -> str | None:
        for system in self.terminology.systems():
            if self.system_code is not None and system != self.system_code:
                continue
            try:
                self.terminology.concept_for_code(system, code)
            except OntologyError:
                continue
            return system
        return None

    # ------------------------------------------------------------------
    def _keywords_of(self, mapping: PhraseMapping) -> list[Keyword]:
        if mapping.method == KEYWORD:
            # Degraded runs stay individual keywords: requiring the OOV
            # tokens to be adjacent in documents would be stricter than
            # the user's narrative implies.
            return [Keyword((token,)) for token in mapping.term.split(" ")]
        tokens = tuple(mapping.term.split(" "))
        return [Keyword(tokens, is_phrase=len(tokens) > 1)]

    def _count(self, mappings: tuple[PhraseMapping, ...],
               dropped: int) -> None:
        if self.stats is None:
            return
        amounts = {
            counters.NARRATIVE_QUERIES: 1,
            counters.NARRATIVE_PHRASES: len(mappings) + dropped,
            counters.NARRATIVE_CONCEPTS_DROPPED: dropped,
        }
        by_method = {
            EXACT: counters.NARRATIVE_MAPPED_EXACT,
            SYNONYM: counters.NARRATIVE_MAPPED_SYNONYM,
            PARENT: counters.NARRATIVE_MAPPED_PARENT,
            KEYWORD: counters.NARRATIVE_KEYWORD_FALLBACKS,
        }
        for mapping in mappings:
            name = by_method[mapping.method]
            amounts[name] = amounts.get(name, 0) + 1
        self.stats.increment_many({name: amount
                                   for name, amount in amounts.items()
                                   if amount})

