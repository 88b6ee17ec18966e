"""Terminology lookup service (substitute for the NLM UMLS API).

The paper accesses SNOMED through the UMLS API, which "provides the
necessary methods to query the ontology and dictionary and obtain the
concept code and display name for a particular string", and is used as a
black box both when generating CDA documents and inside the Index
Creation Module. This module provides the same operations in-process:

* exact and normalized string → concept lookup (``lookup_term``);
* token-subset matching for annotating free text (``match_in_text``);
* code → concept resolution (``concept_for_code`` / ``resolve``);
* the ``onto(D, v)`` function of Section III, mapping a code node's
  ontological reference to the concept node it denotes, across a
  collection of registered ontological systems.

Every system is one in-memory :class:`Ontology` graph, registered with
:meth:`TerminologyService.register`, which also builds its normalized
term dictionary. Code resolution runs under an ``ontology.resolve``
span and term lookup under ``ontology.lookup_term``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable

from ..core.obs.tracer import NULL_TRACER
from ..ir.tokenizer import normalize_term, tokenize
from ..xmldoc.model import OntologicalReference
from .model import Concept, Ontology, OntologyError


class TerminologyService:
    """Dictionary-style access to one or more ontological systems.

    This plays the role of the "ontological systems collection" of
    Section III: CDA code nodes carry ``(system_code, concept_code)``
    pairs, and :meth:`resolve` implements ``onto(D, v)``, returning the
    concept node a code node references.
    """

    def __init__(self, ontologies: Iterable[Ontology] = (),
                 tracer=None) -> None:
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._systems: dict[str, Ontology] = {}
        self._term_index: dict[str, dict[str, list[str]]] = {}
        for ontology in ontologies:
            self.register(ontology)

    # ------------------------------------------------------------------
    def register(self, ontology: Ontology) -> None:
        """Add an ontological system and index its terms in memory."""
        if ontology.system_code in self._systems:
            raise OntologyError(
                f"system {ontology.system_code} already registered")
        self._systems[ontology.system_code] = ontology
        index: dict[str, list[str]] = defaultdict(list)
        for concept in ontology.concepts():
            for term in concept.terms:
                index[self._normalize(term)].append(concept.code)
        self._term_index[ontology.system_code] = dict(index)

    # The one true normalization (see ``repro.ir.tokenizer``).
    _normalize = staticmethod(normalize_term)

    # ------------------------------------------------------------------
    # System access
    # ------------------------------------------------------------------
    def systems(self) -> list[str]:
        return list(self._systems)

    def ontology(self, system_code: str) -> Ontology:
        try:
            return self._systems[system_code]
        except KeyError:
            raise OntologyError(
                f"unknown ontological system {system_code}") from None

    def __contains__(self, system_code: str) -> bool:
        return system_code in self._systems

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def concept_for_code(self, system_code: str, concept_code: str,
                         ) -> Concept:
        """Resolve a concept code within a system."""
        ontology = self.ontology(system_code)
        if concept_code not in ontology:
            raise OntologyError(
                f"unknown concept {concept_code} in {system_code}")
        return ontology.concept(concept_code)

    def resolve(self, reference: OntologicalReference) -> Concept | None:
        """The paper's ``onto(D, v)``: code node reference → concept.

        Returns ``None`` when the referenced system is not registered or
        the code is unknown (real CDA corpora reference systems, such as
        LOINC section codes, that are not part of the search ontology).
        """
        with self.tracer.span("ontology.resolve",
                              system=reference.system_code,
                              code=reference.concept_code) as span:
            ontology = self._systems.get(reference.system_code)
            concept = None
            if ontology is not None and reference.concept_code in ontology:
                concept = ontology.concept(reference.concept_code)
            span.annotate(found=concept is not None)
            return concept

    def lookup_term(self, term: str,
                    system_code: str | None = None) -> list[Concept]:
        """Concepts whose terms match ``term`` after normalization.

        Ambiguous terms (one synonym shared by several concepts) return
        every match, in concept registration order.
        """
        normalized = self._normalize(term)
        if not normalized:
            return []
        with self.tracer.span("ontology.lookup_term",
                              term=normalized) as span:
            results: list[Concept] = []
            for code, ontology in self._systems.items():
                if system_code is not None and code != system_code:
                    continue
                for concept_code in self._term_index[code].get(
                        normalized, ()):
                    results.append(ontology.concept(concept_code))
            span.annotate(hits=len(results))
        return results

    def match_in_text(self, text: str, system_code: str | None = None,
                      max_phrase_words: int = 4,
                      ) -> list[tuple[str, Concept]]:
        """Find concept terms occurring as phrases inside free text.

        Scans every window of up to ``max_phrase_words`` tokens and
        reports ``(matched phrase, concept)`` pairs, longest-match-first,
        without overlaps. This is how the CDA generator "inserted
        ontological references for every XML node whose value matched one
        of the concepts in SNOMED" (Section VII).
        """
        tokens = tokenize(text)
        matches: list[tuple[str, Concept]] = []
        position = 0
        while position < len(tokens):
            matched = False
            for width in range(min(max_phrase_words, len(tokens) - position),
                               0, -1):
                phrase = " ".join(tokens[position:position + width])
                concepts = self.lookup_term(phrase, system_code)
                if concepts:
                    matches.append((phrase, concepts[0]))
                    position += width
                    matched = True
                    break
            if not matched:
                position += 1
        return matches

    # ------------------------------------------------------------------
    def vocabulary(self, system_code: str | None = None) -> set[str]:
        """All distinct word tokens across concept terms.

        Section V-B defines the indexing Vocabulary as the union of words
        in the ontological systems and in the documents; this provides
        the ontology half: the tokens of every concept's description
        text.
        """
        words: set[str] = set()
        for code, ontology in self._systems.items():
            if system_code is not None and code != system_code:
                continue
            for concept in ontology.concepts():
                words.update(tokenize(concept.description_text()))
        return words
