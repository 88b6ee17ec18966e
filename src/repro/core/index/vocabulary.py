"""Indexing vocabulary construction (paper Sections V-B and VII-B).

The full Vocabulary is "the union of words in the ontological systems
and in documents in D" -- millions of words for the real SNOMED, which
is why the paper's experiments index a subset: "all the keywords in the
CDA documents and all keywords contained in a concept up to 2
relationships away from a concept referenced in a CDA document". Both
policies are implemented here.
"""

from __future__ import annotations

from collections import deque

from ...ir.tokenizer import DEFAULT_STOPWORDS, tokenize_without_stopwords
from ...ontology.model import Ontology
from ...xmldoc.model import Corpus, TextPolicy
from ..config import XRANK


def corpus_vocabulary(corpus: Corpus,
                      text_policy: TextPolicy | None = None,
                      stopwords: frozenset[str] = DEFAULT_STOPWORDS,
                      ) -> set[str]:
    """All distinct indexable words in the documents' textual
    descriptions."""
    words: set[str] = set()
    for document in corpus:
        for node in document.iter():
            words.update(tokenize_without_stopwords(
                node.textual_description(text_policy), stopwords))
    return words


def referenced_concepts(corpus: Corpus, ontology: Ontology) -> set[str]:
    """Concept codes of the search ontology referenced by the corpus."""
    codes: set[str] = set()
    for document in corpus:
        for node in document.code_nodes():
            reference = node.reference
            if (reference is not None
                    and reference.system_code == ontology.system_code
                    and reference.concept_code in ontology):
                codes.add(reference.concept_code)
    return codes


def concepts_within_radius(ontology: Ontology, start_codes: set[str],
                           radius: int) -> set[str]:
    """Concepts within ``radius`` relationship hops of ``start_codes``.

    Hops follow any relationship, in either direction (the paper counts
    "up to 2 relationships away" without qualifying the type).
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    reached = set(start_codes)
    frontier = deque((code, 0) for code in start_codes)
    while frontier:
        code, distance = frontier.popleft()
        if distance == radius:
            continue
        for neighbor in ontology.neighbors(code):
            if neighbor not in reached:
                reached.add(neighbor)
                frontier.append((neighbor, distance + 1))
    return reached


def concept_vocabulary(ontology: Ontology, codes: set[str],
                       stopwords: frozenset[str] = DEFAULT_STOPWORDS,
                       ) -> set[str]:
    """Distinct indexable words of the given concepts' descriptions."""
    words: set[str] = set()
    for code in codes:
        words.update(tokenize_without_stopwords(
            ontology.concept(code).description_text(), stopwords))
    return words


def experiment_vocabulary(corpus: Corpus, ontology: Ontology,
                          radius: int = 2,
                          text_policy: TextPolicy | None = None,
                          ) -> set[str]:
    """The paper's experimental indexing subset (Section VII-B).

    Words in the CDA documents, plus words of every concept up to
    ``radius`` relationships away from a concept the corpus references.
    """
    words = corpus_vocabulary(corpus, text_policy)
    reachable = concepts_within_radius(
        ontology, referenced_concepts(corpus, ontology), radius)
    words |= concept_vocabulary(ontology, reachable)
    return words


def default_vocabulary(corpus: Corpus, ontology: Ontology | None,
                       strategy: str, radius: int = 2,
                       text_policy: TextPolicy | None = None,
                       ) -> set[str]:
    """What an index build covers when no vocabulary is given:
    ontology-aware strategies use the paper's experimental rule, the
    XRANK baseline indexes the document words."""
    if strategy == XRANK or ontology is None:
        return corpus_vocabulary(corpus, text_policy)
    return experiment_vocabulary(corpus, ontology, radius=radius,
                                 text_policy=text_policy)


def full_vocabulary(corpus: Corpus, ontology: Ontology,
                    text_policy: TextPolicy | None = None) -> set[str]:
    """Section V-B's complete Vocabulary: documents ∪ whole ontology."""
    words = corpus_vocabulary(corpus, text_policy)
    words |= concept_vocabulary(ontology, set(ontology.concept_codes()))
    return words
