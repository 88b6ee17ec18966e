"""Unit tests for XOnto-DIL structures and the index builder."""

import pytest

from repro.core.config import RELATIONSHIPS
from repro.core.index.builder import IndexBuilder
from repro.core.index.dil import (DeweyInvertedList, Posting,
                                  XOntoDILIndex)
from repro.core.index.vocabulary import (concepts_within_radius,
                                         corpus_vocabulary,
                                         experiment_vocabulary,
                                         full_vocabulary,
                                         referenced_concepts)
from repro.core.ontoscore import (RelationshipsOntoScore,
                                  relationships_seed_scorer)
from repro.core.scoring import ElementIndex
from repro.cda.sample import build_figure1_document
from repro.ir.tokenizer import Keyword
from repro.ontology import TerminologyService
from repro.storage.codec import PostingBlock
from repro.ontology.snomed import (ASTHMA, BRONCHIAL_STRUCTURE,
                                   build_core_ontology)
from repro.xmldoc.dewey import DeweyID
from repro.xmldoc.model import Corpus


@pytest.fixture(scope="module")
def pieces():
    ontology = build_core_ontology()
    terminology = TerminologyService([ontology])
    corpus = Corpus([build_figure1_document()])
    element_index = ElementIndex(corpus,
                                 concept_resolver=terminology.resolve)
    seeds = relationships_seed_scorer(ontology)
    strategy = RelationshipsOntoScore(ontology, seeds, t=0.5,
                                      threshold=0.1)
    builder = IndexBuilder(element_index, strategy)
    return ontology, corpus, builder


class TestDIL:
    def test_postings_sorted_by_dewey(self):
        keyword = Keyword.from_text("x")
        dil = DeweyInvertedList(keyword, [
            Posting(DeweyID(0, (2,)), 0.5),
            Posting(DeweyID(0, (1,)), 1.0),
        ])
        assert [p.dewey.encode() for p in dil] == ["0.1", "0.2"]

    def test_duplicate_dewey_rejected(self):
        keyword = Keyword.from_text("x")
        with pytest.raises(ValueError):
            DeweyInvertedList(keyword, [Posting(DeweyID(0, (1,)), 0.5),
                                        Posting(DeweyID(0, (1,)), 0.7)])

    def test_encoded_roundtrip(self):
        keyword = Keyword.from_text("x")
        dil = DeweyInvertedList(keyword, [Posting(DeweyID(3, (1, 2)), 0.25)])
        clone = DeweyInvertedList.from_block(
            keyword, PostingBlock(dil.to_bytes()))
        assert clone.postings() == dil.postings()
        assert clone.encoded() == dil.encoded() == [("3.1.2", 0.25)]

    def test_size_accounting(self):
        posting = Posting(DeweyID(0, (1, 2)), 0.5)
        assert posting.size_bytes() == len("0.1.2") + 8
        dil = DeweyInvertedList(Keyword.from_text("x"), [posting])
        assert dil.size_bytes() == posting.size_bytes()

    def test_document_ids(self):
        dil = DeweyInvertedList(Keyword.from_text("x"), [
            Posting(DeweyID(3, (0,)), 1.0), Posting(DeweyID(5, (0,)), 1.0)])
        assert dil.document_ids() == {3, 5}


class TestIndexBuilder:
    def test_build_keyword_measures(self, pieces):
        _, _, builder = pieces
        dil, stats = builder.build_keyword(Keyword.from_text("asthma"))
        assert len(dil) == stats.posting_count > 0
        assert stats.creation_time_ms >= 0.0
        assert stats.size_bytes == dil.size_bytes()
        assert stats.ontology_entries > 0

    def test_ontology_only_keyword_produces_postings(self, pieces):
        _, _, builder = pieces
        dil, _ = builder.build_keyword(
            Keyword.from_text("bronchial structure"))
        assert len(dil) > 0  # no textual occurrence in Figure 1

    def test_build_vocabulary(self, pieces):
        _, _, builder = pieces
        index = builder.build(["asthma", "theophylline", "asthma"])
        assert len(index) == 2
        assert index.keywords() == ["asthma", "theophylline"]
        averages = index.average_stats()
        assert averages["postings"] > 0

    def test_empty_index_averages(self):
        index = XOntoDILIndex(strategy="x")
        assert index.average_stats() == {"creation_time_ms": 0.0,
                                         "postings": 0.0, "size_kb": 0.0}


class TestVocabulary:
    def test_corpus_vocabulary(self, pieces):
        _, corpus, _ = pieces
        words = corpus_vocabulary(corpus)
        assert "theophylline" in words
        assert "asthma" in words
        # Code strings are excluded by the text policy.
        assert ASTHMA not in words

    def test_referenced_concepts(self, pieces):
        ontology, corpus, _ = pieces
        codes = referenced_concepts(corpus, ontology)
        assert ASTHMA in codes

    def test_radius_growth(self, pieces):
        ontology, corpus, _ = pieces
        start = referenced_concepts(corpus, ontology)
        zero = concepts_within_radius(ontology, start, 0)
        one = concepts_within_radius(ontology, start, 1)
        two = concepts_within_radius(ontology, start, 2)
        assert zero == start
        assert zero < one <= two
        assert BRONCHIAL_STRUCTURE in one  # finding-site neighbor

    def test_radius_validation(self, pieces):
        ontology, _, _ = pieces
        with pytest.raises(ValueError):
            concepts_within_radius(ontology, set(), -1)

    def test_experiment_vocabulary_superset_of_corpus(self, pieces):
        ontology, corpus, _ = pieces
        corpus_words = corpus_vocabulary(corpus)
        experiment_words = experiment_vocabulary(corpus, ontology)
        assert corpus_words <= experiment_words
        assert "bronchial" in experiment_words

    def test_full_vocabulary_is_largest(self, pieces):
        ontology, corpus, _ = pieces
        assert experiment_vocabulary(corpus, ontology) <= \
            full_vocabulary(corpus, ontology)
