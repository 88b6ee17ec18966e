"""Edge cases of ``TerminologyService.match_in_text``.

The scan promises longest-match-first, no-overlap selection over up to
``max_phrase_words``-token windows. These tests pin the boundaries the
narrative query mapper leans on: apostrophe tokens, adjacent
overlapping candidate phrases, and the window-width limits.
"""

import pytest

from repro.ontology.api import TerminologyService
from repro.ontology.model import Concept, Ontology


def _ontology() -> Ontology:
    ontology = Ontology("test.match", "match fixture")
    ontology.add_concept(Concept("1", "Cardiac arrest"))
    ontology.add_concept(Concept("2", "Arrest"))
    ontology.add_concept(Concept("3", "Arrest warrant"))
    ontology.add_concept(Concept("4", "Patient's condition"))
    ontology.add_concept(Concept("5",
                                 "Severe acute respiratory syndrome"))
    ontology.add_concept(
        Concept("6", "Chronic obstructive pulmonary disease disorder"))
    return ontology


@pytest.fixture(params=["graph"])
def service(request):
    return TerminologyService([_ontology()])


class TestLongestMatchFirst:
    def test_longer_phrase_beats_nested_term(self, service):
        # "arrest" (code 2) is a strict sub-phrase of "cardiac arrest"
        # (code 1); the scan must take the widest window first.
        matches = service.match_in_text("status: cardiac arrest today")
        assert [(p, c.code) for p, c in matches] == \
            [("cardiac arrest", "1")]

    def test_adjacent_overlapping_candidates_do_not_overlap(self, service):
        # "cardiac arrest" and "arrest warrant" both cover the middle
        # token; the leftmost longest match wins and the loser's
        # remainder ("warrant") is not itself a term.
        matches = service.match_in_text("cardiac arrest warrant")
        assert [(p, c.code) for p, c in matches] == \
            [("cardiac arrest", "1")]

    def test_overlap_loser_still_matches_later_occurrence(self, service):
        matches = service.match_in_text(
            "cardiac arrest then an arrest warrant was issued")
        assert [(p, c.code) for p, c in matches] == \
            [("cardiac arrest", "1"), ("arrest warrant", "3")]

    def test_single_word_term_matches_alone(self, service):
        matches = service.match_in_text("an arrest occurred")
        assert [(p, c.code) for p, c in matches] == [("arrest", "2")]


class TestApostropheTokens:
    def test_possessive_stays_one_token(self, service):
        # The tokenizer keeps "patient's" as one token; the term
        # "Patient's condition" must match it, and a bare "patients"
        # must not.
        matches = service.match_in_text("the patient's condition worsened")
        assert [(p, c.code) for p, c in matches] == \
            [("patient's condition", "4")]
        assert service.match_in_text("the patients condition") == []


class TestWindowBoundaries:
    def test_match_at_max_phrase_words(self, service):
        matches = service.match_in_text(
            "severe acute respiratory syndrome confirmed",
            max_phrase_words=4)
        assert [(p, c.code) for p, c in matches] == \
            [("severe acute respiratory syndrome", "5")]

    def test_term_wider_than_window_is_not_matched(self, service):
        # A five-token term cannot be found through a four-token
        # window (no partial credit, no crash).
        text = "chronic obstructive pulmonary disease disorder noted"
        assert service.match_in_text(text, max_phrase_words=4) == []
        matches = service.match_in_text(text, max_phrase_words=5)
        assert [(p, c.code) for p, c in matches] == \
            [("chronic obstructive pulmonary disease disorder", "6")]

    def test_window_clamped_at_text_end(self, service):
        # Two tokens left but a four-word window requested: the scan
        # must clamp, not index past the end.
        matches = service.match_in_text("cardiac arrest",
                                        max_phrase_words=4)
        assert [(p, c.code) for p, c in matches] == \
            [("cardiac arrest", "1")]

    def test_match_ending_exactly_at_last_token(self, service):
        matches = service.match_in_text(
            "found in severe acute respiratory syndrome",
            max_phrase_words=4)
        assert [(p, c.code) for p, c in matches] == \
            [("severe acute respiratory syndrome", "5")]

    def test_empty_and_stopword_only_text(self, service):
        assert service.match_in_text("") == []
        assert service.match_in_text("of the and") == []
