"""The clinical-narrative query front-end.

Covers the whole mapping ladder (exact → synonym → parent-term →
plain-keyword degradation) over the terminology graph, the
specificity weighting and cap, the per-call ``narrative=True`` step
ahead of ``parse``, and the acceptance-criteria differential: plain
calls on engine, federated and pre-parsed paths are byte-identical to
an engine that never mapped a narrative.
"""

import pytest

from repro import RELATIONSHIPS, XRANK, XOntoRankEngine
from repro.core import stats as counters
from repro.core.obs.tracer import Tracer
from repro.core.query.federated import FederatedEngine
from repro.core.query.narrative import (EXACT, KEYWORD, PARENT, SYNONYM,
                                        NarrativeQueryMapper)
from repro.core.stats import StatsRegistry
from repro.ir.tokenizer import KeywordQuery
from repro.ontology.api import TerminologyService
from repro.ontology.model import Concept, Ontology


def _ladder_ontology() -> Ontology:
    """A taxonomy exercising every ladder rung.

    ``alpha flutter`` and ``beta flutter`` are cousins: their only
    common is-a ancestor is the *grandparent* ``tachyarrhythmia``, so
    the token run "flutter" (never a term by itself) can only resolve
    through it.
    """
    ontology = Ontology("test.ladder", "ladder fixture")
    ontology.add_concept(Concept("100", "Cardiovascular disorder"))
    ontology.add_concept(Concept("110", "Tachyarrhythmia"))
    ontology.add_concept(Concept("111", "Left tachycardia"))
    ontology.add_concept(Concept("112", "Right tachycardia"))
    ontology.add_concept(Concept("113", "Alpha flutter"))
    ontology.add_concept(Concept("114", "Beta flutter"))
    ontology.add_concept(Concept("200", "Fever", ("pyrexia",)))
    ontology.add_concept(Concept("300", "Amiodarone"))
    ontology.add_is_a("110", "100")
    ontology.add_is_a("111", "110")
    ontology.add_is_a("112", "110")
    ontology.add_is_a("113", "111")
    ontology.add_is_a("114", "112")
    ontology.add_is_a("200", "100")
    return ontology


@pytest.fixture(params=["graph"])
def mapper(request):
    return NarrativeQueryMapper(TerminologyService([_ladder_ontology()]))


class TestFallbackLadder:
    def test_exact_preferred_term(self, mapper):
        mapping = mapper.map("alpha flutter noted")
        (hit,) = mapping.by_method(EXACT)
        assert hit.concept_code == "113"
        assert hit.term == "alpha flutter"

    def test_synonym_normalizes_to_preferred_term(self, mapper):
        mapping = mapper.map("pyrexia on admission")
        (hit,) = mapping.by_method(SYNONYM)
        assert hit.concept_code == "200"
        assert hit.phrase == "pyrexia"
        assert hit.term == "fever"
        assert "fever" in str(mapping.query).split()

    def test_parent_term_via_grandparent_only(self, mapper):
        # "flutter" is not a term of any concept; its token hits the
        # two cousins 113/114, whose nearest common ancestor is the
        # grandparent 110.
        mapping = mapper.map("flutter episodes")
        (hit,) = mapping.by_method(PARENT)
        assert hit.concept_code == "110"
        assert hit.term == "tachyarrhythmia"
        assert set(hit.via) == {"113", "114"}

    def test_parent_term_single_candidate_is_itself(self, mapper):
        # A lone candidate generalizes to itself (reflexive ancestor
        # at depth zero): "alpha" only ever appears in 113's terms.
        mapping = mapper.map("alpha episodes")
        (hit,) = mapping.by_method(PARENT)
        assert hit.concept_code == "113"
        assert hit.via == ("113",)

    def test_unmappable_phrase_degrades_to_keywords(self, mapper):
        # Never silently dropped: every content token of an unmapped
        # run survives as a plain keyword.
        mapping = mapper.map("pyrexia with zebra stampede")
        (kept,) = mapping.by_method(KEYWORD)
        assert kept.phrase == "zebra stampede"
        assert kept.concept_code == ""
        query_terms = str(mapping.query).split()
        assert "zebra" in query_terms
        assert "stampede" in query_terms

    def test_stopwords_split_oov_runs(self, mapper):
        mapping = mapper.map("zebra and quagga")
        assert [m.phrase for m in mapping.by_method(KEYWORD)] == \
            ["zebra", "quagga"]

    def test_no_tokens_raises(self, mapper):
        with pytest.raises(ValueError):
            mapper.map("!!! ...")

    def test_stopword_only_text_still_queries(self, mapper):
        mapping = mapper.map("of the and")
        assert [k.text for k in mapping.query] == ["of", "the", "and"]


class TestSpecificityWeighting:
    def test_deeper_concept_outranks_shallow(self, mapper):
        # 113 (depth 3) must come before 200 (depth 1) in the emitted
        # query.
        mapping = mapper.map("fever then alpha flutter")
        terms = [k.text for k in mapping.query]
        assert terms.index("alpha flutter") < terms.index("fever")

    def test_cap_drops_least_specific_and_counts(self):
        stats = StatsRegistry()
        service = TerminologyService([_ladder_ontology()])
        capped = NarrativeQueryMapper(service, max_keywords=1,
                                      stats=stats)
        mapping = capped.map("fever then alpha flutter")
        assert [m.concept_code for m in mapping.mappings
                if m.method != KEYWORD] == ["113"]
        assert stats.value(counters.NARRATIVE_CONCEPTS_DROPPED) == 1

    def test_keyword_fallbacks_survive_the_cap(self):
        service = TerminologyService([_ladder_ontology()])
        capped = NarrativeQueryMapper(service, max_keywords=1)
        mapping = capped.map("fever then alpha flutter zebra")
        assert "zebra" in str(mapping.query).split()


class TestObservability:
    def test_span_and_counters(self):
        tracer = Tracer()
        stats = StatsRegistry()
        service = TerminologyService([_ladder_ontology()])
        mapper = NarrativeQueryMapper(service, tracer=tracer,
                                      stats=stats)
        mapper.map("pyrexia with alpha flutter and zebra")
        names = [span.name for span in tracer.finished()]
        assert "query.narrative.map" in names
        assert stats.value(counters.NARRATIVE_QUERIES) == 1
        assert stats.value(counters.NARRATIVE_MAPPED_EXACT) == 1
        assert stats.value(counters.NARRATIVE_MAPPED_SYNONYM) == 1
        assert stats.value(counters.NARRATIVE_KEYWORD_FALLBACKS) == 1
        assert stats.value(counters.NARRATIVE_PHRASES) == 3


class TestNarrativeStage:
    """The narrative step of a search: ``narrative=True`` maps the text
    ahead of the pipeline's ``parse`` stage, per call."""

    def test_stage_inserts_before_parse(self, figure1_corpus,
                                        core_ontology):
        tracer = Tracer()
        engine = XOntoRankEngine(figure1_corpus, core_ontology,
                                 tracer=tracer)
        engine.search_outcome("asthma and medications", k=3,
                              narrative=True)
        names = [span.name for span in tracer.finished()]
        assert names.index("query.narrative.map") \
            < names.index("query.parse")
        # The chain itself never changes.
        assert [stage.name for stage in engine.pipeline.stages] == \
            ["parse", "dil_fetch", "merge", "rank"]

    def test_xrank_engine_rejects_narrative(self, figure1_corpus):
        engine = XOntoRankEngine(figure1_corpus, None, strategy=XRANK)
        with pytest.raises(ValueError, match="needs an ontology"):
            engine.search_outcome("asthma", k=3, narrative=True)
        # Without the flag the same engine answers as always.
        assert engine.search_outcome("asthma", k=3).narrative is None

    def test_preparsed_query_passes_through(self, figure1_corpus,
                                            core_ontology):
        engine = XOntoRankEngine(figure1_corpus, core_ontology)
        query = KeywordQuery.parse("asthma medications")
        outcome = engine.search_outcome(query, k=3, narrative=True)
        assert outcome.narrative is None
        plain = XOntoRankEngine(figure1_corpus, core_ontology)
        assert outcome.results == plain.search_outcome(query, k=3).results

    def test_provenance_reaches_the_outcome(self, figure1_corpus,
                                            core_ontology):
        engine = XOntoRankEngine(figure1_corpus, core_ontology)
        outcome = engine.search_outcome("asthma and medications", k=3,
                                        narrative=True)
        assert outcome.narrative is not None
        assert outcome.narrative.text == "asthma and medications"
        methods = {m.method for m in outcome.narrative.mappings}
        assert EXACT in methods


class TestNarrativeOffDifferential:
    """Acceptance criterion: narrative off == never existed."""

    def test_default_pipeline_has_no_narrative_stage(self,
                                                     figure1_corpus,
                                                     core_ontology):
        engine = XOntoRankEngine(figure1_corpus, core_ontology)
        assert [stage.name for stage in engine.pipeline.stages] == \
            ["parse", "dil_fetch", "merge", "rank"]

    def test_enable_disable_restores_identical_results(
            self, figure1_corpus, core_ontology):
        """A narrative call leaves nothing behind: the next plain call
        answers as an engine that never mapped anything."""
        query = '"bronchial structure" theophylline'
        plain = XOntoRankEngine(figure1_corpus, core_ontology)
        used = XOntoRankEngine(figure1_corpus, core_ontology)
        before = plain.search_outcome(query, k=5)
        used.search_outcome("asthma and medications", k=5,
                            narrative=True)
        after = used.search_outcome(query, k=5)
        assert after.results == before.results
        assert after.narrative is None

    def test_federated_narrative_matches_single(self, cda_corpus,
                                                synthetic_ontology):
        text = "was in cardiac arrest and is on amiodarone"
        single = XOntoRankEngine(cda_corpus, synthetic_ontology,
                                 strategy=RELATIONSHIPS)
        federated = FederatedEngine(cda_corpus, synthetic_ontology,
                                    strategy=RELATIONSHIPS, shards=3)
        a = single.search_outcome(text, k=5, narrative=True)
        b = federated.search_outcome(text, k=5, narrative=True)
        assert [r.dewey for r in a.results] == [r.dewey for r in b.results]
        assert str(a.narrative.query) == str(b.narrative.query)

    def test_federated_off_path_untouched(self, cda_corpus,
                                          synthetic_ontology):
        query = '"cardiac arrest" amiodarone'
        baseline = FederatedEngine(cda_corpus, synthetic_ontology,
                                   shards=2)
        used = FederatedEngine(cda_corpus, synthetic_ontology, shards=2)
        used.search_outcome("was in cardiac arrest", k=5,
                            narrative=True)
        a = baseline.search_outcome(query, k=5)
        b = used.search_outcome(query, k=5)
        assert a.results == b.results
        assert b.narrative is None
