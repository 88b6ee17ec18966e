"""Unit tests for the terminology service and flat-file persistence."""

import pytest

from repro.ontology.api import TerminologyService
from repro.ontology.io import load_ontology, save_ontology
from repro.ontology.model import Ontology, OntologyError
from repro.ontology.snomed import (ASTHMA, SNOMED_SYSTEM_CODE,
                                   build_core_ontology)
from repro.xmldoc.model import OntologicalReference


@pytest.fixture(scope="module")
def service():
    return TerminologyService([build_core_ontology()])


class TestTerminologyService:
    def test_register_duplicate_system(self):
        ontology = build_core_ontology()
        service = TerminologyService([ontology])
        with pytest.raises(OntologyError):
            service.register(ontology)

    def test_lookup_exact_term(self, service):
        concepts = service.lookup_term("Asthma")
        assert [c.code for c in concepts] == [ASTHMA]

    def test_lookup_is_case_insensitive(self, service):
        assert service.lookup_term("aSTHma")
        assert service.lookup_term("bronchial ASTHMA")  # synonym

    def test_lookup_unknown(self, service):
        assert service.lookup_term("zebra stampede") == []
        assert service.lookup_term("   ") == []

    def test_concept_for_code(self, service):
        concept = service.concept_for_code(SNOMED_SYSTEM_CODE, ASTHMA)
        assert concept.preferred_term == "Asthma"

    def test_concept_for_code_unknown_system_or_code(self, service):
        with pytest.raises(OntologyError, match="unknown ontological"):
            service.concept_for_code("unregistered", ASTHMA)
        with pytest.raises(OntologyError, match="unknown concept 000"):
            service.concept_for_code(SNOMED_SYSTEM_CODE, "000")

    def test_resolve_reference(self, service):
        reference = OntologicalReference(SNOMED_SYSTEM_CODE, ASTHMA)
        assert service.resolve(reference).code == ASTHMA

    def test_resolve_unknown_system_or_code(self, service):
        assert service.resolve(OntologicalReference("other", ASTHMA)) is None
        assert service.resolve(
            OntologicalReference(SNOMED_SYSTEM_CODE, "000")) is None

    def test_match_in_text_longest_first(self, service):
        matches = service.match_in_text(
            "history of cardiac arrest and asthma attack today")
        phrases = [phrase for phrase, _ in matches]
        assert "cardiac arrest" in phrases
        assert "asthma attack" in phrases
        # "asthma" alone must not be reported inside "asthma attack"
        assert "asthma" not in phrases

    def test_match_in_text_no_overlap(self, service):
        matches = service.match_in_text("asthma asthma")
        assert len(matches) == 2

    def test_vocabulary_contains_terms(self, service):
        vocabulary = service.vocabulary()
        assert "asthma" in vocabulary
        assert "theophylline" in vocabulary

    def test_systems_listing(self, service):
        assert service.systems() == [SNOMED_SYSTEM_CODE]
        assert SNOMED_SYSTEM_CODE in service
        with pytest.raises(OntologyError):
            service.ontology("missing")


class TestFlatFiles:
    def test_roundtrip(self, tmp_path):
        original = build_core_ontology()
        save_ontology(original, str(tmp_path))
        loaded = load_ontology(str(tmp_path))
        assert loaded.system_code == original.system_code
        assert loaded.name == original.name
        assert sorted(loaded.concept_codes()) == \
            sorted(original.concept_codes())
        assert loaded.stats() == original.stats()
        asthma = loaded.concept(ASTHMA)
        assert asthma.preferred_term == "Asthma"
        assert asthma.synonyms == original.concept(ASTHMA).synonyms

    def test_load_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_ontology(str(tmp_path / "nope"))

    def test_malformed_column_count(self, tmp_path):
        save_ontology(build_core_ontology(), str(tmp_path))
        path = tmp_path / "relationships.tsv"
        path.write_text(path.read_text() + "only-one-column\n")
        with pytest.raises(OntologyError):
            load_ontology(str(tmp_path))

    def test_description_for_unknown_concept(self, tmp_path):
        save_ontology(build_core_ontology(), str(tmp_path))
        path = tmp_path / "descriptions.tsv"
        path.write_text(path.read_text() + "999\tP\tGhost\n")
        with pytest.raises(OntologyError):
            load_ontology(str(tmp_path))

    def test_terms_with_spaces_survive(self, tmp_path):
        ontology = Ontology("s")
        ontology.new_concept("1", "Disorder of bronchus",
                             ("bronchial disorder",), "disorder")
        save_ontology(ontology, str(tmp_path))
        loaded = load_ontology(str(tmp_path))
        assert loaded.concept("1").preferred_term == "Disorder of bronchus"
