"""TerminologyService over its one representation, the ontology graph.

Covers ambiguous synonyms, the graph answering lookups and code
resolution, the per-operation spans and the shared normalization, and
pins that no second (persisted) representation grows back.
"""

import ast
import pathlib

import pytest

import repro
from repro.ontology.api import TerminologyService
from repro.ontology.model import Concept, Ontology
from repro.ontology.snomed import (ASTHMA, SNOMED_SYSTEM_CODE,
                                   build_core_ontology)
from repro.xmldoc.model import OntologicalReference


def _ambiguous_ontology() -> Ontology:
    ontology = Ontology("test.system", "ambiguity fixture")
    ontology.add_concept(Concept("1", "Cold", ("common cold",),
                                 "disorder"))
    ontology.add_concept(Concept("2", "Cold sensation",
                                 ("cold",), "finding"))
    return ontology


class TestAmbiguousSynonym:
    def test_graph_path_also_returns_all(self):
        service = TerminologyService([_ambiguous_ontology()])
        assert {c.code for c in service.lookup_term("cold")} == {"1", "2"}


class TestGraphFallback:
    def test_index_layer_absent_falls_back_to_graph(self):
        service = TerminologyService([build_core_ontology()])
        concepts = service.lookup_term("Asthma")
        assert [c.code for c in concepts] == [ASTHMA]
        assert service.resolve(
            OntologicalReference(SNOMED_SYSTEM_CODE, ASTHMA)) is not None


class TestResolveSpan:
    def test_each_operation_emits_its_own_span(self):
        # Code resolution and term lookup are distinct operations and
        # must not share a span name, or term-lookup latency gets
        # misattributed to code resolution in profiles.
        from repro.core.obs.tracer import Tracer
        tracer = Tracer()
        service = TerminologyService([build_core_ontology()],
                                     tracer=tracer)
        service.resolve(OntologicalReference(SNOMED_SYSTEM_CODE,
                                             ASTHMA))
        service.lookup_term("asthma")
        names = [span.name for span in tracer.finished()]
        assert names.count("ontology.resolve") == 1
        assert names.count("ontology.lookup_term") == 1

    def test_lookup_term_span_attributes(self):
        from repro.core.obs.tracer import Tracer
        tracer = Tracer()
        service = TerminologyService([build_core_ontology()],
                                     tracer=tracer)
        service.lookup_term("Asthma")
        span = [s for s in tracer.finished()
                if s.name == "ontology.lookup_term"][0]
        assert span.attributes == {"term": "asthma", "hits": 1}


class TestSharedNormalization:
    """Hyphenated clinical terms resolve as the query side spells them.

    The query side tokenizes "X-ray" to ["x", "ray"]; the term
    dictionary must file terms under the same normalization or
    hyphenated ontology terms become unreachable from narrative text.
    """

    def _hyphen_ontology(self) -> Ontology:
        ontology = Ontology("test.hyphen", "hyphen fixture")
        ontology.add_concept(Concept("10", "X-ray", ("radiograph",),
                                     "procedure"))
        ontology.add_concept(Concept("20", "Super-morbidly obese",
                                     ("super morbid obesity",),
                                     "finding"))
        return ontology

    def test_normalizations_are_the_same_function(self):
        from repro.ir.tokenizer import normalize_term
        assert TerminologyService._normalize is normalize_term

    @pytest.mark.parametrize("query", ["X-ray", "x-ray", "x ray",
                                       "X-Ray"])
    def test_hyphenated_term_resolves_via_graph(self, query):
        service = TerminologyService([self._hyphen_ontology()])
        assert [c.code for c in service.lookup_term(query)] == ["10"]

    def test_multiword_hyphenated_term_both_paths(self):
        service = TerminologyService([self._hyphen_ontology()])
        hits = service.lookup_term("super-morbidly obese")
        assert [c.code for c in hits] == ["20"]
        # And the un-hyphenated spelling hits the same bucket.
        assert [c.code for c in
                service.lookup_term("super morbidly obese")] == ["20"]


class TestOneOntologyRepresentation:
    """The ontology is served from its graph alone: no persisted
    concept-index layer, no index-vs-graph fork in any lookup, and no
    command that builds one."""

    ROOT = pathlib.Path(repro.__file__).parent

    @classmethod
    def _imported_modules(cls, path: pathlib.Path):
        """Absolute names of every module (and imported name) ``path``
        imports, relative imports resolved against its package."""
        package = path.relative_to(cls.ROOT.parent).parts[:-1]
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                yield from (alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                base = (list(package[:len(package) - node.level + 1])
                        if node.level else [])
                module = ".".join(base + ([node.module] if node.module
                                          else []))
                yield module
                yield from (f"{module}.{alias.name}"
                            for alias in node.names)

    def test_no_module_imports_the_index_layer(self):
        sources = sorted(self.ROOT.rglob("*.py"))
        assert sources
        offenders = [path.relative_to(self.ROOT).as_posix()
                     for path in sources
                     if "repro.ontology.indexes"
                     in set(self._imported_modules(path))]
        assert offenders == []
        assert not (self.ROOT / "ontology" / "indexes.py").exists()

    def test_terminology_service_has_no_index_registration(self):
        from repro.ontology import api
        tree = ast.parse(pathlib.Path(api.__file__)
                         .read_text(encoding="utf-8"))
        (cls,) = [node for node in tree.body
                  if isinstance(node, ast.ClassDef)
                  and node.name == "TerminologyService"]
        methods = {node.name for node in cls.body
                   if isinstance(node, ast.FunctionDef)}
        assert not methods & {"register_indexes", "indexes"}

    def test_build_ontology_subcommand_is_gone(self, tmp_path, capsys):
        from repro.cli import main
        with pytest.raises(SystemExit) as excinfo:
            main(["build-ontology", "--store", str(tmp_path / "o.db")])
        assert excinfo.value.code == 2
        assert "invalid choice: 'build-ontology'" in capsys.readouterr().err
