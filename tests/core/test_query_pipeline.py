"""QueryPipeline: the explicit parse → dil_fetch → merge → rank chain,
fixed at construction."""

from __future__ import annotations

import pytest

from repro.cda.sample import build_figure1_document
from repro.core.query.engine import XOntoRankEngine
from repro.xmldoc.model import Corpus


@pytest.fixture(scope="module")
def engine():
    return XOntoRankEngine(Corpus([build_figure1_document()]),
                           strategy="xrank")


class TestDefaultChain:
    def test_stage_names(self, engine):
        assert isinstance(engine.pipeline.stages, tuple)
        assert [stage.name for stage in engine.pipeline.stages] == \
            ["parse", "dil_fetch", "merge", "rank"]

    def test_run_fills_every_context_field(self, engine):
        context = engine.pipeline.run("asthma medications", k=5)
        assert context.parsed is not None
        assert [keyword.text for keyword in context.parsed] == \
            ["asthma", "medications"]
        assert len(context.dils) == 2
        assert context.results == sorted(
            context.unranked,
            key=lambda r: (-r.score, r.dewey))[:5]

    def test_matches_engine_search(self, engine):
        query, k = "asthma temperature", 4
        via_pipeline = engine.pipeline.run(query, k=k).results
        via_engine = engine.search(query, k=k)
        assert [(r.dewey, r.score) for r in via_pipeline] == \
            [(r.dewey, r.score) for r in via_engine]

    def test_pre_parsed_queries_pass_through(self, engine):
        from repro.ir.tokenizer import KeywordQuery
        parsed = KeywordQuery.parse("asthma")
        context = engine.pipeline.run(parsed, k=3)
        assert context.parsed is parsed

    def test_empty_query_raises(self, engine):
        with pytest.raises(ValueError):
            engine.pipeline.run("", k=3)

    def test_bounded_merge_makes_rank_a_pass_through(self, engine):
        """With k set, the merge stage runs the bounded mode; the rank
        stage then hands the heap-drain through unchanged."""
        context = engine.pipeline.run("asthma medications", k=3)
        assert context.results == context.unranked
        assert len(context.results) <= 3

    def test_unbounded_run_ranks_all_results(self, engine):
        """k=None keeps the paper's full enumeration: the merge stage
        collects every Eq. 1 result and the rank stage sorts them."""
        context = engine.pipeline.run("asthma medications", k=None)
        bounded = engine.pipeline.run("asthma medications", k=3)
        assert bounded.results == context.results[:3]
