"""Unit tests for the DIL stack-merge query algorithm (Section V-A)."""

import pytest

from repro.core.index.dil import DeweyInvertedList, Posting
from repro.core.query.dil_algorithm import DILQueryProcessor
from repro.core.stats import (TOPK_DOCS_SKIPPED, TOPK_HEAP_EVICTIONS,
                              StatsRegistry)
from repro.ir.tokenizer import Keyword
from repro.xmldoc.dewey import DeweyID


def dil(text, *entries):
    return DeweyInvertedList(Keyword.from_text(text), [
        Posting(DeweyID.parse(encoded), score)
        for encoded, score in entries])


@pytest.fixture
def processor():
    return DILQueryProcessor(decay=0.5)


class TestSemantics:
    def test_most_specific_common_subtree(self, processor):
        results = processor.execute([
            dil("a", ("0.1.0", 1.0)),
            dil("b", ("0.1.1", 1.0)),
        ])
        assert len(results) == 1
        assert results[0].dewey.encode() == "0.1"
        assert results[0].score == pytest.approx(1.0)  # 0.5 + 0.5

    def test_single_node_covering_both(self, processor):
        results = processor.execute([
            dil("a", ("0.2", 1.0)),
            dil("b", ("0.2", 0.5)),
        ])
        assert [r.dewey.encode() for r in results] == ["0.2"]
        assert results[0].score == pytest.approx(1.5)

    def test_eq1_excludes_ancestors_of_results(self, processor):
        # Both 0.1.0 (deep pair) and 0 (root) cover both keywords; only
        # the deepest covering node is a result.
        results = processor.execute([
            dil("a", ("0.1.0.0", 1.0), ("0.2", 1.0)),
            dil("b", ("0.1.0.1", 1.0), ("0.2", 1.0)),
        ])
        assert sorted(r.dewey.encode() for r in results) == ["0.1.0", "0.2"]

    def test_missing_keyword_gives_no_results(self, processor):
        results = processor.execute([
            dil("a", ("0.1", 1.0)),
            DeweyInvertedList(Keyword.from_text("b"), []),
        ])
        assert results == []

    def test_results_across_documents(self, processor):
        results = processor.execute([
            dil("a", ("0.1", 1.0), ("3.2", 0.5)),
            dil("b", ("0.2", 1.0), ("3.2.1", 0.5)),
        ])
        encodings = sorted(r.dewey.encode() for r in results)
        assert encodings == ["0", "3.2"]

    def test_no_cross_document_results(self, processor):
        results = processor.execute([
            dil("a", ("0.1", 1.0)),
            dil("b", ("1.1", 1.0)),
        ])
        assert results == []

    def test_requires_at_least_one_list(self, processor):
        with pytest.raises(ValueError):
            processor.execute([])

    def test_single_keyword_query(self, processor):
        results = processor.execute([dil("a", ("0.1.2", 1.0),
                                         ("0.1.2.0", 0.5))])
        # 0.1.2.0 covers the keyword, so its ancestor 0.1.2 is excluded.
        assert [r.dewey.encode() for r in results] == ["0.1.2.0"]


class TestScoring:
    def test_decay_applied_per_level(self, processor):
        results = processor.execute([
            dil("a", ("0.0.0.0", 1.0)),
            dil("b", ("0.1", 1.0)),
        ])
        assert len(results) == 1
        result = results[0]
        assert result.dewey.encode() == "0"
        assert result.keyword_scores[0] == pytest.approx(0.125)
        assert result.keyword_scores[1] == pytest.approx(0.5)
        assert result.score == pytest.approx(0.625)

    def test_max_over_multiple_occurrences(self, processor):
        results = processor.execute([
            dil("a", ("0.1.0", 0.4), ("0.1.1", 1.0)),
            dil("b", ("0.1.2", 1.0)),
        ])
        assert results[0].keyword_scores[0] == pytest.approx(0.5)

    def test_ranking_and_topk(self, processor):
        results = processor.execute([
            dil("a", ("0.1.0", 1.0), ("1.1.0", 0.4)),
            dil("b", ("0.1.1", 1.0), ("1.1.1", 0.4)),
        ], k=1)
        assert len(results) == 1
        assert results[0].dewey.doc_id == 0

    def test_statistics_recorded(self, processor):
        processor.execute([
            dil("a", ("0.1.0", 1.0)),
            dil("b", ("0.1.1", 1.0)),
        ])
        stats = processor.last_statistics
        assert stats.postings_read == 2
        assert stats.results_found == 1
        assert stats.frames_pushed >= 3

    def test_decay_validation(self):
        with pytest.raises(ValueError):
            DILQueryProcessor(decay=1.5)


class TestStackShapes:
    """The per-document merge's frames on the stack shapes it meets:
    exact scores, and exactly the frames and postings the paper's
    stack algorithm pushes and reads."""

    def test_deep_single_chain(self, processor):
        # b's node is an ancestor of a's, two edges up.
        results = processor.collect([
            dil("a", ("0.0.0.0.0", 1.0)),
            dil("b", ("0.0.0", 1.0)),
        ])
        assert [(r.dewey.encode(), r.keyword_scores, r.score)
                for r in results] == [("0.0.0", (0.25, 1.0), 1.25)]
        stats = processor.last_statistics
        assert (stats.postings_read, stats.frames_pushed,
                stats.results_found) == (2, 5, 1)

    def test_branch_point_with_one_keyword_per_subtree(self, processor):
        results = processor.collect([
            dil("a", ("0.1.0.0", 1.0)),
            dil("b", ("0.1.1", 1.0)),
        ])
        assert [(r.dewey.encode(), r.keyword_scores, r.score)
                for r in results] == [("0.1", (0.25, 0.5), 0.75)]
        # root, 0.1, 0.1.0, 0.1.0.0, then 0.1.1 after popping to 0.1.
        assert processor.last_statistics.frames_pushed == 5

    def test_two_keywords_on_one_node(self, processor):
        results = processor.collect([
            dil("a", ("0.2.1", 0.5)),
            dil("b", ("0.2.1", 0.25)),
        ])
        assert [(r.dewey.encode(), r.keyword_scores, r.score)
                for r in results] == [("0.2.1", (0.5, 0.25), 0.75)]
        stats = processor.last_statistics
        assert (stats.postings_read, stats.frames_pushed) == (2, 3)

    def test_full_mode_reads_a_document_missing_a_keyword(self,
                                                          processor):
        lists = [
            dil("a", ("0.1", 1.0), ("1.1", 1.0)),
            dil("b", ("0.2", 1.0)),
        ]
        results = processor.collect(lists)
        assert [(r.dewey.encode(), r.score) for r in results] == \
            [("0", 1.0)]
        stats = processor.last_statistics
        # Document 1 cannot hold a result, and is still merged.
        assert (stats.postings_read, stats.frames_pushed,
                stats.docs_skipped) == (3, 5, 0)
        processor.collect_topk(lists, 1)
        stats = processor.last_statistics
        assert (stats.postings_read, stats.docs_skipped) == (2, 1)


class TestBoundedTopK:
    """Document-skip pruning: which documents the bounded mode reads,
    and what the statistics say about the ones it doesn't."""

    #: Four documents: a strong hit (doc 0, bound 2.0), a weak hit
    #: (doc 1, bound 0.4), one missing keyword b entirely (doc 2), and
    #: a stronger hit than doc 0 (doc 3, single covering node).
    DILS = (
        ("a", ("0.1", 1.0), ("1.1", 0.2), ("2.0", 1.0), ("3.0", 1.0)),
        ("b", ("0.2", 1.0), ("1.2", 0.2), ("3.0", 1.0)),
    )

    def dils(self):
        return [dil(text, *entries) for text, *entries in self.DILS]

    def test_skips_weak_and_uncovered_documents(self, processor):
        results = processor.collect_topk(self.dils(), 1)
        assert [r.dewey.encode() for r in results] == ["3.0"]
        assert results[0].score == pytest.approx(2.0)
        stats = processor.last_statistics
        # doc 2 never covers keyword b; doc 1's bound (0.4) cannot beat
        # the heap minimum (1.0) once doc 0 filled the size-1 heap.
        assert stats.docs_skipped == 2
        # doc 3's result displaced doc 0's.
        assert stats.heap_evictions == 1
        # Only docs 0 and 3 were merged: 2 postings each.
        assert stats.postings_read == 4

    def test_statistics_match_full_mode_when_nothing_prunes(
            self, processor):
        lists = self.dils()
        full = processor.collect(lists)
        full_reads = processor.last_statistics.postings_read
        bounded = processor.collect_topk(lists, 10)
        stats = processor.last_statistics
        # k=10 never fills the heap, so only the uncovered doc is
        # skipped -- and its postings are the whole saving.
        assert stats.docs_skipped == 1
        assert stats.heap_evictions == 0
        assert stats.postings_read == full_reads - 1
        from repro.core.query.results import rank_results
        assert bounded == rank_results(full, 10)

    def test_equal_bound_skip_respects_dewey_tie_break(self, processor):
        """A later document whose bound exactly equals the heap minimum
        is skipped: any tying result would lose the (-score, dewey)
        tie-break against the earlier entry."""
        lists = [
            dil("a", ("0.1", 1.0), ("1.0", 0.5)),
            dil("b", ("0.2", 1.0), ("1.0", 0.5)),
        ]
        results = processor.collect_topk(lists, 1)
        assert [r.dewey.encode() for r in results] == ["0"]
        assert processor.last_statistics.docs_skipped == 1
        from repro.core.query.results import rank_results
        assert results == rank_results(processor.collect(lists), 1)

    def test_registry_counters_accumulate(self):
        registry = StatsRegistry()
        processor = DILQueryProcessor(decay=0.5, stats=registry)
        processor.collect_topk(self.dils(), 1)
        assert registry.value(TOPK_DOCS_SKIPPED) == 2
        assert registry.value(TOPK_HEAP_EVICTIONS) == 1
        processor.collect_topk(self.dils(), 1)
        assert registry.value(TOPK_DOCS_SKIPPED) == 4

    def test_execute_routes_k_to_bounded_mode(self, processor):
        results = processor.execute(self.dils(), k=2)
        assert [r.dewey.encode() for r in results] == ["3.0", "0"]
        assert processor.last_statistics.docs_skipped > 0

    def test_missing_keyword_short_circuits(self, processor):
        results = processor.collect_topk([
            dil("a", ("0.1", 1.0)),
            DeweyInvertedList(Keyword.from_text("b"), []),
        ], 5)
        assert results == []
        assert processor.last_statistics.postings_read == 0
