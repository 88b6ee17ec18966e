"""The stack merge's work and output, pinned byte for byte.

``tests/golden/merge_statistics.txt`` holds, for every Table I query
over the RELATIONSHIPS engine and k in {1, 10, None}, the merge's
``postings_read frames_pushed results_found docs_skipped
heap_evictions`` followed by the ranked ``(dewey, repr(score))``
list. The file was generated from the cross-document ``heapq.merge``
implementation the flat per-document loop replaced; any change to the
frames the merge pushes, the postings it reads, or a single score bit
shows up as a diff.

A second test counts :class:`DeweyID` constructions over block-backed
lists: the merge works on path tuples and builds a Dewey ID only for a
frame it emits, so the count equals ``results_found``.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.core.config import RELATIONSHIPS
from repro.core.index.dil import DeweyInvertedList
from repro.core.query.results import rank_results
from repro.evaluation.workload import TABLE1_WORKLOAD
from repro.storage.codec import PostingBlock, encode_postings
from repro.xmldoc.dewey import DeweyID

GOLDEN = pathlib.Path(__file__).parent.parent / "golden" \
    / "merge_statistics.txt"

K_VALUES = (1, 10, None)


def run_merge(processor, dils, k):
    """``(ranked results, statistics)`` of one merge; ``k=None`` is
    the full enumeration."""
    if k is None:
        results = rank_results(processor.collect(dils))
        return results, processor.last_statistics
    return processor.collect_topk_stats(dils, k)


def render_merge_statistics(engine) -> str:
    lines = []
    for query in TABLE1_WORKLOAD:
        dils = [engine.dil_for(keyword) for keyword in query.parse()]
        for k in K_VALUES:
            results, stats = run_merge(engine.processor, dils, k)
            counts = (f"{stats.postings_read} {stats.frames_pushed} "
                      f"{stats.results_found} {stats.docs_skipped} "
                      f"{stats.heap_evictions}")
            ranked = " ".join(f"({result.dewey.encode()}, "
                              f"{result.score!r})" for result in results)
            lines.append(f"{query.query_id} k={k}: {counts} | {ranked}")
    return "\n".join(lines) + "\n"


def block_backed(dil: DeweyInvertedList) -> DeweyInvertedList:
    return DeweyInvertedList.from_block(
        dil.keyword, PostingBlock(encode_postings(dil.encoded())))


def test_merge_statistics_match_the_golden_file(engines):
    assert render_merge_statistics(engines[RELATIONSHIPS]) == \
        GOLDEN.read_text(encoding="utf-8")


@pytest.mark.parametrize("k", K_VALUES)
def test_dewey_ids_built_only_for_results(engines, monkeypatch, k):
    engine = engines[RELATIONSHIPS]
    built = [0]
    init = DeweyID.__init__

    def counting_init(self, *args, **kwargs):
        built[0] += 1
        init(self, *args, **kwargs)

    merged_any = False
    for query in TABLE1_WORKLOAD:
        dils = [block_backed(engine.dil_for(keyword))
                for keyword in query.parse()]
        with monkeypatch.context() as patch:
            patch.setattr(DeweyID, "__init__", counting_init)
            built[0] = 0
            _, stats = run_merge(engine.processor, dils, k)
            count = built[0]
        assert count == stats.results_found, query.query_id
        merged_any |= stats.postings_read > 0
    assert merged_any
