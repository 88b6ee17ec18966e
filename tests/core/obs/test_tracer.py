"""Span tracer: nesting, attributes, bounding, no-op mode, threads."""

import threading

import pytest

from repro.core.obs.instruments import ManualClock
from repro.core.obs.tracer import (DEFAULT_SPAN_CAPACITY, NULL_TRACER,
                                   NullTracer, Tracer)
from repro.core.stats import StatsRegistry


def manual_tracer(**kwargs):
    clock = ManualClock()
    return clock, Tracer(clock=clock, **kwargs)


class TestSpanBasics:
    def test_span_records_duration_from_injected_clock(self):
        clock, tracer = manual_tracer()
        with tracer.span("query.parse"):
            clock.advance(0.125)
        (span,) = tracer.finished()
        assert span.name == "query.parse"
        assert span.duration == 0.125
        assert span.thread_id == threading.get_ident()

    def test_creation_attributes_and_annotate(self):
        clock, tracer = manual_tracer()
        with tracer.span("query.dil_merge", keywords=3) as span:
            clock.advance(0.01)
            span.annotate(results=7, postings_read=42)
        (finished,) = tracer.finished()
        assert finished.attributes == {"keywords": 3, "results": 7,
                                       "postings_read": 42}

    def test_annotate_overwrites(self):
        _, tracer = manual_tracer()
        with tracer.span("s", state="open") as span:
            span.annotate(state="closing")
        assert tracer.finished()[0].attributes == {"state": "closing"}

    def test_span_closes_on_exception(self):
        clock, tracer = manual_tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("failing"):
                clock.advance(1.0)
                raise RuntimeError("boom")
        (span,) = tracer.finished()
        assert span.duration == 1.0
        assert tracer.active_depth() == 0


class TestNesting:
    def test_depth_tracks_the_stack(self):
        clock, tracer = manual_tracer()
        with tracer.span("query.search"):
            assert tracer.active_depth() == 1
            with tracer.span("query.parse"):
                assert tracer.active_depth() == 2
            with tracer.span("query.dil_merge"):
                clock.advance(0.5)
        assert tracer.active_depth() == 0
        by_name = {span.name: span for span in tracer.finished()}
        assert by_name["query.search"].depth == 0
        assert by_name["query.parse"].depth == 1
        assert by_name["query.dil_merge"].depth == 1

    def test_children_finish_before_parents(self):
        _, tracer = manual_tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        names = [span.name for span in tracer.finished()]
        assert names == ["inner", "outer"]


class TestBoundedBuffer:
    def test_oldest_spans_drop_first(self):
        clock, tracer = manual_tracer(capacity=3)
        for i in range(5):
            with tracer.span(f"span{i}"):
                clock.advance(0.001)
        assert [span.name for span in tracer.finished()] == \
            ["span2", "span3", "span4"]
        assert tracer.dropped == 2

    def test_clear_resets_buffer_and_drop_counter(self):
        clock, tracer = manual_tracer(capacity=1)
        for _ in range(3):
            with tracer.span("s"):
                clock.advance(0.001)
        tracer.clear()
        assert tracer.finished() == []
        assert tracer.dropped == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_default_capacity(self):
        assert DEFAULT_SPAN_CAPACITY == 4096


class TestRegistryIntegration:
    def test_finished_spans_feed_same_named_timer(self):
        clock = ManualClock()
        registry = StatsRegistry(clock=clock)
        tracer = Tracer(clock=clock, registry=registry)
        for _ in range(3):
            with tracer.span("query.dil_merge"):
                clock.advance(0.25)
        stats = registry.timer("query.dil_merge")
        assert stats.count == 3
        assert stats.total == pytest.approx(0.75)

    def test_observe_delegates_to_registry(self):
        registry = StatsRegistry()
        tracer = Tracer(registry=registry)
        tracer.observe("index.serial_build", 1.5)
        assert registry.timer("index.serial_build").count == 1

    def test_registry_attachable_after_construction(self):
        clock, tracer = manual_tracer()
        registry = StatsRegistry()
        tracer.registry = registry
        with tracer.span("late"):
            clock.advance(0.1)
        assert registry.timer("late").count == 1


class TestThreads:
    def test_stacks_are_per_thread(self):
        clock, tracer = manual_tracer()
        depths = {}
        barrier = threading.Barrier(2)

        def worker(label):
            with tracer.span(f"outer.{label}"):
                barrier.wait(timeout=5)
                depths[label] = tracer.active_depth()
                with tracer.span(f"inner.{label}"):
                    pass

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Each thread saw only its own open span, never the sibling's.
        assert depths == {0: 1, 1: 1}
        inner = [span for span in tracer.finished()
                 if span.name.startswith("inner.")]
        assert {span.depth for span in inner} == {1}
        assert len({span.thread_id for span in inner}) == 2


class TestNullTracer:
    def test_span_is_one_shared_object(self):
        # Zero allocation when disabled: every call returns the same
        # preallocated no-op span.
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")
        assert NULL_TRACER.span("a", keyword="x") is NULL_TRACER.span("a")

    def test_null_span_is_inert(self):
        with NULL_TRACER.span("anything", attr=1) as span:
            span.annotate(more=2)
        assert NULL_TRACER.finished() == []
        assert NULL_TRACER.dropped == 0
        assert NULL_TRACER.active_depth() == 0
        assert list(NULL_TRACER) == []

    def test_flags(self):
        assert NULL_TRACER.enabled is False
        assert Tracer().enabled is True
        assert isinstance(NULL_TRACER, NullTracer)

    def test_observe_is_a_no_op(self):
        NULL_TRACER.observe("x", 1.0)  # must not raise
        assert NULL_TRACER.registry is None
