"""Exporters: profile table, JSON-lines metrics, Chrome trace."""

import json
import os

from repro.core.obs.export import (chrome_trace, metrics_lines, phase_of,
                                   render_profile, write_chrome_trace,
                                   write_metrics_jsonl)
from repro.core.obs.instruments import ManualClock
from repro.core.obs.tracer import Tracer
from repro.core.stats import StatsRegistry


def traced_registry():
    """A registry + tracer with a deterministic, representative load."""
    clock = ManualClock()
    registry = StatsRegistry(clock=clock)
    tracer = Tracer(clock=clock, registry=registry)
    with tracer.span("query.search", strategy="relationships"):
        with tracer.span("query.parse"):
            clock.advance(0.001)
        with tracer.span("query.dil_fetch", keyword="asthma") as span:
            with tracer.span("storage.sqlite.read", keyword="asthma"):
                clock.advance(0.004)
            span.annotate(postings=12)
        with tracer.span("query.dil_merge", keywords=1):
            clock.advance(0.002)
    registry.increment("dil_cache.hits", 2)
    return registry, tracer


class TestPhaseOf:
    def test_exact_and_prefix_matches(self):
        assert phase_of("query.parse") == "parse"
        assert phase_of("ontoscore.expand") == "ontoscore"
        assert phase_of("query.dil_merge") == "dil_merge"
        assert phase_of("storage.sqlite.read") == "storage"
        assert phase_of("dil_cache.build") == "dil_fetch"
        assert phase_of("index.serial_build") == "index_build"
        assert phase_of("query.search") == "query_total"

    def test_unknown_names_roll_up_nowhere(self):
        assert phase_of("unrelated.timer") is None
        # Exact-match prefixes must not swallow extensions.
        assert phase_of("query.parsefoo") is None


class TestRenderProfile:
    def test_canonical_phases_always_print(self):
        profile = render_profile(StatsRegistry())
        for phase in ("parse", "ontoscore", "dil_merge", "storage"):
            assert phase in profile
        # Optional phases stay hidden at zero.
        assert "index_build" not in profile
        assert "query_total" not in profile

    def test_populated_profile(self):
        registry, tracer = traced_registry()
        profile = render_profile(registry, tracer)
        assert profile.startswith("PROFILE")
        assert "query_total" in profile
        assert "instruments:" in profile
        assert "query.dil_merge:" in profile
        assert "counters:" in profile
        assert "dil_cache.hits=2" in profile
        assert "spans: 5 buffered (0 dropped)" in profile

    def test_disabled_tracer_hides_span_line(self):
        registry, _ = traced_registry()
        assert "spans:" not in render_profile(registry)


class TestMetricsLines:
    def test_every_line_parses_and_is_sorted(self):
        registry, _ = traced_registry()
        lines = metrics_lines(registry)
        rows = [json.loads(line) for line in lines]
        counters = [row for row in rows if row["type"] == "counter"]
        timers = [row for row in rows if row["type"] == "timer"]
        assert [row["name"] for row in counters] == \
            sorted(row["name"] for row in counters)
        assert [row["name"] for row in timers] == \
            sorted(row["name"] for row in timers)
        assert counters[0] == {"type": "counter",
                               "name": "dil_cache.hits", "value": 2}

    def test_timer_row_shape(self):
        registry, _ = traced_registry()
        rows = [json.loads(line) for line in metrics_lines(registry)]
        merge = next(row for row in rows
                     if row["name"] == "query.dil_merge")
        assert set(merge) == {"type", "name", "count", "total_s",
                              "mean_s", "min_s", "max_s", "p50_s",
                              "p95_s", "p99_s"}
        assert merge["count"] == 1
        assert abs(merge["total_s"] - 0.002) < 1e-12

    def test_write_metrics_jsonl(self, tmp_path):
        registry, _ = traced_registry()
        path = tmp_path / "metrics.jsonl"
        written = write_metrics_jsonl(registry, str(path))
        lines = path.read_text().splitlines()
        assert written == len(lines) > 0
        for line in lines:
            json.loads(line)


class TestChromeTrace:
    def test_structure(self):
        _, tracer = traced_registry()
        trace = chrome_trace(tracer)
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        assert len(events) == 5
        for event in events:
            assert event["ph"] == "X"
            assert event["cat"] == "repro"
            assert event["pid"] == os.getpid()
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0

    def test_timestamps_relative_to_earliest_span(self):
        _, tracer = traced_registry()
        events = chrome_trace(tracer)["traceEvents"]
        assert min(event["ts"] for event in events) == 0.0
        search = next(e for e in events if e["name"] == "query.search")
        # ManualClock advanced 7ms total inside the search span.
        assert abs(search["dur"] - 7000.0) < 1e-6

    def test_args_are_json_safe(self):
        clock = ManualClock()
        tracer = Tracer(clock=clock)
        with tracer.span("s", keyword="asthma", count=3,
                         weird=object()) as span:
            clock.advance(0.001)
            span.annotate(flag=True, nothing=None)
        (event,) = chrome_trace(tracer)["traceEvents"]
        json.dumps(event)  # the whole event must serialize
        assert event["args"]["keyword"] == "asthma"
        assert event["args"]["count"] == 3
        assert event["args"]["flag"] is True
        assert isinstance(event["args"]["weird"], str)

    def test_write_chrome_trace(self, tmp_path):
        _, tracer = traced_registry()
        path = tmp_path / "trace.json"
        written = write_chrome_trace(tracer, str(path))
        loaded = json.loads(path.read_text())
        assert written == len(loaded["traceEvents"]) == 5

    def test_empty_tracer_yields_empty_trace(self):
        trace = chrome_trace(Tracer())
        assert trace["traceEvents"] == []
