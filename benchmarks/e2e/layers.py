"""Where the traced runs cut the program into layers.

A layer is a module of ``src/repro``. The benchmark does not edit the
program; a traced replay instead replaces, for its own duration, the
public callables at each layer boundary with versions that record a
span (:meth:`harness.SpanRecorder.wrap`). This module is the one place
that knows which callables those are.

It also holds the micro-measurements: public functions of one layer
timed in isolation on the workload's real data, for the costs a span
cannot separate (the HTTP parser inside an ``await``, the posting
codec inside the merge loop).
"""

from __future__ import annotations

import asyncio
import os
import time

from harness import SpanRecorder, median

SERVER = "server"
QUERY = "core.query"
INDEX = "core.index"
ONTOSCORE = "core.ontoscore"
SCORING = "core.scoring"
STORAGE = "storage"
ONTOLOGY = "ontology"
XMLDOC = "xmldoc"
CLI = "cli"

LAYERS = (SERVER, QUERY, INDEX, ONTOSCORE, SCORING, STORAGE, ONTOLOGY,
          XMLDOC, CLI)

_STORE_READS = ("get_postings", "get_posting_block", "get_document",
                "get_metadata", "keywords", "document_ids")
_STORE_WRITES = ("put_postings", "put_postings_many", "put_document",
                 "put_metadata", "put_metadata_many", "delete_document")


class MergeCounts:
    """Work counters of the stack merge, summed over a replay."""

    def __init__(self) -> None:
        self.queries = 0
        self.postings_read = 0
        self.docs_skipped = 0


class CounterGrowth:
    """How much the counters of a snapshot function grew, summed over
    every ``with`` block the object was used in."""

    def __init__(self, snapshot) -> None:
        self._snapshot = snapshot
        self._before: dict[str, int] = {}
        self._growth: dict[str, int] = {}

    def __enter__(self) -> "CounterGrowth":
        self._before = self._snapshot()
        return self

    def __exit__(self, *exc_info) -> None:
        for name, value in self._snapshot().items():
            self._growth[name] = self._growth.get(name, 0) + value \
                - self._before.get(name, 0)

    def __getitem__(self, name: str) -> int:
        return self._growth.get(name, 0)


def trace_query_path(recorder: SpanRecorder, engine,
                     counts: MergeCounts) -> None:
    """Spans around one engine's query path: ``search_outcome``, the
    four pipeline stages, the DIL cache behind the fetch stage, and
    the merge (whose per-call statistics are added to ``counts``)."""
    recorder.wrap(engine, "search_outcome", "query.search", QUERY)
    for stage in engine.pipeline.stages:
        recorder.wrap(stage, "run", f"query.{stage.name}", QUERY)
    recorder.wrap(engine.index_manager.dil_cache, "get_or_build",
                  "index.dil_cache", INDEX)
    processor = engine.processor
    collect = processor.collect_topk_stats

    def counted(*args, **kwargs):
        results, statistics = collect(*args, **kwargs)
        counts.queries += 1
        counts.postings_read += statistics.postings_read
        counts.docs_skipped += statistics.docs_skipped
        return results, statistics

    recorder.replace(processor, "collect_topk_stats", counted)


def trace_store(recorder: SpanRecorder, store, name: str,
                writes: bool = False) -> None:
    """Spans around one store object's read (and write) methods."""
    for method in _STORE_READS + (_STORE_WRITES if writes else ()):
        if hasattr(store, method):
            kind = "write" if method in _STORE_WRITES else "read"
            recorder.wrap(store, method, f"storage.{name}.{kind}",
                          STORAGE)


def trace_codec(recorder: SpanRecorder) -> None:
    """Spans around the lazy per-document block decode the merge
    calls into (a class attribute: blocks have no instance dict)."""
    from repro.storage.codec import PostingBlock
    recorder.wrap(PostingBlock, "doc_postings", "storage.codec.decode",
                  STORAGE)


def trace_builder(recorder: SpanRecorder, builder) -> None:
    """Spans around DIL construction: ``build_keyword`` (core.index)
    and, beneath it, the OntoScore expansion and the NodeScore pass."""
    builder = getattr(builder, "inner", builder)
    recorder.wrap(builder, "build_keyword", "index.build_keyword", INDEX)
    recorder.wrap(builder.ontoscore, "compute", "ontoscore.compute",
                  ONTOSCORE)
    recorder.wrap(builder.node_scorer, "node_scores",
                  "scoring.node_scores", SCORING)


def trace_terminology(recorder: SpanRecorder, terminology) -> None:
    recorder.wrap(terminology, "match_in_text", "ontology.match_in_text",
                  ONTOLOGY)
    recorder.wrap(terminology, "resolve", "ontology.resolve", ONTOLOGY)


# ----------------------------------------------------------------------
# Micro-measurements
# ----------------------------------------------------------------------
def _median_us(call, inputs, repeats: int = 3) -> float:
    """Median microseconds of ``call(x)`` over ``inputs``, each input
    timed ``repeats`` times and represented by its fastest."""
    samples = []
    for item in inputs:
        best = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            call(item)
            best = min(best, time.perf_counter() - started)
        samples.append(best)
    return median(samples) * 1e6 if samples else 0.0


def http_micro(paths, bodies) -> dict[str, float]:
    """``read_request`` on request heads fed to a stream reader, and
    ``render_response`` on real response bodies."""
    from repro.server.http import read_request, render_response

    heads = [(f"GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
              f"Accept-Encoding: identity\r\n\r\n").encode("latin-1")
             for path in paths]

    async def parse_all() -> list[float]:
        samples = []
        for head in heads:
            reader = asyncio.StreamReader()
            reader.feed_data(head)
            started = time.perf_counter()
            await read_request(reader)
            samples.append(time.perf_counter() - started)
        return samples

    parse = asyncio.run(parse_all())
    return {
        "server.http.read_request_us": median(parse) * 1e6,
        "server.http.render_response_us": _median_us(
            lambda body: render_response(200, body), bodies),
    }


def store_micro(store, strategy: str, keys, backend: str) -> dict[str, float]:
    """Per-key read cost of one backend and the posting codec's rates
    on that store's own lists."""
    from repro.storage.codec import (UnencodablePostings, decode_postings,
                                     encode_postings)

    keys = list(keys)
    reader = getattr(store, "get_posting_block", None)
    read = (lambda key: reader(strategy, key)) if reader is not None \
        else (lambda key: store.get_postings(strategy, key))
    out = {f"storage.{backend}.get_postings_us": _median_us(read, keys)}
    largest = sorted(keys, key=lambda key: store.posting_count(
        strategy, key), reverse=True)[:40]
    lists = [store.get_postings(strategy, key) for key in largest]
    postings = encode_seconds = decode_seconds = 0.0
    for rows in lists:
        try:
            started = time.perf_counter()
            block = encode_postings(rows)
            encode_seconds += time.perf_counter() - started
        except UnencodablePostings:
            continue
        started = time.perf_counter()
        decode_postings(block)
        decode_seconds += time.perf_counter() - started
        postings += len(rows)
    if postings:
        out["storage.codec.encode_postings_per_s"] = \
            postings / encode_seconds
        out["storage.codec.decode_postings_per_s"] = \
            postings / decode_seconds
    return out


def bytes_per_posting(store_path, store, strategy: str) -> float:
    total = sum(store.posting_count(strategy, key)
                for key in store.keywords(strategy))
    return os.path.getsize(store_path) / total if total else 0.0


def ontology_micro(terminology, documents, texts) -> dict[str, float]:
    references = [node.reference for document in documents[:5]
                  for node in document.code_nodes()][:300]
    return {
        "ontology.resolve_us": _median_us(terminology.resolve,
                                          references),
        "ontology.match_in_text_us": _median_us(
            terminology.match_in_text, list(texts)),
    }


def _median_of(recorder: SpanRecorder, name: str, scale: float) -> float:
    totals = recorder.per_request_total(name)
    return median(totals) * scale if totals else 0.0


def query_metrics(metrics: dict, recorder: SpanRecorder,
                  merges: MergeCounts) -> None:
    """Per-query medians of the spans :func:`trace_query_path` records."""
    metrics["query.parse_us"] = _median_of(recorder, "query.parse", 1e6)
    metrics["query.dil_fetch_ms"] = \
        _median_of(recorder, "query.dil_fetch", 1e3)
    metrics["query.merge_ms"] = _median_of(recorder, "query.merge", 1e3)
    metrics["query.rank_us"] = _median_of(recorder, "query.rank", 1e6)
    metrics["query.search_ms"] = _median_of(recorder, "query.search", 1e3)
    if merges.queries:
        metrics["query.topk.docs_skipped_per_query"] = \
            merges.docs_skipped / merges.queries
        metrics["query.postings_per_query"] = \
            merges.postings_read / merges.queries


def cache_metrics(metrics: dict, counters: CounterGrowth) -> None:
    """DIL-cache behaviour from the engine's own counters."""
    hits = counters["dil_cache.hits"]
    lookups = hits + counters["dil_cache.misses"]
    metrics["index.dil_cache.hit_share"] = \
        hits / lookups if lookups else 0.0
    metrics["index.dil_cache.evictions"] = counters["dil_cache.evictions"]


def summarize(outcome, recorder: SpanRecorder, operations: int,
              untraced_wall: float, traced_wall: float) -> None:
    """Per-layer self time per operation; the share of the traced
    replay's wall the spans account for (the rest is the caller's gaps
    between operations); and what tracing added over the untraced
    replay of the same operations."""
    metrics = outcome.metrics
    by_layer = recorder.layer_self_seconds()
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = \
            by_layer.get(layer, 0.0) / operations * 1e3
    metrics["trace.spans"] = len(recorder.spans)
    metrics["trace.overhead_share"] = \
        (traced_wall - untraced_wall) / untraced_wall
    metrics["trace.coverage_share"] = \
        sum(by_layer.values()) / traced_wall
    outcome.details["traced_operations"] = operations
    outcome.details["untraced_wall_s"] = untraced_wall
    outcome.details["traced_wall_s"] = traced_wall
