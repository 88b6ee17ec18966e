"""``incremental_rw``: writes beside reads on one SQLite file store.

The in-process engine API drives the LSM-segment lifecycle the way a
long-running indexer would: a base build (set-up), then rounds of
``add_documents`` each followed by read passes of the paper's curated
queries through ``attach_read_store``, then ``remove_documents``, a
read pass, ``compact`` and more read passes. The same ``storage`` and
``core.index`` layers serve the appends, the tombstones, the
multi-segment read view and the compaction, so a read-path gain that
slows appends or compaction, or bloats the file, shows here.

The engine is *pinned* the way the repository's own differential
suite pins it: one element index over every document the run will
ever hold, the builder scoped to the live ones. All segments then
share one BM25 statistics epoch and every answer must equal the
Eq. 1 oracle over the live documents.

The seed deals the appended documents into batches, picks the
documents removed and orders every read pass.
"""

from __future__ import annotations

import contextlib
import time
from pathlib import Path

import inputs
import layers
from harness import (Context, Outcome, SpanRecorder, median,
                     peak_rss_mb, percentile, repeated_setup)

BASE_DOCS, BATCH_DOCS, REMOVED_DOCS = 24, 12, 4
QUICK_BASE, QUICK_BATCH, QUICK_REMOVED = 6, 3, 2
#: Append rounds per second of ``--seconds`` (two at the recorded ten
#: seconds, which is about what the script then takes). Every keyword
#: written is one SQLite transaction, so the script is bound by the
#: disk's fsync rate; more rounds would mostly measure the disk.
ROUNDS_PER_SECOND = 0.2
MAX_ROUNDS = 6
PASSES_AFTER_APPEND, PASSES_AFTER_REMOVE, PASSES_AFTER_COMPACT = 2, 1, 2


class Plan:
    """The sizes and seeded draws of one run."""

    def __init__(self, context: Context) -> None:
        self.base = context.size(BASE_DOCS, QUICK_BASE)
        self.batch = context.size(BATCH_DOCS, QUICK_BATCH)
        self.removed = context.size(REMOVED_DOCS, QUICK_REMOVED)
        self.rounds = min(MAX_ROUNDS, max(
            1, round(context.seconds * ROUNDS_PER_SECOND)))
        self.patients = self.base + self.rounds * self.batch
        appended = inputs.shuffled(range(self.base, self.patients),
                                   context.seed, "append-order")
        self.batches = inputs.batches(appended, self.batch)
        self.remove = sorted(inputs.stream(context.seed, "removed").sample(
            range(self.patients), self.removed))
        self._seed = context.seed
        self._passes = 0

    def next_pass(self, requests: list) -> list:
        self._passes += 1
        return inputs.shuffled(requests, self._seed,
                               f"pass-{self._passes}")


def _base_build(context: Context, plan: Plan, directory: Path):
    """Set-up: generate, load, pin, build the base index on disk."""
    from repro import XOntoRankEngine
    from repro.core.config import XOntoRankConfig
    from repro.core.query.federated import ShardScopedBuilder
    from repro.core.scoring import ElementIndex
    from repro.ontology.api import TerminologyService
    from repro.storage.manifest import atomic_sqlite_build
    from repro.xmldoc.model import Corpus

    data = directory / "data"
    context.workspace.cli_ok("generate", "--out", str(data),
                             "--patients", str(plan.patients))
    ontology, documents = inputs.load_data_dir(data)
    config = XOntoRankConfig()
    universe = ElementIndex(
        Corpus(list(documents)), text_policy=config.text_policy,
        concept_resolver=TerminologyService([ontology]).resolve,
        k1=config.bm25_k1, b=config.bm25_b,
        ir_function=config.ir_function)
    base = documents[:plan.base]
    engine = XOntoRankEngine(Corpus(list(base)), ontology,
                             strategy=inputs.STRATEGY, config=config,
                             element_index=universe)
    engine.index_manager.builder = ShardScopedBuilder(
        engine.builder, frozenset(range(plan.base)))
    store_path = directory / "index.db"
    with atomic_sqlite_build(str(store_path)) as store:
        engine.build_index(store=store)
    return data, ontology, documents, engine, store_path


class Script:
    """The timed phase. ``around(name)`` wraps every operation (a
    traced run opens the operation's root span there); ``on_attach``
    is told about each new read view."""

    def __init__(self, outcome: Outcome, plan: Plan, engine, documents,
                 oracle: inputs.Oracle, around, on_attach=None) -> None:
        self.outcome = outcome
        self.plan = plan
        self.engine = engine
        self.documents = documents
        self.oracle = oracle
        self.around = around
        self.on_attach = on_attach
        self.requests = inputs.curated_requests()
        self.live = set(range(plan.base))
        self.latencies: list[float] = []
        self.first_pass: list[float] = []
        self.second_pass: list[float] = []
        self.append_seconds = 0.0
        self.appended = 0
        self.attach_seconds: list[float] = []
        self.segments_peak = 1
        self.facts: dict[str, float] = {}

    def _timed(self, name: str, call) -> float:
        with self.around(name):
            started = time.perf_counter()
            call()
            elapsed = time.perf_counter() - started
        self.outcome.attempted += 1
        return elapsed

    def _read_passes(self, store, passes: int, after_append: bool) -> None:
        live = frozenset(self.live)
        expected = {request.text: self.oracle.expected(request, live=live)
                    for request in self.requests}
        self.attach_seconds.append(self._timed(
            "rw.attach", lambda: self.engine.attach_read_store(store)))
        if self.on_attach is not None:
            self.on_attach(self.engine.index_manager.read_store)
        for number in range(passes):
            for request in self.plan.next_pass(self.requests):
                with self.around("rw.search"):
                    started = time.perf_counter()
                    results = self.engine.search(request.text,
                                                 k=inputs.TOP_K)
                    elapsed = time.perf_counter() - started
                self.outcome.attempted += 1
                if inputs.ranking_of(results) != expected[request.text]:
                    self.outcome.fail(
                        f"{request.text!r} over {len(live)} live "
                        f"documents: ranking differs from the oracle")
                    continue
                self.latencies.append(elapsed)
                if after_append:
                    (self.first_pass if number == 0
                     else self.second_pass).append(elapsed)

    def play(self, store_path: Path) -> None:
        from repro.storage.segments import load_catalog
        from repro.storage.sqlite_store import SQLiteStore

        plan, engine = self.plan, self.engine
        with SQLiteStore(str(store_path)) as store:
            for batch in plan.batches:
                new = [self.documents[doc_id] for doc_id in batch]
                self.append_seconds += self._timed(
                    "rw.append",
                    lambda: engine.add_documents(new, store))
                self.appended += len(new)
                self.live |= set(batch)
                self.segments_peak = max(
                    self.segments_peak, len(load_catalog(store).segments))
                self._read_passes(store, PASSES_AFTER_APPEND, True)
            self.facts["remove_s"] = self._timed(
                "rw.remove",
                lambda: engine.remove_documents(plan.remove, store))
            self.live -= set(plan.remove)
            self._read_passes(store, PASSES_AFTER_REMOVE, False)
            self.facts["bytes_before_compact"] = \
                store_path.stat().st_size
            self.facts["compact_s"] = self._timed(
                "rw.compact", lambda: engine.compact(store))
            self._read_passes(store, PASSES_AFTER_COMPACT, False)
        self.facts["bytes_after_compact"] = store_path.stat().st_size


def _plain(name: str):
    return contextlib.nullcontext()


def run(context: Context) -> Outcome:
    outcome = Outcome({}, 0, 0)
    plan = Plan(context)
    outcome.metrics["setup_s"], kept = repeated_setup(
        context,
        lambda directory, keep: _base_build(context, plan, directory))
    data, ontology, documents, engine, store_path = kept
    oracle = inputs.Oracle(ontology, documents)
    script = Script(outcome, plan, engine, documents, oracle, _plain)
    script.play(store_path)

    outcome.details["latency_samples"] = len(script.latencies)
    outcome.details["append_rounds"] = plan.rounds
    outcome.metrics["throughput_ops_s"] = \
        script.appended / script.append_seconds
    if script.latencies:
        outcome.metrics["latency_p50_ms"] = median(script.latencies) * 1e3
        outcome.metrics["latency_p95_ms"] = \
            percentile(script.latencies, 0.95) * 1e3
    outcome.metrics["peak_rss_mb"] = peak_rss_mb()
    files = inputs.corpus_files(data)
    outcome.metrics["store_bytes_per_corpus_byte"] = \
        script.facts["bytes_after_compact"] / sum(
            files[doc_id].stat().st_size for doc_id in script.live)
    return outcome


def trace(context: Context) -> tuple[Outcome, SpanRecorder]:
    import repro.core.index.manager as manager
    import repro.core.index.segments as segments
    from repro.storage.mmap_store import open_read_store
    from repro.storage.segments import segment_view

    outcome = Outcome({}, 0, 0)
    metrics = outcome.metrics

    def one_pass(label: str, recorder: SpanRecorder | None):
        directory = context.workspace.fresh_dir(label)
        plan = Plan(context)
        data, ontology, documents, engine, store_path = _base_build(
            context, plan, directory)
        oracle = inputs.Oracle(ontology, documents)
        around, on_attach = _plain, None
        merges = layers.MergeCounts()
        counters = layers.CounterGrowth(engine.stats.snapshot)
        if recorder is not None:
            around = lambda name: recorder.request(name, layers.CLI)
            on_attach = lambda view: recorder.wrap(
                view, "get_postings", "storage.segment_view.read",
                layers.STORAGE)
            _install(recorder, engine, manager, segments, merges)
        script = Script(outcome, plan, engine, documents, oracle,
                        around, on_attach)
        started = time.perf_counter()
        if recorder is not None:
            # The store object exists only inside play(); its class is
            # where this pass's reads and writes are cut.
            from repro.storage.sqlite_store import SQLiteStore
            layers.trace_store(recorder, SQLiteStore, "sqlite",
                               writes=True)
        try:
            with counters:
                script.play(store_path)
        finally:
            if recorder is not None:
                recorder.unwrap_all()
        wall = time.perf_counter() - started
        return script, store_path, wall, counters, merges

    _, _, untraced_wall, _, _ = one_pass("untraced", None)
    recorder = SpanRecorder()
    script, store_path, traced_wall, counters, merges = \
        one_pass("traced", recorder)

    # --- core.index ---------------------------------------------------
    metrics["index.append.docs_per_s"] = \
        script.appended / script.append_seconds
    metrics["index.append.keywords_built"] = \
        counters["index.append.keywords_built"]
    metrics["index.append.keywords_skipped"] = \
        counters["index.append.keywords_skipped"]
    metrics["index.remove_ms"] = script.facts["remove_s"] * 1e3
    metrics["index.compact_s"] = script.facts["compact_s"]
    metrics["index.segments_live"] = script.segments_peak
    metrics["index.first_pass_after_append_ms"] = \
        median(script.first_pass) * 1e3
    metrics["index.second_pass_ms"] = median(script.second_pass) * 1e3
    metrics["index.build.dil_s"] = \
        sum(recorder.durations("index.build_keyword"))
    layers.cache_metrics(metrics, counters)
    metrics["ontoscore.compute_s"] = \
        recorder.layer_self_seconds().get(layers.ONTOSCORE, 0.0)
    metrics["scoring.node_scores_s"] = \
        recorder.self_seconds("scoring.node_scores")

    # --- core.query / storage -------------------------------------------
    layers.query_metrics(metrics, recorder, merges)
    searches = {span.request for span in recorder.spans
                if span.name == "rw.search"}
    reads = sum(1 for span in recorder.spans
                if span.name == "storage.sqlite.read"
                and span.request in searches)
    metrics["storage.reads_per_query"] = reads / len(searches)
    metrics["storage.open_validate_ms"] = \
        median(script.attach_seconds) * 1e3
    metrics["storage.write_s"] = sum(
        recorder.durations("storage.sqlite.write"))
    metrics["storage.file_bytes_before_compact"] = \
        script.facts["bytes_before_compact"]
    metrics["storage.file_bytes_after_compact"] = \
        script.facts["bytes_after_compact"]
    with open_read_store(str(store_path)) as raw:
        store = segment_view(raw)  # the compacted segment's namespace
        keys = sorted(store.keywords(inputs.STRATEGY))
        metrics.update(layers.store_micro(store, inputs.STRATEGY, keys,
                                          "sqlite"))
        metrics["storage.sqlite.bytes_per_posting"] = \
            layers.bytes_per_posting(store_path, store, inputs.STRATEGY)
    layers.summarize(outcome, recorder, 1, untraced_wall, traced_wall)
    return outcome, recorder


def _install(recorder: SpanRecorder, engine, manager, segments,
             merges: layers.MergeCounts) -> None:
    recorder.wrap(engine, "attach_read_store", "index.attach_read_store",
                  layers.INDEX)
    recorder.wrap(engine, "add_documents", "index.append", layers.INDEX)
    recorder.wrap(engine, "remove_documents", "index.remove", layers.INDEX)
    recorder.wrap(engine, "compact", "index.compact", layers.INDEX)
    layers.trace_builder(recorder, engine.builder)
    recorder.wrap(manager, "serialize", "xmldoc.serialize", layers.XMLDOC)
    recorder.wrap(segments, "serialize", "xmldoc.serialize", layers.XMLDOC)
    layers.trace_query_path(recorder, engine, merges)
