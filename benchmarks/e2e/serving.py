"""The two serving workloads: HTTP request in, ranked JSON out.

``serve_selective``
    A warmed server over a small corpus answers selective queries in a
    closed loop. Posting lists are short and all cached, so the time
    goes to the ``server`` layer (socket, request parse, admission,
    thread hop, JSON render) and, for the narrative quarter of the
    mix, to the ``ontology`` mapping. Engine and storage optimisations
    must leave this workload unchanged.

``serve_broad_store``
    A cold server with a four-list DIL cache answers the paper's
    curated two-keyword queries arriving on a Poisson schedule. The
    working set (about 32 lists) is far larger than the cache and the
    lists are long: ``storage`` fetch, ``codec`` decode and the
    ``core.query`` merge dominate, the ``server`` layer is a small
    share. Transport changes must leave this workload unchanged.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import inputs
import layers
import loadgen
from harness import (Context, Outcome, SpanRecorder, median, percentile,
                     repeated_setup, tree_bytes)


@dataclass(frozen=True)
class ServeSpec:
    name: str
    patients: int
    quick_patients: int
    #: ``serve`` flags beyond --data/--store (defaults otherwise).
    flags: tuple[str, ...]
    #: DIL cache bound of the in-process replay (mirrors ``flags``).
    cache_size: int | None
    warm: bool
    #: Open-loop arrivals per second; ``None`` runs a closed loop.
    rate: float | None


SELECTIVE = ServeSpec("serve_selective", patients=40, quick_patients=8,
                      flags=(), cache_size=None, warm=True, rate=None)
#: Windows the timed phase is cut into (see _latency_metrics).
WINDOWS = 5
#: Untraced/traced chunk pairs of a traced run.
TRACE_ROUNDS = 3

#: 40 req/s is about a third of what two closed-loop clients reach on
#: this workload (~125 req/s on the two-core reference box).
BROAD = ServeSpec("serve_broad_store", patients=60, quick_patients=8,
                  flags=("--cache-size", "4", "--no-warm"), cache_size=4,
                  warm=False, rate=40.0)


def _requests(spec: ServeSpec, store: Path, seed: int) -> list[inputs.Request]:
    if spec.rate is None:
        pool = inputs.selective_keywords(inputs.vocabulary_counts(store))
        return inputs.selective_requests(pool, seed)
    return inputs.curated_requests()


def _build_store(context: Context, spec: ServeSpec,
                 directory: Path) -> tuple[Path, Path]:
    """``generate`` then ``index --store-format mmap``."""
    data = directory / "data"
    store = directory / "index.xms"
    patients = context.size(spec.patients, spec.quick_patients)
    context.workspace.cli_ok("generate", "--out", str(data),
                             "--patients", str(patients))
    context.workspace.cli_ok("index", "--data", str(data), "--store",
                             str(store), "--store-format", "mmap")
    return data, store


def _check(outcome: Outcome, load: loadgen.LoadResult, requests, expected,
           order=None) -> list:
    """Count every request of ``load`` as attempted and return the
    samples that were answered correctly. ``order`` maps a replayed
    sample's index (a position in the replayed sequence) back to the
    request list the oracle is keyed by."""
    for error in load.errors:
        outcome.attempted += 1
        outcome.fail(error)
    verdicts: dict[tuple[int, bytes], str] = {}
    good = []
    for sample in load.samples:
        index = sample.index if order is None else order[sample.index]
        outcome.attempted += 1
        if sample.status != 200:
            outcome.fail(f"{requests[index].text!r}: HTTP {sample.status}")
            continue
        key = (index, sample.body)
        if key not in verdicts:
            verdicts[key] = _verdict(sample.body, expected[index])
        if verdicts[key]:
            outcome.fail(f"{requests[index].text!r}: {verdicts[key]}")
        else:
            good.append(sample)
    return good


def _verdict(body: bytes, expected: inputs.Ranking) -> str:
    """Empty when the response is a full, exact answer."""
    try:
        parsed = json.loads(body)
        if parsed["partial"]:
            return "partial answer"
        if parsed["degraded_shards"]:
            return f"degraded shards {parsed['degraded_shards']}"
        got = inputs.ranking_of_body(parsed)
    except (ValueError, KeyError, TypeError) as error:
        return f"unreadable body ({error})"
    return "" if got == expected else \
        f"ranking differs from the oracle: {got[:2]} != {expected[:2]}"


def _latency_metrics(outcome: Outcome, good, seconds: float,
                     wall: float) -> None:
    """Throughput over the whole phase; p50 and p95 per window of the
    phase, reported as the median over the windows, so that a stall
    of the box spoils one window and not the run's percentiles."""
    width = seconds / WINDOWS
    windows: list[list[float]] = [[] for _ in range(WINDOWS)]
    for sample in good:
        slot = int(sample.at / width)
        if slot < WINDOWS:  # completions past the phase's end: dropped
            windows[slot].append(sample.latency)
    windows = [window for window in windows if window]
    outcome.details["latency_samples"] = sum(map(len, windows))
    outcome.details["windows"] = len(windows)
    outcome.details["timed_wall_s"] = wall
    if windows:
        outcome.metrics["throughput_ops_s"] = len(good) / wall
        outcome.metrics["latency_p50_ms"] = median(
            [median(window) for window in windows]) * 1e3
        outcome.metrics["latency_p95_ms"] = median(
            [percentile(window, 0.95) for window in windows]) * 1e3


# ----------------------------------------------------------------------
# End to end: the server is a child process
# ----------------------------------------------------------------------
def run(spec: ServeSpec, context: Context) -> Outcome:
    outcome = Outcome({}, 0, 0)

    def setup(directory: Path, keep: bool):
        data, store = _build_store(context, spec, directory)
        server = context.workspace.serve("--data", str(data), "--store",
                                         str(store), *spec.flags)
        requests = _requests(spec, store, context.seed)
        paths = [request.path() for request in requests]
        # Discarded warm-up: every distinct request once, so lazy
        # set-up (narrative mapper, first cache fills) is paid here.
        loadgen.replay(server.port, paths, range(len(paths)))
        if not keep:
            server.stop()
        return data, store, server, requests, paths

    outcome.metrics["setup_s"], kept = repeated_setup(context, setup)
    data, store, server, requests, paths = kept
    try:
        oracle = inputs.Oracle(*inputs.load_data_dir(data))
        expected = [oracle.expected(request) for request in requests]

        if spec.rate is None:
            load = loadgen.closed_loop(server.port, paths,
                                       context.seconds)
        else:
            schedule = inputs.poisson_schedule(spec.rate,
                                               context.seconds,
                                               context.seed)
            draws = inputs.zipf_draws(len(paths), len(schedule),
                                      context.seed)
            load = loadgen.open_loop(server.port, paths, draws, schedule)
            late = max(sample.late for sample in load.samples)
            outcome.details["loadgen_late_max_ms"] = late * 1e3
            outcome.details["open_loop_valid"] = late <= 0.050
        good = _check(outcome, load, requests, expected)
        _latency_metrics(outcome, good, context.seconds, load.wall)
        outcome.metrics["peak_rss_mb"] = server.peak_rss_mb()
    finally:
        code = server.stop()
    if code != 0:
        outcome.attempted += 1
        outcome.fail(f"serve exited {code} after SIGTERM")
    outcome.metrics["store_bytes_per_corpus_byte"] = \
        store.stat().st_size / tree_bytes(data / "corpus")
    return outcome


# ----------------------------------------------------------------------
# Traced: the same server, in this process
# ----------------------------------------------------------------------
class InProcessServer:
    """``ServerApp`` on a background event loop, wired the way
    ``repro serve`` wires it (default concurrency, queue, timeout)."""

    def __init__(self, engine) -> None:
        from repro.server import SearchService, ServerApp, ServerConfig

        self.service = SearchService(stats=engine.stats)
        self.handle = self.service.add_corpus("default", engine)
        self.app = ServerApp(self.service,
                             ServerConfig(host="127.0.0.1", port=0))
        self.port = 0
        self._loop = None
        self._stop = None
        self._started = threading.Event()
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self._main()))

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        await self.app.start()
        self.port = self.app.bound_port
        self.app.mark_ready()
        self._started.set()
        await self._stop.wait()
        await self.app.drain()

    def __enter__(self) -> "InProcessServer":
        self._thread.start()
        if not self._started.wait(30):
            raise RuntimeError("in-process server did not start")
        return self

    def __exit__(self, *exc_info) -> None:
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(30)


def trace(spec: ServeSpec, context: Context) -> tuple[Outcome, SpanRecorder]:
    from repro import XOntoRankEngine
    from repro.core.config import XOntoRankConfig
    from repro.storage.mmap_store import open_read_store
    from repro.xmldoc.model import Corpus

    outcome = Outcome({}, 0, 0)
    metrics = outcome.metrics
    recorder = SpanRecorder()
    directory = context.workspace.fresh_dir("traced")
    data, store_path = _build_store(context, spec, directory)
    requests = _requests(spec, store_path, context.seed)
    paths = [request.path() for request in requests]

    started = time.perf_counter()
    ontology, documents = inputs.load_data_dir(data)
    metrics["cli.load_data_s"] = time.perf_counter() - started
    oracle = inputs.Oracle(ontology, documents)
    expected = [oracle.expected(request) for request in requests]

    engine = XOntoRankEngine(
        Corpus(documents), ontology, strategy=inputs.STRATEGY,
        config=XOntoRankConfig(dil_cache_capacity=spec.cache_size))
    started = time.perf_counter()
    store = open_read_store(str(store_path))
    engine.attach_read_store(store)
    metrics["storage.open_validate_ms"] = \
        (time.perf_counter() - started) * 1e3
    if spec.warm:
        started = time.perf_counter()
        engine.load_index(store)
        metrics["storage.load_index_s"] = time.perf_counter() - started

    # The sequence the replays send: the closed loop's cycle, or the
    # open loop's Zipf draws.
    if spec.rate is None:
        order = list(range(len(paths)))
    else:
        order = inputs.zipf_draws(len(paths), 4096, context.seed)
    sequence = [paths[index] for index in order]
    counters = layers.CounterGrowth(engine.stats.snapshot)
    merges = layers.MergeCounts()
    untraced: list[loadgen.Sample] = []
    traced: list[loadgen.Sample] = []
    untraced_wall = traced_wall = 0.0

    with InProcessServer(engine) as server:
        def install() -> None:
            layers.trace_query_path(recorder, engine, merges)
            recorder.wrap(server.service, "execute",
                          "server.service.execute", layers.SERVER)
            recorder.wrap(server.handle.narrative_mapper(), "map",
                          "query.narrative.map", layers.QUERY)
            layers.trace_terminology(recorder, engine.terminology)
            layers.trace_store(recorder, store, "mmap")
            layers.trace_codec(recorder)

        def checked(load: loadgen.LoadResult) -> loadgen.LoadResult:
            _check(outcome, load, requests, expected, order)
            return load

        loadgen.replay(server.port, paths, range(len(paths)))  # warm-up
        health = loadgen.replay(server.port, ["/healthz"], [0] * 200)
        metrics["server.healthz_rtt_ms"] = median(
            [sample.latency for sample in health.samples]) * 1e3

        if spec.rate is not None:
            schedule = inputs.poisson_schedule(
                spec.rate, context.seconds * 0.3, context.seed)
            draws = inputs.zipf_draws(len(paths), len(schedule),
                                      context.seed)
            opened = loadgen.open_loop(server.port, paths, draws,
                                       schedule)
            _check(outcome, opened, requests, expected)
            metrics["loadgen.late_max_ms"] = max(
                sample.late for sample in opened.samples) * 1e3

        # The box's speed drifts by tens of percent over seconds, so
        # the untraced and the traced replay alternate in short chunks
        # over the same positions of the sequence; each sees the same
        # weather. The first chunk sizes the others and is discarded.
        chunk = len(checked(loadgen.closed_loop(
            server.port, sequence, context.seconds / 8,
            clients=1)).samples)
        for number in range(TRACE_ROUNDS):
            positions = [(number * chunk + offset) % len(sequence)
                         for offset in range(chunk)]
            plain = checked(loadgen.replay(server.port, sequence,
                                           positions))
            untraced += plain.samples
            untraced_wall += plain.wall
            install()
            try:
                with counters:
                    spanned = checked(loadgen.replay(
                        server.port, sequence, positions,
                        around=lambda: recorder.request(
                            "server.request", layers.SERVER)))
            finally:
                recorder.unwrap_all()
            traced += spanned.samples
            traced_wall += spanned.wall
    count = len(traced)

    # --- server -------------------------------------------------------
    rtts = [sample.latency for sample in traced]
    executes = recorder.per_request_total("server.service.execute")
    metrics["server.search_rtt_ms"] = median(rtts) * 1e3
    metrics["server.latency_p99_ms"] = percentile(rtts, 0.99) * 1e3
    metrics["server.service.execute_ms"] = median(executes) * 1e3
    metrics["server.overhead_ms"] = \
        metrics["server.search_rtt_ms"] - metrics["server.service.execute_ms"]
    if spec.rate is not None:
        metrics["server.queue_wait_ms"] = max(0.0, median(
            [sample.latency for sample in opened.samples]) * 1e3
            - median([sample.latency for sample in untraced]) * 1e3)
    metrics["server.admitted"] = counters["server.admitted"]
    metrics["server.shed"] = counters["server.shed"]
    metrics["server.coalesced"] = counters["server.coalesced"]
    metrics["server.timeouts"] = counters["server.deadline_timeouts"]
    bodies = [json.loads(sample.body) for sample in traced[:len(paths)]]
    metrics.update(layers.http_micro(paths, bodies))

    # --- core.query ---------------------------------------------------
    layers.query_metrics(metrics, recorder, merges)
    narrative = recorder.durations("query.narrative.map")
    metrics["query.narrative.map_us"] = \
        median(narrative) * 1e6 if narrative else 0.0
    phrases = counters["query.narrative.phrases"]
    mapped = sum(counters[f"query.narrative.mapped_{rung}"]
                 for rung in ("exact", "synonym", "parent"))
    metrics["query.narrative.mapped_share"] = \
        mapped / phrases if phrases else 0.0

    # --- core.index / storage / ontology --------------------------------
    layers.cache_metrics(metrics, counters)
    metrics["storage.reads_per_query"] = \
        len(recorder.durations("storage.mmap.read")) / count
    keys = sorted(store.keywords(inputs.STRATEGY))
    metrics.update(layers.store_micro(store, inputs.STRATEGY, keys, "mmap"))
    metrics["storage.mmap.bytes_per_posting"] = layers.bytes_per_posting(
        store_path, store, inputs.STRATEGY)
    metrics.update(layers.ontology_micro(
        engine.terminology, documents,
        [request.text for request in requests]))
    store.close()

    layers.summarize(outcome, recorder, count, untraced_wall, traced_wall)
    return outcome, recorder
