"""Serving-layer benchmark: a live server under closed- and open-loop
load, plus a chaos round.

Four measurements, recorded to ``results/serving.txt``:

* **warm vs cold** -- p50 of a warm served query against the wall time
  of a one-shot ``python -m repro search`` process (the pre-serving
  workflow pays interpreter start, corpus parse and index construction
  on every query; the server pays them once at boot);
* **closed loop** -- T workers with distinct queries over keep-alive
  connections: p50/p99 latency and sustained QPS;
* **open loop** -- a burst far beyond ``concurrency + queue``: the
  measured shed (429) rate, demonstrating bounded admission instead of
  latency collapse;
* **coalescing** -- one hot query fired by many concurrent clients:
  measured single-flight hit rate (the acceptance bar is >= 50%);
* **chaos mode** -- a federated 2-shard server whose shard 1 store
  starts failing 100% mid-load: degraded (``X-Degraded-Shards``)
  responses are counted and *zero* non-deadline 5xx are tolerated.
"""

from __future__ import annotations

import asyncio
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.client import HTTPConnection

import pytest

from repro.core.config import XRANK, XOntoRankConfig
from repro.core.query.engine import XOntoRankEngine
from repro.core.query.federated import FederatedEngine
from repro.ontology.io import save_ontology
from repro.server import SearchService, ServerApp, ServerConfig
from repro.storage.errors import TransientStorageError
from repro.storage.interface import IndexStore
from repro.storage.memory_store import MemoryStore
from repro.xmldoc.serializer import serialize

from conftest import record_result

QUERIES = ["asthma", "chest pain", "aspirin", "myocardial infarction",
           "blood pressure", "heart murmur", "fever", "amiodarone"]


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
class ServerThread:
    """One ServerApp on an ephemeral port, on a background loop."""

    def __init__(self, service, config: ServerConfig) -> None:
        self.app = ServerApp(service, config)
        self.port: int | None = None
        self._loop = None
        self._stop = None
        self._started = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        await self.app.start()
        self.port = self.app.bound_port
        self.app.mark_ready()
        self._started.set()
        await self._stop.wait()
        await self.app.drain()

    def start(self) -> "ServerThread":
        self._thread.start()
        assert self._started.wait(30)
        return self

    def stop(self) -> None:
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(30)

    def get(self, path: str,
            connection: HTTPConnection | None = None):
        own = connection is None
        if connection is None:
            connection = HTTPConnection("127.0.0.1", self.port,
                                        timeout=30)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            body = response.read()
            headers = {name.lower(): value
                       for name, value in response.getheaders()}
            return response.status, headers, body
        finally:
            if own:
                connection.close()

    def metrics(self) -> dict:
        return json.loads(self.get("/metrics")[2])


def closed_loop(server: ServerThread, workers: int, rounds: int,
                corpus: str = "default"):
    """Each worker owns a keep-alive connection and a distinct query
    mix; returns (latencies_seconds, wall_seconds, responses)."""
    latencies: list[float] = []
    lock = threading.Lock()
    statuses: list[int] = []

    def worker(worker_id: int) -> None:
        connection = HTTPConnection("127.0.0.1", server.port,
                                    timeout=30)
        mine: list[float] = []
        mine_status: list[int] = []
        try:
            for round_id in range(rounds):
                query = QUERIES[(worker_id + round_id) % len(QUERIES)]
                started = time.perf_counter()
                status, _, _ = server.get(
                    f"/search?q={query.replace(' ', '+')}"
                    f"&k=10&corpus={corpus}", connection)
                mine.append(time.perf_counter() - started)
                mine_status.append(status)
        finally:
            connection.close()
        with lock:
            latencies.extend(mine)
            statuses.extend(mine_status)

    wall_started = time.perf_counter()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(worker, range(workers)))
    wall = time.perf_counter() - wall_started
    return latencies, wall, statuses


def percentile(samples: list[float], fraction: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1,
                max(0, int(round(fraction * (len(ordered) - 1)))))
    return ordered[index]


# ----------------------------------------------------------------------
# The benchmark
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def data_dir(tmp_path_factory, bench_corpus, bench_ontology):
    """The corpus persisted as a CLI-loadable data directory (for the
    one-shot-process comparison)."""
    root = tmp_path_factory.mktemp("serving_data")
    save_ontology(bench_ontology, str(root / "ontology"))
    corpus_dir = root / "corpus"
    corpus_dir.mkdir()
    for document in bench_corpus:
        path = corpus_dir / f"patient-{document.doc_id:04d}.xml"
        path.write_text(serialize(document, indent="  "),
                        encoding="utf-8")
    return root


def test_serving_throughput_and_degradation(quick_mode, bench_corpus,
                                            bench_ontology, data_dir):
    workers = 4 if quick_mode else 8
    rounds = 3 if quick_mode else 25
    burst = 24 if quick_mode else 96
    cli_runs = 1 if quick_mode else 3
    lines = ["SERVING -- warm server vs one-shot CLI, load shedding, "
             "coalescing, chaos", ""]

    # ------------------------------------------------------------------
    # Warm server: closed-loop latency + QPS
    # ------------------------------------------------------------------
    engine = XOntoRankEngine(bench_corpus, bench_ontology,
                             strategy="relationships")
    for query in QUERIES:  # warm every workload DIL once
        engine.search(query, k=10)
    service = SearchService(stats=engine.stats)
    service.add_corpus("default", engine)
    server = ServerThread(service, ServerConfig(
        port=0, max_concurrency=4, max_queue=8,
        default_timeout_ms=10_000)).start()
    try:
        latencies, wall, statuses = closed_loop(server, workers, rounds)
        assert set(statuses) == {200}
        warm_p50 = percentile(latencies, 0.50)
        warm_p99 = percentile(latencies, 0.99)
        qps = len(latencies) / wall
        lines += [
            f"closed loop: {workers} workers x {rounds} rounds "
            f"({len(latencies)} requests, keep-alive)",
            f"  warm p50 {warm_p50 * 1e3:8.2f} ms   "
            f"p99 {warm_p99 * 1e3:8.2f} ms   "
            f"throughput {qps:7.1f} QPS", ""]

        # --------------------------------------------------------------
        # One-shot CLI process for the same query (the old workflow)
        # --------------------------------------------------------------
        cli_times = []
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            "src")
        for _ in range(cli_runs):
            started = time.perf_counter()
            completed = subprocess.run(
                [sys.executable, "-m", "repro", "search",
                 "--data", str(data_dir), "asthma", "-k", "10"],
                capture_output=True, env=environment, timeout=600)
            cli_times.append(time.perf_counter() - started)
            assert completed.returncode == 0, completed.stderr
        cli_p50 = statistics.median(cli_times)
        speedup = cli_p50 / warm_p50
        lines += [
            f"one-shot CLI (same query, {cli_runs} run(s)): "
            f"p50 {cli_p50:8.2f} s",
            f"  warm-server speedup: {speedup:8.0f}x "
            f"(acceptance bar: >= 10x)", ""]
        assert speedup >= 10.0

        # --------------------------------------------------------------
        # Open loop: burst far past capacity -> measured shed rate
        # --------------------------------------------------------------
        def blast(index: int) -> int:
            # Distinct q per request so single-flight cannot absorb it.
            return server.get(f"/search?q=burst{index}+asthma&k=5")[0]

        with ThreadPoolExecutor(max_workers=burst) as pool:
            burst_statuses = list(pool.map(blast, range(burst)))
        shed = burst_statuses.count(429)
        served = burst_statuses.count(200)
        assert shed + served == len(burst_statuses)  # nothing else
        shed_rate = shed / len(burst_statuses)
        lines += [
            f"open loop: burst of {burst} concurrent distinct queries "
            f"into capacity 12 (4 workers + 8 queued)",
            f"  served {served}   shed(429) {shed}   "
            f"shed rate {shed_rate:6.1%}", ""]

        # --------------------------------------------------------------
        # Coalescing: one hot query, many concurrent clients
        # --------------------------------------------------------------
        before = server.metrics()["counters"]
        hot = 16 if quick_mode else 32

        def hot_query(_index: int) -> int:
            return server.get("/search?q=hot+asthma+panel&k=10")[0]

        with ThreadPoolExecutor(max_workers=hot) as pool:
            hot_statuses = list(pool.map(hot_query, range(hot)))
        after = server.metrics()["counters"]
        coalesced = (after.get("server.coalesced", 0)
                     - before.get("server.coalesced", 0))
        hit_rate = coalesced / hot
        lines += [
            f"coalescing: {hot} concurrent identical queries",
            f"  evaluations {hot - coalesced}   "
            f"coalesced {coalesced}   hit rate {hit_rate:6.1%} "
            f"(acceptance bar: >= 50%)", ""]
        assert set(hot_statuses) == {200}
        assert hit_rate >= 0.5
    finally:
        server.stop()

    # ------------------------------------------------------------------
    # Chaos mode: fault-inject shard 1 mid-load
    # ------------------------------------------------------------------
    shards = 2
    stores = [MemoryStore() for _ in range(shards)]
    builder = FederatedEngine(bench_corpus, None, strategy=XRANK,
                              shards=shards)
    builder.build_index(vocabulary={query.split()[0]
                                    for query in QUERIES}, stores=stores)

    class ChaosStore(IndexStore):
        """Full-delegation store whose reads fail while ``failing``."""

        def __init__(self, inner):
            self._inner = inner
            self.failing = False

        def _guard(self):
            if self.failing:
                raise TransientStorageError("chaos: shard store down")

        def get_posting_block(self, strategy, keyword):
            self._guard()
            return self._inner.get_posting_block(strategy, keyword)

        def keywords(self, strategy):
            self._guard()
            return self._inner.keywords(strategy)

        def posting_count(self, strategy, keyword):
            self._guard()
            return self._inner.posting_count(strategy, keyword)

        def get_document(self, doc_id):
            self._guard()
            return self._inner.get_document(doc_id)

        def document_ids(self):
            self._guard()
            return self._inner.document_ids()

        def get_metadata(self, key, default=None):
            self._guard()
            return self._inner.get_metadata(key, default)

        def metadata_keys(self):
            self._guard()
            return self._inner.metadata_keys()

        def put_postings_many(self, strategy, items):
            self._inner.put_postings_many(strategy, items)

        def put_document(self, doc_id, xml_text):
            self._inner.put_document(doc_id, xml_text)

        def delete_document(self, doc_id):
            self._inner.delete_document(doc_id)

        def put_metadata(self, key, value):
            self._inner.put_metadata(key, value)

        def close(self):
            self._inner.close()

    fed = FederatedEngine(
        bench_corpus, None, strategy=XRANK, shards=shards,
        config=XOntoRankConfig(dil_cache_capacity=0))
    toggle = ChaosStore(stores[1])
    fed.attach_read_stores([stores[0], toggle])
    chaos_service = SearchService(stats=fed.stats,
                                  breaker_threshold=3,
                                  breaker_cooldown=0.5)
    chaos_service.add_corpus("default", fed)
    chaos_server = ServerThread(chaos_service, ServerConfig(
        port=0, max_concurrency=4, max_queue=16,
        default_timeout_ms=10_000)).start()
    try:
        healthy, _, _ = closed_loop(chaos_server, workers, rounds)
        toggle.failing = True  # mid-load: shard 1 drops dead

        degraded = 0
        five_hundreds = 0
        chaos_latencies: list[float] = []
        lock = threading.Lock()

        def chaos_worker(worker_id: int) -> None:
            nonlocal degraded, five_hundreds
            connection = HTTPConnection("127.0.0.1",
                                        chaos_server.port, timeout=30)
            try:
                for round_id in range(rounds):
                    query = QUERIES[(worker_id + round_id)
                                    % len(QUERIES)].split()[0]
                    started = time.perf_counter()
                    status, headers, _ = chaos_server.get(
                        f"/search?q={query}&k=10", connection)
                    elapsed = time.perf_counter() - started
                    with lock:
                        chaos_latencies.append(elapsed)
                        if status >= 500:
                            five_hundreds += 1
                        if headers.get("x-degraded-shards"):
                            degraded += 1
            finally:
                connection.close()

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(chaos_worker, range(workers)))

        toggle.failing = False
        time.sleep(0.6)  # one breaker cooldown
        status, headers, _ = chaos_server.get("/search?q=asthma&k=10")
        recovered = (status == 200
                     and not headers.get("x-degraded-shards"))
        counters = chaos_server.metrics()["counters"]
        lines += [
            f"chaos mode: shard 1/{shards} failing 100% under "
            f"{workers}x{rounds} load (federated, read-through, "
            f"cache disabled)",
            f"  degraded responses {degraded}   "
            f"non-deadline 5xx {five_hundreds}   "
            f"p50 during chaos "
            f"{percentile(chaos_latencies, 0.5) * 1e3:.2f} ms",
            f"  breaker trips "
            f"{counters.get('server.breaker.trips', 0)}   "
            f"resets {counters.get('server.breaker.resets', 0)}   "
            f"full fidelity after cooldown: "
            f"{'yes' if recovered else 'NO'}", ""]
        assert five_hundreds == 0
        assert degraded >= 1
        assert recovered
        assert len(healthy) == workers * rounds
    finally:
        chaos_server.stop()

    record_result("serving", "\n".join(lines) + "\n")
