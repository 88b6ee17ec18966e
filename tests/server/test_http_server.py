"""HTTP integration: a real ServerApp on a real socket, driven with
``http.client``. Covers the endpoint contract (search parity with the
library, lifecycle endpoints, error statuses), load shedding,
coalescing, deadline 504s, and the graceful drain."""

import asyncio
import json
import threading
import time
from http.client import HTTPConnection

import pytest

from repro.core.config import XRANK
from repro.core.query.engine import XOntoRankEngine
from repro.core.query.results import SearchOutcome
from repro.server import SearchService, ServerApp, ServerConfig

SLOW_DELAY = 0.3


class SlowEngine:
    """A stub corpus whose queries take a fixed wall-clock time --
    the deterministic prop for shed/coalesce/deadline tests. It speaks
    the part of the engine protocol the service calls."""

    shard_count = 1

    def __init__(self, delay: float = SLOW_DELAY) -> None:
        self.delay = delay
        self.calls = 0
        self._lock = threading.Lock()

    def search_outcome(self, query, k=None, *, narrative=False,
                       deadline=None, skip_shards=(),
                       on_shard_error=None):
        with self._lock:
            self.calls += 1
        time.sleep(self.delay)
        if deadline is not None:
            deadline.check("slow engine")
        return SearchOutcome(results=[])


class ServerThread:
    """One ServerApp on an ephemeral port, on a background loop."""

    def __init__(self, service, config: ServerConfig) -> None:
        self.app = ServerApp(service, config)
        self.port: int | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
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
        assert self._started.wait(10), "server failed to start"
        return self

    def stop(self) -> None:
        if self._loop is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(15)
        assert not self._thread.is_alive(), "drain did not finish"

    def request(self, path: str, method: str = "GET",
                timeout: float = 15.0):
        connection = HTTPConnection("127.0.0.1", self.port,
                                    timeout=timeout)
        try:
            connection.request(method, path)
            response = connection.getresponse()
            body = response.read()
            headers = {name.lower(): value
                       for name, value in response.getheaders()}
            return response.status, headers, body
        finally:
            connection.close()

    def get_json(self, path: str):
        status, headers, body = self.request(path)
        return status, headers, json.loads(body)


@pytest.fixture(scope="module")
def engine(figure1_corpus):
    return XOntoRankEngine(figure1_corpus, None, strategy=XRANK)


@pytest.fixture(scope="module")
def slow_engine():
    return SlowEngine()


@pytest.fixture(scope="module")
def server(engine, slow_engine):
    service = SearchService()
    service.add_corpus("default", engine)
    service.add_corpus("slow", slow_engine)
    fixture = ServerThread(service, ServerConfig(
        port=0, max_concurrency=4, max_queue=8,
        default_timeout_ms=5000)).start()
    yield fixture
    fixture.stop()


class TestEndpoints:
    def test_healthz(self, server):
        status, _, body = server.request("/healthz")
        assert (status, body) == (200, b"ok\n")

    def test_readyz(self, server):
        status, _, body = server.request("/readyz")
        assert (status, body) == (200, b"ready\n")

    def test_search_matches_the_library(self, server, engine):
        status, headers, body = server.get_json(
            "/search?q=cancer&k=3")
        assert status == 200
        expected = engine.search("cancer", k=3)
        assert [entry["dewey"] for entry in body["results"]] \
            == [result.dewey.encode() for result in expected]
        assert [entry["score"] for entry in body["results"]] \
            == pytest.approx([result.score for result in expected])
        assert body["partial"] is False
        assert body["degraded_shards"] == []
        assert "x-degraded-shards" not in headers
        assert "x-partial" not in headers

    def test_missing_query_is_400(self, server):
        assert server.request("/search")[0] == 400

    def test_query_without_keywords_is_400(self, server):
        status, _, body = server.get_json("/search?q=%3F%21")
        assert status == 400
        assert "no indexable keywords" in body["error"]

    def test_bad_k_is_400(self, server):
        assert server.request("/search?q=x&k=zero")[0] == 400
        assert server.request("/search?q=x&k=0")[0] == 400

    def test_unknown_route_is_404(self, server):
        assert server.request("/nope")[0] == 404

    def test_unknown_corpus_is_404(self, server):
        assert server.request("/search?q=x&corpus=missing")[0] == 404

    def test_post_is_405(self, server):
        assert server.request("/search?q=x", method="POST")[0] == 405

    def test_metrics_scrape(self, server):
        server.request("/search?q=cancer&k=1")
        status, _, body = server.get_json("/metrics")
        assert status == 200
        assert body["counters"]["server.requests"] >= 1
        assert body["server"]["ready"] is True
        assert body["server"]["corpora"]["default"]["breakers"] \
            == ["closed"]
        assert "server.request_seconds" in body["timers"]
        assert isinstance(body["epoch"], int)

    def test_deadline_maps_to_504(self, server):
        status, _, body = server.get_json(
            "/search?q=timeoutcase&corpus=slow&timeout_ms=50")
        assert status == 504
        assert "deadline" in body["error"]


class TestLoadBehavior:
    def test_load_shedding_answers_429(self, engine, slow_engine):
        service = SearchService()
        service.add_corpus("slow", slow_engine)
        tiny = ServerThread(service, ServerConfig(
            port=0, max_concurrency=1, max_queue=0,
            default_timeout_ms=5000)).start()
        try:
            statuses = {}

            def fire(name: str) -> None:
                statuses[name] = tiny.request(
                    f"/search?q={name}&corpus=slow")[0]

            first = threading.Thread(target=fire, args=("occupier",))
            first.start()
            time.sleep(SLOW_DELAY / 3)  # the worker is busy now
            status, headers, _ = tiny.request(
                "/search?q=distinct&corpus=slow")
            first.join()
            assert statuses["occupier"] == 200
            assert status == 429
            assert "retry-after" in headers
        finally:
            tiny.stop()

    def test_identical_queries_coalesce(self, server, slow_engine):
        before = slow_engine.calls
        metrics_before = server.get_json("/metrics")[2]["counters"]
        results = {}

        def fire(name: str) -> None:
            results[name] = server.request(
                "/search?q=popular&corpus=slow&k=7")

        threads = [threading.Thread(target=fire, args=(f"t{i}",))
                   for i in range(3)]
        threads[0].start()
        time.sleep(SLOW_DELAY / 3)  # leader is definitely in flight
        for thread in threads[1:]:
            thread.start()
        for thread in threads:
            thread.join()
        assert {status for status, _, _ in results.values()} == {200}
        assert slow_engine.calls == before + 1  # one evaluation
        counters = server.get_json("/metrics")[2]["counters"]
        assert counters["server.coalesced"] \
            >= metrics_before.get("server.coalesced", 0) + 2


class TestDrain:
    def test_drain_finishes_inflight_then_closes(self, engine):
        service = SearchService()
        service.add_corpus("slow", SlowEngine(delay=0.5))
        fixture = ServerThread(service, ServerConfig(
            port=0, max_concurrency=2, max_queue=2,
            default_timeout_ms=5000, drain_grace=5.0)).start()
        port = fixture.port
        outcome = {}

        def slow_request() -> None:
            outcome["response"] = fixture.request(
                "/search?q=inflight&corpus=slow")

        worker = threading.Thread(target=slow_request)
        worker.start()
        time.sleep(0.15)  # request is in flight
        fixture.stop()    # drain must wait for it
        worker.join()
        assert outcome["response"][0] == 200
        with pytest.raises(OSError):
            HTTPConnection("127.0.0.1", port, timeout=1).request(
                "GET", "/healthz")


class TestNarrativeParam:
    @pytest.fixture(scope="class")
    def onto_server(self, figure1_corpus, core_ontology):
        service = SearchService()
        service.add_corpus("default",
                           XOntoRankEngine(figure1_corpus, core_ontology))
        fixture = ServerThread(service, ServerConfig(
            port=0, max_concurrency=4, max_queue=8,
            default_timeout_ms=5000)).start()
        yield fixture
        fixture.stop()

    def test_narrative_param_maps_and_annotates(self, onto_server,
                                                figure1_corpus,
                                                core_ontology):
        status, _, body = onto_server.get_json(
            "/search?q=asthma+and+medications&narrative=1&k=3")
        assert status == 200
        reference = XOntoRankEngine(figure1_corpus, core_ontology)
        expected = reference.search_outcome("asthma and medications", k=3,
                                            narrative=True)
        assert [entry["dewey"] for entry in body["results"]] \
            == [result.dewey.encode() for result in expected.results]
        assert body["narrative"]["mapped_query"] \
            == str(expected.narrative.query)
        methods = {entry["method"]
                   for entry in body["narrative"]["mappings"]}
        assert "exact" in methods

    def test_narrative_off_is_byte_identical(self, onto_server,
                                             figure1_corpus,
                                             core_ontology):
        status, _, body = onto_server.get_json("/search?q=asthma&k=3")
        assert status == 200
        assert "narrative" not in body
        plain = XOntoRankEngine(figure1_corpus, core_ontology)
        assert [entry["dewey"] for entry in body["results"]] \
            == [result.dewey.encode()
                for result in plain.search("asthma", k=3)]

    def test_narrative_without_ontology_is_400(self, server):
        # The module server's default corpus runs bare XRANK -- no
        # terminology, so the mapping is unavailable, not silent.
        status, _, body = server.get_json(
            "/search?q=asthma&narrative=1")
        assert status == 400
        assert "narrative" in body["error"]
