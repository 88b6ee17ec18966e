"""The synchronous serving core: warm engines + breaker-aware search.

:class:`SearchService` owns one warm engine per named corpus and turns
raw shard failures into the serving policy the HTTP layer exposes:

* every request runs under an ambient deadline scope
  (:func:`~repro.core.deadline.deadline_scope`), so deadline awareness
  reaches layers that never see the request -- a
  :class:`~repro.storage.retrying.RetryingStore` stops backing off
  when the *request* is out of time, not just its own budget;
* each shard of the engine (``engine.shard_count``; a bare
  :class:`~repro.core.query.engine.XOntoRankEngine` is one) is guarded
  by a :class:`~repro.server.breaker.CircuitBreaker`; open breakers are
  skipped before any store access, shard ``StorageError`` failures are
  absorbed into a degraded-but-successful
  :class:`~repro.core.query.results.SearchOutcome` and charged to the
  breaker;
* :class:`~repro.core.deadline.DeadlineExceeded` deliberately
  propagates (it is **not** a storage fault -- a slow request must
  not trip a healthy shard's breaker).

The class is synchronous and event-loop-free on purpose: the chaos
acceptance test drives it directly from plain threads, and the asyncio
front-end (:mod:`repro.server.app`) only adds transport concerns on
top.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Iterator

from ..core.deadline import Deadline, deadline_scope
from ..core.query.engine import SearchEngine
from ..core.query.results import SearchOutcome
from ..core.stats import (SERVER_DEGRADED_RESPONSES,
                          SERVER_PARTIAL_RESPONSES, StatsRegistry)
from ..storage.errors import StorageError
from .breaker import CircuitBreaker


class UnknownCorpusError(KeyError):
    """Request named a corpus the service does not hold (HTTP 404)."""


class CorpusHandle:
    """One served corpus: its warm engine plus per-shard breakers."""

    def __init__(self, name: str, engine: SearchEngine,
                 breakers: list[CircuitBreaker]) -> None:
        self.name = name
        self.engine = engine
        self.breakers = breakers

    @property
    def shard_count(self) -> int:
        return len(self.breakers)

    def breaker_states(self) -> list[str]:
        return [breaker.state for breaker in self.breakers]

    def narrative_mapper(self):
        """The engine's one cached mapper, which every narrative
        request of this corpus maps through."""
        return self.engine.narrative_mapper()


class SearchService:
    """Warm, breaker-guarded query execution over named corpora."""

    def __init__(self, stats: StatsRegistry | None = None, *,
                 breaker_threshold: int = 3,
                 breaker_cooldown: float = 2.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.stats = stats if stats is not None else StatsRegistry()
        self._breaker_threshold = breaker_threshold
        self._breaker_cooldown = breaker_cooldown
        self._clock = clock
        self._corpora: dict[str, CorpusHandle] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Corpus registry
    # ------------------------------------------------------------------
    def add_corpus(self, name: str, engine: SearchEngine,
                   ) -> CorpusHandle:
        """Register a warm engine under ``name`` (one breaker per
        shard)."""
        breakers = [CircuitBreaker(self._breaker_threshold,
                                   self._breaker_cooldown,
                                   clock=self._clock, stats=self.stats)
                    for _ in range(engine.shard_count)]
        handle = CorpusHandle(name, engine, breakers)
        with self._lock:
            if name in self._corpora:
                raise ValueError(f"corpus {name!r} already registered")
            self._corpora[name] = handle
        return handle

    def corpus(self, name: str) -> CorpusHandle:
        with self._lock:
            try:
                return self._corpora[name]
            except KeyError:
                raise UnknownCorpusError(name) from None

    def corpora(self) -> Iterator[CorpusHandle]:
        with self._lock:
            handles = list(self._corpora.values())
        return iter(handles)

    # ------------------------------------------------------------------
    # Query execution
    # ------------------------------------------------------------------
    def execute(self, corpus: str, query, k: int | None = None,
                deadline: Deadline | None = None, *,
                narrative: bool = False) -> SearchOutcome:
        """One breaker-guarded, deadline-scoped search.

        ``narrative=True`` is forwarded to
        :meth:`~repro.core.query.engine.SearchEngine.search_outcome`,
        which maps the query string once, before the shard fan-out,
        and annotates the outcome with the mapping provenance.

        Open breakers are skipped before any store access; a shard's
        ``StorageError`` is absorbed (served around) and charged to
        its breaker; every shard that answered records a success.

        Returns the (possibly degraded/partial) outcome; raises
        :class:`UnknownCorpusError` for an unregistered corpus,
        ``ValueError`` for ``narrative=True`` on a corpus without an
        ontology, and :class:`~repro.core.deadline.DeadlineExceeded`
        when the budget expired before anything could be served.
        StorageErrors never escape -- they become degraded shards.
        """
        handle = self.corpus(corpus)
        skip = frozenset(
            shard for shard, breaker in enumerate(handle.breakers)
            if not breaker.allow())
        failed: set[int] = set()
        failed_lock = threading.Lock()

        def on_shard_error(shard: int, error: StorageError) -> bool:
            with failed_lock:
                failed.add(shard)
            handle.breakers[shard].record_failure()
            return True

        with deadline_scope(deadline):
            outcome = handle.engine.search_outcome(
                query, k, narrative=narrative, deadline=deadline,
                skip_shards=skip, on_shard_error=on_shard_error)
        for shard, breaker in enumerate(handle.breakers):
            if shard not in skip and shard not in failed:
                breaker.record_success()
        if outcome.degraded_shards:
            self.stats.increment(SERVER_DEGRADED_RESPONSES)
        if outcome.partial:
            self.stats.increment(SERVER_PARTIAL_RESPONSES)
        return outcome
