"""Lightweight runtime instrumentation (counters + timers for hot paths).

The production north star needs the hot paths to be *observable*: the
bounded DIL cache (:mod:`repro.core.cache`) and the segment lifecycle
(:mod:`repro.core.index.segments`) report what they did through a
:class:`StatsRegistry` -- a thread-safe named-instrument map -- so the
CLI and the benchmarks can print hit rates and segment counts without
reaching into private state.

Two instrument kinds, both one lock acquisition per update, both safe
to share across the shard fan-out threads of a federated engine or the
request threads of a server front-end:

* **counters** -- named monotonic integers (:meth:`increment`, plus
  :meth:`increment_many` to land a whole batch under one acquisition);
* **timers** -- deterministic log-bucket histograms of durations
  (:meth:`observe` for a raw sample, :meth:`time` as a context
  manager), summarized as count/total/min/max/p50/p95/p99 by
  :meth:`timer`. The clock is injectable
  (:class:`~repro.core.obs.instruments.ManualClock`), so timer tests
  never touch wall-clock.

Span-level tracing lives one layer up in :mod:`repro.core.obs.tracer`;
a :class:`~repro.core.obs.tracer.Tracer` attached to a registry records
every finished span's duration here, unifying the two views.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Mapping

from .obs.instruments import (Clock, EMPTY_TIMER, LogBucketHistogram,
                              TimerStats, default_clock)

# ----------------------------------------------------------------------
# Canonical counter names of the resilience layer. One shared registry
# (usually the engine's) collects all of them, so a single
# ``render()`` line shows retries, degraded loads and injected faults
# side by side in ``--verbose`` CLI output.
# ----------------------------------------------------------------------
#: Transient storage faults observed (one per failed attempt).
RETRY_ATTEMPTS = "storage.retry.attempts"
#: Operations that succeeded after at least one retry.
RETRY_RECOVERIES = "storage.retry.recoveries"
#: Operations that exhausted their retry budget and re-raised.
RETRY_GIVEUPS = "storage.retry.giveups"
#: Posting lists rebuilt from the corpus after a load failure.
FALLBACK_REBUILDS = "engine.fallback.rebuilds"
#: Whole stores discarded (and served from the corpus) after failing
#: validation in degrade mode.
FALLBACK_STORE_DISCARDS = "engine.fallback.store_discards"
#: Successful store-metadata validations on load.
INTEGRITY_VALIDATIONS = "engine.integrity.validations"
#: Store-metadata validations that raised.
INTEGRITY_FAILURES = "engine.integrity.failures"
#: Documents the bounded top-k query mode skipped without merging
#: (missing a keyword, or upper-bounded below the heap minimum).
TOPK_DOCS_SKIPPED = "query.topk.docs_skipped"
#: Bounded-heap replacements during top-k queries (a result displaced
#: the then-worst of the k held entries).
TOPK_HEAP_EVICTIONS = "query.topk.heap_evictions"
#: Faults injected by :class:`~repro.storage.faults.FaultInjectingStore`.
FAULTS_TRANSIENT = "faults.injected.transient"
FAULTS_CORRUPTION = "faults.injected.corruption"
FAULTS_LATENCY = "faults.injected.latency"
FAULTS_CRASHES = "faults.injected.crashes"
#: Live (query-visible) segments of an incrementally grown index -- a
#: gauge maintained by delta increments (appends +1, compaction
#: collapses the count back to 1).
SEGMENTS_LIVE = "index.segments_live"
#: Tombstoned documents still held by some segment -- a gauge; drops
#: back to zero at compaction.
TOMBSTONES = "index.tombstones"
#: Documents appended across the lifecycle's lifetime.
APPEND_DOCS = "index.append.docs"
#: Keywords whose posting lists an append actually built.
APPEND_KEYWORDS_BUILT = "index.append.keywords_built"
#: Keywords an append proved untouched by the new documents and
#: skipped without building.
APPEND_KEYWORDS_SKIPPED = "index.append.keywords_skipped"
#: Segment compactions run to completion.
COMPACTIONS = "index.compactions"
#: Retry loops cut short because the next backoff sleep would have
#: overshot the caller's time budget or ambient request deadline.
RETRY_BUDGET_EXHAUSTED = "storage.retry.budget_exhausted"
#: Posting lists served as *lazy* compact blocks (zero-copy, postings
#: decoded per document on demand) from a block-capable store.
CODEC_LAZY_LISTS = "storage.codec.lazy_lists"
#: Posting lists a block-capable store could only serve eagerly (raw
#: records: lists the compact codec cannot represent).
CODEC_RAW_FALLBACKS = "storage.codec.raw_fallbacks"
#: OntoScore expansions served from the persisted expansion cache.
ONTOLOGY_CACHE_HITS = "ontology.cache.hits"
#: OntoScore expansions computed because the cache had no entry
#: (the expansion is written back afterwards).
ONTOLOGY_CACHE_MISSES = "ontology.cache.misses"
#: Cache generations discarded because the store's descriptor
#: (ontology fingerprint, strategy, expansion parameters) did not
#: match the attaching computation.
ONTOLOGY_CACHE_INVALIDATIONS = "ontology.cache.invalidations"

# ----------------------------------------------------------------------
# Narrative query front-end (repro.core.query.narrative).
# ----------------------------------------------------------------------
#: Narrative texts mapped into keyword queries.
NARRATIVE_QUERIES = "query.narrative.queries"
#: Candidate clinical phrases considered (in-vocabulary spans plus
#: out-of-vocabulary leftover runs).
NARRATIVE_PHRASES = "query.narrative.phrases"
#: Phrases whose text equals a concept's preferred term.
NARRATIVE_MAPPED_EXACT = "query.narrative.mapped_exact"
#: Phrases that matched a concept through a synonym.
NARRATIVE_MAPPED_SYNONYM = "query.narrative.mapped_synonym"
#: Out-of-vocabulary phrases rescued by the parent-term fallback (the
#: emitted keyword names an ancestor concept of the phrase's token
#: candidates).
NARRATIVE_MAPPED_PARENT = "query.narrative.mapped_parent"
#: Phrases no concept could be found for; their content tokens are
#: kept as plain keywords (never silently dropped).
NARRATIVE_KEYWORD_FALLBACKS = "query.narrative.keyword_fallbacks"
#: Mapped concepts trimmed by the specificity cap (``max_keywords``).
NARRATIVE_CONCEPTS_DROPPED = "query.narrative.concepts_dropped"

# ----------------------------------------------------------------------
# Serving-layer counters (repro.server; see docs/SERVING.md). One
# registry per server process collects them, and /metrics dumps the
# whole registry as JSON.
# ----------------------------------------------------------------------
#: Search requests that reached the /search route (leaders + followers).
SERVER_REQUESTS = "server.requests"
#: Search requests admitted to the worker pool (single-flight leaders).
SERVER_ADMITTED = "server.admitted"
#: Search requests rejected with 429 because every concurrency token
#: and queue slot was taken (load shedding).
SERVER_SHED = "server.shed"
#: Search requests that coalesced onto an identical in-flight query
#: (single-flight followers; they consume no worker and no token).
SERVER_COALESCED = "server.coalesced"
#: Responses served with at least one shard degraded (skipped by an
#: open circuit breaker or dropped after a storage failure).
SERVER_DEGRADED_RESPONSES = "server.degraded_responses"
#: 200 responses flagged partial: the deadline expired mid-merge and
#: the bounded evaluation returned what it had.
SERVER_PARTIAL_RESPONSES = "server.partial_responses"
#: Requests answered 504 because the deadline expired before any
#: servable result existed.
SERVER_DEADLINE_TIMEOUTS = "server.deadline_timeouts"
#: Unexpected handler exceptions answered 500.
SERVER_ERRORS = "server.errors"
#: Shard search failures recorded against a circuit breaker.
SERVER_BREAKER_FAILURES = "server.breaker.failures"
#: Breaker transitions closed/half-open -> open.
SERVER_BREAKER_TRIPS = "server.breaker.trips"
#: Probe requests allowed through a half-open breaker.
SERVER_BREAKER_PROBES = "server.breaker.probes"
#: Breaker transitions half-open -> closed (service recovered).
SERVER_BREAKER_RESETS = "server.breaker.resets"
#: Requests still in flight when a drain started and finished cleanly.
SERVER_DRAINED_INFLIGHT = "server.drained_inflight"
#: End-to-end /search leader latency (admission to response), as a
#: timer histogram (p50/p95/p99 on /metrics).
SERVER_REQUEST_SECONDS = "server.request_seconds"


class _TimeContext:
    """Context manager recording one elapsed duration into a timer."""

    __slots__ = ("_registry", "_name", "_started")

    def __init__(self, registry: "StatsRegistry", name: str) -> None:
        self._registry = registry
        self._name = name
        self._started = 0.0

    def __enter__(self) -> "_TimeContext":
        self._started = self._registry.clock()
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self._registry.observe(self._name,
                               self._registry.clock() - self._started)
        return False


@dataclass(frozen=True)
class RegistrySnapshot:
    """One mutually consistent view of a registry: counters and timers
    captured under a single lock acquisition, stamped with the epoch
    they belong to. This is what ``/metrics`` serves -- a scrape never
    mixes counters from one epoch with timers from the next."""

    epoch: int
    counters: dict[str, int]
    timers: dict[str, TimerStats]


class StatsRegistry:
    """A thread-safe map of named counters and timer histograms.

    The registry is **epoched**: :meth:`reset` (and the atomic
    :meth:`drain`) advance a monotonic epoch counter, so a consumer
    appending periodic :meth:`snapshot_all` scrapes can tell a counter
    that went backwards because of a reset from one that was corrupted.
    """

    def __init__(self, clock: Clock | None = None) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._timers: dict[str, LogBucketHistogram] = {}
        self._epoch = 0
        #: The duration source for :meth:`time`; inject a
        #: :class:`~repro.core.obs.instruments.ManualClock` in tests.
        self.clock = clock if clock is not None else default_clock()

    # ------------------------------------------------------------------
    def increment(self, name: str, amount: int = 1) -> int:
        """Add ``amount`` to counter ``name``; returns the new value.

        One lock acquisition per call -- in a tight loop that bumps
        several counters, prefer :meth:`increment_many`.
        """
        with self._lock:
            value = self._counters.get(name, 0) + amount
            self._counters[name] = value
            return value

    def increment_many(self, amounts: Mapping[str, int]) -> None:
        """Add every ``name -> amount`` under one lock acquisition.

        The batch API for hot loops (e.g. a query's top-k counters)
        where per-counter locking would otherwise dominate: N counters
        cost one acquisition instead of N.
        """
        with self._lock:
            for name, amount in amounts.items():
                self._counters[name] = self._counters.get(name, 0) + amount

    def value(self, name: str) -> int:
        """Current value of counter ``name`` (0 when never touched)."""
        with self._lock:
            return self._counters.get(name, 0)

    def snapshot(self) -> dict[str, int]:
        """A point-in-time copy of every counter."""
        with self._lock:
            return dict(self._counters)

    @property
    def epoch(self) -> int:
        """Number of resets this registry has seen (0 when fresh)."""
        with self._lock:
            return self._epoch

    def snapshot_all(self) -> RegistrySnapshot:
        """Counters *and* timers captured under one lock acquisition.

        Unlike calling :meth:`snapshot` and :meth:`timers` separately,
        the two maps are guaranteed to belong to the same instant and
        the same epoch -- a concurrent writer (a live build, a request
        thread) can never land an update between the two halves of the
        scrape.
        """
        with self._lock:
            return RegistrySnapshot(
                epoch=self._epoch,
                counters=dict(self._counters),
                timers={name: histogram.snapshot()
                        for name, histogram in self._timers.items()})

    def drain(self) -> RegistrySnapshot:
        """Atomic snapshot-then-reset: the returned snapshot holds
        exactly the updates of the ending epoch -- summing drained
        counters across epochs loses nothing and double-counts nothing
        even with writers running concurrently."""
        with self._lock:
            snapshot = RegistrySnapshot(
                epoch=self._epoch,
                counters=dict(self._counters),
                timers={name: histogram.snapshot()
                        for name, histogram in self._timers.items()})
            self._counters.clear()
            self._timers.clear()
            self._epoch += 1
            return snapshot

    # ------------------------------------------------------------------
    def observe(self, name: str, seconds: float) -> None:
        """Record one duration sample into timer ``name``."""
        with self._lock:
            histogram = self._timers.get(name)
            if histogram is None:
                histogram = self._timers[name] = LogBucketHistogram()
            histogram.record(seconds)

    def time(self, name: str) -> _TimeContext:
        """Context manager timing its body into timer ``name``::

            with registry.time("query.dil_merge"):
                ...
        """
        return _TimeContext(self, name)

    def timer(self, name: str) -> TimerStats:
        """Summary of timer ``name`` (the empty summary when untouched)."""
        with self._lock:
            histogram = self._timers.get(name)
            if histogram is None:
                return EMPTY_TIMER
            return histogram.snapshot()

    def timers(self) -> dict[str, TimerStats]:
        """Point-in-time summaries of every timer."""
        with self._lock:
            return {name: histogram.snapshot()
                    for name, histogram in self._timers.items()}

    def reset(self) -> None:
        """Zero every counter and timer and advance the epoch
        (between benchmark rounds, or a metrics-scrape rotation)."""
        with self._lock:
            self._counters.clear()
            self._timers.clear()
            self._epoch += 1

    # ------------------------------------------------------------------
    def render(self, prefix: str | None = None) -> str:
        """One ``name=value`` line, sorted by name, for CLI output."""
        counters = self.snapshot()
        if prefix is not None:
            counters = {name: value for name, value in counters.items()
                        if name.startswith(prefix)}
        return " ".join(f"{name}={value}"
                        for name, value in sorted(counters.items()))

    def render_timers(self, prefix: str | None = None) -> str:
        """One line per timer (sorted), empty string when none match."""
        timers = self.timers()
        if prefix is not None:
            timers = {name: stats for name, stats in timers.items()
                      if name.startswith(prefix)}
        return "\n".join(f"{name}: {timers[name].render()}"
                         for name in sorted(timers))


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time view of one cache's counters."""

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int | None

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when idle)."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def render(self) -> str:
        capacity = "unbounded" if self.capacity is None else self.capacity
        return (f"hits={self.hits} misses={self.misses} "
                f"evictions={self.evictions} size={self.size} "
                f"capacity={capacity} hit_rate={self.hit_rate:.2f}")
