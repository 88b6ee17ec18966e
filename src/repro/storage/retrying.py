"""Retry decorator for transient storage faults.

:class:`RetryingStore` wraps any :class:`~repro.storage.interface.IndexStore`
and retries operations that raise
:class:`~repro.storage.errors.TransientStorageError` -- the taxonomy's
"try again" class, e.g. SQLite's ``database is locked`` under a
concurrent writer -- with bounded exponential backoff and
*deterministic* jitter (a seeded PRNG, so a test run with the same
fault pattern sleeps the same schedule every time). Anything outside
the transient class (corruption, incompatibility, plain errors)
propagates immediately: retrying a corrupt file only wastes the
caller's latency budget.

Counters land in a :class:`~repro.core.stats.StatsRegistry` under the
``storage.retry.*`` names so the CLI's ``--verbose`` output shows how
hard the store had to work.

**Time budgets.** Unbounded, retrying can sleep long past the point
where the caller still wants an answer -- the worst case
(``max_attempts=4``) is ~0.35 s of pure backoff per operation, which a
100 ms request deadline cannot survive even once. Two mechanisms bound
it:

* an explicit per-operation ``budget`` (seconds): sleeps never push
  one operation's total elapsed time past it;
* the **ambient request deadline** of
  :func:`repro.core.deadline.current_deadline`, published by the
  serving layer around each request: a backoff sleep the deadline
  could not survive is skipped and the transient error re-raised
  immediately, leaving the caller its remaining milliseconds to
  degrade instead of sleeping through them.

Either cut-short re-raises the *original* transient error and counts
under ``storage.retry.budget_exhausted`` (in addition to the ordinary
give-up counter).
"""

from __future__ import annotations

import random
import time
from typing import Callable, Iterable, Iterator, TypeVar

from ..core.deadline import current_deadline
from ..core.obs.tracer import NULL_TRACER
from ..core.stats import (RETRY_ATTEMPTS, RETRY_BUDGET_EXHAUSTED,
                          RETRY_GIVEUPS, RETRY_RECOVERIES, StatsRegistry)
from .codec import PostingBlock
from .errors import TransientStorageError
from .interface import IndexStore

Result = TypeVar("Result")


class RetryingStore(IndexStore):
    """Bounded-backoff retry wrapper around any :class:`IndexStore`."""

    def __init__(self, inner: IndexStore, max_attempts: int = 4,
                 base_delay: float = 0.05, max_delay: float = 2.0,
                 jitter: float = 0.25, seed: int = 0,
                 stats: StatsRegistry | None = None,
                 sleep: Callable[[float], None] = time.sleep,
                 tracer=None, budget: float | None = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if base_delay < 0 or max_delay < 0:
            raise ValueError("delays must be non-negative")
        if jitter < 0:
            raise ValueError("jitter must be non-negative")
        if budget is not None and budget < 0:
            raise ValueError("budget must be None or non-negative")
        self._inner = inner
        self._max_attempts = max_attempts
        self._base_delay = base_delay
        self._max_delay = max_delay
        self._jitter = jitter
        self._random = random.Random(seed)
        self._stats = stats if stats is not None else StatsRegistry()
        self._sleep = sleep
        self._budget = budget
        self._clock = clock
        self.tracer = tracer if tracer is not None else NULL_TRACER

    # ------------------------------------------------------------------
    @property
    def inner(self) -> IndexStore:
        return self._inner

    @property
    def registry(self) -> StatsRegistry:
        return self._stats

    def _time_allowance(self, started: float) -> float | None:
        """Seconds of sleeping this operation may still afford, or
        ``None`` when neither a budget nor an ambient deadline bounds
        it. The binding constraint wins (the minimum)."""
        allowance: float | None = None
        if self._budget is not None:
            allowance = self._budget - (self._clock() - started)
        deadline = current_deadline()
        if deadline is not None:
            remaining = deadline.remaining()
            allowance = (remaining if allowance is None
                         else min(allowance, remaining))
        return allowance

    def _retry(self, call: Callable[[], Result]) -> Result:
        started = self._clock()
        delay = self._base_delay
        for attempt in range(1, self._max_attempts + 1):
            try:
                result = call()
            except TransientStorageError:
                self._stats.increment(RETRY_ATTEMPTS)
                if attempt == self._max_attempts:
                    self._stats.increment(RETRY_GIVEUPS)
                    raise
                pause = min(delay, self._max_delay)
                pause *= 1.0 + self._jitter * self._random.random()
                allowance = self._time_allowance(started)
                if allowance is not None and pause >= allowance:
                    # Sleeping would overshoot the caller's window:
                    # hand back the remaining time instead of burning
                    # it on a backoff the caller can't wait out.
                    self._stats.increment(RETRY_BUDGET_EXHAUSTED)
                    self._stats.increment(RETRY_GIVEUPS)
                    raise
                self._sleep(pause)
                delay *= 2.0
            else:
                if attempt > 1:
                    self._stats.increment(RETRY_RECOVERIES)
                return result
        raise AssertionError("unreachable")  # pragma: no cover

    # ------------------------------------------------------------------
    def put_postings_many(
            self, strategy: str,
            items: Iterable[tuple[str, bytes | None]]) -> None:
        # One retried call for the whole batch, so the inner store still
        # lands it as one transaction; materialized so a retry replays
        # every item, not what an exhausted generator has left.
        batch = list(items)
        self._retry(lambda: self._inner.put_postings_many(strategy, batch))

    def get_posting_block(self, strategy: str, keyword: str,
                          ) -> PostingBlock | None:
        # The span covers every attempt and each backoff sleep, so the
        # profile shows what a flaky backend really costs the caller.
        with self.tracer.span("storage.read", keyword=keyword):
            return self._retry(
                lambda: self._inner.get_posting_block(strategy, keyword))

    def keywords(self, strategy: str) -> Iterator[str]:
        # Materialized under retry: a generator could fault mid-stream,
        # after items were already consumed.
        return iter(self._retry(
            lambda: list(self._inner.keywords(strategy))))

    def posting_count(self, strategy: str, keyword: str) -> int:
        return self._retry(
            lambda: self._inner.posting_count(strategy, keyword))

    # ------------------------------------------------------------------
    def put_document(self, doc_id: int, xml_text: str) -> None:
        self._retry(lambda: self._inner.put_document(doc_id, xml_text))

    def put_documents_many(self,
                           items: Iterable[tuple[int, str]]) -> None:
        batch = list(items)  # see put_postings_many
        self._retry(lambda: self._inner.put_documents_many(batch))

    def get_document(self, doc_id: int) -> str:
        return self._retry(lambda: self._inner.get_document(doc_id))

    def document_ids(self) -> Iterator[int]:
        return iter(self._retry(
            lambda: list(self._inner.document_ids())))

    def delete_document(self, doc_id: int) -> None:
        self._retry(lambda: self._inner.delete_document(doc_id))

    # ------------------------------------------------------------------
    def put_metadata(self, key: str, value: str) -> None:
        self._retry(lambda: self._inner.put_metadata(key, value))

    def put_metadata_many(self,
                          items: Iterable[tuple[str, str]]) -> None:
        batch = list(items)  # see put_postings_many
        self._retry(lambda: self._inner.put_metadata_many(batch))

    def get_metadata(self, key: str, default: str | None = None,
                     ) -> str | None:
        return self._retry(lambda: self._inner.get_metadata(key, default))

    def metadata_keys(self) -> Iterator[str]:
        return iter(self._retry(
            lambda: list(self._inner.metadata_keys())))

    # ------------------------------------------------------------------
    def reclaim_space(self) -> None:
        self._retry(self._inner.reclaim_space)

    def close(self) -> None:
        self._inner.close()
