"""RetryingStore backoff behavior and the FaultInjectingStore chaos
decorator it is tested against."""

import pytest

from repro.core.stats import (FAULTS_CORRUPTION, FAULTS_CRASHES,
                              FAULTS_LATENCY, FAULTS_TRANSIENT,
                              RETRY_ATTEMPTS, RETRY_BUDGET_EXHAUSTED,
                              RETRY_GIVEUPS, RETRY_RECOVERIES,
                              StatsRegistry)
from repro.storage.errors import (CorruptIndexError, StorageError,
                                  TransientStorageError)
from repro.storage.codec import encode_postings
from repro.storage.faults import FaultInjectingStore
from repro.storage.memory_store import MemoryStore
from repro.storage.retrying import RetryingStore
from repro.storage.sqlite_store import SQLiteStore

POSTINGS = [("0.1.2", 0.5), ("0.3", 1.0)]


class FlakyStore(MemoryStore):
    """Fails the first ``failures`` guarded calls, then behaves."""

    def __init__(self, failures: int) -> None:
        super().__init__()
        self.remaining = failures
        self.calls = 0

    def get_posting_block(self, strategy, keyword):
        self.calls += 1
        if self.remaining > 0:
            self.remaining -= 1
            raise TransientStorageError("flaky")
        return super().get_posting_block(strategy, keyword)


def seeded_inner(**kwargs) -> FaultInjectingStore:
    inner = MemoryStore()
    inner.put_postings("graph", "asthma", POSTINGS)
    inner.put_document(0, "<doc/>")
    inner.put_metadata("strategy", "graph")
    return FaultInjectingStore(inner, **kwargs)


class TestRetryingStore:
    def test_recovers_from_transient_faults(self):
        stats = StatsRegistry()
        flaky = FlakyStore(failures=2)
        flaky.put_postings("graph", "asthma", POSTINGS)
        sleeps: list[float] = []
        store = RetryingStore(flaky, max_attempts=4, stats=stats,
                              sleep=sleeps.append)
        assert store.get_postings("graph", "asthma") == POSTINGS
        assert flaky.calls == 3
        assert stats.value(RETRY_ATTEMPTS) == 2
        assert stats.value(RETRY_RECOVERIES) == 1
        assert stats.value(RETRY_GIVEUPS) == 0
        assert len(sleeps) == 2

    def test_gives_up_after_budget(self):
        stats = StatsRegistry()
        flaky = FlakyStore(failures=100)
        store = RetryingStore(flaky, max_attempts=3, stats=stats,
                              sleep=lambda _: None)
        with pytest.raises(TransientStorageError):
            store.get_postings("graph", "asthma")
        assert flaky.calls == 3
        assert stats.value(RETRY_ATTEMPTS) == 3
        assert stats.value(RETRY_GIVEUPS) == 1

    def test_backoff_grows_and_is_bounded(self):
        flaky = FlakyStore(failures=5)
        flaky.put_postings("graph", "asthma", POSTINGS)
        sleeps: list[float] = []
        store = RetryingStore(flaky, max_attempts=6, base_delay=0.1,
                              max_delay=0.35, jitter=0.0,
                              sleep=sleeps.append)
        store.get_postings("graph", "asthma")
        assert sleeps == pytest.approx([0.1, 0.2, 0.35, 0.35, 0.35])

    def test_jitter_is_deterministic_per_seed(self):
        def schedule(seed: int) -> list[float]:
            flaky = FlakyStore(failures=4)
            flaky.put_postings("graph", "asthma", POSTINGS)
            sleeps: list[float] = []
            RetryingStore(flaky, max_attempts=6, seed=seed,
                          sleep=sleeps.append).get_postings("graph",
                                                            "asthma")
            return sleeps

        assert schedule(7) == schedule(7)
        assert schedule(7) != schedule(8)

    def test_non_transient_errors_not_retried(self):
        class BrokenStore(MemoryStore):
            def get_posting_block(self, strategy, keyword):
                raise CorruptIndexError("damaged")

        stats = StatsRegistry()
        store = RetryingStore(BrokenStore(), stats=stats,
                              sleep=lambda _: None)
        with pytest.raises(CorruptIndexError):
            store.get_postings("graph", "asthma")
        assert stats.value(RETRY_ATTEMPTS) == 0

    def test_iterator_methods_materialize(self):
        inner = MemoryStore()
        inner.put_postings("graph", "a", POSTINGS)
        inner.put_document(1, "<a/>")
        inner.put_metadata("k", "v")
        store = RetryingStore(inner, sleep=lambda _: None)
        assert list(store.keywords("graph")) == ["a"]
        assert list(store.document_ids()) == [1]
        assert list(store.metadata_keys()) == ["k"]

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            RetryingStore(MemoryStore(), max_attempts=0)
        with pytest.raises(ValueError):
            RetryingStore(MemoryStore(), jitter=-0.1)
        with pytest.raises(ValueError):
            RetryingStore(MemoryStore(), budget=-0.5)


class ManualClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


class TestRetryTimeBudget:
    """The serving-layer contract: backoff sleeps never overshoot the
    operation's explicit budget or the ambient request deadline."""

    def make(self, budget=None, clock=None):
        stats = StatsRegistry()
        flaky = FlakyStore(failures=100)
        sleeps: list[float] = []
        store = RetryingStore(flaky, max_attempts=10, base_delay=0.1,
                              jitter=0.0, stats=stats,
                              sleep=sleeps.append, budget=budget,
                              clock=clock if clock is not None
                              else ManualClock())
        return store, flaky, sleeps, stats

    def test_budget_cuts_retrying_short(self):
        # Deterministic schedule (jitter=0, frozen clock): sleeps of
        # 0.1 + 0.2 == 0.3 fit a 0.35 s budget, the next (0.4) would
        # overshoot -- it must be skipped and the error re-raised.
        store, flaky, sleeps, stats = self.make(budget=0.35)
        with pytest.raises(TransientStorageError):
            store.get_postings("graph", "asthma")
        assert sleeps == pytest.approx([0.1, 0.2])
        assert flaky.calls == 3  # 2 sleeps -> 3 attempts, not 10
        assert stats.value(RETRY_BUDGET_EXHAUSTED) == 1
        assert stats.value(RETRY_GIVEUPS) == 1

    def test_budget_boundary_pause_equal_to_allowance_gives_up(self):
        # Boundary: a pause exactly equal to the remaining allowance
        # is refused (sleeping to the very edge leaves the caller
        # nothing to act in).
        store, flaky, sleeps, stats = self.make(budget=0.1)
        with pytest.raises(TransientStorageError):
            store.get_postings("graph", "asthma")
        assert sleeps == []  # first pause (0.1) == budget: refused
        assert flaky.calls == 1
        assert stats.value(RETRY_BUDGET_EXHAUSTED) == 1

    def test_budget_measures_elapsed_time_not_just_sleeps(self):
        # The inner call itself may burn the budget: each attempt
        # advances the clock by 0.2 s, so a 0.25 s budget affords no
        # backoff after the first (slow) failing attempt.
        clock = ManualClock()

        class SlowFlaky(FlakyStore):
            def get_posting_block(self, strategy, keyword):
                clock.now += 0.2
                return super().get_posting_block(strategy, keyword)

        stats = StatsRegistry()
        flaky = SlowFlaky(failures=100)
        sleeps: list[float] = []
        store = RetryingStore(flaky, max_attempts=10, base_delay=0.1,
                              jitter=0.0, stats=stats,
                              sleep=sleeps.append, budget=0.25,
                              clock=clock)
        with pytest.raises(TransientStorageError):
            store.get_postings("graph", "asthma")
        assert sleeps == []  # 0.2 elapsed leaves 0.05 < the 0.1 pause
        assert flaky.calls == 1

    def test_ambient_deadline_bounds_sleeps(self):
        from repro.core.deadline import Deadline, deadline_scope
        clock = ManualClock()
        store, flaky, sleeps, stats = self.make(clock=clock)
        with deadline_scope(Deadline.after(0.35, clock=clock)):
            with pytest.raises(TransientStorageError):
                store.get_postings("graph", "asthma")
        assert sleeps == pytest.approx([0.1, 0.2])
        assert stats.value(RETRY_BUDGET_EXHAUSTED) == 1
        # Outside the scope the same store retries to exhaustion.
        flaky2 = FlakyStore(failures=100)
        unbounded = RetryingStore(flaky2, max_attempts=4, jitter=0.0,
                                  sleep=lambda _: None,
                                  clock=ManualClock())
        with pytest.raises(TransientStorageError):
            unbounded.get_postings("graph", "asthma")
        assert flaky2.calls == 4

    def test_binding_constraint_is_the_minimum(self):
        # Budget generous, ambient deadline tight: the deadline wins.
        from repro.core.deadline import Deadline, deadline_scope
        clock = ManualClock()
        store, flaky, sleeps, _ = self.make(budget=100.0, clock=clock)
        with deadline_scope(Deadline.after(0.05, clock=clock)):
            with pytest.raises(TransientStorageError):
                store.get_postings("graph", "asthma")
        assert sleeps == []
        assert flaky.calls == 1


class TestFaultInjectingStore:
    def test_transient_faults_follow_seed(self):
        def fault_pattern(seed: int) -> list[bool]:
            store = seeded_inner(seed=seed, transient_rate=0.5)
            pattern = []
            for _ in range(30):
                try:
                    store.get_postings("graph", "asthma")
                    pattern.append(False)
                except TransientStorageError:
                    pattern.append(True)
            return pattern

        assert fault_pattern(3) == fault_pattern(3)
        assert any(fault_pattern(3))
        assert not all(fault_pattern(3))

    def test_transient_counter(self):
        stats = StatsRegistry()
        store = seeded_inner(seed=1, transient_rate=0.5, stats=stats)
        observed = 0
        for _ in range(40):
            try:
                store.get_postings("graph", "asthma")
            except TransientStorageError:
                observed += 1
        assert stats.value(FAULTS_TRANSIENT) == observed > 0

    def test_corrupt_keywords_mangle_postings(self):
        stats = StatsRegistry()
        store = seeded_inner(corrupt_keywords={"asthma"}, stats=stats)
        # The damaged block fails its checksum when read, naming the
        # list it was read for.
        with pytest.raises(CorruptIndexError, match="asthma"):
            store.get_postings("graph", "asthma")
        assert stats.value(FAULTS_CORRUPTION) == 1

    def test_latency_injection_counts_sleeps(self):
        sleeps: list[float] = []
        stats = StatsRegistry()
        store = seeded_inner(latency=0.01, stats=stats,
                             sleep=sleeps.append)
        store.get_postings("graph", "asthma")
        store.get_metadata("strategy")
        assert sleeps == pytest.approx([0.01, 0.01])
        assert stats.value(FAULTS_LATENCY) == 2

    def test_fail_after_writes_simulates_crash(self):
        stats = StatsRegistry()
        store = FaultInjectingStore(MemoryStore(), fail_after_writes=2,
                                    stats=stats)
        store.put_metadata("a", "1")
        store.put_document(0, "<doc/>")
        with pytest.raises(StorageError):
            store.put_postings("graph", "kw", POSTINGS)
        # Permanent: every later write keeps failing, like a dead disk.
        with pytest.raises(StorageError):
            store.put_metadata("b", "2")
        assert store.writes == 2
        assert stats.value(FAULTS_CRASHES) == 2

    def test_operations_filter_limits_blast_radius(self):
        store = seeded_inner(seed=0, transient_rate=0.99,
                             operations={"get_document"})
        # get_postings is outside the filter: never faulted.
        for _ in range(20):
            assert store.get_postings("graph", "asthma") == POSTINGS
        with pytest.raises(TransientStorageError):
            for _ in range(20):
                store.get_document(0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            FaultInjectingStore(MemoryStore(), transient_rate=1.0)
        with pytest.raises(ValueError):
            FaultInjectingStore(MemoryStore(), fail_after_writes=-1)


def commit_count(store: SQLiteStore, write) -> int:
    """COMMITs the SQLite store executes while ``write()`` runs."""
    statements: list[str] = []
    store._connection.set_trace_callback(statements.append)
    try:
        write()
    finally:
        store._connection.set_trace_callback(None)
    return statements.count("COMMIT")


class TestRetryingBatches:
    """A batch through RetryingStore stays one batch: one retried call,
    one transaction on the inner store."""

    LISTS = [(f"kw{index:02d}", POSTINGS) for index in range(12)]
    BLOCKS = [(key, encode_postings(postings)) for key, postings in LISTS]

    def test_postings_batch_is_one_commit(self):
        inner = SQLiteStore()
        store = RetryingStore(inner, sleep=lambda _: None)
        assert commit_count(inner, lambda: store.put_postings_many(
            "graph", iter(self.BLOCKS))) == 1
        assert sorted(inner.keywords("graph")) == \
            [key for key, _ in self.LISTS]

    def test_metadata_batch_is_one_commit(self):
        inner = SQLiteStore()
        store = RetryingStore(inner, sleep=lambda _: None)
        entries = [(f"key{index}", str(index)) for index in range(7)]
        assert commit_count(inner, lambda: store.put_metadata_many(
            iter(entries))) == 1
        assert sorted(inner.metadata_keys()) == sorted(
            key for key, _ in entries)

    def test_transient_fault_retries_the_whole_batch_once_each(self):
        # The injected fault lands mid-batch (the fault injector keeps
        # the per-list loop): the retry replays the whole batch from a
        # materialized copy -- a generator would be half exhausted --
        # and replacing a list is idempotent, so each lands once.
        stats = StatsRegistry()
        sqlite = SQLiteStore()
        faulty = FaultInjectingStore(sqlite, seed=4, transient_rate=0.1,
                                     operations={"put_postings"},
                                     stats=stats)
        store = RetryingStore(faulty, max_attempts=50, stats=stats,
                              sleep=lambda _: None)
        commits = commit_count(sqlite, lambda: store.put_postings_many(
            "graph", iter(self.BLOCKS)))
        assert stats.value(FAULTS_TRANSIENT) > 0
        assert stats.value(RETRY_RECOVERIES) == 1
        # Lists written before the fault were written again.
        assert commits > len(self.LISTS)
        assert sorted(sqlite.keywords("graph")) == \
            [key for key, _ in self.LISTS]
        for key, postings in self.LISTS:
            assert sqlite.posting_count("graph", key) == len(postings)
            assert sqlite.get_postings("graph", key) == postings

    def test_reclaim_space_is_forwarded(self):
        class Reclaiming(MemoryStore):
            reclaimed = 0

            def reclaim_space(self):
                self.reclaimed += 1

        inner = Reclaiming()
        RetryingStore(FaultInjectingStore(inner)).reclaim_space()
        assert inner.reclaimed == 1


class TestRetryOverFaults:
    """The two decorators compose: retries absorb injected faults."""

    def test_composed_reads_always_succeed(self):
        stats = StatsRegistry()
        store = RetryingStore(
            seeded_inner(seed=11, transient_rate=0.3, stats=stats),
            max_attempts=8, stats=stats, sleep=lambda _: None)
        for _ in range(50):
            assert store.get_postings("graph", "asthma") == POSTINGS
        assert stats.value(FAULTS_TRANSIENT) > 0
        assert stats.value(RETRY_RECOVERIES) > 0
        assert stats.value(RETRY_GIVEUPS) == 0
