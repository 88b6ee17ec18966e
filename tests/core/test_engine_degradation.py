"""Engine-level resilience: metadata validation on load, per-keyword
degraded rebuilds, and byte-identical results under injected faults."""

import pytest

from repro import (RELATIONSHIPS, XRANK, XOntoRankConfig,
                   XOntoRankEngine)
from repro.cda.sample import build_figure1_document
from repro.core.stats import (FALLBACK_REBUILDS, INTEGRITY_FAILURES,
                              RETRY_GIVEUPS)
from repro.ontology.snomed import build_core_ontology
from repro.storage.errors import (CorruptIndexError,
                                  IncompatibleIndexError, StorageError,
                                  TransientStorageError)
from repro.storage.faults import FaultInjectingStore
from repro.storage.memory_store import MemoryStore
from repro.storage.retrying import RetryingStore
from repro.xmldoc.model import Corpus

VOCABULARY = {"asthma", "medications", "theophylline", "temperature"}
QUERIES = ("asthma medications", "theophylline temperature",
           '"bronchial structure" theophylline')


@pytest.fixture(scope="module")
def corpus(core_ontology):
    return Corpus([build_figure1_document()])


@pytest.fixture(scope="module")
def baseline(corpus, core_ontology):
    """A fault-free persisted index plus its search results."""
    engine = XOntoRankEngine(corpus, core_ontology,
                             strategy=RELATIONSHIPS)
    store = MemoryStore()
    engine.build_index(vocabulary=VOCABULARY, store=store)
    results = {query: ranked(engine, query) for query in QUERIES}
    return store, results


def ranked(engine, query):
    """Byte-comparable result form: encoded Dewey plus exact score."""
    return [(r.dewey.encode(), r.score) for r in engine.search(query,
                                                               k=10)]


def fresh_engine(corpus, ontology, **config_kwargs) -> XOntoRankEngine:
    config = XOntoRankConfig(**config_kwargs)
    return XOntoRankEngine(corpus, ontology, strategy=RELATIONSHIPS,
                           config=config)


class TestValidation:
    def test_clean_load_validates(self, corpus, core_ontology, baseline):
        store, _ = baseline
        engine = fresh_engine(corpus, core_ontology)
        assert engine.load_index(store) == len(VOCABULARY)
        assert engine.stats.value("engine.integrity.validations") == 1

    def test_incomplete_store_rejected(self, corpus, core_ontology):
        engine = fresh_engine(corpus, core_ontology)
        with pytest.raises(CorruptIndexError):
            engine.load_index(MemoryStore())
        assert engine.stats.value(INTEGRITY_FAILURES) == 1

    def test_parameter_mismatch_rejected(self, corpus, core_ontology,
                                         baseline):
        store, _ = baseline
        engine = fresh_engine(corpus, core_ontology, decay=0.4)
        with pytest.raises(IncompatibleIndexError, match="decay"):
            engine.load_index(store)

    def test_strategy_mismatch_rejected(self, corpus, baseline):
        store, _ = baseline
        engine = XOntoRankEngine(corpus, None, strategy=XRANK)
        with pytest.raises(IncompatibleIndexError, match="strategy"):
            engine.load_index(store)

    def test_corpus_mismatch_rejected(self, core_ontology, baseline):
        store, _ = baseline
        other = Corpus([build_figure1_document(),
                        build_figure1_document(doc_id=1)])
        engine = XOntoRankEngine(other, core_ontology,
                                 strategy=RELATIONSHIPS)
        with pytest.raises(IncompatibleIndexError, match="corpus"):
            engine.load_index(store)

    def test_validation_can_be_skipped(self, corpus, core_ontology,
                                       baseline):
        store, _ = baseline
        engine = fresh_engine(corpus, core_ontology, decay=0.4)
        # The operator override: validate=False loads anyway.
        assert engine.load_index(store,
                                 validate=False) == len(VOCABULARY)


class TestDegradedLoads:
    def test_corrupt_list_rebuilt_from_corpus(self, corpus,
                                              core_ontology, baseline):
        store, results = baseline
        chaotic = FaultInjectingStore(store,
                                      corrupt_keywords={"asthma"})
        engine = fresh_engine(corpus, core_ontology)
        assert engine.load_index(chaotic) == len(VOCABULARY)
        assert engine.stats.value(FALLBACK_REBUILDS) == 1
        for query in QUERIES:
            assert ranked(engine, query) == results[query]

    def test_corrupt_list_fatal_without_fallback(self, corpus,
                                                 core_ontology,
                                                 baseline):
        store, _ = baseline
        chaotic = FaultInjectingStore(store,
                                      corrupt_keywords={"asthma"})
        engine = fresh_engine(corpus, core_ontology)
        with pytest.raises(CorruptIndexError, match="asthma"):
            engine.load_index(chaotic, fallback=False)

    def test_exhausted_retries_fall_back(self, corpus, core_ontology,
                                         baseline):
        store, results = baseline

        class DeadKeywordStore(FaultInjectingStore):
            def get_posting_block(self, strategy, keyword):
                if keyword == "medications":
                    raise TransientStorageError("always down")
                return super().get_posting_block(strategy, keyword)

        engine = fresh_engine(corpus, core_ontology)
        reader = RetryingStore(DeadKeywordStore(store), max_attempts=3,
                               stats=engine.stats,
                               sleep=lambda _: None)
        assert engine.load_index(reader) == len(VOCABULARY)
        assert engine.stats.value(RETRY_GIVEUPS) == 1
        assert engine.stats.value(FALLBACK_REBUILDS) == 1
        for query in QUERIES:
            assert ranked(engine, query) == results[query]

    def test_transient_faults_fatal_without_fallback(self, corpus,
                                                     core_ontology,
                                                     baseline):
        store, _ = baseline

        class DeadStore(FaultInjectingStore):
            def get_posting_block(self, strategy, keyword):
                raise TransientStorageError("always down")

        engine = fresh_engine(corpus, core_ontology)
        with pytest.raises(TransientStorageError):
            engine.load_index(DeadStore(store), fallback=False)


class TestFaultedSearchIdentity:
    """The acceptance bar: transient faults at a 0.3 rate, retried and
    degraded as needed, must leave search results byte-identical to a
    fault-free run, with the counters visible."""

    RATE = 0.3

    def test_search_identical_under_faults(self, corpus, core_ontology,
                                           baseline):
        store, results = baseline
        engine = fresh_engine(corpus, core_ontology)
        chaotic = FaultInjectingStore(store, seed=29,
                                      transient_rate=self.RATE,
                                      stats=engine.stats)
        reader = RetryingStore(chaotic, max_attempts=10, seed=5,
                               stats=engine.stats, sleep=lambda _: None)
        engine.load_index(reader)
        for query in QUERIES:
            assert ranked(engine, query) == results[query]
        snapshot = engine.stats.snapshot()
        assert snapshot.get("faults.injected.transient", 0) > 0
        assert snapshot.get("storage.retry.attempts", 0) > 0
        rendered = engine.stats.render()
        assert "storage.retry.attempts" in rendered

    def test_repeat_runs_identical(self, corpus, core_ontology,
                                   baseline):
        store, results = baseline

        def run() -> dict:
            engine = fresh_engine(corpus, core_ontology)
            chaotic = FaultInjectingStore(store, seed=17,
                                          transient_rate=self.RATE)
            reader = RetryingStore(chaotic, max_attempts=10, seed=3,
                                   sleep=lambda _: None)
            engine.load_index(reader)
            return {query: ranked(engine, query) for query in QUERIES}

        first, second = run(), run()
        assert first == second == results


class DeadStore(FaultInjectingStore):
    def get_posting_block(self, strategy, keyword):
        raise TransientStorageError("always down")


#: fault name -> (store decorator, lists it makes unreadable)
FAULTS = {
    "transient": (lambda store: FaultInjectingStore(
        store, seed=11, transient_rate=0.999,
        operations={"get_posting_block"}), len(VOCABULARY)),
    "corrupt": (lambda store: FaultInjectingStore(
        store, corrupt_keywords={"asthma"}), 1),
    "dead": (DeadStore, len(VOCABULARY)),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
class TestOneDegradationRoutine:
    """``load_index(fallback=)`` and ``attach_read_store(on_error=)``
    are two entrances to one fetch-or-degrade routine: the same fault
    gives the same lists, the same counter and the same exception."""

    @staticmethod
    def lists(engine):
        from repro.ir.tokenizer import Keyword
        return {word: engine.dil_for(Keyword.from_text(word)).encoded()
                for word in sorted(VOCABULARY)}

    def test_absorbing_policies_agree(self, corpus, core_ontology,
                                      baseline, fault):
        store, _ = baseline
        wrap, unreadable = FAULTS[fault]
        clean = fresh_engine(corpus, core_ontology)
        clean.load_index(store)
        loader = fresh_engine(corpus, core_ontology)
        loader.load_index(wrap(store), fallback=True)
        reader = fresh_engine(corpus, core_ontology)
        reader.attach_read_store(wrap(store), on_error=lambda exc: True)
        assert self.lists(reader) == self.lists(loader) \
            == self.lists(clean)
        assert reader.stats.value(FALLBACK_REBUILDS) \
            == loader.stats.value(FALLBACK_REBUILDS) == unreadable

    def test_strict_policies_raise_the_same_error(self, corpus,
                                                  core_ontology,
                                                  baseline, fault):
        store, _ = baseline
        wrap, _ = FAULTS[fault]
        loader = fresh_engine(corpus, core_ontology)
        with pytest.raises(StorageError) as loading:
            loader.load_index(wrap(store), fallback=False)
        for on_error in (None, lambda exc: False):
            reader = fresh_engine(corpus, core_ontology)
            reader.attach_read_store(wrap(store), on_error=on_error)
            with pytest.raises(StorageError) as reading:
                self.lists(reader)
            assert type(reading.value) is type(loading.value)
            assert str(reading.value) == str(loading.value)
            assert reader.stats.value(FALLBACK_REBUILDS) == 0
        assert isinstance(loading.value, (CorruptIndexError,
                                          TransientStorageError))
