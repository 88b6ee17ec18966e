"""Warm-engine thread safety: N threads x M queries against one engine
must be byte-identical to serial execution, with DIL-cache counters
that still add up -- also with narrative and plain queries interleaved,
on one leaf and on a 3-shard federation. This is the property the
serving layer's worker pool stands on."""

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

QUERIES = ["chest pain", "aspirin", "myocardial infarction",
           "patient medication", "blood pressure", "heart"]
THREADS = 8
ROUNDS = 4  # each query executed THREADS * ROUNDS times concurrently


@pytest.fixture(scope="module")
def engine(engines):
    return engines["relationships"]


def test_concurrent_queries_match_serial(engine):
    serial = {query: engine.search(query, k=10) for query in QUERIES}

    jobs = [query for _ in range(THREADS * ROUNDS)
            for query in QUERIES]
    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        outcomes = list(pool.map(
            lambda query: (query, engine.search(query, k=10)), jobs))

    for query, results in outcomes:
        expected = serial[query]
        assert len(results) == len(expected)
        for mine, reference in zip(results, expected):
            # Byte-identical: same element, same score, same order.
            assert mine.dewey == reference.dewey
            assert mine.score == reference.score

    stats = engine.cache_stats()
    assert stats.hits + stats.misses == stats.lookups
    # Everything was warm after the serial pass: the concurrent rounds
    # were pure cache hits (no rebuild raced another).
    assert stats.hits >= len(jobs)


def test_concurrent_outcomes_are_exact(engine):
    # search_outcome's partial flag is per-call state; concurrent use
    # must never leak one request's flag into another.
    with ThreadPoolExecutor(max_workers=THREADS) as pool:
        outcomes = list(pool.map(
            lambda query: engine.search_outcome(query, 10),
            QUERIES * THREADS))
    assert all(outcome.exact for outcome in outcomes)


#: Curated keyword queries and clinical-narrative texts, run
#: interleaved: the narrative flag is a per-call argument, so one warm
#: engine serves both kinds at once.
MIXED = [("chest pain", False),
         ("was in cardiac arrest with coarctation", True),
         ("aspirin", False),
         ("on ibuprofen for a supraventricular arrhythmia", True),
         ("heart", False),
         ("neonatal cyanosis and was on a carbapenem", True)]


def _answer(outcome):
    narrative = outcome.narrative
    return ([(result.dewey, result.score) for result in outcome.results],
            None if narrative is None else str(narrative.query))


@pytest.fixture(scope="module")
def federation(cda_corpus, synthetic_ontology):
    from repro.core.query.federated import FederatedEngine
    return FederatedEngine(cda_corpus, synthetic_ontology, shards=3,
                           shard_workers=2)


@pytest.mark.parametrize("name", ["leaf", "federation"])
def test_interleaved_narrative_and_plain_queries_match_serial(
        name, engine, federation):
    target = engine if name == "leaf" else federation

    def run(job):
        text, narrative = job
        return _answer(target.search_outcome(text, 10,
                                             narrative=narrative))

    serial = {job: run(job) for job in MIXED}
    assert all(serial[job][1] is not None for job in MIXED if job[1])
    assert all(serial[job][1] is None for job in MIXED if not job[1])

    jobs = MIXED * THREADS * ROUNDS
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # force thread switches mid-query
    try:
        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            answers = list(pool.map(run, jobs, timeout=300))
    finally:
        sys.setswitchinterval(interval)
    for job, answer in zip(jobs, answers):
        assert answer == serial[job], job
