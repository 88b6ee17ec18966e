"""Scalability sweep (beyond the paper): corpus size vs cost.

The paper's future work calls out "scaling to larger ontologies and
datasets"; this benchmark sweeps the corpus size and reports index-
build time for a fixed keyword set plus average query latency, so the
growth trend (expected: roughly linear in corpus size for both) is
visible and regressions are catchable.
"""

import time

from repro import RELATIONSHIPS, XOntoRankEngine
from repro.cda import build_cda_corpus
from repro.emr import generate_cardiac_emr

from conftest import record_result

SIZES = (10, 20, 40)
KEYWORDS = ("asthma", "arrest", "amiodarone", "effusion", "fever")
QUERIES = ("asthma theophylline", '"cardiac arrest" amiodarone',
           "fever acetaminophen")


def sweep(ontology, terminology):
    rows = []
    for size in SIZES:
        database = generate_cardiac_emr(n_patients=size, seed=7,
                                        ontology=ontology)
        corpus, _ = build_cda_corpus(database, terminology)
        engine = XOntoRankEngine(corpus, ontology,
                                 strategy=RELATIONSHIPS)
        started = time.perf_counter()
        index = engine.builder.build(KEYWORDS)
        build_seconds = time.perf_counter() - started
        for query in QUERIES:  # warm DIL cache for the query phase
            engine.search(query, k=10)
        started = time.perf_counter()
        repetitions = 5
        for _ in range(repetitions):
            for query in QUERIES:
                engine.search(query, k=10)
        query_ms = ((time.perf_counter() - started)
                    / (repetitions * len(QUERIES)) * 1000.0)
        rows.append((size, corpus.total_nodes(), build_seconds * 1000.0,
                     index.total_postings(), query_ms))
    return rows


def render(rows):
    lines = ["SCALABILITY -- corpus size vs cost (Relationships)",
             f"{'patients':>9}{'elements':>10}{'build (ms)':>12}"
             f"{'postings':>10}{'query (ms)':>12}"]
    for size, elements, build_ms, postings, query_ms in rows:
        lines.append(f"{size:>9}{elements:>10}{build_ms:>12.1f}"
                     f"{postings:>10}{query_ms:>12.2f}")
    return "\n".join(lines) + "\n"


def test_scalability_sweep(benchmark, bench_ontology, bench_terminology):
    rows = benchmark.pedantic(sweep,
                              args=(bench_ontology, bench_terminology),
                              rounds=1, iterations=1)
    record_result("scalability", render(rows))
    # Postings grow with the corpus.
    postings = [row[3] for row in rows]
    assert postings == sorted(postings)
    # Element counts grow with patients.
    elements = [row[1] for row in rows]
    assert elements == sorted(elements)
