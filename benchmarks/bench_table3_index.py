"""Table III -- average per-keyword XOnto-DIL size (Section VII-B).

For each approach, builds the XOnto-DILs of a fixed keyword sample (a
deterministic slice of the experiment vocabulary: document words plus
ontology words within 2 relationships of referenced concepts) and
reports the three published columns: average creation time (ms), average
posting count, and average list size (KB).

Qualitative targets from the paper's prose:
* XRANK's lists are the smallest and fastest to build;
* Graph and Relationships produce the most postings;
* Taxonomy produces far fewer postings than Relationships;
* Taxonomy's creation time exceeds Graph's (its undecayed is-a
  direction expands much further than Graph's 3-hop radius).
"""

import random
import time

from repro.cda import build_cda_corpus
from repro.core.config import ALL_STRATEGIES, RELATIONSHIPS
from repro.core.index.vocabulary import experiment_vocabulary
from repro.core.obs import Tracer, render_profile
from repro.core.query.engine import XOntoRankEngine
from repro.core.stats import (APPEND_KEYWORDS_BUILT,
                              APPEND_KEYWORDS_SKIPPED)
from repro.emr import generate_cardiac_emr
from repro.storage import MemoryStore, load_catalog
from repro.xmldoc.model import Corpus

from conftest import EMR_SEED, record_result

SAMPLE_SIZE = 120
SAMPLE_SEED = 13


def keyword_sample(corpus, ontology):
    vocabulary = sorted(experiment_vocabulary(corpus, ontology, radius=2))
    rng = random.Random(SAMPLE_SEED)
    if len(vocabulary) <= SAMPLE_SIZE:
        return vocabulary
    return sorted(rng.sample(vocabulary, SAMPLE_SIZE))


def build_all(engines, keywords):
    return {name: engine.builder.build(keywords, strategy_name=name)
            for name, engine in engines.items()}


def render_table(stats):
    header = (f"{'Algorithm':<16}{'Avg creation (ms)':>20}"
              f"{'Avg postings':>16}{'Avg size (KB)':>16}")
    lines = [f"TABLE III -- average per-keyword XOnto-DIL size "
             f"({SAMPLE_SIZE}-keyword sample)", header, "-" * len(header)]
    for name in ALL_STRATEGIES:
        row = stats[name]
        lines.append(f"{name:<16}{row['creation_time_ms']:>20.3f}"
                     f"{row['postings']:>16.1f}{row['size_kb']:>16.3f}")
    return "\n".join(lines) + "\n"


def test_table3_index_creation(benchmark, bench_engines, bench_corpus,
                               bench_ontology):
    keywords = keyword_sample(bench_corpus, bench_ontology)
    indexes = benchmark.pedantic(build_all,
                                 args=(bench_engines, keywords),
                                 rounds=1, iterations=1)
    stats = {name: index.average_stats()
             for name, index in indexes.items()}
    record_result("table3_index", render_table(stats))

    # Paper claim: XRANK smallest and fastest.
    for name in ("graph", "taxonomy", "relationships"):
        assert stats[name]["postings"] > stats["xrank"]["postings"]
        assert stats[name]["creation_time_ms"] > \
            stats["xrank"]["creation_time_ms"]
    # Paper claim: Relationships emits far more postings than Taxonomy.
    assert stats["relationships"]["postings"] > \
        stats["taxonomy"]["postings"]
    # Paper claim: Graph is among the largest indexes.
    assert stats["graph"]["postings"] > stats["taxonomy"]["postings"]
    # Size column tracks the posting column.
    for name in ALL_STRATEGIES:
        assert (stats[name]["size_kb"] > 0) == \
            (stats[name]["postings"] > 0)


def test_table3_incremental_append(benchmark, bench_ontology,
                                   bench_terminology, quick_mode):
    """The incremental column Table III never had: the cost of adding
    one document to an existing index, against the full rebuild the
    paper's batch pipeline would require.

    The LSM segment lifecycle appends the new document as one immutable
    segment, building posting lists only for keywords the new content
    can reach (the exactness skip filter proves the rest untouched), so
    the append cost tracks the *new* content while the rebuild cost
    tracks the corpus.
    """
    patients = 6 if quick_mode else 16
    database = generate_cardiac_emr(n_patients=patients + 1,
                                    seed=EMR_SEED,
                                    ontology=bench_ontology)
    corpus, _ = build_cda_corpus(database, bench_terminology)
    documents = list(corpus)
    base, extra = documents[:-1], documents[-1]

    def grow():
        engine = XOntoRankEngine(Corpus(base), bench_ontology,
                                 strategy=RELATIONSHIPS)
        store = MemoryStore()
        started = time.perf_counter()
        engine.build_index(store=store)
        base_build_s = time.perf_counter() - started
        started = time.perf_counter()
        engine.add_documents([extra], store)
        append_s = time.perf_counter() - started

        rebuilt = XOntoRankEngine(Corpus(documents), bench_ontology,
                                  strategy=RELATIONSHIPS)
        started = time.perf_counter()
        rebuilt.build_index(store=MemoryStore())
        rebuild_s = time.perf_counter() - started
        return engine, store, base_build_s, append_s, rebuild_s

    engine, store, base_build_s, append_s, rebuild_s = \
        benchmark.pedantic(grow, rounds=1, iterations=1)

    built = engine.stats.value(APPEND_KEYWORDS_BUILT)
    skipped = engine.stats.value(APPEND_KEYWORDS_SKIPPED)
    speedup = rebuild_s / append_s if append_s else float("inf")
    lines = [
        f"TABLE III (incremental) -- append 1 doc vs rebuild "
        f"({patients}+1 patients, relationships)",
        f"{'base build (s)':>16}{'append (s)':>12}{'rebuild (s)':>13}"
        f"{'speedup':>9}{'kw built':>10}{'kw skipped':>12}",
        f"{base_build_s:>16.3f}{append_s:>12.3f}{rebuild_s:>13.3f}"
        f"{speedup:>9.2f}{built:>10}{skipped:>12}",
    ]
    record_result("table3_incremental_append", "\n".join(lines) + "\n")

    # The organization exists to make this true: one appended document
    # never costs a rebuild. The skip filter must have proven a real
    # share of the keyword universe untouched, and the base segment
    # survives by construction.
    catalog = load_catalog(store)
    assert len(catalog.segments) == 2
    assert catalog.segments[-1].doc_ids == (extra.doc_id,)
    assert skipped > 0
    assert append_s < rebuild_s


def test_table3_build_phase_breakdown(bench_corpus, bench_ontology):
    """Per-phase profile of a Relationships build into a store.

    Decomposes Table III's creation-time column the same way
    ``build-index --profile`` reports it: the whole build
    (``index.serial_build``), one ``index.build_keyword`` span per
    keyword with its OntoScore expansion (``ontoscore.expand``) and
    node scoring (``index.node_scores``) nested inside, then the store
    write (``storage.save_index``).
    """
    tracer = Tracer(capacity=65536)
    engine = XOntoRankEngine(bench_corpus, bench_ontology,
                             strategy=RELATIONSHIPS, tracer=tracer)
    keywords = keyword_sample(bench_corpus, bench_ontology)
    index = engine.build_index(vocabulary=keywords, store=MemoryStore())
    assert index.keywords()
    profile = render_profile(engine.stats, tracer)
    record_result("table3_build_phase_breakdown", profile + "\n")

    timers = engine.stats.timers()
    assert timers["index.serial_build"].count == 1
    assert timers["storage.save_index"].count == 1
    assert timers["index.build_keyword"].count == len(index)
    assert timers["index.node_scores"].count == len(index)
    assert 0 < timers["ontoscore.expand"].count <= len(index)
    # Per-keyword spans nest inside the build span, and the expansion
    # inside its keyword's span.
    assert timers["index.build_keyword"].total <= \
        timers["index.serial_build"].total
    assert timers["ontoscore.expand"].total <= \
        timers["index.build_keyword"].total


ONTOLOGY_DECADES = (1_000, 10_000, 100_000)
DECADE_KEYWORDS = ("asthma", "heart", "valve", "disorder", "structure",
                   "finding", "procedure", "entire")


def test_table3_ontology_decades(benchmark, tmp_path, quick_mode):
    """The column Table III holds fixed: the ontology's size.

    Sweeps synthetic-SNOMED decades and times the OntoScore expansion
    stage of index creation -- cold (computed from the graph, written
    through to a persisted cache) against warm (a fresh computer
    reading the same cache). The expansions are pure in
    ``(fingerprint, strategy, params, keyword)``, so warm must be both
    byte-identical and, at real scale, dramatically cheaper: the
    acceptance line is >= 5x at the 10^5 decade.
    """
    from repro.core.config import DEFAULT_CONFIG
    from repro.core.ontoscore import OntoScoreCache, expansion_params
    from repro.core.ontoscore.factory import make_ontoscore
    from repro.ir.tokenizer import Keyword
    from repro.ontology.snomed import build_synthetic_snomed
    from repro.storage import SQLiteStore

    decades = ONTOLOGY_DECADES[:2] if quick_mode else ONTOLOGY_DECADES
    keywords = [Keyword((word,)) for word in
                (DECADE_KEYWORDS[:4] if quick_mode else DECADE_KEYWORDS)]
    params = expansion_params(DEFAULT_CONFIG)

    def sweep():
        rows = []
        for target in decades:
            ontology = build_synthetic_snomed(target_concepts=target)
            store = SQLiteStore(str(tmp_path / f"cache_{target}.db"))
            cold = make_ontoscore(RELATIONSHIPS, ontology,
                                  DEFAULT_CONFIG)
            cold.attach_persistent_cache(OntoScoreCache(
                store, ontology.fingerprint(), RELATIONSHIPS, params))
            started = time.perf_counter()
            cold_maps = [cold.compute(keyword) for keyword in keywords]
            cold_s = time.perf_counter() - started

            warm = make_ontoscore(RELATIONSHIPS, ontology,
                                  DEFAULT_CONFIG)
            warm.attach_persistent_cache(OntoScoreCache(
                store, ontology.fingerprint(), RELATIONSHIPS, params))
            started = time.perf_counter()
            warm_maps = [warm.compute(keyword) for keyword in keywords]
            warm_s = time.perf_counter() - started
            store.close()

            # Identity contract: the cache may only change the cost.
            assert warm_maps == cold_maps
            concepts = sum(len(scores) for scores in cold_maps)
            rows.append((target, len(ontology), cold_s, warm_s,
                         concepts))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)

    lines = [
        f"TABLE III (ontology decades) -- relationships expansion, "
        f"{len(keywords)} keywords, cold graph vs warm OntoScoreCache",
        f"{'target':>10}{'concepts':>10}{'cold (s)':>10}{'warm (s)':>10}"
        f"{'speedup':>9}{'expanded':>10}",
    ]
    for target, concepts, cold_s, warm_s, expanded in rows:
        speedup = cold_s / warm_s if warm_s else float("inf")
        lines.append(f"{target:>10}{concepts:>10}{cold_s:>10.3f}"
                     f"{warm_s:>10.3f}{speedup:>9.2f}{expanded:>10}")
    record_result("table3_ontology_decades", "\n".join(lines) + "\n")

    for target, _concepts, cold_s, warm_s, _expanded in rows:
        assert warm_s < cold_s, (
            f"warm slower than cold at the {target} decade")
    if not quick_mode:
        _target, _concepts, cold_s, warm_s, _expanded = rows[-1]
        assert cold_s / warm_s >= 5.0, (
            f"warm-vs-cold speedup {cold_s / warm_s:.2f}x below 5x "
            f"at the 10^5 decade")
