"""``build_cli``: the paper's Table III path as an operator runs it.

``python -m repro index --data D --store S`` (default SQLite format,
one worker) over a generated corpus, each build audited by
``verify-index`` and followed by one-shot ``search --store``
processes. Time goes to ``xmldoc`` parsing, the ``ir``/``core.scoring``
full-text stage, ``core.ontoscore`` expansion, ``core.index`` DIL
assembly and the ``storage`` write; the query layers barely run. A
read-path optimisation that makes posting lists dearer to build or to
write shows here, and only here.

The seed permutes the document order (hence every document id and
Dewey id in the index) and draws the one-shot queries.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import inputs
import layers
from harness import (Context, Outcome, SpanRecorder, median, percentile,
                     repeated_setup, tree_bytes)

PATIENTS = 20
QUICK_PATIENTS = 6
#: The timed loop runs at least this many index/verify/search rounds.
MIN_ROUNDS = 3
#: One-shot searches after each build: 21 latency samples a run, so
#: that the 95th percentile is not simply the slowest process.
SEARCHES_PER_ROUND = 7
#: ...unless the phase has already taken this many times ``--seconds``
#: (the reference box's disk now and then stalls a build for a minute).
STALL_FACTOR = 6


def _generate(context: Context, directory: Path) -> Path:
    data = directory / "data"
    context.workspace.cli_ok(
        "generate", "--out", str(data), "--patients",
        str(context.size(PATIENTS, QUICK_PATIENTS)))
    inputs.permute_corpus(data, context.seed)
    return data


def _answerable(oracle: inputs.Oracle, seed: int):
    """The curated queries in seeded order, those with a non-empty
    answer first (``search`` exits 1 on an empty result, and an empty
    print-out checks nothing)."""
    drawn = inputs.shuffled(inputs.curated_requests(), seed, "cli-queries")
    answers = [(request, oracle.results(request)) for request in drawn]
    return [pair for pair in answers if pair[1]] or answers


def run(context: Context) -> Outcome:
    outcome = Outcome({}, 0, 0)
    workspace = context.workspace

    # The `generate` child imports the whole CLI module, so it is also
    # the warm-up of the timed children that follow.
    outcome.metrics["setup_s"], data = repeated_setup(
        context, lambda directory, keep: _generate(context, directory))
    documents = len(inputs.corpus_files(data))
    store = data.parent / "index.db"
    oracle = inputs.Oracle(*inputs.load_data_dir(data))
    queries = _answerable(oracle, context.seed)

    builds: list[float] = []
    searches: list[float] = []
    peaks: list[float] = []
    rounds = 0
    started = time.perf_counter()
    minimum = 1 if context.quick else MIN_ROUNDS
    searches_per_round = 1 if context.quick else SEARCHES_PER_ROUND

    def wanted() -> bool:
        elapsed = time.perf_counter() - started
        if rounds and elapsed > STALL_FACTOR * context.seconds:
            return False  # a stalled box: report what there is
        return rounds < minimum or elapsed < context.seconds

    while wanted():
        built = workspace.cli("index", "--data", str(data),
                              "--store", str(store))
        outcome.attempted += 1
        if built.returncode != 0:
            outcome.fail(f"index exited {built.returncode}: "
                         f"{built.stderr.strip()[-200:]}")
            break
        builds.append(built.wall_s)
        peaks.append(built.peak_rss_mb)

        verified = workspace.cli("verify-index", "--store", str(store))
        outcome.attempted += 1
        if verified.returncode != 0:
            outcome.fail(f"verify-index exited {verified.returncode}: "
                         f"{verified.stdout.strip()[-200:]}")

        for number in range(searches_per_round):
            request, answer = queries[
                (rounds * searches_per_round + number) % len(queries)]
            found = workspace.cli("search", "--data", str(data),
                                  "--store", str(store), request.text)
            outcome.attempted += 1
            expected = tuple((result.dewey.encode(), f"{result.score:.3f}")
                             for result in answer)
            if found.returncode != (0 if answer else 1):
                outcome.fail(f"search {request.text!r} exited "
                             f"{found.returncode}")
            elif inputs.cli_ranking(found.stdout) != expected:
                outcome.fail(f"search {request.text!r}: ranking differs "
                             f"from the oracle")
            else:
                searches.append(found.wall_s)
        rounds += 1

    outcome.details["build_samples"] = len(builds)
    outcome.details["latency_samples"] = len(searches)
    if builds:
        outcome.metrics["throughput_ops_s"] = documents / median(builds)
        outcome.metrics["peak_rss_mb"] = max(peaks)
        outcome.metrics["store_bytes_per_corpus_byte"] = \
            store.stat().st_size / tree_bytes(data / "corpus")
    if searches:
        outcome.metrics["latency_p50_ms"] = median(searches) * 1e3
        outcome.metrics["latency_p95_ms"] = \
            percentile(searches, 0.95) * 1e3
    return outcome


# ----------------------------------------------------------------------
# Traced: what the three commands do, in this process
# ----------------------------------------------------------------------
def _round(data: Path, store_path: Path, query: str,
           recorder: SpanRecorder) -> dict:
    """One index / verify-index / search round through the public API,
    the way ``repro.cli`` composes it. Every step is a span of the
    ``cli`` layer whose children belong to the layers it calls."""
    from repro import XOntoRankEngine
    from repro.ontology.io import load_ontology
    from repro.storage.manifest import atomic_sqlite_build, verify_manifest
    from repro.storage.mmap_store import open_read_store
    from repro.xmldoc.model import Corpus
    from repro.xmldoc.parser import XMLParser

    facts: dict = {}

    def load():
        with recorder.span("cli.load_data", layers.CLI):
            with recorder.span("ontology.load", layers.ONTOLOGY):
                ontology = load_ontology(os.path.join(data, "ontology"))
            parser = XMLParser()
            corpus = Corpus()
            for doc_id, path in enumerate(inputs.corpus_files(data)):
                with recorder.span("xmldoc.parse", layers.XMLDOC):
                    corpus.add(parser.parse_file(str(path), doc_id=doc_id))
        return ontology, corpus

    with recorder.request("cli.index", layers.CLI):
        ontology, corpus = load()
        engine = XOntoRankEngine(corpus, ontology,
                                 strategy=inputs.STRATEGY)
        with atomic_sqlite_build(str(store_path)) as store:
            index = engine.build_index(radius=2, store=store, workers=1)
        facts["keywords"] = len(index)
        facts["postings"] = index.total_postings()
        facts["concepts_expanded"] = sum(
            stats.ontology_entries for stats in index.stats.values())

    with recorder.request("cli.verify", layers.CLI):
        with open_read_store(str(store_path)) as store:
            with recorder.span("storage.verify", layers.STORAGE):
                facts["verified"] = verify_manifest(store).ok

    with recorder.request("cli.search", layers.CLI):
        ontology, corpus = load()
        engine = XOntoRankEngine(corpus, ontology,
                                 strategy=inputs.STRATEGY)
        with open_read_store(str(store_path)) as store:
            with recorder.span("storage.load_index", layers.INDEX):
                engine.load_index(store)
        with recorder.span("query.search", layers.QUERY):
            facts["results"] = engine.search_outcome(query, k=10).results
    return facts


def _install(recorder: SpanRecorder) -> None:
    """Class- and module-level wrappers: each round builds fresh
    engines and stores, so the boundaries are patched where every new
    object will find them."""
    import repro.core.index.manager as manager
    import repro.storage.manifest as manifest
    from repro.core.index.builder import IndexBuilder
    from repro.core.ontoscore.base import OntoScoreComputer
    from repro.core.scoring import ElementIndex, NodeScorer
    from repro.ontology.api import TerminologyService
    from repro.storage.sqlite_store import SQLiteStore

    recorder.wrap(TerminologyService, "__init__", "ontology.terminology",
                  layers.ONTOLOGY)
    recorder.wrap(ElementIndex, "__init__", "scoring.element_index",
                  layers.SCORING)
    recorder.wrap(IndexBuilder, "build_keyword", "index.build_keyword",
                  layers.INDEX)
    for computer in _subclasses(OntoScoreComputer):
        if "compute" in computer.__dict__:
            recorder.wrap(computer, "compute", "ontoscore.compute",
                          layers.ONTOSCORE)
    recorder.wrap(NodeScorer, "node_scores", "scoring.node_scores",
                  layers.SCORING)
    layers.trace_store(recorder, SQLiteStore, "sqlite", writes=True)
    recorder.wrap(manifest, "finalize_manifest", "storage.manifest",
                  layers.STORAGE)
    recorder.wrap(manager, "serialize", "xmldoc.serialize", layers.XMLDOC)


def _subclasses(cls) -> list[type]:
    found = [cls]
    for child in cls.__subclasses__():
        found.extend(_subclasses(child))
    return found


def trace(context: Context) -> tuple[Outcome, SpanRecorder]:
    from repro.storage.mmap_store import open_read_store

    outcome = Outcome({}, 0, 0)
    metrics = outcome.metrics
    workspace = context.workspace
    directory = workspace.fresh_dir("traced")
    data = _generate(context, directory)
    documents = len(inputs.corpus_files(data))
    oracle = inputs.Oracle(*inputs.load_data_dir(data))
    request, answer = _answerable(oracle, context.seed)[0]

    metrics["cli.startup_s"] = median(
        [workspace.cli_ok("--help").wall_s for _ in range(3)])
    metrics["index.build.workers2_wall_s"] = workspace.cli_ok(
        "index", "--data", str(data), "--store",
        str(directory / "workers2.db"), "--workers", "2").wall_s

    def checked_round(store_path: Path, recorder: SpanRecorder) -> float:
        started = time.perf_counter()
        facts = _round(data, store_path, request.text, recorder)
        wall = time.perf_counter() - started
        outcome.attempted += 2
        if not facts["verified"]:
            outcome.fail("verify_manifest reported damage")
        if inputs.ranking_of(facts["results"]) != inputs.ranking_of(answer):
            outcome.fail(f"search {request.text!r}: ranking differs "
                         f"from the oracle")
        outcome.details.update(keywords=facts["keywords"])
        metrics["index.build.keywords"] = facts["keywords"]
        metrics["index.build.postings"] = facts["postings"]
        metrics["ontoscore.concepts_expanded"] = facts["concepts_expanded"]
        return wall

    untraced_wall = checked_round(directory / "untraced.db", SpanRecorder())
    recorder = SpanRecorder()
    _install(recorder)
    try:
        traced_wall = checked_round(directory / "traced.db", recorder)
    finally:
        recorder.unwrap_all()

    build = recorder.layer_self_seconds(request=1)
    metrics["index.build.dil_s"] = sum(
        recorder.durations("index.build_keyword", request=1))
    metrics["ontoscore.compute_s"] = build.get(layers.ONTOSCORE, 0.0)
    metrics["scoring.node_scores_s"] = \
        recorder.self_seconds("scoring.node_scores")
    metrics["scoring.element_index_s"] = sum(
        recorder.durations("scoring.element_index", request=1))
    metrics["storage.write_s"] = build.get(layers.STORAGE, 0.0)
    metrics["storage.verify_s"] = sum(recorder.durations("storage.verify"))
    metrics["storage.load_index_s"] = \
        sum(recorder.durations("storage.load_index"))
    metrics["query.search_ms"] = \
        sum(recorder.durations("query.search")) * 1e3
    metrics["xmldoc.parse_docs_per_s"] = documents / sum(
        recorder.durations("xmldoc.parse", request=1))
    metrics["ontology.load_s"] = sum(
        recorder.durations("ontology.load", request=1))
    metrics["cli.load_data_s"] = sum(
        recorder.durations("cli.load_data", request=1))

    store_path = directory / "traced.db"
    with open_read_store(str(store_path)) as store:
        keys = sorted(store.keywords(inputs.STRATEGY))
        metrics.update(layers.store_micro(store, inputs.STRATEGY, keys,
                                          "sqlite"))
        metrics["storage.sqlite.bytes_per_posting"] = \
            layers.bytes_per_posting(store_path, store, inputs.STRATEGY)
    layers.summarize(outcome, recorder, 1, untraced_wall, traced_wall)
    return outcome, recorder
