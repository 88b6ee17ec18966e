"""Command-line interface: the full pipeline as a tool.

Four subcommands mirror the system's phases::

    python -m repro generate --out DIR [--patients 40] [--seed 7]
        Build the synthetic SNOMED (flat files) and the CDA corpus
        (one XML file per patient) under DIR.

    python -m repro build-ontology --store FILE.db
        [--data DIR | --scale F | --target-concepts N]
        [--store-format sqlite|mmap] [--profile]
        Build the persisted concept indexes of the ontology service:
        exact + per-token name/synonym lookup, cross-references into
        foreign code systems, and the is-a ancestor/descendant closure
        with depths. With --data the ontology under DIR/ontology is
        indexed; without it a synthetic SNOMED is *streamed* into the
        build (--target-concepts 100000 never materializes the graph).

    python -m repro index --data DIR --store FILE.db
        [--strategy relationships] [--radius 2]
        [--store-format sqlite|mmap] [--append] [--ontology-cache F.db]
        [--profile] [--metrics-out F.jsonl] [--trace-out F.json]
        Pre-processing phase: build XOnto-DILs for the experiment
        vocabulary and persist them (plus the documents). The default
        backend is SQLite; ``--store-format mmap`` writes the compact
        memory-mapped container instead (read-only, O(1) open, shared
        OS page cache -- see docs/STORAGE.md). The build is serial;
        ``--shards N --shard-workers M`` is how it runs in parallel.
        ``build-index`` is an alias for this subcommand.
        ``search``/``serve``/``verify-index`` detect the
        backend from the file itself; no flag is needed to read.

        With ``--ontology-cache F.db`` OntoScore expansions are read
        through a persisted cache keyed by (ontology fingerprint,
        strategy, expansion parameters); a second build of the same
        configuration starts warm, and a mismatched cache generation
        is invalidated instead of reused.

        With ``--append`` the store must already exist: documents in
        DIR that the store does not yet hold are indexed as one
        immutable LSM segment -- no existing posting list is rebuilt --
        and published by a single atomic catalog write (a crash leaves
        the previous index intact). New corpus files must sort after
        the existing ones (document ids are positional).

    python -m repro compact --store FILE.db [--shards N]
        Fold an incrementally grown store's segments back into one,
        dropping tombstoned documents and any orphan rows left by
        crashed appends. The logical index (and every query answer) is
        unchanged; with --shards N every shard store is compacted.

    python -m repro search --data DIR "QUERY" [--store FILE.db]
        [--strategy relationships] [--top-k 10] [--explain] [--cache-size N]
        [--retries N] [--strict | --no-fallback] [--verbose]
        [--profile] [--metrics-out F.jsonl] [--trace-out F.json]
        Query phase: run a keyword query, print ranked fragments. With
        --store the query's posting lists are read through the
        persisted index instead of rebuilt, exactly as ``serve`` reads
        them; validation, retries, degradation and what --strict
        (= --no-fallback) covers are specified once, in
        docs/STORAGE.md "Reading a persisted store". Prints DIL-cache
        counters after the query; --verbose adds
        retry/fallback/integrity counters.

    python -m repro verify-index --store FILE.db
        Check a persisted index's integrity end to end: a
        human-readable format/version line, per-block checksums (mmap
        stores carry a crc32 per posting block), per-strategy
        posting-list checksums, build-completion marker, corpus
        fingerprint over the stored documents. Exit 0 when intact,
        1 when damaged, 2 when the file is missing.

    python -m repro evaluate --data DIR [--k 5]
        Run the Table-I survey over the published workload with the
        relevance oracle and print per-strategy counts.

    python -m repro stats --data DIR
        Print ontology/corpus/vocabulary statistics.

``index`` and ``search`` also accept --decay/--threshold/--t to move
the paper's parameters off their published defaults. ``index`` writes
the database to a temporary sibling path and atomically renames it into
place, so a killed build never publishes a partial store.

``index``, ``search`` and ``serve`` accept ``--shards N`` (and
``--shard-workers M`` for a thread-pool fan-out): every command runs
one engine, a federation over N hash shards of the corpus. ``index``
writes one store per shard at ``STORE.shardII-of-NN`` (each with its
own crash-safe manifest) and ``search`` k-way-merges the per-shard
rankings. The default, one shard, holds the whole corpus and is stored
at the plain ``STORE`` path. Rankings are byte-identical at every shard
count; a damaged shard store degrades only its own shard.

Observability (see docs/OBSERVABILITY.md for the instrument catalog):
--profile traces the hot paths through :mod:`repro.core.obs` and prints
a per-phase timing table (parse / OntoScore / DIL merge / storage);
--metrics-out dumps every counter and timer as JSON lines; --trace-out
writes the span buffer in Chrome-trace format for chrome://tracing or
https://ui.perfetto.dev. Either output flag implies tracing; without
any of the three, the engine runs on the no-op tracer and pays nothing.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import Sequence

from .cda.generator import build_cda_corpus
from .core.config import (ALL_STRATEGIES, RELATIONSHIPS,
                          XOntoRankConfig)
from .core.obs import (Tracer, render_profile, write_chrome_trace,
                       write_metrics_jsonl)
from .core.query.engine import SearchEngine, build_engines
from .core.stats import (FALLBACK_STORE_DISCARDS, ONTOLOGY_CACHE_HITS,
                         ONTOLOGY_CACHE_INVALIDATIONS,
                         ONTOLOGY_CACHE_MISSES, StatsRegistry)
from .core.query.federated import FederatedEngine, shard_store_paths
from .emr.synth import generate_cardiac_emr
from .evaluation.metrics import run_survey
from .evaluation.oracle import RelevanceOracle
from .evaluation.workload import table1_queries
from .ontology.api import TerminologyService
from .ontology.indexes import build_ontology_indexes
from .ontology.io import load_ontology, save_ontology
from .ontology.snomed import (SNOMED_NAME, SNOMED_SYSTEM_CODE,
                              SyntheticSnomedBuilder,
                              build_synthetic_snomed)
from .storage.errors import StorageError
from .storage.manifest import (CHECKSUM_KEY_PREFIX, MANIFEST_VERSION_KEY,
                               atomic_sqlite_build, verify_manifest)
from .storage.mmap_store import (MmapStore, atomic_mmap_build,
                                 open_read_store, sniff_store_format)
from .storage.retrying import RetryingStore
from .storage.sqlite_store import SQLiteStore
from .xmldoc.model import Corpus
from .xmldoc.parser import XMLParser
from .xmldoc.serializer import serialize

ONTOLOGY_DIR = "ontology"
CORPUS_DIR = "corpus"


# ----------------------------------------------------------------------
# Data-directory helpers
# ----------------------------------------------------------------------
def _load_data_directory(data_dir: str):
    ontology = load_ontology(os.path.join(data_dir, ONTOLOGY_DIR))
    corpus_dir = os.path.join(data_dir, CORPUS_DIR)
    parser = XMLParser()
    corpus = Corpus()
    names = sorted(name for name in os.listdir(corpus_dir)
                   if name.endswith(".xml"))
    if not names:
        raise FileNotFoundError(f"no .xml documents under {corpus_dir}")
    for doc_id, name in enumerate(names):
        document = parser.parse_file(os.path.join(corpus_dir, name),
                                     doc_id=doc_id)
        corpus.add(document)
    return ontology, corpus


def _config_from(args: argparse.Namespace) -> XOntoRankConfig:
    return XOntoRankConfig(decay=args.decay, threshold=args.threshold,
                           t=args.t,
                           dil_cache_capacity=getattr(args, "cache_size",
                                                      None))


def _add_parameter_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--strategy", choices=ALL_STRATEGIES,
                        default=RELATIONSHIPS)
    parser.add_argument("--decay", type=float, default=0.5,
                        help="score attenuation per edge (paper: 0.5)")
    parser.add_argument("--threshold", type=float, default=0.1,
                        help="OntoScore pruning bound (paper: 0.1)")
    parser.add_argument("--t", type=float, default=0.5,
                        help="dotted-link decay (paper: 0.5)")


def _add_profiling_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--profile", action="store_true",
                        help="trace the hot paths and print a "
                             "per-phase timing table")
    parser.add_argument("--metrics-out", default=None, metavar="FILE",
                        help="write counters and timers as JSON lines "
                             "(implies --profile)")
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="write spans as a Chrome-trace JSON file "
                             "for chrome://tracing / Perfetto "
                             "(implies --profile)")


def _tracer_from(args: argparse.Namespace) -> Tracer | None:
    """A live tracer when any profiling flag was given, else ``None``
    (the engine then runs on the zero-cost null tracer)."""
    if args.profile or args.metrics_out or args.trace_out:
        return Tracer()
    return None


def _emit_profile(args: argparse.Namespace, engine: SearchEngine,
                  tracer: Tracer | None) -> None:
    if tracer is None:
        return
    if args.profile:
        print(render_profile(engine.stats, tracer))
    if args.metrics_out:
        count = write_metrics_jsonl(engine.stats, args.metrics_out)
        print(f"metrics: {count} instruments -> {args.metrics_out}")
    if args.trace_out:
        count = write_chrome_trace(tracer, args.trace_out)
        print(f"trace: {count} spans -> {args.trace_out} "
              f"(open in chrome://tracing or ui.perfetto.dev)")


def _make_engine(args: argparse.Namespace, corpus, ontology,
                 tracer: Tracer | None) -> FederatedEngine:
    """The engine every command runs: a federation over ``--shards``
    leaves. One shard (the default) is one leaf over the whole corpus;
    rankings are byte-identical at every count."""
    return FederatedEngine(
        corpus, ontology if args.strategy != "xrank" else None,
        strategy=args.strategy, config=_config_from(args),
        shards=args.shards, shard_workers=args.shard_workers,
        tracer=tracer)


def _store_layout(args: argparse.Namespace) -> tuple[list[str], str, str]:
    """``--store`` as per-shard paths, how ``index`` names where it
    wrote, and the command that builds the layout. The plain path
    (what :func:`shard_store_paths` makes of one shard) reads exactly
    as it did before sharding existed: no range, no flag."""
    paths = shard_store_paths(args.store, args.shards)
    build = (f"python -m repro index --data {args.data} "
             f"--store {args.store}")
    if paths == [args.store]:
        return paths, args.store, build
    return (paths,
            f"{paths[0]} .. {paths[-1]} ({args.shards} shards)",
            f"{build} --shards {args.shards}")


def _open_read_store(path: str, args: argparse.Namespace,
                     engine: SearchEngine):
    """Open one persisted index read-only under the one retry policy.

    Retries target the SQLite backend's transient faults (locked or
    busy databases). An mmap store has none -- and wrapping it would
    hide the zero-copy posting-block fast path.
    """
    store = open_read_store(path, tracer=engine.tracer)
    if args.retries > 0 and not isinstance(store, MmapStore):
        return RetryingStore(store, max_attempts=args.retries + 1,
                             stats=engine.stats, tracer=engine.tracer)
    return store


def _attach_stores(args: argparse.Namespace, engine: FederatedEngine,
                   stack: contextlib.ExitStack, *, degrade: bool,
                   warm: bool) -> int:
    """The one way ``--store`` is queried (docs/STORAGE.md, "Reading
    a persisted store"): every shard's store is opened read-only,
    validated once, attached as its leaf's DIL-cache-miss source and
    kept open on ``stack``; ``warm`` (``serve`` without --no-warm) then
    pre-loads every posting list. ``degrade`` is the callers' only
    difference. True (``search``): an unusable store is discarded with
    a warning and an unreadable posting list is rebuilt from the
    corpus. False (``search --strict``, ``serve``): the first is fatal
    and the second propagates -- to exit 2, or to the server's circuit
    breakers. Returns an exit code: 0, or 2 after printing the error.
    """
    paths, _, build = _store_layout(args)
    missing = [path for path in paths if not os.path.exists(path)]
    if missing:
        print(f"error: no index store at {', '.join(missing)} -- "
              f"build one with `{build}`", file=sys.stderr)
        return 2
    on_error = (lambda failure: True) if degrade else None
    loaded = 0
    for leaf, path in zip(engine.shard_engines, paths):
        try:
            reader = stack.enter_context(
                _open_read_store(path, args, engine))
            leaf.attach_read_store(reader, on_error=on_error)
            if warm:
                loaded += leaf.load_index(reader, validate=False)
        except StorageError as exc:
            if not degrade:
                return _unusable_store(path, exc)
            engine.stats.increment(FALLBACK_STORE_DISCARDS)
            print(f"warning: ignoring index store {path} ({exc}); "
                  f"building posting lists from the corpus",
                  file=sys.stderr)
        else:
            print(f"reading index store {path}")
    if warm:
        print(f"warmed {loaded} posting lists from {args.store}")
    return 0


def _unusable_store(path: str, exc: StorageError) -> int:
    print(f"error: cannot use index store {path}: {exc}",
          file=sys.stderr)
    return 2


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def command_generate(args: argparse.Namespace) -> int:
    ontology = build_synthetic_snomed(scale=args.scale,
                                      seed=args.ontology_seed)
    terminology = TerminologyService([ontology])
    database = generate_cardiac_emr(n_patients=args.patients,
                                    seed=args.seed, ontology=ontology)
    corpus, report = build_cda_corpus(database, terminology)

    save_ontology(ontology, os.path.join(args.out, ONTOLOGY_DIR))
    corpus_dir = os.path.join(args.out, CORPUS_DIR)
    os.makedirs(corpus_dir, exist_ok=True)
    for document in corpus:
        path = os.path.join(corpus_dir, f"patient-{document.doc_id:04d}.xml")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(serialize(document, indent="  "))
    print(f"ontology: {ontology.stats()}")
    print(f"corpus: {report.documents} documents, "
          f"{report.average_elements:.0f} elements/doc, "
          f"{report.average_references:.0f} references/doc -> "
          f"{corpus_dir}")
    return 0


def _atomic_build(path: str, store_format: str):
    """The crash-safe build context for the chosen backend."""
    if store_format == "mmap":
        return atomic_mmap_build(path)
    return atomic_sqlite_build(path)


def command_build_ontology(args: argparse.Namespace) -> int:
    """``repro build-ontology``: persist the concept indexes
    (name/synonym, cross-reference, hierarchy closure) of an ontology
    into a store, so terminology resolution never loads the graph."""
    tracer = _tracer_from(args)
    stats = StatsRegistry()
    if tracer is not None:
        tracer.registry = stats
    with _atomic_build(args.store, args.store_format) as store:
        if args.data:
            ontology = load_ontology(os.path.join(args.data,
                                                  ONTOLOGY_DIR))
            indexes = build_ontology_indexes(ontology, store,
                                             tracer=tracer)
        else:
            # Streamed: the 10^5+-concept synthetic SNOMED flows
            # straight into the index builder, never materialized.
            builder = SyntheticSnomedBuilder(
                scale=args.scale, seed=args.ontology_seed,
                target_concepts=args.target_concepts)
            indexes = build_ontology_indexes(
                builder.stream(), store,
                system_code=SNOMED_SYSTEM_CODE, name=SNOMED_NAME,
                tracer=tracer)
        concepts = indexes.concept_count
        fingerprint = indexes.fingerprint
    print(f"built ontology indexes: {concepts} concepts -> "
          f"{args.store}")
    print(f"ontology fingerprint: {fingerprint}")
    print(f"audit with `python -m repro verify-index "
          f"--store {args.store}`")
    if tracer is not None and args.profile:
        print(render_profile(stats, tracer))
    return 0


def command_index(args: argparse.Namespace) -> int:
    ontology, corpus = _load_data_directory(args.data)
    tracer = _tracer_from(args)
    engine = _make_engine(args, corpus, ontology, tracer)
    ontology_cache = None
    if args.ontology_cache:
        cache_store = SQLiteStore(args.ontology_cache)
        ontology_cache = engine.attach_ontology_cache(cache_store)
        if ontology_cache is None:  # xrank has nothing to cache
            cache_store.close()
    paths, destination, _ = _store_layout(args)
    if args.append:
        return _append_to_stores(args, engine, paths, tracer)
    # Crash safety: every shard's store (and manifest) is written to a
    # ".building" sibling and atomically renamed into place only after
    # its manifest's completion marker has landed.
    with contextlib.ExitStack() as stack:
        stores = [stack.enter_context(
            _atomic_build(path, args.store_format)) for path in paths]
        index = engine.build_index(radius=args.radius, stores=stores)
        checksum = stores[0].get_metadata(CHECKSUM_KEY_PREFIX
                                          + args.strategy) or ""
    print(f"built {len(index)} XOnto-DILs "
          f"({index.total_postings()} postings, "
          f"{index.total_size_bytes() / 1024:.1f} KB) -> {destination}")
    print(f"manifest: complete checksum={checksum[:12]} "
          f"(audit with `python -m repro verify-index "
          f"--store {paths[0]}`)")
    print(f"dil-cache: {engine.cache_stats().render()}")
    if ontology_cache is not None:
        counters = engine.stats.snapshot()
        print(f"ontology-cache: "
              f"hits={counters.get(ONTOLOGY_CACHE_HITS, 0)} "
              f"misses={counters.get(ONTOLOGY_CACHE_MISSES, 0)} "
              f"invalidations="
              f"{counters.get(ONTOLOGY_CACHE_INVALIDATIONS, 0)} "
              f"epoch={ontology_cache.epoch} "
              f"-> {args.ontology_cache}")
        ontology_cache.close()
    _emit_profile(args, engine, tracer)
    return 0


def _append_to_stores(args: argparse.Namespace, engine: FederatedEngine,
                      paths: list[str], tracer: Tracer | None) -> int:
    """``index --append``: one immutable segment per store holding the
    data directory's documents the store has not indexed yet."""
    from .core.stats import (APPEND_KEYWORDS_BUILT,
                             APPEND_KEYWORDS_SKIPPED, SEGMENTS_LIVE)
    from .storage.errors import IncompatibleIndexError
    from .storage.segments import load_catalog
    missing = [path for path in paths if not os.path.exists(path)]
    if missing:
        print(f"error: --append needs an existing store; missing: "
              f"{', '.join(missing)} -- build one with `python -m repro "
              f"index --data {args.data} --store {args.store}`",
              file=sys.stderr)
        return 2
    immutable = [path for path in paths
                 if sniff_store_format(path) == "mmap"]
    if immutable:
        print(f"error: {', '.join(immutable)}: mmap stores are "
              f"immutable; rebuild with `python -m repro index` "
              f"(--store-format mmap), or keep an appendable index in "
              f"sqlite format", file=sys.stderr)
        return 2
    with contextlib.ExitStack() as stack:
        stores = [stack.enter_context(SQLiteStore(path,
                                                  tracer=engine.tracer))
                  for path in paths]
        held: set[int] = set()
        for store in stores:
            catalog = load_catalog(store)
            held |= (set(catalog.live) if catalog is not None
                     else set(store.document_ids()))
        new_docs = [document for document in engine.corpus
                    if document.doc_id not in held]
        if not new_docs:
            print(f"nothing to append: every document of {args.data} "
                  f"is already live in the store")
            return 0
        try:
            engine.add_documents(new_docs, stores, radius=args.radius)
        except (StorageError, ValueError) as exc:
            print(f"error: cannot append to {args.store}: {exc}",
                  file=sys.stderr)
            return 2
    built = engine.stats.value(APPEND_KEYWORDS_BUILT)
    skipped = engine.stats.value(APPEND_KEYWORDS_SKIPPED)
    print(f"appended {len(new_docs)} document(s) as new segment(s) "
          f"-> {args.store}")
    print(f"append: segments_live={engine.stats.value(SEGMENTS_LIVE)} "
          f"keywords_built={built} keywords_skipped={skipped}")
    print(f"(compact with `python -m repro compact "
          f"--store {args.store}`)")
    _emit_profile(args, engine, tracer)
    return 0


def command_compact(args: argparse.Namespace) -> int:
    from .core.index.segments import compact_store
    exit_code = 0
    for path in shard_store_paths(args.store, args.shards):
        if not os.path.exists(path):
            print(f"error: no index store at {path}", file=sys.stderr)
            exit_code = 2
            continue
        if sniff_store_format(path) == "mmap":
            print(f"error: cannot compact {path}: mmap stores are "
                  f"immutable (a rebuild is already fully compact)",
                  file=sys.stderr)
            exit_code = 2
            continue
        try:
            with SQLiteStore(path) as store:
                catalog = compact_store(store)
                lists = (len(list(store.keywords(
                    catalog.segments[0].namespace)))
                    if catalog is not None else 0)
        except StorageError as exc:
            print(f"error: cannot compact {path}: {exc}",
                  file=sys.stderr)
            exit_code = 2
            continue
        if catalog is None:
            print(f"{path}: no segment catalog; nothing to compact")
        else:
            record = catalog.segments[0]
            print(f"{path}: compacted into segment "
                  f"{record.segment_id} ({len(catalog.live)} live "
                  f"documents, {lists} posting lists)")
    return exit_code


def command_search(args: argparse.Namespace) -> int:
    ontology, corpus = _load_data_directory(args.data)
    tracer = _tracer_from(args)
    engine = _make_engine(args, corpus, ontology, tracer)
    with contextlib.ExitStack() as stack:
        if args.store:
            code = _attach_stores(args, engine, stack,
                                  degrade=not args.strict, warm=False)
            if code != 0:
                return code
        try:
            return _search_and_print(args, engine, tracer)
        except StorageError as exc:
            # Only the strict policy lets a store fault out of a query.
            return _unusable_store(args.store, exc)


def _search_and_print(args: argparse.Namespace, engine: FederatedEngine,
                      tracer: Tracer | None) -> int:
    if args.narrative:
        try:
            engine.enable_narrative()
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    outcome = engine.search_outcome(args.query, k=args.k)
    results = outcome.results
    effective_query = args.query
    if outcome.narrative is not None:
        mapping = outcome.narrative
        effective_query = mapping.query
        print(f"narrative query mapped to: {mapping.query}")
        for m in mapping.mappings:
            target = (f"-> {m.concept_code} ({m.term!r})"
                      if m.concept_code else "kept as plain keywords")
            print(f"  [{m.method}] {m.phrase!r} {target}")
    exit_code = 0
    if not results:
        print("no results")
        exit_code = 1
    for rank, result in enumerate(results, start=1):
        print(f"#{rank}  score={result.score:.3f}  "
              f"{result.dewey.encode()}")
        if args.explain:
            explanation = engine.explain(result, effective_query)
            for item in explanation.evidence:
                print(f"    {item.describe()}")
        fragment = engine.fragment_text(result)
        for line in fragment.splitlines()[:args.fragment_lines]:
            print(f"    {line}")
    print(f"dil-cache: {engine.cache_stats().render()}")
    if args.verbose:
        rendered = engine.stats.render()
        print(f"stats: {rendered}" if rendered else "stats: (none)")
        timers = engine.stats.render_timers()
        if timers:
            print("timers:")
            for line in timers.splitlines():
                print(f"  {line}")
    _emit_profile(args, engine, tracer)
    return exit_code


def command_serve(args: argparse.Namespace) -> int:
    """``repro serve``: the always-on HTTP search service
    (see docs/SERVING.md)."""
    import asyncio

    from .server import SearchService, ServerApp, ServerConfig
    ontology, corpus = _load_data_directory(args.data)
    engine = _make_engine(args, corpus, ontology, None)
    # The stores serve reads until the server has drained.
    with contextlib.ExitStack() as stack:
        if args.store:
            code = _attach_stores(args, engine, stack, degrade=False,
                                  warm=not args.no_warm)
            if code != 0:
                return code
        # Additional corpora: each --corpus NAME=PATH loads its own data
        # directory into its own engine (same strategy and tuning flags)
        # and registers under NAME next to the primary --data corpus.
        extra_corpora: list[tuple[str, str]] = []
        seen_names = {args.corpus_name}
        for spec in args.corpus or ():
            name, separator, path = spec.partition("=")
            if not separator or not name or not path:
                print(f"error: --corpus expects NAME=PATH, got {spec!r}",
                      file=sys.stderr)
                return 2
            if name in seen_names:
                print(f"error: duplicate corpus name {name!r}",
                      file=sys.stderr)
                return 2
            seen_names.add(name)
            extra_corpora.append((name, path))
        service = SearchService(stats=engine.stats,
                                breaker_threshold=args.breaker_threshold,
                                breaker_cooldown=args.breaker_cooldown)
        service.add_corpus(args.corpus_name, engine)
        corpus_sizes = {args.corpus_name: len(corpus)}
        for name, path in extra_corpora:
            extra_ontology, extra_corpus = _load_data_directory(path)
            extra_engine = _make_engine(args, extra_corpus, extra_ontology,
                                        None)
            service.add_corpus(name, extra_engine)
            corpus_sizes[name] = len(extra_corpus)
        app = ServerApp(service, ServerConfig(
            host=args.host, port=args.port,
            max_concurrency=args.concurrency, max_queue=args.queue,
            default_timeout_ms=args.timeout_ms,
            drain_grace=args.drain_grace))

        async def _run() -> None:
            await app.start()
            described = ", ".join(f"{name!r} ({size} documents)"
                                  for name, size in corpus_sizes.items())
            print(f"serving {len(corpus_sizes)} corpus"
                  f"{'es' if len(corpus_sizes) != 1 else ''}: {described} "
                  f"(strategy={args.strategy}, shards={args.shards}) on "
                  f"http://{args.host}:{app.bound_port}", flush=True)
            app.mark_ready()
            print("ready (GET /search /healthz /readyz /metrics; "
                  "SIGTERM drains)", flush=True)
            await app.serve_forever()
            print("drained cleanly; exiting", flush=True)

        asyncio.run(_run())
        return 0


def command_verify_index(args: argparse.Namespace) -> int:
    if not os.path.exists(args.store):
        print(f"error: no index store at {args.store}", file=sys.stderr)
        return 2
    block_lines: list[str] = []
    block_problems: list[str] = []
    try:
        with open_read_store(args.store) as store:
            if isinstance(store, MmapStore):
                from .storage.mmap_store import CONTAINER_VERSION
                from .storage.codec import FORMAT_VERSION
                format_line = (f"format: mmap store (container "
                               f"v{CONTAINER_VERSION}, compact posting "
                               f"blocks v{FORMAT_VERSION})")
                per_strategy, raw, block_problems = store.block_report()
                for strategy in sorted(per_strategy):
                    block_lines.append(
                        f"blocks[{strategy}]: "
                        f"{per_strategy[strategy]} compact posting "
                        f"blocks crc32-verified")
                if raw:
                    block_lines.append(
                        f"blocks: {raw} raw (uncompacted-form) posting "
                        f"records parsed")
            else:
                version = store.get_metadata(MANIFEST_VERSION_KEY)
                format_line = (f"format: sqlite row store (manifest "
                               f"v{version})" if version else
                               "format: sqlite row store (no manifest)")
            report = verify_manifest(store)
    except StorageError as exc:
        print(f"verify-index: FAIL {args.store}: {exc}")
        return 1
    print(f"verify-index: {args.store}")
    print(f"  {format_line}")
    for line in block_lines:
        print(f"  {line}")
    for problem in block_problems:
        print(f"  blocks: FAIL - {problem}")
    for line in report.describe():
        print(f"  {line}")
    return 0 if report.ok and not block_problems else 1


def command_evaluate(args: argparse.Namespace) -> int:
    ontology, corpus = _load_data_directory(args.data)
    engines = build_engines(corpus, ontology)
    oracle = RelevanceOracle(ontology)
    names = list(engines)
    header = f"{'query':<52}" + "".join(f"{name:>15}" for name in names)
    print(header)
    print("-" * len(header))
    totals = dict.fromkeys(names, 0)
    queries = table1_queries()
    for workload_query in queries:
        row = run_survey(engines, oracle, workload_query.text,
                         workload_query.query_id, k=args.k,
                         mark_limit=args.k)
        print(f"{workload_query.text:<52}"
              + "".join(f"{row.counts[name]:>15}" for name in names))
        for name in names:
            totals[name] += row.counts[name]
    print("-" * len(header))
    print(f"{'AVERAGE':<52}" + "".join(
        f"{totals[name] / len(queries):>15.2f}" for name in names))
    return 0


def command_stats(args: argparse.Namespace) -> int:
    ontology, corpus = _load_data_directory(args.data)
    print("ontology:")
    for key, value in ontology.stats().items():
        print(f"  {key}: {value}")
    print("corpus:")
    print(f"  documents: {len(corpus)}")
    print(f"  elements: {corpus.total_nodes()}")
    code_nodes = sum(len(document.code_nodes()) for document in corpus)
    print(f"  ontological references: {code_nodes}")
    print(f"  referenced systems: {sorted(corpus.referenced_systems())}")
    from .core.index.vocabulary import (corpus_vocabulary,
                                        experiment_vocabulary)
    words = corpus_vocabulary(corpus)
    print(f"  vocabulary (document words): {len(words)}")
    print(f"  vocabulary (experiment rule, radius 2): "
          f"{len(experiment_vocabulary(corpus, ontology))}")
    return 0


# ----------------------------------------------------------------------
# Argument parsing
# ----------------------------------------------------------------------
def _bounded_int(text: str, minimum: int, kind: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < minimum:
        raise argparse.ArgumentTypeError(
            f"must be a {kind} integer (got {value})")
    return value


def _positive_int(text: str) -> int:
    """Argparse type for counts the layers below require >= 1 (top-k,
    shards, workers): reject 0/negatives here with a usage error, not
    a traceback."""
    return _bounded_int(text, 1, "positive")


def _non_negative_int(text: str) -> int:
    """Argparse type for counts where 0 is meaningful (``--cache-size
    0`` disables the DIL cache, ``--retries 0`` disables retrying,
    ``--radius 0`` keeps only referenced concepts): negatives are a
    usage error."""
    return _bounded_int(text, 0, "non-negative")


def _add_shard_flags(parser: argparse.ArgumentParser,
                     fan_out: bool = True) -> None:
    parser.add_argument(
        "--shards", type=_positive_int, default=1,
        help="hash-partition the corpus into N shards, one store each "
             "at STORE.shardII-of-NN (1 = the plain STORE path; "
             "rankings are identical at every count)")
    if fan_out:
        parser.add_argument(
            "--shard-workers", type=_positive_int, default=None,
            help="thread-pool size for the shard fan-out "
                 "(default: sequential)")


def _add_read_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache-size", type=_non_negative_int,
                        default=None,
                        help="bound the DIL cache to N lists (LRU); "
                             "default keeps every list")
    parser.add_argument("--retries", type=_non_negative_int, default=2,
                        help="retry budget for transient store faults "
                             "(0 disables retrying; a request deadline "
                             "also bounds it when serving)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="XOntoRank: ontology-aware search of XML EMRs")
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser(
        "generate", help="build a synthetic ontology + CDA corpus")
    generate.add_argument("--out", required=True,
                          help="output data directory")
    generate.add_argument("--patients", type=int, default=40)
    generate.add_argument("--seed", type=int, default=7,
                          help="EMR generator seed")
    generate.add_argument("--ontology-seed", type=int, default=20090331)
    generate.add_argument("--scale", type=float, default=1.0,
                          help="ontology size multiplier")
    generate.set_defaults(handler=command_generate)

    build_ontology = subparsers.add_parser(
        "build-ontology",
        help="build and persist the ontology concept indexes "
             "(name/synonym, xref, hierarchy closure)")
    build_ontology.add_argument(
        "--store", required=True,
        help="destination store for the concept indexes")
    build_ontology.add_argument(
        "--store-format", choices=("sqlite", "mmap"), default="sqlite",
        help="storage backend (default: sqlite; mmap writes the "
             "immutable XMS1 image)")
    build_ontology.add_argument(
        "--data", default=None,
        help="data directory whose ontology/ to index; omit to "
             "stream a generated synthetic SNOMED instead")
    build_ontology.add_argument("--scale", type=float, default=1.0,
                                help="synthetic ontology size "
                                     "multiplier (without --data)")
    build_ontology.add_argument("--ontology-seed", type=int,
                                default=20090331)
    build_ontology.add_argument(
        "--target-concepts", type=int, default=None,
        help="generate approximately this many concepts "
             "(overrides --scale)")
    _add_profiling_flags(build_ontology)
    build_ontology.set_defaults(handler=command_build_ontology)

    index = subparsers.add_parser(
        "index", aliases=["build-index"],
        help="pre-processing phase: build and persist XOnto-DILs")
    index.add_argument("--data", required=True)
    index.add_argument("--store", required=True,
                       help="index store path")
    index.add_argument("--store-format", choices=("sqlite", "mmap"),
                       default="sqlite",
                       help="persistence backend: sqlite (appendable, "
                            "default) or mmap (compact read-only "
                            "container; O(1) open, shared page cache)")
    index.add_argument("--radius", type=_non_negative_int, default=2,
                       help="ontology vocabulary radius (Section VII-B)")
    # Inert shim: accepted and ignored because benchmarks/e2e/building.py
    # still runs `index --workers 2`. It goes when ROADMAP item 1's
    # [benchmark] PR drops index.build.workers2_wall_s.
    index.add_argument("--workers", type=_positive_int, default=1,
                       help=argparse.SUPPRESS)
    index.add_argument("--ontology-cache", default=None, metavar="FILE",
                       help="read OntoScore expansions through a "
                            "persisted cache at FILE (SQLite), keyed "
                            "by ontology fingerprint + strategy + "
                            "parameters; created when absent")
    index.add_argument("--append", action="store_true",
                       help="index only the data directory's new "
                            "documents as one immutable segment of the "
                            "existing store (LSM-style; nothing is "
                            "rebuilt)")
    index.set_defaults(handler=command_index)

    compact = subparsers.add_parser(
        "compact",
        help="fold an incrementally grown store's segments into one")
    compact.add_argument("--store", required=True,
                         help="SQLite database path (logical path with "
                              "--shards)")
    _add_shard_flags(compact, fan_out=False)
    compact.set_defaults(handler=command_compact)

    search = subparsers.add_parser("search",
                                   help="query phase: keyword search")
    search.add_argument("--data", required=True)
    search.add_argument("query")
    search.add_argument("--store", default="",
                        help="optional persisted index to read through")
    search.add_argument("-k", "--top-k", dest="k", type=_positive_int,
                        default=10,
                        help="number of results (positive; bounded "
                             "top-k evaluation)")
    search.add_argument("--narrative", action="store_true",
                        help="treat the query as free clinical "
                             "narrative: extract phrases, map them to "
                             "ontology concepts (exact/synonym/parent "
                             "fallback) and search the mapped keywords")
    search.add_argument("--explain", action="store_true",
                        help="print per-keyword evidence")
    search.add_argument("--fragment-lines", type=int, default=6)
    _add_read_flags(search)
    search.add_argument("--strict", "--no-fallback", dest="strict",
                        action="store_true",
                        help="fail fast on a storage problem the query "
                             "meets instead of degrading to "
                             "corpus-built lists")
    search.add_argument("--verbose", action="store_true",
                        help="print retry/fallback/integrity counters")
    search.set_defaults(handler=command_search)

    serve = subparsers.add_parser(
        "serve",
        help="always-on HTTP search service: warm engines, admission "
             "control, per-request deadlines, circuit-breaker "
             "degradation (docs/SERVING.md)")
    serve.add_argument("--data", required=True,
                       help="data directory (generate one with "
                            "`python -m repro generate`)")
    serve.add_argument("--store", default="",
                       help="persisted index to serve read-through "
                            "(recommended; logical path with --shards)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="0 binds an ephemeral port (printed on "
                            "startup)")
    serve.add_argument("--corpus", action="append", default=None,
                       metavar="NAME=PATH",
                       help="register an additional data directory as "
                            "corpus NAME (repeatable)")
    serve.add_argument("--corpus-name", default="default",
                       help="name clients pass as ?corpus=")
    serve.add_argument("--concurrency", type=_positive_int, default=4,
                       help="worker threads evaluating queries "
                            "(= max concurrent searches)")
    serve.add_argument("--queue", type=int, default=16,
                       help="admitted-but-waiting bound; requests "
                            "beyond concurrency+queue are shed (429)")
    serve.add_argument("--timeout-ms", type=int, default=2000,
                       help="default per-request deadline "
                            "(0 = unbounded; clients override with "
                            "?timeout_ms=)")
    serve.add_argument("--drain-grace", type=float, default=10.0,
                       help="seconds SIGTERM waits for in-flight "
                            "requests before exiting")
    serve.add_argument("--breaker-threshold", type=_positive_int,
                       default=3,
                       help="consecutive shard failures that trip its "
                            "circuit breaker")
    serve.add_argument("--breaker-cooldown", type=float, default=2.0,
                       help="seconds a tripped breaker waits before "
                            "probing the shard again")
    serve.add_argument("--no-warm", action="store_true",
                       help="skip pre-loading posting lists; serve "
                            "cold and fill the cache read-through")
    _add_read_flags(serve)
    _add_shard_flags(serve)
    _add_parameter_flags(serve)
    serve.set_defaults(handler=command_serve)

    verify_index = subparsers.add_parser(
        "verify-index",
        help="check a persisted index's integrity manifest")
    verify_index.add_argument("--store", required=True,
                              help="index store path to verify "
                                   "(backend auto-detected)")
    verify_index.set_defaults(handler=command_verify_index)

    evaluate = subparsers.add_parser(
        "evaluate", help="run the Table-I survey over the workload")
    evaluate.add_argument("--data", required=True)
    evaluate.add_argument("--k", type=int, default=5)
    evaluate.set_defaults(handler=command_evaluate)

    stats = subparsers.add_parser(
        "stats", help="print ontology/corpus/vocabulary statistics")
    stats.add_argument("--data", required=True)
    stats.set_defaults(handler=command_stats)

    for subparser in (index, search):
        _add_parameter_flags(subparser)
        _add_profiling_flags(subparser)
        _add_shard_flags(subparser)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
