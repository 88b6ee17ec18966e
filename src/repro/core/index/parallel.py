"""Parallel XOnto-DIL index construction (paper Section V-B at scale).

Table III shows index creation dominating total cost, and per-keyword
DIL construction is embarrassingly parallel: each list depends only on
the shared element index and ontology, never on another keyword's list.
:class:`ParallelIndexBuilder` exploits that by partitioning the sorted
vocabulary into contiguous chunks and building each chunk on a
``concurrent.futures`` worker pool.

Two pool flavors, chosen by ``mode``:

* ``"process"`` -- a fork-context :class:`~concurrent.futures.ProcessPoolExecutor`.
  OntoScore expansion is CPU-bound pure Python, so separate processes
  are the only way to real speedup under the GIL. Workers inherit the
  (read-only) builder through ``fork`` rather than pickling the corpus
  per task; each task returns encoded postings, which pickle cheaply.
* ``"thread"`` -- a :class:`~concurrent.futures.ThreadPoolExecutor`.
  No fork cost, no pickling; the fallback for small vocabularies, for
  platforms without ``fork``, and for GIL-free interpreters.

``mode="auto"`` chooses by *measured* cost rather than a fixed size
cutoff: the first vocabulary chunk is built serially as a timed probe,
and :func:`choose_mode` projects the remaining serial cost against the
process-pool cost (fork overhead plus the parallelized remainder).
Processes are picked only when the projection says they win; a tiny or
cheap vocabulary therefore never pays a fork it cannot amortize. The
legacy ``PROCESS_MODE_THRESHOLD`` word-count cutoff remains only as the
fallback when no probe signal exists (a single chunk, or a zero-cost
probe).

**Determinism contract.** The parallel build must be indistinguishable
from ``IndexBuilder.build`` (the serial reference): identical DIL
entries, identical persisted posting lists written in identical order,
identical search results afterwards. Chunks are formed from the sorted
vocabulary, and completed shards are merged and flushed strictly in
chunk order (out-of-order completions are buffered), so both the
in-memory index and the sequence of ``put_postings`` calls match the
serial build exactly. Per-keyword *timings* in the build stats are the
one sanctioned difference. ``tests/property/test_parallel_vs_serial.py``
enforces the contract over randomized corpora for all four strategies.

**Bounded memory.** With a ``store``, each shard is persisted as soon
as all earlier chunks have been flushed; with ``keep_lists=False`` the
posting lists are dropped right after persisting (build stats are
retained), so peak memory is one in-flight shard per worker instead of
the whole index.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import os
import time
from typing import Iterable, Sequence

from ...ir.tokenizer import Keyword
from ...storage.interface import EncodedPosting, IndexStore
from ..obs.tracer import NULL_TRACER
from ..stats import StatsRegistry
from .builder import IndexBuilder
from .dil import (DeweyInvertedList, KeywordBuildStats, XOntoDILIndex,
                  index_key)

#: Legacy ``mode="auto"`` cutoff, now only the fallback when the timed
#: probe yields no signal: below this vocabulary size the fork +
#: result-pickling overhead beat any parallel gain on the paper-scale
#: corpora.
PROCESS_MODE_THRESHOLD = 512

#: Assumed cost of standing up one forked worker (fork + first-task
#: warmup + result pickling), the fixed term of the process-pool cost
#: projection in :func:`choose_mode`. Deliberately conservative: when
#: the projected win is within the noise of this constant, threads (no
#: fixed cost, exact same results) are the safe choice.
FORK_OVERHEAD_SECONDS = 0.15


def choose_mode(probe_seconds: float, probe_words: int,
                remaining_words: int, workers: int,
                fork_available: bool,
                fork_overhead: float = FORK_OVERHEAD_SECONDS) -> str:
    """Pick ``"process"`` or ``"thread"`` from a measured probe.

    Pure function of its inputs (testable without building anything):
    the probe says one keyword costs ``probe_seconds / probe_words``
    serially, so finishing the remaining words serially costs ``S``.
    A process pool costs ``fork_overhead * workers + S / workers``;
    processes are chosen only when that projection beats ``S`` -- i.e.
    the fork is actually amortized. With no usable probe signal the
    legacy :data:`PROCESS_MODE_THRESHOLD` size cutoff decides.
    """
    if not fork_available or workers < 2 or remaining_words <= 0:
        return "thread"
    if probe_words <= 0 or probe_seconds <= 0.0:
        return ("process" if remaining_words >= PROCESS_MODE_THRESHOLD
                else "thread")
    serial_remaining = (probe_seconds / probe_words) * remaining_words
    process_projection = (fork_overhead * workers
                          + serial_remaining / workers)
    return ("process" if process_projection < serial_remaining
            else "thread")

#: One row of a shard as shipped back from a worker:
#: ``(tokens, is_phrase, encoded postings, stats tuple)``. Encoded
#: (not object) form keeps the pickle payload flat and cheap; the
#: shard itself is ``(worker wall seconds, rows)``.
_EncodedEntry = tuple[tuple[str, ...], bool, list[EncodedPosting],
                      tuple[str, float, int, int, int]]

#: Builder shared with forked workers (set only around a process-pool
#: build; fork copies it into each worker, so nothing is pickled).
_FORK_BUILDER: IndexBuilder | None = None


def _build_chunk(builder: IndexBuilder, words: Sequence[str],
                 ) -> tuple[float, list[_EncodedEntry]]:
    """Stages 2+3 for one vocabulary chunk, in encoded form.

    Returns ``(elapsed seconds, entries)`` -- the wall time is measured
    inside the worker (span tracers don't cross the fork boundary) and
    shipped back so the parent can feed its per-shard timer.
    """
    started = time.perf_counter()
    entries: list[_EncodedEntry] = []
    for word in words:
        keyword = Keyword.from_text(word)
        dil, stats = builder.build_keyword(keyword)
        entries.append((
            keyword.tokens, keyword.is_phrase, dil.encoded(),
            (stats.keyword, stats.creation_time_ms, stats.posting_count,
             stats.size_bytes, stats.ontology_entries)))
    return time.perf_counter() - started, entries


def _build_chunk_in_fork(words: Sequence[str],
                         ) -> tuple[float, list[_EncodedEntry]]:
    assert _FORK_BUILDER is not None, "worker forked before builder set"
    return _build_chunk(_FORK_BUILDER, words)


def _decode_entry(entry: _EncodedEntry,
                  ) -> tuple[DeweyInvertedList, KeywordBuildStats]:
    tokens, is_phrase, encoded, stat_row = entry
    keyword = Keyword(tokens=tuple(tokens), is_phrase=is_phrase)
    dil = DeweyInvertedList.from_encoded(keyword, encoded)
    text, elapsed_ms, posting_count, size_bytes, onto_entries = stat_row
    stats = KeywordBuildStats(
        keyword=text, creation_time_ms=elapsed_ms,
        posting_count=posting_count, size_bytes=size_bytes,
        ontology_entries=onto_entries)
    return dil, stats


class ParallelIndexBuilder:
    """Builds one strategy's XOnto-DIL index on a worker pool."""

    def __init__(self, builder: IndexBuilder, workers: int | None = None,
                 mode: str = "auto", chunk_size: int | None = None,
                 stats: StatsRegistry | None = None,
                 tracer=None) -> None:
        if mode not in ("auto", "thread", "process"):
            raise ValueError(f"unknown pool mode {mode!r}")
        if workers is not None and workers < 1:
            raise ValueError("workers must be >= 1")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        self._builder = builder
        self._workers = workers or (os.cpu_count() or 1)
        self._mode = mode
        self._chunk_size = chunk_size
        self._stats = stats if stats is not None else StatsRegistry()
        self._tracer = tracer if tracer is not None else NULL_TRACER

    # ------------------------------------------------------------------
    @property
    def workers(self) -> int:
        return self._workers

    @property
    def registry(self) -> StatsRegistry:
        """Registry recording chunk/keyword/mode counters of builds."""
        return self._stats

    # ------------------------------------------------------------------
    def build(self, vocabulary: Iterable[str],
              strategy_name: str | None = None,
              store: IndexStore | None = None,
              keep_lists: bool = True) -> XOntoDILIndex:
        """Build DILs for every word of ``vocabulary`` in parallel.

        Mirrors :meth:`IndexBuilder.build`, plus streaming persistence:
        when ``store`` is given, shards are written through
        ``put_postings`` in deterministic (sorted-vocabulary) order as
        they complete, and ``keep_lists=False`` additionally drops each
        posting list after persisting it to bound memory.
        """
        strategy = strategy_name or self._builder.ontoscore.name
        index = XOntoDILIndex(strategy=strategy)
        words = sorted(set(vocabulary))
        if keep_lists is False and store is None:
            raise ValueError("keep_lists=False needs a store to stream to")
        if not words:
            return index
        chunks = self._partition(words)
        # Measured-cost mode choice: with ``auto`` and a real pool to
        # choose for, chunk 0 is built serially as a timed probe (its
        # work is needed anyway, so a wrong-looking probe costs
        # nothing) and choose_mode projects the rest.
        probe_shard = None
        if (self._mode == "auto" and self._workers > 1
                and len(chunks) > 1):
            probe_shard = _build_chunk(self._builder, chunks[0])
            self._stats.observe("parallel_build.probe", probe_shard[0])
            mode = choose_mode(
                probe_shard[0], len(chunks[0]),
                len(words) - len(chunks[0]),
                min(self._workers, len(chunks) - 1),
                "fork" in multiprocessing.get_all_start_methods())
        else:
            mode = self._resolved_mode(len(words))
        # One lock acquisition for the whole build header.
        self._stats.increment_many({
            "parallel_build.builds": 1,
            "parallel_build.keywords": len(words),
            "parallel_build.chunks": len(chunks),
            f"parallel_build.mode.{mode}": 1,
        })
        with self._tracer.span("index.parallel_build", mode=mode,
                               keywords=len(words), chunks=len(chunks)):
            if mode == "serial":
                shards = (probe_shard if chunk_id == 0
                          and probe_shard is not None
                          else _build_chunk(self._builder, chunk)
                          for chunk_id, chunk in enumerate(chunks))
                for chunk_id, shard in enumerate(shards):
                    self._merge_shard(index, shard, store, keep_lists,
                                      chunk_id)
            else:
                offset = 0
                pooled = chunks
                if probe_shard is not None:
                    self._merge_shard(index, probe_shard, store,
                                      keep_lists, 0)
                    offset, pooled = 1, chunks[1:]
                for chunk_id, shard in enumerate(
                        self._run_pool(pooled, mode)):
                    self._merge_shard(index, shard, store, keep_lists,
                                      offset + chunk_id)
        return index

    # ------------------------------------------------------------------
    def _partition(self, words: Sequence[str]) -> list[Sequence[str]]:
        """Contiguous chunks of the sorted vocabulary.

        Several chunks per worker (rather than one) so a chunk of slow
        keywords cannot serialize the tail of the build.
        """
        size = self._chunk_size
        if size is None:
            size = max(1, -(-len(words) // (self._workers * 4)))
        return [words[start:start + size]
                for start in range(0, len(words), size)]

    def _resolved_mode(self, word_count: int) -> str:
        if self._workers == 1:
            return "serial"
        if self._mode == "auto":
            if (word_count >= PROCESS_MODE_THRESHOLD
                    and "fork" in multiprocessing.get_all_start_methods()):
                return "process"
            return "thread"
        if (self._mode == "process"
                and "fork" not in multiprocessing.get_all_start_methods()):
            return "thread"
        return self._mode

    def _run_pool(self, chunks: list[Sequence[str]], mode: str):
        """Yield shards strictly in chunk order as workers finish.

        Completed out-of-order shards are buffered; the buffer can hold
        at most ``workers`` shards beyond the flush frontier, so memory
        stays bounded even when one early chunk is slow.
        """
        global _FORK_BUILDER
        workers = min(self._workers, len(chunks))
        if mode == "process":
            _FORK_BUILDER = self._builder
            pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=workers,
                mp_context=multiprocessing.get_context("fork"))
            task = _build_chunk_in_fork
            futures = {}
        else:
            pool = concurrent.futures.ThreadPoolExecutor(
                max_workers=workers,
                thread_name_prefix="xonto-dil-build")
            task = None
            futures = {}
        try:
            with pool:
                for chunk_id, chunk in enumerate(chunks):
                    if task is not None:
                        future = pool.submit(task, chunk)
                    else:
                        future = pool.submit(_build_chunk, self._builder,
                                             chunk)
                    futures[future] = chunk_id
                ready: dict[int, tuple[float, list[_EncodedEntry]]] = {}
                next_chunk = 0
                for future in concurrent.futures.as_completed(futures):
                    ready[futures[future]] = future.result()
                    while next_chunk in ready:
                        yield ready.pop(next_chunk)
                        next_chunk += 1
        finally:
            if mode == "process":
                _FORK_BUILDER = None

    def _merge_shard(self, index: XOntoDILIndex,
                     shard: tuple[float, list[_EncodedEntry]],
                     store: IndexStore | None, keep_lists: bool,
                     chunk_id: int) -> None:
        build_seconds, entries = shard
        # The worker-side wall time rides along with the shard (a
        # tracer cannot observe across the fork); the merge itself is
        # spanned here in the parent.
        self._stats.observe("parallel_build.shard_build", build_seconds)
        if self._tracer.registry is not self._stats:
            self._tracer.observe("parallel_build.shard_build",
                                 build_seconds)
        postings_flushed = 0
        batch = []
        with self._tracer.span("index.merge_shard", chunk=chunk_id,
                               keywords=len(entries)) as span:
            for entry in entries:
                dil, stats = _decode_entry(entry)
                index.add(dil, stats)
                if store is not None:
                    key = index_key(dil.keyword)
                    if dil:  # stores treat empty lists as absent
                        batch.append((key, dil.encoded()))
                        postings_flushed += len(dil)
                    if not keep_lists:
                        del index.lists[key]
            if batch:  # the whole shard is one store transaction
                store.put_postings_many(index.strategy, batch)
            span.annotate(postings_flushed=postings_flushed)
        # Per-shard counters land as one batch, not one lock
        # acquisition per keyword/posting.
        self._stats.increment_many({
            "parallel_build.shards_merged": 1,
            "parallel_build.keywords_merged": len(entries),
            "parallel_build.postings_flushed": postings_flushed,
        })
