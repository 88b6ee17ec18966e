"""Persisted, versioned OntoScore expansion cache (the cache layer of
the ontology service).

OntoScore expansions are pure functions of ``(ontology content,
strategy, expansion parameters, keyword)`` -- yet every index build
recomputes every expansion from the in-memory graph, which is exactly
the cost the Table III / Figure 11 decade sweeps measure. This module
persists the expansions as metadata entries of any :class:`IndexStore`,
keyed by a *descriptor* combining the ontology's content fingerprint
(:meth:`~repro.ontology.model.Ontology.fingerprint`), the strategy
name, and the parameters that shape the flow. Each expansion is one
JSON value -- ``[[concept code, score], ...]`` -- under the key
``onto.cache.<strategy>.<epoch>.<keyword>``. A store whose descriptor
does not match the attaching computation is **invalidated**: the cache
advances to a fresh generation (a new epoch in the key prefix) rather
than serving scores from a different ontology or configuration.

Write-back is buffered: :meth:`OntoScoreCache.put` holds each computed
expansion in memory (where :meth:`~OntoScoreCache.get` already sees it)
until :meth:`~OntoScoreCache.flush` lands the whole batch with one
``put_metadata_many`` -- one transaction per build on SQLite, not one
per keyword. The engine's ``build_index`` and ``add_documents`` flush,
and so does :meth:`~OntoScoreCache.close`.

Counters (``ontology.cache.hits`` / ``.misses`` / ``.invalidations``)
land in the engine's :class:`~repro.core.stats.StatsRegistry`, so a
``--verbose`` build prints the warm/cold ratio next to the DIL cache
stats.
"""

from __future__ import annotations

import json

from ...ir.tokenizer import Keyword
from ...storage.interface import IndexStore
from ..config import XOntoRankConfig
from ..stats import (ONTOLOGY_CACHE_HITS, ONTOLOGY_CACHE_INVALIDATIONS,
                     ONTOLOGY_CACHE_MISSES, StatsRegistry)

#: Bumped whenever the cached-entry encoding changes; part of the
#: descriptor, so old stores invalidate instead of misdecoding.
CACHE_VERSION = "XOC2"

_EPOCH_KEY = "onto.cache.{strategy}.epoch"
_DESCRIPTOR_KEY = "onto.cache.{strategy}.descriptor"


def expansion_params(config: XOntoRankConfig, *,
                     exact: bool | None = None) -> dict:
    """The configuration slice an expansion's output depends on.

    Anything that can change a score must appear here -- a parameter
    missing from the descriptor would let a stale cache serve wrong
    expansions silently.
    """
    return {
        "threshold": config.threshold,
        "decay": config.decay,
        "t": config.t,
        "ir_function": config.ir_function,
        "k1": config.bm25_k1,
        "b": config.bm25_b,
        "exact": config.exact_expansion if exact is None else exact,
    }


class OntoScoreCache:
    """Read-through/write-back cache of per-keyword expansion maps.

    One instance binds a store to one ``(fingerprint, strategy,
    params)`` descriptor. Attaching compares the store's recorded
    descriptor: a match reuses the current generation (warm); a
    mismatch advances the epoch so stale entries become unreachable
    (counted as an invalidation); a fresh store starts at epoch one.
    """

    def __init__(self, store: IndexStore, fingerprint: str,
                 strategy: str, params: dict,
                 stats: StatsRegistry | None = None) -> None:
        self._store = store
        self._stats = stats if stats is not None else StatsRegistry()
        self.strategy = strategy
        self.descriptor = json.dumps(
            {"version": CACHE_VERSION, "fingerprint": fingerprint,
             "strategy": strategy, "params": params},
            sort_keys=True, separators=(",", ":"))
        descriptor_key = _DESCRIPTOR_KEY.format(strategy=strategy)
        epoch_key = _EPOCH_KEY.format(strategy=strategy)
        recorded = store.get_metadata(descriptor_key)
        epoch = int(store.get_metadata(epoch_key, "0") or "0")
        if recorded == self.descriptor:
            self.invalidated = False
        else:
            if recorded is not None:
                self._stats.increment(ONTOLOGY_CACHE_INVALIDATIONS)
            self.invalidated = recorded is not None
            epoch += 1
            store.put_metadata_many([(descriptor_key, self.descriptor),
                                     (epoch_key, str(epoch))])
        self._prefix = f"onto.cache.{strategy}.{epoch}."
        self.epoch = epoch
        # Expansions put since the last flush, keyed like the store.
        self._pending: dict[str, str] = {}

    @property
    def store(self) -> IndexStore:
        return self._store

    @property
    def stats(self) -> StatsRegistry:
        return self._stats

    # ------------------------------------------------------------------
    def _key(self, keyword: Keyword) -> str:
        # The keyword part mirrors repro.core.index.dil.index_key (kept
        # local: the index package imports this package during init):
        # phrases are quoted so "asthma" and asthma stay distinct.
        return self._prefix + (f'"{keyword.text}"' if keyword.is_phrase
                               else keyword.text)

    def get(self, keyword: Keyword) -> dict[str, float] | None:
        """The cached expansion map (buffered or stored), or ``None``
        on a miss."""
        key = self._key(keyword)
        value = self._pending.get(key)
        if value is None:
            value = self._store.get_metadata(key)
        if value is None:
            self._stats.increment(ONTOLOGY_CACHE_MISSES)
            return None
        self._stats.increment(ONTOLOGY_CACHE_HITS)
        return {code: score for code, score in json.loads(value)}

    def put(self, keyword: Keyword, scores: dict[str, float]) -> None:
        """Buffer one keyword's expansion (empty maps included) for the
        next :meth:`flush`."""
        entries = sorted(
            ([str(code), float(score)] for code, score in scores.items()),
            key=lambda item: ((0, len(item[0]), item[0])
                              if item[0].isdigit() else (1, 0, item[0])))
        self._pending[self._key(keyword)] = json.dumps(
            entries, separators=(",", ":"))

    def flush(self) -> None:
        """Write every buffered expansion with one ``put_metadata_many``."""
        if self._pending:
            pending, self._pending = self._pending, {}
            self._store.put_metadata_many(pending.items())

    def close(self) -> None:
        self.flush()
        self._store.close()
