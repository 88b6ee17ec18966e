"""Seeded workload generators and the Eq. 1 oracle.

``--seed`` is the only source of randomness: every draw below comes
from :func:`stream`, a ``random.Random`` keyed by the seed and a
purpose label, so the same seed gives byte-identical request mixes,
arrival schedules and document orders in every process.

The *corpus* of a workload is an input size, not a random draw: it is
what ``python -m repro generate --patients N`` writes with the
program's default EMR seed. Patient records vary several-fold in
size, so a corpus redrawn per seed moves build time and posting-list
length by +/-15 % at these sizes -- more than any bound the benchmark
sets -- while saying nothing about the program.

The module's pure generators import nothing from :mod:`repro`; the
functions that load a data directory or compute expected answers
import it lazily.
"""

from __future__ import annotations

import os
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence
from urllib.parse import urlencode

STRATEGY = "relationships"
TOP_K = 10

#: Stopword-only frames a selective query is embedded in when it is
#: sent as clinical narrative (every frame word is in the tokenizer's
#: stopword list, so the keywords stay the text's whole content).
GLUE_ONE = ("was on {0}", "has {0}", "is at {0} and it was", "with a {0}")
GLUE_TWO = ("was on {0} and {1}", "has {0} with {1}",
            "{0} and was on {1}", "the {0} is from {1}")

_ALPHABETIC = re.compile(r"^[a-z]+$")


def stream(seed: int, purpose: str) -> random.Random:
    """The seed's independent random stream for one purpose."""
    return random.Random(f"xontorank-e2e:{seed}:{purpose}")


@dataclass(frozen=True)
class Request:
    """One ``/search`` request of a serving workload."""

    text: str
    narrative: bool = False

    def path(self, k: int = TOP_K) -> str:
        params = {"q": self.text, "k": str(k)}
        if self.narrative:
            params["narrative"] = "1"
        return "/search?" + urlencode(params)


# ----------------------------------------------------------------------
# Pure generators
# ----------------------------------------------------------------------
def selective_keywords(posting_counts: dict[str, int]) -> list[str]:
    """Alphabetic single-word index keys whose posting count is at or
    below the vocabulary median, sorted (the draw pool of
    ``serve_selective``)."""
    if not posting_counts:
        raise ValueError("empty vocabulary")
    ordered = sorted(posting_counts.values())
    cutoff = ordered[(len(ordered) - 1) // 2]
    return sorted(key for key, count in posting_counts.items()
                  if count <= cutoff and _ALPHABETIC.match(key))


def selective_requests(pool: Sequence[str], seed: int, count: int = 128,
                       narrative_share: float = 0.25) -> list[Request]:
    """``count`` distinct selective requests: half one keyword, half
    two, ``narrative_share`` of them wrapped in stopword glue and
    flagged ``narrative=1``."""
    rng = stream(seed, "selective")
    if len(pool) < 2:
        raise ValueError("selective pool needs at least two keywords")
    narrative_every = round(1 / narrative_share)
    requests: list[Request] = []
    seen: set[str] = set()
    attempts = 0
    while len(requests) < count:
        attempts += 1
        if attempts > 100 * count:
            raise ValueError("selective pool too small for "
                             f"{count} distinct requests")
        words = rng.sample(pool, 1 + len(requests) % 2)
        # Whole (one-keyword, two-keyword) pairs turn narrative, so
        # the narrative share has both shapes too.
        narrative = (len(requests) // 2) % narrative_every \
            == narrative_every - 1
        if narrative:
            frames = GLUE_ONE if len(words) == 1 else GLUE_TWO
            text = rng.choice(frames).format(*words)
        else:
            text = " ".join(words)
        if text in seen:
            continue
        seen.add(text)
        requests.append(Request(text, narrative))
    return requests


def zipf_draws(population: int, count: int, seed: int,
               exponent: float = 1.0) -> list[int]:
    """``count`` indexes into a ranked population, item r (0-based)
    drawn with probability proportional to ``1 / (r + 1)**exponent``.
    The ranks are the population's own order -- which items are hot
    is part of the workload, so that runs with different seeds serve
    the same mix; the seed draws the sequence."""
    weights = [1.0 / (rank + 1) ** exponent for rank in range(population)]
    return stream(seed, "zipf").choices(range(population),
                                        weights=weights, k=count)


def poisson_schedule(rate: float, seconds: float, seed: int) -> list[float]:
    """Arrival offsets of a Poisson process of ``rate`` per second over
    ``seconds``, conditioned on its expected count: given N arrivals
    in a window a Poisson process places them uniformly, so drawing N
    = rate x seconds uniform offsets keeps the arrival statistics and
    removes the +/-1/sqrt(N) run-to-run swing in offered load."""
    rng = stream(seed, "arrivals")
    count = max(1, round(rate * seconds))
    return sorted(rng.uniform(0.0, seconds) for _ in range(count))


def shuffled(items: Sequence, seed: int, purpose: str) -> list:
    out = list(items)
    stream(seed, purpose).shuffle(out)
    return out


# ----------------------------------------------------------------------
# Data directories (what `repro generate` wrote)
# ----------------------------------------------------------------------
def corpus_files(data_dir: Path) -> list[Path]:
    return sorted((data_dir / "corpus").glob("*.xml"))


def permute_corpus(data_dir: Path, seed: int) -> list[int]:
    """Rename the corpus files so their sorted order -- and with it
    every positional document id -- is a seeded permutation of the
    generated order. The bytes indexed stay the same, their order and
    ids do not. Returns the permutation applied."""
    files = corpus_files(data_dir)
    order = shuffled(range(len(files)), seed, "doc-order")
    staged = []
    for position, source in enumerate(order):
        target = files[source].with_name(f"staged-{position:04d}.tmp")
        files[source].rename(target)
        staged.append(target)
    for position, path in enumerate(staged):
        path.rename(path.with_name(f"patient-{position:04d}.xml"))
    return order


def load_data_dir(data_dir: Path):
    """``(ontology, documents)`` of a generated data directory, the
    way the CLI reads one: files in sorted order, positional ids."""
    from repro.ontology.io import load_ontology
    from repro.xmldoc.parser import XMLParser

    ontology = load_ontology(os.path.join(data_dir, "ontology"))
    parser = XMLParser()
    documents = [parser.parse_file(str(path), doc_id=doc_id)
                 for doc_id, path in enumerate(corpus_files(data_dir))]
    return ontology, documents


def vocabulary_counts(store_path: Path) -> dict[str, int]:
    """Index key -> posting count of a persisted store."""
    from repro.storage.mmap_store import open_read_store

    with open_read_store(str(store_path)) as store:
        return {key: store.posting_count(STRATEGY, key)
                for key in store.keywords(STRATEGY)}


# ----------------------------------------------------------------------
# The oracle
# ----------------------------------------------------------------------
Ranking = tuple[tuple[int, str, float], ...]


def ranking_of(results) -> Ranking:
    """``(doc_id, dewey, score)`` rows in the precision the HTTP API
    serializes (scores rounded to six places)."""
    return tuple((result.doc_id, result.dewey.encode(),
                  round(result.score, 6)) for result in results)


def ranking_of_body(body: dict) -> Ranking:
    return tuple((row["doc_id"], row["dewey"], row["score"])
                 for row in body["results"])


class Oracle:
    """Expected top-k answers by the paper's Eq. 1 semantics, computed
    with the naive tree-walking evaluator (no inverted lists, no stack
    merge, no cache, no store) over the same documents."""

    def __init__(self, ontology, documents) -> None:
        from repro import XOntoRankEngine
        from repro.core.query.naive import NaiveEvaluator
        from repro.core.query.narrative import NarrativeQueryMapper
        from repro.xmldoc.model import Corpus

        self.engine = XOntoRankEngine(Corpus(list(documents)), ontology,
                                      strategy=STRATEGY)
        self._naive = NaiveEvaluator(self.engine.builder.node_scorer,
                                     decay=self.engine.config.decay)
        self._mapper = NarrativeQueryMapper(self.engine.terminology)

    def results(self, request: Request, k: int = TOP_K,
                live: frozenset[int] | None = None) -> list:
        """The top-k ``QueryResult`` rows of ``request``; with
        ``live``, over that subset of the documents only (results of
        different documents are independent, so filtering the full
        enumeration is exact)."""
        from repro.ir.tokenizer import KeywordQuery

        query = (self._mapper.map(request.text).query
                 if request.narrative
                 else KeywordQuery.parse(request.text))
        results = self._naive.execute(query, k=None)
        if live is not None:
            results = [result for result in results
                       if result.doc_id in live]
        return results[:k]

    def expected(self, request: Request, k: int = TOP_K,
                 live: frozenset[int] | None = None) -> Ranking:
        return ranking_of(self.results(request, k, live))


def curated_requests() -> list[Request]:
    """The paper's twenty expert queries (Table I plus the Kendall-tau
    extension)."""
    from repro.evaluation.workload import WORKLOAD

    return [Request(query.text) for query in WORKLOAD]


def cli_ranking(stdout: str) -> tuple[tuple[str, str], ...]:
    """``(dewey, score)`` text pairs of the ``#rank score=... dewey``
    lines ``repro search`` prints."""
    rows = re.findall(r"^#\d+\s+score=(\S+)\s+(\S+)\s*$", stdout,
                      flags=re.MULTILINE)
    return tuple((dewey, score) for score, dewey in rows)


def batches(items: Sequence, size: int) -> list[list]:
    return [list(items[start:start + size])
            for start in range(0, len(items), size)]
