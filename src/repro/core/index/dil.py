"""XOntoRank Dewey Inverted Lists (paper Section V, Figures 9-10).

An XOnto-DIL is the per-keyword posting list of XRANK's Dewey Inverted
List, with one key difference: "instead of [term frequencies] we store
NS(v, w), the relevance score of node v with respect to keyword w given
the XML documents and the ontological systems, defined in (5)". Postings
are ``(Dewey ID, NodeScore)`` pairs sorted by Dewey ID, i.e. global
document order, which is what the stack-merge query algorithm requires.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from ...ir.tokenizer import Keyword
from ...storage.codec import encode_triples
from ...storage.interface import EncodedPosting
from ...xmldoc.dewey import DeweyID


def index_key(keyword: Keyword) -> str:
    """Canonical index/cache key of a keyword.

    Phrases are stored quoted so a quoted single-word phrase
    (``"asthma"``) and the bare term (``asthma``) get distinct posting
    lists -- they have identical matching semantics today, but sharing a
    key would silently merge their statistics and make the collision
    load-bearing. Bare multi-word keys remain parseable for backward
    compatibility with pre-quoting stores.
    """
    return f'"{keyword.text}"' if keyword.is_phrase else keyword.text


def keyword_from_key(key: str) -> Keyword:
    """Inverse of :func:`index_key` (tolerates legacy unquoted keys)."""
    is_phrase = len(key) >= 2 and key[0] == '"' and key[-1] == '"'
    text = key[1:-1] if is_phrase else key
    tokens = tuple(text.split(" "))
    return Keyword(tokens=tokens,
                   is_phrase=is_phrase or len(tokens) > 1)


@dataclass(frozen=True, order=True)
class Posting:
    """One entry of an XOnto-DIL: a node and its NodeScore."""

    dewey: DeweyID
    score: float

    def encoded(self) -> EncodedPosting:
        return (self.dewey.encode(), self.score)

    #: Storage footprint estimate in bytes: the dotted-decimal Dewey ID
    #: plus an 8-byte float, mirroring how Table III sizes DIL entries.
    def size_bytes(self) -> int:
        return len(self.dewey.encode()) + 8


def _posting_key(posting: Posting) -> tuple:
    dewey = posting.dewey
    return (dewey.doc_id, dewey.path, posting.score)


class DeweyInvertedList:
    """The sorted posting list of one keyword."""

    #: The compact posting block backing this list, or ``None`` for an
    #: eager (materialized) list. The query processor's document
    #: streams use it to decode one document run at a time instead of
    #: bisecting a materialized sequence.
    block = None

    def __init__(self, keyword: Keyword,
                 postings: Sequence[Posting] = ()) -> None:
        self.keyword = keyword
        # The same order as Posting's dataclass ``__lt__``, without a
        # DeweyID comparison per step.
        self._postings = sorted(postings, key=_posting_key)
        self._doc_max: dict[int, float] | None = None
        self._size_bytes: int | None = None
        previous = None
        for posting in self._postings:
            key = (posting.dewey.doc_id, posting.dewey.path)
            if key == previous:
                raise ValueError(
                    f"duplicate posting for {posting.dewey.encode()}")
            previous = key

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._postings)

    def __iter__(self) -> Iterator[Posting]:
        return iter(self._postings)

    def __bool__(self) -> bool:
        return bool(self._postings)

    def postings(self) -> list[Posting]:
        return list(self._postings)

    def sorted_postings(self) -> Sequence[Posting]:
        """The internal Dewey-sorted posting sequence, without copying.

        Callers must treat the returned sequence as read-only; it is the
        list the query processor streams over (and bisects into for
        document-granular skipping), so copying it would defeat the
        streaming memory bound.
        """
        return self._postings

    def doc_max_scores(self) -> dict[int, float]:
        """Per-document maximum NodeScore of this list.

        This is the block-max metadata of the top-k query mode: with one
        entry per document, ``sum(doc_max per keyword)`` upper-bounds
        every Eq. 4 result score inside that document (propagation only
        attenuates, ``decay <= 1``), so whole documents can be skipped
        once a bounded result heap is full. Computed lazily on first use
        and cached -- the list is immutable after construction.
        """
        if self._doc_max is None:
            maxes: dict[int, float] = {}
            for posting in self._postings:
                doc_id = posting.dewey.doc_id
                best = maxes.get(doc_id)
                if best is None or posting.score > best:
                    maxes[doc_id] = posting.score
            self._doc_max = maxes
        return self._doc_max

    def size_bytes(self) -> int:
        """Estimated storage size of the list (Table III's "Size (KB)").
        Computed on first use and cached, like :meth:`doc_max_scores`."""
        if self._size_bytes is None:
            self._size_bytes = sum(posting.size_bytes()
                                   for posting in self._postings)
        return self._size_bytes

    def document_ids(self) -> set[int]:
        return {posting.dewey.doc_id for posting in self._postings}

    # ------------------------------------------------------------------
    def encoded(self) -> list[EncodedPosting]:
        return [posting.encoded() for posting in self._postings]

    def items(self) -> Iterator[tuple[int, tuple[int, ...], float]]:
        """``(doc_id, path, score)`` triples in Dewey order."""
        return ((posting.dewey.doc_id, posting.dewey.path, posting.score)
                for posting in self._postings)

    def to_bytes(self) -> bytes:
        """The list as one XPB1 block -- what stores persist."""
        return encode_triples(self.items())

    @staticmethod
    def from_block(keyword: Keyword, block) -> "DeweyInvertedList":
        """Wrap a compact :class:`~repro.storage.codec.PostingBlock`
        without decoding it (see :class:`CompactDeweyInvertedList`)."""
        return CompactDeweyInvertedList(keyword, block)


class CompactDeweyInvertedList(DeweyInvertedList):
    """A posting list served lazily from one compact binary block.

    Construction is O(1) in the posting count: the block's document
    directory has already been parsed by the codec, so
    :meth:`doc_max_scores` (the bounded-top-k pruning sidecar) and
    :meth:`document_ids` answer without decoding a single posting.
    :meth:`doc_run` decodes one document's run the first time a query
    visits the document and keeps it: the memo lives as long as the
    list does, so a list the DIL cache holds is decoded at most once
    per document, and an evicted list takes its runs with it.
    Whole-list consumers (:meth:`sorted_postings`, iteration) decode
    and cache the materialized list on first use, after which this
    behaves exactly like an eager list -- the class is a representation
    change, not a semantic one, which is what the byte-identical
    ``canonical_dump`` differential suite pins.
    """

    def __init__(self, keyword: Keyword, block) -> None:
        self.keyword = keyword
        self.block = block
        self._doc_max: dict[int, float] | None = None
        self._materialized: list[Posting] | None = None
        self._runs: dict[int, list[tuple[tuple[int, ...], float]]] = {}

    def _postings_list(self) -> list[Posting]:
        if self._materialized is None:
            self._materialized = [
                Posting(DeweyID(doc_id, path), score)
                for doc_id, path, score in self.block.items()]
        return self._materialized

    # -- directory-only reads (never decode postings) -------------------
    def __len__(self) -> int:
        return self.block.posting_count

    def __bool__(self) -> bool:
        return self.block.posting_count > 0

    def doc_max_scores(self) -> dict[int, float]:
        if self._doc_max is None:
            self._doc_max = self.block.doc_max_scores()
        return self._doc_max

    def document_ids(self) -> set[int]:
        return set(self.block.doc_ids())

    def size_bytes(self) -> int:
        """For a compact list the estimate is exact: the block's own
        byte length (header included)."""
        return self.block.size_bytes()

    # -- decoding reads --------------------------------------------------
    def doc_run(self, doc_id: int) -> list[tuple[tuple[int, ...], float]]:
        """One document's ``(path, score)`` run, decoded on the first
        visit and memoized. Concurrent queries may both decode a run;
        they store equal lists."""
        run = self._runs.get(doc_id)
        if run is None:
            run = self._runs[doc_id] = self.block.doc_postings(doc_id)
        return run

    def __iter__(self) -> Iterator[Posting]:
        if self._materialized is not None:
            return iter(self._materialized)
        return (Posting(DeweyID(doc_id, path), score)
                for doc_id, path, score in self.block.items())

    def postings(self) -> list[Posting]:
        return list(self._postings_list())

    def sorted_postings(self) -> Sequence[Posting]:
        return self._postings_list()

    def encoded(self) -> list[EncodedPosting]:
        return self.block.encoded()

    def items(self) -> Iterator[tuple[int, tuple[int, ...], float]]:
        return self.block.items()

    def to_bytes(self) -> bytes:
        return self.block.to_bytes()


@dataclass
class KeywordBuildStats:
    """Per-keyword index-creation measurements (Table III's columns).

    The posting count and size are read from the built list on demand,
    so a build whose statistics are discarded (a query-time cache
    miss) never sizes its postings.
    """

    keyword: str
    creation_time_ms: float
    dil: DeweyInvertedList = field(repr=False, compare=False)
    ontology_entries: int = 0  # size of the OntoScore hash-map slice

    @property
    def posting_count(self) -> int:
        return len(self.dil)

    @property
    def size_bytes(self) -> int:
        return self.dil.size_bytes()


@dataclass
class XOntoDILIndex:
    """The full index of one strategy: keyword → Dewey inverted list."""

    strategy: str
    lists: dict[str, DeweyInvertedList] = field(default_factory=dict)
    stats: dict[str, KeywordBuildStats] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def add(self, dil: DeweyInvertedList,
            stats: KeywordBuildStats | None = None) -> None:
        key = index_key(dil.keyword)
        self.lists[key] = dil
        if stats is not None:
            self.stats[key] = stats

    def get(self, keyword: Keyword) -> DeweyInvertedList | None:
        return self.lists.get(index_key(keyword))

    def __contains__(self, keyword: Keyword) -> bool:
        return index_key(keyword) in self.lists

    def __len__(self) -> int:
        return len(self.lists)

    def keywords(self) -> list[str]:
        return sorted(self.lists)

    # ------------------------------------------------------------------
    def total_postings(self) -> int:
        return sum(len(dil) for dil in self.lists.values())

    def total_size_bytes(self) -> int:
        return sum(dil.size_bytes() for dil in self.lists.values())

    def average_stats(self) -> dict[str, float]:
        """Per-keyword averages: Table III's three columns."""
        if not self.stats:
            return {"creation_time_ms": 0.0, "postings": 0.0,
                    "size_kb": 0.0}
        count = len(self.stats)
        return {
            "creation_time_ms": sum(s.creation_time_ms
                                    for s in self.stats.values()) / count,
            "postings": sum(s.posting_count
                            for s in self.stats.values()) / count,
            "size_kb": sum(s.size_bytes
                           for s in self.stats.values()) / count / 1024.0,
        }
