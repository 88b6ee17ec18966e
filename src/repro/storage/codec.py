"""Compact binary posting blocks (the XPB1 codec).

A :class:`~repro.core.index.dil.DeweyInvertedList` is, at rest, a list
of ``(dewey, score)`` pairs sorted by Dewey ID.  Storing each posting
as a Python tuple costs a few hundred bytes of object headers per
posting and forces a full deserialize before the first byte of query
work; the top-k engine then throws 91-100% of those postings away
unread.  This module packs a whole posting list into one flat binary
*block* that

* delta-encodes Dewey IDs (varint document-id gaps in a directory,
  prefix-shared path components inside each per-document run),
* keeps a *document directory* up front -- ``(doc_id, posting count,
  run byte-length, doc max score)`` per document -- so bounded top-k
  reads its pruning bounds **without touching a single posting**, and
* decodes lazily, one document run at a time, behind the existing
  ``DeweyInvertedList`` API.

The block is the only posting representation that crosses the
:class:`~repro.storage.interface.IndexStore` boundary: writers encode
blocks straight from ``(doc_id, path, score)`` triples
(:func:`encode_triples`), every backend stores them as they are, and
every read hands back a :class:`PostingBlock`.

The byte layout is normatively specified in ``docs/STORAGE.md``; this
docstring is a summary, the spec wins.  In short::

    block   := header payload
    header  := magic "XPB1" | version u8 | reserved[3] |
               crc32(payload) u32le | len(payload) u32le
    payload := varint n_docs | varint n_postings |
               directory[n_docs] | run[n_docs]
    dirent  := varint doc_id_delta | varint run_postings |
               varint run_bytes | doc_max f64le
    run     := posting[run_postings]
    posting := varint reuse | varint extend |
               varint component[extend] | score f64le

Scores are verbatim IEEE-754 doubles, so a decode round-trips the
exact float the builder produced -- the property the byte-identical
``canonical_dump`` differential gate rests on.  The codec is pure and
dependency-free: it must not import ``repro.core.index`` (the DIL
module imports *us* to build lazy lists).
"""

from __future__ import annotations

import struct
import zlib
from typing import Iterable, Iterator, Sequence

from repro.storage.errors import CorruptIndexError, IncompatibleIndexError

#: Leading bytes of every posting block ("XOnto Posting Block").
MAGIC = b"XPB1"

#: Current (and only) payload format version.
FORMAT_VERSION = 1

#: ``magic | version | reserved*3 | crc32 | payload_length``
_HEADER = struct.Struct("<4sB3sII")

#: Fixed-size header length in bytes.
HEADER_SIZE = _HEADER.size

_SCORE = struct.Struct("<d")
_SCORE_SIZE = _SCORE.size


class UnencodablePostings(ValueError):
    """The posting list violates the codec's preconditions (unsorted,
    duplicate, or non-canonical Dewey strings).  Raised at write time;
    it never signals corruption."""


# ----------------------------------------------------------------------
# varints (unsigned LEB128)
# ----------------------------------------------------------------------

def _append_varint(out: bytearray, value: int) -> None:
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _read_varint(buf, pos: int) -> tuple[int, int]:
    value = 0
    shift = 0
    try:
        while True:
            byte = buf[pos]
            pos += 1
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value, pos
            shift += 7
            if shift > 63:
                raise CorruptIndexError(
                    "posting block varint exceeds 64 bits")
    except IndexError:
        raise CorruptIndexError(
            "posting block truncated inside a varint") from None


# ----------------------------------------------------------------------
# Dewey text (canonical dotted-decimal only)
# ----------------------------------------------------------------------

def dotted(doc_id: int, path: tuple[int, ...]) -> str:
    """``(3, (0, 2)) -> "3.0.2"``: the text form of a posting's Dewey
    ID, as ``canonical_dump`` and the manifest checksums render it."""
    if path:
        return f"{doc_id}." + ".".join(map(str, path))
    return str(doc_id)


def _parse_dewey(text: str) -> tuple[int, tuple[int, ...]]:
    """``"3.0.2" -> (3, (0, 2))``, rejecting anything whose re-encoding
    would not be byte-identical (leading zeros, signs, blanks)."""
    parts = text.split(".")
    values = []
    for part in parts:
        if not part.isdigit() or (len(part) > 1 and part[0] == "0"):
            raise UnencodablePostings(
                f"non-canonical dewey component {part!r} in {text!r}")
        values.append(int(part))
    return values[0], tuple(values[1:])


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------

#: One document run ready for the payload:
#: ``(doc_id, posting count, run bytes, doc max score)``.
_Run = tuple[int, int, bytes, float]


def encode_triples(
        triples: Iterable[tuple[int, tuple[int, ...], float]]) -> bytes:
    """Pack ``(doc_id, path, score)`` triples into one binary block.

    The triples must be sorted strictly ascending by ``(doc_id, path)``
    -- the invariant every ``DeweyInvertedList`` already maintains.
    Raises :class:`UnencodablePostings` otherwise.  This is the one
    encoder every index writer uses; no Dewey text is involved.
    """
    runs: list[_Run] = []
    run = bytearray()
    run_count = 0
    run_max = 0.0
    current_doc = -1
    previous_path: tuple[int, ...] = ()

    for doc_id, path, score in triples:
        score = float(score)
        if doc_id != current_doc:
            if doc_id < current_doc:
                raise UnencodablePostings(
                    f"postings not strictly ascending at "
                    f"{dotted(doc_id, path)!r}")
            if run_count:
                runs.append((current_doc, run_count, bytes(run), run_max))
            run = bytearray()
            run_count = 0
            current_doc = doc_id
            previous_path = ()
            run_max = score
        else:
            if path <= previous_path:
                raise UnencodablePostings(
                    f"postings not strictly ascending at "
                    f"{dotted(doc_id, path)!r}")
            if score > run_max:
                run_max = score
        reuse = 0
        limit = min(len(previous_path), len(path))
        while reuse < limit and previous_path[reuse] == path[reuse]:
            reuse += 1
        head = (reuse, len(path) - reuse) + path[reuse:]
        if max(head) < 0x80:  # every varint is one byte: the usual case
            run += bytes(head)
        else:
            for value in head:
                _append_varint(run, value)
        run += _SCORE.pack(score)
        previous_path = path
        run_count += 1
    if run_count:
        runs.append((current_doc, run_count, bytes(run), run_max))
    return _assemble(runs)


def encode_postings(postings: Sequence[tuple[str, float]]) -> bytes:
    """:func:`encode_triples` over dotted-decimal ``(dewey, score)``
    pairs -- an adapter for tests and tools that hold Dewey text.
    Every Dewey string must be canonical dotted-decimal."""
    return encode_triples((*_parse_dewey(dewey), score)
                          for dewey, score in postings)


def splice_runs(runs: Iterable[tuple["PostingBlock", int]]) -> bytes:
    """A new block made of other blocks' document runs, copied verbatim.

    ``runs`` names ``(block, run index)`` pairs in strictly ascending
    document order.  A run is self-contained (its path prefix
    compression restarts at every document), so the result is
    byte-identical to encoding the same postings from scratch -- and
    no posting is decoded on the way.
    """
    out: list[_Run] = []
    previous = -1
    for block, index in runs:
        doc_id = block._doc_ids[index]
        if doc_id <= previous:
            raise UnencodablePostings(
                f"spliced runs not strictly ascending at document "
                f"{doc_id}")
        previous = doc_id
        start = block._run_offsets[index]
        out.append((doc_id, block._run_counts[index],
                    bytes(block._payload[start:start
                                         + block._run_lengths[index]]),
                    block._doc_maxes[index]))
    return _assemble(out)


def _assemble(runs: Sequence[_Run]) -> bytes:
    """Header, directory and runs of one block."""
    payload = bytearray()
    _append_varint(payload, len(runs))
    _append_varint(payload, sum(count for _, count, _, _ in runs))
    previous_doc = 0
    for index, (doc_id, count, run_bytes, doc_max) in enumerate(runs):
        _append_varint(payload, doc_id if index == 0
                       else doc_id - previous_doc)
        previous_doc = doc_id
        _append_varint(payload, count)
        _append_varint(payload, len(run_bytes))
        payload += _SCORE.pack(doc_max)
    for _, _, run_bytes, _ in runs:
        payload += run_bytes

    header = _HEADER.pack(MAGIC, FORMAT_VERSION, b"\x00\x00\x00",
                          zlib.crc32(payload) & 0xFFFFFFFF, len(payload))
    return header + bytes(payload)


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------

class PostingBlock:
    """Zero-copy reader over one encoded posting block.

    Construction validates the header, version, and payload checksum
    and parses the document directory; posting runs are decoded only
    on demand (:meth:`doc_postings`, :meth:`items`).  Instances are
    immutable and safe to share across threads -- they may wrap a
    ``memoryview`` into a live ``mmap``, in which case they keep the
    mapping alive until garbage-collected.
    """

    __slots__ = ("_data", "_payload", "posting_count", "doc_count",
                 "_doc_ids",
                 "_doc_maxes", "_run_counts", "_run_offsets",
                 "_run_lengths", "_doc_index")

    def __init__(self, data) -> None:
        view = memoryview(data)
        if len(view) < HEADER_SIZE:
            raise CorruptIndexError(
                f"posting block shorter than its {HEADER_SIZE}-byte "
                f"header ({len(view)} bytes)")
        magic, version, _, crc, length = _HEADER.unpack_from(view)
        if magic != MAGIC:
            raise CorruptIndexError(
                f"bad posting-block magic {bytes(magic)!r}")
        if version != FORMAT_VERSION:
            raise IncompatibleIndexError(
                f"posting block format v{version} is not supported "
                f"(this build reads v{FORMAT_VERSION})")
        payload = view[HEADER_SIZE:HEADER_SIZE + length]
        if len(payload) != length:
            raise CorruptIndexError(
                f"posting block truncated: header promises {length} "
                f"payload bytes, {len(payload)} present")
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            raise CorruptIndexError("posting block checksum mismatch")
        self._data = view[:HEADER_SIZE + length]
        self._payload = payload

        pos = 0
        self.doc_count, pos = _read_varint(payload, pos)
        self.posting_count, pos = _read_varint(payload, pos)
        doc_ids: list[int] = []
        maxes: list[float] = []
        counts: list[int] = []
        lengths: list[int] = []
        doc_id = 0
        for index in range(self.doc_count):
            delta, pos = _read_varint(payload, pos)
            doc_id = delta if index == 0 else doc_id + delta
            count, pos = _read_varint(payload, pos)
            length, pos = _read_varint(payload, pos)
            if pos + _SCORE_SIZE > len(payload):
                raise CorruptIndexError(
                    "posting block directory truncated")
            maxes.append(_SCORE.unpack_from(payload, pos)[0])
            pos += _SCORE_SIZE
            doc_ids.append(doc_id)
            counts.append(count)
            lengths.append(length)
        offsets = []
        for length in lengths:
            offsets.append(pos)
            pos += length
        if pos != len(payload):
            raise CorruptIndexError(
                f"posting block size mismatch: directory describes "
                f"{pos} payload bytes, {len(payload)} present")
        if sum(counts) != self.posting_count:
            raise CorruptIndexError(
                "posting block directory counts disagree with the "
                "posting total")
        self._doc_ids = doc_ids
        self._doc_maxes = maxes
        self._run_counts = counts
        self._run_offsets = offsets
        self._run_lengths = lengths
        self._doc_index = {d: i for i, d in enumerate(doc_ids)}

    # -- directory reads (never decode postings) -----------------------

    def doc_ids(self) -> list[int]:
        return list(self._doc_ids)

    def doc_max_scores(self) -> dict[int, float]:
        """The bounded-top-k pruning sidecar, straight from the
        directory."""
        return dict(zip(self._doc_ids, self._doc_maxes))

    def size_bytes(self) -> int:
        return len(self._data)

    def to_bytes(self) -> bytes:
        """The block's bytes, header included -- what a store writes."""
        return bytes(self._data)

    # -- run decoding ---------------------------------------------------

    def _decode_run(self, index: int) -> list[tuple[tuple[int, ...],
                                                    float]]:
        start = self._run_offsets[index]
        data = bytes(self._payload[start:start + self._run_lengths[index]])
        end = len(data)
        pos = 0
        path: tuple[int, ...] = ()
        out = []
        for _ in range(self._run_counts[index]):
            reuse, pos = _read_varint(data, pos)
            extend, pos = _read_varint(data, pos)
            if reuse > len(path):
                raise CorruptIndexError(
                    "posting run reuses a longer prefix than exists")
            tail = data[pos:pos + extend]
            if len(tail) == extend and tail.isascii():
                # Every component is a one-byte varint: the usual case.
                components = tuple(tail)
                pos += extend
            else:
                varints = []
                for _ in range(extend):
                    component, pos = _read_varint(data, pos)
                    varints.append(component)
                components = tuple(varints)
            if pos + _SCORE_SIZE > end:
                raise CorruptIndexError("posting run truncated")
            score = _SCORE.unpack_from(data, pos)[0]
            pos += _SCORE_SIZE
            path = path[:reuse] + components
            out.append((path, score))
        if pos != end:
            raise CorruptIndexError(
                "posting run decoded past its directory length")
        return out

    def doc_postings(self, doc_id: int) -> list[tuple[tuple[int, ...],
                                                      float]]:
        """Decode exactly one document's run: ``[(path, score), ...]``.
        Returns ``[]`` for absent documents."""
        index = self._doc_index.get(doc_id)
        if index is None:
            return []
        return self._decode_run(index)

    def items(self) -> Iterator[tuple[int, tuple[int, ...], float]]:
        """Sequentially decode the whole block as
        ``(doc_id, path, score)`` triples, in Dewey order."""
        for index, doc_id in enumerate(self._doc_ids):
            for path, score in self._decode_run(index):
                yield doc_id, path, score

    def encoded(self) -> list[tuple[str, float]]:
        """The dotted-decimal ``(dewey, score)`` list -- byte-identical
        to what :func:`encode_postings` was given."""
        return [(dotted(doc_id, path), score)
                for doc_id, path, score in self.items()]


def decode_postings(block: bytes) -> list[tuple[str, float]]:
    """One-shot inverse of :func:`encode_postings`."""
    return PostingBlock(block).encoded()
