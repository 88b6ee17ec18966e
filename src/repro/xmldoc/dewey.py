"""Dewey IDs for XML nodes (paper Section V, Figures 9-10).

A Dewey ID encodes the root-to-node path of an XML element as a tuple of
sibling positions, prefixed by the document ID: the root of document 7 is
``7``, its second child is ``7.1``, and so on. Dewey IDs give three
properties the XRANK/XOntoRank machinery relies on:

* lexicographic order of Dewey IDs equals document order of nodes;
* ancestor/descendant tests are prefix tests;
* the longest common prefix of two IDs is the Dewey ID of their lowest
  common ancestor (when it is longer than just the document component).

IDs are immutable value objects, ordered, hashable, and have a compact
string form (``"7.0.2.1"``) used by the persistent stores. Because they
are immutable, an ID computes its hash and its string form at most once.
"""

from __future__ import annotations

from functools import total_ordering
from typing import Iterable, Iterator, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .model import XMLDocument, XMLNode


@total_ordering
class DeweyID:
    """Immutable Dewey identifier: a document ID plus a component path.

    ``_hash`` and ``_encoded`` memoize :meth:`__hash__` and
    :meth:`encode` on first use; they are derived state, never pickled.
    """

    __slots__ = ("doc_id", "path", "_hash", "_encoded")

    def __init__(self, doc_id: int, path: Iterable[int] = ()) -> None:
        if doc_id < 0:
            raise ValueError("document id must be non-negative")
        path = tuple(path)
        if any(component < 0 for component in path):
            raise ValueError("Dewey components must be non-negative")
        self.doc_id = doc_id
        self.path = path
        self._hash: int | None = None
        self._encoded: str | None = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, encoded: str) -> "DeweyID":
        """Parse the string form produced by :meth:`encode`."""
        parts = encoded.split(".")
        try:
            numbers = [int(part) for part in parts]
        except ValueError:
            raise ValueError(f"malformed Dewey ID {encoded!r}") from None
        if not numbers:
            raise ValueError("empty Dewey ID")
        return cls(numbers[0], numbers[1:])

    def encode(self) -> str:
        """Compact dotted-decimal form, e.g. ``'7.0.2.1'``."""
        encoded = self._encoded
        if encoded is None:
            encoded = self._encoded = ".".join(
                map(str, (self.doc_id, *self.path)))
        return encoded

    def child(self, position: int) -> "DeweyID":
        """Dewey ID of the child at the given sibling position."""
        return DeweyID(self.doc_id, self.path + (position,))

    def parent(self) -> "DeweyID":
        """Dewey ID of the parent element.

        Raises :class:`ValueError` on a document root, which has no parent.
        """
        if not self.path:
            raise ValueError("document root has no parent")
        return DeweyID(self.doc_id, self.path[:-1])

    # ------------------------------------------------------------------
    # Structural predicates
    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Number of containment edges from the document root."""
        return len(self.path)

    def is_ancestor_of(self, other: "DeweyID") -> bool:
        """Proper ancestor test (same document, strict prefix)."""
        return (self.doc_id == other.doc_id
                and len(self.path) < len(other.path)
                and other.path[:len(self.path)] == self.path)

    def is_descendant_of(self, other: "DeweyID") -> bool:
        return other.is_ancestor_of(self)

    def contains(self, other: "DeweyID") -> bool:
        """Ancestor-or-self test."""
        return self == other or self.is_ancestor_of(other)

    def distance_to_descendant(self, other: "DeweyID") -> int:
        """Number of containment edges down to a descendant-or-self node.

        This is the exponent ``d(v, u)`` of the decay factor in the
        paper's score-propagation formula (Eq. 2).
        """
        if not self.contains(other):
            raise ValueError(f"{other.encode()} is not contained "
                             f"in {self.encode()}")
        return len(other.path) - len(self.path)

    def common_ancestor(self, other: "DeweyID") -> "DeweyID | None":
        """Lowest common ancestor, or ``None`` across documents."""
        if self.doc_id != other.doc_id:
            return None
        prefix: list[int] = []
        for ours, theirs in zip(self.path, other.path):
            if ours != theirs:
                break
            prefix.append(ours)
        return DeweyID(self.doc_id, prefix)

    # ------------------------------------------------------------------
    # Value-object protocol
    # ------------------------------------------------------------------
    def _key(self) -> tuple[int, tuple[int, ...]]:
        return (self.doc_id, self.path)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DeweyID):
            return NotImplemented
        return self._key() == other._key()

    def __lt__(self, other: "DeweyID") -> bool:
        if not isinstance(other, DeweyID):
            return NotImplemented
        return self._key() < other._key()

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = self._hash = hash(self._key())
        return value

    def __reduce__(self):
        return (type(self), (self.doc_id, self.path))

    def __repr__(self) -> str:
        return f"DeweyID({self.encode()!r})"


def assign_dewey_ids(document: "XMLDocument") -> dict["XMLNode", DeweyID]:
    """Assign Dewey IDs to every node of a document, in document order.

    Returns a mapping from node object to its :class:`DeweyID`. The root
    receives ``DeweyID(doc_id)``; each child receives its parent's ID
    extended with its 0-based sibling position (paper Figure 9).
    """
    ids: dict["XMLNode", DeweyID] = {}
    root_id = DeweyID(document.doc_id)
    stack: list[tuple["XMLNode", DeweyID]] = [(document.root, root_id)]
    while stack:
        node, dewey = stack.pop()
        ids[node] = dewey
        for position, child in enumerate(node.children):
            stack.append((child, dewey.child(position)))
    return ids


def node_at(document: "XMLDocument", dewey: DeweyID) -> "XMLNode":
    """Resolve a Dewey ID back to the node of ``document`` it addresses.

    This is the Database Access Module operation of Section V-A: "obtains
    the appropriate XML fragments addressed by the resulting Dewey IDs".
    """
    if dewey.doc_id != document.doc_id:
        raise ValueError(f"Dewey ID {dewey.encode()} does not belong to "
                         f"document {document.doc_id}")
    node = document.root
    for component in dewey.path:
        try:
            node = node.children[component]
        except IndexError:
            raise LookupError(f"no node at {dewey.encode()} in document "
                              f"{document.doc_id}") from None
    return node


def document_order(ids: Iterable[DeweyID]) -> Iterator[DeweyID]:
    """Yield Dewey IDs sorted into global document order."""
    return iter(sorted(ids))
