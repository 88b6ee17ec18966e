"""Concept-graph ontology model (paper Section II, "SNOMED CT").

The paper views an ontology as "a graph, where the nodes represent
concepts, and edges represent relationships between concepts": every
concept has one or more natural-language terms, hierarchical *is-a*
relationships forming a DAG, and other typed relationships describing
clinical attributes (finding-site-of, causative-agent, ...).

This module is ontology-agnostic; :mod:`repro.ontology.snomed` builds a
SNOMED-CT-shaped instance of it.
"""

from __future__ import annotations

import hashlib
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Iterable, Iterator

#: SNOMED CT's relationship-type code for the subclass relationship.
IS_A = "is-a"


@dataclass(frozen=True)
class Concept:
    """A unit of knowledge in the ontology.

    ``code`` is the concept's identifier within its ontological system
    (SNOMED codes are numeric strings such as ``"195967001"``);
    ``preferred_term`` is the display name; ``synonyms`` are additional
    natural-language terms describing the same concept; ``xrefs`` are
    cross-references into *other* code systems as ``(system_code,
    foreign_code)`` pairs (SNOMED ships these as ICD-10 / LOINC map
    refsets -- they carry no term text, so they never feed IR scoring).
    """

    code: str
    preferred_term: str
    synonyms: tuple[str, ...] = ()
    semantic_tag: str = ""
    xrefs: tuple[tuple[str, str], ...] = ()

    @property
    def terms(self) -> tuple[str, ...]:
        """All natural-language terms, preferred term first."""
        return (self.preferred_term, *self.synonyms)

    def description_text(self) -> str:
        """The concept's textual description for IR purposes.

        Concatenation of all terms (and the semantic tag, which SNOMED
        displays in parentheses after the fully-specified name).
        """
        parts = list(self.terms)
        if self.semantic_tag:
            parts.append(self.semantic_tag)
        return " ".join(parts)


@dataclass(frozen=True)
class Relationship:
    """A typed, directed edge ``source --type--> destination``.

    For ``type == IS_A`` the edge points from the subclass to its direct
    superclass, as in SNOMED RF2 (``Asthma --is-a--> Disorder of
    Bronchus``). Attribute relationships point from the defined concept to
    the filler (``Asthma Attack --finding-site-of--> Bronchial
    Structure``, read as ``Asthma Attack ⊑ ∃finding-site-of.Bronchial
    Structure`` in the description-logic view of Section IV-C).
    """

    source: str
    type: str
    destination: str


class OntologyError(ValueError):
    """Raised on structurally invalid ontology operations."""


class FingerprintAccumulator:
    """Order-independent content fingerprint over ontology rows.

    Each concept and relationship hashes to one fixed-size row digest;
    the fingerprint is the SHA-256 of the *sorted* row digests plus a
    header naming the system. Sorting makes the result independent of
    insertion order, so a streaming generator (which never materializes
    the graph) and :meth:`Ontology.fingerprint` (which walks a built
    graph) agree byte for byte on the same content.
    """

    _VERSION = "XOF1"
    #: Field/record separators (control characters never appear in
    #: terms, codes or tags, so rows cannot collide by concatenation).
    _FS = "\x1d"
    _RS = "\x1e"
    _PS = "\x1f"

    def __init__(self, system_code: str, name: str = "") -> None:
        header = self._FS.join((self._VERSION, system_code,
                                name or system_code))
        self._header = header.encode("utf-8")
        self._rows: list[bytes] = []

    def add_concept(self, concept: Concept) -> None:
        row = self._FS.join((
            "C", concept.code, concept.preferred_term,
            self._RS.join(concept.synonyms), concept.semantic_tag,
            self._RS.join(f"{system}{self._PS}{code}"
                          for system, code in concept.xrefs)))
        self._rows.append(hashlib.sha256(row.encode("utf-8")).digest())

    def add_relationship(self, source: str, type: str,
                         destination: str) -> None:
        row = self._FS.join(("R", source, type, destination))
        self._rows.append(hashlib.sha256(row.encode("utf-8")).digest())

    def hexdigest(self) -> str:
        digest = hashlib.sha256(self._header)
        for row in sorted(self._rows):
            digest.update(row)
        return digest.hexdigest()


class Ontology:
    """A mutable concept graph with the adjacency indexes XOntoRank needs.

    ``system_code`` identifies the ontological system; CDA code nodes
    reference concepts as ``(system_code, concept_code)`` pairs.
    """

    def __init__(self, system_code: str, name: str = "") -> None:
        self.system_code = system_code
        self.name = name or system_code
        self._concepts: dict[str, Concept] = {}
        self._relationships: list[Relationship] = []
        self._edge_set: set[Relationship] = set()
        # is-a adjacency: child -> parents, parent -> children
        self._parents: dict[str, list[str]] = defaultdict(list)
        self._children: dict[str, list[str]] = defaultdict(list)
        # attribute-relationship adjacency (everything except is-a)
        self._outgoing: dict[str, list[Relationship]] = defaultdict(list)
        self._incoming: dict[str, list[Relationship]] = defaultdict(list)
        self._fingerprint: str | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_concept(self, concept: Concept) -> Concept:
        if concept.code in self._concepts:
            raise OntologyError(f"duplicate concept code {concept.code}")
        self._concepts[concept.code] = concept
        self._fingerprint = None
        return concept

    def new_concept(self, code: str, preferred_term: str,
                    synonyms: Iterable[str] = (),
                    semantic_tag: str = "") -> Concept:
        """Create and register a concept; convenience for builders."""
        return self.add_concept(Concept(code, preferred_term,
                                        tuple(synonyms), semantic_tag))

    def add_relationship(self, source: str, type: str,
                         destination: str,
                         check_cycles: bool = True) -> Relationship:
        """Add a typed edge. Duplicate edges are rejected.

        ``is-a`` edges are checked against cycle creation: the taxonomy
        must remain a DAG (Section IV-B: "cycles are not permitted based
        on subclass relationships"). The check walks the destination's
        ancestor closure, which is quadratic over a bulk load; a builder
        whose edge order provably cannot close a cycle (every new edge
        leaves a freshly created leaf) passes ``check_cycles=False`` and
        relies on the final :meth:`validate` toposort instead.
        """
        for code in (source, destination):
            if code not in self._concepts:
                raise OntologyError(f"unknown concept {code}")
        if source == destination:
            raise OntologyError(f"self-loop on {source}")
        edge = Relationship(source, type, destination)
        if edge in self._edge_set:
            raise OntologyError(f"duplicate relationship {edge}")
        if (check_cycles and type == IS_A
                and self.is_subsumed_by(destination, source)):
            raise OntologyError(
                f"is-a edge {source} -> {destination} would create a cycle")
        self._fingerprint = None
        self._edge_set.add(edge)
        self._relationships.append(edge)
        if type == IS_A:
            self._parents[source].append(destination)
            self._children[destination].append(source)
        else:
            self._outgoing[source].append(edge)
            self._incoming[destination].append(edge)
        return edge

    def add_is_a(self, child: str, parent: str) -> Relationship:
        return self.add_relationship(child, IS_A, parent)

    def has_relationship(self, source: str, type: str,
                         destination: str) -> bool:
        return Relationship(source, type, destination) in self._edge_set

    # ------------------------------------------------------------------
    # Concept access
    # ------------------------------------------------------------------
    def __contains__(self, code: str) -> bool:
        return code in self._concepts

    def __len__(self) -> int:
        return len(self._concepts)

    def concept(self, code: str) -> Concept:
        try:
            return self._concepts[code]
        except KeyError:
            raise OntologyError(f"unknown concept {code}") from None

    def concepts(self) -> Iterator[Concept]:
        return iter(self._concepts.values())

    def concept_codes(self) -> Iterator[str]:
        return iter(self._concepts.keys())

    def relationships(self) -> Iterator[Relationship]:
        return iter(self._relationships)

    def relationship_count(self) -> int:
        return len(self._relationships)

    def relationship_types(self) -> set[str]:
        """All edge types present, including ``is-a`` when used."""
        return {edge.type for edge in self._relationships}

    # ------------------------------------------------------------------
    # Taxonomic structure (is-a DAG)
    # ------------------------------------------------------------------
    def parents(self, code: str) -> list[str]:
        """Direct superclasses of a concept."""
        self.concept(code)
        return list(self._parents.get(code, ()))

    def children(self, code: str) -> list[str]:
        """Direct subclasses of a concept."""
        self.concept(code)
        return list(self._children.get(code, ()))

    def subclass_count(self, code: str) -> int:
        """Number of *direct* subclasses.

        This is the in-degree of the concept in the is-a DAG, the divisor
        of the paper's upward authority flow (Section IV-B: the 1/26
        factor in the Asthma example).
        """
        self.concept(code)
        return len(self._children.get(code, ()))

    def ancestors(self, code: str) -> set[str]:
        """All proper superclasses, transitively."""
        return self._closure(code, self._parents)

    def descendants(self, code: str) -> set[str]:
        """All proper subclasses, transitively."""
        return self._closure(code, self._children)

    def is_subsumed_by(self, code: str, ancestor: str) -> bool:
        """Whether ``code`` is-a ``ancestor`` (reflexive subsumption)."""
        if code == ancestor:
            return code in self._concepts
        return ancestor in self.ancestors(code)

    def roots(self) -> list[str]:
        """Concepts with no superclass (SNOMED's top-level axes)."""
        return [code for code in self._concepts if not self._parents.get(code)]

    def _closure(self, code: str, adjacency: dict[str, list[str]],
                 ) -> set[str]:
        self.concept(code)
        seen: set[str] = set()
        queue = deque(adjacency.get(code, ()))
        while queue:
            current = queue.popleft()
            if current in seen:
                continue
            seen.add(current)
            queue.extend(adjacency.get(current, ()))
        return seen

    # ------------------------------------------------------------------
    # Attribute relationships
    # ------------------------------------------------------------------
    def outgoing(self, code: str, type: str | None = None,
                 ) -> list[Relationship]:
        """Non-taxonomic edges leaving a concept, optionally by type."""
        self.concept(code)
        edges = self._outgoing.get(code, ())
        if type is None:
            return list(edges)
        return [edge for edge in edges if edge.type == type]

    def incoming(self, code: str, type: str | None = None,
                 ) -> list[Relationship]:
        """Non-taxonomic edges arriving at a concept, optionally by type."""
        self.concept(code)
        edges = self._incoming.get(code, ())
        if type is None:
            return list(edges)
        return [edge for edge in edges if edge.type == type]

    def role_in_degree(self, destination: str, type: str) -> int:
        """Number of concepts bearing relationship ``type`` to a filler.

        This is ``N(∃r.C)``, the in-degree of the existential role
        restriction in the description-logic view (Section VI-C).
        """
        return len(self.incoming(destination, type))

    # ------------------------------------------------------------------
    # Undirected view (Section IV-A)
    # ------------------------------------------------------------------
    def neighbors(self, code: str) -> list[str]:
        """Adjacent concepts ignoring direction and edge type.

        The Graph strategy "treats the ontology as an undirected graph,
        with no distinction among the different kinds of relationships".
        Duplicates from parallel edges are collapsed; order is stable.
        """
        self.concept(code)
        seen: set[str] = set()
        adjacent: list[str] = []
        for other in self._parents.get(code, ()):
            if other not in seen:
                seen.add(other)
                adjacent.append(other)
        for other in self._children.get(code, ()):
            if other not in seen:
                seen.add(other)
                adjacent.append(other)
        for edge in self._outgoing.get(code, ()):
            if edge.destination not in seen:
                seen.add(edge.destination)
                adjacent.append(edge.destination)
        for edge in self._incoming.get(code, ()):
            if edge.source not in seen:
                seen.add(edge.source)
                adjacent.append(edge.source)
        return adjacent

    # ------------------------------------------------------------------
    # Statistics / integrity
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Stable content fingerprint (hex SHA-256) of the whole graph.

        Identical content -- concepts (terms, tags, xrefs) plus edges,
        regardless of insertion order -- yields an identical digest; any
        mutation changes it. Versioned persistent artifacts derived from
        an ontology (the OntoScore expansion cache) key on this digest to
        detect staleness. The digest is cached until
        the next mutation, so repeated reads are free.
        """
        if self._fingerprint is None:
            accumulator = FingerprintAccumulator(self.system_code,
                                                 self.name)
            for concept in self._concepts.values():
                accumulator.add_concept(concept)
            for edge in self._relationships:
                accumulator.add_relationship(edge.source, edge.type,
                                             edge.destination)
            self._fingerprint = accumulator.hexdigest()
        return self._fingerprint

    def stats(self) -> dict[str, int]:
        """Size summary used by benchmarks and documentation."""
        is_a_count = sum(len(parents) for parents in self._parents.values())
        return {
            "concepts": len(self._concepts),
            "relationships": len(self._relationships),
            "is_a_edges": is_a_count,
            "attribute_edges": len(self._relationships) - is_a_count,
            "roots": len(self.roots()),
            "relationship_types": len(self.relationship_types()),
        }

    def validate(self) -> None:
        """Check structural invariants; raises :class:`OntologyError`.

        * every edge endpoint exists;
        * the is-a graph is acyclic (verified by topological sort, cheap
          enough to re-run even though :meth:`add_relationship` prevents
          cycle creation incrementally).
        """
        for edge in self._relationships:
            if edge.source not in self._concepts:
                raise OntologyError(f"dangling source {edge.source}")
            if edge.destination not in self._concepts:
                raise OntologyError(f"dangling destination {edge.destination}")
        in_degree = {code: len(self._parents.get(code, ()))
                     for code in self._concepts}
        queue = deque(code for code, degree in in_degree.items()
                      if degree == 0)
        visited = 0
        while queue:
            code = queue.popleft()
            visited += 1
            for child in self._children.get(code, ()):
                in_degree[child] -= 1
                if in_degree[child] == 0:
                    queue.append(child)
        if visited != len(self._concepts):
            raise OntologyError("is-a graph contains a cycle")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Ontology {self.name!r} concepts={len(self._concepts)} "
                f"relationships={len(self._relationships)}>")
