"""Deterministic build-cost counters: each keyword pays for its reach.

An index build's per-keyword work must grow with what the keyword
reaches, not with the corpus or the ontology:

* the OntoScore expansion derives each ontology node's flow edges once
  per computer (``neighbors()`` runs once per distinct expanded node,
  however many keywords pass through it);
* Eq. 5 visits only the code nodes that reference a concept in the
  keyword's OntoScore map, never every code node of the corpus;
* a Dewey ID's dotted string form is built once, however many posting
  lists, size estimates and store writes use it.

The counts are exact functions of the code and of the corpus -- the
20-patient corpus ``repro generate --patients 20`` writes -- not of the
machine. The old full scan over every code node is kept here as the
reference Eq. 5 implementation the map-driven one must equal exactly.
"""

from __future__ import annotations

import contextlib
import io
from collections import Counter

import pytest

from repro import cli
from repro.core.config import ALL_STRATEGIES, DEFAULT_CONFIG, GRAPH, \
    RELATIONSHIPS, TAXONOMY
from repro.core.index.vocabulary import experiment_vocabulary
from repro.core.query.engine import XOntoRankEngine
from repro.core.scoring import ElementIndex
from repro.ir.tokenizer import Keyword
from repro.storage import MemoryStore
from repro.xmldoc.dewey import DeweyID

#: ``repro generate --patients 20`` with its default seeds.
PATIENTS = 20

#: Distinct ontology nodes the default vocabulary's expansions expand.
EXPANDED_NODES = {GRAPH: 463, TAXONOMY: 463, RELATIONSHIPS: 614}

#: Code nodes Eq. 5 visits over the default vocabulary: per keyword,
#: the code nodes referencing a concept in its OntoScore map (a full
#: scan visits 334 keywords x 700 code nodes = 233,800).
CODE_NODE_VISITS = {GRAPH: 32_023, TAXONOMY: 15_992,
                    RELATIONSHIPS: 22_607}


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    """The ontology and corpus as ``repro index`` reads them back."""
    data = tmp_path_factory.mktemp("generated")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["generate", "--out", str(data),
                         "--patients", str(PATIENTS)]) == 0
    return cli._load_data_directory(str(data))


@pytest.fixture(scope="module")
def corpus(generated):
    return generated[1]


@pytest.fixture(scope="module")
def ontology(generated):
    return generated[0]


@pytest.fixture(scope="module")
def words(corpus, ontology):
    """What an ontology-aware build covers by default (a superset of
    the XRANK build's document words)."""
    return sorted(experiment_vocabulary(
        corpus, ontology, text_policy=DEFAULT_CONFIG.text_policy))


def full_scan_node_scores(element_index, ontoscore, keyword):
    """Eq. 5 as a scan of every code node of the corpus (the reference;
    the engine builds no node weights, so none are applied)."""
    scores = element_index.irs(keyword)
    onto = ontoscore.compute(keyword)
    if onto:
        for dewey, concept in element_index.code_node_concepts().items():
            ontoscore_value = onto.get(concept, 0.0)
            if ontoscore_value > scores.get(dewey, 0.0):
                scores[dewey] = ontoscore_value
    return scores


class CountingCodeNodes:
    """Read-only view of the concept -> code nodes map that counts the
    code nodes it hands out."""

    def __init__(self, inner, counter: Counter) -> None:
        self._inner = inner
        self._counter = counter

    def get(self, concept, default=None):
        nodes = self._inner.get(concept, default)
        if nodes:
            self._counter["visits"] += len(nodes)
        return nodes


@pytest.fixture
def code_node_visits(monkeypatch):
    """Counts every code node ElementIndex hands to Eq. 5: through the
    concept -> code nodes map, or through a full ``code_node_concepts()``
    copy."""
    counter: Counter = Counter()
    full_copy = ElementIndex.code_node_concepts

    def counted_copy(self):
        nodes = full_copy(self)
        counter["visits"] += len(nodes)
        return nodes

    monkeypatch.setattr(ElementIndex, "code_node_concepts", counted_copy)
    by_concept = getattr(ElementIndex, "concept_code_nodes", None)
    if by_concept is not None:
        monkeypatch.setattr(
            ElementIndex, "concept_code_nodes",
            lambda self: CountingCodeNodes(by_concept(self), counter))
    return counter


@pytest.mark.parametrize("strategy", sorted(EXPANDED_NODES))
def test_neighbors_run_once_per_expanded_node(corpus, ontology,
                                              monkeypatch, strategy):
    engine = XOntoRankEngine(corpus, ontology, strategy=strategy)
    computer = engine.ontoscore
    calls: Counter = Counter()
    neighbors = type(computer).neighbors

    def counted(self, node):
        if self is computer:
            calls[node] += 1
        return neighbors(self, node)

    monkeypatch.setattr(type(computer), "neighbors", counted)
    engine.build_index()
    assert len(calls) == EXPANDED_NODES[strategy]
    assert sum(calls.values()) == len(calls), calls.most_common(3)
    # The explain path walks the same memo: no new derivations.
    keyword = Keyword.from_text("arrest")
    for concept in computer.compute(keyword):
        computer.flow_path(concept, keyword)
    assert sum(calls.values()) == len(calls)


@pytest.mark.parametrize("strategy", sorted(CODE_NODE_VISITS))
def test_node_scorer_visits_only_reached_code_nodes(
        corpus, ontology, words, code_node_visits, strategy):
    engine = XOntoRankEngine(corpus, ontology, strategy=strategy)
    engine.build_index()
    visits = code_node_visits["visits"]
    concepts = list(engine.element_index.code_node_concepts().values())
    reached = 0
    for word in words:
        onto = engine.ontoscore.compute(Keyword.from_text(word))
        reached += sum(1 for concept in concepts if concept in onto)
    assert visits == reached == CODE_NODE_VISITS[strategy]


def test_dewey_ids_encoded_once(corpus, ontology, monkeypatch):
    """Build statistics, ``total_size_bytes`` and the store write all
    read the one memoized string (without the memo: 3 x 45,013)."""
    engine = XOntoRankEngine(corpus, ontology, strategy=RELATIONSHIPS)
    encodings = Counter()
    encode = DeweyID.encode

    def counted(self):
        if getattr(self, "_encoded", None) is None:
            encodings["count"] += 1
        return encode(self)

    monkeypatch.setattr(DeweyID, "encode", counted)
    index = engine.build_index(store=MemoryStore())
    assert index.total_size_bytes() > 0
    distinct = {posting.dewey for dil in index.lists.values()
                for posting in dil}
    assert index.total_postings() == 45_013
    assert 0 < encodings["count"] <= len(distinct)


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_node_scores_equal_the_full_scan(corpus, ontology, words,
                                         strategy):
    """Exact floats and the same key order, for every keyword a build
    covers."""
    engine = XOntoRankEngine(corpus, ontology, strategy=strategy)
    scorer = engine.builder.node_scorer
    for word in words:
        keyword = Keyword.from_text(word)
        expected = full_scan_node_scores(engine.element_index,
                                         engine.ontoscore, keyword)
        assert list(scorer.node_scores(keyword).items()) == \
            list(expected.items()), word
