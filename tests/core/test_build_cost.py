"""Deterministic build-cost counters: each keyword pays for its reach.

An index build's per-keyword work must grow with what the keyword
reaches, not with the corpus or the ontology:

* the OntoScore expansion derives each ontology node's flow edges once
  per computer (``neighbors()`` runs once per distinct expanded node,
  however many keywords pass through it);
* Eq. 5 visits only the code nodes that reference a concept in the
  keyword's OntoScore map, never every code node of the corpus;
* a Dewey ID's dotted string form is built once, however many posting
  lists, size estimates and store writes use it;
* a build scoped to some documents (a shard, an append segment)
  assembles postings for those documents only, so every posting a
  build assembles is one it writes, and a full build reads nothing
  back from the store it writes.

The counts are exact functions of the code and of the corpus -- the
20-patient corpus ``repro generate --patients 20`` writes -- not of the
machine. The old full scan over every code node is kept here as the
reference Eq. 5 implementation the map-driven one must equal exactly,
and the unscoped build filtered afterwards as the reference a scoped
build must equal exactly.
"""

from __future__ import annotations

import contextlib
import io
from collections import Counter

import pytest

from repro import cli
from repro.core.config import ALL_STRATEGIES, DEFAULT_CONFIG, GRAPH, \
    RELATIONSHIPS, TAXONOMY
from repro.core.index.builder import IndexBuilder
from repro.core.index.vocabulary import default_vocabulary, \
    experiment_vocabulary
from repro.core.query.engine import XOntoRankEngine
from repro.core.query.federated import ShardScopedBuilder
from repro.core.scoring import ElementIndex
from repro.ir.tokenizer import Keyword
from repro.storage import MemoryStore, SQLiteStore, load_catalog, \
    verify_manifest
from repro.xmldoc.dewey import DeweyID
from repro.xmldoc.model import Corpus

#: ``repro generate --patients 20`` with its default seeds.
PATIENTS = 20

#: Postings a relationships build of the 20-patient corpus writes --
#: and, since nothing is assembled only to be dropped, assembles, at
#: any shard count (filtering each shard's list out of a whole-corpus
#: build assembled 3 x 45,013 at three shards).
POSTINGS = 45_013

#: The pinned append lifecycle: base build over documents 0-11, then
#: one segment per batch. Rows each segment writes, which is also what
#: it assembles (building the touched keywords over all 20 documents
#: and filtering afterwards assembled 43,485 and 44,227).
APPEND_BASE, APPEND_BATCH = 12, 4
APPEND_ROWS = (6_304, 11_685)

#: Distinct ontology nodes the default vocabulary's expansions expand.
EXPANDED_NODES = {GRAPH: 463, TAXONOMY: 463, RELATIONSHIPS: 614}

#: Code nodes Eq. 5 visits over the default vocabulary: per keyword,
#: the code nodes referencing a concept in its OntoScore map (a full
#: scan visits 334 keywords x 700 code nodes = 233,800).
CODE_NODE_VISITS = {GRAPH: 32_023, TAXONOMY: 15_992,
                    RELATIONSHIPS: 22_607}


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    data = tmp_path_factory.mktemp("generated")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["generate", "--out", str(data),
                         "--patients", str(PATIENTS)]) == 0
    return str(data)


@pytest.fixture(scope="module")
def generated(data_dir):
    """The ontology and corpus as ``repro index`` reads them back."""
    return cli._load_data_directory(data_dir)


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
    assert index.total_postings() == POSTINGS
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


@pytest.fixture
def assembled(monkeypatch):
    """Counts the postings ``IndexBuilder.build_keyword`` assembles:
    the length of every list it returns, whoever calls it."""
    counter: Counter = Counter()
    build = IndexBuilder.build_keyword

    def counted(self, *args, **kwargs):
        dil, stats = build(self, *args, **kwargs)
        counter["postings"] += len(dil)
        return dil, stats

    monkeypatch.setattr(IndexBuilder, "build_keyword", counted)
    return counter


@pytest.mark.parametrize("strategy", ALL_STRATEGIES)
def test_scoped_build_equals_the_filtered_build(corpus, ontology,
                                                strategy):
    """Same postings, same order, exact floats and matching statistics
    as the unscoped list filtered to the scope, for every keyword of
    the strategy's default vocabulary."""
    engine = XOntoRankEngine(corpus, ontology, strategy=strategy)
    builder = engine.builder
    ids = [document.doc_id for document in corpus]
    scopes = (frozenset(), frozenset({0}),
              frozenset(doc_id for doc_id in ids if doc_id % 2 == 0),
              frozenset(ids))
    vocabulary = default_vocabulary(corpus, ontology, strategy, 2,
                                    DEFAULT_CONFIG.text_policy)
    for word in sorted(vocabulary):
        keyword = Keyword.from_text(word)
        full, _ = builder.build_keyword(keyword)
        for scope in scopes:
            scoped, stats = builder.build_keyword(keyword, scope)
            expected = [posting for posting in full
                        if posting.dewey.doc_id in scope]
            assert scoped.postings() == expected, (word, sorted(scope))
            assert [posting.score.hex() for posting in scoped] == \
                [posting.score.hex() for posting in expected]
            assert stats.posting_count == len(expected)
            assert stats.size_bytes == sum(posting.size_bytes()
                                           for posting in expected)


def test_append_assembles_only_the_rows_it_writes(corpus, ontology,
                                                  assembled):
    """The pinned lifecycle of the differential suite: one element
    index over every document, the builder scoped to the live ones."""
    documents = list(corpus)
    universe = XOntoRankEngine(corpus, ontology,
                               strategy=RELATIONSHIPS).element_index
    engine = XOntoRankEngine(Corpus(documents[:APPEND_BASE]), ontology,
                             strategy=RELATIONSHIPS,
                             element_index=universe)
    engine.index_manager.builder = ShardScopedBuilder(
        engine.builder, frozenset(range(APPEND_BASE)))
    store = MemoryStore()
    engine.build_index(store=store)
    for number, rows in enumerate(APPEND_ROWS):
        start = APPEND_BASE + number * APPEND_BATCH
        assembled.clear()
        engine.add_documents(documents[start:start + APPEND_BATCH], store)
        namespace = load_catalog(store).segments[-1].namespace
        written = sum(store.posting_count(namespace, key)
                      for key in store.keywords(namespace))
        assert assembled["postings"] == written == rows


@pytest.mark.parametrize("shards", [1, 3])
def test_index_assembles_what_it_writes_and_reads_nothing_back(
        data_dir, tmp_path, assembled, monkeypatch, shards):
    """CLI ``index``: each posting is assembled once, by the shard that
    writes it, and the manifest checksum is taken from the written
    lists rather than read back from the store."""
    reads: Counter = Counter()
    get_posting_block = SQLiteStore.get_posting_block

    def counted(self, *args, **kwargs):
        reads["lists"] += 1
        return get_posting_block(self, *args, **kwargs)

    monkeypatch.setattr(SQLiteStore, "get_posting_block", counted)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["index", "--data", data_dir, "--store",
                         str(tmp_path / "index.db"),
                         "--shards", str(shards)]) == 0
    assert assembled["postings"] == POSTINGS
    assert reads["lists"] == 0


@pytest.mark.parametrize("appended", [False, True])
def test_full_build_replaces_a_used_store(corpus, ontology, tmp_path,
                                          appended):
    """Regression: a full build into a store that already held an index
    kept the earlier build's other posting lists and documents -- and,
    in a segmented store, its appended segments -- and ``load_index``
    served them: hits in documents outside the engine's corpus."""
    documents = list(corpus)
    small = Corpus(documents[:5])
    vocabulary = {"asthma", "medications"}
    with SQLiteStore(str(tmp_path / "index.db")) as store:
        if appended:
            earlier = XOntoRankEngine(Corpus(documents[:15]), ontology,
                                      strategy=RELATIONSHIPS)
            earlier.build_index(vocabulary=vocabulary, store=store)
            earlier.add_documents(documents[15:], store)
        else:
            XOntoRankEngine(Corpus(documents), ontology,
                            strategy=RELATIONSHIPS).build_index(
                vocabulary=vocabulary, store=store)
        XOntoRankEngine(small, ontology,
                        strategy=RELATIONSHIPS).build_index(
            vocabulary={"asthma"}, store=store)
        engine = XOntoRankEngine(small, ontology, strategy=RELATIONSHIPS)
        loaded = engine.load_index(store)
        hits = {result.doc_id
                for result in engine.search("medications", k=1_000)}
        assert hits and hits <= {0, 1, 2, 3, 4}
        assert loaded == 1
        assert list(store.keywords(RELATIONSHIPS)) == ["asthma"]
        assert list(store.document_ids()) == [0, 1, 2, 3, 4]
        report = verify_manifest(store)
        assert report.ok and not report.notes, report.describe()
