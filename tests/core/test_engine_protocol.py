"""The engine protocol: a single engine is a federation of one shard.

:class:`~repro.core.query.engine.XOntoRankEngine` (the leaf) and
:class:`~repro.core.query.federated.FederatedEngine` (the composite)
implement one :class:`~repro.core.query.engine.SearchEngine` protocol,
and :class:`~repro.server.SearchService` runs one breaker-guarded
execute path over either. This suite registers a leaf, a federation of
one and a federation of three in one service and pins

* leaf ≡ federation-of-1 on every field of the outcome (``results``,
  ``partial``, ``degraded_shards``, ``narrative``) for a normal query,
  a skipped shard / open breaker, an absorbed ``StorageError``, an
  expired deadline and a narrative request -- over the *same* store
  (one shard's store is the plain store);
* the federation of three agreeing wherever the identity contract
  applies (exact outcomes);
* by AST, that ``src/`` holds no ``isinstance(..., FederatedEngine)``
  and no ``XOntoRankEngine | FederatedEngine`` annotation, so the fork
  this protocol replaced cannot grow back unnoticed;
* one narrative mapping per request, at one site in ``src/``
  (``SearchEngine.search_outcome``), and by AST that ``QueryPipeline``
  has no method that mutates its stages.
"""

from __future__ import annotations

import ast
import pathlib

import pytest

import repro
from repro.core.config import XOntoRankConfig
from repro.core.deadline import Deadline, DeadlineExceeded
from repro.core.obs.instruments import ManualClock
from repro.core.query.engine import SearchEngine, XOntoRankEngine
from repro.core.query.federated import (FederatedEngine,
                                        shard_store_path,
                                        shard_store_paths)
from repro.core.stats import NARRATIVE_QUERIES
from repro.server import SearchService
from repro.server.breaker import CLOSED, OPEN
from repro.storage.errors import StorageError
from repro.storage.faults import FaultInjectingStore
from repro.storage.memory_store import MemoryStore

VOCABULARY = {"cardiac", "arrest", "amiodarone", "asthma", "aspirin",
              "fever", "acetaminophen"}
QUERIES = ('"cardiac arrest" amiodarone', "asthma", "aspirin fever")
NARRATIVE = "was febrile and is on acetaminophen"
#: Capacity 0 sends every query through the read store, so a store
#: fault is visible at query time.
CONFIG = XOntoRankConfig(dil_cache_capacity=0)
NAMES = ("leaf", "fed1", "fed3")


class SteppingClock:
    """Advances one tick per reading: a deadline on it expires after
    an exact number of checks."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now - 1.0


def fields(outcome):
    """Every field of a SearchOutcome, in comparable form."""
    narrative = outcome.narrative
    return {
        "results": [(result.dewey, result.score, result.keyword_scores)
                    for result in outcome.results],
        "partial": outcome.partial,
        "degraded_shards": outcome.degraded_shards,
        "narrative": None if narrative is None else (
            str(narrative.query),
            [(m.phrase, m.method, m.concept_code)
             for m in narrative.mappings]),
    }


@pytest.fixture(scope="module")
def stores(cda_corpus, synthetic_ontology):
    """The leaf's store (which the federation of one reads as is) and
    the federation of three's per-shard stores."""
    plain = MemoryStore()
    XOntoRankEngine(cda_corpus, synthetic_ontology).build_index(
        vocabulary=set(VOCABULARY), store=plain)
    sharded = [MemoryStore() for _ in range(3)]
    FederatedEngine(cda_corpus, synthetic_ontology, shards=3).build_index(
        vocabulary=set(VOCABULARY), stores=sharded)
    return plain, sharded


class Stack:
    """One service over a leaf, a federation of one and of three."""

    def __init__(self, corpus, ontology, stores, wrap=lambda s: s):
        plain, sharded = stores
        self.clock = ManualClock()
        self.service = SearchService(breaker_threshold=1,
                                     breaker_cooldown=5.0,
                                     clock=self.clock)
        self.leaf = XOntoRankEngine(corpus, ontology, config=CONFIG)
        self.leaf.attach_read_store(wrap(plain))
        self.fed1 = FederatedEngine(corpus, ontology, shards=1,
                                    config=CONFIG)
        self.fed1.attach_read_stores([wrap(plain)])
        self.fed3 = FederatedEngine(corpus, ontology, shards=3,
                                    config=CONFIG)
        self.fed3.attach_read_stores(sharded)
        self.handles = {
            name: self.service.add_corpus(name, getattr(self, name))
            for name in NAMES}

    def run(self, name, query, **kwargs):
        return fields(self.service.execute(name, query, k=5, **kwargs))


@pytest.fixture()
def stack(cda_corpus, synthetic_ontology, stores):
    return Stack(cda_corpus, synthetic_ontology, stores)


class TestOneProtocol:
    def test_both_engines_implement_it(self, stack):
        for name, shards in zip(NAMES, (1, 1, 3)):
            engine = getattr(stack, name)
            assert isinstance(engine, SearchEngine)
            assert engine.shard_count == shards
            assert stack.handles[name].shard_count == shards

    def test_one_shard_store_is_the_plain_path(self):
        assert shard_store_paths("idx.db", 1) == ["idx.db"]
        assert shard_store_paths("idx.db", 3) == [
            shard_store_path("idx.db", shard, 3) for shard in range(3)]

    @pytest.mark.parametrize("query", QUERIES)
    def test_normal_query(self, stack, query):
        leaf = stack.run("leaf", query)
        assert leaf["results"], "the query must match something"
        assert leaf["degraded_shards"] == () and not leaf["partial"]
        assert stack.run("fed1", query) == leaf
        assert stack.run("fed3", query) == leaf

    def test_narrative_request(self, stack):
        leaf = stack.run("leaf", NARRATIVE, narrative=True)
        assert leaf["narrative"] is not None
        assert leaf["narrative"][0] == "acetaminophen fever"
        assert stack.run("fed1", NARRATIVE, narrative=True) == leaf
        assert stack.run("fed3", NARRATIVE, narrative=True) == leaf
        # Per-request mapping never mutates the warm engines.
        assert stack.leaf.pipeline.stages[0].name == "parse"
        assert stack.run("leaf", "asthma")["narrative"] is None

    def test_one_mapper_per_engine(self, stack):
        for name in NAMES:
            engine = getattr(stack, name)
            mapper = engine.narrative_mapper()
            assert engine.narrative_mapper() is mapper
            assert stack.handles[name].narrative_mapper() is mapper

    def test_enabled_narrative_is_equivalent_too(self, stack):
        def direct(name):
            return fields(getattr(stack, name).search_outcome(
                NARRATIVE, k=5, narrative=True))

        leaf = direct("leaf")
        assert leaf["narrative"] is not None
        assert direct("fed1") == leaf
        assert direct("fed3") == leaf
        assert stack.run("leaf", NARRATIVE, narrative=True) == leaf

    def test_one_mapping_per_narrative_request(self, stack):
        """``query.narrative.queries`` grows by exactly one per
        narrative request, whichever engine answers it and whether or
        not the service is in front; plain requests map nothing."""
        for name in NAMES:
            engine = getattr(stack, name)
            requests = (
                (lambda: engine.search_outcome(
                    NARRATIVE, k=5, narrative=True), 1),
                (lambda: stack.service.execute(
                    name, NARRATIVE, k=5, narrative=True), 1),
                (lambda: stack.service.execute(name, NARRATIVE, k=5), 0),
                (lambda: engine.search_outcome(NARRATIVE, k=5), 0))
            for request, growth in requests:
                before = engine.stats.value(NARRATIVE_QUERIES)
                request()
                assert engine.stats.value(NARRATIVE_QUERIES) \
                    == before + growth, name


class TestDegradation:
    def test_skipped_shard(self, stack):
        leaf = fields(stack.leaf.search_outcome("asthma", k=5,
                                                skip_shards={0}))
        assert leaf == {"results": [], "partial": False,
                        "degraded_shards": (0,), "narrative": None}
        assert fields(stack.fed1.search_outcome(
            "asthma", k=5, skip_shards={0})) == leaf
        # Three shards: shard 0 alone is shed, the rest still answer.
        degraded = stack.fed3.search_outcome("asthma", k=5,
                                             skip_shards={0})
        assert degraded.degraded_shards == (0,)
        owned_by_0 = stack.fed3.sharded.shard_doc_ids(0)
        exact = stack.fed3.search("asthma", k=1000)
        assert degraded.results == [
            result for result in exact
            if result.doc_id not in owned_by_0][:5]

    def test_absorbed_storage_error_and_open_breaker(
            self, cda_corpus, synthetic_ontology, stores):
        faulty = Stack(
            cda_corpus, synthetic_ontology, stores,
            wrap=lambda store: FaultInjectingStore(
                store, corrupt_keywords=("asthma",)))
        # Unguarded, the fault propagates from both engines alike.
        for engine in (faulty.leaf, faulty.fed1):
            with pytest.raises(StorageError):
                engine.search("asthma", k=5)
        # Through the service it is absorbed and charged to shard 0.
        leaf = faulty.run("leaf", "asthma")
        assert leaf == {"results": [], "partial": False,
                        "degraded_shards": (0,), "narrative": None}
        assert faulty.run("fed1", "asthma") == leaf
        for name in ("leaf", "fed1"):
            assert faulty.handles[name].breaker_states() == [OPEN]
        # The open breaker now sheds even a healthy keyword, without
        # touching the store...
        for name in ("leaf", "fed1"):
            assert faulty.run(name, "aspirin") == leaf
        # ...until the cooldown's probe succeeds and closes it.
        faulty.clock.advance(10.0)
        healthy = faulty.run("leaf", "aspirin")
        assert healthy["results"] and healthy["degraded_shards"] == ()
        assert faulty.run("fed1", "aspirin") == healthy
        for name in ("leaf", "fed1"):
            assert faulty.handles[name].breaker_states() == [CLOSED]

    def test_expired_deadline(self, stack):
        for name in NAMES:
            dead = Deadline(expires_at=0.0, clock=lambda: 100.0)
            with pytest.raises(DeadlineExceeded):
                stack.service.execute(name, "asthma", k=5, deadline=dead)
            # A slow request is not a storage fault: breakers stay shut.
            assert set(stack.handles[name].breaker_states()) == {CLOSED}

    def test_mid_merge_expiry_serves_the_same_partial_prefix(self,
                                                             stack):
        def partial(name):
            # Expire between per-document merges (see test_deadline).
            deadline = Deadline(expires_at=2.5, clock=SteppingClock())
            return stack.run(name, "asthma", deadline=deadline)

        leaf = partial("leaf")
        assert leaf["partial"] and leaf["results"]
        assert partial("fed1") == leaf


class TestTheForkCannotGrowBack:
    SOURCES = sorted(pathlib.Path(repro.__file__).parent.rglob("*.py"))

    @staticmethod
    def _names(node) -> set[str]:
        return {child.id for child in ast.walk(node)
                if isinstance(child, ast.Name)} | {
            child.attr for child in ast.walk(node)
            if isinstance(child, ast.Attribute)}

    def test_src_never_branches_on_the_engine_type(self):
        assert self.SOURCES
        offenders = []
        for path in self.SOURCES:
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id == "isinstance"
                        and len(node.args) == 2
                        and self._names(node.args[1])
                        & {"FederatedEngine", "XOntoRankEngine"}):
                    offenders.append(f"{path}:{node.lineno}")
        assert not offenders, offenders

    def test_src_has_no_engine_union_annotation(self):
        offenders = []
        for path in self.SOURCES:
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                # ast.arg / AnnAssign carry .annotation, defs .returns.
                for field in ("annotation", "returns"):
                    annotation = getattr(node, field, None)
                    if annotation is None:
                        continue
                    if (isinstance(annotation, ast.Constant)
                            and isinstance(annotation.value, str)):
                        annotation = ast.parse(annotation.value,
                                               mode="eval")
                    if {"FederatedEngine", "XOntoRankEngine"} \
                            <= self._names(annotation):
                        offenders.append(f"{path}:{node.lineno}")
        assert not offenders, offenders


class TestOneNarrativePath:
    """Narrative text is mapped in one place, and the stage chain it
    used to be spliced into cannot be mutated again."""

    SOURCE_ROOT = pathlib.Path(repro.__file__).parent

    def test_narrative_text_is_mapped_at_one_site(self):
        sites = []
        for path in TestTheForkCannotGrowBack.SOURCES:
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for scope in ast.walk(tree):
                if not isinstance(scope, ast.ClassDef):
                    continue
                for method in scope.body:
                    if not isinstance(method, (ast.FunctionDef,
                                               ast.AsyncFunctionDef)):
                        continue
                    for node in ast.walk(method):
                        if not (isinstance(node, ast.Call)
                                and isinstance(node.func, ast.Attribute)
                                and node.func.attr == "map"):
                            continue
                        receiver = ast.unparse(node.func.value)
                        if "mapper" in receiver.lower() or (
                                receiver == "self"
                                and "Mapper" in scope.name):
                            sites.append((
                                path.relative_to(self.SOURCE_ROOT)
                                .as_posix(),
                                f"{scope.name}.{method.name}",
                                receiver))
        assert sites == [("core/query/engine.py",
                          "SearchEngine.search_outcome",
                          "self.narrative_mapper()")]

    def test_query_pipeline_never_mutates_its_stages(self):
        from repro.core.query import pipeline
        tree = ast.parse(pathlib.Path(pipeline.__file__)
                         .read_text(encoding="utf-8"))
        (cls,) = [node for node in tree.body
                  if isinstance(node, ast.ClassDef)
                  and node.name == "QueryPipeline"]
        mutators = {"append", "extend", "insert", "pop", "remove",
                    "clear", "reverse", "sort", "__setitem__",
                    "__delitem__"}
        offenders = []
        for method in cls.body:
            if not isinstance(method, ast.FunctionDef):
                continue
            for node in ast.walk(method):
                if (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr in mutators):
                    offenders.append(f"{method.name}: call "
                                     f"{ast.unparse(node.func)}")
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target]
                           if isinstance(node, (ast.AugAssign,
                                                ast.AnnAssign))
                           else node.targets
                           if isinstance(node, ast.Delete) else [])
                for target in targets:
                    text = ast.unparse(target)
                    if not text.startswith("self."):
                        continue
                    # The one write: the tuple fixed at construction.
                    if (method.name == "__init__"
                            and isinstance(node, ast.AnnAssign)
                            and isinstance(node.value, ast.Call)
                            and ast.unparse(node.value.func) == "tuple"):
                        continue
                    offenders.append(f"{method.name}: writes {text}")
        assert not offenders, offenders
