"""XOntoRank: ontology-aware keyword search of XML electronic medical
records.

A from-scratch reproduction of Farfán, Hristidis, Ranganathan & Weiner,
"XOntoRank: Ontology-Aware Search of Electronic Medical Records"
(ICDE 2009), including every substrate the paper runs on: an XML/Dewey
layer, a synthetic SNOMED-CT-shaped ontology with an EL
description-logic view, a BM25 IR engine, a synthetic cardiac-division
EMR database with HL7 CDA conversion, persistent index stores, and the
evaluation harness (top-k Kendall tau, relevance oracle, the published
query workload).

Quickstart::

    from repro import XOntoRankEngine, RELATIONSHIPS
    from repro.ontology import build_synthetic_snomed, TerminologyService
    from repro.emr import generate_cardiac_emr
    from repro.cda import build_cda_corpus

    ontology = build_synthetic_snomed()
    database = generate_cardiac_emr(n_patients=40, ontology=ontology)
    corpus, _ = build_cda_corpus(database, TerminologyService([ontology]))
    engine = XOntoRankEngine(corpus, ontology, strategy=RELATIONSHIPS)
    for result in engine.search('"cardiac arrest" amiodarone', k=5):
        print(result, engine.fragment_text(result)[:120])
"""

from .core import (ALL_STRATEGIES, DEFAULT_CONFIG, GRAPH,
                   ONTOLOGY_STRATEGIES, RELATIONSHIPS, TAXONOMY, XRANK,
                   DILCache, FederatedEngine, IndexManager, QueryPipeline,
                   QueryResult, XOntoRankConfig, XOntoRankEngine,
                   build_engines)
from .ir import Keyword, KeywordQuery
from .xmldoc import ShardedCorpus

__version__ = "1.2.0"

__all__ = [
    "ALL_STRATEGIES", "DEFAULT_CONFIG", "DILCache", "FederatedEngine",
    "GRAPH", "IndexManager", "Keyword", "KeywordQuery",
    "ONTOLOGY_STRATEGIES", "QueryPipeline", "QueryResult",
    "RELATIONSHIPS", "ShardedCorpus", "TAXONOMY",
    "XOntoRankConfig", "XOntoRankEngine", "XRANK", "build_engines",
    "__version__",
]
