"""XOntoRank core: the paper's primary contribution.

Result semantics and ranking (Eq. 1-5), the three OntoScore strategies
(Section IV), the XOnto-DIL index (Section V-B) and the query machinery
(Section V-A).
"""

from .cache import DILCache
from .config import (ALL_STRATEGIES, DEFAULT_CONFIG, GRAPH,
                     ONTOLOGY_STRATEGIES, RELATIONSHIPS, TAXONOMY, XRANK,
                     XOntoRankConfig)
from .elemrank import ElemRankComputer, ElemRankParameters
from .index import (DeweyInvertedList, IndexBuilder, IndexManager,
                    KeywordBuildStats, Posting, XOntoDILIndex, index_key,
                    keyword_from_key)
from .stats import CacheStats, StatsRegistry
from .ontoscore import (GraphOntoScore, MaterializedRelationshipsOntoScore,
                        NullOntoScore, OntoScoreComputer,
                        RelationshipsOntoScore, SeedScorer,
                        TaxonomyOntoScore, best_first_expansion,
                        concept_seed_scorer, level_order_expansion,
                        relationships_seed_scorer)
from .query import (DILQueryProcessor, DILQueryStatistics,
                    FederatedEngine, KeywordEvidence, NaiveEvaluator,
                    OntologyHop, QueryPipeline, QueryResult,
                    ResultExplanation, XOntoRankEngine, build_engines,
                    explain_result, merge_ranked, rank_results)
from .scoring import (ElementIndex, NodeScorer, propagate_scores,
                      result_score)

__all__ = [
    "ALL_STRATEGIES", "CacheStats", "DEFAULT_CONFIG", "DILCache",
    "DILQueryProcessor", "DILQueryStatistics", "DeweyInvertedList",
    "ElemRankComputer", "ElemRankParameters", "ElementIndex",
    "FederatedEngine", "GRAPH", "KeywordEvidence", "OntologyHop",
    "ResultExplanation", "explain_result", "GraphOntoScore",
    "IndexBuilder", "IndexManager", "KeywordBuildStats",
    "MaterializedRelationshipsOntoScore", "NaiveEvaluator",
    "NodeScorer", "NullOntoScore", "ONTOLOGY_STRATEGIES",
    "OntoScoreComputer", "Posting",
    "QueryPipeline", "QueryResult", "RELATIONSHIPS",
    "RelationshipsOntoScore", "SeedScorer", "StatsRegistry", "TAXONOMY",
    "TaxonomyOntoScore", "XOntoDILIndex", "XOntoRankConfig",
    "XOntoRankEngine", "XRANK", "best_first_expansion", "build_engines",
    "concept_seed_scorer", "index_key", "keyword_from_key",
    "level_order_expansion", "merge_ranked", "propagate_scores",
    "rank_results", "relationships_seed_scorer", "result_score",
]
