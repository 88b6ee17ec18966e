"""The Query Module: DIL stack merge, naive reference evaluator, and the
engine facade (paper Section V-A)."""

from .dil_algorithm import DILQueryProcessor, DILQueryStatistics
from .engine import SearchEngine, XOntoRankEngine, build_engines
from .explain import (KeywordEvidence, ONTOLOGICAL, OntologyHop,
                      ResultExplanation, TEXTUAL, explain_result)
from .federated import (FederatedEngine, ShardScopedBuilder,
                        merge_ranked, shard_store_path,
                        shard_store_paths)
from .graph_search import GraphResult, GraphSearchEngine
from .naive import NaiveEvaluator
from .pipeline import (DILFetchStage, MergeStage, ParseStage,
                       QueryContext, QueryPipeline, QueryStage,
                       RankStage)
from .results import QueryResult, rank_results

__all__ = [
    "DILFetchStage", "DILQueryProcessor", "DILQueryStatistics",
    "FederatedEngine", "GraphResult", "GraphSearchEngine",
    "KeywordEvidence", "MergeStage", "NaiveEvaluator", "ONTOLOGICAL",
    "OntologyHop", "ParseStage", "QueryContext", "QueryPipeline",
    "QueryResult", "QueryStage", "RankStage", "ResultExplanation",
    "SearchEngine", "ShardScopedBuilder", "TEXTUAL", "XOntoRankEngine",
    "build_engines", "explain_result", "merge_ranked", "rank_results",
    "shard_store_path", "shard_store_paths",
]
