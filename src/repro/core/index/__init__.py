"""The Index Creation Module: XOnto-DILs, vocabulary, the three-stage
builder (paper Section V-B), and the incremental segment lifecycle."""

from .builder import IndexBuilder
from .dil import (DeweyInvertedList, KeywordBuildStats, Posting,
                  XOntoDILIndex, index_key, keyword_from_key)
from .manager import IndexManager, memoized_corpus_fingerprint
from .segments import SegmentLifecycle, compact_store
from .vocabulary import (concept_vocabulary, concepts_within_radius,
                         corpus_vocabulary, experiment_vocabulary,
                         full_vocabulary, referenced_concepts)

__all__ = [
    "DeweyInvertedList", "IndexBuilder", "IndexManager",
    "KeywordBuildStats", "Posting", "SegmentLifecycle", "XOntoDILIndex",
    "compact_store",
    "concept_vocabulary", "concepts_within_radius", "corpus_vocabulary",
    "experiment_vocabulary", "full_vocabulary", "index_key",
    "keyword_from_key", "memoized_corpus_fingerprint",
    "referenced_concepts",
]
