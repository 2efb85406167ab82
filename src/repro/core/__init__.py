"""The paper's primary contribution: the signature table index.

Sub-modules follow the paper's structure:

* :mod:`repro.core.similarity` — the family of similarity functions
  ``f(x, y)`` supported at query time (Section 2).
* :mod:`repro.core.partitioning` — correlation-graph construction and
  single-linkage critical-mass clustering of items into signatures
  (Section 3.1).
* :mod:`repro.core.signature` — activation counts and supercoordinates
  (Section 3).
* :mod:`repro.core.bounds` — optimistic match / hamming-distance bounds
  (Section 4.1).
* :mod:`repro.core.table` — the signature table itself (Section 3).
* :mod:`repro.core.search` — the branch-and-bound query algorithms
  (Sections 4, 4.2, 4.3).
* :mod:`repro.core.builder` — one-call pipeline from a database to a ready
  index that takes inserts.
* :mod:`repro.core.engine` — batched query execution (an engineering
  extension; exact by construction and by differential test).
* :mod:`repro.core.merge` — the scatter-gather merge rule for answers
  from several tables.
"""

from repro.core.advisor import IndexAdvice, max_k_for_memory, suggest_parameters
from repro.core.bounds import (
    BatchBoundCalculator,
    optimistic_distance,
    optimistic_matches,
)
from repro.core.builder import IndexBuildReport, build_index
from repro.core.engine import (
    BatchKey,
    BatchSummary,
    QueryEngine,
    batch_key,
    similarity_key,
    summarise_stats,
)
from repro.core.merge import merge_neighbor_lists, merge_search_stats
from repro.core.partitioning import (
    PartitioningError,
    balanced_support_partition,
    correlation_graph,
    partition_items,
    random_partition,
    single_linkage_partition,
)
from repro.core.search import (
    Neighbor,
    PreparedQuery,
    SearchStats,
    SignatureTableSearcher,
)
from repro.core.signature import SignatureScheme
from repro.core.similarity import (
    ContainmentSimilarity,
    CosineSimilarity,
    CustomSimilarity,
    DiceSimilarity,
    HammingSimilarity,
    JaccardSimilarity,
    MatchCountSimilarity,
    MatchRatioSimilarity,
    SimilarityFunction,
    UnboundSimilarityError,
    WeightedLinearSimilarity,
    get_similarity,
    hamming_distance,
    matches,
    verify_monotonicity,
)
from repro.core.table import SignatureTable

__all__ = [
    "SimilarityFunction",
    "HammingSimilarity",
    "MatchRatioSimilarity",
    "CosineSimilarity",
    "JaccardSimilarity",
    "DiceSimilarity",
    "ContainmentSimilarity",
    "MatchCountSimilarity",
    "WeightedLinearSimilarity",
    "CustomSimilarity",
    "UnboundSimilarityError",
    "get_similarity",
    "matches",
    "hamming_distance",
    "verify_monotonicity",
    "SignatureScheme",
    "SignatureTable",
    "SignatureTableSearcher",
    "merge_neighbor_lists",
    "merge_search_stats",
    "Neighbor",
    "PreparedQuery",
    "SearchStats",
    "QueryEngine",
    "BatchSummary",
    "summarise_stats",
    "BatchBoundCalculator",
    "optimistic_matches",
    "optimistic_distance",
    "correlation_graph",
    "single_linkage_partition",
    "partition_items",
    "random_partition",
    "balanced_support_partition",
    "PartitioningError",
    "build_index",
    "IndexBuildReport",
    "IndexAdvice",
    "suggest_parameters",
    "max_k_for_memory",
]
