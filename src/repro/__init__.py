"""Signature tables for similarity indexing of market basket data.

A faithful, production-quality reproduction of

    Charu C. Aggarwal, Joel L. Wolf, Philip S. Yu.
    "A New Method for Similarity Indexing of Market Basket Data."
    SIGMOD 1999.

Quickstart
----------
>>> import repro
>>> db = repro.generate("T10.I6.D5K", seed=7)
>>> index = repro.build_index(db, num_signatures=12)
>>> target = db[0]
>>> neighbors, stats = index.knn(target, repro.MatchRatioSimilarity(), k=5)
>>> stats.pruning_efficiency > 0
True

The index is built once and supports *any* similarity function satisfying
the paper's monotonicity contract at query time — hamming distance,
match/hamming ratio, cosine, Jaccard, Dice, or your own
:class:`~repro.core.similarity.CustomSimilarity`.
"""

from repro.baselines import (
    InvertedIndex,
    LinearScanIndex,
    MinHasher,
    MinHashLSHIndex,
)
from repro.core import (
    BatchBoundCalculator,
    BatchKey,
    BatchSummary,
    ContainmentSimilarity,
    CosineSimilarity,
    CustomSimilarity,
    DiceSimilarity,
    HammingSimilarity,
    IndexAdvice,
    IndexBuildReport,
    JaccardSimilarity,
    MatchCountSimilarity,
    MatchRatioSimilarity,
    Neighbor,
    PartitioningError,
    PreparedQuery,
    QueryEngine,
    SearchStats,
    SignatureScheme,
    SignatureTable,
    SignatureTableSearcher,
    SimilarityFunction,
    UnboundSimilarityError,
    WeightedLinearSimilarity,
    balanced_support_partition,
    batch_key,
    build_index,
    correlation_graph,
    get_similarity,
    hamming_distance,
    matches,
    partition_items,
    max_k_for_memory,
    random_partition,
    similarity_key,
    single_linkage_partition,
    suggest_parameters,
    summarise_stats,
    verify_monotonicity,
)
from repro.core.builder import MarketBasketIndex
from repro.data import (
    DatasetStats,
    GeneratorConfig,
    MarketBasketGenerator,
    TransactionDatabase,
    describe,
    format_spec,
    generate,
    parse_spec,
)
from repro.mining import PairSupports, count_pair_supports
from repro.sketch import (
    BandIndex,
    SketchIndex,
    SketchProbe,
    SuperMinHasher,
)
from repro.service import (
    MicroBatcher,
    QueryServer,
    ServiceClient,
    ServiceError,
    ServiceMetrics,
    serve_in_background,
)
from repro.storage import BufferPool, BufferStats, DiskModel, IOCounters, PagedStore

__version__ = "1.0.0"

__all__ = [
    # data
    "TransactionDatabase",
    "GeneratorConfig",
    "MarketBasketGenerator",
    "generate",
    "parse_spec",
    "format_spec",
    "DatasetStats",
    "describe",
    # mining
    "count_pair_supports",
    "PairSupports",
    # similarity
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
    # core index
    "SignatureScheme",
    "SignatureTable",
    "SignatureTableSearcher",
    "MarketBasketIndex",
    "build_index",
    "IndexBuildReport",
    "IndexAdvice",
    "suggest_parameters",
    "max_k_for_memory",
    "Neighbor",
    "PreparedQuery",
    "SearchStats",
    "QueryEngine",
    "BatchSummary",
    "BatchKey",
    "batch_key",
    "similarity_key",
    "summarise_stats",
    "BatchBoundCalculator",
    "partition_items",
    "correlation_graph",
    "single_linkage_partition",
    "random_partition",
    "balanced_support_partition",
    "PartitioningError",
    # baselines
    "LinearScanIndex",
    "InvertedIndex",
    "MinHasher",
    "MinHashLSHIndex",
    # storage
    "PagedStore",
    "DiskModel",
    "IOCounters",
    "BufferPool",
    "BufferStats",
    # sketch tier
    "SuperMinHasher",
    "BandIndex",
    "SketchIndex",
    "SketchProbe",
    # serving
    "QueryServer",
    "MicroBatcher",
    "ServiceClient",
    "ServiceError",
    "ServiceMetrics",
    "serve_in_background",
]
