"""Raw query/build throughput of the core components.

These are the pytest-benchmark timing kernels proper: table build,
bound computation + entry ranking, full branch-and-bound queries of each
flavour, and the baselines, all on the profile's large dataset.
"""

from repro.core.similarity import (
    CosineSimilarity,
    HammingSimilarity,
    JaccardSimilarity,
    MatchRatioSimilarity,
)
from repro.core.table import SignatureTable


def test_speed_table_build(ctx, benchmark):
    spec = ctx.profile["large_spec"]
    indexed, _ = ctx.database(spec)
    scheme = ctx.scheme(spec, ctx.profile["default_k"])
    benchmark.pedantic(
        lambda: SignatureTable.build(indexed, scheme),
        rounds=3,
        iterations=1,
        warmup_rounds=1,
    )


def test_speed_nearest_hamming(ctx, timed):
    spec = ctx.profile["large_spec"]
    engine = ctx.engine(spec, ctx.profile["default_k"])
    target = ctx.queries(spec)[1]
    timed(lambda: engine.nearest_batch([target], HammingSimilarity()))


def test_speed_nearest_cosine(ctx, timed):
    spec = ctx.profile["large_spec"]
    engine = ctx.engine(spec, ctx.profile["default_k"])
    target = ctx.queries(spec)[1]
    timed(lambda: engine.nearest_batch([target], CosineSimilarity()))


def test_speed_knn10(ctx, timed):
    spec = ctx.profile["large_spec"]
    engine = ctx.engine(spec, ctx.profile["default_k"])
    target = ctx.queries(spec)[1]
    timed(lambda: engine.knn_batch([target], MatchRatioSimilarity(), k=10))


def test_speed_range_query(ctx, timed):
    spec = ctx.profile["large_spec"]
    engine = ctx.engine(spec, ctx.profile["default_k"])
    target = ctx.queries(spec)[1]
    timed(lambda: engine.range_query_batch([target], JaccardSimilarity(), 0.5))


def test_speed_multi_target(ctx, timed):
    spec = ctx.profile["large_spec"]
    engine = ctx.engine(spec, ctx.profile["default_k"])
    targets = ctx.queries(spec)[:3]
    timed(
        lambda: engine.multi_target_knn(
            targets, JaccardSimilarity(), k=5, aggregate="mean"
        )
    )


def test_speed_linear_scan_baseline(ctx, timed):
    spec = ctx.profile["large_spec"]
    scan = ctx.scan(spec)
    target = ctx.queries(spec)[1]
    timed(lambda: scan.nearest(target, MatchRatioSimilarity()))
