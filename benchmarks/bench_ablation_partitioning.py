"""Ablation: correlation-aware vs correlation-blind partitioning.

Section 3.1 motivates clustering *correlated* items into signatures so a
transaction activates few signatures and the supercoordinates carry
signal.  This benchmark compares the paper's single-linkage partition with
a random partition and a support-balanced (but correlation-blind) one, at
the same K, on the same data and queries.
"""

from repro.core.similarity import MatchRatioSimilarity
from repro.eval.harness import run_ablation_partitioning


def test_ablation_partitioning(ctx, emit, timed):
    table = run_ablation_partitioning(MatchRatioSimilarity(), ctx)
    emit(table, "ablation_partitioning")

    by_label = {row["partitioning"]: row for row in table.rows}
    paper = by_label["correlation (paper)"]
    random_row = by_label["random"]
    # The correlation-aware partition must not lose to random on pruning
    # (it usually wins clearly; small slack keeps the check robust).
    assert paper["prune%"] >= random_row["prune%"] - 5.0

    engine = ctx.engine(ctx.profile["large_spec"], ctx.profile["default_k"])
    target = ctx.queries(ctx.profile["large_spec"])[0]
    timed(lambda: engine.nearest_batch([target], MatchRatioSimilarity()))
