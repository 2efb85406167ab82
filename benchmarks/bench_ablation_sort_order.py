"""Ablation: entry scan order (paper Section 4's two alternatives).

The paper sorts entries by optimistic bound but suggests sorting by the
similarity between supercoordinates as an alternative that "can improve
the performance when the sort criterion is a better indication of the
average case similarity".  Pruning always uses the optimistic bounds.
"""

from repro.core.search import SignatureTableSearcher
from repro.core.similarity import MatchRatioSimilarity
from repro.eval.harness import run_ablation_sort_order


def test_ablation_sort_order(ctx, emit, timed):
    table = run_ablation_sort_order(MatchRatioSimilarity(), ctx)
    emit(table, "ablation_sort_order")

    assert set(table.column("sort_by")) == {"optimistic", "supercoordinate"}
    # Both orders are exact when run to completion, so both prune a
    # meaningful share of the data.
    for row in table.rows:
        assert row["prune%"] > 10.0

    spec = ctx.profile["large_spec"]
    indexed, _ = ctx.database(spec)
    searcher = SignatureTableSearcher(
        ctx.table(spec, ctx.profile["default_k"]), indexed
    )
    target = ctx.queries(spec)[0]
    timed(
        lambda: searcher.nearest(
            target, MatchRatioSimilarity(), sort_by="supercoordinate"
        )
    )
