"""Extension: the summary entry bound against the paper's.

The paper bounds an entry by its K activation bits alone (Section 4.1).
Lemma 2.1 holds for any summary of an entry's rows; the summary bound also
uses the OR and AND of the entry's rows' items and its row-length range.
On the same table it must read at most a fifth of the rows the paper's
bound reads when run to completion, and find the true nearest neighbour
at least as often under a 2% early-termination budget.
"""

from repro.core.similarity import (
    CosineSimilarity,
    HammingSimilarity,
    MatchRatioSimilarity,
)
from repro.eval.harness import run_union_bounds


def test_ext_union_bounds(ctx, emit, timed):
    table = run_union_bounds(
        [MatchRatioSimilarity(), HammingSimilarity(), CosineSimilarity()], ctx
    )
    emit(table, "ext_union_bounds")

    rows = {(row["similarity"], row["bounds"]): row for row in table.rows}
    for name in ("match_ratio", "hamming", "cosine"):
        paper, summary = rows[(name, "paper")], rows[(name, "summary")]
        assert 5 * (100.0 - summary["prune%"]) <= 100.0 - paper["prune%"], name
        assert summary["acc% @ 2%"] >= paper["acc% @ 2%"], name

    spec = ctx.profile["large_spec"]
    engine = ctx.engine(spec, ctx.profile["default_k"], bounds="summary")
    target = ctx.queries(spec)[0]
    timed(lambda: engine.nearest_batch([target], MatchRatioSimilarity()))
