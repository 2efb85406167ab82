"""Ablation: memory availability vs performance (paper Section 5, axis 3).

The ``2^K`` directory must live in main memory, so available memory caps
K.  The paper reports that performance improves with memory availability;
this sweep makes the trade-off explicit: directory KiB vs pruning
efficiency and early-termination accuracy.
"""

from repro.core.similarity import MatchRatioSimilarity
from repro.eval.harness import run_memory_ablation


def test_ablation_memory_availability(ctx, emit, timed):
    table = run_memory_ablation(
        MatchRatioSimilarity(), ctx, ks=(8, 10, 12, 14, 16)
    )
    emit(table, "ablation_memory")

    kib = table.column("directory KiB")
    prune = table.column("prune%")
    assert kib == sorted(kib)
    # More memory (higher K) must not hurt pruning materially; the paper
    # reports monotone improvement.
    assert prune[-1] >= prune[0] - 2.0

    engine = ctx.engine(ctx.profile["large_spec"], 16)
    target = ctx.queries(ctx.profile["large_spec"])[0]
    timed(lambda: engine.nearest_batch([target], MatchRatioSimilarity()))
