"""Extension: k-NN result-set size sweep (Section 4.3 generalisation).

The paper generalises the algorithm to k nearest neighbours: the
pessimistic bound becomes the k-th best candidate, which is looser, so
more entries survive pruning.  This sweep quantifies the cost of larger
result sets and checks the exactness of every k.
"""

import numpy as np

from repro.core.similarity import MatchRatioSimilarity
from repro.eval.reporting import ExperimentTable


def test_ext_k_sweep(ctx, emit, timed):
    spec = ctx.profile["large_spec"]
    indexed, _ = ctx.database(spec)
    engine = ctx.engine(spec, ctx.profile["default_k"])
    scan = ctx.scan(spec)
    queries = ctx.queries(spec)
    sim = MatchRatioSimilarity()

    result = ExperimentTable(
        title=f"k-NN sweep — {spec}, K={ctx.profile['default_k']}",
        columns=["k", "prune%", "exact%"],
        notes=ctx.notes([f"similarity={sim.name}"]),
    )
    prune_by_k = {}
    for k in [1, 5, 10, 25, 50]:
        prune, exact = [], 0
        results, all_stats = engine.knn_batch(queries, sim, k=k)
        for target, neighbors, stats in zip(queries, results, all_stats):
            prune.append(stats.pruning_efficiency)
            truth, _ = scan.knn(target, sim, k=k)
            if np.allclose(
                [n.similarity for n in neighbors],
                [n.similarity for n in truth],
            ):
                exact += 1
        prune_by_k[k] = float(np.mean(prune))
        result.add_row(
            k=k,
            **{
                "prune%": prune_by_k[k],
                "exact%": 100.0 * exact / len(queries),
            },
        )
    emit(result, "ext_k_sweep")

    # Exactness at every k; pruning weakens monotonically (with slack).
    assert all(row["exact%"] == 100.0 for row in result.rows)
    assert prune_by_k[50] <= prune_by_k[1] + 1.0

    target = queries[0]
    timed(lambda: engine.knn_batch([target], sim, k=25))
