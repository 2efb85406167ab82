"""Ablation: buffer-pool capacity vs I/O (engineering extension).

The paper charges every page read to disk; a real deployment fronts the
table with a buffer pool.  Because the signature table clusters
transactions by supercoordinate and repeated queries revisit the
high-bound entries, even a modest LRU pool absorbs a large share of the
page traffic.  This sweep measures pages read per query and hit rate as a
function of pool capacity, over the profile's query workload: each
query's read list comes from the packed scan once, and is replayed
through a pool of every capacity.
"""

import numpy as np

from repro.core.similarity import MatchRatioSimilarity
from repro.eval.reporting import ExperimentTable
from repro.storage.buffer import BufferPool


def test_ablation_buffer_capacity(ctx, emit, timed):
    spec = ctx.profile["large_spec"]
    engine = ctx.engine(spec, ctx.profile["default_k"])
    table = engine.table
    queries = ctx.queries(spec)
    sim = MatchRatioSimilarity()
    reads = [
        engine.explain(target, sim, early_termination=0.02).reads
        for target in queries
    ]

    result = ExperimentTable(
        title=f"Buffer-pool ablation — {spec}, K={ctx.profile['default_k']}",
        columns=["capacity (pages)", "capacity %", "pages/query", "hit rate %"],
        notes=ctx.notes(["queries at 2% early termination, repeated workload"]),
    )

    total_pages = table.store.num_pages
    for fraction in [0.02, 0.05, 0.1, 0.25, 0.5, 1.0]:
        capacity = max(1, int(fraction * total_pages))
        pool = BufferPool(table.store, capacity=capacity)
        pages = [engine.replay_reads(query, pool).pages_read for query in reads]
        result.add_row(
            **{
                "capacity (pages)": capacity,
                "capacity %": 100.0 * capacity / total_pages,
                "pages/query": float(np.mean(pages)),
                "hit rate %": 100.0 * pool.stats.hit_rate,
            }
        )
    emit(result, "ablation_buffer")

    pages_column = result.column("pages/query")
    hit_rates = result.column("hit rate %")
    # Larger pools never read more pages, and the full-size pool achieves a
    # meaningful hit rate on a repeated workload.
    assert pages_column == sorted(pages_column, reverse=True)
    assert hit_rates[-1] > 20.0

    pool = BufferPool(table.store, capacity=total_pages)
    target = queries[0]
    timed(
        lambda: engine.replay_reads(
            engine.explain(target, sim, early_termination=0.02).reads, pool
        )
    )
