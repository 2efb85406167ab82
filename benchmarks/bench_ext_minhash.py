"""Extension: MinHash/LSH vs the signature table (not in the paper).

MinHash/LSH is the technique that historically superseded signature tables
for set-similarity search.  The comparison highlights the trade-off the
paper's design makes: the signature table commits to *no* similarity
function at build time (and is exact when run to completion), while LSH
commits to Jaccard at build time and is inherently approximate — but
touches very few candidates.
"""

import numpy as np

from repro.baselines.minhash import MinHashLSHIndex
from repro.core.similarity import JaccardSimilarity
from repro.eval.metrics import values_match
from repro.eval.reporting import ExperimentTable


def test_ext_minhash_vs_signature_table(ctx, emit, timed):
    spec = ctx.profile["large_spec"]
    indexed, _ = ctx.database(spec)
    queries = ctx.queries(spec)
    sim = JaccardSimilarity()
    truths = ctx.truths(spec, sim)
    engine = ctx.engine(spec, ctx.profile["default_k"])

    table = ExperimentTable(
        title=f"MinHash/LSH vs signature table — jaccard ({spec})",
        columns=["method", "acc%", "mean access%", "exact when complete"],
        notes=ctx.notes(),
    )

    # Signature table at 2% early termination.
    best, all_stats = engine.nearest_batch(queries, sim, early_termination=0.02)
    found = [nb.similarity if nb else float("-inf") for nb in best]
    access = [100.0 * stats.access_fraction for stats in all_stats]
    sig_acc = 100.0 * np.mean(
        [values_match(f, t) for f, t in zip(found, truths)]
    )
    table.add_row(
        method="signature table @2%",
        **{
            "acc%": sig_acc,
            "mean access%": float(np.mean(access)),
            "exact when complete": "yes",
        },
    )

    # LSH at two banding shapes.
    for bands, rows in [(16, 4), (32, 2)]:
        lsh = MinHashLSHIndex(
            indexed, num_bands=bands, rows_per_band=rows, rng=ctx.seed
        )
        found, access = [], []
        for target in queries:
            neighbors, stats = lsh.knn(target, sim, k=1)
            found.append(
                neighbors[0].similarity if neighbors else float("-inf")
            )
            access.append(100.0 * stats.access_fraction)
        lsh_acc = 100.0 * np.mean(
            [values_match(f, t) for f, t in zip(found, truths)]
        )
        table.add_row(
            method=f"minhash-lsh b={bands} r={rows}",
            **{
                "acc%": lsh_acc,
                "mean access%": float(np.mean(access)),
                "exact when complete": "no",
            },
        )

    emit(table, "ext_minhash")
    # Both methods must beat coin-flip levels on this duplicate-rich data.
    assert all(row["acc%"] >= 20.0 for row in table.rows)

    lsh = MinHashLSHIndex(indexed, num_bands=16, rows_per_band=4, rng=ctx.seed)
    target = queries[0]
    timed(lambda: lsh.knn(target, sim, k=1))
