"""Scaling the index: a sampled partition and a buffer pool.

Engineering extensions around the paper's core structure:

1. **Sampled partitioning** — learn the signature partition from pair
   supports counted over a uniform sample of the transactions
   (``max_transactions``), not the whole history.
2. **Buffer pool** — front the table's simulated disk with a bounded LRU
   pool and watch the hit rate on a repeated query workload.

Scale-out across processes is the cluster router's job: see
``docs/cluster.md``.

Run:  python examples/scaling_out.py
"""

import numpy as np

import repro
from repro.storage.buffer import BufferPool


def main() -> None:
    print("Generating transactions (T10.I6.D25K) ...")
    generator = repro.MarketBasketGenerator(repro.parse_spec("T10.I6.D25K", seed=13))
    db = generator.generate()
    queries = generator.generate(num_transactions=30)

    # --- 1. sampled partitioning ------------------------------------------
    scheme = repro.partition_items(
        db, num_signatures=13, max_transactions=2000, rng=0
    )
    print(
        f"  learned {scheme.num_signatures} signatures from pair supports "
        f"over 2000 of {len(db)} transactions"
    )

    table = repro.SignatureTable.build(db, scheme)
    sim = repro.MatchRatioSimilarity()

    # --- 2. buffer pool ----------------------------------------------------
    # Each query's read list comes from the packed scan; replaying it
    # through the pool charges only the pages the pool misses.
    engine = repro.QueryEngine(table, db)
    pool = BufferPool(table.store, capacity=table.store.num_pages // 4)
    pages = []
    for q in range(len(queries)):
        target = sorted(queries[q])
        reads = engine.explain(target, sim, early_termination=0.02).reads
        pages.append(engine.replay_reads(reads, pool).pages_read)
    print(
        f"\nBuffer pool (25% of pages): {np.mean(pages):.1f} pages/query, "
        f"hit rate {100 * pool.stats.hit_rate:.1f}% over the workload"
    )


if __name__ == "__main__":
    main()
