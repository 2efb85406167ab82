"""Scaling the index: streaming statistics and a buffer pool.

Engineering extensions around the paper's core structure:

1. **Streaming ingest** — maintain item/pair supports incrementally with a
   reservoir sample while transactions arrive, then learn the signature
   partition from the sample (no history rescan).
2. **Buffer pool** — front the table's simulated disk with a bounded LRU
   pool and watch the hit rate on a repeated query workload.

Scale-out across processes is the cluster router's job: see
``docs/cluster.md``.

Run:  python examples/scaling_out.py
"""

import numpy as np

import repro
from repro.mining.streaming import StreamingSupportCounter
from repro.storage.buffer import BufferPool


def main() -> None:
    print("Simulating a transaction stream (T10.I6, 25K arrivals) ...")
    generator = repro.MarketBasketGenerator(repro.parse_spec("T10.I6.D25K", seed=13))
    db = generator.generate()
    queries = generator.generate(num_transactions=30)

    # --- 1. streaming statistics ------------------------------------------
    counter = StreamingSupportCounter(
        universe_size=db.universe_size, reservoir_size=2000, rng=0
    )
    counter.add_database(db)  # stand-in for the ingest path
    print(
        f"  observed {counter.num_seen} transactions; reservoir holds "
        f"{counter.reservoir_occupancy}"
    )
    sample = counter.as_sample_database()
    scheme = repro.partition_items(sample, num_signatures=13, rng=0)
    print(f"  learned {scheme.num_signatures} signatures from the reservoir")

    table = repro.SignatureTable.build(db, scheme)
    sim = repro.MatchRatioSimilarity()

    # --- 2. buffer pool ----------------------------------------------------
    pool = BufferPool(table.store, capacity=table.store.num_pages // 4)
    searcher = repro.SignatureTableSearcher(db=db, table=table, buffer_pool=pool)
    pages = []
    for q in range(len(queries)):
        target = sorted(queries[q])
        _, stats = searcher.nearest(target, sim, early_termination=0.02)
        pages.append(stats.io.pages_read)
    print(
        f"\nBuffer pool (25% of pages): {np.mean(pages):.1f} pages/query, "
        f"hit rate {100 * pool.stats.hit_rate:.1f}% over the workload"
    )


if __name__ == "__main__":
    main()
