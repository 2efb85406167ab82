"""Extension: the page-scattering effect, quantified (paper Section 5.1).

The paper argues in prose that the inverted index's scattered candidate
fetch "may result in almost the entire database being accessed" at page
granularity, while the signature table reads few, mostly contiguous page
runs.  This benchmark measures pages, seeks and modelled I/O cost for the
three access methods on the same queries.
"""

import numpy as np

from repro.baselines.inverted import InvertedIndex
from repro.baselines.linear_scan import LinearScanIndex
from repro.core.similarity import MatchRatioSimilarity
from repro.eval.reporting import ExperimentTable
from repro.storage.pages import DiskModel


def test_ext_page_scattering(ctx, emit, timed):
    spec = ctx.profile["large_spec"]
    indexed, _ = ctx.database(spec)
    queries = ctx.queries(spec)
    sim = MatchRatioSimilarity()
    engine = ctx.engine(spec, ctx.profile["default_k"])
    inverted = InvertedIndex(indexed)
    scan = LinearScanIndex(indexed)
    model = DiskModel()

    def collect(all_stats):
        return (
            float(np.mean([stats.io.pages_read for stats in all_stats])),
            float(np.mean([stats.io.seeks for stats in all_stats])),
            float(np.mean([model.cost_ms(stats.io) for stats in all_stats])),
        )

    rows = {
        "signature table @2%": collect(
            engine.nearest_batch(queries, sim, early_termination=0.02)[1]
        ),
        "signature table (complete)": collect(
            engine.nearest_batch(queries, sim)[1]
        ),
        "inverted index": collect([inverted.nearest(t, sim)[1] for t in queries]),
        "sequential scan": collect([scan.nearest(t, sim)[1] for t in queries]),
    }

    table = ExperimentTable(
        title=f"Page scattering (Section 5.1) — {spec}, page size 64",
        columns=["method", "pages/query", "seeks/query", "model cost ms"],
        notes=ctx.notes(["disk model: 10 ms seek + 1 ms page transfer"]),
    )
    for method, (pages, seeks, cost) in rows.items():
        table.add_row(
            method=method,
            **{
                "pages/query": pages,
                "seeks/query": seeks,
                "model cost ms": cost,
            },
        )
    emit(table, "ext_io_model")

    # Paper shape: the early-terminated signature table is at least
    # competitive with the inverted index under the seek+transfer model
    # (clearly cheaper at paper scale; small slack for the quick profile).
    assert rows["signature table @2%"][2] <= 1.25 * rows["inverted index"][2]
    # The inverted fetch touches a large share of the pages the scan does.
    assert rows["inverted index"][0] >= 0.3 * rows["sequential scan"][0]

    target = queries[0]
    timed(lambda: inverted.nearest(target, sim))
