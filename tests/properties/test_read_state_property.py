"""Property tests for the base+delta read state's contract.

Both :class:`~repro.core.builder.MarketBasketIndex` and
:class:`~repro.live.index.LiveIndex` answer through
:class:`~repro.core.merge.ReadState`.  Over random bases, pending
inserts and (for the live index) deletes, every query:

* returns what a fresh build over the logical rows returns, tid for tid;
* reports the logical size as ``total_transactions``;
* reports as ``transactions_accessed`` the base engine's own count for
  the same query and candidate mask, plus every live delta row.
"""

import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.engine import QueryEngine
from repro.core.table import SignatureTable
from repro.data.transaction import TransactionDatabase
from repro.live import LiveIndex

SIMILARITIES = [
    repro.JaccardSimilarity(),
    repro.CosineSimilarity(),
    repro.HammingSimilarity(),
    repro.MatchRatioSimilarity(),
]
CONSTRAINTS = [(repro.MatchCountSimilarity(), 1.0), (repro.DiceSimilarity(), 0.3)]


@st.composite
def read_instances(draw):
    universe_size = draw(st.integers(min_value=6, max_value=20))
    transaction = st.lists(
        st.integers(min_value=0, max_value=universe_size - 1),
        min_size=1,
        max_size=universe_size,
    ).map(lambda items: sorted(set(items)))
    base_rows = draw(st.lists(transaction, min_size=3, max_size=15))
    inserts = draw(st.lists(transaction, min_size=0, max_size=len(base_rows)))
    deletes = draw(st.lists(st.integers(min_value=0, max_value=10_000), max_size=8))
    targets = draw(st.lists(transaction, min_size=2, max_size=3))
    similarity = draw(st.sampled_from(SIMILARITIES))
    k = draw(st.integers(min_value=1, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=1000))
    return universe_size, base_rows, inserts, deletes, targets, similarity, k, seed


def _pairs(neighbors):
    return [(nb.tid, nb.similarity) for nb in neighbors]


@settings(max_examples=30, deadline=None)
@given(read_instances())
def test_facade_reads_pending_inserts(instance):
    universe_size, base_rows, inserts, _, targets, similarity, k, seed = instance
    scheme = repro.random_partition(universe_size, 3, rng=seed)
    base_db = TransactionDatabase(base_rows, universe_size=universe_size)
    index = repro.MarketBasketIndex(base_db, scheme, auto_compact_fraction=1.0)
    for row in inserts:
        index.insert(row)
    assert index.delta_size == len(inserts)
    fresh = repro.MarketBasketIndex(
        TransactionDatabase(base_rows + inserts, universe_size=universe_size),
        scheme,
    )
    base = QueryEngine.for_table(index.table, index.db)
    target = targets[0]
    (_,), (base_knn_stats,) = base.knn_batch([target], similarity, k=k)
    (_,), (base_range_stats,) = base.range_query_batch([target], similarity, 0.25)
    queries = [
        (
            lambda ix: ix.knn(target, similarity, k=k),
            base_knn_stats,
        ),
        (
            lambda ix: ix.range_query(target, similarity, 0.25),
            base_range_stats,
        ),
        (
            lambda ix: ix.multi_range_query(target, CONSTRAINTS),
            base.multi_range_query(target, CONSTRAINTS)[1],
        ),
        (
            lambda ix: ix.multi_target_knn(targets, similarity, k=k),
            base.multi_target_knn(targets, similarity, k=k)[1],
        ),
    ]
    for query, base_stats in queries:
        got, stats = query(index)
        want, _ = query(fresh)
        assert _pairs(got) == _pairs(want)
        assert stats.total_transactions == len(base_rows) + len(inserts)
        assert stats.transactions_accessed == (
            base_stats.transactions_accessed + len(inserts)
        )


@settings(max_examples=25, deadline=None)
@given(read_instances())
def test_live_index_reads_inserts_and_deletes(instance):
    universe_size, base_rows, inserts, deletes, targets, similarity, k, seed = (
        instance
    )
    scheme = repro.random_partition(universe_size, 3, rng=seed)
    base_db = TransactionDatabase(base_rows, universe_size=universe_size)
    # The logical rows as (segment, id): live base rows in tid order,
    # then delta rows in insertion order.
    model = [("base", tid) for tid in range(len(base_rows))]
    with tempfile.TemporaryDirectory() as root:
        with LiveIndex.create(f"{root}/idx", base_db, scheme=scheme) as live:
            for position, row in enumerate(inserts):
                live.insert(row)
                model.append(("delta", position))
            for draw in deletes:
                if len(model) == 1:
                    break
                logical = draw % len(model)
                live.delete(logical)
                del model[logical]
            logical_db = live.logical_db()
            base_live = np.zeros(len(base_rows), dtype=bool)
            base_live[[tid for segment, tid in model if segment == "base"]] = True
            delta_rows = sum(segment == "delta" for segment, _ in model)

            fresh = QueryEngine.for_table(
                SignatureTable.build(logical_db, scheme), logical_db
            )
            base = QueryEngine.for_table(live.base_table, base_db)
            mask = base_live if not base_live.all() else None
            got = [
                live.knn_batch(targets, similarity, k=k),
                live.range_query_batch(targets, similarity, 0.25),
            ]
            want = [
                fresh.knn_batch(targets, similarity, k=k),
                fresh.range_query_batch(targets, similarity, 0.25),
            ]
            base_stats = [
                base.knn_batch(targets, similarity, k=k, candidates=mask)[1],
                base.range_query_batch(
                    targets, similarity, 0.25, candidates=mask
                )[1],
            ]
    assert len(logical_db) == len(model)
    for (lists, stats), (want_lists, _), own in zip(got, want, base_stats):
        assert [_pairs(hits) for hits in lists] == [
            _pairs(hits) for hits in want_lists
        ]
        for one, base_one in zip(stats, own):
            assert one.total_transactions == len(model)
            assert one.transactions_accessed == (
                base_one.transactions_accessed + delta_rows
            )
