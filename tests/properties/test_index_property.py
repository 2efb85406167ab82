"""Property tests for index maintenance and composition.

* insert-then-query equals build-from-scratch, tid for tid, for every
  query of the facade (main + delta transparency);
* compaction changes no answer;
* slicing the rows over several tables and merging changes no answer,
  for any slice count;
* table verify() accepts every freshly built table.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.merge import merge_neighbor_lists, merge_search_stats
from repro.core.search import Neighbor
from repro.data.transaction import TransactionDatabase


@st.composite
def maintenance_instances(draw):
    universe_size = draw(st.integers(min_value=6, max_value=20))
    transaction = st.lists(
        st.integers(min_value=0, max_value=universe_size - 1),
        min_size=1,
        max_size=universe_size,
    )
    base_rows = draw(st.lists(transaction, min_size=3, max_size=15))
    extra_rows = draw(st.lists(transaction, min_size=1, max_size=6))
    target = sorted(set(draw(transaction)))
    seed = draw(st.integers(min_value=0, max_value=1000))
    return universe_size, base_rows, extra_rows, target, seed


def _scheme(universe_size, seed, k=3):
    return repro.random_partition(universe_size, k, rng=seed)


def _answers(index, targets):
    """Every facade query's neighbour list for ``targets[0]`` (and, for
    the multi-target queries, all of ``targets``)."""
    target = targets[0]
    jaccard = repro.JaccardSimilarity()
    k = min(4, len(index))
    answers = [
        index.knn(target, jaccard, k=k)[0],
        index.range_query(target, jaccard, 0.25)[0],
        index.multi_range_query(
            target,
            [(repro.MatchCountSimilarity(), 1.0), (repro.DiceSimilarity(), 0.3)],
        )[0],
    ]
    for aggregate, weights in (
        ("mean", None), ("min", None), ("max", None),
        ("mean", [1.0, 0.0]), ("mean", [3.0, 1.0]),
    ):
        answers.append(
            index.multi_target_knn(
                targets, jaccard, k=k, aggregate=aggregate, weights=weights
            )[0]
        )
    return answers


@settings(max_examples=30, deadline=None)
@given(maintenance_instances())
def test_insert_equals_rebuild(instance):
    universe_size, base_rows, extra_rows, target, seed = instance
    scheme = _scheme(universe_size, seed)
    base_db = TransactionDatabase(base_rows, universe_size=universe_size)
    full_db = TransactionDatabase(
        base_rows + extra_rows, universe_size=universe_size
    )

    incremental = repro.MarketBasketIndex(
        base_db, scheme, auto_compact_fraction=1.0
    )
    for row in extra_rows:
        incremental.insert(row)
    from_scratch = repro.MarketBasketIndex(full_db, scheme)

    targets = [target, sorted(set(extra_rows[0]))]
    assert _answers(incremental, targets) == _answers(from_scratch, targets)


@settings(max_examples=30, deadline=None)
@given(maintenance_instances())
def test_compact_preserves_answers(instance):
    universe_size, base_rows, extra_rows, target, seed = instance
    scheme = _scheme(universe_size, seed)
    base_db = TransactionDatabase(base_rows, universe_size=universe_size)
    index = repro.MarketBasketIndex(base_db, scheme, auto_compact_fraction=1.0)
    for row in extra_rows:
        index.insert(row)
    sim = repro.DiceSimilarity()
    before, _ = index.knn(target, sim, k=3)
    index.compact()
    after, _ = index.knn(target, sim, k=3)
    assert before == after
    target_set = frozenset(target)
    for neighbor in after:
        other = index[neighbor.tid]
        x, y = len(target_set & other), len(target_set ^ other)
        assert float(sim.evaluate(x, y)) == neighbor.similarity
    assert index.table.verify(index.db)


@settings(max_examples=30, deadline=None)
@given(maintenance_instances(), st.integers(min_value=1, max_value=5))
def test_sharding_is_transparent(instance, num_shards):
    """The merge rule: per-slice engine answers, tid-offset, through
    ``merge_neighbor_lists`` equal one table over the union."""
    universe_size, base_rows, extra_rows, target, seed = instance
    rows = base_rows + extra_rows
    db = TransactionDatabase(rows, universe_size=universe_size)
    scheme = _scheme(universe_size, seed)
    sim = repro.MatchRatioSimilarity()
    k = min(3, len(db))

    def answers(part):
        engine = repro.QueryEngine.for_table(
            repro.SignatureTable.build(part, scheme), part
        )
        (knn,), (stats,) = engine.knn_batch([target], sim, k=k)
        (hits,), _ = engine.range_query_batch([target], sim, 0.2)
        return knn, hits, stats

    edges = np.linspace(0, len(db), min(num_shards, len(db)) + 1).astype(int)
    knn_parts, range_parts, stats_parts = [], [], []
    for start, stop in zip(edges[:-1], edges[1:]):
        knn, hits, stats = answers(db.subset(range(start, stop)))
        for part, found in ((knn_parts, knn), (range_parts, hits)):
            part.append(
                [Neighbor(nb.tid + int(start), nb.similarity) for nb in found]
            )
        stats_parts.append(stats)
    want_knn, want_hits, _ = answers(db)
    assert merge_neighbor_lists(knn_parts, k=k) == want_knn
    assert merge_neighbor_lists(range_parts) == want_hits
    merged = merge_search_stats(stats_parts, len(db))
    assert merged.total_transactions == len(db)
    assert merged.guaranteed_optimal
    assert merged.transactions_accessed == sum(
        s.transactions_accessed for s in stats_parts
    )


@settings(max_examples=40, deadline=None)
@given(maintenance_instances())
def test_every_built_table_verifies(instance):
    universe_size, base_rows, extra_rows, _, seed = instance
    db = TransactionDatabase(
        base_rows + extra_rows, universe_size=universe_size
    )
    for k in (2, 4):
        scheme = _scheme(universe_size, seed, k=k)
        table = repro.SignatureTable.build(db, scheme)
        assert table.verify(db)
