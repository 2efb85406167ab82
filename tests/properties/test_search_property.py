"""Property tests for branch-and-bound search optimality.

For random small instances, the branch-and-bound searcher (run to
completion) must agree with brute force on the optimum value, the k-NN
value multiset, and range-query result sets — for every similarity
function.  This is the paper's correctness claim end to end.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partitioning import random_partition
from repro.core.search import SignatureTableSearcher
from repro.core.signature import SignatureScheme
from repro.core.similarity import (
    DiceSimilarity,
    HammingSimilarity,
    JaccardSimilarity,
    MatchRatioSimilarity,
)
from repro.core.table import SignatureTable
from repro.data.transaction import TransactionDatabase

SIMS = [
    HammingSimilarity(),
    MatchRatioSimilarity(),
    JaccardSimilarity(),
    DiceSimilarity(),
]


@st.composite
def search_instances(draw):
    universe_size = draw(st.integers(min_value=5, max_value=16))
    num_signatures = draw(st.integers(min_value=2, max_value=min(5, universe_size)))
    threshold = draw(st.integers(min_value=1, max_value=2))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    scheme = random_partition(
        universe_size, num_signatures, activation_threshold=threshold, rng=seed
    )
    transaction = st.lists(
        st.integers(min_value=0, max_value=universe_size - 1),
        min_size=1,
        max_size=universe_size,
    )
    rows = draw(st.lists(transaction, min_size=3, max_size=25))
    db = TransactionDatabase(rows, universe_size=universe_size)
    target = sorted(set(draw(transaction)))
    return scheme, db, target


def brute_force_values(db, target, sim):
    bound = sim.bind(len(target))
    target_set = frozenset(target)
    values = []
    for tid in range(len(db)):
        other = db[tid]
        values.append(
            float(bound.evaluate(len(target_set & other), len(target_set ^ other)))
        )
    return np.asarray(values)


@settings(max_examples=50, deadline=None)
@given(search_instances())
def test_nearest_is_optimal(instance):
    scheme, db, target = instance
    searcher = SignatureTableSearcher(SignatureTable.build(db, scheme), db)
    for sim in SIMS:
        neighbor, stats = searcher.nearest(target, sim)
        truth = brute_force_values(db, target, sim)
        assert neighbor.similarity == float(truth.max())
        assert stats.guaranteed_optimal
        # And the reported tid really achieves that value.
        assert truth[neighbor.tid] == neighbor.similarity


@settings(max_examples=30, deadline=None)
@given(search_instances(), st.integers(min_value=1, max_value=6))
def test_knn_value_multiset_matches_brute_force(instance, k):
    scheme, db, target = instance
    searcher = SignatureTableSearcher(SignatureTable.build(db, scheme), db)
    for sim in SIMS:
        neighbors, _ = searcher.knn(target, sim, k=k)
        truth = np.sort(brute_force_values(db, target, sim))[::-1]
        expected = truth[: min(k, len(db))]
        got = np.asarray([n.similarity for n in neighbors])
        assert np.allclose(got, expected)


@settings(max_examples=30, deadline=None)
@given(search_instances(), st.floats(min_value=0.0, max_value=1.0))
def test_range_query_matches_brute_force(instance, threshold):
    scheme, db, target = instance
    searcher = SignatureTableSearcher(SignatureTable.build(db, scheme), db)
    sim = JaccardSimilarity()
    results, _ = searcher.range_query(target, sim, threshold)
    truth = brute_force_values(db, target, sim)
    expected = {tid for tid in range(len(db)) if truth[tid] >= threshold}
    assert {n.tid for n in results} == expected


@settings(max_examples=30, deadline=None)
@given(search_instances())
def test_early_termination_never_beats_optimum(instance):
    """Approximate answers are always <= the true optimum, and when the
    guarantee flag is set they equal it."""
    scheme, db, target = instance
    searcher = SignatureTableSearcher(SignatureTable.build(db, scheme), db)
    sim = MatchRatioSimilarity()
    truth = float(brute_force_values(db, target, sim).max())
    neighbor, stats = searcher.nearest(target, sim, early_termination=0.3)
    assert neighbor.similarity <= truth + 1e-12
    if stats.guaranteed_optimal:
        assert neighbor.similarity == truth


@settings(max_examples=20, deadline=None)
@given(search_instances())
def test_similarities_equal_brute_force(instance):
    """The searcher's vectorised similarities are the per-transaction set
    arithmetic, value for value: a k-NN over every row returns each tid
    once, with exactly its brute-force similarity."""
    scheme, db, target = instance
    searcher = SignatureTableSearcher(SignatureTable.build(db, scheme), db)
    for sim in SIMS:
        neighbors, _ = searcher.knn(target, sim, k=len(db))
        truth = brute_force_values(db, target, sim)
        assert sorted(n.tid for n in neighbors) == list(range(len(db)))
        assert all(n.similarity == truth[n.tid] for n in neighbors)
