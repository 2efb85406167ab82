"""Delta-index candidates must match a brute-force scan bit-for-bit."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.similarity import get_similarity
from repro.live.delta import DeltaIndex

from tests.live.conftest import UNIVERSE, random_transaction


def brute_force(rows, target, similarity):
    """(rank, similarity) for every live row, the searcher's arithmetic."""
    target = np.asarray(sorted(target), dtype=np.int64)
    bound = similarity.bind(target.size)
    mask = np.zeros(UNIVERSE, dtype=np.int64)
    mask[target] = 1
    pairs = []
    for rank, items in enumerate(rows):
        x = int(mask[items].sum())
        y = int(items.size + target.size - 2 * x)
        value = float(bound.evaluate(np.array([x]), np.array([y]))[0])
        pairs.append((rank, value))
    return pairs


class TestDeltaIndex:
    def test_insert_remove_bookkeeping(self, scheme):
        delta = DeltaIndex(scheme)
        p0 = delta.insert([1, 2, 3])
        p1 = delta.insert([4, 5])
        assert (p0, p1) == (0, 1)
        assert len(delta) == 2 and delta.total_rows == 2
        delta.remove(p0)
        assert len(delta) == 1
        assert delta.live_positions() == [1]
        assert not delta.is_live(p0) and delta.is_live(p1)
        with pytest.raises(ValueError, match="already deleted"):
            delta.remove(p0)
        with pytest.raises(IndexError):
            delta.remove(5)

    def test_positions_stable_across_removals(self, scheme):
        delta = DeltaIndex(scheme)
        for i in range(5):
            delta.insert([i, i + 10])
        delta.remove(1)
        delta.remove(3)
        # New inserts keep counting up; survivors keep their positions.
        assert delta.insert([50]) == 5
        assert delta.live_positions() == [0, 2, 4, 5]
        assert [r.tolist() for r in delta.live_arrays()] == [
            [0, 10], [2, 12], [4, 14], [50],
        ]

    def test_knn_candidates_match_brute_force(self, scheme):
        rng = np.random.default_rng(3)
        sims = [get_similarity(n) for n in ("jaccard", "match_ratio", "hamming")]
        delta = DeltaIndex(scheme)
        for _ in range(60):
            delta.insert(random_transaction(rng))
        for position in rng.choice(60, size=15, replace=False):
            delta.remove(int(position))
        snapshot = delta.snapshot()
        assert len(snapshot) == 45
        for similarity in sims:
            for _ in range(10):
                target = random_transaction(rng)
                k = int(rng.integers(1, 10))
                expected = sorted(
                    brute_force(delta.live_arrays(), target, similarity),
                    key=lambda pair: (-pair[1], pair[0]),
                )[:k]
                got = delta.snapshot().knn_candidates(target, similarity, k)
                assert got == expected

    def test_range_candidates_match_brute_force(self, scheme):
        rng = np.random.default_rng(4)
        similarity = get_similarity("jaccard")
        delta = DeltaIndex(scheme)
        for _ in range(40):
            delta.insert(random_transaction(rng))
        snapshot = delta.snapshot()
        for threshold in (0.05, 0.2, 0.5, 0.9):
            for _ in range(5):
                target = random_transaction(rng)
                expected = sorted(
                    (
                        pair
                        for pair in brute_force(delta.live_arrays(), target, similarity)
                        if pair[1] >= threshold
                    ),
                    key=lambda pair: (-pair[1], pair[0]),
                )
                got = snapshot.range_candidates(target, similarity, threshold)
                assert got == expected

    def test_empty_delta(self, scheme):
        delta = DeltaIndex(scheme)
        similarity = get_similarity("jaccard")
        assert delta.snapshot().knn_candidates([1, 2], similarity, 3) == []
        assert delta.snapshot().range_candidates([1, 2], similarity, 0.1) == []
        assert delta.activation_fractions() is None

    def test_activation_fractions(self, scheme):
        delta = DeltaIndex(scheme)
        rng = np.random.default_rng(5)
        rows = [random_transaction(rng) for _ in range(20)]
        for row in rows:
            delta.insert(row)
        fractions = delta.activation_fractions()
        r = scheme.activation_threshold
        expected = np.zeros(scheme.num_signatures)
        for row in rows:
            expected += scheme.activation_counts(row) >= r
        np.testing.assert_allclose(fractions, expected / len(rows))

    def test_clear(self, scheme):
        delta = DeltaIndex(scheme)
        delta.insert([1, 2])
        delta.clear()
        assert len(delta) == 0 and delta.total_rows == 0
        assert delta.insert([3]) == 0


ITEMSETS = st.lists(
    st.integers(0, UNIVERSE - 1), min_size=1, max_size=8, unique=True
)
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), ITEMSETS),
        st.tuples(st.just("remove"), st.integers(0, 1000)),
        st.tuples(st.sampled_from(["snapshot", "clear"]), st.none()),
    ),
    max_size=40,
)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    ops=OPS,
    target=ITEMSETS,
    k=st.integers(1, 8),
    threshold=st.floats(0.0, 1.0),
    name=st.sampled_from(["jaccard", "match_ratio", "hamming", "cosine"]),
)
def test_snapshots_match_brute_force_over_any_history(
    scheme, ops, target, k, threshold, name
):
    """Every snapshot — taken between arbitrary inserts, removes and
    clears, and read after later ones — answers as the brute force over
    the rows live when it was taken (the incremental pack cache)."""
    similarity = get_similarity(name)
    delta = DeltaIndex(scheme)
    taken = []
    for op, arg in ops:
        if op == "insert":
            delta.insert(arg)
        elif op == "remove" and len(delta):
            live = delta.live_positions()
            delta.remove(live[arg % len(live)])
        elif op == "clear":
            delta.clear()
        elif op == "snapshot":
            taken.append((delta.snapshot(), delta.live_arrays()))
    taken.append((delta.snapshot(), delta.live_arrays()))
    for snapshot, rows in taken:
        expected = sorted(
            brute_force(rows, target, similarity),
            key=lambda pair: (-pair[1], pair[0]),
        )
        assert snapshot.knn_candidates(target, similarity, k) == expected[:k]
        assert snapshot.range_candidates(target, similarity, threshold) == [
            pair for pair in expected if pair[1] >= threshold
        ]
