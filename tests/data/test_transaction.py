"""Unit tests for the transaction data model."""

import numpy as np
import pytest

from repro.data.transaction import TransactionDatabase, as_item_array


@pytest.fixture()
def tiny_db():
    return TransactionDatabase(
        [[0, 1, 2], [1, 2], [3], [0, 3, 4], []], universe_size=6
    )


class TestAsItemArray:
    def test_sorts_and_dedupes(self):
        assert as_item_array([3, 1, 3, 2]).tolist() == [1, 2, 3]

    def test_accepts_sets(self):
        assert as_item_array({5, 2}).tolist() == [2, 5]

    def test_empty(self):
        assert as_item_array([]).size == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            as_item_array([-1, 2])

    def test_rejects_out_of_universe(self):
        with pytest.raises(ValueError, match="universe"):
            as_item_array([0, 10], universe_size=10)

    def test_universe_boundary_ok(self):
        assert as_item_array([9], universe_size=10).tolist() == [9]


class TestConstruction:
    def test_len(self, tiny_db):
        assert len(tiny_db) == 5

    def test_getitem_returns_frozenset(self, tiny_db):
        assert tiny_db[0] == frozenset({0, 1, 2})
        assert isinstance(tiny_db[0], frozenset)

    def test_empty_transaction(self, tiny_db):
        assert tiny_db[4] == frozenset()

    def test_iteration(self, tiny_db):
        assert list(tiny_db)[1] == frozenset({1, 2})

    def test_universe_inferred(self):
        db = TransactionDatabase([[0, 7], [2]])
        assert db.universe_size == 8

    def test_universe_explicit(self, tiny_db):
        assert tiny_db.universe_size == 6

    def test_duplicates_within_transaction_removed(self):
        db = TransactionDatabase([[1, 1, 2]])
        assert db[0] == frozenset({1, 2})

    def test_empty_database(self):
        db = TransactionDatabase([], universe_size=4)
        assert len(db) == 0
        assert db.avg_transaction_size == 0.0

    def test_items_of_is_sorted(self, tiny_db):
        assert tiny_db.items_of(3).tolist() == [0, 3, 4]

    def test_items_of_out_of_range(self, tiny_db):
        with pytest.raises(IndexError):
            tiny_db.items_of(5)

    def test_equality(self, tiny_db):
        other = TransactionDatabase(
            [[0, 1, 2], [1, 2], [3], [0, 3, 4], []], universe_size=6
        )
        assert tiny_db == other

    def test_inequality_different_content(self, tiny_db):
        other = TransactionDatabase([[0]], universe_size=6)
        assert tiny_db != other

    def test_repr_mentions_size(self, tiny_db):
        assert "n=5" in repr(tiny_db)


class TestProperties:
    def test_sizes(self, tiny_db):
        assert tiny_db.sizes.tolist() == [3, 2, 1, 3, 0]

    def test_sizes_read_only(self, tiny_db):
        with pytest.raises(ValueError):
            tiny_db.sizes[0] = 99

    def test_avg_transaction_size(self, tiny_db):
        assert tiny_db.avg_transaction_size == pytest.approx(9 / 5)

    def test_density(self, tiny_db):
        assert tiny_db.density == pytest.approx(9 / (5 * 6))

    def test_total_items(self, tiny_db):
        assert tiny_db.total_items == 9

    def test_csr_views_read_only(self, tiny_db):
        items, indptr = tiny_db.csr()
        with pytest.raises(ValueError):
            items[0] = 5
        with pytest.raises(ValueError):
            indptr[0] = 5


class TestPostings:
    def test_posting_content(self, tiny_db):
        assert tiny_db.postings(1).tolist() == [0, 1]
        assert tiny_db.postings(3).tolist() == [2, 3]

    def test_posting_for_absent_item(self, tiny_db):
        assert tiny_db.postings(5).size == 0

    def test_posting_out_of_universe(self, tiny_db):
        with pytest.raises(IndexError):
            tiny_db.postings(6)

    def test_postings_ascending(self, tiny_db):
        for item in range(tiny_db.universe_size):
            posting = tiny_db.postings(item)
            assert np.all(np.diff(posting) > 0) or posting.size <= 1

    def test_postings_publish_at_once(self):
        """The lazily built postings appear in one assignment: every
        postings reader, arriving right after any assignment the build
        makes (as a reader in another thread can), answers as it does
        once the build is done."""
        rows = [[0, 1, 2], [1, 2], [3], [0, 3, 4], []]

        def read(db):
            return (
                db.postings(1).tolist(),
                db.match_counts([1, 3]).tolist(),
                db._posting_work([np.array([1, 3])]),
                db.match_counts_batch([[1, 3], [0]]).tolist(),
            )

        want = read(TransactionDatabase(rows, universe_size=6))
        seen = []

        class Watched(TransactionDatabase):
            watching = False

            def __setattr__(self, name, value):
                super().__setattr__(name, value)
                if self.watching:
                    self.__dict__["watching"] = False  # the reader's own builds
                    try:
                        seen.append(read(self))
                    finally:
                        self.__dict__["watching"] = True

        db = Watched(rows, universe_size=6)
        db.__dict__["watching"] = True
        assert read(db) == want
        assert seen and all(answer == want for answer in seen)


class TestMatchCounts:
    def test_match_counts_against_sets(self, tiny_db):
        target = [1, 2, 4]
        counts = tiny_db.match_counts(target)
        expected = [len(tiny_db[t] & set(target)) for t in range(len(tiny_db))]
        assert counts.tolist() == expected

    def test_empty_target(self, tiny_db):
        assert tiny_db.match_counts([]).tolist() == [0] * 5

    def test_hamming_against_sets(self, tiny_db):
        target = {0, 1}
        distances = tiny_db.hamming_distances(target)
        expected = [len(tiny_db[t] ^ target) for t in range(len(tiny_db))]
        assert distances.tolist() == expected

    def test_match_counts_random_cross_check(self, small_db):
        rng = np.random.default_rng(0)
        target = rng.choice(small_db.universe_size, size=8, replace=False)
        counts = small_db.match_counts(target)
        target_set = set(int(i) for i in target)
        for tid in rng.choice(len(small_db), size=25, replace=False):
            assert counts[tid] == len(small_db[int(tid)] & target_set)


class TestItemSupports:
    def test_relative(self, tiny_db):
        supports = tiny_db.item_supports()
        assert supports[0] == pytest.approx(2 / 5)
        assert supports[5] == 0.0

    def test_absolute(self, tiny_db):
        counts = tiny_db.item_supports(relative=False)
        assert counts.tolist() == [2, 2, 2, 2, 1, 0]


class TestSubsetSplit:
    def test_subset_preserves_content(self, tiny_db):
        sub = tiny_db.subset([3, 0])
        assert len(sub) == 2
        assert sub[0] == tiny_db[3]
        assert sub[1] == tiny_db[0]

    def test_subset_out_of_range(self, tiny_db):
        with pytest.raises(IndexError):
            tiny_db.subset([10])

    def test_split_sizes(self, tiny_db):
        head, tail = tiny_db.split(2)
        assert len(head) == 3
        assert len(tail) == 2

    def test_split_content(self, tiny_db):
        head, tail = tiny_db.split(2)
        assert tail[0] == tiny_db[3]
        assert head[0] == tiny_db[0]

    def test_split_bad_size(self, tiny_db):
        with pytest.raises(ValueError):
            tiny_db.split(6)


class TestPersistence:
    def test_round_trip(self, tiny_db, tmp_path):
        path = tmp_path / "db.npz"
        tiny_db.save(path)
        loaded = TransactionDatabase.load(path)
        assert loaded == tiny_db

    def test_round_trip_preserves_universe(self, tiny_db, tmp_path):
        path = tmp_path / "db.npz"
        tiny_db.save(path)
        assert TransactionDatabase.load(path).universe_size == 6


class TestFromArrays:
    def test_basic(self):
        db = TransactionDatabase.from_arrays(
            np.array([0, 1, 2]), np.array([0, 2, 3]), universe_size=3
        )
        assert len(db) == 2
        assert db[0] == frozenset({0, 1})

    def test_bad_indptr_rejected(self):
        with pytest.raises(ValueError):
            TransactionDatabase.from_arrays(
                np.array([0, 1]), np.array([0, 3]), universe_size=3
            )
