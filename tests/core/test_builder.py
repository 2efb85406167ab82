"""Unit tests for the high-level index facade (build_index + inserts)."""

import pytest

import repro


@pytest.fixture(scope="module")
def index(medium_indexed):
    return repro.build_index(medium_indexed, num_signatures=10, rng=3)


class TestBuildIndex:
    def test_report_fields(self, index, medium_indexed):
        report = index.report()
        assert report.num_transactions == len(medium_indexed)
        assert report.num_signatures == 10
        assert report.occupied_entries > 0
        assert report.directory_bytes_dense == 8 * 2**10
        assert report.build_seconds >= 0.0

    def test_scheme_and_knobs_mutually_exclusive(self, medium_indexed, medium_scheme):
        with pytest.raises(ValueError, match="not both"):
            repro.build_index(
                medium_indexed, num_signatures=5, scheme=medium_scheme
            )

    def test_prebuilt_scheme_accepted(self, medium_indexed, medium_scheme):
        index = repro.build_index(medium_indexed, scheme=medium_scheme)
        assert index.scheme is medium_scheme

    def test_critical_mass_mode(self, medium_indexed):
        index = repro.build_index(medium_indexed, critical_mass=0.1)
        assert index.scheme.num_signatures >= 5

    def test_len_and_getitem(self, index, medium_indexed):
        assert len(index) == len(medium_indexed)
        assert index[3] == medium_indexed[3]

    def test_queries_delegate(self, index, medium_queries, medium_scan):
        sim = repro.MatchRatioSimilarity()
        neighbor, stats = index.nearest(medium_queries[0], sim)
        assert neighbor.similarity == pytest.approx(
            medium_scan.best_similarity(medium_queries[0], sim)
        )
        assert stats.pruning_efficiency > 0


class TestInserts:
    @pytest.fixture()
    def small_index(self, small_db):
        return repro.build_index(small_db, num_signatures=6, rng=3)

    def test_insert_assigns_next_tid(self, small_index, small_db):
        tid = small_index.insert([0, 1, 2])
        assert tid == len(small_db)
        assert len(small_index) == len(small_db) + 1

    def test_inserted_transaction_visible_to_knn(self, small_index):
        transaction = [0, 5, 9, 14, 33]
        tid = small_index.insert(transaction)
        neighbor, _ = small_index.nearest(transaction, repro.JaccardSimilarity())
        assert neighbor.similarity == pytest.approx(1.0)
        assert neighbor.tid == tid

    def test_inserted_visible_to_range_query(self, small_index):
        transaction = [2, 4, 8, 16, 32]
        tid = small_index.insert(transaction)
        results, _ = small_index.range_query(
            transaction, repro.JaccardSimilarity(), 0.99
        )
        assert tid in {n.tid for n in results}

    def test_inserted_visible_to_multi_target(self, small_index):
        transaction = [1, 3, 5, 7, 11]
        tid = small_index.insert(transaction)
        neighbors, _ = small_index.multi_target_knn(
            [transaction, transaction], repro.JaccardSimilarity(), k=1
        )
        assert neighbors[0].tid == tid

    def test_weighted_multi_target_scores_inserts_by_the_weights(
        self, small_index, small_db
    ):
        """A pending insert is scored as a fresh build scores it: under
        weights [1, 0] only the first target counts, so a row equal to
        the second target scores its similarity to the first (here 0)."""
        targets = [[1, 2, 3, 4], [30, 31, 32, 33]]
        similarity = repro.JaccardSimilarity()
        tid = small_index.insert(targets[1])
        got, _ = small_index.multi_target_knn(
            targets, similarity, k=3, weights=[1, 0]
        )
        fresh = repro.MarketBasketIndex(
            repro.TransactionDatabase.concatenate([
                small_db,
                repro.TransactionDatabase(
                    [targets[1]], universe_size=small_db.universe_size
                ),
            ]),
            small_index.scheme,
        )
        want, _ = fresh.multi_target_knn(targets, similarity, k=3, weights=[1, 0])
        assert got == want
        assert tid not in {n.tid for n in got}

    def test_getitem_covers_delta(self, small_index, small_db):
        tid = small_index.insert([7, 8])
        assert small_index[tid] == frozenset({7, 8})

    def test_compact_preserves_answers(self, small_index, small_db):
        transaction = [0, 5, 9, 14, 33]
        tid = small_index.insert(transaction)
        before, _ = small_index.knn(transaction, repro.DiceSimilarity(), k=3)
        small_index.compact()
        assert small_index.delta_size == 0
        after, _ = small_index.knn(transaction, repro.DiceSimilarity(), k=3)
        assert [n.tid for n in before] == [n.tid for n in after]
        assert [n.similarity for n in before] == pytest.approx(
            [n.similarity for n in after]
        )
        assert small_index[tid] == frozenset(transaction)

    def test_auto_compact_bounds_delta(self, small_db):
        index = repro.build_index(
            small_db, num_signatures=6, rng=3, auto_compact_fraction=0.01
        )
        for i in range(20):
            index.insert([i % small_db.universe_size])
        assert index.delta_size <= 0.01 * len(index.db) + 1

    def test_insert_out_of_universe_rejected(self, small_index, small_db):
        with pytest.raises(ValueError):
            small_index.insert([small_db.universe_size + 5])

    def test_compact_on_empty_delta_is_noop(self, small_index):
        before = len(small_index)
        small_index.compact()
        assert len(small_index) == before


class TestRebuild:
    def test_rebuild_relearns_partition(self, small_db):
        index = repro.build_index(small_db, num_signatures=6, rng=3)
        index.insert([0, 1, 2, 3])
        index.rebuild()
        assert index.delta_size == 0
        assert index.scheme.num_signatures == 6
        # Still answers queries exactly.
        scan = repro.LinearScanIndex(index.db)
        target = [0, 1, 2, 3]
        neighbor, _ = index.nearest(target, repro.JaccardSimilarity())
        assert neighbor.similarity == pytest.approx(
            scan.best_similarity(target, repro.JaccardSimilarity())
        )

    def test_rebuild_with_explicit_scheme(self, small_db):
        index = repro.build_index(small_db, num_signatures=6, rng=3)
        new_scheme = repro.random_partition(small_db.universe_size, 4, rng=0)
        index.rebuild(scheme=new_scheme)
        assert index.scheme is new_scheme

    def test_rebuild_with_critical_mass(self, small_db):
        """``critical_mass`` picks ``K`` itself, so the old ``K`` is not
        passed beside it."""
        index = repro.build_index(small_db, num_signatures=6, rng=3)
        index.insert([0, 1, 2, 3])
        index.rebuild(critical_mass=0.1)
        assert index.delta_size == 0
        assert index.scheme == repro.partition_items(
            index.db, critical_mass=0.1, activation_threshold=1
        )

    def test_rebuild_can_change_k(self, small_db):
        index = repro.build_index(small_db, num_signatures=6, rng=3)
        index.rebuild(num_signatures=9)
        assert index.scheme.num_signatures == 9
