"""Unit tests for the branch-and-bound searcher (paper Section 4).

The central correctness claim: run to completion, the branch-and-bound
search returns answers of exactly the same similarity value as an
exhaustive linear scan, for every supported similarity function.
"""

import math

import numpy as np
import pytest

import repro
from repro.core.search import Neighbor, SearchStats, SignatureTableSearcher
from tests.conftest import make_similarities

SIMILARITIES = make_similarities()


class TestNearestOptimality:
    @pytest.mark.parametrize("sim", SIMILARITIES, ids=lambda s: repr(s))
    def test_matches_linear_scan_value(
        self, medium_searcher, medium_scan, medium_queries, sim
    ):
        for target in medium_queries[:10]:
            neighbor, stats = medium_searcher.nearest(target, sim)
            best = medium_scan.best_similarity(target, sim)
            assert neighbor is not None
            assert neighbor.similarity == pytest.approx(best)
            assert stats.guaranteed_optimal

    def test_identical_transaction_found(self, medium_searcher, medium_indexed):
        target = sorted(medium_indexed[5])
        neighbor, _ = medium_searcher.nearest(target, repro.JaccardSimilarity())
        assert neighbor.similarity == pytest.approx(1.0)

    def test_stats_accounting_consistent(self, medium_searcher, medium_queries):
        _, stats = medium_searcher.nearest(
            medium_queries[0], repro.MatchRatioSimilarity()
        )
        assert 0 < stats.transactions_accessed <= stats.total_transactions
        assert (
            stats.entries_scanned + stats.entries_pruned
            + stats.entries_unexplored
            <= stats.entries_total + 1
        )
        assert 0.0 <= stats.pruning_efficiency < 100.0
        assert stats.io.pages_read > 0
        assert stats.io.seeks >= 1

    def test_pruning_positive_on_clustered_data(
        self, medium_searcher, medium_queries
    ):
        efficiencies = []
        for target in medium_queries:
            _, stats = medium_searcher.nearest(
                target, repro.MatchRatioSimilarity()
            )
            efficiencies.append(stats.pruning_efficiency)
        assert np.mean(efficiencies) > 30.0

    def test_supercoordinate_sort_still_exact(
        self, medium_searcher, medium_scan, medium_queries
    ):
        sim = repro.HammingSimilarity()
        for target in medium_queries[:8]:
            neighbor, _ = medium_searcher.nearest(
                target, sim, sort_by="supercoordinate"
            )
            assert neighbor.similarity == pytest.approx(
                medium_scan.best_similarity(target, sim)
            )

    def test_invalid_sort_mode(self, medium_searcher, medium_queries):
        with pytest.raises(ValueError, match="sort_by"):
            medium_searcher.nearest(
                medium_queries[0], repro.HammingSimilarity(), sort_by="banana"
            )

    def test_mismatched_table_and_db_rejected(self, medium_table, small_db):
        with pytest.raises(ValueError, match="indexes"):
            SignatureTableSearcher(medium_table, small_db)


class TestKnn:
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_values_match_scan(
        self, medium_searcher, medium_scan, medium_queries, k
    ):
        sim = repro.MatchRatioSimilarity()
        for target in medium_queries[:6]:
            bb, _ = medium_searcher.knn(target, sim, k=k)
            scan, _ = medium_scan.knn(target, sim, k=k)
            assert [n.similarity for n in bb] == pytest.approx(
                [n.similarity for n in scan]
            )

    def test_results_sorted_descending(self, medium_searcher, medium_queries):
        neighbors, _ = medium_searcher.knn(
            medium_queries[0], repro.JaccardSimilarity(), k=8
        )
        values = [n.similarity for n in neighbors]
        assert values == sorted(values, reverse=True)

    def test_distinct_tids(self, medium_searcher, medium_queries):
        neighbors, _ = medium_searcher.knn(
            medium_queries[0], repro.JaccardSimilarity(), k=10
        )
        tids = [n.tid for n in neighbors]
        assert len(set(tids)) == len(tids)

    def test_k_larger_than_database(self, small_searcher, small_db):
        neighbors, _ = small_searcher.knn(
            sorted(small_db[0]), repro.DiceSimilarity(), k=10 * len(small_db)
        )
        assert len(neighbors) == len(small_db)

    def test_k_zero_rejected(self, medium_searcher, medium_queries):
        with pytest.raises(ValueError):
            medium_searcher.knn(medium_queries[0], repro.DiceSimilarity(), k=0)

    def test_neighbor_unpacking(self, medium_searcher, medium_queries):
        neighbors, _ = medium_searcher.knn(
            medium_queries[0], repro.DiceSimilarity(), k=1
        )
        tid, sim_value = neighbors[0]
        assert tid == neighbors[0].tid
        assert sim_value == neighbors[0].similarity

    def test_knn_pruning_weaker_than_nn(self, medium_searcher, medium_queries):
        """The k-th best pessimistic bound is looser, so k-NN accesses at
        least as much as 1-NN."""
        sim = repro.MatchRatioSimilarity()
        for target in medium_queries[:5]:
            _, stats1 = medium_searcher.knn(target, sim, k=1)
            _, stats10 = medium_searcher.knn(target, sim, k=10)
            assert (
                stats10.transactions_accessed >= stats1.transactions_accessed
            )


class TestEarlyTermination:
    def test_budget_respected(self, medium_searcher, medium_queries):
        n = medium_searcher.table.num_transactions
        for level in [0.01, 0.05, 0.2]:
            _, stats = medium_searcher.nearest(
                medium_queries[0],
                repro.MatchRatioSimilarity(),
                early_termination=level,
            )
            budget = max(1, math.ceil(level * n))
            assert stats.transactions_accessed <= budget

    def test_guarantee_flag_sound(
        self, medium_searcher, medium_scan, medium_queries
    ):
        """Whenever the search claims guaranteed optimality under early
        termination, the value must equal the scan optimum."""
        sim = repro.MatchRatioSimilarity()
        claimed = 0
        for target in medium_queries:
            neighbor, stats = medium_searcher.nearest(
                target, sim, early_termination=0.05
            )
            if stats.guaranteed_optimal:
                claimed += 1
                assert neighbor.similarity == pytest.approx(
                    medium_scan.best_similarity(target, sim)
                )
        assert claimed > 0  # the guarantee fires for some queries

    def test_best_possible_remaining_is_upper_bound(
        self, medium_searcher, medium_scan, medium_queries
    ):
        sim = repro.MatchRatioSimilarity()
        for target in medium_queries[:10]:
            neighbor, stats = medium_searcher.nearest(
                target, sim, early_termination=0.01
            )
            if stats.terminated_early:
                best = medium_scan.best_similarity(target, sim)
                roof = max(neighbor.similarity, stats.best_possible_remaining)
                assert best <= roof + 1e-9

    def test_invalid_level_rejected(self, medium_searcher, medium_queries):
        with pytest.raises(ValueError):
            medium_searcher.nearest(
                medium_queries[0],
                repro.HammingSimilarity(),
                early_termination=0.0,
            )

    def test_termination_flag_set(self, medium_searcher, medium_queries):
        _, stats = medium_searcher.nearest(
            medium_queries[0],
            repro.HammingSimilarity(),
            early_termination=0.002,
        )
        assert stats.terminated_early or stats.guaranteed_optimal

    def test_guarantee_tolerance_stops_early(
        self, medium_searcher, medium_queries
    ):
        sim = repro.MatchRatioSimilarity()
        target = medium_queries[0]
        _, full = medium_searcher.nearest(target, sim)
        _, loose = medium_searcher.nearest(target, sim, guarantee_tolerance=5.0)
        assert loose.transactions_accessed <= full.transactions_accessed

    def test_guarantee_tolerance_zero_matches_exact(
        self, medium_searcher, medium_scan, medium_queries
    ):
        sim = repro.MatchRatioSimilarity()
        for target in medium_queries[:5]:
            neighbor, _ = medium_searcher.nearest(
                target, sim, guarantee_tolerance=0.0
            )
            assert neighbor.similarity == pytest.approx(
                medium_scan.best_similarity(target, sim)
            )


class TestRangeQueries:
    def test_matches_scan_filter(
        self, medium_searcher, medium_scan, medium_queries
    ):
        sim = repro.JaccardSimilarity()
        for target in medium_queries[:6]:
            for threshold in [0.2, 0.4, 0.8]:
                bb, _ = medium_searcher.range_query(target, sim, threshold)
                scan, _ = medium_scan.range_query(target, sim, threshold)
                assert [(n.tid, n.similarity) for n in bb] == pytest.approx(
                    [(n.tid, n.similarity) for n in scan]
                )

    def test_prunes_entries(self, medium_searcher, medium_queries):
        _, stats = medium_searcher.range_query(
            medium_queries[0], repro.JaccardSimilarity(), 0.6
        )
        assert stats.entries_pruned > 0
        assert stats.transactions_accessed < stats.total_transactions

    def test_impossible_threshold_returns_empty(
        self, medium_searcher, medium_queries
    ):
        results, _ = medium_searcher.range_query(
            medium_queries[0], repro.JaccardSimilarity(), 1.01
        )
        assert results == []

    def test_zero_threshold_with_matchcount_returns_everything(
        self, small_searcher, small_db
    ):
        results, _ = small_searcher.range_query(
            sorted(small_db[0]), repro.MatchCountSimilarity(), 0.0
        )
        assert len(results) == len(small_db)

    def test_multi_range_conjunction(
        self, medium_searcher, medium_indexed, medium_queries
    ):
        """'At least p matches and at most q different' — the paper's
        Section 2.1 example, via MatchCount and Hamming thresholds."""
        target = medium_queries[0]
        target_set = frozenset(target)
        p, q = 3, 12
        constraints = [
            (repro.MatchCountSimilarity(), float(p)),
            (repro.HammingSimilarity(), 1.0 / (1.0 + q)),
        ]
        results, _ = medium_searcher.multi_range_query(target, constraints)
        expected = set()
        for tid in range(len(medium_indexed)):
            other = medium_indexed[tid]
            if len(target_set & other) >= p and len(target_set ^ other) <= q:
                expected.add(tid)
        assert {n.tid for n in results} == expected

    def test_multi_range_empty_constraints_rejected(
        self, medium_searcher, medium_queries
    ):
        with pytest.raises(ValueError):
            medium_searcher.multi_range_query(medium_queries[0], [])


class TestMultiTarget:
    """Multi-target k-NN (Section 4.3) on the engine's packed scan."""

    def brute_force(self, db, targets, sim, aggregate):
        import numpy as np

        agg = {"mean": np.mean, "min": np.min, "max": np.max}[aggregate]
        values = []
        for tid in range(len(db)):
            other = db[tid]
            per_target = [sim.between(t, other) for t in targets]
            values.append(agg(per_target))
        return np.asarray(values)

    @pytest.mark.parametrize("aggregate", ["mean", "min", "max"])
    def test_matches_brute_force(
        self, small_engine, small_db, aggregate
    ):
        sim = repro.JaccardSimilarity()
        targets = [sorted(small_db[1]), sorted(small_db[7]), sorted(small_db[19])]
        neighbors, stats = small_engine.multi_target_knn(
            targets, sim, k=3, aggregate=aggregate
        )
        truth = self.brute_force(small_db, targets, sim, aggregate)
        expected = np.sort(truth)[::-1][:3]
        assert [n.similarity for n in neighbors] == pytest.approx(
            expected.tolist()
        )

    def test_single_target_agrees_with_knn(
        self, medium_engine, medium_queries
    ):
        """One target's mean is its similarity: neighbours and stats are
        the single-target k-NN's."""
        sim = repro.DiceSimilarity()
        target = medium_queries[0]
        multi = medium_engine.multi_target_knn([target], sim, k=5)
        (single,), (stats,) = medium_engine.knn_batch([target], sim, k=5)
        assert multi == (single, stats)

    def test_empty_targets_rejected(self, medium_engine):
        with pytest.raises(ValueError):
            medium_engine.multi_target_knn([], repro.DiceSimilarity())

    def test_bad_aggregate_rejected(self, medium_engine, medium_queries):
        with pytest.raises(ValueError, match="aggregate"):
            medium_engine.multi_target_knn(
                [medium_queries[0]], repro.DiceSimilarity(), aggregate="median"
            )

    def test_early_termination_supported(self, medium_engine, medium_queries):
        neighbors, stats = medium_engine.multi_target_knn(
            [medium_queries[0], medium_queries[1]],
            repro.JaccardSimilarity(),
            k=2,
            early_termination=0.02,
        )
        assert len(neighbors) == 2
        assert stats.transactions_accessed <= math.ceil(
            0.02 * stats.total_transactions
        )

    def test_prunes(self, medium_engine, medium_queries):
        _, stats = medium_engine.multi_target_knn(
            [medium_queries[0], medium_queries[1]],
            repro.MatchRatioSimilarity(),
            k=1,
        )
        assert stats.transactions_accessed < stats.total_transactions


class TestSearchStats:
    def test_pruning_efficiency_formula(self):
        stats = SearchStats(total_transactions=200, transactions_accessed=50)
        assert stats.access_fraction == pytest.approx(0.25)
        assert stats.pruning_efficiency == pytest.approx(75.0)

    def test_empty_database_edge(self):
        stats = SearchStats(total_transactions=0)
        assert stats.access_fraction == 0.0
        assert stats.pruning_efficiency == 100.0

    def test_neighbor_is_frozen(self):
        neighbor = Neighbor(tid=3, similarity=0.5)
        with pytest.raises(AttributeError):
            neighbor.tid = 4
