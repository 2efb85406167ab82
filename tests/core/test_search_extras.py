"""Tests for multi-target range queries (on the engine) and the
searcher's query explain facility."""

import numpy as np
import pytest

import repro
from repro.core.search import QueryPlan


class TestMultiTargetRange:
    def brute_force(self, db, targets, sim, aggregate, threshold):
        agg = {"mean": np.mean, "min": np.min, "max": np.max}[aggregate]
        hits = set()
        for tid in range(len(db)):
            other = db[tid]
            values = [sim.between(t, other) for t in targets]
            if agg(values) >= threshold:
                hits.add(tid)
        return hits

    @pytest.mark.parametrize("aggregate", ["mean", "min", "max"])
    def test_matches_brute_force(self, small_engine, small_db, aggregate):
        sim = repro.JaccardSimilarity()
        targets = [sorted(small_db[3]), sorted(small_db[11])]
        for threshold in [0.2, 0.5]:
            results, _ = small_engine.multi_target_range_query(
                targets, sim, threshold, aggregate=aggregate
            )
            expected = self.brute_force(
                small_db, targets, sim, aggregate, threshold
            )
            assert {n.tid for n in results} == expected

    def test_results_sorted(self, medium_engine, medium_queries):
        results, _ = medium_engine.multi_target_range_query(
            [medium_queries[0], medium_queries[1]],
            repro.DiceSimilarity(),
            0.2,
        )
        values = [n.similarity for n in results]
        assert values == sorted(values, reverse=True)
        assert all(v >= 0.2 for v in values)

    def test_prunes_entries(self, medium_engine, medium_queries):
        _, stats = medium_engine.multi_target_range_query(
            [medium_queries[0]], repro.JaccardSimilarity(), 0.7
        )
        assert stats.entries_pruned > 0

    def test_single_target_equals_range_query(
        self, medium_searcher, medium_engine, medium_queries
    ):
        """One target's mean is its similarity: hits and stats are the
        searcher's single-target range query's."""
        sim = repro.JaccardSimilarity()
        target = medium_queries[2]
        multi = medium_engine.multi_target_range_query([target], sim, 0.4)
        assert multi == medium_searcher.range_query(target, sim, 0.4)

    def test_empty_targets_rejected(self, medium_engine):
        with pytest.raises(ValueError):
            medium_engine.multi_target_range_query(
                [], repro.JaccardSimilarity(), 0.5
            )

    def test_bad_aggregate_rejected(self, medium_engine, medium_queries):
        with pytest.raises(ValueError, match="aggregate"):
            medium_engine.multi_target_range_query(
                [medium_queries[0]],
                repro.JaccardSimilarity(),
                0.5,
                aggregate="median",
            )


class TestExplain:
    def test_plan_shape(self, medium_searcher, medium_queries):
        plan = medium_searcher.explain(
            medium_queries[0], repro.MatchRatioSimilarity(), top=5
        )
        assert isinstance(plan, QueryPlan)
        assert plan.target_size == len(medium_queries[0])
        assert len(plan.activation_counts) == 10  # fixture K
        assert 0 <= plan.activated_signatures <= 10
        assert plan.num_entries == medium_searcher.table.num_entries_occupied
        assert len(plan.top_entries) == 5

    def test_preview_sorted_by_bound(self, medium_searcher, medium_queries):
        plan = medium_searcher.explain(
            medium_queries[0], repro.MatchRatioSimilarity(), top=8
        )
        bounds = [bound for _, bound, _ in plan.top_entries]
        assert bounds == sorted(bounds, reverse=True)
        assert plan.max_bound == pytest.approx(bounds[0])

    def test_max_bound_dominates_best_answer(
        self, medium_searcher, medium_queries
    ):
        sim = repro.MatchRatioSimilarity()
        target = medium_queries[1]
        plan = medium_searcher.explain(target, sim)
        neighbor, _ = medium_searcher.nearest(target, sim)
        assert neighbor.similarity <= plan.max_bound + 1e-9

    def test_explain_does_not_touch_data(self, medium_searcher, medium_queries):
        plan = medium_searcher.explain(
            medium_queries[0], repro.JaccardSimilarity()
        )
        # Entry sizes in the preview must match the table's metadata.
        for code, _, size in plan.top_entries:
            entry = medium_searcher.table.entry_index_of(code)
            assert medium_searcher.table.entry_tids(entry).size == size

    def test_str_readable(self, medium_searcher, medium_queries):
        text = str(
            medium_searcher.explain(medium_queries[0], repro.DiceSimilarity())
        )
        assert "activates" in text
        assert "scan preview" in text

    def test_top_validated(self, medium_searcher, medium_queries):
        with pytest.raises(ValueError):
            medium_searcher.explain(
                medium_queries[0], repro.DiceSimilarity(), top=0
            )

    def test_activation_counts_match_scheme(
        self, medium_searcher, medium_queries
    ):
        plan = medium_searcher.explain(
            medium_queries[0], repro.DiceSimilarity()
        )
        scheme = medium_searcher.table.scheme
        assert plan.activation_counts == scheme.activation_counts(
            medium_queries[0]
        ).tolist()
