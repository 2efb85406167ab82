"""Tests for multi-target range queries and the query explain facility,
both on the engine."""

import numpy as np
import pytest

import repro
from repro.obs import render_explain


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
    """``QueryEngine.explain``: one query with the trace of its scan."""

    def test_plan_shape(self, medium_engine, medium_queries):
        trace = medium_engine.explain(
            medium_queries[0], repro.MatchRatioSimilarity(), k=5
        ).trace
        table = medium_engine.table
        assert trace.query["target_items"] == len(medium_queries[0])
        assert trace.query["entries_total"] == table.num_entries_occupied
        assert (
            trace.scanned_entries + trace.pruned_entries + trace.unexplored_entries
            == table.num_entries_occupied
        )

    def test_explain_does_not_touch_data(self, medium_engine, medium_queries):
        trace = medium_engine.explain(
            medium_queries[0], repro.JaccardSimilarity()
        ).trace
        table = medium_engine.table
        # Entry sizes in the trace must match the table's metadata: a scan
        # that runs to completion reads every scanned entry whole.
        scanned = [e for e in trace.events if e.action == "scanned"]
        assert scanned
        for event in scanned:
            assert table.entry_index_of(event.code) == event.entry
            assert table.entry_tids(event.entry).size == event.transactions

    def test_preview_sorted_by_bound(self, medium_engine, medium_queries):
        trace = medium_engine.explain(
            medium_queries[0], repro.MatchRatioSimilarity()
        ).trace
        bounds = [e.optimistic for e in trace.events if e.action == "scanned"]
        assert bounds == sorted(bounds, reverse=True)

    def test_max_bound_dominates_best_answer(self, medium_engine, medium_queries):
        sim = repro.MatchRatioSimilarity()
        neighbors, _, trace, _ = medium_engine.explain(medium_queries[1], sim)
        assert neighbors[0].similarity <= trace.events[0].optimistic + 1e-9

    def test_str_readable(self, medium_engine, medium_queries):
        text = render_explain(
            medium_engine.explain(medium_queries[0], repro.DiceSimilarity()).trace
        )
        assert "scanned" in text
        assert "scan trace" in text

    def test_top_validated(self, medium_engine, medium_queries):
        with pytest.raises(ValueError):
            medium_engine.explain(medium_queries[0], repro.DiceSimilarity(), k=0)
