"""Query-explain: the engine's trace replays its scan and reconciles with
SearchStats."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.engine import QueryEngine
from repro.core.search import SignatureTableSearcher, row_budget
from repro.obs.search_trace import TERMINATIONS, SearchTrace, render_explain
from repro.storage.pages import IOCounters
from tests.conftest import forbid_scalar_loop
from tests.properties.test_kernels_property import SIMILARITIES, scan_instance


SIM = repro.MatchRatioSimilarity()


def targets(db, count=6):
    return [sorted(db[tid]) for tid in range(0, len(db), len(db) // count)]


def reconcile(trace, stats):
    assert trace.scanned_entries == stats.entries_scanned
    assert trace.pruned_entries == stats.entries_pruned
    assert trace.unexplored_entries == stats.entries_unexplored
    assert trace.transactions_accessed == stats.transactions_accessed


@pytest.fixture(scope="module")
def engine(small_table, small_db):
    return QueryEngine(small_table, small_db)


class TestReconciliation:
    def test_knn_optimistic_order(self, engine, small_db):
        for target in targets(small_db):
            _, stats, trace, _ = engine.explain(target, SIM, k=5)
            reconcile(trace, stats)
            assert trace.termination in TERMINATIONS

    def test_early_termination_records_unexplored(self, engine, small_db):
        _, stats, trace, _ = engine.explain(
            sorted(small_db[0]), SIM, k=3, early_termination=0.02
        )
        reconcile(trace, stats)
        assert stats.terminated_early
        assert trace.termination in ("budget", "budget_partial_entry")
        assert trace.unexplored_entries == stats.entries_unexplored > 0

    def test_range_query(self, engine, small_db):
        _, stats, trace, _ = engine.explain(
            sorted(small_db[1]), SIM, threshold=0.4
        )
        reconcile(trace, stats)
        assert trace.query["op"] == "range"
        assert trace.termination == "exhausted"

    def test_guarantee_tolerance(self, engine, small_db):
        _, stats, trace, _ = engine.explain(
            sorted(small_db[2]), SIM, k=3, guarantee_tolerance=0.5
        )
        reconcile(trace, stats)
        assert stats.terminated_early
        assert trace.termination == "guarantee_tolerance"


class TestTraceShape:
    def make_trace(self, engine, small_db):
        _, stats, trace, _ = engine.explain(sorted(small_db[5]), SIM, k=4)
        return trace, stats

    def test_query_context_recorded(self, engine, small_db):
        trace, _ = self.make_trace(engine, small_db)
        assert trace.query == {
            "op": "knn",
            "k": 4,
            "target_items": len(small_db[5]),
            "entries_total": engine.table.num_entries_occupied,
        }

    def test_bound_trajectory_is_monotone_in_pessimistic(self, engine, small_db):
        trace, _ = self.make_trace(engine, small_db)
        trajectory = trace.bound_trajectory()
        assert trajectory, "expected at least one scanned entry"
        pessimistic = [
            point["pessimistic"]
            for point in trajectory
            if point["pessimistic"] is not None
        ]
        assert pessimistic == sorted(pessimistic)
        # Under the optimistic sort order, optimistic bounds descend.
        optimistic = [point["optimistic"] for point in trajectory]
        assert optimistic == sorted(optimistic, reverse=True)

    def test_to_dict_is_json_safe(self, engine, small_db):
        trace, stats = self.make_trace(engine, small_db)
        payload = json.loads(json.dumps(trace.to_dict()))
        assert payload["entries"]["scanned"] == stats.entries_scanned
        assert payload["termination"] == trace.termination
        assert len(payload["events"]) == len(trace.events)
        scanned = [
            event for event in payload["events"]
            if event["action"] == "scanned"
        ]
        assert all("supercoordinate" in event for event in scanned)

    def test_unknown_termination_rejected(self):
        with pytest.raises(ValueError):
            SearchTrace(termination="gave_up")


class TestRenderExplain:
    def test_report_mentions_counts_and_termination(self, engine, small_db):
        _, stats, trace, _ = engine.explain(sorted(small_db[7]), SIM, k=5)
        report = render_explain(trace)
        assert f"{stats.entries_scanned} scanned" in report
        assert f"{stats.entries_pruned} pruned" in report
        assert trace.termination in report
        assert "scan trace" in report

    def test_max_events_truncates(self, engine, small_db):
        trace = engine.explain(sorted(small_db[9]), SIM, k=5).trace
        assert len(trace.events) > 3
        report = render_explain(trace, max_events=3)
        assert "more events" in report

    def test_range_report_compares_with_the_threshold(self, engine, small_db):
        """A range query has no k-th best: its report names the threshold
        and says a pruned entry's bound is below it."""
        trace = engine.explain(sorted(small_db[1]), SIM, threshold=0.4).trace
        report = render_explain(trace)
        assert "optimistic, threshold, action" in report
        assert re.search(r"threshold=0\.4000 +pruned \(bound below threshold\)", report)
        assert re.search(r"threshold=0\.4000 +scanned", report)
        assert "pess=" not in report and "k-th best" not in report


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 8),
    early_termination=st.sampled_from([None, 0.05, 0.2, 0.5]),
    tolerance=st.sampled_from([None, None, 0.0, 0.3]),
    similarity=st.sampled_from(SIMILARITIES),
    threshold=st.sampled_from([None, None, 0.0, 0.3, 0.6]),
)
def test_trace_replays_the_scan(
    seed, k, early_termination, tolerance, similarity, threshold
):
    """For a random database and query, the explained scan is the paper's:
    its scanned entries are the stable decreasing-bound prefix (a range
    query: every entry whose bound reaches the threshold, in entry order),
    each ``pessimistic_after`` is the k-th best similarity of the rows
    read so far, replaying the scanned events through ``PagedStore.read``
    with one page cache reproduces ``stats.io``, and the event counts
    reconcile with ``SearchStats``.  Results and stats are the batch
    methods', and nothing reaches the scalar loop."""
    _, db, table, queries = scan_instance(seed)
    searcher = SignatureTableSearcher(table, db)
    engine = QueryEngine(table, db)
    target = queries[0]
    with pytest.MonkeyPatch.context() as patch:
        forbid_scalar_loop(patch)
        if threshold is None:
            explained = engine.explain(
                target, similarity, k=k, early_termination=early_termination,
                guarantee_tolerance=tolerance,
            )
            batch = engine.knn_batch(
                [target], similarity, k=k, early_termination=early_termination,
                guarantee_tolerance=tolerance,
            )
        else:
            explained = engine.explain(target, similarity, threshold=threshold)
            batch = engine.range_query_batch([target], similarity, threshold)
    results, stats, trace, reads = explained
    assert ([results], [stats]) == batch
    reconcile(trace, stats)

    items, bound_sim, opts, order = searcher._prepare(target, similarity)
    sims = searcher._all_similarities(items, bound_sim)
    scanned = [event for event in trace.events if event.action == "scanned"]
    entries = [event.entry for event in scanned]
    assert entries == reads.entries.tolist()
    assert [event.transactions for event in scanned] == reads.rows.tolist()
    if threshold is None:
        assert entries == order[: len(entries)].tolist()
    else:
        assert entries == np.flatnonzero(opts >= threshold).tolist()

    io = IOCounters()
    page_cache = set()
    read_so_far = []
    for event in scanned:
        assert event.optimistic == opts[event.entry]
        assert event.code == table.entry_codes[event.entry]
        tids = table.entry_tids(event.entry)[: event.transactions]
        table.store.read(tids, io, page_cache)
        read_so_far += sims[tids].tolist()
        if threshold is not None:
            assert event.pessimistic_after == threshold
        elif len(read_so_far) >= k:
            assert event.pessimistic_after == sorted(read_so_far)[-k]
        else:
            assert event.pessimistic_after == -math.inf
    assert io == stats.io

    tail = trace.events[-1]
    if stats.terminated_early:
        # Left unexplored: the entry a budget cut short, or the first not
        # entered; the bound is the best any unexplored row could reach.
        assert tail.action == "unexplored"
        assert tail.rank + tail.count == order.size
        assert tail.optimistic == opts[order[tail.rank]]
        cut = scanned and scanned[-1].transactions < table.entry_sizes[entries[-1]]
        if cut:
            assert trace.termination == "budget_partial_entry"
            assert tail.rank == len(scanned) - 1
        else:
            assert tail.rank == len(scanned)
            if (
                tolerance is not None
                and tail.optimistic - tail.pessimistic_before <= tolerance
            ):
                assert trace.termination == "guarantee_tolerance"
            else:
                assert trace.termination == "budget"
                assert stats.transactions_accessed >= row_budget(
                    early_termination, len(db)
                )
    elif threshold is None and stats.entries_pruned:
        assert trace.termination == "pruned_tail"
        assert (tail.action, tail.rank) == ("pruned_tail", len(scanned))
        assert tail.optimistic == opts[order[tail.rank]] < tail.pessimistic_before
    else:
        assert trace.termination == "exhausted"
