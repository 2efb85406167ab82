"""Unit tests for the LRU buffer pool."""

import runpy
from pathlib import Path

import pytest

import repro
from repro.storage.buffer import BufferPool, BufferStats
from repro.storage.pages import IOCounters, PagedStore
from tests.conftest import forbid_scalar_loop

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture()
def pool():
    # 100 records, 10 per page -> pages 0..9; pool holds 3 pages.
    return BufferPool(PagedStore(100, page_size=10), capacity=3)


class TestBufferStats:
    def test_hit_rate(self):
        stats = BufferStats(hits=3, misses=1)
        assert stats.accesses == 4
        assert stats.hit_rate == pytest.approx(0.75)

    def test_empty_hit_rate(self):
        assert BufferStats().hit_rate == 0.0

    def test_reset(self):
        stats = BufferStats(hits=1, misses=2, evictions=3)
        stats.reset()
        assert stats == BufferStats()


class TestBufferPool:
    def test_first_read_misses(self, pool):
        counters = IOCounters()
        missed = pool.read([0, 1, 2], counters)  # all page 0
        assert missed == 1
        assert counters.pages_read == 1
        assert pool.stats.misses == 1

    def test_repeat_read_hits(self, pool):
        counters = IOCounters()
        pool.read([0], counters)
        pool.read([5], counters)  # same page 0
        assert pool.stats.hits == 1
        assert counters.pages_read == 1  # only the miss was charged

    def test_transactions_always_counted(self, pool):
        counters = IOCounters()
        pool.read([0], counters)
        pool.read([1], counters)
        assert counters.transactions_read == 2

    def test_eviction_at_capacity(self, pool):
        counters = IOCounters()
        for page_start in [0, 10, 20, 30]:  # four distinct pages, capacity 3
            pool.read([page_start], counters)
        assert pool.resident_pages == 3
        assert pool.stats.evictions == 1
        assert not pool.contains(0)  # LRU victim

    def test_lru_order_respects_recency(self, pool):
        counters = IOCounters()
        pool.read([0], counters)   # page 0
        pool.read([10], counters)  # page 1
        pool.read([20], counters)  # page 2
        pool.read([0], counters)   # touch page 0 again (hit)
        pool.read([30], counters)  # page 3 evicts page 1 (LRU)
        assert pool.contains(0)
        assert not pool.contains(1)

    def test_seeks_count_missed_runs_only(self, pool):
        counters = IOCounters()
        pool.read([0, 10], counters)  # pages 0,1 contiguous: 1 seek
        assert counters.seeks == 1
        pool.read([0, 10, 90], counters)  # only page 9 missed
        assert counters.seeks == 2

    def test_clear_keeps_stats(self, pool):
        counters = IOCounters()
        pool.read([0], counters)
        pool.clear()
        assert pool.resident_pages == 0
        assert pool.stats.misses == 1

    def test_counters_optional(self, pool):
        assert pool.read([0]) == 1
        assert pool.read([0]) == 0

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            BufferPool(PagedStore(10), capacity=0)


class TestReadPagesNormalisation:
    """read_pages must sort and dedupe its input (regression).

    The batched engine hands page sets in table-entry order; unsorted or
    duplicated pages previously inflated seeks (each out-of-order page
    started a new "run") and double-charged repeated pages as misses.
    """

    def test_duplicates_charged_once(self, pool):
        counters = IOCounters()
        missed = pool.read_pages([3, 3, 3], num_transactions=3, counters=counters)
        assert missed == 1
        assert counters.pages_read == 1
        assert counters.seeks == 1

    def test_unsorted_input_matches_sorted(self):
        store = PagedStore(100, page_size=10)
        scrambled = BufferPool(store, capacity=8)
        ordered = BufferPool(store, capacity=8)
        a, b = IOCounters(), IOCounters()
        scrambled.read_pages([7, 2, 5, 2, 7, 1], num_transactions=6, counters=a)
        ordered.read_pages([1, 2, 5, 7], num_transactions=6, counters=b)
        assert a == b
        assert a.seeks == 3  # runs: [1,2], [5], [7]

    def test_contiguous_run_survives_scrambling(self, pool):
        counters = IOCounters()
        pool.read_pages([2, 0, 1], num_transactions=3, counters=counters)
        assert counters.seeks == 1
        assert counters.pages_read == 3

    def test_cache_hits_after_normalised_read(self, pool):
        pool.read_pages([1, 0, 1], num_transactions=2)
        counters = IOCounters()
        assert pool.read_pages([0, 1], num_transactions=2, counters=counters) == 0
        assert counters.pages_read == 0

class TestSearcherIntegration:
    """A scan's read list (``QueryEngine.explain``) replayed through a
    pool by ``QueryEngine.replay_reads``, the buffer-pool ablation's
    path."""

    def test_pool_must_wrap_table_store(self, medium_engine, medium_indexed):
        foreign = BufferPool(PagedStore(len(medium_indexed)), capacity=8)
        reads = medium_engine.explain(
            sorted(medium_indexed[0]), repro.MatchRatioSimilarity()
        ).reads
        with pytest.raises(ValueError, match="table's own store"):
            medium_engine.replay_reads(reads, foreign)

    def test_pool_reduces_io_across_repeated_queries(
        self, medium_engine, medium_table, medium_queries
    ):
        pool = BufferPool(medium_table.store, capacity=medium_table.store.num_pages)
        reads = medium_engine.explain(
            medium_queries[0], repro.MatchRatioSimilarity()
        ).reads
        first = medium_engine.replay_reads(reads, pool)
        second = medium_engine.replay_reads(reads, pool)
        assert second.pages_read == 0  # everything resident
        assert first.pages_read > 0
        assert pool.stats.hit_rate > 0.0

    def test_results_unchanged_with_pool(
        self, medium_engine, medium_table, medium_queries, medium_scan
    ):
        """The pool charges the scan's reads and nothing else: a cold pool
        that never evicts charges what the query's own page cache did."""
        sim = repro.JaccardSimilarity()
        for target in medium_queries[:5]:
            neighbors = medium_engine.explain(target, sim).results
            assert neighbors[0].similarity == pytest.approx(
                medium_scan.best_similarity(target, sim)
            )
            for early_termination in (None, 0.05):
                _, stats, _, reads = medium_engine.explain(
                    target, sim, early_termination=early_termination
                )
                cold = BufferPool(
                    medium_table.store, capacity=medium_table.store.num_pages
                )
                assert medium_engine.replay_reads(reads, cold) == stats.io


class TestPackedReplay:
    """The buffer-pool ablation and the scaling example read their I/O
    from the packed scan: neither reaches the scalar loop."""

    def test_ablation_replays_the_packed_scan(self, monkeypatch):
        from repro.eval.harness import ExperimentContext

        forbid_scalar_loop(monkeypatch)
        ablation = runpy.run_path(str(ROOT / "benchmarks" / "bench_ablation_buffer.py"))
        ctx = ExperimentContext(
            "quick", large_spec="T8.I4.D3K", default_k=10, num_queries=20
        )
        tables = []
        ablation["test_ablation_buffer_capacity"](
            ctx, lambda table, name: tables.append(table), lambda fn: fn()
        )
        (table,) = tables
        assert len(table.column("pages/query")) == 6

    def test_scaling_out_example_replays_the_packed_scan(
        self, monkeypatch, capsys
    ):
        forbid_scalar_loop(monkeypatch)
        runpy.run_path(str(ROOT / "examples" / "scaling_out.py"), run_name="__main__")
        assert "hit rate" in capsys.readouterr().out
