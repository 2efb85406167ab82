"""Metrics hub tests: counters, quantiles, snapshot shape."""

import json

from repro.core.engine import BatchSummary, summarise_stats
from repro.core.search import SearchStats
from repro.service.metrics import ServiceMetrics, percentile
from repro.storage.pages import IOCounters


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


def make_summary(num_queries=4, total=1000):
    stats = [
        SearchStats(total_transactions=total, transactions_accessed=10 + q)
        for q in range(num_queries)
    ]
    return summarise_stats(stats)


class TestPercentile:
    def test_single_sample_is_none(self):
        # One observation carries no distributional information: the
        # documented contract is None, not a fake "p99".
        assert percentile([7.0], 0.5) is None
        assert percentile([7.0], 0.99) is None

    def test_median_and_tail(self):
        samples = sorted(float(v) for v in range(1, 101))
        assert percentile(samples, 0.5) == 51.0  # nearest rank of 100 samples
        assert percentile(samples, 0.99) == 99.0
        assert percentile(samples, 1.0) == 100.0

    def test_empty_is_none(self):
        assert percentile([], 0.5) is None

    def test_two_samples(self):
        assert percentile([1.0, 3.0], 0.0) == 1.0
        assert percentile([1.0, 3.0], 1.0) == 3.0


class TestCounters:
    def test_rejections_split_by_code(self):
        metrics = ServiceMetrics()
        for code in ("overloaded", "overloaded", "bad_request", "timeout",
                     "shutting_down", "internal"):
            metrics.record_rejection(code)
        requests = metrics.snapshot()["requests"]
        assert requests["rejected_overload"] == 2
        assert requests["rejected_bad_request"] == 1
        assert requests["timeouts"] == 1
        assert requests["rejected_shutdown"] == 1
        assert requests["internal_errors"] == 1

    def test_batches_fold_into_totals(self):
        metrics = ServiceMetrics()
        metrics.record_batch(make_summary(num_queries=4))
        metrics.record_batch(make_summary(num_queries=2))
        snapshot = metrics.snapshot()
        assert snapshot["batching"]["batches"] == 2
        assert snapshot["engine"]["queries"] == 6
        assert snapshot["batching"]["mean_batch_size"] == 3.0
        assert metrics.batch_size_histogram == {4: 1, 2: 1}
        assert snapshot["engine"]["total_transactions"] == 1000

    def test_queue_depth_gauge(self):
        metrics = ServiceMetrics()
        depth = {"value": 3}
        metrics.bind_queue_depth(lambda: depth["value"])
        assert metrics.snapshot()["requests"]["in_flight"] == 3
        depth["value"] = 0
        assert metrics.snapshot()["requests"]["in_flight"] == 0


class TestLatency:
    def test_quantiles_and_recent_qps(self):
        clock = FakeClock()
        metrics = ServiceMetrics(clock=clock)
        for latency_ms in range(1, 101):
            metrics.record_completion(latency_ms / 1000.0)
        quantiles = metrics.latency_quantiles()
        assert quantiles["p50_ms"] == 51.0
        assert quantiles["p99_ms"] == 99.0
        assert quantiles["max_ms"] == 100.0
        # All 100 completions landed "now": the 10 s window sees them all.
        assert metrics.recent_qps(window_seconds=10.0) == 10.0
        clock.now += 60.0
        assert metrics.recent_qps(window_seconds=10.0) == 0.0
        # 20 000 completions at 2 000/s overflow the 4 096-sample
        # reservoir inside the 10 s window: the rate is taken over the
        # time the reservoir spans, not saturated at 4 096 / 10 = 409.6.
        for _ in range(20_000):
            clock.now += 1.0 / 2_000
            metrics.record_completion(0.001)
        assert abs(metrics.recent_qps() - 2_000.0) <= 0.05 * 2_000.0
        assert (
            metrics.snapshot()["throughput"]["recent_qps"]
            == metrics.recent_qps()
        )
        clock.now += 60.0
        assert metrics.recent_qps() == 0.0

    def test_reservoir_is_bounded(self):
        metrics = ServiceMetrics(reservoir_size=8)
        for _ in range(100):
            metrics.record_completion(0.001)
        assert len(metrics._latencies) == 8

    def test_empty_window_reports_nones(self):
        quantiles = ServiceMetrics().latency_quantiles()
        assert quantiles == {
            "p50_ms": None,
            "p90_ms": None,
            "p99_ms": None,
            "max_ms": None,
            "count": 0,
        }

    def test_singleton_window_has_max_but_no_percentiles(self):
        metrics = ServiceMetrics()
        metrics.record_completion(0.005)
        quantiles = metrics.latency_quantiles()
        assert quantiles["p50_ms"] is None
        assert quantiles["p99_ms"] is None
        assert quantiles["max_ms"] == 5.0
        assert quantiles["count"] == 1


class TestSnapshot:
    def test_snapshot_is_json_serialisable(self):
        metrics = ServiceMetrics()
        metrics.record_received()
        metrics.record_completion(0.005)
        metrics.record_batch(make_summary())
        metrics.record_rejection("overloaded")
        snapshot = json.loads(json.dumps(metrics.snapshot()))
        assert snapshot["requests"]["completed"] == 1
        assert snapshot["requests"]["rejected_overload"] == 1
        assert snapshot["batching"]["size_histogram"] == {"4": 1}
        assert snapshot["engine"]["queries"] == 4
        # A single completion yields no percentiles (None, not 0/crash).
        assert snapshot["latency"]["p50_ms"] is None
        assert snapshot["latency"]["max_ms"] == 5.0

    def test_empty_summary_has_no_effect_on_optimality_fields(self):
        # The empty-batch summary carries guaranteed_optimal=None and
        # must not poison the metrics totals.
        metrics = ServiceMetrics()
        metrics.record_batch(summarise_stats([]))
        snapshot = metrics.snapshot()
        assert snapshot["batching"]["batches"] == 1
        assert snapshot["engine"]["queries"] == 0
        assert snapshot["batching"]["mean_batch_size"] == 0.0

    def test_io_counters_merge(self):
        metrics = ServiceMetrics()
        stats = SearchStats(total_transactions=10)
        stats.io = IOCounters(transactions_read=5, pages_read=2, seeks=1)
        metrics.record_batch(summarise_stats([stats]))
        engine = metrics.snapshot()["engine"]
        assert engine["pages_read"] == 2
        assert engine["seeks"] == 1


class TestBatchSummaryRegressions:
    """Satellite regressions: empty batches and disagreeing stats."""

    def test_empty_batch_is_not_vacuously_optimal(self):
        summary = summarise_stats([])
        assert summary.num_queries == 0
        assert summary.guaranteed_optimal is None

    def test_default_batchsummary_not_optimal(self):
        assert BatchSummary(num_queries=0).guaranteed_optimal is None

    def test_disagreeing_total_transactions_takes_max(self):
        stats = [
            SearchStats(total_transactions=100),
            SearchStats(total_transactions=250),
            SearchStats(total_transactions=50),
        ]
        assert summarise_stats(stats).total_transactions == 250

    def test_non_empty_batch_keeps_boolean_semantics(self):
        good = SearchStats(total_transactions=10, guaranteed_optimal=True)
        bad = SearchStats(total_transactions=10, guaranteed_optimal=False)
        assert summarise_stats([good, good]).guaranteed_optimal is True
        assert summarise_stats([good, bad]).guaranteed_optimal is False


class TestRegistryExposition:
    """ServiceMetrics is a view over the repro.obs metric registry."""

    def test_counters_appear_in_prometheus_text(self):
        from repro.obs.registry import parse_prometheus_text

        metrics = ServiceMetrics()
        metrics.record_received()
        metrics.record_received()
        metrics.record_completion(0.004)
        metrics.record_rejection("overloaded")
        metrics.record_batch(make_summary(num_queries=4))
        samples = parse_prometheus_text(metrics.to_prometheus_text())
        assert samples[("repro_requests_received_total", ())] == 2.0
        assert samples[("repro_requests_completed_total", ())] == 1.0
        assert samples[
            ("repro_requests_rejected_total", (("reason", "overloaded"),))
        ] == 1.0
        assert samples[("repro_batches_total", ())] == 1.0
        assert samples[("repro_engine_queries_total", ())] == 4.0
        # Histogram exposition: cumulative buckets plus _sum/_count.
        assert samples[("repro_batch_size_bucket", (("le", "4"),))] == 1.0
        assert samples[("repro_batch_size_bucket", (("le", "+Inf"),))] == 1.0
        assert samples[("repro_batch_size_count", ())] == 1.0
        assert samples[("repro_batch_size_sum", ())] == 4.0

    def test_wire_labels_always_present_in_exposition(self):
        """Both wire labels appear in the Prometheus text even before any
        traffic — dashboards can rate() them from scrape one."""
        from repro.obs.registry import parse_prometheus_text

        metrics = ServiceMetrics()
        samples = parse_prometheus_text(metrics.to_prometheus_text())
        for wire in ("ndjson", "binary"):
            label = (("wire", wire),)
            assert samples[
                ("repro_requests_completed_by_wire_total", label)
            ] == 0.0
            assert samples[
                ("repro_request_latency_by_wire_seconds_count", label)
            ] == 0.0

    def test_completions_routed_to_their_wire_label(self):
        from repro.obs.registry import parse_prometheus_text

        metrics = ServiceMetrics()
        metrics.record_completion(0.004, wire="binary")
        metrics.record_completion(0.002, wire="binary")
        metrics.record_completion(0.003, wire="ndjson")
        metrics.record_completion(0.001)  # default wire is ndjson
        metrics.record_completion(0.001, wire="smoke-signal")  # unknown
        samples = parse_prometheus_text(metrics.to_prometheus_text())
        binary = (("wire", "binary"),)
        ndjson = (("wire", "ndjson"),)
        assert samples[
            ("repro_requests_completed_by_wire_total", binary)
        ] == 2.0
        assert samples[
            ("repro_requests_completed_by_wire_total", ndjson)
        ] == 3.0
        assert samples[
            ("repro_request_latency_by_wire_seconds_count", binary)
        ] == 2.0
        assert abs(
            samples[("repro_request_latency_by_wire_seconds_sum", binary)]
            - 0.006
        ) < 1e-12
        # The unlabeled totals still see every completion.
        assert samples[("repro_requests_completed_total", ())] == 5.0
        assert metrics.snapshot()["requests"]["completed_by_wire"] == {
            "ndjson": 3,
            "binary": 2,
        }

    def test_unknown_rejection_code_maps_to_bad_request(self):
        metrics = ServiceMetrics()
        metrics.record_rejection("not_a_real_code")
        assert metrics.snapshot()["requests"]["rejected_bad_request"] == 1

    def test_shared_registry_is_accepted(self):
        from repro.obs.registry import MetricRegistry

        registry = MetricRegistry()
        metrics = ServiceMetrics(registry=registry)
        metrics.record_received()
        assert metrics.registry is registry
        assert "repro_requests_received_total" in registry.to_json()

    def test_queue_depth_gauge_exports_live_value(self):
        from repro.obs.registry import parse_prometheus_text

        metrics = ServiceMetrics()
        depth = {"value": 7}
        metrics.bind_queue_depth(lambda: depth["value"])
        samples = parse_prometheus_text(metrics.to_prometheus_text())
        assert samples[("repro_queue_depth", ())] == 7.0
