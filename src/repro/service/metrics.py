"""Live serving metrics backed by the :mod:`repro.obs` metric registry.

One :class:`ServiceMetrics` instance is shared by the server, the
micro-batcher and the admission controller.  Every lifetime counter lives
in a :class:`~repro.obs.registry.MetricRegistry` — so the same numbers
the ``stats`` endpoint reports are exposed in Prometheus text or JSON
form through the ``metrics`` control op (and ``repro metrics``) — while
the recent-window latency quantiles keep their bounded reservoir of the
most recent completions (default 4096 samples), the usual
serving-dashboard semantics.

Readers take :meth:`ServiceMetrics.snapshot` (the ``stats`` payload) or
the registry itself; there is no second, attribute-shaped read API.

Percentiles over empty or singleton windows are ``None`` (a single
sample carries no distributional information), never a crash or a fake
zero.
"""

from __future__ import annotations

import time
from collections import Counter as TallyCounter
from collections import deque
from typing import Callable, Deque, Dict, Optional, Sequence, Tuple

from repro.core.engine import BatchSummary
from repro.obs.registry import MetricRegistry
from repro.service.protocol import WIRE_PROTOCOLS

#: Rejection reasons tracked as labels on ``repro_requests_rejected_total``.
_REJECTION_REASONS = (
    "overloaded",
    "bad_request",
    "shutting_down",
    "timeout",
    "unavailable",
    "internal",
)

#: Batch-size buckets for the exposition histogram (exact sizes are kept
#: in ``batch_size_histogram`` alongside).
_BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


def percentile(
    sorted_samples: Sequence[float], fraction: float
) -> Optional[float]:
    """Nearest-rank percentile of an ascending-sorted sample.

    Returns ``None`` for empty *and* singleton samples: one observation
    carries no distributional information, and pretending it is "the
    p99" misleads dashboards (this is the documented contract of the
    service's percentile reporting).
    """
    if len(sorted_samples) < 2:
        return None
    rank = min(
        len(sorted_samples) - 1,
        max(0, int(round(fraction * (len(sorted_samples) - 1)))),
    )
    return float(sorted_samples[rank])


class ServiceMetrics:
    """Mutable metrics hub for one server instance.

    Parameters
    ----------
    reservoir_size:
        How many recent completions feed the latency percentiles and the
        recent-QPS gauge.
    clock:
        Monotonic time source (injectable for tests).
    registry:
        Optional shared :class:`~repro.obs.registry.MetricRegistry`; by
        default each hub owns a fresh one (exposed as ``.registry``).
    """

    def __init__(
        self,
        reservoir_size: int = 4096,
        clock: Callable[[], float] = time.monotonic,
        registry: Optional[MetricRegistry] = None,
    ) -> None:
        self._clock = clock
        self.started_at = clock()
        self.registry = registry if registry is not None else MetricRegistry()
        reg = self.registry
        self._received = reg.counter(
            "repro_requests_received_total", "Query requests admitted into parsing"
        )
        self._completed = reg.counter(
            "repro_requests_completed_total", "Query requests answered successfully"
        )
        self._rejected = reg.counter(
            "repro_requests_rejected_total",
            "Query requests rejected, by structured error code",
            labelnames=("reason",),
        )
        self._batches = reg.counter(
            "repro_batches_total", "Coalesced engine batches executed"
        )
        self._batch_size = reg.histogram(
            "repro_batch_size",
            "Coalesced batch sizes (queries per engine call)",
            buckets=_BATCH_SIZE_BUCKETS,
        )
        self._latency = reg.histogram(
            "repro_request_latency_seconds",
            "End-to-end request latency (admission to response)",
        )
        # Per-wire-protocol views of the completion path, so a scrape
        # can attribute latency/qps to NDJSON vs binary frames.  Both
        # children are materialised up front: the exposition always
        # carries both labels, even before the first request.
        self._completed_by_wire = reg.counter(
            "repro_requests_completed_by_wire_total",
            "Query requests answered successfully, by wire protocol",
            labelnames=("wire",),
        )
        self._latency_by_wire = reg.histogram(
            "repro_request_latency_by_wire_seconds",
            "End-to-end request latency, by wire protocol",
            labelnames=("wire",),
        )
        for wire in WIRE_PROTOCOLS:
            self._completed_by_wire.labels(wire=wire)
            self._latency_by_wire.labels(wire=wire)
        self._engine_queries = reg.counter(
            "repro_engine_queries_total", "Queries executed through the engine"
        )
        self._engine_transactions = reg.counter(
            "repro_engine_transactions_accessed_total",
            "Transactions whose objective was evaluated",
        )
        self._engine_scanned = reg.counter(
            "repro_engine_entries_scanned_total", "Signature-table entries scanned"
        )
        self._engine_pruned = reg.counter(
            "repro_engine_entries_pruned_total",
            "Signature-table entries pruned by the optimistic bound",
        )
        self._engine_terminated = reg.counter(
            "repro_engine_terminated_early_total",
            "Queries cut off by the early-termination budget",
        )
        self._io_transactions = reg.counter(
            "repro_io_transactions_read_total", "Transactions read from storage"
        )
        self._io_pages = reg.counter(
            "repro_io_pages_read_total", "Pages read from the simulated disk"
        )
        self._io_seeks = reg.counter(
            "repro_io_seeks_total", "Seek runs on the simulated disk"
        )
        self._queue_gauge = reg.gauge(
            "repro_queue_depth", "Requests currently queued or executing"
        )
        self._uptime_gauge = reg.gauge(
            "repro_uptime_seconds", "Seconds since the server started"
        )
        self._uptime_gauge.set_function(lambda: self.uptime_seconds)
        # Largest per-query database size seen (a max, not a counter).
        self._total_transactions_gauge = reg.gauge(
            "repro_engine_total_transactions",
            "Largest per-query database size observed",
        )
        # Exact batch sizes (the exposition histogram only keeps buckets).
        self.batch_size_histogram: TallyCounter = TallyCounter()
        # Recent completions: (completed_at, latency_seconds).
        self._latencies: Deque[Tuple[float, float]] = deque(maxlen=reservoir_size)
        # Gauge callback installed by the batcher.
        self._queue_depth: Callable[[], int] = lambda: 0
        self._queue_gauge.set_function(lambda: float(self._queue_depth()))

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def bind_queue_depth(self, gauge: Callable[[], int]) -> None:
        """Install the live queue-depth gauge (called by the batcher)."""
        self._queue_depth = gauge

    def record_received(self) -> None:
        """One request admitted into parsing (any op)."""
        self._received.inc()

    def record_rejection(self, code: str) -> None:
        """One request rejected with a structured error code."""
        reason = code if code in _REJECTION_REASONS else "bad_request"
        self._rejected.labels(reason=reason).inc()

    def record_completion(
        self, latency_seconds: float, wire: str = "ndjson"
    ) -> None:
        """One query answered successfully (over the given wire protocol)."""
        self._completed.inc()
        self._latency.observe(float(latency_seconds))
        self._latencies.append((self._clock(), float(latency_seconds)))
        label = wire if wire in WIRE_PROTOCOLS else "ndjson"
        self._completed_by_wire.labels(wire=label).inc()
        self._latency_by_wire.labels(wire=label).observe(float(latency_seconds))

    def record_batch(self, summary: BatchSummary) -> None:
        """One engine batch executed; fold in its merged stats."""
        self._batches.inc()
        self._batch_size.observe(float(summary.num_queries))
        self.batch_size_histogram[summary.num_queries] += 1
        self._engine_queries.inc(summary.num_queries)
        if summary.total_transactions > self._total_transactions_gauge.value:
            self._total_transactions_gauge.set(float(summary.total_transactions))
        self._engine_transactions.inc(summary.transactions_accessed)
        self._engine_scanned.inc(summary.entries_scanned)
        self._engine_pruned.inc(summary.entries_pruned)
        self._engine_terminated.inc(summary.terminated_early)
        self._io_transactions.inc(summary.io.transactions_read)
        self._io_pages.inc(summary.io.pages_read)
        self._io_seeks.inc(summary.io.seeks)

    # ------------------------------------------------------------------
    # Derived gauges
    # ------------------------------------------------------------------
    @property
    def uptime_seconds(self) -> float:
        """Seconds since the metrics hub (≈ the server) started."""
        return max(1e-9, self._clock() - self.started_at)

    def latency_quantiles(self) -> Dict[str, Optional[float]]:
        """Recent-window latency quantiles in milliseconds.

        ``p50_ms``/``p90_ms``/``p99_ms`` are ``None`` when the window
        holds fewer than two samples; ``max_ms`` is ``None`` only when
        the window is empty.  ``count`` is the window size.
        """
        samples = sorted(latency for _, latency in self._latencies)

        def scaled(fraction: float) -> Optional[float]:
            value = percentile(samples, fraction)
            return None if value is None else 1000.0 * value

        return {
            "p50_ms": scaled(0.50),
            "p90_ms": scaled(0.90),
            "p99_ms": scaled(0.99),
            "max_ms": 1000.0 * samples[-1] if samples else None,
            "count": len(samples),
        }

    def recent_qps(self, window_seconds: float = 10.0) -> float:
        """Completions per second over the trailing window.

        A full reservoir whose oldest sample is still inside the window
        has dropped completions the window should count, so the rate is
        taken over the time the reservoir actually spans.
        """
        if not self._latencies:
            return 0.0
        now = self._clock()
        horizon = now - window_seconds
        recent = sum(1 for at, _ in self._latencies if at >= horizon)
        span = now - self._latencies[0][0]
        full = len(self._latencies) == self._latencies.maxlen
        if full and 0.0 < span < window_seconds:
            return recent / span
        return recent / window_seconds

    # ------------------------------------------------------------------
    def to_prometheus_text(self) -> str:
        """The registry in Prometheus text exposition format."""
        return self.registry.to_prometheus_text()

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe view of everything (the ``stats`` endpoint payload)."""

        def rejected(reason: str) -> int:
            return int(self._rejected.labels(reason=reason).value)

        uptime = self.uptime_seconds
        completed = int(self._completed.value)
        batches = int(self._batches.value)
        queries = int(self._engine_queries.value)
        return {
            "uptime_seconds": uptime,
            "requests": {
                "received": int(self._received.value),
                "completed": completed,
                "completed_by_wire": {
                    wire: int(self._completed_by_wire.labels(wire=wire).value)
                    for wire in WIRE_PROTOCOLS
                },
                "in_flight": int(self._queue_depth()),
                "rejected_overload": rejected("overloaded"),
                "rejected_bad_request": rejected("bad_request"),
                "rejected_shutdown": rejected("shutting_down"),
                "timeouts": rejected("timeout"),
                "rejected_unavailable": rejected("unavailable"),
                "internal_errors": rejected("internal"),
            },
            "throughput": {
                "lifetime_qps": completed / uptime,
                "recent_qps": self.recent_qps(),
            },
            "latency": self.latency_quantiles(),
            "batching": {
                "batches": batches,
                "mean_batch_size": queries / batches if batches else 0.0,
                # JSON object keys must be strings.
                "size_histogram": {
                    str(size): count
                    for size, count in sorted(self.batch_size_histogram.items())
                },
            },
            "engine": {
                "queries": queries,
                "total_transactions": int(self._total_transactions_gauge.value),
                "transactions_accessed": int(self._engine_transactions.value),
                "entries_scanned": int(self._engine_scanned.value),
                "entries_pruned": int(self._engine_pruned.value),
                "terminated_early": int(self._engine_terminated.value),
                "transactions_read": int(self._io_transactions.value),
                "pages_read": int(self._io_pages.value),
                "seeks": int(self._io_seeks.value),
            },
        }
