"""Unified observability for the signature-table stack.

The paper's argument is about *internal* behaviour — fraction of the
database pruned, bound convergence, pages touched — so this package makes
every layer report what it did:

* :mod:`repro.obs.registry` — a lock-safe metric registry (counters,
  gauges, histograms, all with labels) with Prometheus-text and JSON
  exposition.  :class:`~repro.service.metrics.ServiceMetrics` is built on
  it; anything else can register metrics alongside.
* :mod:`repro.obs.trace` — hierarchical trace spans with a
  context-propagated recorder.  When no recorder is active every
  instrumentation point degrades to a single context-variable read
  (``tests/obs/test_trace.py`` pins the shared no-op span); what an
  *active* tracer costs is the ``batch_exact`` ``alt_ops_s`` row of
  ``bench/run.py``.
* :mod:`repro.obs.search_trace` — the query-explain facility: a
  :class:`~repro.obs.search_trace.SearchTrace`, built by
  ``QueryEngine.explain`` from the packed scan's read list, records
  entry by entry why the branch-and-bound scan visited or pruned each
  signature-table entry, and renders it as a human-readable or JSON
  report (CLI ``repro explain``).
* :mod:`repro.obs.log` — structured JSON logging with per-request
  correlation ids flowing from the TCP server through the micro-batcher
  into the engine.
* :mod:`repro.obs.distributed` — cross-process trace propagation: a
  compact trace context carried on scatter legs so router + shard spans
  stitch into one tree.
* :mod:`repro.obs.slo` — SLO objectives, multi-window burn rates,
  error-budget gauges and structured alerts.
* :mod:`repro.obs.profiler` — wall-clock sampling profiler producing
  flamegraph-compatible folded stacks (``repro profile``).

See ``docs/observability.md`` for the full model.
"""

from repro.obs.distributed import (
    TraceContext,
    graft_remote_trace,
    render_fanout,
)
from repro.obs.log import JsonLogger, current_correlation_id, with_correlation_id
from repro.obs.profiler import SamplingProfiler, render_folded
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    parse_prometheus_text,
)
from repro.obs.search_trace import SearchTrace, render_explain
from repro.obs.slo import SloMonitor, SloObjective
from repro.obs.trace import NOOP_SPAN, Span, Tracer, current_tracer, span

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "JsonLogger",
    "MetricRegistry",
    "NOOP_SPAN",
    "SamplingProfiler",
    "SearchTrace",
    "SloMonitor",
    "SloObjective",
    "Span",
    "TraceContext",
    "Tracer",
    "current_correlation_id",
    "current_tracer",
    "graft_remote_trace",
    "parse_prometheus_text",
    "render_explain",
    "render_fanout",
    "render_folded",
    "span",
    "with_correlation_id",
]
