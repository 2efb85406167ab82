"""Hierarchical trace spans with a context-propagated recorder.

A :class:`Tracer` collects a tree of :class:`Span` objects for one
traced unit of work (a request, a batch, an index build).  Activation is
context-local (:mod:`contextvars`), so instrumented library code never
takes a tracer argument — it calls :func:`span` and either records into
the active tracer or gets the shared :data:`NOOP_SPAN` back.

Cost model (``bench/run.py --workload batch_exact``: ``alt_ops_s`` is the
batch under an active tracer beside ``main_ops_s`` without one, and the
per-layer row ``obs.trace.span_us`` is the cost of one span):

* **disabled** (no active tracer — the production default): one
  ``ContextVar.get`` plus a ``None`` check per instrumentation point.
  The scans read ``current_tracer()`` once per batch (the scalar loop
  once per query), never per entry.
* **enabled**: the same code path — the scan kernels :meth:`Tracer.record`
  each query's span from the start and elapsed time they take anyway —
  plus one small object per span.

Tracers are **not** re-entrant across threads: one tracer records from
one thread at a time.  The micro-batcher hands a dedicated tracer to the
engine's executor thread (contextvars do not flow through
``run_in_executor``) and stitches the resulting engine span into each
request's tree.  Spans never cross process boundaries on their own; a
cluster scatter leg returns its tree to the router as data
(:mod:`repro.obs.distributed`).
"""

from __future__ import annotations

import time
from contextvars import ContextVar
from typing import Dict, List, Optional

_TRACER: "ContextVar[Optional[Tracer]]" = ContextVar(
    "repro_obs_tracer", default=None
)


def current_tracer() -> Optional["Tracer"]:
    """The tracer active in this context, or ``None`` (tracing disabled)."""
    return _TRACER.get()


class Span:
    """One timed operation with attributes, events and child spans."""

    __slots__ = (
        "name", "start_s", "end_s", "attributes", "events", "children",
    )

    def __init__(self, name: str, start_s: float, **attributes: object):
        self.name = name
        self.start_s = start_s
        self.end_s: Optional[float] = None
        self.attributes: Dict[str, object] = dict(attributes)
        self.events: List[Dict[str, object]] = []
        self.children: List["Span"] = []

    def set_attribute(self, key: str, value: object) -> "Span":
        """Attach or overwrite one attribute (chainable)."""
        self.attributes[key] = value
        return self

    def add_event(self, name: str, **fields: object) -> None:
        """Record a point-in-time event inside the span."""
        event = {"name": name, "at_s": time.perf_counter()}
        event.update(fields)
        self.events.append(event)

    @property
    def duration_s(self) -> float:
        """Elapsed seconds (0.0 while the span is still open)."""
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    def to_dict(self, base_time_s: Optional[float] = None) -> Dict[str, object]:
        """JSON-safe span tree (times in ms relative to ``base_time_s``)."""
        base = self.start_s if base_time_s is None else base_time_s
        payload: Dict[str, object] = {
            "name": self.name,
            "start_ms": 1000.0 * (self.start_s - base),
            "duration_ms": 1000.0 * self.duration_s,
        }
        if self.attributes:
            payload["attributes"] = dict(self.attributes)
        if self.events:
            payload["events"] = [
                dict(event, at_ms=1000.0 * (event["at_s"] - base))
                for event in self.events
            ]
            for event in payload["events"]:
                event.pop("at_s", None)
        if self.children:
            payload["children"] = [
                child.to_dict(base) for child in self.children
            ]
        return payload

    @classmethod
    def from_dict(
        cls, payload: Dict[str, object], base_s: float
    ) -> "Span":
        """Rebuild a span tree from its :meth:`to_dict` form.

        ``base_s`` anchors the (relative) serialized times in this
        process's ``perf_counter`` domain — callers grafting a remote
        tree pass the local moment the remote work was initiated.  The
        inverse is exact up to that anchor: durations, attributes,
        events and structure round-trip unchanged.
        """
        start_s = base_s + float(payload.get("start_ms", 0.0)) / 1000.0
        rebuilt = cls(str(payload["name"]), start_s)
        rebuilt.end_s = start_s + float(payload.get("duration_ms", 0.0)) / 1000.0
        attributes = payload.get("attributes")
        if isinstance(attributes, dict):
            rebuilt.attributes = dict(attributes)
        events = payload.get("events")
        if isinstance(events, list):
            for event in events:
                fields = dict(event)
                at_ms = fields.pop("at_ms", 0.0)
                fields["at_s"] = base_s + float(at_ms) / 1000.0
                rebuilt.events.append(fields)
        for child in payload.get("children", ()):
            rebuilt.children.append(cls.from_dict(child, base_s))
        return rebuilt


class _NoopSpan:
    """Absorbs the full Span API at (near) zero cost; a shared singleton."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def set_attribute(self, key: str, value: object) -> "_NoopSpan":
        return self

    def add_event(self, name: str, **fields: object) -> None:
        return None


#: The span every instrumentation point gets when no tracer is active.
NOOP_SPAN = _NoopSpan()


class _SpanContext:
    """Context manager that opens a span on enter and closes it on exit."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self._span.set_attribute("error", repr(exc))
        self._tracer._close(self._span)


class Tracer:
    """Recorder for one trace: a stack-shaped collector of span trees.

    Parameters
    ----------
    correlation_id:
        Optional id stamped on every root span (the service uses the
        per-request correlation id, so log lines, metrics, and span trees
        join on one key).
    trace_id:
        Optional distributed-trace id stamped on every root span.  Set
        by the service when a request fans out across processes (see
        :mod:`repro.obs.distributed`) so every process's spans carry the
        same key; ``None`` (the default) adds nothing.
    """

    def __init__(
        self,
        correlation_id: Optional[str] = None,
        trace_id: Optional[str] = None,
    ):
        self.correlation_id = correlation_id
        self.trace_id = trace_id
        self.roots: List[Span] = []
        self._stack: List[Span] = []

    # ------------------------------------------------------------------
    def span(self, name: str, **attributes: object) -> _SpanContext:
        """Open a child span of the innermost open span (or a new root)."""
        opened = Span(name, time.perf_counter(), **attributes)
        self._attach(opened)
        self._stack.append(opened)
        return _SpanContext(self, opened)

    def record(
        self,
        name: str,
        start_s: float,
        end_s: float,
        **attributes: object,
    ) -> Span:
        """Attach an already-timed span retroactively.

        Hot paths measure first and record only if a tracer turned out to
        be active, so the disabled path never constructs spans.
        """
        recorded = Span(name, start_s, **attributes)
        recorded.end_s = end_s
        self._attach(recorded)
        return recorded

    def adopt(self, span: Span) -> Span:
        """Graft a finished span (e.g. from another tracer) into this tree."""
        self._attach(span)
        return span

    def _attach(self, span: Span) -> None:
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            if self.correlation_id is not None:
                span.attributes.setdefault(
                    "correlation_id", self.correlation_id
                )
            if self.trace_id is not None:
                span.attributes.setdefault("trace_id", self.trace_id)
            self.roots.append(span)

    def _close(self, span: Span) -> None:
        span.end_s = time.perf_counter()
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:  # pragma: no cover - defensive
            self._stack.remove(span)

    # ------------------------------------------------------------------
    def activate(self) -> "_TracerActivation":
        """Context manager installing this tracer in the current context."""
        return _TracerActivation(self)

    def to_dicts(self) -> List[Dict[str, object]]:
        """All root span trees as JSON-safe dicts."""
        base = self.roots[0].start_s if self.roots else None
        return [root.to_dict(base) for root in self.roots]


class _TracerActivation:
    __slots__ = ("_tracer", "_token")

    def __init__(self, tracer: Tracer):
        self._tracer = tracer
        self._token = None

    def __enter__(self) -> Tracer:
        self._token = _TRACER.set(self._tracer)
        return self._tracer

    def __exit__(self, *exc_info) -> None:
        _TRACER.reset(self._token)


def span(name: str, **attributes: object):
    """Open a span on the active tracer, or return :data:`NOOP_SPAN`.

    Usable as a context manager either way::

        with span("engine.prepare", batch_size=len(targets)) as sp:
            ...
            sp.set_attribute("entries", num_entries)
    """
    tracer = _TRACER.get()
    if tracer is None:
        return NOOP_SPAN
    return tracer.span(name, **attributes)
