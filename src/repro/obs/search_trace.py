"""Query-explain: why each signature-table entry was scanned or pruned.

:meth:`QueryEngine.explain <repro.core.engine.QueryEngine.explain>` runs
one query on the packed scan and builds a :class:`SearchTrace` from the
scan's read list and the query's bounds: every scanned entry appears
with the optimistic bound that ordered it and the pessimistic bound
before/after folding its rows in, prunes appear with the bound
comparison that justified them, and the termination reason is whichever
exit the scan took.

The per-entry counts reconcile with :class:`~repro.core.search.SearchStats`
(``scanned_entries == stats.entries_scanned`` etc.), and the explain
property tests pin that down.

:func:`render_explain` turns a trace into the human-readable report the
``repro explain`` CLI prints; :meth:`SearchTrace.to_dict` is the JSON
shape (``--output json`` and programmatic consumers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: Termination reasons a scan can record.
TERMINATIONS = (
    "exhausted",            # every entry scanned, or pruned by a range query
    "pruned_tail",          # sorted-by-bound scan hit the first prunable entry
    "guarantee_tolerance",  # best candidate within tolerance of every bound
    "budget",               # early-termination transaction budget exhausted
    "budget_partial_entry", # budget ran out midway through an entry
)


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "—"
    if value == -math.inf:
        return "-inf"
    return f"{value:.4f}"


@dataclass
class EntryEvent:
    """One decision of the scan about one table entry (or a tail).

    ``action`` is ``"scanned"``, ``"pruned"`` (one entry whose bound is
    below a range query's threshold), ``"pruned_tail"`` (every remaining
    entry pruned at once under the bound-sorted order; ``count`` entries)
    or ``"unexplored"`` (left behind by an early termination; ``count``
    entries).  Bounds are ``None`` where they do not apply; a range
    query's pessimistic value is its threshold.
    """

    action: str
    rank: int
    count: int = 1
    entry: Optional[int] = None
    code: Optional[int] = None
    optimistic: Optional[float] = None
    pessimistic_before: Optional[float] = None
    pessimistic_after: Optional[float] = None
    transactions: int = 0

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "action": self.action,
            "rank": self.rank,
            "count": self.count,
        }
        if self.entry is not None:
            payload["entry"] = self.entry
        if self.code is not None:
            payload["supercoordinate"] = format(self.code, "b")
        if self.optimistic is not None:
            payload["optimistic_bound"] = self.optimistic
        if self.pessimistic_before is not None and math.isfinite(
            self.pessimistic_before
        ):
            payload["pessimistic_before"] = self.pessimistic_before
        if self.pessimistic_after is not None and math.isfinite(
            self.pessimistic_after
        ):
            payload["pessimistic_after"] = self.pessimistic_after
        if self.transactions:
            payload["transactions"] = self.transactions
        return payload


@dataclass
class SearchTrace:
    """Entry-by-entry record of one branch-and-bound search, as
    :meth:`QueryEngine.explain <repro.core.engine.QueryEngine.explain>`
    builds it; ``termination`` is one of :data:`TERMINATIONS`."""

    query: Dict[str, object] = field(default_factory=dict)
    events: List[EntryEvent] = field(default_factory=list)
    termination: str = "exhausted"

    def __post_init__(self) -> None:
        if self.termination not in TERMINATIONS:
            raise ValueError(f"unknown termination reason {self.termination!r}")

    # ------------------------------------------------------------------
    # Reconciliation with SearchStats
    # ------------------------------------------------------------------
    @property
    def scanned_entries(self) -> int:
        return sum(1 for e in self.events if e.action == "scanned")

    @property
    def pruned_entries(self) -> int:
        return sum(
            e.count for e in self.events
            if e.action in ("pruned", "pruned_tail")
        )

    @property
    def unexplored_entries(self) -> int:
        return sum(e.count for e in self.events if e.action == "unexplored")

    @property
    def transactions_accessed(self) -> int:
        return sum(e.transactions for e in self.events)

    def bound_trajectory(self) -> List[Dict[str, float]]:
        """The (optimistic, pessimistic-after) sequence over scanned entries."""
        return [
            {
                "rank": e.rank,
                "optimistic": e.optimistic,
                "pessimistic": e.pessimistic_after,
            }
            for e in self.events
            if e.action == "scanned"
        ]

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe report (the ``repro explain --output json`` payload)."""
        return {
            "query": dict(self.query),
            "termination": self.termination,
            "entries": {
                "scanned": self.scanned_entries,
                "pruned": self.pruned_entries,
                "unexplored": self.unexplored_entries,
            },
            "transactions_accessed": self.transactions_accessed,
            "events": [e.to_dict() for e in self.events],
        }


_TERMINATION_TEXT = {
    "exhausted": "scanned or pruned every occupied entry",
    "pruned_tail": "optimistic bound fell below the pessimistic bound "
    "(every remaining entry provably worse)",
    "guarantee_tolerance": "best candidate within the requested tolerance "
    "of every unexplored entry's bound",
    "budget": "early-termination transaction budget exhausted",
    "budget_partial_entry": "early-termination budget exhausted inside an "
    "entry (partial scan)",
}


def render_explain(
    trace: SearchTrace, max_events: Optional[int] = None
) -> str:
    """Human-readable explain report for one traced query.

    A k-NN report compares each entry's optimistic bound with the
    pessimistic bound (the k-th best similarity so far); a range report
    compares it with the threshold.
    """
    ranged = trace.query.get("op") == "range"
    limit = "threshold" if ranged else "pess"
    lines: List[str] = []
    if trace.query:
        described = ", ".join(
            f"{key}={value}" for key, value in trace.query.items()
        )
        lines.append(f"query: {described}")
    lines.append(
        f"entries: {trace.scanned_entries} scanned, "
        f"{trace.pruned_entries} pruned, "
        f"{trace.unexplored_entries} unexplored "
        f"({trace.transactions_accessed} transactions accessed)"
    )
    lines.append(
        f"termination: {trace.termination} — "
        f"{_TERMINATION_TEXT.get(trace.termination, trace.termination)}"
    )
    lines.append(
        "scan trace (rank, supercoordinate, optimistic, "
        f"{'threshold' if ranged else 'pessimistic'}, action):"
    )
    events = trace.events
    shown = events if max_events is None else events[:max_events]
    for event in shown:
        code = f"0b{event.code:b}" if event.code is not None else "(tail)"
        opt = _fmt(event.optimistic)
        if event.action == "unexplored":
            lines.append(
                f"  {event.rank:>4d}  {code:<14s} opt={opt:<8s} "
                f"{'':<13s} left {event.count} entries unexplored"
            )
            continue
        if event.action == "scanned":
            bound = event.pessimistic_after
            outcome = f"scanned ({event.transactions} txns)"
        elif event.action == "pruned":
            bound = event.pessimistic_before
            why = "bound below threshold" if ranged else "bound cannot beat k-th best"
            outcome = f"pruned ({why})"
        else:  # pruned_tail, a k-NN scan's
            bound = event.pessimistic_before
            outcome = f"pruned {event.count} remaining entries"
        lines.append(
            f"  {event.rank:>4d}  {code:<14s} opt={opt:<8s} "
            f"{limit}={_fmt(bound):<8s} {outcome}"
        )
    if max_events is not None and len(events) > max_events:
        lines.append(f"  ... {len(events) - max_events} more events")
    return "\n".join(lines)
