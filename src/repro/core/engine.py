"""Batched query engine over the signature table.

The paper evaluates the branch-and-bound search one query at a time; a
production service amortises per-query work over query *batches* (the
standard move in set-similarity indexes, cf. "Subsets and Supermajorities"
and set-similarity joins).  :class:`QueryEngine` executes a batch with

1. **one vectorised optimistic-bound pass** for the whole batch —
   :class:`~repro.core.bounds.BatchBoundCalculator` turns the per-query
   bound computation into two ``(Q, K) @ (K, E)`` matrix products, tightened
   row by row to the summary bound (unless ``bounds="paper"``), and the
   per-query ``argsort`` into a single ``axis=1`` sort; and
2. **one batched similarity precomputation** —
   :meth:`~repro.data.transaction.TransactionDatabase.match_counts_batch`
   walks each distinct item's posting list once per batch instead of once
   per query.

The scan itself is the packed one: the engine hands the whole prepared
batch to :func:`repro.core.kernels.knn_scan_batch` /
:func:`~repro.core.kernels.range_scan_batch`, which take the candidate
sets (the LSH tier's, or explicit ``candidates``) and the guarantee
tolerance as arguments, and record the per-query spans of a traced
batch themselves.  The paper's multi-query forms run there too: a
conjunctive range query (Section 2.1) is one prepared query per
constraint, and a multi-target query (Section 4.3) is one
:class:`~repro.core.search.PreparedQuery` whose bounds and similarities
are the aggregate of its targets' rows.  An ``early_termination`` k-NN
batch is the same scan with a row budget (:func:`~repro.core.search.
row_budget`), so every batch runs on the kernels.  The engine owns its
``(table, db, bounds)``; the scalar
:class:`~repro.core.search.SignatureTableSearcher` is only the reference
it is tested against.  :meth:`QueryEngine.explain` runs
one query on the same kernels and rebuilds ``repro explain``'s
:class:`~repro.obs.search_trace.SearchTrace` from the scan's read list
(:class:`~repro.core.kernels.ScanReads`) and the query's bounds;
:meth:`QueryEngine.replay_reads` charges a read list to a cross-query
:class:`~repro.storage.buffer.BufferPool` (the buffer-pool ablation).
Every measured quantity (results, entries scanned/pruned, transactions
accessed, pages read) is identical to the reference searcher's, which
the differential and property test suites check; all batch-side
arithmetic is integer-exact (see ``BatchBoundCalculator``), so this is a
bit-for-bit guarantee.

Every scan here runs in decreasing-bound order; the supercoordinate
order of the sort-order ablation is a loop of its own in
:mod:`repro.eval.harness`.  Scale-out is the cluster router's job
(:mod:`repro.cluster`), whose scatter-gather merges per-shard answers
with :func:`repro.core.merge.merge_neighbor_lists`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core import kernels
from repro.core.bounds import BatchBoundCalculator
from repro.core.search import (
    Neighbor,
    PreparedQuery,
    SearchStats,
    row_budget,
    target_aggregator,
)
from repro.core.similarity import SimilarityFunction
from repro.core.table import SignatureTable
from repro.data.transaction import TransactionDatabase, as_item_array
from repro.obs.search_trace import EntryEvent, SearchTrace
from repro.obs.trace import span
from repro.storage.buffer import BufferPool
from repro.storage.pages import IOCounters
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class BatchSummary:
    """Aggregate view of a batch's per-query :class:`SearchStats`.

    ``mean_pruning_efficiency`` and ``mean_entries_scanned`` are the
    per-query averages the reports quote; the totals (and the merged
    ``io``) describe the whole batch.  ``guaranteed_optimal`` is ``None``
    for an empty batch — there is no query whose optimality the flag
    could describe — and ``total_transactions`` is the largest per-query
    database size, so mixed-source stats (e.g. collected across a
    growing database) never under-report.
    """

    num_queries: int
    total_transactions: int = 0
    transactions_accessed: int = 0
    entries_scanned: int = 0
    entries_pruned: int = 0
    terminated_early: int = 0
    guaranteed_optimal: Optional[bool] = None
    mean_pruning_efficiency: float = 0.0
    mean_entries_scanned: float = 0.0
    io: IOCounters = field(default_factory=IOCounters)


def summarise_stats(stats: Sequence[SearchStats]) -> BatchSummary:
    """Fold per-query stats into one :class:`BatchSummary`."""
    if not stats:
        return BatchSummary(num_queries=0, guaranteed_optimal=None)
    io = IOCounters()
    for entry in stats:
        io.merge(entry.io)
    return BatchSummary(
        num_queries=len(stats),
        total_transactions=max(s.total_transactions for s in stats),
        transactions_accessed=sum(s.transactions_accessed for s in stats),
        entries_scanned=sum(s.entries_scanned for s in stats),
        entries_pruned=sum(s.entries_pruned for s in stats),
        terminated_early=sum(1 for s in stats if s.terminated_early),
        guaranteed_optimal=all(s.guaranteed_optimal for s in stats),
        mean_pruning_efficiency=float(
            np.mean([s.pruning_efficiency for s in stats])
        ),
        mean_entries_scanned=float(np.mean([s.entries_scanned for s in stats])),
        io=io,
    )


@dataclass(frozen=True)
class BatchKey:
    """Normalised coalescing key for compatible queries.

    Two requests whose keys compare equal can execute in the *same*
    ``knn_batch`` / ``range_query_batch`` call without changing either
    request's results — the key captures every parameter of the batch
    methods that is shared across the whole batch.  The online
    micro-batcher (:mod:`repro.service.batcher`) groups in-flight
    requests by this key; :func:`batch_key` is the only constructor that
    should be used, since it canonicalises the parameter types.

    ``similarity`` is the canonical description string of the similarity
    function (``name:repr``); the accompanying
    :class:`~repro.core.similarity.SimilarityFunction` instance travels
    next to the key (the key itself stays hashable and comparable).
    """

    op: str
    similarity: str
    k: Optional[int] = None
    threshold: Optional[float] = None
    early_termination: Optional[float] = None
    guarantee_tolerance: Optional[float] = None
    # Candidate tier (repro.sketch).  Tier is part of the key, so the
    # micro-batcher can never coalesce an lsh request into an exact batch
    # (or requests with different recall targets into one another).
    candidate_tier: str = "exact"
    target_recall: Optional[float] = None


#: Operations a :class:`BatchKey` can describe.
BATCH_OPS = ("knn", "range")

#: Candidate tiers a :class:`BatchKey` can select.
CANDIDATE_TIERS = ("exact", "lsh")


def _canonical_tier(
    candidate_tier: str, target_recall: Optional[float]
) -> Tuple[str, Optional[float]]:
    """Validate and canonicalise the (tier, recall) pair of a key.

    ``target_recall`` only applies to the lsh tier; an unset recall under
    lsh is pinned to :data:`repro.sketch.DEFAULT_TARGET_RECALL` so that
    requests relying on the default coalesce with requests spelling it
    out.
    """
    if candidate_tier not in CANDIDATE_TIERS:
        raise ValueError(
            f"candidate_tier must be one of {CANDIDATE_TIERS}, "
            f"got {candidate_tier!r}"
        )
    if candidate_tier == "exact":
        if target_recall is not None:
            raise ValueError(
                "target_recall only applies to candidate_tier='lsh'"
            )
        return "exact", None
    from repro.sketch import DEFAULT_TARGET_RECALL

    recall = (
        DEFAULT_TARGET_RECALL if target_recall is None else float(target_recall)
    )
    if not 0.0 < recall <= 1.0:
        raise ValueError(f"target_recall must be in (0, 1], got {recall}")
    return "lsh", recall


def similarity_key(similarity: SimilarityFunction) -> str:
    """Canonical description of a similarity function for coalescing.

    Two functions with equal keys are behaviourally identical (same class,
    same constructor arguments), so their queries may share one batch.
    """
    return f"{similarity.name}:{similarity!r}"


def check_batch_similarity(key: BatchKey, similarity: SimilarityFunction) -> None:
    """Raise ``ValueError`` unless ``similarity`` is the function ``key``
    describes — the key is hashable metadata, the instance does the
    arithmetic."""
    if similarity_key(similarity) != key.similarity:
        raise ValueError(
            f"similarity {similarity_key(similarity)!r} does not match "
            f"batch key {key.similarity!r}"
        )


def dispatch_batch(
    index,
    key: BatchKey,
    similarity: SimilarityFunction,
    targets: Sequence[Iterable[int]],
) -> Tuple[List[List[Neighbor]], List[SearchStats]]:
    """Run one coalesced batch on ``index``'s ``knn_batch`` /
    ``range_query_batch`` with the parameters ``key`` carries: the one
    mapping from a :class:`BatchKey` to the batch methods, behind
    :meth:`QueryEngine.run_batch` and
    :meth:`LiveIndex.run_batch <repro.live.index.LiveIndex.run_batch>`."""
    tier = dict(candidate_tier=key.candidate_tier, target_recall=key.target_recall)
    if key.op == "knn":
        return index.knn_batch(
            targets,
            similarity,
            k=key.k,
            early_termination=key.early_termination,
            guarantee_tolerance=key.guarantee_tolerance,
            **tier,
        )
    return index.range_query_batch(targets, similarity, key.threshold, **tier)


def batch_key(
    op: str,
    similarity: SimilarityFunction,
    k: Optional[int] = None,
    threshold: Optional[float] = None,
    early_termination: Optional[float] = None,
    guarantee_tolerance: Optional[float] = None,
    candidate_tier: str = "exact",
    target_recall: Optional[float] = None,
) -> BatchKey:
    """Build the normalised :class:`BatchKey` for one request.

    Parameters are canonicalised (``k`` to ``int``, thresholds to
    ``float``) so that e.g. ``k=5`` and ``k=5.0`` coalesce; parameters
    that do not apply to ``op`` are rejected rather than silently
    dropped, because a client passing them expects per-request effect.
    """
    if op not in BATCH_OPS:
        raise ValueError(f"op must be one of {BATCH_OPS}, got {op!r}")
    candidate_tier, target_recall = _canonical_tier(candidate_tier, target_recall)
    if op == "knn":
        if threshold is not None:
            raise ValueError("threshold only applies to op='range'")
        k = 1 if k is None else int(k)
        check_positive(k, "k")
        return BatchKey(
            op="knn",
            similarity=similarity_key(similarity),
            k=k,
            early_termination=(
                None if early_termination is None else float(early_termination)
            ),
            guarantee_tolerance=(
                None
                if guarantee_tolerance is None
                else float(guarantee_tolerance)
            ),
            candidate_tier=candidate_tier,
            target_recall=target_recall,
        )
    if threshold is None:
        raise ValueError("op='range' requires a threshold")
    for name, value in (
        ("k", k),
        ("early_termination", early_termination),
        ("guarantee_tolerance", guarantee_tolerance),
    ):
        if value is not None:
            raise ValueError(f"{name} does not apply to op='range'")
    return BatchKey(
        op="range", similarity=similarity_key(similarity),
        threshold=float(threshold),
        candidate_tier=candidate_tier, target_recall=target_recall,
    )


class ExplainedQuery(NamedTuple):
    """One query's answer with its scan record (:meth:`QueryEngine.explain`)."""

    results: List[Neighbor]
    stats: SearchStats
    trace: SearchTrace
    reads: kernels.ScanReads


class QueryEngine:
    """Batched execution of similarity queries over a signature table
    and the database ``db`` it was built over, bounding each entry with
    the summary bound (``bounds="summary"``) or the paper's alone
    (``"paper"``).

    All batch methods return ``(results, stats)`` lists indexed by query
    position, each element exactly the single-query call of the reference
    :class:`~repro.core.search.SignatureTableSearcher` over the same
    ``(table, db, bounds)``.
    """

    def __init__(
        self, table: SignatureTable, db: TransactionDatabase,
        bounds: str = "summary",
    ) -> None:
        if table.num_transactions != len(db):
            raise ValueError(
                f"table indexes {table.num_transactions} transactions but the "
                f"database holds {len(db)}"
            )
        if bounds not in ("summary", "paper"):
            raise ValueError(f"bounds must be 'summary' or 'paper', got {bounds!r}")
        self.table = table
        self.db = db
        self.bounds = bounds
        self._sketch_candidates_counter = None
        self._sketch_access_histogram = None

    @classmethod
    def for_table(
        cls, table: SignatureTable, db: TransactionDatabase, bounds="summary"
    ) -> "QueryEngine":
        """The constructor under its older name."""
        return cls(table, db, bounds)

    # ------------------------------------------------------------------
    @property
    def universe_size(self) -> int:
        """Targets may name items in ``[0, universe_size)`` only."""
        return self.db.universe_size

    @property
    def sketch(self):
        """The :class:`~repro.sketch.SketchIndex` attached to the table,
        or ``None`` when the table carries no sketch column."""
        return getattr(self.table, "sketch", None)

    @property
    def supports_lsh_tier(self) -> bool:
        """Whether ``candidate_tier="lsh"`` requests can be served."""
        return self.sketch is not None

    def bind_metrics(self, registry) -> None:
        """Account the sketch tier in ``registry``.

        The service server binds its registry here at startup; every
        ``candidate_tier="lsh"`` batch then adds its probes' candidates
        to ``repro_sketch_candidates_total{op}`` and observes each
        query's access fraction in ``repro_sketch_access_fraction``.
        """
        self._sketch_candidates_counter = registry.counter(
            "repro_sketch_candidates_total",
            "Candidate tids returned by sketch-tier LSH probes, by op",
            labelnames=("op",),
        )
        self._sketch_access_histogram = registry.histogram(
            "repro_sketch_access_fraction",
            "Achieved per-query access fraction under the sketch tier",
            buckets=(0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0),
        )

    # ------------------------------------------------------------------
    # Public batch queries
    # ------------------------------------------------------------------
    def knn_batch(
        self,
        targets: Sequence[Iterable[int]],
        similarity: SimilarityFunction,
        k: int = 1,
        early_termination: Optional[float] = None,
        guarantee_tolerance: Optional[float] = None,
        candidate_tier: str = "exact",
        target_recall: Optional[float] = None,
        candidates: Optional[np.ndarray] = None,
    ) -> Tuple[List[List[Neighbor]], List[SearchStats]]:
        """k-NN for every target in the batch.

        Semantics per query are exactly those of the reference
        :meth:`~repro.core.search.SignatureTableSearcher.knn` (including
        early termination, whose row budget the packed scan enforces, and
        the a-posteriori guarantee); only the preparation is amortised.
        ``candidate_tier="lsh"`` prefixes each query with an LSH probe of
        the table's sketch index and restricts the branch-and-bound scan
        to the returned candidates — approximate, with the estimated
        recall reported on each query's stats.  ``candidates`` (a boolean
        mask over all tids, a unique-tid array, or one boolean mask per
        target stacked as a ``(len(targets), N)`` matrix) restricts the
        queries to those rows instead (the searcher's ``tid_mask``).
        """
        check_positive(k, "k")
        candidate_tier, target_recall = self._canonical_candidates(
            candidate_tier, target_recall, candidates, len(targets)
        )
        target_arrays = self._normalise(targets)
        if not target_arrays:
            return [], []
        probes, per_query = self._candidate_rows(
            target_arrays, candidate_tier, target_recall, candidates, op="knn"
        )
        readable = self._readable_rows(per_query)
        with span("engine.prepare_batch", batch_size=len(target_arrays)):
            prepared = self._prepare_batch(
                target_arrays, similarity, ordered=True, readable_rows=readable
            )
        results, stats, _ = kernels.knn_scan_batch(
            self.table,
            len(self.db),
            prepared,
            k,
            candidates=per_query,
            budget=row_budget(early_termination, len(self.db)),
            tolerance=guarantee_tolerance,
        )
        if probes is not None:
            for neighbors, query_stats, probe in zip(results, stats, probes):
                self._finish_sketch_stats(
                    query_stats, probe, neighbors[-1].tid if neighbors else None
                )
        return results, stats

    def nearest_batch(
        self,
        targets: Sequence[Iterable[int]],
        similarity: SimilarityFunction,
        early_termination: Optional[float] = None,
        guarantee_tolerance: Optional[float] = None,
    ) -> Tuple[List[Optional[Neighbor]], List[SearchStats]]:
        """Single nearest neighbour for every target in the batch."""
        lists, stats = self.knn_batch(
            targets,
            similarity,
            k=1,
            early_termination=early_termination,
            guarantee_tolerance=guarantee_tolerance,
        )
        return [(hits[0] if hits else None) for hits in lists], stats

    def range_query_batch(
        self,
        targets: Sequence[Iterable[int]],
        similarity: SimilarityFunction,
        threshold: float,
        candidate_tier: str = "exact",
        target_recall: Optional[float] = None,
        candidates: Optional[np.ndarray] = None,
    ) -> Tuple[List[List[Neighbor]], List[SearchStats]]:
        """Range query (similarity >= threshold) for every target.

        ``candidate_tier="lsh"`` restricts each scan to the sketch tier's
        LSH candidates and ``candidates`` to the given rows (see
        :meth:`knn_batch`).
        """
        candidate_tier, target_recall = self._canonical_candidates(
            candidate_tier, target_recall, candidates, len(targets)
        )
        target_arrays = self._normalise(targets)
        if not target_arrays:
            return [], []
        threshold = float(threshold)
        probes, per_query = self._candidate_rows(
            target_arrays, candidate_tier, target_recall, candidates, op="range"
        )
        with span("engine.prepare_batch", batch_size=len(target_arrays)):
            prepared = self._prepare_batch(
                target_arrays,
                similarity,
                ordered=False,
                readable_rows=self._readable_rows(per_query),
            )
        results, stats, _ = kernels.range_scan_batch(
            self.table,
            len(self.db),
            [[prep] for prep in prepared],
            [threshold],
            candidates=per_query,
        )
        if probes is not None:
            for query_stats, probe in zip(stats, probes):
                self._finish_sketch_stats(query_stats, probe, None)
        return results, stats

    # ------------------------------------------------------------------
    # Multi-constraint and multi-target queries (Sections 2.1, 4.3)
    # ------------------------------------------------------------------
    def multi_range_query(
        self,
        target: Iterable[int],
        constraints: Sequence[Tuple[SimilarityFunction, float]],
    ) -> Tuple[List[Neighbor], SearchStats]:
        """Conjunctive range query over several similarity functions.

        All transactions meeting ``f_i(x, y) >= t_i`` for *every*
        ``(f_i, t_i)`` in ``constraints`` — e.g. "at least p items in
        common and at most q items different" (Section 2.1) — sorted by
        ``(-f_0, tid)``.  One prepared query per constraint; the range
        scan prunes an entry as soon as any constraint's optimistic bound
        falls below its threshold.
        """
        if not constraints:
            raise ValueError("constraints must be non-empty")
        target_arrays = self._normalise([target])
        prepared = [
            self._prepare_batch(target_arrays, similarity, ordered=False)[0]
            for similarity, _ in constraints
        ]
        (results,), (stats,), _ = kernels.range_scan_batch(
            self.table,
            len(self.db),
            [prepared],
            [threshold for _, threshold in constraints],
        )
        return results, stats

    def multi_target_knn(
        self,
        targets: Sequence[Iterable[int]],
        similarity: SimilarityFunction,
        k: int = 1,
        aggregate: str = "mean",
        early_termination: Optional[float] = None,
        weights: Optional[Sequence[float]] = None,
    ) -> Tuple[List[Neighbor], SearchStats]:
        """k-NN under an aggregate of similarities to several targets.

        The paper's multi-target extension (Section 4.3): a transaction
        scores the mean (or min / max, or with ``weights`` the weighted
        mean) of its similarities to the targets, and an entry's bound is
        the same aggregate of its per-target bounds (see
        :func:`~repro.core.search.target_aggregator`).  The k-NN scan runs
        over that one aggregated query; ``early_termination`` is its row
        budget, as in :meth:`knn_batch`.
        """
        check_positive(k, "k")
        prepared = self._aggregated_query(
            targets, similarity, aggregate, weights, ordered=True
        )
        (neighbors,), (stats,), _ = kernels.knn_scan_batch(
            self.table,
            len(self.db),
            [prepared],
            k,
            budget=row_budget(early_termination, len(self.db)),
        )
        return neighbors, stats

    def multi_target_range_query(
        self,
        targets: Sequence[Iterable[int]],
        similarity: SimilarityFunction,
        threshold: float,
        aggregate: str = "mean",
    ) -> Tuple[List[Neighbor], SearchStats]:
        """All transactions whose aggregate similarity to the targets is at
        least ``threshold`` (multiple targets *and* a range predicate, the
        remaining Section 4.3 combination), sorted by
        ``(-aggregate, tid)``; entries whose aggregated bound falls below
        the threshold are pruned."""
        prepared = self._aggregated_query(
            targets, similarity, aggregate, None, ordered=False
        )
        (results,), (stats,), _ = kernels.range_scan_batch(
            self.table,
            len(self.db),
            [[prepared]],
            [threshold],
        )
        return results, stats

    def run_batch(
        self,
        key: BatchKey,
        similarity: SimilarityFunction,
        targets: Sequence[Iterable[int]],
    ) -> Tuple[List[List[Neighbor]], List[SearchStats]]:
        """Execute one coalesced batch described by a :class:`BatchKey`.

        ``similarity`` must be the instance whose
        :func:`similarity_key` equals ``key.similarity`` — the key is
        hashable metadata, the instance does the arithmetic.  This is the
        engine-side hook the online micro-batcher dispatches through, so
        coalesced service traffic runs the exact batch methods the
        differential tests pin down.
        """
        check_batch_similarity(key, similarity)
        with span("engine.run_batch", op=key.op, batch_size=len(targets)):
            return dispatch_batch(self, key, similarity, targets)

    # ------------------------------------------------------------------
    # Explain and buffer-pool replay
    # ------------------------------------------------------------------
    def explain(
        self,
        target: Iterable[int],
        similarity: SimilarityFunction,
        k: int = 1,
        early_termination: Optional[float] = None,
        guarantee_tolerance: Optional[float] = None,
        threshold: Optional[float] = None,
    ) -> ExplainedQuery:
        """Run one query on the packed scan and explain it entry by entry.

        A k-NN query, or with ``threshold`` a range query.  Results and
        stats are those :meth:`knn_batch` / :meth:`range_query_batch`
        return for the same query.  The :class:`SearchTrace` is rebuilt
        from the scan's read list and the query's bounds: every entry
        read, in scan order, with its optimistic bound and the
        pessimistic bound (the k-th best similarity of the rows read so
        far) before and after it, then the tail the scan left and why.
        A range query lists its pruned entries, then its scanned ones,
        each against the threshold.
        """
        ordered = threshold is None
        if ordered:
            check_positive(k, "k")
        table = self.table
        db_size = len(self.db)
        (prep,) = self._prepare_batch(
            self._normalise([target]), similarity, ordered=ordered
        )
        if ordered:
            (results,), (stats,), (reads,) = kernels.knn_scan_batch(
                table, db_size, [prep], k,
                budget=row_budget(early_termination, db_size),
                tolerance=guarantee_tolerance,
            )
            trace = self._knn_trace(prep, k, reads, stats, guarantee_tolerance)
        else:
            threshold = float(threshold)
            (results,), (stats,), (reads,) = kernels.range_scan_batch(
                table, db_size, [[prep]], [threshold]
            )
            trace = self._range_trace(prep, threshold, reads)
        return ExplainedQuery(results, stats, trace, reads)

    def replay_reads(
        self, reads: kernels.ScanReads, pool: BufferPool
    ) -> IOCounters:
        """Charge one scan's read list to a cross-query buffer pool.

        Entry by entry in scan order, each entry's rows go through
        :meth:`BufferPool.read`, so misses are charged and the pool keeps
        its recency across queries.  ``reads`` is an unrestricted scan's
        (no candidate rows).  Returns the query's I/O counters.
        """
        table = self.table
        if pool.store is not table.store:
            raise ValueError("the pool must wrap the table's own store")
        io = IOCounters()
        for entry, rows in zip(reads.entries.tolist(), reads.rows.tolist()):
            if rows:
                pool.read(table.entry_tids(entry)[:rows], io)
        return io

    def _event(
        self, action: str, rank: int, entry: int, opts: np.ndarray, **fields
    ) -> EntryEvent:
        """One entry's event, with its supercoordinate and bound."""
        return EntryEvent(
            action=action,
            rank=rank,
            entry=entry,
            code=int(self.table.entry_codes[entry]),
            optimistic=float(opts[entry]),
            **fields,
        )

    def _knn_trace(
        self,
        prep: PreparedQuery,
        k: int,
        reads: kernels.ScanReads,
        stats: SearchStats,
        tolerance: Optional[float],
    ) -> SearchTrace:
        table = self.table
        order, opts = prep.order, prep.opts
        num_entries = int(order.size)
        events: List[EntryEvent] = []
        best = np.empty(0, dtype=np.float64)  # top k of the rows read so far
        pessimistic = -math.inf
        for rank, (entry, rows) in enumerate(
            zip(reads.entries.tolist(), reads.rows.tolist())
        ):
            tids = table.entry_tids(entry)[:rows]
            best = np.concatenate((best, prep.sims_all[tids]))
            before = pessimistic
            if best.size >= k:
                best = np.partition(best, best.size - k)[best.size - k:]
                pessimistic = float(best[0])
            events.append(self._event(
                "scanned", rank, entry, opts, pessimistic_before=before,
                pessimistic_after=pessimistic, transactions=rows,
            ))
        ranks = len(events)
        termination = "exhausted"
        if stats.terminated_early:
            # A budget that ran out inside an entry leaves it unexplored too.
            rank = num_entries - stats.entries_unexplored
            if rank < ranks:
                termination = "budget_partial_entry"
            elif (
                tolerance is not None
                and stats.best_possible_remaining - pessimistic <= tolerance
            ):
                termination = "guarantee_tolerance"
            else:
                termination = "budget"
            events.append(EntryEvent(
                action="unexplored", rank=rank, count=num_entries - rank,
                optimistic=stats.best_possible_remaining,
                pessimistic_before=pessimistic,
            ))
        elif ranks < num_entries:
            termination = "pruned_tail"
            events.append(EntryEvent(
                action="pruned_tail", rank=ranks, count=num_entries - ranks,
                optimistic=float(opts[order[ranks]]),
                pessimistic_before=pessimistic,
            ))
        query = {
            "op": "knn",
            "k": k,
            "target_items": int(prep.target_items.size),
            "entries_total": num_entries,
        }
        return SearchTrace(query=query, events=events, termination=termination)

    def _range_trace(
        self, prep: PreparedQuery, threshold: float, reads: kernels.ScanReads
    ) -> SearchTrace:
        opts = prep.opts
        scanned = np.zeros(opts.size, dtype=bool)
        scanned[reads.entries] = True
        events = [
            self._event("pruned", rank, entry, opts, pessimistic_before=threshold)
            for rank, entry in enumerate(np.flatnonzero(~scanned).tolist())
        ]
        events += [
            self._event(
                "scanned", rank, entry, opts, pessimistic_before=threshold,
                pessimistic_after=threshold, transactions=rows,
            )
            for rank, (entry, rows) in enumerate(
                zip(reads.entries.tolist(), reads.rows.tolist())
            )
        ]
        query = {
            "op": "range",
            "constraints": 1,
            "thresholds": [threshold],
            "target_items": int(prep.target_items.size),
            "entries_total": int(opts.size),
        }
        return SearchTrace(query=query, events=events)

    # ------------------------------------------------------------------
    # Batch preparation
    # ------------------------------------------------------------------
    def _normalise(
        self, targets: Sequence[Iterable[int]]
    ) -> List[np.ndarray]:
        return [as_item_array(t, self.universe_size) for t in targets]

    def _batch_similarities(
        self,
        target_arrays: Sequence[np.ndarray],
        bound_sims: Sequence[SimilarityFunction],
    ) -> List[np.ndarray]:
        """Whole-database similarities per query.

        Each row of similarities overwrites the row of match counts it is
        computed from (both are 8-byte values), so a batch holds one
        ``(Q, N)`` buffer, not two — 0.64 GB fewer for 100 queries over
        800 000 rows.
        """
        db = self.db
        matches = db.match_counts_batch(target_arrays)
        sims = matches.view(np.float64)
        for q, (items, bound_sim) in enumerate(zip(target_arrays, bound_sims)):
            x = matches[q]
            sims[q] = bound_sim.evaluate(x, db.sizes + items.size - 2 * x)
        return list(sims)

    def _row_similarities(
        self,
        target_arrays: Sequence[np.ndarray],
        bound_sims: Sequence[SimilarityFunction],
    ) -> list:
        """Per query, a function from tids to those rows' similarities.

        AND + popcount over the gathered packed rows: element for
        element the values :meth:`_batch_similarities` holds at those
        tids (the same integer match counts feed the same ``evaluate``).
        """
        db = self.db
        rows = db.packed_rows()
        sizes = db.sizes
        packed_targets = kernels.pack_rows(target_arrays, db.universe_size)

        def bind(q: int):
            packed_target = packed_targets[q]
            target_size = target_arrays[q].size
            bound_sim = bound_sims[q]

            def row_sims(tids: np.ndarray) -> np.ndarray:
                x = kernels.intersection_counts(rows[tids], packed_target)
                y = sizes[tids] + target_size - 2 * x
                return np.asarray(bound_sim.evaluate(x, y), dtype=np.float64)

            return row_sims

        return [bind(q) for q in range(len(target_arrays))]

    def _prepare_batch(
        self,
        target_arrays: Sequence[np.ndarray],
        similarity: SimilarityFunction,
        ordered: bool,
        readable_rows: Optional[int] = None,
    ) -> List[PreparedQuery]:
        """The amortised bound pass: one ``(Q, E)`` matrix for the batch.

        ``ordered=False`` skips the decreasing-bound ordering (range
        queries scan in entry order).  ``readable_rows`` bounds the rows
        the batch's packed scans can read between them (their candidate
        sets); when evaluating that many rows on demand is cheaper than every
        row of the database, queries carry ``row_sims`` instead of
        ``sims_all``.
        """
        scheme = self.table.scheme
        bits = self.table.bits_matrix
        bound_sims = [similarity.bind(t.size) for t in target_arrays]
        with span("engine.bound_matrix", entries=int(bits.shape[0])):
            summary = self.table.summary(self.db) if self.bounds == "summary" else None
            calculator = BatchBoundCalculator(
                scheme,
                target_arrays,
                activation_counts=kernels.batch_activation_counts(
                    scheme, target_arrays
                ),
            )
            opts = calculator.optimistic_similarity(bits, bound_sims, summary)
        orders: List[Optional[np.ndarray]]
        if ordered:
            order_matrix = np.argsort(-opts, axis=1, kind="stable")
            orders = [order_matrix[q] for q in range(len(target_arrays))]
        else:
            orders = [None] * len(target_arrays)
        sims: Sequence[Optional[np.ndarray]] = [None] * len(target_arrays)
        row_sims: Sequence = sims
        with span("engine.precompute_sims"):
            if readable_rows is not None and self.db.gathered_rows_win(
                target_arrays, readable_rows
            ):
                row_sims = self._row_similarities(target_arrays, bound_sims)
            else:
                sims = self._batch_similarities(target_arrays, bound_sims)
        return [
            PreparedQuery(
                target_items=target_arrays[q],
                opts=opts[q],
                order=orders[q],
                sims_all=sims[q],
                row_sims=row_sims[q],
            )
            for q in range(len(target_arrays))
        ]

    def _aggregated_query(
        self,
        targets: Sequence[Iterable[int]],
        similarity: SimilarityFunction,
        aggregate: str,
        weights: Optional[Sequence[float]],
        ordered: bool,
    ) -> PreparedQuery:
        """One prepared query for a multi-target objective: the targets'
        bounds and whole-database similarities from one prepared batch,
        each folded by :func:`~repro.core.search.target_aggregator`, and
        (``ordered``) the stable decreasing-bound order of the folded
        bounds."""
        if not targets:
            raise ValueError("targets must be non-empty")
        aggregator = target_aggregator(aggregate, len(targets), weights)
        target_arrays = self._normalise(targets)
        per_target = self._prepare_batch(target_arrays, similarity, ordered=False)
        opts = aggregator(np.stack([prep.opts for prep in per_target]))
        return PreparedQuery(
            target_items=np.unique(np.concatenate(target_arrays)),
            opts=opts,
            order=np.argsort(-opts, kind="stable") if ordered else None,
            sims_all=aggregator(np.stack([prep.sims_all for prep in per_target])),
        )

    # ------------------------------------------------------------------
    # Sketch tier helpers
    # ------------------------------------------------------------------
    def _require_sketch(self):
        sketch = self.sketch
        if sketch is None:
            raise ValueError(
                "candidate_tier='lsh' requires a sketch index attached to "
                "the signature table (build one with `repro sketch build` "
                "or SketchIndex.build + table.attach_sketch)"
            )
        return sketch

    def _canonical_candidates(
        self,
        candidate_tier: str,
        target_recall: Optional[float],
        candidates: Optional[np.ndarray],
        num_queries: int,
    ) -> Tuple[str, Optional[float]]:
        """Validate a batch's tier and explicit candidate rows."""
        candidate_tier, target_recall = _canonical_tier(
            candidate_tier, target_recall
        )
        if candidate_tier == "lsh":
            self._require_sketch()
            if candidates is not None:
                raise ValueError(
                    "candidates cannot be combined with candidate_tier='lsh'"
                )
        if candidates is not None:
            total = len(self.db)
            rows = np.asarray(candidates)
            if rows.dtype == np.bool_:
                valid = rows.shape in ((total,), (num_queries, total))
            else:
                valid = (
                    rows.ndim == 1
                    and np.issubdtype(rows.dtype, np.integer)
                    and (rows.size == 0 or (rows.min() >= 0 and rows.max() < total))
                    and np.unique(rows).size == rows.size
                )
            if not valid:
                raise ValueError(
                    f"candidates must be a boolean mask of shape ({total},) "
                    f"or ({num_queries}, {total}), or an array of distinct "
                    f"tids in [0, {total})"
                )
        return candidate_tier, target_recall

    def _probe_batch(
        self, target_arrays: Sequence[np.ndarray], target_recall: Optional[float],
        op: str,
    ) -> list:
        """One LSH probe per query of the batch (signed in one pass)."""
        probes = self._require_sketch().probe_batch(target_arrays, target_recall)
        if self._sketch_candidates_counter is not None:
            candidates = sum(int(p.candidates.size) for p in probes)
            self._sketch_candidates_counter.labels(op=op).inc(candidates)
        return probes

    @staticmethod
    def _readable_rows(
        per_query: Optional[Sequence[np.ndarray]],
    ) -> Optional[int]:
        """Rows the batch's scans can read between them, when candidate
        sets bound that below the whole database."""
        if per_query is None:
            return None
        return sum(
            int(np.count_nonzero(rows)) if rows.dtype == np.bool_ else int(rows.size)
            for rows in per_query
        )

    def _candidate_rows(
        self,
        target_arrays: Sequence[np.ndarray],
        candidate_tier: str,
        target_recall: Optional[float],
        candidates: Optional[np.ndarray],
        op: str,
    ) -> Tuple[Optional[list], Optional[List[np.ndarray]]]:
        """``(probes, per-query candidate rows)`` of one batch; both
        ``None`` when every row is a candidate."""
        if candidate_tier == "lsh":
            probes = self._probe_batch(target_arrays, target_recall, op=op)
            return probes, [probe.candidates for probe in probes]
        if candidates is None:
            return None, None
        rows = np.asarray(candidates)
        if rows.ndim == 2:
            return None, list(rows)
        return None, [rows] * len(target_arrays)

    def _finish_sketch_stats(
        self, stats: SearchStats, probe, kth_tid: Optional[int]
    ) -> None:
        """Stamp the lossy-tier quality report onto one query's stats."""
        stats.candidate_tier = "lsh"
        stats.guaranteed_optimal = False
        stats.sketch_candidates = int(probe.candidates.size)
        stats.estimated_recall = self.sketch.estimate_result_recall(
            probe, kth_tid
        )
        if self._sketch_access_histogram is not None:
            self._sketch_access_histogram.observe(stats.access_fraction)
