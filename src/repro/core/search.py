"""Branch-and-bound similarity search over the signature table (Section 4).

The search follows the paper's Figure 3:

1. For every occupied table entry compute the optimistic bound
   ``Opt(i) = f(M_opt, D_opt)`` (Section 4.1, vectorised in
   :class:`~repro.core.bounds.BoundCalculator`).
2. Sort entries by decreasing ``Opt(i)`` (or, alternatively, by the
   similarity between supercoordinates — the paper's Section 4 variant,
   available via ``sort_by="supercoordinate"``).
3. Scan entries in order, evaluating the objective for every indexed
   transaction and maintaining the best ``k`` candidates found so far; the
   k-th best value is the *pessimistic bound*.
4. Prune any entry whose optimistic bound cannot beat the pessimistic
   bound.  Because entries are sorted by bound, the first pruned entry
   terminates the scan with every remaining entry pruned as well.

Exact (non-early-terminated) queries return the top ``k`` under the
total order ``(-similarity, tid)`` — ties at the k-th boundary are
resolved toward the smallest tid, independent of the table's entry or
storage order.  Layout independence is what lets the live index
(:mod:`repro.live`) answer byte-identically across delta merges and
compactions, and it matches the :class:`~repro.baselines.linear_scan.
LinearScanIndex` ground-truth ordering exactly.

Supported queries (Sections 2.1, 4.2, 4.3): nearest neighbour, k-NN,
early-terminated approximate k-NN with an a-posteriori quality guarantee,
guarantee-tolerance termination, range queries and conjunctive
multi-function range queries.  Multi-target queries are a
:class:`PreparedQuery` whose bounds and similarities are the
:func:`target_aggregator` of the per-target ones; the
:class:`~repro.core.engine.QueryEngine` builds and scans them.

This loop is the reference the packed scans of :mod:`repro.core.kernels`
are tested against.  The engine serves queries and runs the paper's
experiments; the searcher is what the tests, ``repro explain``
(``search_trace=``, ``sort_by=``) and the sort-order and buffer-pool
ablations (``sort_by=``, ``buffer_pool=``) call.

Implementation note (see DESIGN.md): the per-transaction similarities are
computed for the whole database with one vectorised pass when a query
arrives and the scan then *reads* them per entry.  This changes no
measured quantity — transactions accessed, entries scanned or pruned,
pages read, results — and the property tests check the values against a
per-transaction brute force.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.bounds import BoundCalculator
from repro.core.similarity import SimilarityFunction
from repro.core.table import SignatureTable
from repro.data.transaction import TransactionDatabase, as_item_array
from repro.obs.search_trace import SearchTrace
from repro.obs.trace import Tracer, current_tracer
from repro.storage.buffer import BufferPool
from repro.storage.pages import IOCounters
from repro.utils.validation import check_fraction, check_positive

_SORT_MODES = ("optimistic", "supercoordinate")


@dataclass(frozen=True)
class Neighbor:
    """A search result: a transaction id and its similarity to the target."""

    tid: int
    similarity: float

    def __iter__(self):
        # Allows ``tid, sim = neighbor`` unpacking.
        return iter((self.tid, self.similarity))


@dataclass
class SearchStats:
    """Everything the experiments measure about one query.

    ``pruning_efficiency`` is the paper's headline metric: the percentage
    of the database *not* accessed when the algorithm runs to completion.
    """

    total_transactions: int
    transactions_accessed: int = 0
    entries_total: int = 0
    entries_scanned: int = 0
    entries_pruned: int = 0
    entries_unexplored: int = 0
    terminated_early: bool = False
    guaranteed_optimal: bool = True
    best_possible_remaining: float = -math.inf
    # Candidate-tier reporting (repro.sketch).  Exact queries keep the
    # defaults, so equality comparisons across execution paths are
    # unaffected; the lsh tier sets all three and clears
    # ``guaranteed_optimal``.
    candidate_tier: str = "exact"
    estimated_recall: Optional[float] = None
    sketch_candidates: Optional[int] = None
    io: IOCounters = field(default_factory=IOCounters)
    # Wall-clock scan time.  Excluded from equality so the differential
    # tests can keep asserting full-stats identity across execution paths.
    elapsed_seconds: float = field(default=0.0, compare=False)

    @property
    def access_fraction(self) -> float:
        """Fraction of transactions whose objective was evaluated."""
        if self.total_transactions == 0:
            return 0.0
        return self.transactions_accessed / self.total_transactions

    @property
    def pruning_efficiency(self) -> float:
        """Percentage of transactions pruned (paper's Figures 6, 9, 12)."""
        return 100.0 * (1.0 - self.access_fraction)


def record_knn_span(
    tracer: Tracer, started_s: float, k: int, stats: SearchStats
) -> None:
    """Record one finished k-NN query as a ``search.knn`` span, from the
    start time and ``stats.elapsed_seconds`` the scan already took.  The
    scalar loop and the packed kernel both report through here, so a
    trace reads the same whichever ran the query."""
    tracer.record(
        "search.knn",
        started_s,
        started_s + stats.elapsed_seconds,
        k=k,
        entries_scanned=stats.entries_scanned,
        entries_pruned=stats.entries_pruned,
        entries_unexplored=stats.entries_unexplored,
        transactions_accessed=stats.transactions_accessed,
        terminated_early=stats.terminated_early,
        guaranteed_optimal=stats.guaranteed_optimal,
    )


def record_range_span(
    tracer: Tracer, started_s: float, constraints: int, results: int,
    stats: SearchStats,
) -> None:
    """The ``search.range`` counterpart of :func:`record_knn_span`."""
    tracer.record(
        "search.range",
        started_s,
        started_s + stats.elapsed_seconds,
        constraints=constraints,
        entries_scanned=stats.entries_scanned,
        entries_pruned=stats.entries_pruned,
        transactions_accessed=stats.transactions_accessed,
        results=results,
    )


_AGGREGATES = {"mean": np.mean, "min": np.min, "max": np.max}


def target_aggregator(
    aggregate: str,
    num_targets: int,
    weights: Optional[Sequence[float]] = None,
) -> Callable[[np.ndarray], np.ndarray]:
    """The multi-target objective of Section 4.3, as one function.

    The returned callable folds a ``(num_targets, n)`` matrix of
    per-target values (similarities or optimistic bounds) into the ``n``
    aggregated values: their mean, min or max, or — with ``weights``,
    which only ``"mean"`` takes — the weighted mean under the weights
    normalised to sum 1.  Each is monotone in every argument, so the
    aggregate of bounds bounds the aggregate of similarities.  Every
    column is reduced on its own, in target order, so its value does not
    depend on ``n``: the same row scores the same in any database.
    """
    if aggregate not in _AGGREGATES:
        raise ValueError(
            f"aggregate must be 'mean', 'min' or 'max', got {aggregate!r}"
        )
    if weights is None:
        reduce = _AGGREGATES[aggregate]
        return lambda values: reduce(values, axis=0)
    if aggregate != "mean":
        raise ValueError("weights are only supported with aggregate='mean'")
    weight_array = np.asarray(weights, dtype=np.float64)
    if weight_array.shape != (num_targets,):
        raise ValueError(
            f"weights must have one entry per target "
            f"({num_targets}), got shape {weight_array.shape}"
        )
    if np.any(weight_array < 0) or weight_array.sum() <= 0:
        raise ValueError("weights must be non-negative and not all zero")
    weight_array = (weight_array / weight_array.sum())[:, None]
    # Not a matrix product: BLAS may round a column differently with n.
    return lambda values: (weight_array * values).sum(axis=0)


def row_budget(
    early_termination: Optional[float], num_rows: int
) -> Optional[int]:
    """The rows an ``early_termination`` scan may read (Section 4.2): the
    fraction of ``num_rows`` rounded up, at least one; ``None`` (no
    budget) for ``None``."""
    if early_termination is None:
        return None
    check_fraction(early_termination, "early_termination")
    return max(1, int(math.ceil(early_termination * num_rows)))


@dataclass(frozen=True)
class PreparedQuery:
    """Precomputed per-query state injected into the scan loop.

    The batched :class:`~repro.core.engine.QueryEngine` computes bounds,
    scan orders and precomputed similarities for a whole batch at once and
    hands each query's slice to the packed scans of
    :mod:`repro.core.kernels` — or, for an ``early_termination`` batch, to
    :meth:`SignatureTableSearcher.knn` — through this object.  A
    multi-target query is one of these too: ``opts`` and ``sims_all`` are
    the :func:`target_aggregator` of its targets' rows.

    ``order`` is ``None`` for range queries (they scan in entry order).

    ``entry_reads`` is a dict shared by the *whole batch*, lazily mapping
    an entry id to its ``(tids, pages)`` pair.  Entry contents and page
    placement are query-independent, so the first query of a batch to
    scan an entry computes them once and every later query reuses them;
    the I/O counters are still charged per query with increments
    identical to the unshared path (sharing saves recomputation, never
    accounting).

    ``row_sims`` stands in for ``sims_all`` on packed batches whose
    candidate sets bound the rows a scan can read: it
    maps a tid array to those rows' similarities, element-wise equal to
    ``sims_all[tids]``, so nothing is evaluated for rows no scan reaches.
    """

    target_items: np.ndarray
    opts: np.ndarray
    order: Optional[np.ndarray] = None
    sims_all: Optional[np.ndarray] = None
    entry_reads: Optional[dict] = None
    row_sims: Optional[Callable[[np.ndarray], np.ndarray]] = None


@dataclass(frozen=True)
class QueryPlan:
    """The pre-execution view of a query (see ``SignatureTableSearcher.explain``).

    ``top_entries`` lists the first entries the scan would visit as
    ``(supercoordinate, optimistic_bound, entry_size)`` triples.
    """

    target_size: int
    activation_counts: List[int]
    activated_signatures: int
    num_entries: int
    max_bound: float
    median_bound: float
    top_entries: List[Tuple[int, float, int]]

    def __str__(self) -> str:
        lines = [
            f"target: {self.target_size} items, activates "
            f"{self.activated_signatures}/{len(self.activation_counts)} signatures",
            f"occupied entries: {self.num_entries} "
            f"(max bound {self.max_bound:.4f}, median {self.median_bound:.4f})",
            "scan preview (supercoordinate, bound, size):",
        ]
        lines.extend(
            f"  0b{code:b}: bound={bound:.4f}, {size} transactions"
            for code, bound, size in self.top_entries
        )
        return "\n".join(lines)


class SignatureTableSearcher:
    """Query engine over a :class:`SignatureTable` and its database.

    Parameters
    ----------
    table:
        A built signature table.
    db:
        The database the table was built over (TIDs must agree).
    buffer_pool:
        Optional :class:`~repro.storage.buffer.BufferPool` shared across
        queries.  Without one, each query gets its own unbounded page
        cache (pages are never double-charged within a query but nothing
        persists between queries).
    """

    def __init__(
        self,
        table: SignatureTable,
        db: TransactionDatabase,
        buffer_pool: Optional[BufferPool] = None,
    ) -> None:
        if table.num_transactions != len(db):
            raise ValueError(
                f"table indexes {table.num_transactions} transactions but the "
                f"database holds {len(db)}"
            )
        if buffer_pool is not None and buffer_pool.store is not table.store:
            raise ValueError(
                "buffer_pool must wrap the table's own store"
            )
        self.table = table
        self.db = db
        self._buffer_pool = buffer_pool

    @property
    def buffer_pool(self) -> Optional[BufferPool]:
        """The cross-query buffer pool, if one was supplied."""
        return self._buffer_pool

    def _read_tids(self, tids, stats: SearchStats, page_cache: set) -> None:
        """Charge a transaction read to the right cache layer."""
        if self._buffer_pool is not None:
            self._buffer_pool.read(tids, stats.io)
        else:
            self.table.store.read(tids, stats.io, page_cache)

    def _entry_read(self, entry: int, reads: Optional[dict]):
        """The entry's ``(tids, pages)``, via the shared batch cache if any.

        ``pages`` is ``None`` exactly when no cache is in play; callers
        then fall back to :meth:`_read_tids` for I/O accounting.
        """
        if reads is None:
            return self.table.entry_tids(entry), None
        cached = reads.get(entry)
        if cached is None:
            tids = self.table.entry_tids(entry)
            cached = (tids, self.table.store.pages_for(tids).tolist())
            reads[entry] = cached
        return cached

    def _charge_cached_read(
        self, pages: List[int], num_tids: int, stats: SearchStats, page_cache: set
    ) -> None:
        """Charge a read whose page set is already known.

        Produces exactly the counter increments of
        :meth:`PagedStore.read` / :meth:`BufferPool.read` without
        recomputing the page set (``pages`` is sorted, as ``pages_for``
        returns it).
        """
        if self._buffer_pool is not None:
            self._buffer_pool.read_pages(pages, num_tids, stats.io)
            return
        io = stats.io
        io.transactions_read += num_tids
        fresh = [page for page in pages if page not in page_cache]
        if fresh:
            page_cache.update(fresh)
            io.pages_read += len(fresh)
            seeks = 1
            previous = fresh[0]
            for page in fresh[1:]:
                if page - previous > 1:
                    seeks += 1
                previous = page
            io.seeks += seeks

    # ------------------------------------------------------------------
    # Public queries
    # ------------------------------------------------------------------
    def nearest(
        self,
        target: Iterable[int],
        similarity: SimilarityFunction,
        early_termination: Optional[float] = None,
        guarantee_tolerance: Optional[float] = None,
        sort_by: str = "optimistic",
    ) -> Tuple[Optional[Neighbor], SearchStats]:
        """Find the single most similar transaction (Figure 3).

        Returns ``(neighbor, stats)``; ``neighbor`` is ``None`` only for an
        empty database.
        """
        neighbors, stats = self.knn(
            target,
            similarity,
            k=1,
            early_termination=early_termination,
            guarantee_tolerance=guarantee_tolerance,
            sort_by=sort_by,
        )
        return (neighbors[0] if neighbors else None), stats

    def knn(
        self,
        target: Iterable[int],
        similarity: SimilarityFunction,
        k: int = 1,
        early_termination: Optional[float] = None,
        guarantee_tolerance: Optional[float] = None,
        sort_by: str = "optimistic",
        prepared: Optional[PreparedQuery] = None,
        search_trace: Optional[SearchTrace] = None,
        tid_mask: Optional[np.ndarray] = None,
    ) -> Tuple[List[Neighbor], SearchStats]:
        """k-nearest-neighbour search (Section 4.3 generalisation).

        Parameters
        ----------
        k:
            Number of neighbours to return.
        early_termination:
            Fraction of the database after which the scan is cut off
            (Section 4.2); the result is then approximate, and
            ``stats.guaranteed_optimal`` records whether the optimistic
            bounds of the unexplored entries prove it optimal anyway.
        guarantee_tolerance:
            Stop as soon as the best candidate is within this additive
            tolerance of every unexplored entry's optimistic bound — the
            paper's "guarantee on the quality of the presented solution".
        sort_by:
            ``"optimistic"`` (paper default) or ``"supercoordinate"``
            (Section 4's alternative order; bounds still drive pruning).
        prepared:
            Precomputed :class:`PreparedQuery` state (bounds, order,
            similarities), normally supplied by the batched
            :class:`~repro.core.engine.QueryEngine`.  Must have been
            computed for this exact target/similarity/sort order.
        search_trace:
            Optional :class:`~repro.obs.search_trace.SearchTrace` that
            records, entry by entry, why the scan visited or pruned each
            signature-table entry (the query-explain facility).  Tracing
            never changes results or stats — the differential tests pin
            byte-identical output with and without it.
        tid_mask:
            Optional boolean candidate mask over all tids (the sketch
            tier's LSH prefilter).  Only tids with a ``True`` mask value
            are evaluated or charged to I/O; entries whose surviving
            candidate set is empty are skipped without a read.  ``None``
            (the default) leaves the scan byte-identical to the unmasked
            algorithm.
        """
        check_positive(k, "k")
        started_s = time.perf_counter()
        if prepared is not None and prepared.order is not None:
            target_items = prepared.target_items
            opts = prepared.opts
            order = prepared.order
            sims_all = prepared.sims_all
            reads = prepared.entry_reads
        else:
            target_items, bound_sim, opts, order = self._prepare(
                target, similarity, sort_by
            )
            sims_all = self._all_similarities(target_items, bound_sim)
            reads = None
        budget = row_budget(early_termination, len(self.db))
        stats = self._new_stats()
        page_cache: set = set()

        heap: List[Tuple[float, int]] = []  # min-heap of (sim, -tid)
        pessimistic = -math.inf

        # With the default optimistic order the entries are sorted by
        # decreasing bound, so the first prunable entry proves every later
        # entry prunable too and the scan can stop; under the alternative
        # supercoordinate order only the individual entry may be skipped.
        sorted_by_bound = sort_by == "optimistic"

        trace = search_trace
        if trace is not None and not trace.query:
            trace.query = {
                "op": "knn",
                "k": k,
                "target_items": int(target_items.size),
                "sort_by": sort_by,
                "entries_total": int(order.size),
            }

        rank = 0
        num_entries = order.size
        while rank < num_entries:
            entry = int(order[rank])
            opt_entry = float(opts[entry])
            roof = (
                opt_entry
                if sorted_by_bound
                else float(opts[order[rank:]].max())
            )
            # Prune only entries that cannot *reach* the pessimistic bound:
            # an entry whose optimistic bound exactly equals it may still
            # contain a tie with a smaller tid, which the deterministic
            # (-similarity, tid) result order must admit — so equality is
            # scanned, strict inferiority is pruned.
            if len(heap) >= k and opt_entry < pessimistic:
                if sorted_by_bound:
                    # += keeps the entries a candidate mask emptied (and
                    # counted) on the way here.
                    stats.entries_pruned += num_entries - rank
                    if trace is not None:
                        trace.record_prune_tail(
                            rank, num_entries - rank, opt_entry, pessimistic
                        )
                    break
                stats.entries_pruned += 1
                if trace is not None:
                    trace.record_prune(
                        rank,
                        entry,
                        int(self.table.entry_codes[entry]),
                        opt_entry,
                        pessimistic,
                    )
                rank += 1
                continue
            if (
                guarantee_tolerance is not None
                and len(heap) >= k
                and roof - pessimistic <= guarantee_tolerance
            ):
                stats.terminated_early = True
                stats.entries_unexplored = num_entries - rank
                stats.best_possible_remaining = roof
                stats.guaranteed_optimal = roof <= pessimistic
                if trace is not None:
                    trace.record_unexplored(
                        rank, num_entries - rank, "guarantee_tolerance",
                        best_possible=roof, pessimistic=pessimistic,
                    )
                break
            if budget is not None and stats.transactions_accessed >= budget:
                self._record_cutoff(stats, roof, num_entries - rank, pessimistic)
                if trace is not None:
                    trace.record_unexplored(
                        rank, num_entries - rank, "budget",
                        best_possible=roof, pessimistic=pessimistic,
                    )
                break

            tids, entry_pages = self._entry_read(entry, reads)
            if tid_mask is not None:
                tids = tids[tid_mask[tids]]
                # The entry's cached page set covers the *full* entry; the
                # masked subset must be charged through the store instead.
                entry_pages = None
                if tids.size == 0:
                    stats.entries_pruned += 1
                    if trace is not None:
                        trace.record_prune(
                            rank,
                            entry,
                            int(self.table.entry_codes[entry]),
                            opt_entry,
                            pessimistic,
                        )
                    rank += 1
                    continue
            if budget is not None:
                remaining = budget - stats.transactions_accessed
                truncated = tids.size > remaining
                take = tids[:remaining] if truncated else tids
            else:
                truncated = False
                take = tids

            if entry_pages is not None and not truncated:
                self._charge_cached_read(
                    entry_pages, int(take.size), stats, page_cache
                )
            else:
                self._read_tids(take, stats, page_cache)
            stats.transactions_accessed += int(take.size)
            stats.entries_scanned += 1

            pessimistic_before = pessimistic
            self._update_heap(heap, k, sims_all[take], take)
            if len(heap) >= k:
                pessimistic = heap[0][0]
            if trace is not None:
                trace.record_scan(
                    rank,
                    entry,
                    int(self.table.entry_codes[entry]),
                    opt_entry,
                    pessimistic_before,
                    pessimistic,
                    int(take.size),
                )

            if truncated:
                self._record_cutoff(
                    stats, roof, num_entries - rank - 1, pessimistic,
                    partial_entry=True,
                )
                if trace is not None:
                    trace.record_unexplored(
                        rank, num_entries - rank, "budget_partial_entry",
                        best_possible=roof, pessimistic=pessimistic,
                    )
                break
            rank += 1

        neighbors = sorted(
            (Neighbor(tid=-negative_tid, similarity=value) for value, negative_tid in heap),
            key=lambda nb: (-nb.similarity, nb.tid),
        )
        stats.elapsed_seconds = time.perf_counter() - started_s
        tracer = current_tracer()
        if tracer is not None:
            record_knn_span(tracer, started_s, k, stats)
        return neighbors, stats

    def range_query(
        self,
        target: Iterable[int],
        similarity: SimilarityFunction,
        threshold: float,
        tid_mask: Optional[np.ndarray] = None,
    ) -> Tuple[List[Neighbor], SearchStats]:
        """All transactions with similarity >= ``threshold`` (Section 4.3).

        Entries whose optimistic bound falls below the threshold are pruned
        outright; no sorting or pessimistic bound is involved.
        ``tid_mask`` optionally restricts evaluation to the sketch tier's
        LSH candidates (see :meth:`knn`).
        """
        return self.multi_range_query(
            target, [(similarity, threshold)], tid_mask=tid_mask
        )

    def multi_range_query(
        self,
        target: Iterable[int],
        constraints: Sequence[Tuple[SimilarityFunction, float]],
        search_trace: Optional[SearchTrace] = None,
        tid_mask: Optional[np.ndarray] = None,
    ) -> Tuple[List[Neighbor], SearchStats]:
        """Conjunctive range query over several similarity functions.

        Finds all transactions satisfying ``f_i(x, y) >= t_i`` for *every*
        ``(f_i, t_i)`` in ``constraints`` — e.g. "at least p items in
        common and at most q items different" (Section 2.1).  An entry is
        pruned as soon as any single constraint's optimistic bound falls
        below its threshold.

        ``search_trace`` optionally records why each entry was scanned or
        pruned.  ``tid_mask`` optionally restricts evaluation to the
        sketch tier's LSH candidates (see :meth:`knn`).
        """
        if not constraints:
            raise ValueError("constraints must be non-empty")
        started_s = time.perf_counter()
        target_items = as_item_array(target, self.db.universe_size)
        calculator = BoundCalculator(self.table.scheme, target_items)
        bound_sims = [sim.bind(target_items.size) for sim, _ in constraints]
        thresholds = [float(t) for _, t in constraints]

        bits = self.table.bits_matrix
        keep = np.ones(self.table.num_entries_occupied, dtype=bool)
        per_constraint_opts: List[np.ndarray] = []
        for bound_sim, threshold in zip(bound_sims, thresholds):
            opts = calculator.optimistic_similarity(bits, bound_sim)
            per_constraint_opts.append(opts)
            keep &= opts >= threshold

        sims_all_list = [
            self._all_similarities(target_items, bs) for bs in bound_sims
        ]

        stats = self._new_stats()
        stats.entries_pruned = int((~keep).sum())
        trace = search_trace
        if trace is not None:
            if not trace.query:
                trace.query = {
                    "op": "range",
                    "constraints": len(constraints),
                    "thresholds": thresholds,
                    "target_items": int(target_items.size),
                    "entries_total": int(keep.size),
                }
            for position, entry in enumerate(np.nonzero(~keep)[0]):
                entry = int(entry)
                # Explain the prune with the first constraint that failed.
                for index, threshold in enumerate(thresholds):
                    bound = float(per_constraint_opts[index][entry])
                    if bound < threshold:
                        break
                trace.record_prune(
                    position,
                    entry,
                    int(self.table.entry_codes[entry]),
                    bound,
                    threshold,
                )
        page_cache: set = set()
        results: List[Neighbor] = []
        for scan_rank, entry in enumerate(np.nonzero(keep)[0]):
            tids = self.table.entry_tids(int(entry))
            if tid_mask is not None:
                tids = tids[tid_mask[tids]]
                if tids.size == 0:
                    stats.entries_pruned += 1
                    continue
            self._read_tids(tids, stats, page_cache)
            stats.transactions_accessed += int(tids.size)
            stats.entries_scanned += 1
            per_function = [sims_all[tids] for sims_all in sims_all_list]
            satisfied = np.ones(tids.size, dtype=bool)
            for values, threshold in zip(per_function, thresholds):
                satisfied &= values >= threshold
            if trace is not None:
                entry_index = int(entry)
                trace.record_scan(
                    scan_rank,
                    entry_index,
                    int(self.table.entry_codes[entry_index]),
                    float(
                        min(
                            per_constraint_opts[i][entry_index]
                            for i in range(len(thresholds))
                        )
                    ),
                    thresholds[0],
                    thresholds[0],
                    int(tids.size),
                )
            for position in np.nonzero(satisfied)[0]:
                results.append(
                    Neighbor(
                        tid=int(tids[position]),
                        similarity=float(per_function[0][position]),
                    )
                )
        results.sort(key=lambda nb: (-nb.similarity, nb.tid))
        stats.elapsed_seconds = time.perf_counter() - started_s
        tracer = current_tracer()
        if tracer is not None:
            record_range_span(
                tracer, started_s, len(constraints), len(results), stats
            )
        return results, stats

    def explain(
        self,
        target: Iterable[int],
        similarity: SimilarityFunction,
        top: int = 10,
    ) -> "QueryPlan":
        """Describe how a query would be executed, without executing it.

        Returns a :class:`QueryPlan` with the target's activation profile,
        the bound distribution over occupied entries and a preview of the
        scan order — the debugging view for "why is this query slow /
        inaccurate".
        """
        check_positive(top, "top")
        target_items, bound_sim, opts, order = self._prepare(
            target, similarity, "optimistic"
        )
        scheme = self.table.scheme
        counts = scheme.activation_counts(target_items)
        sizes = self.table.entry_sizes
        preview = [
            (
                int(self.table.entry_codes[e]),
                float(opts[e]),
                int(sizes[e]),
            )
            for e in order[:top]
        ]
        return QueryPlan(
            target_size=int(target_items.size),
            activation_counts=counts.tolist(),
            activated_signatures=int(
                (counts >= scheme.activation_threshold).sum()
            ),
            num_entries=int(opts.size),
            max_bound=float(opts.max()) if opts.size else float("-inf"),
            median_bound=float(np.median(opts)) if opts.size else float("-inf"),
            top_entries=preview,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _update_heap(
        heap: List[Tuple[float, int]],
        k: int,
        sims: np.ndarray,
        tids: np.ndarray,
    ) -> None:
        """Fold an entry's candidates into the best-k min-heap.

        Semantics are identical to pushing every (sim, tid) pair in storage
        order with strictly-better replacement, but once the heap is full
        only candidates that actually beat the current k-th best are
        visited (a vectorised pre-filter), which keeps the Python-level
        loop tiny even when an unpruned entry is large.
        """
        sims = np.asarray(sims, dtype=np.float64)
        position = 0
        size = int(sims.size)
        # Fill phase: push until the heap holds k candidates.
        while len(heap) < k and position < size:
            heapq.heappush(
                heap, (float(sims[position]), -int(tids[position]))
            )
            position += 1
        if position >= size:
            return
        remaining_sims = sims[position:]
        remaining_tids = tids[position:]
        # Replacement phase under the total order (similarity, -tid): a
        # candidate displaces the floor when it is strictly more similar
        # *or* ties the floor with a smaller tid.  Tie-aware replacement
        # makes the kept set independent of the scan order — the result
        # is exactly the top k under (-similarity, tid) no matter how the
        # table clusters the data, which is what lets a compacted (or
        # delta-merged) index answer byte-identically to a fresh build.
        # The vectorised prefilter keeps the Python loop to candidates
        # that can possibly matter (similarity >= current floor).
        candidates = np.nonzero(remaining_sims >= heap[0][0])[0]
        for index in candidates:
            value = float(remaining_sims[index])
            entry = (value, -int(remaining_tids[index]))
            if entry > heap[0]:
                heapq.heapreplace(heap, entry)

    def _new_stats(self) -> SearchStats:
        return SearchStats(
            total_transactions=len(self.db),
            entries_total=self.table.num_entries_occupied,
        )

    @staticmethod
    def _record_cutoff(
        stats: SearchStats,
        current_opt: float,
        entries_left: int,
        pessimistic: float,
        partial_entry: bool = False,
    ) -> None:
        """Record an early-termination cutoff and its quality guarantee.

        ``current_opt`` is the maximum optimistic bound over the entries
        not (fully) explored — Section 4.2's ``max over unexplored
        Opt(i)``.  Under the default sort it is simply the bound of the
        entry the scan stopped at.
        """
        stats.terminated_early = True
        stats.entries_unexplored = entries_left + (1 if partial_entry else 0)
        stats.best_possible_remaining = current_opt
        stats.guaranteed_optimal = current_opt <= pessimistic

    def _prepare(
        self,
        target: Iterable[int],
        similarity: SimilarityFunction,
        sort_by: str,
    ) -> Tuple[np.ndarray, SimilarityFunction, np.ndarray, np.ndarray]:
        """Compute bounds and the entry scan order for a query."""
        if sort_by not in _SORT_MODES:
            raise ValueError(
                f"sort_by must be one of {_SORT_MODES}, got {sort_by!r}"
            )
        target_items = as_item_array(target, self.db.universe_size)
        bound_sim = similarity.bind(target_items.size)
        calculator = BoundCalculator(self.table.scheme, target_items)
        bits = self.table.bits_matrix
        opts = calculator.optimistic_similarity(bits, bound_sim)
        if sort_by == "optimistic":
            order = np.argsort(-opts, kind="stable")
        else:
            # Section 4 alternative: order by the similarity between the
            # target's supercoordinate and each entry's supercoordinate,
            # while still pruning with the optimistic bounds.
            scheme = self.table.scheme
            target_bits = scheme.supercoordinate_bits(target_items)
            matches = (bits & target_bits[None, :]).sum(axis=1)
            hamming = (bits ^ target_bits[None, :]).sum(axis=1)
            coordinate_sim = similarity.bind(int(target_bits.sum()) or 1)
            keys = np.asarray(
                coordinate_sim.evaluate(matches, hamming), dtype=np.float64
            )
            order = np.argsort(-keys, kind="stable")
        return target_items, bound_sim, opts, order

    def _all_similarities(
        self, target_items: np.ndarray, bound_sim: SimilarityFunction
    ) -> np.ndarray:
        """Vectorised similarity of the target to every transaction."""
        x = self.db.match_counts(target_items)
        y = self.db.sizes + target_items.size - 2 * x
        return np.asarray(bound_sim.evaluate(x, y), dtype=np.float64)
