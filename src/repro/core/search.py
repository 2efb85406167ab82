"""Branch-and-bound similarity search over the signature table (Section 4).

The search follows the paper's Figure 3:

1. For every occupied table entry compute the optimistic bound
   ``Opt(i) = f(M_opt, D_opt)`` (Section 4.1, vectorised in
   :class:`~repro.core.bounds.BatchBoundCalculator`), tightened by
   default to the summary bound ``f(m, d)`` of :class:`~repro.core.bounds.
   EntrySummary`; ``bounds="paper"`` keeps the bits-only bound.
2. Sort entries by decreasing ``Opt(i)``.
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
are tested against.  The :class:`~repro.core.engine.QueryEngine` serves
queries, runs the paper's experiments and answers ``repro explain``;
the sort-order ablation's supercoordinate order is a loop of its own in
:mod:`repro.eval.harness`.  Each query gets its own page cache.

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

from repro.core.bounds import BatchBoundCalculator
from repro.core.similarity import SimilarityFunction
from repro.core.table import SignatureTable
from repro.data.transaction import TransactionDatabase, as_item_array
from repro.obs.trace import Tracer, current_tracer
from repro.storage.pages import IOCounters
from repro.utils.validation import check_fraction, check_positive

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
    """Precomputed per-query state for the packed scans.

    The batched :class:`~repro.core.engine.QueryEngine` computes bounds,
    scan orders and precomputed similarities for a whole batch at once and
    hands each query's slice to the packed scans of
    :mod:`repro.core.kernels` through this object, an ``early_termination``
    batch included.  A multi-target query is one of these too: ``opts``
    and ``sims_all`` are the :func:`target_aggregator` of its targets'
    rows.

    ``order`` is ``None`` for range queries (they scan in entry order).

    ``row_sims`` stands in for ``sims_all`` on packed batches whose
    candidate sets bound the rows a scan can read: it
    maps a tid array to those rows' similarities, element-wise equal to
    ``sims_all[tids]``, so nothing is evaluated for rows no scan reaches.
    """

    target_items: np.ndarray
    opts: np.ndarray
    order: Optional[np.ndarray] = None
    sims_all: Optional[np.ndarray] = None
    row_sims: Optional[Callable[[np.ndarray], np.ndarray]] = None


class SignatureTableSearcher:
    """Query engine over a :class:`SignatureTable` and its database.

    Parameters
    ----------
    table:
        A built signature table.
    db:
        The database the table was built over (TIDs must agree).
    bounds:
        ``"summary"`` (default) bounds each entry with the summary bound,
        ``"paper"`` with the paper's ``f(M_opt, D_opt)`` alone.
    """

    def __init__(self, table: SignatureTable, db: TransactionDatabase,
                 bounds: str = "summary") -> None:
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

    # ------------------------------------------------------------------
    # Public queries
    # ------------------------------------------------------------------
    def nearest(
        self,
        target: Iterable[int],
        similarity: SimilarityFunction,
        early_termination: Optional[float] = None,
        guarantee_tolerance: Optional[float] = None,
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
        )
        return (neighbors[0] if neighbors else None), stats

    def knn(
        self,
        target: Iterable[int],
        similarity: SimilarityFunction,
        k: int = 1,
        early_termination: Optional[float] = None,
        guarantee_tolerance: Optional[float] = None,
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
        target_items, bound_sim, opts, order = self._prepare(target, similarity)
        sims_all = self._all_similarities(target_items, bound_sim)
        budget = row_budget(early_termination, len(self.db))
        stats = self._new_stats()
        page_cache: set = set()

        heap: List[Tuple[float, int]] = []  # min-heap of (sim, -tid)
        pessimistic = -math.inf

        # In decreasing-bound order the first prunable entry proves every
        # later one prunable, and its bound is the largest one left.
        rank = 0
        num_entries = order.size
        while rank < num_entries:
            entry = int(order[rank])
            opt_entry = float(opts[entry])
            # Prune only entries that cannot *reach* the pessimistic bound:
            # an entry whose optimistic bound exactly equals it may still
            # contain a tie with a smaller tid, which the deterministic
            # (-similarity, tid) result order must admit — so equality is
            # scanned, strict inferiority is pruned.
            if len(heap) >= k and opt_entry < pessimistic:
                # += keeps the entries a candidate mask emptied (and
                # counted) on the way here.
                stats.entries_pruned += num_entries - rank
                break
            if (
                guarantee_tolerance is not None
                and len(heap) >= k
                and opt_entry - pessimistic <= guarantee_tolerance
            ):
                stats.terminated_early = True
                stats.entries_unexplored = num_entries - rank
                stats.best_possible_remaining = opt_entry
                stats.guaranteed_optimal = opt_entry <= pessimistic
                break
            if budget is not None and stats.transactions_accessed >= budget:
                self._record_cutoff(stats, opt_entry, num_entries - rank, pessimistic)
                break

            tids = self.table.entry_tids(entry)
            if tid_mask is not None:
                tids = tids[tid_mask[tids]]
                if tids.size == 0:
                    stats.entries_pruned += 1
                    rank += 1
                    continue
            if budget is not None:
                remaining = budget - stats.transactions_accessed
                truncated = tids.size > remaining
                take = tids[:remaining] if truncated else tids
            else:
                truncated = False
                take = tids

            self.table.store.read(take, stats.io, page_cache)
            stats.transactions_accessed += int(take.size)
            stats.entries_scanned += 1

            self._update_heap(heap, k, sims_all[take], take)
            if len(heap) >= k:
                pessimistic = heap[0][0]

            if truncated:
                self._record_cutoff(
                    stats, opt_entry, num_entries - rank - 1, pessimistic,
                    partial_entry=True,
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
        tid_mask: Optional[np.ndarray] = None,
    ) -> Tuple[List[Neighbor], SearchStats]:
        """Conjunctive range query over several similarity functions.

        Finds all transactions satisfying ``f_i(x, y) >= t_i`` for *every*
        ``(f_i, t_i)`` in ``constraints`` — e.g. "at least p items in
        common and at most q items different" (Section 2.1).  An entry is
        pruned as soon as any single constraint's optimistic bound falls
        below its threshold.  ``tid_mask`` optionally restricts evaluation
        to the sketch tier's LSH candidates (see :meth:`knn`).
        """
        if not constraints:
            raise ValueError("constraints must be non-empty")
        started_s = time.perf_counter()
        target_items = as_item_array(target, self.db.universe_size)
        bound_sims = [sim.bind(target_items.size) for sim, _ in constraints]
        thresholds = [float(t) for _, t in constraints]

        keep = np.ones(self.table.num_entries_occupied, dtype=bool)
        for bound_sim, threshold in zip(bound_sims, thresholds):
            keep &= self._bounds(target_items, bound_sim) >= threshold

        sims_all_list = [
            self._all_similarities(target_items, bs) for bs in bound_sims
        ]

        stats = self._new_stats()
        stats.entries_pruned = int((~keep).sum())
        page_cache: set = set()
        results: List[Neighbor] = []
        for entry in np.nonzero(keep)[0]:
            tids = self.table.entry_tids(int(entry))
            if tid_mask is not None:
                tids = tids[tid_mask[tids]]
                if tids.size == 0:
                    stats.entries_pruned += 1
                    continue
            self.table.store.read(tids, stats.io, page_cache)
            stats.transactions_accessed += int(tids.size)
            stats.entries_scanned += 1
            per_function = [sims_all[tids] for sims_all in sims_all_list]
            satisfied = np.ones(tids.size, dtype=bool)
            for values, threshold in zip(per_function, thresholds):
                satisfied &= values >= threshold
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
        Opt(i)``: in bound order, the bound of the entry the scan stopped
        at.
        """
        stats.terminated_early = True
        stats.entries_unexplored = entries_left + (1 if partial_entry else 0)
        stats.best_possible_remaining = current_opt
        stats.guaranteed_optimal = current_opt <= pessimistic

    def _bounds(
        self, target_items: np.ndarray, bound_sim: SimilarityFunction
    ) -> np.ndarray:
        """One target's entry bounds: row 0 of a one-target batch."""
        summary = self.table.summary(self.db) if self.bounds == "summary" else None
        calculator = BatchBoundCalculator(self.table.scheme, [target_items])
        return calculator.optimistic_similarity(
            self.table.bits_matrix, [bound_sim], summary
        )[0]

    def _prepare(
        self, target: Iterable[int], similarity: SimilarityFunction
    ) -> Tuple[np.ndarray, SimilarityFunction, np.ndarray, np.ndarray]:
        """Compute bounds and the decreasing-bound scan order for a query."""
        target_items = as_item_array(target, self.db.universe_size)
        bound_sim = similarity.bind(target_items.size)
        opts = self._bounds(target_items, bound_sim)
        return target_items, bound_sim, opts, np.argsort(-opts, kind="stable")

    def _all_similarities(
        self, target_items: np.ndarray, bound_sim: SimilarityFunction
    ) -> np.ndarray:
        """Vectorised similarity of the target to every transaction."""
        x = self.db.match_counts(target_items)
        y = self.db.sizes + target_items.size - 2 * x
        return np.asarray(bound_sim.evaluate(x, y), dtype=np.float64)
