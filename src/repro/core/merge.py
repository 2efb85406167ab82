"""The one merge rule, and the one reader of a base segment plus a delta.

When the transactions of a logical database are split over several
signature tables (the shards of :mod:`repro.cluster`), a query fans out
to every table and the partial answers merge — which is exact for every
query type this library supports, because each transaction lives in
exactly one table:

* k-NN: merge the per-table top-k lists and keep the global top k.
* Range queries: concatenate the per-table results.
* The early-termination budget is applied per table (each cuts off at
  the same *fraction* of its own data, matching the single-table
  semantics in expectation).

The same rule answers an index with pending rows: :class:`ReadState`
is the one reader of a base segment plus a delta, for both
:class:`~repro.core.builder.MarketBasketIndex` and
:class:`~repro.live.index.LiveIndex`.

This is an engineering extension, not part of the paper; its correctness
tests assert exact agreement with a single table over the union.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.search import Neighbor, SearchStats
from repro.core.similarity import SimilarityFunction


def merge_neighbor_lists(
    partials: Iterable[Iterable[Neighbor]],
    k: Optional[int] = None,
) -> List[Neighbor]:
    """Merge per-shard neighbour lists into the global answer.

    The deterministic total order ``(-similarity, tid)`` makes the merge
    *exact*: as long as every transaction lives in exactly one shard (so
    tids never collide), the merged list is byte-identical to running the
    same query over a single index holding the union.  ``k`` truncates
    to the global top-k (k-NN); ``None`` keeps everything (range).

    This is the merge rule of every scatter-gather path in the codebase
    (the multi-node :class:`~repro.cluster.router.ClusterRouter` and
    :class:`ReadState`), so a distributed or base+delta answer can be
    differentially tested against a single-table oracle.
    """
    merged: List[Neighbor] = []
    for partial in partials:
        merged.extend(partial)
    merged.sort(key=lambda nb: (-nb.similarity, nb.tid))
    if k is not None:
        del merged[k:]
    return merged


def merge_search_stats(
    partials: Iterable[SearchStats], total_transactions: int
) -> SearchStats:
    """Combine per-shard :class:`SearchStats` into one global view.

    Counters sum; ``guaranteed_optimal`` holds only when every shard
    guarantees it; ``terminated_early`` is sticky; the best possible
    remaining similarity is the max over shards.  ``total_transactions``
    is supplied by the caller (the size of the union, which no single
    shard knows).
    """
    merged = SearchStats(total_transactions=int(total_transactions))
    merged.guaranteed_optimal = True
    best_remaining = -np.inf
    for stats in partials:
        merged.transactions_accessed += stats.transactions_accessed
        merged.entries_total += stats.entries_total
        merged.entries_scanned += stats.entries_scanned
        merged.entries_pruned += stats.entries_pruned
        merged.entries_unexplored += stats.entries_unexplored
        merged.terminated_early |= stats.terminated_early
        merged.guaranteed_optimal &= stats.guaranteed_optimal
        best_remaining = max(best_remaining, stats.best_possible_remaining)
        merged.io.merge(stats.io)
        # Sketch-tier quality propagates conservatively: the merged query
        # ran on the lsh tier if any leg did, its candidate count is the
        # sum over legs, and the recall estimate is the worst (lowest)
        # leg estimate — a lower bound on the product-form truth.
        if stats.candidate_tier != "exact":
            merged.candidate_tier = stats.candidate_tier
        if stats.sketch_candidates is not None:
            merged.sketch_candidates = (
                merged.sketch_candidates or 0
            ) + stats.sketch_candidates
        if stats.estimated_recall is not None:
            merged.estimated_recall = (
                stats.estimated_recall
                if merged.estimated_recall is None
                else min(merged.estimated_recall, stats.estimated_recall)
            )
    merged.best_possible_remaining = best_remaining
    return merged


class ReadState:
    """One batch's view of a base segment plus its pending rows.

    ``engine`` is the base table's :class:`~repro.core.engine.QueryEngine`,
    ``base_live`` the boolean mask of its live rows and ``delta`` a
    :class:`~repro.live.delta.DeltaSnapshot` of the pending rows.
    Logical tids number the live base rows in tid order, then the delta
    rows in rank order, as a fresh build over the logical rows would.
    """

    __slots__ = ("engine", "base_live", "num_base_live", "num_dead", "delta")

    def __init__(self, engine, base_live: np.ndarray, delta) -> None:
        self.engine = engine
        self.base_live = base_live
        self.num_base_live = int(base_live.sum())
        self.num_dead = int(base_live.size - self.num_base_live)
        self.delta = delta

    def knn_batch(
        self,
        targets: Sequence[np.ndarray],
        similarity: SimilarityFunction,
        k: int,
        early_termination: Optional[float] = None,
        guarantee_tolerance: Optional[float] = None,
        candidate_tier: str = "exact",
        target_recall: Optional[float] = None,
    ) -> Tuple[List[List[Neighbor]], List[SearchStats]]:
        """k-NN over the logical rows: one base engine call over the live
        (and, under the lsh tier, probed) rows, each target's top ``k``
        delta rows, then :meth:`merge`.  The approximation knobs apply
        to the base scan; the delta is always read whole."""
        probes, candidates = self.base_candidates(
            targets, candidate_tier, target_recall, op="knn"
        )
        base_lists, stats = self.engine.knn_batch(
            targets,
            similarity,
            k=k,
            early_termination=early_termination,
            guarantee_tolerance=guarantee_tolerance,
            candidates=candidates,
        )
        delta = [self.delta.knn_candidates(t, similarity, k) for t in targets]
        return self.merge(base_lists, stats, delta, probes, candidates, k)

    def range_query_batch(
        self,
        targets: Sequence[np.ndarray],
        similarity: SimilarityFunction,
        threshold: float,
        candidate_tier: str = "exact",
        target_recall: Optional[float] = None,
    ) -> Tuple[List[List[Neighbor]], List[SearchStats]]:
        """Every logical row with similarity >= ``threshold``, for each
        target; the base and delta reads are those of :meth:`knn_batch`."""
        probes, candidates = self.base_candidates(
            targets, candidate_tier, target_recall, op="range"
        )
        base_lists, stats = self.engine.range_query_batch(
            targets, similarity, threshold, candidates=candidates
        )
        delta = [
            self.delta.range_candidates(t, similarity, threshold) for t in targets
        ]
        return self.merge(base_lists, stats, delta, probes, candidates)

    def base_candidates(self, targets, candidate_tier, target_recall, op):
        """``(probes, candidates)`` of the base scan, for a tier the
        engine's ``_canonical_tier`` has validated.

        The candidates are the live base rows (``None`` while nothing is
        tombstoned); under the lsh tier, one row per query: its sketch
        probe's candidates among them, probed through the engine so
        ``repro_sketch_candidates_total{op}`` counts them.  The delta is
        memory-resident and always read whole, so approximation never
        touches it.
        """
        if candidate_tier == "exact":
            return None, (self.base_live if self.num_dead else None)
        probes = self.engine._probe_batch(targets, target_recall, op=op)
        masks = np.stack([probe.mask(self.base_live.size) for probe in probes])
        return probes, masks & self.base_live

    def merge(
        self,
        base_lists: List[List[Neighbor]],
        stats: List[SearchStats],
        delta_lists: List[List[Tuple[int, float]]],
        probes=None,
        candidates=None,
        k: Optional[int] = None,
    ) -> Tuple[List[List[Neighbor]], List[SearchStats]]:
        """Per query: base tids to logical tids, delta ``(rank,
        similarity)`` hits after the live base rows, the
        ``(-similarity, tid)`` merge (truncated to ``k`` for k-NN), and
        every delta row charged to ``transactions_accessed`` and
        ``total_transactions``."""
        logical_of_base = np.cumsum(self.base_live) - 1 if self.num_dead else None
        total = self.num_base_live + len(self.delta)
        results = []
        for q, (base, one, delta) in enumerate(zip(base_lists, stats, delta_lists)):
            if logical_of_base is not None:
                base = [
                    Neighbor(int(logical_of_base[nb.tid]), nb.similarity)
                    for nb in base
                ]
            merged = merge_neighbor_lists(
                (base, [Neighbor(self.num_base_live + r, s) for r, s in delta]),
                k,
            )
            one.total_transactions = total
            one.transactions_accessed += len(self.delta)
            if probes is not None:
                # The engine's own lossy-tier report (it also observes the
                # merged access fraction): the recall estimate is sharpened
                # by the k-th neighbour when that is a base row, and the
                # candidates are the live ones.
                kth = merged[-1].tid if k is not None and merged else None
                kth_tid = None
                if kth is not None and kth < self.num_base_live:
                    kth_tid = int(np.flatnonzero(self.base_live)[kth])
                self.engine._finish_sketch_stats(one, probes[q], kth_tid)
                one.sketch_candidates = (
                    int(np.count_nonzero(candidates[q])) + len(self.delta)
                )
            results.append(merged)
        return results, stats
