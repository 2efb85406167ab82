"""The one scatter-gather merge rule.

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

This is an engineering extension, not part of the paper; its correctness
tests assert exact agreement with a single table over the union.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from repro.core.search import Neighbor, SearchStats


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
    (today the multi-node :class:`~repro.cluster.router.ClusterRouter`),
    so a distributed answer can be differentially tested against a
    single-node oracle.
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
