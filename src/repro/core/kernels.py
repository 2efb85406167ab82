"""Vectorised bitset kernels for the signature-table hot paths.

Transactions and supercoordinate activations are *sets*; this module packs
them into ``uint64`` bitset words and evaluates the per-set primitives the
index needs — intersection sizes via popcount, per-signature activation
counts, whole-batch match-count matrices — as whole-array NumPy operations
instead of per-set Python loops.  On top of the packed primitives it
implements the *vectorised scan*: the branch-and-bound k-NN scan loop of
:class:`~repro.core.search.SignatureTableSearcher` re-expressed as a
binary search for the stop rank plus a single top-k selection, valid
because under the optimistic entry order the prune predicate is monotone
(bounds descend, the pessimistic bound ascends).

Every kernel is *exact*: popcounts are integer arithmetic, and the scan
kernels reproduce the reference loop's results, :class:`~repro.core.
search.SearchStats` and simulated I/O counters element for element.
These scans are the only ones the :class:`~repro.core.engine.QueryEngine`
runs; the scalar :class:`~repro.core.search.SignatureTableSearcher` is
their oracle, called from the property and differential tests, so no
tolerance knob or kernel switch exists.  That covers telemetry: under an
active :class:`~repro.obs.trace.Tracer` the scan kernels record the
loop's per-query ``search.knn`` / ``search.range`` span
(:func:`~repro.core.search.record_knn_span`) from the timings they take
anyway, reading the tracer once per batch.
"""

from __future__ import annotations

import math
import time
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.search import (
    Neighbor,
    PreparedQuery,
    SearchStats,
    record_knn_span,
    record_range_span,
)
from repro.obs.trace import current_tracer
from repro.storage.pages import IOCounters

#: Bits per packed word.
WORD_BITS = 64

#: Per-byte popcount lookup table (the ``np.unpackbits`` 8-bit LUT).
_POPCOUNT_LUT = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1
).sum(axis=1, dtype=np.int64)


def num_words(universe_size: int) -> int:
    """Packed words needed for a universe of the given size."""
    if universe_size < 0:
        raise ValueError(f"universe_size must be >= 0, got {universe_size}")
    return (int(universe_size) + WORD_BITS - 1) // WORD_BITS


# ----------------------------------------------------------------------
# Packing
# ----------------------------------------------------------------------
def pack_items(items: np.ndarray, universe_size: int) -> np.ndarray:
    """Pack one item set into a ``(num_words,)`` uint64 bitset row."""
    return pack_rows([np.asarray(items, dtype=np.int64)], universe_size)[0]


def pack_rows(
    rows: Sequence[np.ndarray], universe_size: int
) -> np.ndarray:
    """Pack item sets into an ``(len(rows), num_words)`` uint64 matrix.

    Bit ``i`` of a row (word ``i // 64``, bit ``i % 64``) is set iff item
    ``i`` is in the corresponding set.  Items must be in-universe and
    duplicate-free (as :func:`~repro.data.transaction.as_item_array`
    produces).
    """
    words = num_words(universe_size)
    packed = np.zeros((len(rows), words), dtype=np.uint64)
    if not len(rows):
        return packed
    sizes = np.fromiter(
        (row.size for row in rows), dtype=np.int64, count=len(rows)
    )
    if int(sizes.sum()) == 0:
        return packed
    flat = (
        np.concatenate([np.asarray(r, dtype=np.int64) for r in rows])
        if len(rows) > 1
        else np.asarray(rows[0], dtype=np.int64)
    )
    if flat.size and (flat.min() < 0 or flat.max() >= universe_size):
        raise ValueError("items out of universe range")
    row_ids = np.repeat(np.arange(len(rows), dtype=np.int64), sizes)
    np.bitwise_or.at(
        packed,
        (row_ids, flat >> 6),
        np.uint64(1) << (flat & 63).astype(np.uint64),
    )
    return packed


def pack_csr(
    items: np.ndarray, indptr: np.ndarray, universe_size: int
) -> np.ndarray:
    """Pack a CSR item layout (``items``/``indptr``) into bitset rows."""
    items = np.asarray(items, dtype=np.int64)
    indptr = np.asarray(indptr, dtype=np.int64)
    n = indptr.size - 1
    packed = np.zeros((n, num_words(universe_size)), dtype=np.uint64)
    if items.size == 0:
        return packed
    if items.min() < 0 or items.max() >= universe_size:
        raise ValueError("items out of universe range")
    row_ids = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    np.bitwise_or.at(
        packed,
        (row_ids, items >> 6),
        np.uint64(1) << (items & 63).astype(np.uint64),
    )
    return packed


def signature_masks(scheme) -> np.ndarray:
    """Per-signature item-membership bitsets, shape ``(K, num_words)``.

    Row ``j`` is the packed form of signature ``S_j`` — AND-ing it with a
    packed transaction and popcounting yields ``r_j = |S_j ∩ T|``.
    """
    mapping = np.asarray(scheme.item_signature, dtype=np.int64)
    universe = int(mapping.size)
    masks = np.zeros(
        (scheme.num_signatures, num_words(universe)), dtype=np.uint64
    )
    if universe:
        items = np.arange(universe, dtype=np.int64)
        np.bitwise_or.at(
            masks,
            (mapping, items >> 6),
            np.uint64(1) << (items & 63).astype(np.uint64),
        )
    return masks


# ----------------------------------------------------------------------
# Popcount primitives
# ----------------------------------------------------------------------
def popcount(words: np.ndarray) -> np.ndarray:
    """Elementwise popcount of a uint64 array (any shape), as int64."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    as_bytes = words.view(np.uint8).reshape(words.shape + (8,))
    return _POPCOUNT_LUT[as_bytes].sum(axis=-1)


def intersection_counts(
    packed_rows_matrix: np.ndarray, packed_target: np.ndarray
) -> np.ndarray:
    """``|row_i ∩ target|`` for every packed row, via AND + popcount."""
    return popcount(packed_rows_matrix & packed_target[None, :]).sum(axis=-1)


def match_counts_packed(
    packed_db: np.ndarray, packed_targets: np.ndarray
) -> np.ndarray:
    """The ``(Q, N)`` match-count matrix from packed representations.

    Row ``q`` equals ``TransactionDatabase.match_counts(targets[q])``
    exactly (popcounts are integer arithmetic).  Evaluated one query row
    at a time so the ``(N, words)`` AND intermediate is reused instead of
    materialising a ``(Q, N, words)`` cube.
    """
    out = np.empty(
        (packed_targets.shape[0], packed_db.shape[0]), dtype=np.int64
    )
    for q in range(packed_targets.shape[0]):
        out[q] = intersection_counts(packed_db, packed_targets[q])
    return out


def activation_counts_packed(
    packed_targets: np.ndarray, masks: np.ndarray
) -> np.ndarray:
    """The ``(Q, K)`` activation-count matrix ``r_{q,j} = |S_j ∩ T_q|``."""
    joined = packed_targets[:, None, :] & masks[None, :, :]
    return popcount(joined).sum(axis=-1)


def batch_activation_counts(
    scheme, target_arrays: Sequence[np.ndarray]
) -> np.ndarray:
    """Activation counts for a batch of targets via the packed kernels.

    Equals ``np.stack([scheme.activation_counts(t) for t in targets])``
    element for element; one packed AND/popcount pass replaces the
    per-target Python loop.
    """
    packed = pack_rows(
        [np.asarray(t, dtype=np.int64) for t in target_arrays],
        scheme.universe_size,
    )
    return activation_counts_packed(packed, scheme.packed_masks())


# ----------------------------------------------------------------------
# Vectorised branch-and-bound scans
# ----------------------------------------------------------------------
class _Layout(NamedTuple):
    """The clustered rows a scan walks, entry by entry.

    Entry ``e`` holds ``tids[offsets[e]:offsets[e + 1]]`` in storage
    order.  ``slots`` are those rows' storage slots, or ``None`` when the
    layout is the whole table (row ``i`` then sits in slot ``i``).
    """

    offsets: np.ndarray
    tids: np.ndarray
    sizes: np.ndarray
    slots: Optional[np.ndarray]


def _table_layout(table) -> _Layout:
    offsets = np.asarray(table.entry_offsets, dtype=np.int64)
    tids = np.asarray(table.ordered_tids, dtype=np.int64)
    return _Layout(offsets, tids, np.diff(offsets), None)


def _candidate_layout(table, full: _Layout, candidates) -> _Layout:
    """``full`` restricted to one query's candidate rows.

    A masked scan is the unmasked scan over this compacted layout:
    entries keep their identity (and so their bounds and scan rank) and
    an entry the candidates leave empty has size 0.
    """
    candidates = np.asarray(candidates)
    if candidates.dtype == np.bool_:
        slots = np.flatnonzero(candidates[full.tids])
    else:
        slots = np.sort(table.store.positions[candidates])
    tids = full.tids[slots]
    sizes = np.bincount(table.tid_entries[tids], minlength=full.sizes.size)
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    return _Layout(offsets, tids, sizes, slots)


def _layout_for(table, full: _Layout, candidates, query: int) -> _Layout:
    if candidates is None or candidates[query] is None:
        return full
    return _candidate_layout(table, full, candidates[query])


def _concat_segments(
    starts: np.ndarray, lengths: np.ndarray
) -> np.ndarray:
    """Concatenate ``arange(starts[i], starts[i] + lengths[i])`` ranges."""
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    ends = np.cumsum(lengths)
    shifts = np.repeat(starts - np.concatenate(([0], ends[:-1])), lengths)
    return np.arange(total, dtype=np.int64) + shifts


def _charge_io(
    layout: _Layout,
    page_size: int,
    entry_ids: np.ndarray,
    rows: Optional[np.ndarray],
    transactions_read: int,
) -> IOCounters:
    """Replicate the per-entry page-cache I/O charges of the scan loop.

    ``entry_ids`` are the entries read, in scan order.  ``rows=None``
    reads each of them whole: an entry of the table occupies a contiguous
    page range (storage is clustered by supercoordinate).  Otherwise
    ``rows`` indexes the rows actually read (a masked or truncated scan)
    and each is charged the page its slot lies on.  A page is charged the
    first time any entry touches it, and each entry contributes one seek
    per maximal run of contiguous *fresh* pages — exactly the arithmetic
    of ``PagedStore.read`` / ``SignatureTableSearcher._charge_cached_read``
    with a per-query page cache.
    """
    if rows is None:
        first_page = layout.offsets[entry_ids] // page_size
        counts = (layout.offsets[entry_ids + 1] - 1) // page_size - first_page + 1
        pages = _concat_segments(first_page, counts)
        segments = np.repeat(np.arange(entry_ids.size, dtype=np.int64), counts)
    else:
        slots = rows if layout.slots is None else layout.slots[rows]
        pages = slots // page_size
        segments = np.repeat(
            np.arange(entry_ids.size, dtype=np.int64), layout.sizes[entry_ids]
        )[: rows.size]
        # An entry's rows come in slot order, so equal pages are adjacent.
        distinct = np.ones(pages.size, dtype=bool)
        distinct[1:] = (pages[1:] != pages[:-1]) | (segments[1:] != segments[:-1])
        pages, segments = pages[distinct], segments[distinct]
    if pages.size == 0:
        return IOCounters(transactions_read=transactions_read)
    _, first_occurrence = np.unique(pages, return_index=True)
    fresh_idx = np.sort(first_occurrence)
    fresh_segments = segments[fresh_idx]
    fresh_values = pages[fresh_idx]
    run_starts = np.ones(fresh_idx.size, dtype=bool)
    run_starts[1:] = (fresh_segments[1:] != fresh_segments[:-1]) | (
        fresh_values[1:] - fresh_values[:-1] > 1
    )
    return IOCounters(
        transactions_read=transactions_read,
        pages_read=int(fresh_idx.size),
        seeks=int(run_starts.sum()),
    )


def _row_similarities(prep: PreparedQuery, tids: np.ndarray) -> np.ndarray:
    if prep.sims_all is not None:
        return prep.sims_all[tids]
    assert prep.row_sims is not None
    return prep.row_sims(tids)


def _top_k_neighbors(
    sims: np.ndarray, tids: np.ndarray, k: int
) -> List[Neighbor]:
    """Exact top-``k`` under the total order ``(-similarity, tid)``."""
    m = int(sims.size)
    if m > k:
        kth_value = np.partition(sims, m - k)[m - k]
        candidates = np.nonzero(sims >= kth_value)[0]
    else:
        candidates = np.arange(m, dtype=np.int64)
    chosen = candidates[
        np.lexsort((tids[candidates], -sims[candidates]))
    ][:k]
    return [
        Neighbor(tid=int(tids[i]), similarity=float(sims[i])) for i in chosen
    ]


def knn_scan_batch(
    table,
    db_size: int,
    prepared: Sequence[PreparedQuery],
    k: int,
    count_io: bool,
    candidates: Optional[Sequence[Optional[np.ndarray]]] = None,
    budget: Optional[int] = None,
    tolerance: Optional[float] = None,
) -> Tuple[List[List[Neighbor]], List[SearchStats]]:
    """Vectorised k-NN scan for a prepared batch.

    Equivalent, result- and stats-wise, to running
    :meth:`SignatureTableSearcher.knn` per query under the optimistic
    order with precomputed similarities and a per-query page cache.
    ``candidates[q]`` (a unique-tid array or a boolean mask over all
    tids; ``None`` = every row) is the searcher's ``tid_mask``,
    ``budget`` the row count its ``early_termination`` resolves to and
    ``tolerance`` its ``guarantee_tolerance``.

    The loop's stop tests — an entry whose optimistic bound falls
    strictly below the pessimistic bound, or within ``tolerance`` of it,
    once ``k`` candidates are held — are monotone in the scan rank
    (bounds descend, the pessimistic bound ascends), and so is the
    budget test, so the stop rank is found by binary search over prefix
    ``k``-th-largest similarities and the whole loop collapses into a
    handful of array operations per query.  As in the loop, the tests
    run at every rank, entries a mask emptied included, in the order
    prune, tolerance, budget, and a budget can cut an entry short.
    """
    full = _table_layout(table)
    page_size = int(table.store.page_size)
    num_entries = int(full.sizes.size)
    entries_total = table.num_entries_occupied
    tracer = current_tracer()
    results: List[List[Neighbor]] = []
    stats_list: List[SearchStats] = []
    for query, prep in enumerate(prepared):
        started_s = time.perf_counter()
        layout = _layout_for(table, full, candidates, query)
        order = prep.order
        assert order is not None
        opts_in_order = prep.opts[order]
        sizes_in_order = layout.sizes[order]
        starts_in_order = layout.offsets[:-1][order]
        cumulative = np.cumsum(sizes_in_order)
        total = int(cumulative[-1])

        built = 0
        prefix_rows = prefix_tids = prefix_sims = None

        def need_prefix(limit: int) -> None:
            """Hold the scan-order (rows, tids, sims) of at least the
            first ``limit`` entries."""
            nonlocal built, prefix_rows, prefix_tids, prefix_sims
            if built < limit:
                prefix_rows = _concat_segments(
                    starts_in_order[:limit], sizes_in_order[:limit]
                )
                prefix_tids = layout.tids[prefix_rows]
                prefix_sims = _row_similarities(prep, prefix_tids)
                built = limit

        def kth_best(count: int) -> float:
            """The pessimistic bound once ``count`` rows have been read."""
            if count < k:
                return -math.inf
            return float(np.partition(prefix_sims[:count], count - k)[count - k])

        def fires(opts, pessimistic):
            """The loop's prune-or-tolerance test (scalar or per rank)."""
            fire = opts < pessimistic
            if tolerance is not None:
                with np.errstate(invalid="ignore"):
                    fire = fire | (opts - pessimistic <= tolerance)
            return fire

        def first_firing(pessimistic: float) -> int:
            fire = fires(opts_in_order, pessimistic)
            rank = int(np.argmax(fire))
            return rank if fire[rank] else num_entries

        # ``end`` entries can be read at all; the prune and tolerance
        # tests run at ranks below ``limit``.  A budget reached inside
        # entry ``end - 1`` cuts it short (``partial``); reached exactly
        # at its end, the budget test stops the scan at rank ``end``,
        # after that rank's prune and tolerance tests.
        end = limit = num_entries
        partial = False
        if budget is not None and budget <= total:
            end = int(np.searchsorted(cumulative, budget, side="left")) + 1
            partial = int(cumulative[end - 1]) > budget
            limit = end if partial else min(end + 1, num_entries)

        # The tests arm once the heap holds k candidates, i.e. at the
        # first rank whose *preceding* entries cover k transactions.
        armed = int(np.searchsorted(cumulative, k, side="left")) + 1
        stop = limit
        if armed < limit:
            # Bracket the stop rank before touching any prefix it does
            # not need: the k-th largest similarity over every row the
            # scan could read is the largest value the pessimistic bound
            # can reach, so no rank whose test holds against it fires
            # earlier.  This keeps every later partition/gather
            # proportional to the scanned prefix, not the database.
            if prep.sims_all is not None and layout is full and end == num_entries:
                pool = prep.sims_all
            else:
                need_prefix(end)
                pool = prefix_sims
            ceiling = float(np.partition(pool, pool.size - k)[pool.size - k])
            low = max(armed, first_firing(ceiling))
            if low < limit:
                need_prefix(low)
                pess_at_low = kth_best(int(cumulative[low - 1]))
                if fires(float(opts_in_order[low]), pess_at_low):
                    stop = low
                else:
                    # First rank the lower bracket's pessimistic value
                    # already stops; the true stop can be no later.
                    high = min(limit, first_firing(pess_at_low))
                    need_prefix(min(high, end))
                    lo, hi = low + 1, high
                    while lo < hi:
                        mid = (lo + hi) // 2
                        if fires(
                            float(opts_in_order[mid]),
                            kth_best(int(cumulative[mid - 1])),
                        ):
                            hi = mid
                        else:
                            lo = mid + 1
                    stop = lo

        # ``ranks`` entries were entered; ``rank`` is where the scan ended.
        if stop < limit:
            ranks = rank = stop
            accessed = int(cumulative[stop - 1])
        else:
            ranks = end
            rank = end - 1 if partial else end
            accessed = budget if partial else int(cumulative[end - 1])
        need_prefix(ranks)
        scanned = (
            ranks
            if layout.slots is None
            else int(np.count_nonzero(sizes_in_order[:ranks]))
        )
        stats = SearchStats(
            total_transactions=int(db_size),
            entries_total=entries_total,
            transactions_accessed=accessed,
            entries_scanned=scanned,
            entries_pruned=ranks - scanned,
        )
        if rank < num_entries:
            bound = float(opts_in_order[rank])
            # With no tolerance a test that fired is the prune test, and
            # the partition behind the pessimistic bound can be skipped.
            fired_prune = stop < limit and tolerance is None
            pessimistic = math.inf if fired_prune else kth_best(accessed)
            if stop < limit and bound < pessimistic:
                stats.entries_pruned += num_entries - rank
            else:
                stats.terminated_early = True
                stats.entries_unexplored = num_entries - rank
                stats.best_possible_remaining = bound
                stats.guaranteed_optimal = bound <= pessimistic
        if count_io:
            whole = layout.slots is None and not partial
            stats.io = _charge_io(
                layout,
                page_size,
                np.asarray(order[:ranks], dtype=np.int64),
                None if whole else prefix_rows[:accessed],
                accessed,
            )
        results.append(
            _top_k_neighbors(prefix_sims[:accessed], prefix_tids[:accessed], k)
        )
        stats.elapsed_seconds = time.perf_counter() - started_s
        if tracer is not None:
            record_knn_span(tracer, started_s, k, stats)
        stats_list.append(stats)
    return results, stats_list


def range_scan_batch(
    table,
    db_size: int,
    prepared: Sequence[Sequence[PreparedQuery]],
    thresholds: Sequence[float],
    count_io: bool,
    candidates: Optional[Sequence[Optional[np.ndarray]]] = None,
) -> Tuple[List[List[Neighbor]], List[SearchStats]]:
    """Vectorised conjunctive range scan for a prepared batch.

    ``prepared[q]`` holds one :class:`PreparedQuery` per constraint for
    query ``q``; ``thresholds`` aligns with the constraints.  Matches
    :meth:`SignatureTableSearcher.multi_range_query` exactly: entries
    failing any constraint's optimistic bound are pruned, surviving
    entries are read in entry order, and results are every transaction
    meeting all thresholds, sorted by ``(-similarity, tid)``.
    ``candidates`` is the searcher's ``tid_mask``, as in
    :func:`knn_scan_batch`: only candidate rows are read, and an entry
    left without any counts as pruned.
    """
    full = _table_layout(table)
    page_size = int(table.store.page_size)
    num_entries = int(full.sizes.size)
    entries_total = table.num_entries_occupied
    threshold_values = [float(t) for t in thresholds]
    tracer = current_tracer()
    results: List[List[Neighbor]] = []
    stats_list: List[SearchStats] = []
    for query, per_constraint in enumerate(prepared):
        started_s = time.perf_counter()
        layout = _layout_for(table, full, candidates, query)
        keep = layout.sizes > 0
        for prep, threshold in zip(per_constraint, threshold_values):
            keep &= prep.opts >= threshold
        kept = np.nonzero(keep)[0]
        rows = _concat_segments(layout.offsets[:-1][kept], layout.sizes[kept])
        conc_tids = layout.tids[rows]
        satisfied = np.ones(conc_tids.size, dtype=bool)
        first_sims: Optional[np.ndarray] = None
        for prep, threshold in zip(per_constraint, threshold_values):
            values = _row_similarities(prep, conc_tids)
            if first_sims is None:
                first_sims = values
            satisfied &= values >= threshold
        accessed = int(conc_tids.size)
        stats = SearchStats(
            total_transactions=int(db_size),
            entries_total=entries_total,
            transactions_accessed=accessed,
            entries_scanned=int(kept.size),
            entries_pruned=num_entries - int(kept.size),
        )
        if count_io:
            stats.io = _charge_io(
                layout,
                page_size,
                kept,
                None if layout.slots is None else rows,
                accessed,
            )
        hits = np.nonzero(satisfied)[0]
        assert first_sims is not None or hits.size == 0
        if hits.size:
            hit_tids = conc_tids[hits]
            hit_sims = first_sims[hits]
            chosen = np.lexsort((hit_tids, -hit_sims))
            results.append(
                [
                    Neighbor(
                        tid=int(hit_tids[i]), similarity=float(hit_sims[i])
                    )
                    for i in chosen
                ]
            )
        else:
            results.append([])
        stats.elapsed_seconds = time.perf_counter() - started_s
        if tracer is not None:
            record_range_span(
                tracer, started_s, len(per_constraint), int(hits.size), stats
            )
        stats_list.append(stats)
    return results, stats_list
