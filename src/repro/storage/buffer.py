"""LRU buffer pool over the simulated disk.

The per-query page cache every scan charges models an unlimited buffer
that is dropped between queries.  :class:`BufferPool` is the realistic
variant: a bounded LRU pool shared *across* queries, as a database buffer
manager would provide.  It fronts a :class:`~repro.storage.pages.PagedStore`
and charges the backing :class:`~repro.storage.pages.IOCounters` only for
misses, while keeping its own hit/miss statistics.

The buffer-size ablation benchmark replays each query's read list through
it (:meth:`QueryEngine.replay_reads
<repro.core.engine.QueryEngine.replay_reads>`) to show how the signature
table's clustered layout turns a modest pool into a high hit rate for
query workloads with correlated targets.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.storage.pages import IOCounters, PagedStore
from repro.utils.validation import check_positive


@dataclass
class BufferStats:
    """Hit/miss counters of a buffer pool."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of page requests served from the pool."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0


class BufferPool:
    """A bounded LRU page cache in front of a :class:`PagedStore`.

    Parameters
    ----------
    store:
        The backing paged store.
    capacity:
        Maximum number of resident pages.
    """

    def __init__(self, store: PagedStore, capacity: int) -> None:
        check_positive(capacity, "capacity")
        self.store = store
        self.capacity = int(capacity)
        self.stats = BufferStats()
        # OrderedDict as LRU: keys are page ids, most recent at the end.
        self._resident: "OrderedDict[int, None]" = OrderedDict()

    # ------------------------------------------------------------------
    @property
    def resident_pages(self) -> int:
        """Number of pages currently in the pool."""
        return len(self._resident)

    def contains(self, page: int) -> bool:
        """Whether a page is resident (does not touch recency)."""
        return page in self._resident

    def clear(self) -> None:
        """Drop all resident pages (statistics are kept)."""
        self._resident.clear()

    # ------------------------------------------------------------------
    def _touch(self, page: int) -> bool:
        """Mark a page used; returns True on hit, False on miss+load."""
        if page in self._resident:
            self._resident.move_to_end(page)
            self.stats.hits += 1
            return True
        self.stats.misses += 1
        self._resident[page] = None
        if len(self._resident) > self.capacity:
            self._resident.popitem(last=False)
            self.stats.evictions += 1
        return False

    def read(self, tids: Sequence[int], counters: Optional[IOCounters] = None) -> int:
        """Read transactions through the pool.

        Misses are charged to ``counters`` (pages and seek runs over the
        missed pages only); hits are free.  Returns the number of missed
        pages.
        """
        tid_array = np.asarray(tids, dtype=np.int64)
        pages = self.store.pages_for(tid_array)
        return self.read_pages(pages.tolist(), int(tid_array.size), counters)

    def read_pages(
        self,
        pages: Sequence[int],
        num_transactions: int,
        counters: Optional[IOCounters] = None,
    ) -> int:
        """Read a pre-resolved page set.

        Identical accounting to :meth:`read`, for callers that know the
        page set up front.  The input is normalised to a sorted,
        distinct page set first — unsorted or duplicated pages would
        otherwise inflate the seek count (every out-of-order page starts
        a new "run") and double-charge repeated pages as misses.  Returns
        the number of missed pages.
        """
        page_array = np.unique(np.asarray(pages, dtype=np.int64))
        missed = [page for page in page_array.tolist() if not self._touch(page)]
        if counters is not None:
            counters.transactions_read += num_transactions
            counters.pages_read += len(missed)
            counters.seeks += PagedStore._count_runs(
                np.asarray(missed, dtype=np.int64)
            )
        return len(missed)
