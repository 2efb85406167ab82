"""Page-based disk model.

:class:`PagedStore` assigns every transaction a page under a fixed storage
order (``page = position // page_size``) and provides read primitives that
account, in an :class:`IOCounters`, for

* ``transactions_read`` — logical records touched,
* ``pages_read`` — distinct pages fetched, and
* ``seeks`` — the number of non-contiguous page runs (a sequential scan of
  ``p`` pages is 1 seek + ``p`` transfers; fetching ``p`` scattered pages
  is ``p`` seeks + ``p`` transfers).

:class:`DiskModel` converts counters into an estimated elapsed time using a
classical seek + transfer cost model, which is how the benchmarks translate
"percentage of transactions accessed" into the paper's page-scattering
discussion (Section 5.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.utils.validation import check_positive


@dataclass
class IOCounters:
    """Mutable accumulator of simulated I/O activity.

    The write-side fields (``pages_written``, ``fsyncs``) default to zero
    so read-only paths keep producing counters equal to pre-write-path
    ones; the WAL and compaction charge them so ingest costs show up in
    the same reports queries use.
    """

    transactions_read: int = 0
    pages_read: int = 0
    seeks: int = 0
    pages_written: int = 0
    fsyncs: int = 0

    def merge(self, other: "IOCounters") -> "IOCounters":
        """Add another counter's totals into this one (returns self)."""
        self.transactions_read += other.transactions_read
        self.pages_read += other.pages_read
        self.seeks += other.seeks
        self.pages_written += other.pages_written
        self.fsyncs += other.fsyncs
        return self

    def reset(self) -> None:
        self.transactions_read = 0
        self.pages_read = 0
        self.seeks = 0
        self.pages_written = 0
        self.fsyncs = 0

    def copy(self) -> "IOCounters":
        return IOCounters(
            self.transactions_read,
            self.pages_read,
            self.seeks,
            self.pages_written,
            self.fsyncs,
        )


@dataclass(frozen=True)
class DiskModel:
    """Seek + transfer disk cost model.

    Defaults approximate a late-1990s disk (10 ms average seek, 1 ms to
    transfer a page); the *absolute* values only scale the reported cost —
    every comparison in the benchmarks is a ratio.
    """

    seek_ms: float = 10.0
    transfer_ms: float = 1.0
    #: Writing a page costs one transfer by default; an fsync costs one
    #: seek (the head settles before the platter acknowledges).  Both are
    #: multiplied by counters that read-only paths leave at zero, so the
    #: model is backward compatible with pre-write-path reports.
    write_ms: Optional[float] = None
    fsync_ms: Optional[float] = None

    def cost_ms(self, counters: IOCounters) -> float:
        """Estimated elapsed time for the recorded activity."""
        write_ms = self.transfer_ms if self.write_ms is None else self.write_ms
        fsync_ms = self.seek_ms if self.fsync_ms is None else self.fsync_ms
        return (
            self.seek_ms * counters.seeks
            + self.transfer_ms * counters.pages_read
            + write_ms * counters.pages_written
            + fsync_ms * counters.fsyncs
        )


class PagedStore:
    """Transactions laid out on pages in a chosen storage order.

    Parameters
    ----------
    num_transactions:
        Number of records stored.
    page_size:
        Records per page.
    order:
        TIDs in on-disk order; defaults to natural order ``0..n-1``.  The
        signature table passes its supercoordinate-clustered order so each
        table entry occupies a contiguous run of pages.
    """

    def __init__(
        self,
        num_transactions: int,
        page_size: int = 64,
        order: Optional[Sequence[int]] = None,
    ) -> None:
        check_positive(num_transactions, "num_transactions", strict=False)
        check_positive(page_size, "page_size")
        self._n = int(num_transactions)
        self._page_size = int(page_size)
        if order is None:
            positions = np.arange(self._n, dtype=np.int64)
        else:
            order_array = np.asarray(order, dtype=np.int64)
            if order_array.shape != (self._n,):
                raise ValueError(
                    f"order must contain exactly {self._n} tids, "
                    f"got shape {order_array.shape}"
                )
            if not np.array_equal(np.sort(order_array), np.arange(self._n)):
                raise ValueError("order must be a permutation of 0..n-1")
            positions = np.empty(self._n, dtype=np.int64)
            positions[order_array] = np.arange(self._n, dtype=np.int64)
        self._positions = positions

    # ------------------------------------------------------------------
    @property
    def num_transactions(self) -> int:
        return self._n

    @property
    def page_size(self) -> int:
        return self._page_size

    @property
    def num_pages(self) -> int:
        """Total pages occupied by the store."""
        return -(-self._n // self._page_size) if self._n else 0

    @property
    def positions(self) -> np.ndarray:
        """Storage slot of every tid under the on-disk order (read-only)."""
        view = self._positions.view()
        view.flags.writeable = False
        return view

    def page_of(self, tid: int) -> int:
        """Page holding transaction ``tid``."""
        if not 0 <= tid < self._n:
            raise IndexError(f"tid {tid} out of range [0, {self._n})")
        return int(self._positions[tid]) // self._page_size

    def pages_for(self, tids: Sequence[int]) -> np.ndarray:
        """Distinct pages (sorted) holding the given transactions."""
        tid_array = np.asarray(tids, dtype=np.int64)
        if tid_array.size == 0:
            return np.empty(0, dtype=np.int64)
        if tid_array.min() < 0 or tid_array.max() >= self._n:
            raise IndexError("tids out of range")
        return np.unique(self._positions[tid_array] // self._page_size)

    # ------------------------------------------------------------------
    @staticmethod
    def _count_runs(pages: np.ndarray) -> int:
        """Number of maximal contiguous page runs in a sorted page array."""
        if pages.size == 0:
            return 0
        return int(1 + np.count_nonzero(np.diff(pages) > 1))

    def read(
        self,
        tids: Sequence[int],
        counters: IOCounters,
        page_cache: Optional[set] = None,
    ) -> np.ndarray:
        """Record a read of the given transactions; returns the pages used.

        Counts each distinct page once and one seek per non-contiguous page
        run — the random-access pattern of an index probe.

        Parameters
        ----------
        page_cache:
            Optional set of page ids already resident (a per-query buffer
            pool).  Cached pages cost nothing; newly read pages are added
            to the cache.  The branch-and-bound search passes one cache per
            query so that entries sharing a page are not double-charged.
        """
        tid_array = np.asarray(tids, dtype=np.int64)
        pages = self.pages_for(tid_array)
        counters.transactions_read += int(tid_array.size)
        if page_cache is not None and pages.size:
            fresh = np.asarray(
                [p for p in pages.tolist() if p not in page_cache],
                dtype=np.int64,
            )
            page_cache.update(fresh.tolist())
        else:
            fresh = pages
        counters.pages_read += int(fresh.size)
        counters.seeks += self._count_runs(fresh)
        return pages

    def read_all_sequential(self, counters: IOCounters) -> None:
        """Record a full sequential scan (1 seek + every page)."""
        counters.transactions_read += self._n
        counters.pages_read += self.num_pages
        counters.seeks += 1 if self._n else 0
