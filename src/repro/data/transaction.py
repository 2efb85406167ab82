"""Transaction data model.

A *transaction* is a set of item identifiers drawn from a universe
``{0, ..., universe_size - 1}`` (Section 1 of the paper).  The library
stores a database of transactions in a compressed sparse row (CSR) layout —
one flat ``items`` array plus an ``indptr`` offset array — which makes the
whole-database primitives the index needs (match counts against a target,
hamming distances, supports) single NumPy operations instead of per-set
Python loops.

The class still behaves like a sequence of ``frozenset`` for ergonomic use:
``db[i]`` returns the i-th transaction as a ``frozenset`` and iteration
yields ``frozenset`` objects.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from repro.utils.validation import check_positive

TransactionLike = Union[Iterable[int], np.ndarray, frozenset, set]


def as_item_array(
    transaction: TransactionLike,
    universe_size: Optional[int] = None,
) -> np.ndarray:
    """Normalise a transaction into a sorted, duplicate-free int64 array.

    Parameters
    ----------
    transaction:
        Any iterable of non-negative item identifiers.
    universe_size:
        If given, items must lie in ``[0, universe_size)``.

    Raises
    ------
    ValueError
        If items are negative or out of the universe range.
    """
    items = np.unique(np.asarray(list(transaction), dtype=np.int64))
    if items.size and items[0] < 0:
        raise ValueError(f"item identifiers must be non-negative, got {items[0]}")
    if universe_size is not None and items.size and items[-1] >= universe_size:
        raise ValueError(
            f"item {items[-1]} is outside the universe [0, {universe_size})"
        )
    return items


class TransactionDatabase:
    """An immutable collection of transactions in CSR layout.

    Parameters
    ----------
    transactions:
        Iterable of transactions (iterables of non-negative ints).
        Duplicate items within a transaction are removed.
    universe_size:
        Total number of items in the universe.  Defaults to
        ``max(item) + 1`` across the database.

    Notes
    -----
    The inverted postings (item -> sorted TID array) are built lazily on the
    first call to :meth:`match_counts` / :meth:`postings` and cached; they
    are the computational backbone for both the linear-scan ground truth and
    the inverted-index baseline.
    """

    def __init__(
        self,
        transactions: Iterable[TransactionLike],
        universe_size: Optional[int] = None,
    ) -> None:
        arrays = [as_item_array(t, universe_size) for t in transactions]
        sizes = np.fromiter((a.size for a in arrays), dtype=np.int64, count=len(arrays))
        indptr = np.zeros(len(arrays) + 1, dtype=np.int64)
        np.cumsum(sizes, out=indptr[1:])
        items = (
            np.concatenate(arrays) if arrays else np.empty(0, dtype=np.int64)
        )
        if universe_size is None:
            universe_size = int(items.max()) + 1 if items.size else 0
        check_positive(universe_size, "universe_size", strict=False)
        self._items = items
        self._indptr = indptr
        self._sizes = sizes
        self._universe_size = int(universe_size)
        self._postings: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._packed_rows: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(
        cls,
        items: np.ndarray,
        indptr: np.ndarray,
        universe_size: int,
    ) -> "TransactionDatabase":
        """Build a database directly from CSR arrays (no copies, no checks
        beyond shape/ordering).  Intended for internal use and fast I/O."""
        db = cls.__new__(cls)
        items = np.ascontiguousarray(items, dtype=np.int64)
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        if indptr.ndim != 1 or indptr.size == 0 or indptr[0] != 0:
            raise ValueError("indptr must be 1-D, non-empty and start at 0")
        if indptr[-1] != items.size:
            raise ValueError(
                f"indptr[-1]={indptr[-1]} does not match items size {items.size}"
            )
        db._items = items
        db._indptr = indptr
        db._sizes = np.diff(indptr)
        db._universe_size = int(universe_size)
        db._postings = None
        db._packed_rows = None
        return db

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._indptr.size - 1

    def __getitem__(self, tid: int) -> frozenset:
        return frozenset(int(i) for i in self.items_of(tid))

    def __iter__(self) -> Iterator[frozenset]:
        for tid in range(len(self)):
            yield self[tid]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TransactionDatabase):
            return NotImplemented
        return (
            self._universe_size == other._universe_size
            and np.array_equal(self._indptr, other._indptr)
            and np.array_equal(self._items, other._items)
        )

    def __hash__(self) -> int:  # pragma: no cover - identity hash suffices
        return id(self)

    def __repr__(self) -> str:
        return (
            f"TransactionDatabase(n={len(self)}, universe={self._universe_size}, "
            f"avg_size={self.avg_transaction_size:.2f})"
        )

    def items_of(self, tid: int) -> np.ndarray:
        """Return the sorted item array of transaction ``tid`` (a view)."""
        if not 0 <= tid < len(self):
            raise IndexError(f"tid {tid} out of range [0, {len(self)})")
        return self._items[self._indptr[tid] : self._indptr[tid + 1]]

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def universe_size(self) -> int:
        """Number of items in the universe ``U``."""
        return self._universe_size

    def csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return the raw CSR arrays ``(items, indptr)`` as read-only views.

        ``items[indptr[t]:indptr[t+1]]`` are the sorted items of transaction
        ``t``.  Exposed for vectorised whole-database computations (e.g.
        batch supercoordinate assignment).
        """
        items = self._items.view()
        items.flags.writeable = False
        indptr = self._indptr.view()
        indptr.flags.writeable = False
        return items, indptr

    @property
    def sizes(self) -> np.ndarray:
        """Per-transaction cardinalities ``#T`` (read-only view)."""
        view = self._sizes.view()
        view.flags.writeable = False
        return view

    @property
    def avg_transaction_size(self) -> float:
        """Mean number of items per transaction."""
        return float(self._sizes.mean()) if len(self) else 0.0

    @property
    def density(self) -> float:
        """Fraction of the boolean transaction/item matrix that is 1."""
        if len(self) == 0 or self._universe_size == 0:
            return 0.0
        return float(self._items.size) / (len(self) * self._universe_size)

    @property
    def total_items(self) -> int:
        """Total number of (transaction, item) incidences."""
        return int(self._items.size)

    # ------------------------------------------------------------------
    # Postings / whole-database primitives
    # ------------------------------------------------------------------
    def postings(self, item: int) -> np.ndarray:
        """Return the sorted TIDs of transactions containing ``item``."""
        if not 0 <= item < self._universe_size:
            raise IndexError(
                f"item {item} out of universe [0, {self._universe_size})"
            )
        indptr, tids = self._ensure_postings()
        return tids[indptr[item]:indptr[item + 1]]

    def _ensure_postings(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(indptr, tids)``: the item -> tid postings in CSR form, built
        on first use.  Both arrays are published in one assignment, so a
        reader in another thread sees neither or both."""
        if self._postings is not None:
            return self._postings
        counts = np.bincount(self._items, minlength=self._universe_size)
        indptr = np.zeros(self._universe_size + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        tids = np.repeat(
            np.arange(len(self), dtype=np.int64), self._sizes
        )
        # Stable sort by item keeps TIDs ascending within each posting list.
        order = np.argsort(self._items, kind="stable")
        self._postings = (indptr, tids[order])
        return self._postings

    def match_counts(self, target: TransactionLike) -> np.ndarray:
        """Return ``x(tid) = |T_tid ∩ target|`` for every transaction.

        This is the vectorised primitive behind the linear-scan ground truth
        and the per-query precomputation of the searcher: it touches only the
        posting lists of the target's items, so its cost is proportional to
        the summed support of those items, not to the database size.
        """
        target_items = as_item_array(target, self._universe_size)
        indptr, tids = self._ensure_postings()
        counts = np.zeros(len(self), dtype=np.int64)
        for item in target_items:
            counts[tids[indptr[item]:indptr[item + 1]]] += 1
        return counts

    def packed_rows(self) -> np.ndarray:
        """The database as ``(n, words)`` uint64 bitset rows (cached).

        Bit ``i`` of row ``t`` is set iff item ``i`` is in transaction
        ``t`` — the dense representation the popcount kernels of
        :mod:`repro.core.kernels` operate on.  Built lazily on first use
        (cost linear in ``total_items``) and cached, like the postings.
        """
        if self._packed_rows is None:
            from repro.core import kernels

            self._packed_rows = kernels.pack_csr(
                self._items, self._indptr, self._universe_size
            )
        view = self._packed_rows.view()
        view.flags.writeable = False
        return view

    def _posting_work(self, target_arrays: Sequence[np.ndarray]) -> int:
        """Posting increments a batch costs: the summed support of the
        targets' items."""
        supports = np.diff(self._ensure_postings()[0])
        return int(sum(int(supports[items].sum()) for items in target_arrays))

    def _packed_wins(self, target_arrays: Sequence[np.ndarray]) -> bool:
        """Heuristic: is the dense popcount kernel cheaper than posting
        walks for this batch?

        Posting work is output-sensitive (summed support of the targets'
        items); the dense kernel always touches every word of every row
        per query.  The factor 4 approximates the per-word cost of the
        AND + byte-LUT popcount relative to one posting increment.
        """
        from repro.core import kernels

        words = kernels.num_words(self._universe_size)
        dense_work = len(target_arrays) * len(self) * words * 4
        return dense_work < self._posting_work(target_arrays)

    def gathered_rows_win(
        self, target_arrays: Sequence[np.ndarray], num_rows: int
    ) -> bool:
        """Heuristic: when a batch's scans can read ``num_rows`` rows
        between them, is popcounting just those (gathered from
        :meth:`packed_rows`) cheaper than :meth:`match_counts_batch`?

        The same cost model as :meth:`_packed_wins`; the whole-database
        path additionally evaluates a similarity for every row of every
        query, the gathered path one per row read.
        """
        from repro.core import kernels

        words = kernels.num_words(self._universe_size)
        whole = self._posting_work(target_arrays) + len(target_arrays) * len(self)
        return num_rows * (words * 4 + 1) < whole

    def match_counts_batch(
        self, targets: Sequence[TransactionLike]
    ) -> np.ndarray:
        """Return the ``(len(targets), len(db))`` matrix of match counts.

        Row ``q`` equals ``match_counts(targets[q])`` exactly (integer
        arithmetic throughout, so batch and per-query results are
        identical).  Posting lists are traversed once per *distinct* item
        across the batch, so overlapping targets — the common case for
        query batches drawn from one distribution — amortise the traversal
        the per-query loop would repeat.  When :meth:`_packed_wins` says
        the dense bitset popcount of :mod:`repro.core.kernels` is cheaper
        (dense data, long targets), the batch runs that instead; both
        return identical matrices.
        """
        target_arrays = [
            as_item_array(t, self._universe_size) for t in targets
        ]
        counts = np.zeros((len(target_arrays), len(self)), dtype=np.int64)
        if not target_arrays:
            return counts
        if self._packed_wins(target_arrays):
            from repro.core import kernels

            packed_targets = kernels.pack_rows(
                target_arrays, self._universe_size
            )
            return kernels.match_counts_packed(
                self.packed_rows(), packed_targets
            )
        indptr, postings = self._ensure_postings()
        # Invert the batch: item -> queries containing it.
        queries_of: dict = {}
        for q, items in enumerate(target_arrays):
            for item in items.tolist():
                queries_of.setdefault(item, []).append(q)
        for item, qs in queries_of.items():
            tids = postings[indptr[item]:indptr[item + 1]]
            if tids.size == 0:
                continue
            if len(qs) == 1:
                counts[qs[0], tids] += 1
            else:
                counts[np.ix_(np.asarray(qs, dtype=np.int64), tids)] += 1
        return counts

    def hamming_distances(self, target: TransactionLike) -> np.ndarray:
        """Return ``y(tid) = |T_tid Δ target|`` for every transaction."""
        target_items = as_item_array(target, self._universe_size)
        matches = self.match_counts(target_items)
        return self._sizes + target_items.size - 2 * matches

    def item_supports(self, relative: bool = True) -> np.ndarray:
        """Return per-item support (fraction of transactions, or raw count)."""
        counts = np.bincount(self._items, minlength=self._universe_size)
        if relative:
            if len(self) == 0:
                return counts.astype(np.float64)
            return counts / float(len(self))
        return counts

    # ------------------------------------------------------------------
    # Derivation
    # ------------------------------------------------------------------
    def subset(self, tids: Sequence[int]) -> "TransactionDatabase":
        """Return a new database containing the given transactions, in order."""
        tid_array = np.asarray(tids, dtype=np.int64)
        if tid_array.size and (
            tid_array.min() < 0 or tid_array.max() >= len(self)
        ):
            raise IndexError("subset tids out of range")
        arrays = [self.items_of(int(t)) for t in tid_array]
        sizes = self._sizes[tid_array]
        indptr = np.zeros(tid_array.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=indptr[1:])
        items = (
            np.concatenate(arrays) if arrays else np.empty(0, dtype=np.int64)
        )
        return TransactionDatabase.from_arrays(items, indptr, self._universe_size)

    def sample(self, num_transactions: int, rng=None) -> "TransactionDatabase":
        """Return a uniform random sample of transactions (without
        replacement), e.g. for estimating supports on very large data."""
        from repro.utils.rng import ensure_rng

        if not 0 <= num_transactions <= len(self):
            raise ValueError(
                f"num_transactions must be in [0, {len(self)}], "
                f"got {num_transactions}"
            )
        generator = ensure_rng(rng)
        tids = generator.choice(len(self), size=num_transactions, replace=False)
        return self.subset(np.sort(tids))

    def split(
        self, num_holdout: int
    ) -> Tuple["TransactionDatabase", "TransactionDatabase"]:
        """Split off the last ``num_holdout`` transactions as a query set.

        Returns ``(indexed, holdout)``.  Experiments use the holdout as query
        targets drawn from the same distribution as the indexed data.
        """
        if not 0 <= num_holdout <= len(self):
            raise ValueError(
                f"num_holdout must be in [0, {len(self)}], got {num_holdout}"
            )
        cut = len(self) - num_holdout
        return self.subset(range(cut)), self.subset(range(cut, len(self)))

    @classmethod
    def concatenate(
        cls, databases: Sequence["TransactionDatabase"]
    ) -> "TransactionDatabase":
        """Concatenate databases; TIDs of later databases are shifted.

        All inputs must share one universe size (merging shards back into
        a global database, undoing :meth:`split`, etc.).
        """
        if not databases:
            raise ValueError("need at least one database to concatenate")
        universe = databases[0].universe_size
        if any(db.universe_size != universe for db in databases):
            raise ValueError("all databases must share one universe size")
        items = np.concatenate([db._items for db in databases])
        sizes = np.concatenate([db._sizes for db in databases])
        indptr = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=indptr[1:])
        return cls.from_arrays(items, indptr, universe)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path) -> None:
        """Serialise to a compressed ``.npz`` file."""
        np.savez_compressed(
            path,
            items=self._items,
            indptr=self._indptr,
            universe_size=np.int64(self._universe_size),
        )

    @classmethod
    def load(cls, path) -> "TransactionDatabase":
        """Load a database previously stored with :meth:`save`."""
        with np.load(path) as data:
            return cls.from_arrays(
                data["items"], data["indptr"], int(data["universe_size"])
            )
