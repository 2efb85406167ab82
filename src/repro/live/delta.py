"""In-memory delta index: recent inserts as packed bitset rows.

Recently inserted transactions live here until compaction folds them
into the base segment.  The delta is small and memory-resident, so a
query reads every live row: one AND + popcount pass over the rows held
as ``uint64`` bitsets (:func:`repro.core.kernels.pack_rows`), then the
exact top-k or a threshold filter.  A row is packed by the first
:meth:`DeltaIndex.snapshot` that sees it, in one ``pack_rows`` call for
every row appended since the previous snapshot, so an insert costs no
more than appending its item array.

Positions are insertion-order indices (0, 1, 2, ...) and are *stable*:
deleting a delta row clears its live flag but never renumbers the rows,
because WAL replay and the logical-tid mapping both rely on positions
meaning the same thing across the index's lifetime.  Similarities are
computed with the exact integer arithmetic of the base scan
(``x = |T ∩ target|``, ``y = |T| + |target| - 2x``), so a result merged
from base + delta is bit-for-bit what a fresh build would return.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.core import kernels
from repro.core.signature import SignatureScheme
from repro.core.similarity import SimilarityFunction
from repro.data.transaction import as_item_array


class DeltaSnapshot:
    """An immutable view of the delta taken under the swap lock.

    Queries run against a snapshot so a concurrent insert/delete (or the
    compaction swap) cannot shift rows mid-scan.  The snapshot owns a
    copy of the live rows' packed bitsets and sizes, in insertion order:
    row ``i`` is the delta row of *rank* ``i``.
    """

    __slots__ = ("scheme", "packed", "sizes")

    def __init__(
        self, scheme: SignatureScheme, packed: np.ndarray, sizes: np.ndarray
    ) -> None:
        self.scheme = scheme
        self.packed = packed
        self.sizes = sizes

    def __len__(self) -> int:
        return int(self.sizes.size)

    def similarities(
        self, target: Iterable[int], similarity: SimilarityFunction
    ) -> np.ndarray:
        """Exact similarities of the target to every live row."""
        universe = self.scheme.universe_size
        target_items = as_item_array(target, universe)
        x = kernels.intersection_counts(
            self.packed, kernels.pack_items(target_items, universe)
        )
        y = self.sizes + target_items.size - 2 * x
        bound_sim = similarity.bind(target_items.size)
        return np.asarray(bound_sim.evaluate(x, y), dtype=np.float64)

    def knn_candidates(
        self,
        target: Iterable[int],
        similarity: SimilarityFunction,
        k: int,
    ) -> List[Tuple[int, float]]:
        """Top-k delta rows as ``(rank, similarity)`` pairs.

        ``rank`` is the row's index among *live* rows in insertion order
        — exactly the offset the logical-tid mapping adds to the live
        base count.  The pairs are sorted by ``(-similarity, rank)``.
        """
        if not len(self):
            return []
        sims = self.similarities(target, similarity)
        top = kernels._top_k_neighbors(sims, np.arange(sims.size), k)
        return [(nb.tid, nb.similarity) for nb in top]

    def range_candidates(
        self,
        target: Iterable[int],
        similarity: SimilarityFunction,
        threshold: float,
    ) -> List[Tuple[int, float]]:
        """Delta rows with similarity >= ``threshold``, as ``(rank, sim)``
        sorted by ``(-similarity, rank)``."""
        if not len(self):
            return []
        sims = self.similarities(target, similarity)
        hits = np.flatnonzero(sims >= threshold)
        hits = hits[np.lexsort((hits, -sims[hits]))]
        return [(int(rank), float(sims[rank])) for rank in hits]


class DeltaIndex:
    """Mutable store of inserted transactions.

    Not thread-safe on its own — the owning
    :class:`~repro.live.index.LiveIndex` serialises mutations and takes
    :meth:`snapshot` under its swap lock for queries.
    """

    def __init__(self, scheme: SignatureScheme) -> None:
        self.scheme = scheme
        self._items: List[np.ndarray] = []
        self._live: List[bool] = []
        self._live_count = 0
        # Packed bitsets and sizes of positions [0, len(self._sizes)):
        # every row some snapshot has seen, live or not.
        self._packed = np.zeros(
            (0, kernels.num_words(scheme.universe_size)), dtype=np.uint64
        )
        self._sizes = np.zeros(0, dtype=np.int64)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of *live* rows."""
        return self._live_count

    @property
    def total_rows(self) -> int:
        """All rows ever inserted, including deleted ones."""
        return len(self._items)

    def insert(self, items: Iterable[int]) -> int:
        """Add a transaction; returns its stable delta position."""
        array = as_item_array(items, self.scheme.universe_size)
        position = len(self._items)
        self._items.append(array)
        self._live.append(True)
        self._live_count += 1
        return position

    def remove(self, position: int) -> None:
        """Mark a row deleted (positions of other rows are unchanged)."""
        if not 0 <= position < len(self._items):
            raise IndexError(
                f"delta position {position} out of range [0, {len(self._items)})"
            )
        if not self._live[position]:
            raise ValueError(f"delta position {position} already deleted")
        self._live[position] = False
        self._live_count -= 1

    def is_live(self, position: int) -> bool:
        """Whether a row is still live."""
        return self._live[position]

    def live_positions(self) -> List[int]:
        """Positions of live rows, insertion order."""
        return [p for p, live in enumerate(self._live) if live]

    def live_arrays(self) -> List[np.ndarray]:
        """Item arrays of live rows, insertion order (shared, not copied)."""
        return [
            self._items[p] for p, live in enumerate(self._live) if live
        ]

    def clear(self) -> None:
        """Drop every row (after compaction folded them into the base)."""
        self._items.clear()
        self._live.clear()
        self._live_count = 0
        self._packed = self._packed[:0]
        self._sizes = self._sizes[:0]

    # ------------------------------------------------------------------
    def snapshot(self) -> DeltaSnapshot:
        """An immutable view of the live rows for one query."""
        seen = self._sizes.size
        if seen < len(self._items):
            fresh = self._items[seen:]
            self._packed = np.concatenate(
                (self._packed, kernels.pack_rows(fresh, self.scheme.universe_size))
            )
            self._sizes = np.concatenate((
                self._sizes,
                np.fromiter((a.size for a in fresh), np.int64, len(fresh)),
            ))
        live = np.flatnonzero(
            np.fromiter(self._live, dtype=bool, count=len(self._live))
        )
        return DeltaSnapshot(self.scheme, self._packed[live], self._sizes[live])

    def activation_fractions(self) -> Optional[np.ndarray]:
        """Per-signature activation fraction over live rows (drift input).

        ``None`` when the delta is empty.  Component ``s`` is the
        fraction of live delta transactions that activate signature
        ``s`` under the scheme's threshold — the distribution the drift
        advisor compares against the base segment's.
        """
        if self._live_count == 0:
            return None
        r = self.scheme.activation_threshold
        active = np.zeros(self.scheme.num_signatures, dtype=np.int64)
        for position, live in enumerate(self._live):
            if not live:
                continue
            counts = self.scheme.activation_counts(self._items[position])
            active += counts >= r
        return active / float(self._live_count)
