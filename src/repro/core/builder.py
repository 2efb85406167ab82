"""High-level index facade: one call from a database to a queryable index.

:func:`build_index` wires the full pipeline of the paper — pair supports →
correlation graph → single-linkage signatures → signature table — and
returns a :class:`MarketBasketIndex`, the friendly entry point used by the
examples.

The signature table itself is immutable (bulk-loaded); the facade adds
incremental **inserts** with a classic main + delta design: new
transactions accumulate in a :class:`~repro.live.delta.DeltaIndex`, and
every query reads the table's :class:`~repro.core.engine.QueryEngine`
and the delta through one :class:`~repro.core.merge.ReadState` with
every base row live — the reader of
:class:`~repro.live.index.LiveIndex` too.
:meth:`MarketBasketIndex.compact` merges the delta into a rebuilt table.
``auto_compact_fraction`` bounds the delta at a fraction of the indexed
size, so query cost stays within a constant factor of the compacted
index.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.engine import QueryEngine
from repro.core.merge import ReadState
from repro.core.partitioning import partition_items
from repro.core.search import Neighbor, SearchStats, target_aggregator
from repro.core.signature import SignatureScheme
from repro.core.similarity import SimilarityFunction
from repro.core.table import SignatureTable
from repro.data.transaction import TransactionDatabase, as_item_array
from repro.live.delta import DeltaIndex
from repro.obs.trace import span
from repro.utils.rng import RngLike
from repro.utils.validation import check_fraction


@dataclass(frozen=True)
class IndexBuildReport:
    """What the build produced, for logging and the memory ablation."""

    num_transactions: int
    universe_size: int
    num_signatures: int
    activation_threshold: int
    occupied_entries: int
    directory_bytes_dense: int
    directory_bytes_sparse: int
    build_seconds: float


def build_index(
    db: TransactionDatabase,
    num_signatures: Optional[int] = None,
    critical_mass: Optional[float] = None,
    activation_threshold: int = 1,
    scheme: Optional[SignatureScheme] = None,
    page_size: int = 64,
    min_support: float = 0.0,
    max_transactions: Optional[int] = 50_000,
    rng: RngLike = 0,
    auto_compact_fraction: float = 0.25,
) -> "MarketBasketIndex":
    """Build a ready-to-query :class:`MarketBasketIndex` over ``db``.

    Either pass a prebuilt ``scheme`` or the partitioning knobs (exactly
    one of ``num_signatures`` / ``critical_mass``; see
    :func:`repro.core.partitioning.partition_items`).
    """
    started = time.perf_counter()
    with span("builder.build_index", num_transactions=len(db)) as build_span:
        if scheme is None:
            scheme = partition_items(
                db,
                num_signatures=num_signatures,
                critical_mass=critical_mass,
                activation_threshold=activation_threshold,
                min_support=min_support,
                max_transactions=max_transactions,
                rng=rng,
            )
        elif num_signatures is not None or critical_mass is not None:
            raise ValueError(
                "pass either a prebuilt scheme or partitioning knobs, not both"
            )
        with span("builder.table_build"):
            index = MarketBasketIndex(
                db,
                scheme,
                page_size=page_size,
                auto_compact_fraction=auto_compact_fraction,
            )
        build_span.set_attribute("num_signatures", scheme.num_signatures)
        build_span.set_attribute(
            "occupied_entries", index.table.num_entries_occupied
        )
    index._build_seconds = time.perf_counter() - started
    return index


class MarketBasketIndex:
    """A signature table plus its database, with incremental inserts.

    The query methods answer as a fresh build over the indexed rows plus
    the pending inserts would, tid for tid.  Their stats are the base
    scan's, with every pending insert charged to
    ``transactions_accessed`` and ``total_transactions``.
    """

    def __init__(
        self,
        db: TransactionDatabase,
        scheme: SignatureScheme,
        page_size: int = 64,
        auto_compact_fraction: float = 0.25,
    ) -> None:
        check_fraction(auto_compact_fraction, "auto_compact_fraction")
        self._db = db
        self._page_size = int(page_size)
        self._auto_compact_fraction = float(auto_compact_fraction)
        self._build_seconds = 0.0
        self._index(scheme)

    def _index(self, scheme: SignatureScheme) -> None:
        """(Re)build the table over ``self._db`` with an empty delta."""
        self._scheme = scheme
        self._table = SignatureTable.build(
            self._db, scheme, page_size=self._page_size
        )
        self._engine = QueryEngine.for_table(self._table, self._db)
        self._base_live = np.ones(len(self._db), dtype=bool)
        self._delta = DeltaIndex(scheme)

    # ------------------------------------------------------------------
    @property
    def db(self) -> TransactionDatabase:
        """The compacted (indexed) database; excludes the pending delta."""
        return self._db

    @property
    def scheme(self) -> SignatureScheme:
        """The signature scheme (item partition + activation threshold)."""
        return self._scheme

    @property
    def table(self) -> SignatureTable:
        """The underlying (compacted) signature table."""
        return self._table

    @property
    def delta_size(self) -> int:
        """Number of inserted transactions awaiting compaction."""
        return len(self._delta)

    def __len__(self) -> int:
        return len(self._db) + len(self._delta)

    def __getitem__(self, tid: int) -> frozenset:
        if tid < len(self._db):
            return self._db[tid]
        offset = tid - len(self._db)
        if 0 <= offset < len(self._delta):
            return frozenset(self._delta.live_arrays()[offset].tolist())
        raise IndexError(f"tid {tid} out of range [0, {len(self)})")

    def report(self) -> IndexBuildReport:
        """Build/footprint summary."""
        return IndexBuildReport(
            num_transactions=len(self),
            universe_size=self._db.universe_size,
            num_signatures=self._scheme.num_signatures,
            activation_threshold=self._scheme.activation_threshold,
            occupied_entries=self._table.num_entries_occupied,
            directory_bytes_dense=self._table.memory_bytes(dense=True),
            directory_bytes_sparse=self._table.memory_bytes(dense=False),
            build_seconds=self._build_seconds,
        )

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def insert(self, transaction: Iterable[int]) -> int:
        """Insert a transaction; returns its TID.

        The transaction lands in the in-memory delta and is immediately
        visible to queries.  When the delta outgrows
        ``auto_compact_fraction`` of the indexed size, the index compacts
        automatically.
        """
        items = as_item_array(transaction, self._db.universe_size)
        tid = len(self._db) + self._delta.insert(items)
        if len(self._delta) > self._auto_compact_fraction * max(len(self._db), 1):
            self.compact()
        return tid

    def compact(self) -> None:
        """Merge the delta into a freshly built table (TIDs are preserved)."""
        if not len(self._delta):
            return
        with span("builder.compact", delta_size=len(self._delta)):
            self._db = TransactionDatabase.concatenate([
                self._db,
                TransactionDatabase(
                    self._delta.live_arrays(),
                    universe_size=self._db.universe_size,
                ),
            ])
            self._index(self._scheme)

    def rebuild(self, scheme: Optional[SignatureScheme] = None, **partition_kwargs) -> None:
        """Compact and optionally re-partition (after distribution drift).

        Without arguments this re-learns the partition from the current
        data with the same ``K`` and activation threshold; a
        ``critical_mass`` in ``partition_kwargs`` lets ``K`` follow it.
        """
        self.compact()
        if scheme is None:
            overrides = dict(activation_threshold=self._scheme.activation_threshold)
            if "critical_mass" not in partition_kwargs:
                overrides["num_signatures"] = self._scheme.num_signatures
            overrides.update(partition_kwargs)
            scheme = partition_items(self._db, **overrides)
        self._index(scheme)

    # ------------------------------------------------------------------
    # Queries (base engine + delta merge)
    # ------------------------------------------------------------------
    def _read_state(self) -> ReadState:
        return ReadState(self._engine, self._base_live, self._delta.snapshot())

    def nearest(
        self,
        target: Iterable[int],
        similarity: SimilarityFunction,
        early_termination: Optional[float] = None,
        guarantee_tolerance: Optional[float] = None,
    ) -> Tuple[Optional[Neighbor], SearchStats]:
        """Most similar transaction (index + pending delta); the keywords
        are those of :meth:`knn`."""
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
    ) -> Tuple[List[Neighbor], SearchStats]:
        """k most similar transactions (index + pending delta).

        ``early_termination`` and ``guarantee_tolerance`` approximate the
        scan of the index as in :meth:`QueryEngine.knn_batch
        <repro.core.engine.QueryEngine.knn_batch>` (a row budget, and
        the a-posteriori optimality guarantee); the delta is always read
        whole.
        """
        (neighbors,), (stats,) = self._read_state().knn_batch(
            [as_item_array(target, self._db.universe_size)],
            similarity,
            k,
            early_termination=early_termination,
            guarantee_tolerance=guarantee_tolerance,
        )
        return neighbors, stats

    def range_query(
        self,
        target: Iterable[int],
        similarity: SimilarityFunction,
        threshold: float,
    ) -> Tuple[List[Neighbor], SearchStats]:
        """All transactions with similarity >= ``threshold`` (index +
        pending delta)."""
        (results,), (stats,) = self._read_state().range_query_batch(
            [as_item_array(target, self._db.universe_size)], similarity, threshold
        )
        return results, stats

    def multi_range_query(
        self,
        target: Iterable[int],
        constraints: Sequence[Tuple[SimilarityFunction, float]],
    ) -> Tuple[List[Neighbor], SearchStats]:
        """Conjunctive range query over several similarity functions
        (index + pending delta); see
        :meth:`QueryEngine.multi_range_query
        <repro.core.engine.QueryEngine.multi_range_query>`."""
        target = as_item_array(target, self._db.universe_size)
        state = self._read_state()
        results, stats = state.engine.multi_range_query(target, constraints)
        values = [state.delta.similarities(target, sim) for sim, _ in constraints]
        satisfied = np.logical_and.reduce(
            [v >= float(t) for v, (_, t) in zip(values, constraints)]
        )
        hits = [(int(r), float(values[0][r])) for r in np.flatnonzero(satisfied)]
        (merged,), (stats,) = state.merge([results], [stats], [hits])
        return merged, stats

    def multi_target_knn(
        self,
        targets: Sequence[Iterable[int]],
        similarity: SimilarityFunction,
        k: int = 1,
        aggregate: str = "mean",
        early_termination: Optional[float] = None,
        weights: Optional[Sequence[float]] = None,
    ) -> Tuple[List[Neighbor], SearchStats]:
        """k-NN under an aggregate of similarities to several targets
        (index + pending delta); see
        :meth:`QueryEngine.multi_target_knn
        <repro.core.engine.QueryEngine.multi_target_knn>`."""
        targets = [as_item_array(t, self._db.universe_size) for t in targets]
        state = self._read_state()
        neighbors, stats = state.engine.multi_target_knn(
            targets,
            similarity,
            k=k,
            aggregate=aggregate,
            early_termination=early_termination,
            weights=weights,
        )
        aggregator = target_aggregator(aggregate, len(targets), weights)
        values = np.stack([state.delta.similarities(t, similarity) for t in targets])
        hits = list(enumerate(aggregator(values).tolist()))
        (merged,), (stats,) = state.merge([neighbors], [stats], [hits], k=k)
        return merged, stats
