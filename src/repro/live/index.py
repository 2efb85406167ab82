"""The live index: base segment + delta + tombstones + WAL, LSM-style.

:class:`LiveIndex` makes the frozen :class:`~repro.core.table.SignatureTable`
mutable without giving up its query algorithm or its results:

* **Inserts** go to the in-memory :class:`~repro.live.delta.DeltaIndex`
  after being made durable in the
  :class:`~repro.live.wal.WriteAheadLog`.
* **Deletes** address *logical* tids — positions in the logically-current
  database (live base rows in tid order, then live delta rows in
  insertion order).  A base delete adds a tombstone; a delta delete
  drops the row directly.
* **Queries** run a batch against one
  :class:`~repro.core.merge.ReadState`, snapshotted under the swap
  lock — the reader :class:`~repro.core.builder.MarketBasketIndex` uses
  too.  The base segment's :class:`~repro.core.engine.QueryEngine`
  scans the packed kernels with the live base rows as its candidate
  mask (intersected with each query's sketch probe under the lsh tier),
  so tombstones are never read; the delta snapshot answers with one
  packed pass over its rows; the two lists merge under the router's
  ``(-similarity, logical_tid)`` rule.  Exact results
  are byte-identical to a fresh :meth:`SignatureTable.build
  <repro.core.table.SignatureTable.build>` over the logical database —
  the differential oracle in ``tests/live`` pins it, including across
  crashes.
* **Compaction** rebuilds the base from the logical database, writes an
  atomic checkpoint (``.npz`` snapshot files + manifest rename), resets
  the WAL, and swaps segments under a short lock — readers are never
  blocked by the rebuild, writers wait (single-writer design).
* **Recovery** (:meth:`LiveIndex.recover`) loads the newest checkpoint
  and replays the WAL tail past its sequence number; a torn tail from a
  crash is truncated away.
* **Serving**: a :class:`~repro.service.server.QueryServer` serves the
  index itself — batches through :meth:`LiveIndex.run_batch`, ``stats``
  from :meth:`LiveIndex.describe`, metrics through
  :meth:`LiveIndex.bind_metrics`.

Concurrency model: one re-entrant *mutation lock* serialises
insert/delete/compact/checkpoint; a short *swap lock* guards the
segment references and is held only to snapshot state (readers) or to
swap it (compaction) — never across I/O or a rebuild.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.advisor import DriftReport, activation_drift
from repro.core.engine import (
    BatchKey,
    QueryEngine,
    _canonical_tier,
    check_batch_similarity,
    dispatch_batch,
)
from repro.core.merge import ReadState
from repro.core.search import Neighbor, SearchStats
from repro.core.signature import SignatureScheme
from repro.core.similarity import SimilarityFunction
from repro.core.table import SignatureTable
from repro.data.transaction import TransactionDatabase, as_item_array
from repro.live.dedupe import DedupeTable
from repro.live.delta import DeltaIndex
from repro.live.wal import WriteAheadLog, replay_wal
from repro.obs.trace import current_tracer, span
from repro.utils.validation import check_fraction, check_positive

#: Manifest schema version for the index directory.
MANIFEST_FORMAT_VERSION = 1

_MANIFEST = "manifest.json"
_WAL_FILE = "wal.log"


@dataclass(frozen=True)
class CompactionPolicy:
    """When the delta or the tombstones justify folding into the base.

    ``max_delta_fraction`` triggers on ``len(delta) / base_total`` and
    ``max_tombstone_fraction`` on the fraction of base rows tombstoned;
    ``min_delta_rows`` keeps tiny indexes from compacting on every
    insert.
    """

    max_delta_fraction: float = 0.10
    max_tombstone_fraction: float = 0.20
    min_delta_rows: int = 64

    def __post_init__(self) -> None:
        check_fraction(self.max_delta_fraction, "max_delta_fraction")
        check_fraction(self.max_tombstone_fraction, "max_tombstone_fraction")
        check_positive(self.min_delta_rows, "min_delta_rows")

    def should_compact(
        self, delta_rows: int, tombstones: int, base_total: int
    ) -> bool:
        """Whether the current live-index shape crosses a threshold."""
        base = max(base_total, 1)
        if (
            delta_rows >= self.min_delta_rows
            and delta_rows / base >= self.max_delta_fraction
        ):
            return True
        return tombstones / base >= self.max_tombstone_fraction


@dataclass(frozen=True)
class CompactionReport:
    """What one compaction did."""

    merged_inserts: int
    dropped_tombstones: int
    new_num_transactions: int
    applied_seqno: int
    duration_seconds: float
    repartitioned: bool


def _fsync_file(path: str) -> None:
    """Flush a freshly written file to the platter."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _fsync_dir(path: str) -> None:
    """Best-effort directory fsync (makes renames durable on POSIX)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


class LiveIndex:
    """A mutable, durable index over one immutable base segment.

    Construct with :meth:`create` (new directory) or :meth:`recover`
    (existing directory, possibly after a crash); the raw constructor is
    internal.  Thread-safe: any number of concurrent readers, one
    writer at a time.
    """

    def __init__(
        self,
        path: str,
        table: SignatureTable,
        db: TransactionDatabase,
        *,
        base_files: Tuple[str, str],
        applied_seqno: int,
        fsync_interval: int = 1,
        policy: Optional[CompactionPolicy] = None,
        injector=None,
        dedupe: Optional[DedupeTable] = None,
    ) -> None:
        self.path = os.fspath(path)
        self.policy = policy if policy is not None else CompactionPolicy()
        self._scheme = table.scheme
        self._page_size = table.store.page_size
        self._base_table = table
        self._base_db = db
        # The registry of bind_metrics, bound again to every engine a
        # compaction builds; `_metrics` holds its WAL/compaction series.
        self._registry = None
        self._metrics = None
        self._base_engine = self._engine_for(table, db)
        self._base_live = np.ones(len(db), dtype=bool)
        self._base_files = base_files
        self._delta = DeltaIndex(table.scheme)
        # Sketch tier (repro.sketch): when the base table carries a sketch
        # column, delta rows are signed on insert with the same hasher.
        # ``_delta_sigs`` is indexed by delta *position* (stable across
        # removes — DeltaIndex never renumbers), so signatures stay
        # aligned with their rows for the whole delta lifetime.
        self._sketch_hasher = (
            table.sketch.hasher if table.sketch is not None else None
        )
        self._delta_sigs: List[np.ndarray] = []
        self._injector = injector
        #: Idempotency-key table: a keyed mutation seen twice answers
        #: from here instead of re-applying (see :mod:`repro.live.dedupe`).
        self.dedupe = dedupe if dedupe is not None else DedupeTable()
        self._wal = WriteAheadLog(
            os.path.join(self.path, _WAL_FILE),
            fsync_interval=fsync_interval,
            injector=injector,
        )
        self._applied_seqno = int(applied_seqno)
        self._next_seqno = int(applied_seqno) + 1
        self._mutation_lock = threading.RLock()
        self._swap_lock = threading.Lock()
        self._closed = False
        self.compactions = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        path,
        db: TransactionDatabase,
        scheme: Optional[SignatureScheme] = None,
        table: Optional[SignatureTable] = None,
        page_size: int = 64,
        **options,
    ) -> "LiveIndex":
        """Initialise a new index directory over a base database.

        Exactly one of ``scheme`` (the table is built here) or ``table``
        (a prebuilt base) must be given.  Writes the initial checkpoint
        (base snapshot + manifest) and an empty WAL, then returns the
        open index.

        ``sketch=True`` (or a dict of :meth:`SketchIndex.build
        <repro.sketch.SketchIndex.build>` keyword arguments) attaches a
        sketch column to the base table before the initial snapshot,
        enabling ``candidate_tier="lsh"`` queries; the sketch persists
        with the base table and survives recovery.
        """
        if (scheme is None) == (table is None):
            raise ValueError("provide exactly one of scheme or table")
        sketch_option = options.pop("sketch", None)
        if table is None:
            table = SignatureTable.build(db, scheme, page_size=page_size)
        if sketch_option and table.sketch is None:
            from repro.sketch import SketchIndex

            params = {} if sketch_option is True else dict(sketch_option)
            table.attach_sketch(SketchIndex.build(db, **params))
        path = os.fspath(path)
        os.makedirs(path, exist_ok=True)
        if os.path.exists(os.path.join(path, _MANIFEST)):
            raise ValueError(
                f"{path!r} already holds a live index; use LiveIndex.recover"
            )
        base_files = cls._write_base_snapshot(path, 0, table, db)
        cls._commit_manifest(
            path,
            applied_seqno=0,
            base_files=base_files,
            page_size=table.store.page_size,
        )
        wal_path = os.path.join(path, _WAL_FILE)
        with open(wal_path, "wb"):
            pass
        return cls(
            path,
            table,
            db,
            base_files=base_files,
            applied_seqno=0,
            **options,
        )

    @classmethod
    def recover(cls, path, **options) -> "LiveIndex":
        """Open an index directory, replaying the WAL tail after a crash.

        Loads the checkpointed base (and any checkpointed delta /
        tombstones), then re-applies every WAL record with a sequence
        number past the checkpoint.  A torn record at the WAL tail —
        the signature of a crash mid-append — ends the replay cleanly
        and is truncated away; the reconstructed state is exactly the
        acknowledged-mutation state at the moment of the crash.
        """
        path = os.fspath(path)
        manifest_path = os.path.join(path, _MANIFEST)
        if not os.path.exists(manifest_path):
            raise FileNotFoundError(f"no live index at {path!r} ({_MANIFEST} missing)")
        started_s = time.perf_counter()
        with open(manifest_path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
        version = int(manifest.get("format_version", 0))
        if version > MANIFEST_FORMAT_VERSION:
            raise ValueError(
                f"index manifest has format_version {version}, but this build "
                f"reads at most {MANIFEST_FORMAT_VERSION}"
            )
        table = SignatureTable.load(os.path.join(path, manifest["base_table"]))
        db = TransactionDatabase.load(os.path.join(path, manifest["base_db"]))
        applied = int(manifest["applied_seqno"])
        index = cls(
            path,
            table,
            db,
            base_files=(manifest["base_table"], manifest["base_db"]),
            applied_seqno=applied,
            **options,
        )
        if manifest.get("tombstones"):
            dead = np.load(os.path.join(path, manifest["tombstones"]))["tids"]
            for tid in dead.tolist():
                index._base_live[int(tid)] = False
        if manifest.get("delta_db"):
            delta_db = TransactionDatabase.load(
                os.path.join(path, manifest["delta_db"])
            )
            for tid in range(len(delta_db)):
                index._delta_insert(delta_db.items_of(tid))
        if manifest.get("dedupe"):
            # Checkpointed idempotency keys sit under any keyed WAL
            # records replayed below, so a retransmitted mutation from
            # before the checkpoint still answers from the table.
            with open(
                os.path.join(path, manifest["dedupe"]), "r", encoding="utf-8"
            ) as handle:
                index.dedupe = DedupeTable.from_json(json.load(handle))
        records, valid_bytes = replay_wal(index._wal.path)
        replayed = 0
        for record in records:
            if record.seqno <= applied:
                continue  # already folded into the checkpoint
            index._apply(record)
            index._next_seqno = record.seqno + 1
            replayed += 1
        if valid_bytes < os.path.getsize(index._wal.path):
            # Torn tail: drop the partial record so future appends start
            # at a clean boundary.
            index._wal.close()
            with open(index._wal.path, "rb+") as handle:
                handle.truncate(valid_bytes)
                handle.flush()
                os.fsync(handle.fileno())
            index._wal = WriteAheadLog(
                index._wal.path,
                fsync_interval=index._wal.fsync_interval,
                injector=index._injector,
            )
        tracer = current_tracer()
        if tracer is not None:
            tracer.record(
                "live.recover",
                started_s,
                time.perf_counter(),
                replayed=replayed,
                applied_seqno=applied,
                wal_bytes=valid_bytes,
            )
        return index

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def scheme(self) -> SignatureScheme:
        """The signature scheme shared by base and delta."""
        return self._scheme

    @property
    def base_table(self) -> SignatureTable:
        """The current immutable base segment."""
        return self._base_table

    @property
    def num_transactions(self) -> int:
        """Logical size: live base rows plus live delta rows."""
        with self._swap_lock:
            return int(self._base_live.sum()) + len(self._delta)

    @property
    def delta_size(self) -> int:
        """Live rows currently in the delta."""
        return len(self._delta)

    @property
    def tombstone_count(self) -> int:
        """Base rows deleted but not yet compacted away."""
        return int(self._base_live.size - self._base_live.sum())

    @property
    def universe_size(self) -> int:
        """Targets and inserts may name items in ``[0, universe_size)`` only."""
        return self._scheme.universe_size

    @property
    def supports_lsh_tier(self) -> bool:
        """Whether the base table carries a sketch column, so
        ``candidate_tier="lsh"`` queries can run."""
        return self._base_table.sketch is not None

    def logical_sketch_signatures(self) -> Optional[np.ndarray]:
        """Sketch signatures of the logical database, row-aligned with
        :meth:`logical_db` (``None`` when no sketch is attached).

        The differential harness in ``tests/sketch`` compares this
        against a fresh ``sign_batch`` over :meth:`logical_db` to pin
        signature consistency across insert/delete/compact/recover.
        """
        with self._swap_lock:
            sketch = self._base_table.sketch
            if sketch is None:
                return None
            base_sigs = sketch.signatures[self._base_live]
            positions = self._delta.live_positions()
            delta_sigs = [self._delta_sigs[p] for p in positions]
        if not delta_sigs:
            return base_sigs
        return np.vstack([base_sigs, np.stack(delta_sigs)])

    @property
    def applied_seqno(self) -> int:
        """Highest sequence number folded into the checkpoint on disk."""
        return self._applied_seqno

    @property
    def wal(self) -> WriteAheadLog:
        """The write-ahead log (for I/O accounting and tests)."""
        return self._wal

    def describe(self) -> Dict[str, object]:
        """JSON-safe description for the service ``stats`` endpoint."""
        with self._swap_lock:
            base_live = int(self._base_live.sum())
            delta = len(self._delta)
        return {
            "kind": "live",
            "num_transactions": base_live + delta,
            "base_transactions": int(self._base_live.size),
            "delta_size": delta,
            "tombstones": int(self._base_live.size - base_live),
            "wal_bytes": self._wal.size_bytes,
            "applied_seqno": self._applied_seqno,
            "compactions": self.compactions,
            "dedupe_entries": len(self.dedupe),
            "num_signatures": self._scheme.num_signatures,
            "universe_size": self._scheme.universe_size,
            "sketch_enabled": self.supports_lsh_tier,
        }

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------
    def insert(
        self,
        items: Iterable[int],
        client_id: Optional[str] = None,
        request_id: Optional[int] = None,
    ) -> int:
        """Durably insert a transaction; returns its logical tid.

        The WAL append happens *before* the in-memory apply, so an
        acknowledged insert is always recoverable.  With an idempotency
        key (``client_id`` + ``request_id``) the insert is
        *exactly-once*: a retransmission of an already-applied key
        answers with the originally acknowledged tid and changes
        nothing, even across crash + recovery (the key rides the WAL
        record and the checkpoint).
        """
        array = as_item_array(items, self._scheme.universe_size)
        if array.size == 0:
            raise ValueError("cannot insert an empty transaction")
        keyed = client_id is not None and request_id is not None
        with self._mutation_lock:
            self._check_open()
            if keyed:
                cached = self.dedupe.lookup(client_id, request_id)
                if cached is not None:
                    return int(cached["tid"])
            with span("live.insert", num_items=int(array.size)):
                seqno = self._next_seqno
                appended = self._wal.append_insert(
                    seqno,
                    array,
                    client_id=client_id if keyed else None,
                    request_id=request_id if keyed else None,
                )
                self._next_seqno = seqno + 1
                with self._swap_lock:
                    self._delta_insert(array)
                    logical = (
                        int(self._base_live.sum()) + len(self._delta) - 1
                    )
                if keyed:
                    self.dedupe.record(
                        client_id, request_id, {"tid": int(logical)}
                    )
            self._record_wal_metrics(appended)
            return logical

    def delete(
        self,
        logical_tid: int,
        client_id: Optional[str] = None,
        request_id: Optional[int] = None,
    ) -> None:
        """Durably delete the transaction at a logical tid.

        Logical tids address the *current* logical database (live base
        rows in tid order, then live delta rows in insertion order) —
        the numbering a fresh build over the current state would use.
        Raises :class:`ValueError` when the tid is out of range (nothing
        is logged in that case).  With an idempotency key a
        retransmission of an applied delete is a no-op — crucial here,
        since blindly re-applying it would delete whichever *different*
        row now occupies that logical tid.
        """
        with self._mutation_lock:
            self._check_open()
            logical_tid = int(logical_tid)
            keyed = client_id is not None and request_id is not None
            if keyed and self.dedupe.lookup(client_id, request_id) is not None:
                return
            num_live = int(self._base_live.sum())
            total = num_live + len(self._delta)
            if not 0 <= logical_tid < total:
                raise ValueError(
                    f"logical tid {logical_tid} out of range [0, {total})"
                )
            with span("live.delete", logical_tid=logical_tid):
                seqno = self._next_seqno
                appended = self._wal.append_delete(
                    seqno,
                    logical_tid,
                    client_id=client_id if keyed else None,
                    request_id=request_id if keyed else None,
                )
                self._next_seqno = seqno + 1
                with self._swap_lock:
                    self._apply_delete(logical_tid)
                if keyed:
                    self.dedupe.record(
                        client_id, request_id, {"deleted": int(logical_tid)}
                    )
            self._record_wal_metrics(appended)

    def _apply(self, record) -> None:
        """Re-apply one WAL record during recovery (no re-logging).

        Keyed records also repopulate the dedupe table; replay visits
        the same intermediate states as the original run, so the logical
        tid recorded for a keyed insert equals the originally
        acknowledged one.
        """
        if record.is_insert:
            with self._swap_lock:
                self._delta_insert(record.items)
                logical = int(self._base_live.sum()) + len(self._delta) - 1
            if record.key is not None:
                self.dedupe.record(
                    record.client_id, record.request_id, {"tid": logical}
                )
        elif record.is_delete:
            with self._swap_lock:
                self._apply_delete(int(record.logical_tid))
            if record.key is not None:
                self.dedupe.record(
                    record.client_id,
                    record.request_id,
                    {"deleted": int(record.logical_tid)},
                )
        else:  # pragma: no cover - encode_record rejects unknown ops
            raise ValueError(f"unknown WAL op {record.op}")

    def _delta_insert(self, array: np.ndarray) -> None:
        """Insert one delta row, keeping the sketch column aligned.

        The single funnel for delta inserts — live writes, WAL replay,
        and checkpointed-delta rehydration all pass through here, so the
        signature list stays position-aligned by construction no matter
        how the row arrived.
        """
        self._delta.insert(array)
        if self._sketch_hasher is not None:
            self._delta_sigs.append(self._sketch_hasher.sign(array))

    def _apply_delete(self, logical_tid: int) -> None:
        """Resolve and apply a delete against the current state.

        Caller holds the swap lock.  Deterministic given the same state
        and the same op sequence — the property WAL replay relies on.
        """
        num_live = int(self._base_live.sum())
        if logical_tid < num_live:
            base_tid = int(np.nonzero(self._base_live)[0][logical_tid])
            self._base_live[base_tid] = False
        else:
            rank = logical_tid - num_live
            positions = self._delta.live_positions()
            if rank >= len(positions):
                raise ValueError(
                    f"logical tid {logical_tid} out of range"
                )
            self._delta.remove(positions[rank])

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _read_state(self) -> ReadState:
        with self._swap_lock:
            return ReadState(
                self._base_engine,
                self._base_live.copy(),
                self._delta.snapshot(),
            )

    def knn_batch(
        self,
        targets: Sequence[Iterable[int]],
        similarity: SimilarityFunction,
        k: int = 1,
        early_termination: Optional[float] = None,
        guarantee_tolerance: Optional[float] = None,
        candidate_tier: str = "exact",
        target_recall: Optional[float] = None,
    ) -> Tuple[List[List[Neighbor]], List[SearchStats]]:
        """k-NN over the logical database for every target; tids in
        results are logical.

        The batch reads one :class:`~repro.core.merge.ReadState`, so it
        sees each concurrent mutation entirely or not at all.  Exact
        queries (no ``early_termination``) are byte-identical to a fresh
        build over the logical database; early termination approximates
        the base scan as in the frozen engine (the delta is read whole).

        ``candidate_tier="lsh"`` restricts each base scan to its sketch
        probe's live candidates at ``target_recall``; results become
        approximate and the stats carry ``estimated_recall`` with
        ``guaranteed_optimal=False``.
        """
        check_positive(k, "k")
        candidate_tier, target_recall = _canonical_tier(candidate_tier, target_recall)
        targets = [as_item_array(t, self._scheme.universe_size) for t in targets]
        if not targets:
            return [], []
        return self._read_state().knn_batch(
            targets,
            similarity,
            k,
            early_termination=early_termination,
            guarantee_tolerance=guarantee_tolerance,
            candidate_tier=candidate_tier,
            target_recall=target_recall,
        )

    def range_query_batch(
        self,
        targets: Sequence[Iterable[int]],
        similarity: SimilarityFunction,
        threshold: float,
        candidate_tier: str = "exact",
        target_recall: Optional[float] = None,
    ) -> Tuple[List[List[Neighbor]], List[SearchStats]]:
        """All logical transactions with similarity >= ``threshold``, for
        every target; the read state and ``candidate_tier`` behave as in
        :meth:`knn_batch`."""
        candidate_tier, target_recall = _canonical_tier(candidate_tier, target_recall)
        targets = [as_item_array(t, self._scheme.universe_size) for t in targets]
        if not targets:
            return [], []
        return self._read_state().range_query_batch(
            targets,
            similarity,
            threshold,
            candidate_tier=candidate_tier,
            target_recall=target_recall,
        )

    def knn(
        self, target: Iterable[int], similarity: SimilarityFunction, k: int = 1,
        **options,
    ) -> Tuple[List[Neighbor], SearchStats]:
        """:meth:`knn_batch` for one target (same keyword options)."""
        results, stats = self.knn_batch([target], similarity, k, **options)
        return results[0], stats[0]

    def range_query(
        self, target: Iterable[int], similarity: SimilarityFunction,
        threshold: float, **options,
    ) -> Tuple[List[Neighbor], SearchStats]:
        """:meth:`range_query_batch` for one target (same keyword options)."""
        results, stats = self.range_query_batch(
            [target], similarity, threshold, **options
        )
        return results[0], stats[0]

    def run_batch(
        self,
        key: BatchKey,
        similarity: SimilarityFunction,
        targets: Sequence[Iterable[int]],
    ) -> Tuple[List[List[Neighbor]], List[SearchStats]]:
        """Execute one coalesced service batch, the contract of
        :meth:`QueryEngine.run_batch
        <repro.core.engine.QueryEngine.run_batch>`: one
        :meth:`knn_batch` / :meth:`range_query_batch` call, so the batch
        sees each concurrent mutation entirely or not at all."""
        check_batch_similarity(key, similarity)
        return dispatch_batch(self, key, similarity, targets)

    def logical_db(self) -> TransactionDatabase:
        """Materialise the logically-current database.

        Row ``t`` is the transaction a fresh build would index at tid
        ``t`` — the differential oracle compares against exactly this.
        """
        with self._swap_lock:
            live_tids = np.nonzero(self._base_live)[0]
            delta_arrays = self._delta.live_arrays()
            base_db = self._base_db
        parts = [base_db.subset(live_tids)]
        if delta_arrays:
            parts.append(
                TransactionDatabase(
                    delta_arrays, universe_size=base_db.universe_size
                )
            )
        return TransactionDatabase.concatenate(parts)

    # ------------------------------------------------------------------
    # Drift
    # ------------------------------------------------------------------
    def drift_report(self, kl_threshold: float = 0.1) -> Optional[DriftReport]:
        """Compare delta vs base per-signature activation distributions.

        Returns ``None`` while the delta is empty.  The base side is the
        live base rows at the time of the call, so one logical state
        gets one verdict, before or after a restart.  A drifted report
        recommends re-partitioning at the next compaction
        (``compact(repartition=True)``).
        """
        with self._swap_lock:
            delta_fractions = self._delta.activation_fractions()
            num_delta = len(self._delta)
            live = self._base_live.copy()
            base_db, scheme = self._base_db, self._scheme
        if delta_fractions is None:
            return None
        counts = scheme.activation_counts_batch(base_db)
        active = counts >= scheme.activation_threshold
        base_fractions = (
            active[live].mean(axis=0)
            if live.any()
            else np.zeros(scheme.num_signatures)
        )
        return activation_drift(
            base_fractions,
            delta_fractions,
            num_delta=num_delta,
            kl_threshold=kl_threshold,
        )

    # ------------------------------------------------------------------
    # Compaction / checkpoint
    # ------------------------------------------------------------------
    def should_compact(self) -> bool:
        """Whether the configured :class:`CompactionPolicy` triggers."""
        with self._swap_lock:
            return self.policy.should_compact(
                len(self._delta),
                int(self._base_live.size - self._base_live.sum()),
                int(self._base_live.size),
            )

    def maybe_compact(self) -> Optional[CompactionReport]:
        """Compact inline if the policy triggers; returns the report."""
        if not self.should_compact():
            return None
        return self.compact()

    def compact_in_background(self) -> threading.Thread:
        """Run :meth:`compact` on a daemon thread; returns the thread.

        Readers proceed throughout (the rebuild happens outside the swap
        lock); writers block until the compaction finishes.
        """
        thread = threading.Thread(
            target=self.compact, name="repro-live-compact", daemon=True
        )
        thread.start()
        return thread

    def compact(self, repartition: bool = False) -> CompactionReport:
        """Fold delta + tombstones into a fresh base segment.

        Rebuilds the base table over the logical database, writes an
        atomic checkpoint, resets the WAL, and swaps the segments in
        under the swap lock.  With ``repartition=True`` the signature
        partition is re-learned from the merged data first (the drift
        advisor's recommendation); the scheme keeps its ``K`` and ``r``.
        """
        started_s = time.perf_counter()
        with self._mutation_lock:
            self._check_open()
            with span("live.compact", repartition=repartition):
                merged_inserts = len(self._delta)
                dropped = int(self._base_live.size - self._base_live.sum())
                new_db = self.logical_db()
                if len(new_db) == 0:
                    raise ValueError(
                        "cannot compact an empty logical database; "
                        "insert before compacting"
                    )
                scheme = self._scheme
                if repartition:
                    from repro.core.partitioning import partition_items

                    scheme = partition_items(
                        new_db,
                        num_signatures=self._scheme.num_signatures,
                        activation_threshold=self._scheme.activation_threshold,
                        rng=0,
                    )
                new_table = SignatureTable.build(
                    new_db, scheme, page_size=self._page_size
                )
                old_sketch = self._base_table.sketch
                if old_sketch is not None:
                    # Signatures are a pure function of the items, so the
                    # compacted sketch is a re-ordering of rows we already
                    # have: live base rows in tid order, then live delta
                    # rows in insertion order — the logical_db() order.
                    from repro.sketch import SketchIndex

                    parts = [old_sketch.signatures[self._base_live]]
                    positions = self._delta.live_positions()
                    if positions:
                        parts.append(
                            np.stack([self._delta_sigs[p] for p in positions])
                        )
                    new_table.attach_sketch(
                        SketchIndex(
                            old_sketch.hasher,
                            np.vstack(parts),
                            num_bands=old_sketch.bands.num_bands,
                            rows_per_band=old_sketch.bands.rows_per_band,
                            design_similarity=old_sketch.design_similarity,
                        )
                    )
                applied = self._next_seqno - 1
                self._fault_gate("checkpoint.write")
                base_files = self._write_base_snapshot(
                    self.path, applied, new_table, new_db
                )
                dedupe_file = self._write_dedupe_snapshot(applied)
                self._fault_gate("checkpoint.manifest")
                self._commit_manifest(
                    self.path,
                    applied_seqno=applied,
                    base_files=base_files,
                    page_size=self._page_size,
                    dedupe=dedupe_file,
                )
                self._wal.reset()
                new_engine = self._engine_for(new_table, new_db)
                with self._swap_lock:
                    self._base_table = new_table
                    self._base_db = new_db
                    self._base_engine = new_engine
                    self._base_live = np.ones(len(new_db), dtype=bool)
                    self._base_files = base_files
                    self._delta.clear()
                    self._delta_sigs = []
                    self._scheme = scheme
                    self._delta.scheme = scheme
                    self._applied_seqno = applied
                self.compactions += 1
        duration = time.perf_counter() - started_s
        if self._metrics is not None:
            self._metrics["compactions"].inc()
            self._metrics["compaction_seconds"].observe(duration)
        return CompactionReport(
            merged_inserts=merged_inserts,
            dropped_tombstones=dropped,
            new_num_transactions=len(new_db),
            applied_seqno=applied,
            duration_seconds=duration,
            repartitioned=repartition,
        )

    def checkpoint(self) -> int:
        """Snapshot the full state (base + delta + tombstones), reset the WAL.

        Unlike :meth:`compact`, the in-memory segments are untouched —
        the delta stays a delta.  Durability only: recovery after this
        point starts from the snapshot with an empty log.  Returns the
        checkpointed sequence number.
        """
        started_s = time.perf_counter()
        with self._mutation_lock:
            self._check_open()
            with span("live.checkpoint"):
                applied = self._next_seqno - 1
                stamp = f"{applied:012d}"
                delta_file: Optional[str] = None
                tombstone_file: Optional[str] = None
                self._fault_gate("checkpoint.write")
                delta_arrays = self._delta.live_arrays()
                if delta_arrays:
                    delta_file = f"state-{stamp}.delta.npz"
                    TransactionDatabase(
                        delta_arrays,
                        universe_size=self._scheme.universe_size,
                    ).save(os.path.join(self.path, delta_file))
                    _fsync_file(os.path.join(self.path, delta_file))
                dead = np.nonzero(~self._base_live)[0]
                if dead.size:
                    tombstone_file = f"state-{stamp}.tombstones.npz"
                    np.savez_compressed(
                        os.path.join(self.path, tombstone_file), tids=dead
                    )
                    _fsync_file(os.path.join(self.path, tombstone_file))
                dedupe_file = self._write_dedupe_snapshot(applied)
                self._fault_gate("checkpoint.manifest")
                self._commit_manifest(
                    self.path,
                    applied_seqno=applied,
                    base_files=self._base_files,
                    page_size=self._page_size,
                    delta_db=delta_file,
                    tombstones=tombstone_file,
                    dedupe=dedupe_file,
                )
                self._wal.reset()
                self._applied_seqno = applied
        if self._metrics is not None:
            self._metrics["compaction_seconds"].observe(
                time.perf_counter() - started_s
            )
        return applied

    # ------------------------------------------------------------------
    # Persistence internals
    # ------------------------------------------------------------------
    def _fault_gate(self, site: str) -> None:
        """Fault-injection gate for a checkpoint step (no-op in production)."""
        if self._injector is None:
            return
        from repro.faults.errfs import checkpoint_fault

        checkpoint_fault(self._injector, site)

    def _write_dedupe_snapshot(self, applied: int) -> Optional[str]:
        """Persist the dedupe table beside a checkpoint (which resets the
        WAL — the keys riding it would otherwise be lost)."""
        if len(self.dedupe) == 0:
            return None
        name = f"state-{applied:012d}.dedupe.json"
        full = os.path.join(self.path, name)
        with open(full, "w", encoding="utf-8") as handle:
            json.dump(self.dedupe.to_json(), handle)
            handle.flush()
            os.fsync(handle.fileno())
        return name

    @staticmethod
    def _write_base_snapshot(
        path: str, seqno: int, table: SignatureTable, db: TransactionDatabase
    ) -> Tuple[str, str]:
        stamp = f"{seqno:012d}"
        table_file = f"base-{stamp}.table.npz"
        db_file = f"base-{stamp}.db.npz"
        table.save(os.path.join(path, table_file))
        _fsync_file(os.path.join(path, table_file))
        db.save(os.path.join(path, db_file))
        _fsync_file(os.path.join(path, db_file))
        return table_file, db_file

    @staticmethod
    def _commit_manifest(
        path: str,
        applied_seqno: int,
        base_files: Tuple[str, str],
        page_size: int,
        delta_db: Optional[str] = None,
        tombstones: Optional[str] = None,
        dedupe: Optional[str] = None,
    ) -> None:
        """Atomically publish a new manifest (the checkpoint commit point)."""
        manifest = {
            "format_version": MANIFEST_FORMAT_VERSION,
            "applied_seqno": int(applied_seqno),
            "base_table": base_files[0],
            "base_db": base_files[1],
            "delta_db": delta_db,
            "tombstones": tombstones,
            "dedupe": dedupe,
            "page_size": int(page_size),
        }
        tmp = os.path.join(path, _MANIFEST + ".tmp")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, os.path.join(path, _MANIFEST))
        _fsync_dir(path)

    # ------------------------------------------------------------------
    # Metrics / lifecycle
    # ------------------------------------------------------------------
    def bind_metrics(self, registry) -> None:
        """Export this index's metrics into ``registry``: the WAL,
        delta and compaction series, and the base engine's
        (:meth:`QueryEngine.bind_metrics
        <repro.core.engine.QueryEngine.bind_metrics>`: sketch candidates
        and access fraction), now and after every compaction.  A server
        binds its registry here at startup."""
        self._metrics = {
            "appends": registry.counter(
                "repro_wal_appends_total", "WAL records appended"
            ),
            "bytes": registry.counter(
                "repro_wal_bytes_total", "WAL bytes appended"
            ),
            "compactions": registry.counter(
                "repro_live_compactions_total", "Compactions completed"
            ),
            "compaction_seconds": registry.histogram(
                "repro_live_compaction_seconds",
                "Compaction / checkpoint duration",
            ),
        }
        registry.gauge(
            "repro_live_delta_size", "Live rows in the delta index"
        ).set_function(lambda: float(len(self._delta)))
        registry.gauge(
            "repro_live_tombstones", "Tombstoned base rows"
        ).set_function(
            lambda: float(self._base_live.size - self._base_live.sum())
        )
        registry.gauge(
            "repro_wal_fsyncs", "fsync calls issued by the WAL"
        ).set_function(lambda: float(self._wal.counters.fsyncs))
        with self._mutation_lock:  # a compaction cannot swap in between
            self._registry = registry
            self._base_engine.bind_metrics(registry)

    def _record_wal_metrics(self, appended_bytes: int) -> None:
        if self._metrics is not None:
            self._metrics["appends"].inc()
            self._metrics["bytes"].inc(appended_bytes)

    def _engine_for(
        self, table: SignatureTable, db: TransactionDatabase
    ) -> QueryEngine:
        """A base segment's engine, bound to the :meth:`bind_metrics`
        registry."""
        engine = QueryEngine(table, db)
        if self._registry is not None:
            engine.bind_metrics(self._registry)
        return engine

    def probe(self) -> bool:
        """One durability probe: is the WAL writable and syncable again?

        The server's degraded mode calls this before re-admitting
        mutations after a WAL/checkpoint write failure.  Never raises.
        """
        with self._mutation_lock:
            if self._closed:
                return False
            return self._wal.probe()

    def _check_open(self) -> None:
        if self._closed:
            raise ValueError("live index is closed")

    def close(self) -> None:
        """Flush and close the WAL (idempotent); queries stay usable."""
        with self._mutation_lock:
            if not self._closed:
                self._wal.close()
                self._closed = True

    def __enter__(self) -> "LiveIndex":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
