"""Live index maintenance: WAL-backed delta index with background compaction.

The base :class:`~repro.core.table.SignatureTable` is immutable — built
once over a frozen database.  This package layers a *mutable* index on
top of it, LSM-style:

* :class:`~repro.live.wal.WriteAheadLog` — an append-only log of
  inserts/deletes (length-prefixed, CRC32-protected records using the
  :mod:`repro.storage.codec` varint encoding) that makes every
  acknowledged mutation durable;
* :class:`~repro.live.delta.DeltaIndex` — recently inserted
  transactions held in memory as packed bitset rows, read whole by one
  AND + popcount pass per query;
* :class:`~repro.live.index.LiveIndex` — the composite: base segment +
  delta + tombstones + WAL, with crash recovery
  (:meth:`~repro.live.index.LiveIndex.recover`), atomic checkpoints and
  background compaction that swaps segments without blocking readers;
* :class:`~repro.live.engine.LiveQueryEngine` — the ``run_batch``
  adapter that lets the query service's micro-batcher serve a live
  index exactly as it serves a frozen one.

Queries scan the base on the packed kernels with the tombstones masked
out, read the delta whole, and merge under the deterministic
``(-similarity, tid)`` order — results are byte-identical to rebuilding
a fresh table over the logically-current database (the differential
oracle pinned by ``tests/live``).
"""

from repro.live.delta import DeltaIndex
from repro.live.engine import LiveQueryEngine
from repro.live.index import CompactionPolicy, CompactionReport, LiveIndex
from repro.live.wal import WalRecord, WriteAheadLog, replay_wal

__all__ = [
    "CompactionPolicy",
    "CompactionReport",
    "DeltaIndex",
    "LiveIndex",
    "LiveQueryEngine",
    "WalRecord",
    "WriteAheadLog",
    "replay_wal",
]
