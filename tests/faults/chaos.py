"""Seeded chaos schedules and the acknowledged-op oracle (test support).

The chaos suites (``tests/faults``, ``tests/service``,
``tests/cluster``) and ``scripts/crash_recovery_smoke.py --with-faults``
import this module; nothing in ``repro`` does.

The chaos differential suite drives randomized mutation workloads
against a :class:`~repro.live.index.LiveIndex` whose WAL and checkpoint
I/O run through the errfs shims (:mod:`repro.faults.errfs`), then holds
the survivor to one invariant:

    the terminal logical database is **byte-identical** to replaying
    exactly the acknowledged mutations, in order, over the base —
    zero lost acks, zero duplicated applies.

:class:`AckedOracle` is that replay: it records an op only when the
index acknowledged it (returned normally), and :meth:`AckedOracle.expected_rows`
reproduces the logical row list the index must now hold.  Failed ops —
``OSError`` from an injected fault, or :class:`~repro.faults.plan.SimulatedCrash`
— are *not* recorded; whether their partial effects were rolled back
(writer rewind) or truncated away (crash recovery) is exactly what the
comparison checks.

:func:`run_errfs_schedule` is one self-contained schedule: seeded base
database, seeded fault plan, seeded workload of inserts / deletes /
checkpoints / compactions with retry-on-failure (re-using the op's
idempotency key, which exercises the dedupe table), simulated crashes
with recovery mid-stream, a final forced crash + recovery, and the
oracle verdict.  Everything derives from ``seed``, so a failing
schedule replays exactly.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.partitioning import partition_items
from repro.data.transaction import TransactionDatabase
from repro.faults.plan import FaultInjector, FaultPlan, FaultSpec, SimulatedCrash
from repro.live.index import LiveIndex
from repro.storage.codec import encode_transaction

#: (site, kinds) the errfs schedule generator draws faults from.
_FILE_FAULTS = (
    ("wal.write", ("eio", "enospc", "short_write", "torn_write", "crash")),
    ("wal.fsync", ("eio", "crash")),
    ("wal.truncate", ("eio",)),
    ("checkpoint.write", ("eio", "crash")),
    ("checkpoint.manifest", ("eio", "crash")),
)


class AckedOracle:
    """Replays exactly the acknowledged mutations over the base rows."""

    def __init__(self, base_db: TransactionDatabase) -> None:
        self._rows: List[np.ndarray] = [
            np.asarray(base_db.items_of(tid)) for tid in range(len(base_db))
        ]
        self.acked_inserts = 0
        self.acked_deletes = 0

    def __len__(self) -> int:
        return len(self._rows)

    def acked_insert(self, items) -> None:
        """One acknowledged insert (appends at the logical tail)."""
        self._rows.append(np.asarray(items))
        self.acked_inserts += 1

    def acked_delete(self, logical_tid: int) -> None:
        """One acknowledged delete of a logical tid."""
        del self._rows[int(logical_tid)]
        self.acked_deletes += 1

    def expected_rows(self) -> List[bytes]:
        """The logical rows, each in its exact encoded byte form."""
        return [bytes(encode_transaction(row)) for row in self._rows]

    def diff(self, db: TransactionDatabase) -> Optional[str]:
        """``None`` when ``db`` matches the acked replay byte-for-byte,
        else a human-readable description of the first divergence."""
        expected = self.expected_rows()
        actual = [
            bytes(encode_transaction(db.items_of(tid))) for tid in range(len(db))
        ]
        if len(expected) != len(actual):
            return (
                f"row count mismatch: expected {len(expected)} logical rows "
                f"from the acked replay, index holds {len(actual)}"
            )
        for tid, (want, got) in enumerate(zip(expected, actual)):
            if want != got:
                return f"row {tid} differs from the acked replay"
        return None


@dataclass
class ChaosSummary:
    """What one seeded schedule did, and whether the oracle held."""

    seed: int
    ops_attempted: int = 0
    acked: int = 0
    io_failures: int = 0
    crashes: int = 0
    recoveries: int = 0
    retries: int = 0
    dedupe_hits: int = 0
    faults_injected: int = 0
    verified: bool = False
    mismatch: Optional[str] = None
    fault_plan: Optional[dict] = field(default=None, repr=False)


def _random_plan(rng: random.Random, num_ops: int) -> FaultPlan:
    """Draw 1-3 one-shot fault specs over the file sites."""
    specs = []
    for _ in range(rng.randint(1, 3)):
        site, kinds = _FILE_FAULTS[rng.randrange(len(_FILE_FAULTS))]
        kind = kinds[rng.randrange(len(kinds))]
        specs.append(
            FaultSpec(
                site=site,
                kind=kind,
                after=rng.randint(1, max(2, num_ops)),
                nbytes=rng.randint(0, 24),
            )
        )
    return FaultPlan(specs=tuple(specs), seed=rng.randrange(2**31))


def _abandon(index: LiveIndex) -> None:
    """Drop an index as a crash would: close the raw fd, run no cleanup."""
    try:
        index.wal._file.close()
    except OSError:
        pass


def run_errfs_schedule(
    seed: int,
    root,
    num_ops: int = 40,
    base_rows: int = 24,
    universe_size: int = 24,
    num_signatures: int = 4,
) -> ChaosSummary:
    """Run one seeded errfs chaos schedule; returns its summary.

    ``root`` is a scratch directory; the schedule creates its own index
    directory under it.  Deterministic: the base data, the fault plan,
    and the workload all derive from ``seed``.
    """
    summary = ChaosSummary(seed=seed)
    data_rng = np.random.default_rng(seed)
    rng = random.Random(seed ^ 0x5EED)
    rows = [
        np.sort(
            data_rng.choice(
                universe_size, size=int(data_rng.integers(2, 7)), replace=False
            )
        )
        for _ in range(base_rows)
    ]
    base_db = TransactionDatabase(rows, universe_size=universe_size)
    scheme = partition_items(base_db, num_signatures=num_signatures, rng=0)
    plan = _random_plan(rng, num_ops)
    summary.fault_plan = plan.to_dict()
    injector = FaultInjector(plan)

    path = os.path.join(os.fspath(root), f"chaos-{seed}")
    index = LiveIndex.create(path, base_db, scheme=scheme, injector=injector)
    oracle = AckedOracle(base_db)
    client_id = f"chaos-{seed}"
    request_id = 0
    # The newest acked keyed insert, as (request_id, items, acked_tid):
    # re-issued after the terminal recovery to prove exactly-once
    # survives crash + recovery, not just retries.
    last_acked_insert = None

    def recover() -> LiveIndex:
        summary.crashes += 1
        _abandon(index)
        recovered = LiveIndex.recover(path, injector=injector)
        summary.recoveries += 1
        return recovered

    for _ in range(num_ops):
        summary.ops_attempted += 1
        roll = rng.random()
        total = len(oracle)
        if roll < 0.60 or total <= 2:
            op, payload = "insert", np.sort(
                data_rng.choice(
                    universe_size,
                    size=int(data_rng.integers(2, 7)),
                    replace=False,
                )
            )
        elif roll < 0.85:
            op, payload = "delete", rng.randrange(total)
        elif roll < 0.925:
            op, payload = "checkpoint", None
        else:
            op, payload = "compact", None
        if op in ("insert", "delete"):
            request_id += 1
        # Retry with the op's idempotency key until the outcome is
        # definite — exactly what a resilient client does after an
        # ambiguous failure.  One-shot fault specs exhaust, so four
        # attempts always suffice for a ≤3-spec plan.
        for attempt in range(4):
            if attempt:
                summary.retries += 1
            try:
                if op == "insert":
                    before = index.dedupe.hits
                    tid = index.insert(
                        payload, client_id=client_id, request_id=request_id
                    )
                    summary.dedupe_hits += index.dedupe.hits - before
                    oracle.acked_insert(payload)
                    assert tid == len(oracle) - 1, (
                        f"insert acked tid {tid}, oracle expects "
                        f"{len(oracle) - 1}"
                    )
                    last_acked_insert = (request_id, payload, tid)
                elif op == "delete":
                    before = index.dedupe.hits
                    index.delete(
                        payload, client_id=client_id, request_id=request_id
                    )
                    summary.dedupe_hits += index.dedupe.hits - before
                    oracle.acked_delete(payload)
                elif op == "checkpoint":
                    index.checkpoint()
                else:
                    index.compact()
                summary.acked += 1
                break
            except SimulatedCrash:
                index = recover()
                # The crash may have landed after the record reached the
                # OS but before the ack — an *ambiguous* outcome.  The
                # rebuilt dedupe table is the resolution protocol: a hit
                # means recovery replayed the op (it is durably applied,
                # count it as acknowledged); a miss means it never became
                # durable and the keyed retry below is safe.
                if op in ("insert", "delete"):
                    cached = index.dedupe.lookup(client_id, request_id)
                    if cached is not None:
                        summary.dedupe_hits += 1
                        if op == "insert":
                            oracle.acked_insert(payload)
                            last_acked_insert = (
                                request_id,
                                payload,
                                int(cached["tid"]),
                            )
                        else:
                            oracle.acked_delete(payload)
                        summary.acked += 1
                        break
            except OSError:
                # A surfaced I/O error is a *definite* failure: the WAL
                # rewound the partial record, nothing was applied.
                summary.io_failures += 1
            if op in ("checkpoint", "compact"):
                break  # unkeyed maintenance ops are not retried

    # Terminal forced crash + clean recovery, then the oracle verdict.
    _abandon(index)
    summary.crashes += 1
    injector.enabled = False
    final = LiveIndex.recover(path, injector=injector)
    summary.recoveries += 1
    summary.faults_injected = injector.injected

    # Exactly-once across crash + recovery: retransmitting an acked
    # keyed op must answer from the rebuilt dedupe table, returning the
    # original tid and touching nothing.
    if last_acked_insert is not None:
        rid, items, acked_tid = last_acked_insert
        size_before = len(final.logical_db())
        hits_before = final.dedupe.hits
        replay_tid = final.insert(items, client_id=client_id, request_id=rid)
        summary.dedupe_hits += final.dedupe.hits - hits_before
        if replay_tid != acked_tid or len(final.logical_db()) != size_before:
            summary.mismatch = (
                f"retransmit of acked insert (request_id={rid}) was not "
                f"deduplicated: tid {replay_tid} vs acked {acked_tid}"
            )
            summary.verified = False
            final.close()
            return summary

    summary.mismatch = oracle.diff(final.logical_db())
    summary.verified = summary.mismatch is None
    final.close()
    return summary
