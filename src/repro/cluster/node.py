"""Shard-node server: a :class:`QueryServer` that speaks the cluster ops.

A :class:`ClusterNodeServer` serves one shard's live index.  Owners
serve queries and mutations exactly like a single-node server (the
served index is usually a
:class:`~repro.cluster.replication.ReplicatedLiveIndex`, so acks imply
replica durability).  Replicas serve their plain
:class:`~repro.live.index.LiveIndex` and answer every client mutation
``unavailable`` until promoted — their state advances only through
``replicate`` batches from the owner.

``promote`` flips a replica to owner during failover.  From that
moment it accepts mutations — and *refuses* further ``replicate``
batches, which fences a stale owner: the old owner's synchronous ship
fails, so it can never ack a mutation the promoted node won't have.

The node additionally serves ``role`` (introspection) and ``rows``
(raw transaction fetch by local tid, the router's rebalance primitive).
"""

from __future__ import annotations

import asyncio
import base64
import binascii
import functools
from typing import Optional, Tuple

from repro.cluster.replication import ReplicaApplier
from repro.service import frames
from repro.service.protocol import MUTATION_OPS
from repro.service.server import QueryServer

__all__ = ["ClusterNodeServer"]


class ClusterNodeServer(QueryServer):
    """One shard's node process (owner or warm replica).

    Accepts every :class:`QueryServer` option plus:

    shard:
        The shard name this node carries (stamped on metrics and acks).
    role:
        ``"owner"`` (default) or ``"replica"``.
    """

    REQUEST_FRAME_TYPES: Tuple[int, ...] = QueryServer.REQUEST_FRAME_TYPES + (
        frames.FRAME_REPLICATE,
    )

    def __init__(self, index, shard: str = "shard", role: str = "owner",
                 **options) -> None:
        if role not in ("owner", "replica"):
            raise ValueError(f"role must be 'owner' or 'replica', got {role!r}")
        super().__init__(index, **options)
        self.shard = str(shard)
        self.role = role
        self.applier: Optional[ReplicaApplier] = (
            ReplicaApplier(index) if role == "replica" else None
        )
        registry = self.metrics.registry
        node = f"{self.shard}/{role}"
        self._replicated_counter = registry.counter(
            "repro_cluster_replicated_records_total",
            "WAL records applied from replication batches",
            labelnames=("node", "shard"),
        ).labels(node=node, shard=self.shard)
        self._promotions_counter = registry.counter(
            "repro_cluster_promotions_total",
            "Replica-to-owner promotions served",
            labelnames=("node", "shard"),
        ).labels(node=node, shard=self.shard)
        registry.gauge(
            "repro_cluster_node_role",
            "1 while this node is the shard owner, else 0",
            labelnames=("node", "shard"),
        ).labels(node=node, shard=self.shard).set_function(
            lambda: 1.0 if self.role == "owner" else 0.0
        )

    # ------------------------------------------------------------------
    async def _dispatch(self, message, writer, write_lock, conn) -> None:
        op = message["op"]
        if self.role == "replica" and op in MUTATION_OPS:
            # Warm replicas advance only through replication; a direct
            # mutation would fork them from the owner.  ``unavailable``
            # is deliberate — it is retryable, so a client that keeps
            # retrying through a failover succeeds once promotion lands.
            self.metrics.record_rejection("unavailable")
            await self._send(
                writer,
                write_lock,
                conn.encode_error(
                    message.get("id"),
                    "unavailable",
                    f"node {self.shard!r} is a replica; mutations go to "
                    "the shard owner",
                ),
            )
            return
        await super()._dispatch(message, writer, write_lock, conn)

    async def _dispatch_cluster(self, message, writer, write_lock, conn) -> bool:
        op = message["op"]
        request_id = message.get("id")
        if op == "replicate":
            await self._serve_replicate(message, writer, write_lock, conn)
            return True
        if op == "promote":
            if self.role == "replica":
                self.role = "owner"
                self._promotions_counter.inc()
                self._log.info("cluster.promoted", shard=self.shard)
            payload = {"role": self.role, "shard": self.shard}
            if self.applier is not None:
                payload["source_seqno"] = int(self.applier.source_seqno or 0)
            await self._send(
                writer, write_lock, conn.encode_ok(request_id, payload)
            )
            return True
        if op == "role":
            payload = {
                "role": self.role,
                "shard": self.shard,
                "applied_seqno": int(self.index.applied_seqno),
                "num_transactions": int(self.index.num_transactions),
            }
            if self.applier is not None:
                payload["source_seqno"] = int(self.applier.source_seqno or 0)
            await self._send(
                writer, write_lock, conn.encode_ok(request_id, payload)
            )
            return True
        if op == "rows":
            await self._serve_rows(message, writer, write_lock, conn)
            return True
        return False  # ring/rebalance are router ops

    # ------------------------------------------------------------------
    async def _serve_replicate(self, message, writer, write_lock, conn) -> None:
        request_id = message.get("id")
        if self.role != "replica":
            # Fencing: once promoted (or if misaddressed), refuse the
            # batch so the shipping owner cannot ack past us.
            self.metrics.record_rejection("bad_request")
            await self._send(
                writer,
                write_lock,
                conn.encode_error(
                    request_id,
                    "bad_request",
                    f"node {self.shard!r} is {self.role}; replicate "
                    "batches are only applied by replicas",
                ),
            )
            return
        data = message.get("wal")
        if not isinstance(data, (bytes, bytearray)):
            encoded = message.get("wal_b64")
            try:
                data = base64.b64decode(encoded, validate=True)
            except (TypeError, ValueError, binascii.Error):
                self.metrics.record_rejection("bad_request")
                await self._send(
                    writer,
                    write_lock,
                    conn.encode_error(
                        request_id,
                        "bad_request",
                        "replicate needs wal bytes (or wal_b64)",
                    ),
                )
                return
        loop = asyncio.get_running_loop()
        try:
            applied, seqno = await loop.run_in_executor(
                None, functools.partial(self.applier.apply, bytes(data))
            )
        except OSError as exc:
            # The replica's own WAL write failed: never ack, the owner
            # must treat the batch as unshipped.
            self.metrics.record_rejection("unavailable")
            self._log.error("cluster.replicate_unavailable", error=str(exc))
            await self._send(
                writer,
                write_lock,
                conn.encode_error(request_id, "unavailable", str(exc)),
            )
            return
        except ValueError as exc:  # CRC mismatch, replication gap, ...
            self.metrics.record_rejection("bad_request")
            self._log.error("cluster.replicate_rejected", error=str(exc))
            await self._send(
                writer,
                write_lock,
                conn.encode_error(request_id, "bad_request", str(exc)),
            )
            return
        if applied:
            self._replicated_counter.inc(applied)
        await self._send(
            writer,
            write_lock,
            conn.encode_ok(
                request_id,
                {"applied": int(applied), "source_seqno": int(seqno)},
            ),
        )

    async def _serve_rows(self, message, writer, write_lock, conn) -> None:
        request_id = message.get("id")
        tids = message.get("tids")
        if not isinstance(tids, list) or not all(
            isinstance(t, int) and not isinstance(t, bool) for t in tids
        ):
            self.metrics.record_rejection("bad_request")
            await self._send(
                writer,
                write_lock,
                conn.encode_error(
                    request_id, "bad_request", "tids must be a list of ints"
                ),
            )
            return
        loop = asyncio.get_running_loop()

        def fetch():
            db = self.index.logical_db()
            return [[int(i) for i in db.items_of(int(t))] for t in tids]

        try:
            rows = await loop.run_in_executor(None, fetch)
        except (IndexError, ValueError) as exc:
            self.metrics.record_rejection("bad_request")
            await self._send(
                writer,
                write_lock,
                conn.encode_error(request_id, "bad_request", str(exc)),
            )
            return
        await self._send(
            writer, write_lock, conn.encode_ok(request_id, {"rows": rows})
        )
