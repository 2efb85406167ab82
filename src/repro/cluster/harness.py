"""In-process cluster assembly for tests and chaos drills.

:class:`ClusterHarness` stands up a whole cluster inside one Python
process: per-shard owner (and optional warm-replica) nodes as
:class:`~repro.cluster.node.ClusterNodeServer` background servers, an
optional :class:`~repro.faults.proxy.FaultProxy` in front of any owner
(so chaos schedules can cut a node off or corrupt its traffic), and a
:class:`~repro.cluster.router.RouterServer` fronting the lot.

Every node shares ONE :class:`~repro.core.signature.SignatureScheme`
(signature bounds must agree for per-shard pruning to be exact
cluster-wide); node states live in per-node directories under
``base_dir``.  Rows can be preloaded in global-tid order with an
explicit shard assignment — the directory is seeded to match — or the
cluster starts logically empty.

The subprocess path (``repro node`` / ``repro router``) reuses
:func:`bootstrap_node_state` for its on-disk layout, so node
directories created here can be served from real processes
(``tests/test_cli_served.py`` does).
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cluster.node import ClusterNodeServer
from repro.cluster.replication import ReplicatedLiveIndex
from repro.cluster.router import ClusterRouter, RouterServer, ShardSpec
from repro.data.transaction import TransactionDatabase
from repro.live.engine import LiveQueryEngine
from repro.live.index import LiveIndex
from repro.service.client import ServiceClient
from repro.service.server import serve_in_background

__all__ = ["ClusterHarness", "WalShipper", "bootstrap_node_state"]


def bootstrap_node_state(
    path: str,
    scheme,
    rows: Optional[Sequence[Sequence[int]]] = None,
    page_size: int = 64,
    **options,
) -> LiveIndex:
    """Create a node's on-disk live-index state and return it open.

    With ``rows`` the node starts holding them at local tids
    ``0..n-1``.  Without rows the node starts *logically empty*:
    :meth:`LiveIndex.create` needs a non-empty database to learn its
    base layout from, so a single placeholder row is created, deleted,
    and checkpointed away — recovery sees an empty logical database
    with a clean WAL.
    """
    if rows:
        db = TransactionDatabase(
            [list(map(int, r)) for r in rows],
            universe_size=scheme.universe_size,
        )
        return LiveIndex.create(
            path, db, scheme=scheme, page_size=page_size, **options
        )
    db = TransactionDatabase([[0]], universe_size=scheme.universe_size)
    index = LiveIndex.create(
        path, db, scheme=scheme, page_size=page_size, **options
    )
    index.delete(0)
    index.checkpoint()
    return index


class WalShipper:
    """Ships WAL tail bytes to a replica node, connecting lazily.

    Lazy because the replica may start up after its owner; on any ship
    failure the connection is dropped and rebuilt on the next attempt.
    """

    def __init__(self, shard: str, address: Tuple[str, int]) -> None:
        self.shard = shard
        self.address = address
        self._client: Optional[ServiceClient] = None

    def __call__(self, data: bytes) -> None:
        if self._client is None:
            host, port = self.address
            self._client = ServiceClient(
                host, int(port), socket_timeout=10.0, retries=2
            )
        try:
            self._client.replicate(self.shard, data)
        except Exception:
            # The connection state is unknown; reconnect on next ship.
            client, self._client = self._client, None
            if client is not None:
                client.close()
            raise

    def close(self) -> None:
        if self._client is not None:
            self._client.close()
            self._client = None


class ClusterHarness:
    """A live multi-node cluster behind one router, in one process.

    Parameters
    ----------
    base_dir:
        Directory for per-node live-index states.
    scheme:
        The shared :class:`~repro.core.signature.SignatureScheme`.
    shards:
        Shard names (sorted order defines nothing — placement is by
        ring hash).
    replicas:
        Subset of ``shards`` that get a warm replica with synchronous
        WAL shipping.
    proxies:
        ``{shard: FaultInjector-or-None}`` — shards listed here get a
        :class:`~repro.faults.proxy.FaultProxy` between router and
        owner (``None`` forwards faithfully but still supports
        ``partition()``).
    rows, assignment:
        Optional preload: ``rows[g]`` is global tid ``g``'s
        transaction, ``assignment[g]`` the shard it lives on.  Replica
        states are cloned from their owner's rows.
    sketch:
        Forwarded to :meth:`LiveIndex.create
        <repro.live.index.LiveIndex.create>` on every node — ``True``
        (or a dict of build options) makes the whole cluster
        sketch-enabled so routed queries may use
        ``candidate_tier="lsh"``.
    """

    def __init__(
        self,
        base_dir: str,
        scheme,
        shards: Sequence[str] = ("s0", "s1"),
        replicas: Sequence[str] = (),
        proxies: Optional[Dict[str, object]] = None,
        rows: Optional[Sequence[Sequence[int]]] = None,
        assignment: Optional[Sequence[str]] = None,
        page_size: int = 64,
        node_options: Optional[Dict[str, object]] = None,
        router_options: Optional[Dict[str, object]] = None,
        router_server_options: Optional[Dict[str, object]] = None,
        client_retries: int = 3,
        vnodes: int = 64,
        probe_interval: Optional[float] = None,
        probe_failures: int = 2,
        sketch: object = None,
    ) -> None:
        from repro.faults.proxy import FaultProxy  # avoid cycle at import

        self.base_dir = base_dir
        self.scheme = scheme
        shard_names = [str(s) for s in shards]
        replica_names = {str(s) for s in replicas}
        unknown = replica_names - set(shard_names)
        if unknown:
            raise ValueError(f"replicas for unknown shards: {sorted(unknown)}")
        if (rows is None) != (assignment is None):
            raise ValueError("rows and assignment must be given together")
        if rows is not None and len(rows) != len(assignment):
            raise ValueError("rows and assignment lengths differ")

        per_shard_rows: Dict[str, List[List[int]]] = {s: [] for s in shard_names}
        preload_pairs: List[Tuple[str, int]] = []
        if rows is not None:
            for row, shard in zip(rows, assignment):
                shard = str(shard)
                preload_pairs.append((shard, len(per_shard_rows[shard])))
                per_shard_rows[shard].append([int(i) for i in row])

        self.indexes: Dict[str, object] = {}
        self.servers: Dict[str, object] = {}
        self.proxies: Dict[str, FaultProxy] = {}
        self._shippers: List[WalShipper] = []
        node_options = dict(node_options or {})

        specs: List[ShardSpec] = []
        for name in shard_names:
            shard_rows = per_shard_rows[name]
            replica_address = None
            if name in replica_names:
                replica_index = bootstrap_node_state(
                    os.path.join(base_dir, f"{name}-replica"),
                    scheme,
                    rows=shard_rows,
                    page_size=page_size,
                    sketch=sketch,
                )
                replica_server = serve_in_background(
                    LiveQueryEngine(replica_index),
                    server_cls=ClusterNodeServer,
                    live_index=replica_index,
                    shard=name,
                    role="replica",
                    **node_options,
                )
                self.indexes[f"{name}-replica"] = replica_index
                self.servers[f"{name}-replica"] = replica_server
                replica_address = replica_server.address

            owner_index = bootstrap_node_state(
                os.path.join(base_dir, f"{name}-owner"),
                scheme,
                rows=shard_rows,
                page_size=page_size,
                sketch=sketch,
            )
            live = owner_index
            if replica_address is not None:
                shipper = WalShipper(name, replica_address)
                self._shippers.append(shipper)
                live = ReplicatedLiveIndex(owner_index, shipper)
            owner_server = serve_in_background(
                LiveQueryEngine(owner_index),
                server_cls=ClusterNodeServer,
                live_index=live,
                shard=name,
                role="owner",
                **node_options,
            )
            self.indexes[name] = owner_index
            self.servers[name] = owner_server

            routed_address = owner_server.address
            if proxies is not None and name in proxies:
                proxy = FaultProxy(owner_server.address, injector=proxies[name])
                self.proxies[name] = proxy
                routed_address = proxy.address
            specs.append(
                ShardSpec(name, routed_address, replica_address=replica_address)
            )

        self.router = ClusterRouter(
            specs,
            universe_size=scheme.universe_size,
            vnodes=vnodes,
            client_retries=client_retries,
            **(router_options or {}),
        )
        if rows is not None:
            self.router.directory.preload(preload_pairs)
        if probe_interval is not None:
            self.router.start_probes(
                interval=probe_interval, failure_threshold=probe_failures
            )
        self.router_server = serve_in_background(
            self.router,
            server_cls=RouterServer,
            **(router_server_options or {}),
        )
        self.router_address = self.router_server.address

    # ------------------------------------------------------------------
    def client(self, **options) -> ServiceClient:
        """A fresh :class:`ServiceClient` connected to the router."""
        host, port = self.router_address
        return ServiceClient(host, port, **options)

    def kill_owner(self, shard: str) -> None:
        """Hard-stop a shard owner's server (failover drill)."""
        self.servers[str(shard)].stop(timeout=10.0)

    def close(self) -> None:
        self.router_server.stop(timeout=10.0)
        self.router.close()
        for proxy in self.proxies.values():
            proxy.close()
        for server in self.servers.values():
            server.stop(timeout=10.0)
        for shipper in self._shippers:
            shipper.close()
        for index in self.indexes.values():
            index.close()

    def __enter__(self) -> "ClusterHarness":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
