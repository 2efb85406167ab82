"""The cluster front-end: consistent-hash routing plus scatter-gather.

:class:`ClusterRouter` presents the *engine* surface (``run_batch``)
and the *live-index* surface (``insert`` / ``delete`` / ``compact`` /
``checkpoint`` / ``probe``) a :class:`~repro.service.server.QueryServer`
expects, so :class:`RouterServer` is a near-stock server whose "engine"
fans every coalesced batch out to the shard-owner nodes and whose
"index" routes every mutation to the owning shard.

Correctness contract (the differential suite pins this down): on a
quiescent cluster, kNN and range answers are **byte-identical** to a
single-node :class:`~repro.core.engine.QueryEngine` over one signature
table of the same logical database —

* the global tid space has exact live-index semantics (appends at the
  end, deletes shift later tids down), maintained by the
  :class:`~repro.cluster.directory.TidDirectory`;
* every shard is asked for ``k`` plus the directory's unmapped-row
  head-room, unmapped rows are dropped, and the partials merge under
  the canonical ``(-similarity, tid)`` order
  (:func:`~repro.core.merge.merge_neighbor_lists`);
* when a shard's truncated top-k *could* hide rows tied with the
  provisional k-th result, a second tie-complete pass re-asks every
  shard as a range query at that similarity — so boundary ties resolve
  by global tid exactly as the single-node merge does, even when a
  rebalance has left a shard's local tid order out of step with the
  global order.

Mutations carry the *client's* idempotency key end-to-end: the router
forwards ``(client_id, request_id)`` unchanged to the shard node, so a
retry that lands after a failover is answered from the promoted
replica's dedupe table — applied exactly once, cluster-wide.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.engine import similarity_key
from repro.core.search import Neighbor, SearchStats
from repro.core.merge import merge_neighbor_lists, merge_search_stats
from repro.cluster.directory import TidDirectory
from repro.cluster.ring import HashRing
from repro.data.transaction import TransactionDatabase
from repro.live.dedupe import DedupeTable
from repro.live.index import CompactionReport
from repro.obs.distributed import (
    TraceContext,
    graft_remote_trace,
    new_span_id,
    new_trace_id,
)
from repro.obs.log import JsonLogger, current_correlation_id
from repro.obs.registry import MetricRegistry
from repro.obs.trace import current_tracer
from repro.service.client import ServiceClient, ServiceError
from repro.service.protocol import (
    ERROR_CODES,
    ProtocolError,
    decode_neighbors,
    decode_search_stats,
)
from repro.service.server import QueryServer

__all__ = ["ClusterRouter", "RouterServer", "ShardSpec"]


class _RWLock:
    """Writer-preferring reader/writer lock for the routing topology.

    Queries hold the read side across their whole scatter so shard
    results always decode against the directory snapshot they were
    issued under; mutations take the write side only for the in-memory
    directory/ring updates (plus, during a move, the one node delete
    whose local-tid shift must be mirrored atomically).
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    @contextlib.contextmanager
    def read(self):
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if not self._readers:
                    self._cond.notify_all()

    @contextlib.contextmanager
    def write(self):
        with self._cond:
            self._writers_waiting += 1
            while self._writer or self._readers:
                self._cond.wait()
            self._writers_waiting -= 1
            self._writer = True
        try:
            yield
        finally:
            with self._cond:
                self._writer = False
                self._cond.notify_all()


@dataclass
class ShardSpec:
    """Where one shard lives: its owner node and optional warm replica."""

    name: str
    address: Tuple[str, int]
    replica_address: Optional[Tuple[str, int]] = None


@dataclass
class _ShardHandle:
    name: str
    address: Tuple[str, int]
    client: ServiceClient
    replica_address: Optional[Tuple[str, int]] = None
    probe_failures: int = 0
    promoted: bool = False
    lock: threading.Lock = field(default_factory=threading.Lock)


def _translate(exc: Exception) -> ProtocolError:
    """Map a shard client failure onto the router's response code."""
    if isinstance(exc, ServiceError):
        code = exc.code if exc.code in ERROR_CODES else "internal"
        return ProtocolError(code, f"shard error: {exc.message}")
    return ProtocolError("unavailable", f"shard unreachable: {exc}")


class ClusterRouter:
    """Routes one logical index across shard-owner node processes.

    Parameters
    ----------
    shards:
        :class:`ShardSpec` per shard (or ``{name: (host, port)}``).
    universe_size:
        Item universe of the clustered dataset: the fronting server
        refuses a query naming an item outside it (alone, before it can
        fail the scatter of a whole coalesced batch), and
        :meth:`logical_db` uses it so differential oracles compare
        equal.  ``None`` leaves that check to the shards.
    vnodes, client_retries, socket_timeout, wire:
        Ring granularity and per-shard client knobs.  Shard clients
        retry transport faults with the *same* forwarded idempotency
        key, so router-side retries stay exactly-once.
    """

    def __init__(
        self,
        shards,
        universe_size: Optional[int] = None,
        vnodes: int = 64,
        client_retries: int = 3,
        socket_timeout: Optional[float] = 30.0,
        wire: str = "auto",
        metrics_registry: Optional[MetricRegistry] = None,
        logger: Optional[JsonLogger] = None,
    ) -> None:
        specs: List[ShardSpec] = []
        if isinstance(shards, dict):
            for name, address in shards.items():
                specs.append(ShardSpec(str(name), tuple(address)))
        else:
            specs = list(shards)
        if not specs:
            raise ValueError("router needs at least one shard")
        self.universe_size = universe_size
        self._log = logger if logger is not None else JsonLogger("router")
        self._client_options = dict(
            socket_timeout=socket_timeout, retries=client_retries, wire=wire
        )
        self._shards: Dict[str, _ShardHandle] = {}
        for spec in sorted(specs, key=lambda s: s.name):
            self._shards[spec.name] = _ShardHandle(
                name=spec.name,
                address=tuple(spec.address),
                client=self._make_client(spec.address),
                replica_address=(
                    tuple(spec.replica_address)
                    if spec.replica_address is not None
                    else None
                ),
            )
        names = list(self._shards)
        self.ring = HashRing(names, vnodes=vnodes)
        self.directory = TidDirectory(names)
        self.dedupe = DedupeTable()
        self._topology = _RWLock()
        self._mutation_lock = threading.RLock()
        self._router_client_id = f"router-{uuid.uuid4().hex[:8]}"
        self._next_router_request = 0
        self._pool = ThreadPoolExecutor(
            max_workers=max(4, len(names)), thread_name_prefix="repro-scatter"
        )
        self._prober: Optional[threading.Thread] = None
        self._prober_stop = threading.Event()
        self._closed = False

        registry = metrics_registry if metrics_registry is not None else MetricRegistry()
        self.registry = registry
        self._subqueries = registry.counter(
            "repro_cluster_router_requests_total",
            "Scatter sub-queries sent to shard nodes",
            labelnames=("shard",),
        )
        self._mutations = registry.counter(
            "repro_cluster_router_mutations_total",
            "Mutations routed to shard owners",
            labelnames=("shard",),
        )
        self._failovers = registry.counter(
            "repro_cluster_failovers_total",
            "Replica promotions driven by health probes",
            labelnames=("shard",),
        )
        self._rows_moved = registry.counter(
            "repro_cluster_rows_moved_total",
            "Rows moved off a shard by online rebalance",
            labelnames=("shard",),
        )
        rows_gauge = registry.gauge(
            "repro_cluster_shard_rows",
            "Logical rows currently mapped to each shard",
            labelnames=("shard",),
        )
        for name in names:
            # Pre-register every label set so a scrape shows the full
            # per-shard breakdown from the first request.
            self._subqueries.labels(shard=name)
            self._mutations.labels(shard=name)
            self._failovers.labels(shard=name)
            self._rows_moved.labels(shard=name)
            rows_gauge.labels(shard=name).set_function(
                lambda n=name: float(self.directory.per_shard_counts()
                                     .get(n, {}).get("mapped", 0))
            )

    # ------------------------------------------------------------------
    @property
    def supports_lsh_tier(self) -> bool:
        """The router forwards the sketch tier on scatter legs.

        Whether a given query succeeds is decided shard-side (a shard
        without a sketch column rejects it ``bad_request``), so the
        router-fronting server admits lsh batches unconditionally.
        """
        return True

    def _make_client(self, address) -> ServiceClient:
        host, port = address
        return ServiceClient(host, int(port), **self._client_options)

    def _router_key(self) -> Dict[str, object]:
        """A fresh router-stamped idempotency key (internal mutations)."""
        self._next_router_request += 1
        return {
            "client_id": self._router_client_id,
            "request_id": self._next_router_request,
        }

    def _forward_key(self, client_id, request_id) -> Dict[str, object]:
        """The shard-side idempotency key for one routed mutation.

        The client's own key travels unchanged, so an end-to-end retry
        (client -> router -> shard, possibly a just-promoted replica)
        re-presents the key the shard's dedupe table already knows.
        """
        if client_id is not None:
            return {"client_id": client_id, "request_id": request_id}
        return self._router_key()

    def _forward(self, client: ServiceClient, message: Dict[str, object]):
        try:
            return client.request(dict(message))
        except (ServiceError, OSError, ConnectionError) as exc:
            raise _translate(exc) from exc

    # ------------------------------------------------------------------
    # Engine surface (queries)
    # ------------------------------------------------------------------
    def run_batch(self, key, similarity, targets):
        """Scatter one coalesced batch to every shard and merge exactly."""
        if similarity_key(similarity) != key.similarity:
            raise ValueError(
                f"similarity {similarity_key(similarity)!r} does not match "
                f"batch key {key.similarity!r}"
            )
        if key.op == "knn" and key.guarantee_tolerance is not None:
            raise ValueError(
                "guarantee_tolerance is not supported by the cluster merge"
            )
        target_lists = [[int(i) for i in t] for t in targets]
        if not target_lists:
            return [], []
        # The batcher propagates a sole rider's correlation id onto this
        # thread; fall back to a router-minted scatter id so shard-side
        # log lines always correlate to *something*.
        cid = current_correlation_id() or f"scatter-{uuid.uuid4().hex[:12]}"
        # An active tracer (the batcher's engine tracer) turns the
        # scatter into one distributed trace: every leg carries a trace
        # context naming a pre-minted leg span id, and the shard's
        # returned span tree is grafted back under that leg.
        tracer = current_tracer()
        trace_id = None
        if tracer is not None:
            trace_id = tracer.trace_id or new_trace_id()
        with self._topology.read():
            reverse = self.directory.reverse_maps()
            total = len(self.directory)
            head_room = self.directory.unmapped
            handles = list(self._shards.values())
            if key.op == "knn":
                asked = int(key.k) + head_room
                base = {
                    "op": "knn",
                    "similarity": similarity.name,
                    "k": asked,
                    "correlation_id": cid,
                }
                if key.early_termination is not None:
                    base["early_termination"] = key.early_termination
            else:
                asked = None
                base = {
                    "op": "range",
                    "similarity": similarity.name,
                    "threshold": key.threshold,
                    "correlation_id": cid,
                }
            if key.candidate_tier != "exact":
                # Forward the sketch tier to every scatter leg; each
                # shard prefilters its own slice and the merged stats
                # carry the conservative (min) estimated recall.
                base["candidate_tier"] = key.candidate_tier
                if key.target_recall is not None:
                    base["target_recall"] = key.target_recall
            contexts = self._leg_contexts(handles, trace_id)
            per_shard, legs = self._scatter(
                handles, base, target_lists, contexts
            )
            if tracer is not None:
                self._record_legs(tracer, legs, phase="scatter")
            merge_start = time.perf_counter() if tracer is not None else 0.0
            results: List[List[Neighbor]] = []
            stats: List[SearchStats] = []
            refine: List[int] = []
            for q in range(len(target_lists)):
                partials: List[List[Neighbor]] = []
                partial_stats: List[SearchStats] = []
                truncated_at: List[float] = []
                for handle in handles:
                    neighbors, shard_stats = per_shard[handle.name][q]
                    partials.append(
                        self._to_global(reverse[handle.name], neighbors)
                    )
                    partial_stats.append(shard_stats)
                    if asked is not None and len(neighbors) == asked:
                        truncated_at.append(neighbors[-1].similarity)
                merged = merge_neighbor_lists(partials, k=key.k)
                results.append(merged)
                stats.append(merge_search_stats(partial_stats, total))
                if (
                    asked is not None
                    and key.early_termination is None
                    and len(merged) == key.k
                    and any(t >= merged[-1].similarity for t in truncated_at)
                ):
                    refine.append(q)
            if tracer is not None:
                tracer.record(
                    "router.merge",
                    merge_start,
                    time.perf_counter(),
                    queries=len(target_lists),
                    shards=len(handles),
                    refined=len(refine),
                )
            # Tie-complete second pass: a shard truncated exactly at the
            # provisional k-th similarity, so rows tied at the boundary
            # may be hidden behind its local-order cut.  Re-ask as a
            # range query at that similarity (no truncation) and merge
            # globally — ties now break by global tid, like the oracle.
            for q in refine:
                threshold = results[q][-1].similarity
                base = {
                    "op": "range",
                    "similarity": similarity.name,
                    "threshold": threshold,
                    "correlation_id": cid,
                }
                if key.candidate_tier != "exact":
                    base["candidate_tier"] = key.candidate_tier
                    if key.target_recall is not None:
                        base["target_recall"] = key.target_recall
                tie_contexts = self._leg_contexts(handles, trace_id)
                tie_pass, tie_legs = self._scatter(
                    handles, base, [target_lists[q]], tie_contexts
                )
                if tracer is not None:
                    self._record_legs(tracer, tie_legs, phase="tie_complete")
                partials = [
                    self._to_global(
                        reverse[handle.name], tie_pass[handle.name][0][0]
                    )
                    for handle in handles
                ]
                results[q] = merge_neighbor_lists(partials, k=key.k)
        return results, stats

    @staticmethod
    def _leg_contexts(handles, trace_id: Optional[str]):
        """One pre-minted scatter-leg trace context per shard, or ``None``."""
        if trace_id is None:
            return None
        return {
            handle.name: TraceContext(
                trace_id=trace_id,
                parent_span_id=new_span_id(),
                sampled=True,
            )
            for handle in handles
        }

    def _record_legs(self, tracer, legs, phase: str) -> None:
        """Retroactively record scatter-leg spans and graft shard trees.

        The legs ran on scatter-pool threads where no tracer was active;
        their timing was captured raw and is turned into spans here, on
        the thread that owns ``tracer``.  Each shard's returned span
        trees are re-anchored at the leg's send time — shard-internal
        durations are exact, the absolute offset is network-bound.
        """
        for name in sorted(legs):
            leg = legs[name]
            if leg is None:
                continue
            leg_span = tracer.record(
                "router.scatter",
                leg["start_s"],
                leg["end_s"],
                shard=name,
                span_id=leg["context"].parent_span_id,
                phase=phase,
                subqueries=len(leg["traces"]),
            )
            for remote_spans in leg["traces"]:
                graft_remote_trace(
                    tracer,
                    remote_spans,
                    leg["start_s"],
                    parent=leg_span,
                    shard=name,
                )

    def _scatter(self, handles, base, target_lists, contexts=None):
        """Run the per-target request loop on every shard in parallel.

        ``contexts`` (shard name -> :class:`TraceContext`, or ``None``
        when untraced) turns each leg into a traced sub-request: the
        context rides the wire, the shard's span tree comes back inline,
        and the per-leg timing is captured for retroactive span
        recording.  Returns ``(per_shard_results, per_shard_legs)``;
        legs are ``None`` entries when untraced.
        """

        def one_shard(handle: _ShardHandle):
            ctx = None if contexts is None else contexts[handle.name]
            start_s = time.perf_counter() if ctx is not None else 0.0
            out = []
            traces = []
            for items in target_lists:
                message = dict(base, items=items)
                if ctx is not None:
                    message["trace"] = True
                    message["trace_context"] = ctx.encode()
                response = self._forward(handle.client, message)
                self._subqueries.labels(shard=handle.name).inc()
                out.append(
                    (
                        decode_neighbors(response["results"]),
                        decode_search_stats(response["stats"]),
                    )
                )
                if ctx is not None:
                    traces.append(response.get("trace") or [])
            leg = None
            if ctx is not None:
                leg = {
                    "context": ctx,
                    "start_s": start_s,
                    "end_s": time.perf_counter(),
                    "traces": traces,
                }
            return out, leg

        futures = {
            handle.name: self._pool.submit(one_shard, handle)
            for handle in handles
        }
        per_shard = {}
        legs = {}
        for name, future in futures.items():
            per_shard[name], legs[name] = future.result()
        return per_shard, legs

    @staticmethod
    def _to_global(reverse, neighbors: List[Neighbor]) -> List[Neighbor]:
        """Map shard-local result tids to global tids, dropping unmapped."""
        out: List[Neighbor] = []
        size = len(reverse)
        for nb in neighbors:
            if nb.tid < size:
                global_tid = int(reverse[nb.tid])
                if global_tid >= 0:
                    out.append(Neighbor(tid=global_tid,
                                        similarity=nb.similarity))
        return out

    # ------------------------------------------------------------------
    # Live-index surface (mutations)
    # ------------------------------------------------------------------
    def insert(self, items, client_id=None, request_id=None) -> int:
        items = [int(i) for i in items]
        if not items:
            raise ValueError("insert needs a non-empty transaction")
        with self._mutation_lock:
            if client_id is not None:
                cached = self.dedupe.lookup(client_id, request_id)
                if cached is not None:
                    return int(cached["tid"])
            with self._topology.read():
                shard = self.ring.owner_of(len(self.directory))
                handle = self._shards[shard]
            with self._topology.write():
                # Reserve the physical slot up front so a query racing
                # the node-side apply already widens its per-shard k.
                expected = self.directory.begin_copy(shard)
            message = dict(
                {"op": "insert", "items": items},
                **self._forward_key(client_id, request_id),
            )
            try:
                response = self._forward(handle.client, message)
            except ProtocolError:
                with self._topology.write():
                    self.directory.cancel_copy(shard)
                raise
            local = int(response["tid"])
            with self._topology.write():
                if local != expected:
                    # Shard-side dedupe replay: the row already exists
                    # (an earlier attempt applied before its ack was
                    # lost) — map that physical row instead of the
                    # reserved slot.
                    self.directory.cancel_copy(shard)
                global_tid = self.directory.assign(shard, local)
            self._mutations.labels(shard=shard).inc()
            if client_id is not None:
                self.dedupe.record(client_id, request_id, {"tid": global_tid})
            return global_tid

    def delete(self, tid, client_id=None, request_id=None) -> None:
        tid = int(tid)
        with self._mutation_lock:
            if client_id is not None:
                cached = self.dedupe.lookup(client_id, request_id)
                if cached is not None:
                    return
            with self._topology.read():
                shard, local = self.directory.lookup(tid)  # raises ValueError
                handle = self._shards[shard]
            message = dict(
                {"op": "delete", "tid": local},
                **self._forward_key(client_id, request_id),
            )
            with self._topology.write():
                # The node's local-tid shift and the directory's must be
                # observed atomically, so the forward rides inside the
                # write section (queries wait out one round trip).
                self._forward(handle.client, message)
                self.directory.remove(tid)
            self._mutations.labels(shard=shard).inc()
            if client_id is not None:
                self.dedupe.record(client_id, request_id, {"deleted": tid})

    def compact(self, repartition: bool = False) -> CompactionReport:
        """Fan compaction out to every shard owner; sum the reports."""
        with self._mutation_lock:
            with self._topology.read():
                handles = list(self._shards.values())
            message: Dict[str, object] = {"op": "compact"}
            if repartition:
                message["repartition"] = True
            started = time.monotonic()
            reports = [
                self._forward(handle.client, message)["compaction"]
                for handle in handles
            ]
            return CompactionReport(
                merged_inserts=sum(int(r["merged_inserts"]) for r in reports),
                dropped_tombstones=sum(
                    int(r["dropped_tombstones"]) for r in reports
                ),
                new_num_transactions=sum(
                    int(r["new_num_transactions"]) for r in reports
                ),
                applied_seqno=max(int(r["applied_seqno"]) for r in reports),
                duration_seconds=time.monotonic() - started,
                repartitioned=bool(repartition),
            )

    def checkpoint(self) -> int:
        with self._mutation_lock:
            with self._topology.read():
                handles = list(self._shards.values())
            return max(
                int(self._forward(h.client, {"op": "checkpoint"})
                    ["applied_seqno"])
                for h in handles
            )

    def probe(self) -> bool:
        """Degraded-mode probe: every shard owner answers ping."""
        try:
            with self._topology.read():
                handles = list(self._shards.values())
            for handle in handles:
                self._forward(handle.client, {"op": "ping"})
            return True
        except ProtocolError:
            return False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, object]:
        with self._topology.read():
            return {
                "kind": "cluster_router",
                "num_transactions": len(self.directory),
                "ring": self.ring.describe(),
                "shards": {
                    name: {
                        "address": list(handle.address),
                        "replica": (
                            list(handle.replica_address)
                            if handle.replica_address
                            else None
                        ),
                        "promoted": handle.promoted,
                        **self.directory.per_shard_counts().get(name, {}),
                    }
                    for name, handle in sorted(self._shards.items())
                },
            }

    def logical_db(self, universe_size: Optional[int] = None
                   ) -> TransactionDatabase:
        """Materialise the cluster's logical database, in global-tid order.

        The terminal-state oracle of the chaos suite compares against
        exactly this (like ``LiveIndex.logical_db`` single-node).
        """
        size = universe_size if universe_size is not None else self.universe_size
        with self._topology.read():
            assignment = [
                self.directory.lookup(g) for g in range(len(self.directory))
            ]
            wanted: Dict[str, List[int]] = {}
            for shard, local in assignment:
                wanted.setdefault(shard, []).append(local)
            fetched: Dict[str, Dict[int, List[int]]] = {}
            for shard, locals_ in wanted.items():
                response = self._forward(
                    self._shards[shard].client,
                    {"op": "rows", "tids": sorted(set(locals_))},
                )
                fetched[shard] = dict(
                    zip(sorted(set(locals_)), response["rows"])
                )
            rows = [fetched[shard][local] for shard, local in assignment]
        return TransactionDatabase(rows, universe_size=size)

    def ring_info(self) -> Dict[str, object]:
        return {
            "ring": self.ring.describe(),
            "topology": self.describe()["shards"],
            "unmapped_rows": self.directory.unmapped,
        }

    def gather_metrics(self) -> MetricRegistry:
        """Scatter ``metrics`` to every node; merge with the router's own.

        Counters and histograms merge exactly (the merged exposition
        equals one registry that saw every observation — see
        :meth:`~repro.obs.registry.MetricRegistry.merge`); gauges gain a
        ``source`` label naming the process they came from (``router``
        or the shard name).
        """
        with self._topology.read():
            handles = list(self._shards.values())

        def one_shard(handle: _ShardHandle):
            response = self._forward(
                handle.client, {"op": "metrics", "format": "json"}
            )
            return handle.name, response["metrics"]

        futures = [self._pool.submit(one_shard, h) for h in handles]
        sources: Dict[str, object] = {"router": self.registry}
        for future in futures:
            name, payload = future.result()
            sources[name] = payload
        try:
            return MetricRegistry.merge(sources, gauge_label="source")
        except ValueError as exc:
            raise ProtocolError(
                "internal", f"cluster metrics merge failed: {exc}"
            ) from exc

    # ------------------------------------------------------------------
    # Failover
    # ------------------------------------------------------------------
    def start_probes(
        self,
        interval: float = 0.5,
        failure_threshold: int = 2,
        probe_timeout: float = 1.0,
    ) -> None:
        """Start the background health prober driving failover."""
        if self._prober is not None:
            return
        self._probe_interval = float(interval)
        self._failure_threshold = int(failure_threshold)
        self._probe_timeout = float(probe_timeout)
        self._prober = threading.Thread(
            target=self._probe_loop, name="repro-router-prober", daemon=True
        )
        self._prober.start()

    def _probe_loop(self) -> None:
        while not self._prober_stop.wait(self._probe_interval):
            for handle in list(self._shards.values()):
                if handle.replica_address is None:
                    continue
                if self._probe_owner(handle):
                    handle.probe_failures = 0
                else:
                    handle.probe_failures += 1
                    if handle.probe_failures >= self._failure_threshold:
                        self._failover(handle)

    def _probe_owner(self, handle: _ShardHandle) -> bool:
        try:
            host, port = handle.address
            with ServiceClient(
                host, port, socket_timeout=self._probe_timeout, retries=0
            ) as probe:
                return probe.ping()
        except Exception:
            return False

    def _failover(self, handle: _ShardHandle) -> None:
        """Promote the shard's replica and swap routing onto it."""
        replica_address = handle.replica_address
        if replica_address is None:
            return
        try:
            host, port = replica_address
            with ServiceClient(
                host, port, socket_timeout=self._probe_timeout, retries=1
            ) as control:
                control.promote()
            new_client = self._make_client(replica_address)
        except Exception as exc:
            self._log.warning(
                "cluster.failover_blocked", shard=handle.name, error=str(exc)
            )
            return  # replica unreachable too; retry next probe round
        with self._topology.write():
            old_client = handle.client
            handle.client = new_client
            handle.address = replica_address
            handle.replica_address = None
            handle.promoted = True
            handle.probe_failures = 0
        old_client.close()
        self._failovers.labels(shard=handle.name).inc()
        self._log.info(
            "cluster.failover", shard=handle.name,
            address=f"{replica_address[0]}:{replica_address[1]}",
        )

    # ------------------------------------------------------------------
    # Online rebalance
    # ------------------------------------------------------------------
    def rebalance(self, source: str, target: str, fraction: float = 0.5
                  ) -> Dict[str, object]:
        """Move part of ``source``'s ring span — and its rows — to ``target``.

        Runs entirely online: the vnodes move first, then each affected
        row goes through copy → directory flip → source delete, with
        queries draining between steps (unmapped copies are dropped and
        covered by the ``k`` head-room, so in-flight scatters never see
        a row twice or lose one).
        """
        source, target = str(source), str(target)
        with self._mutation_lock:
            if source not in self._shards or target not in self._shards:
                raise ProtocolError(
                    "bad_request",
                    f"unknown shard in rebalance {source!r} -> {target!r}",
                )
            if source == target:
                raise ProtocolError(
                    "bad_request", "rebalance needs two distinct shards"
                )
            try:
                with self._topology.write():
                    moved_vnodes = self.ring.reassign(source, target, fraction)
            except ValueError as exc:
                raise ProtocolError("bad_request", str(exc)) from None
            candidates = [
                g
                for g in range(len(self.directory))
                if self.directory.lookup(g)[0] == source
                and self.ring.owner_of(g) == target
            ]
            for g in candidates:
                self._move_row(g, target)
            self._rows_moved.labels(shard=source).inc(len(candidates))
            self._log.info(
                "cluster.rebalanced", source=source, target=target,
                rows=len(candidates), vnodes=moved_vnodes,
            )
            return {
                "moved_rows": len(candidates),
                "moved_vnodes": moved_vnodes,
                "ring": self.ring.describe(),
                "shards": self.directory.per_shard_counts(),
            }

    def _move_row(self, global_tid: int, target: str) -> None:
        """Two-phase move of one row; queries keep running throughout."""
        with self._topology.read():
            source, source_local = self.directory.lookup(global_tid)
            source_handle = self._shards[source]
            target_handle = self._shards[target]
        row = self._forward(
            source_handle.client, {"op": "rows", "tids": [source_local]}
        )["rows"][0]
        with self._topology.write():
            expected = self.directory.begin_copy(target)
        try:
            response = self._forward(
                target_handle.client,
                dict({"op": "insert", "items": row}, **self._router_key()),
            )
        except ProtocolError:
            with self._topology.write():
                self.directory.cancel_copy(target)
            raise
        target_local = int(response["tid"])
        with self._topology.write():
            if target_local != expected:
                self.directory.cancel_copy(target)
                self.directory.record_physical(target, target_local)
            old_source, old_local = self.directory.commit_move(
                global_tid, target, target_local
            )
        with self._topology.write():
            # Node-side local tids shift on delete; mirror atomically.
            self._forward(
                source_handle.client,
                dict({"op": "delete", "tid": old_local}, **self._router_key()),
            )
            self.directory.end_move(old_source, old_local)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop probing and close every shard connection (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._prober_stop.set()
        if self._prober is not None:
            self._prober.join(timeout=5.0)
        self._pool.shutdown(wait=False)
        for handle in self._shards.values():
            handle.client.close()


class RouterServer(QueryServer):
    """A :class:`QueryServer` whose engine *and* live index are the router.

    Construct with ``RouterServer(router, live_index=router, ...)`` —
    queries micro-batch as usual and scatter through
    :meth:`ClusterRouter.run_batch`; mutations route through the
    directory.  Adds the ``ring`` and ``rebalance`` cluster ops.
    """

    def __init__(self, engine, **options) -> None:
        if not isinstance(engine, ClusterRouter):
            raise TypeError("RouterServer fronts a ClusterRouter engine")
        options.setdefault("live_index", engine)
        options.setdefault("metrics_registry", engine.registry)
        super().__init__(engine, **options)
        self.router: ClusterRouter = engine

    async def _metrics_registry(self, scope: str):
        """``scope="cluster"`` scatter-gathers every node's registry."""
        if scope == "cluster":
            return await asyncio.get_running_loop().run_in_executor(
                None, self.router.gather_metrics
            )
        return self.metrics.registry

    async def _dispatch_cluster(self, message, writer, write_lock, conn) -> bool:
        op = message["op"]
        request_id = message.get("id")
        if op == "ring":
            payload = await asyncio.get_running_loop().run_in_executor(
                None, self.router.ring_info
            )
            await self._send(
                writer, write_lock, conn.encode_ok(request_id, payload)
            )
            return True
        if op == "rebalance":
            source = message.get("source")
            target = message.get("target")
            fraction = message.get("fraction", 0.5)
            if (
                not isinstance(source, str)
                or not isinstance(target, str)
                or not isinstance(fraction, (int, float))
            ):
                self.metrics.record_rejection("bad_request")
                await self._send(
                    writer,
                    write_lock,
                    conn.encode_error(
                        request_id,
                        "bad_request",
                        "rebalance needs source, target and a numeric "
                        "fraction",
                    ),
                )
                return True
            try:
                payload = await asyncio.get_running_loop().run_in_executor(
                    None,
                    functools.partial(
                        self.router.rebalance, source, target, float(fraction)
                    ),
                )
            except ProtocolError as exc:
                self.metrics.record_rejection(exc.code)
                await self._send(
                    writer,
                    write_lock,
                    conn.encode_error(request_id, exc.code, exc.message),
                )
                return True
            await self._send(
                writer, write_lock, conn.encode_ok(request_id, payload)
            )
            return True
        return False
