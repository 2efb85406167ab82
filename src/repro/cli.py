"""Command-line interface.

The subcommands cover the full life cycle without writing Python:

* ``repro generate`` — synthesise a ``T·.I·.D·`` dataset to ``.npz`` (or
  FIMI text).
* ``repro stats`` — print dataset statistics.
* ``repro build`` — learn a signature scheme and build a table, saved to
  ``.npz``.
* ``repro query`` — run nearest-neighbour / k-NN / range queries against
  a saved table with any built-in similarity function.
* ``repro query-batch`` — run a whole file of queries through the batched
  :class:`~repro.core.engine.QueryEngine`, optionally across worker
  processes (``--output json`` emits one JSON object per query).
* ``repro explain`` — run one query with full observability: an
  entry-by-entry branch-and-bound report (why each signature-table entry
  was scanned or pruned, the bound trajectory, the termination reason)
  plus the span tree (see :mod:`repro.obs`).
* ``repro serve`` — keep a table resident and serve concurrent clients
  over the newline-delimited-JSON TCP protocol with dynamic
  micro-batching (see :mod:`repro.service`); ``--live DIR`` serves a
  mutable WAL-backed live index instead (see :mod:`repro.live`).
* ``repro ingest`` — create a live-index directory and/or durably
  insert transactions into it (reports ingest throughput).
* ``repro compact`` — fold a live index's delta and tombstones into a
  fresh base segment (``--repartition`` re-learns the partition first;
  prints the drift advisor's recommendation).
* ``repro node`` — serve a live-index directory as one cluster shard
  node (owner or warm replica, with synchronous WAL shipping between
  them; see :mod:`repro.cluster`).
* ``repro router`` — front the shard nodes with the consistent-hash
  router: scatter-gather queries, routed mutations, probe-driven
  failover, online rebalance.
* ``repro client`` — talk to a running server: ping, stats, graceful
  shutdown, a query file, a closed-loop load burst, the mutation
  ops (insert/delete/compact/checkpoint) against a live server, or
  ``ring`` against a router.
* ``repro metrics`` — fetch a running server's metric registry in
  Prometheus text or JSON exposition (``--router`` asks a cluster
  router for the exact merge of every node's registry).
* ``repro profile`` — sample a running server's thread stacks into
  flamegraph-compatible folded output (see :mod:`repro.obs.profiler`).
* ``repro top`` — a live terminal dashboard over a server's (or, with
  ``--router``, the whole cluster's) aggregated metrics.

Invoke as ``python -m repro <subcommand> --help``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Optional

from repro.core.search import SignatureTableSearcher
from repro.core.similarity import SIMILARITY_FUNCTIONS, get_similarity
from repro.core.table import SignatureTable
from repro.core.partitioning import partition_items
from repro.data.generator import generate, parse_spec
from repro.data.io import read_text, write_text
from repro.data.stats import describe
from repro.data.transaction import TransactionDatabase


def _load_database(path: str) -> TransactionDatabase:
    if path.endswith(".txt"):
        return read_text(path)
    return TransactionDatabase.load(path)


def _cmd_generate(args: argparse.Namespace) -> int:
    config = parse_spec(
        args.spec,
        seed=args.seed,
        num_items=args.num_items,
        num_patterns=args.num_patterns,
        item_skew=args.skew,
    )
    started = time.perf_counter()
    db = generate(config)
    elapsed = time.perf_counter() - started
    if args.output.endswith(".txt"):
        write_text(db, args.output)
    else:
        db.save(args.output)
    print(
        f"wrote {len(db)} transactions ({db.avg_transaction_size:.1f} items "
        f"avg) to {args.output} in {elapsed:.1f}s"
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    db = _load_database(args.database)
    for key, value in describe(db).as_dict().items():
        if isinstance(value, float):
            print(f"{key:>24s}: {value:.4f}")
        else:
            print(f"{key:>24s}: {value}")
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    db = _load_database(args.database)
    started = time.perf_counter()
    scheme = partition_items(
        db,
        num_signatures=args.signatures,
        activation_threshold=args.activation_threshold,
        min_support=args.min_support,
        rng=args.seed,
    )
    table = SignatureTable.build(db, scheme, page_size=args.page_size)
    elapsed = time.perf_counter() - started
    table.save(args.output)
    print(
        f"built signature table: K={scheme.num_signatures}, "
        f"r={scheme.activation_threshold}, "
        f"{table.num_entries_occupied}/{table.num_entries_total} entries "
        f"occupied, directory {table.memory_bytes() / 1024:.0f} KiB "
        f"({elapsed:.1f}s) -> {args.output}"
    )
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    from repro.core.advisor import suggest_parameters

    db = _load_database(args.database)
    advice = suggest_parameters(db, memory_budget_bytes=args.memory)
    print(advice)
    print(
        f"\nbuild with:  repro build {args.database} <table.npz> "
        f"-K {advice.num_signatures} -r {advice.activation_threshold}"
    )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    db = _load_database(args.database)
    table = SignatureTable.load(args.table)
    searcher = SignatureTableSearcher(table, db)
    similarity = get_similarity(args.similarity)
    target = [int(token) for token in args.items]

    if args.threshold is not None:
        results, stats = searcher.range_query(target, similarity, args.threshold)
        print(f"{len(results)} transactions with {args.similarity} >= {args.threshold}")
        shown = results[: args.k]
    else:
        shown, stats = searcher.knn(
            target,
            similarity,
            k=args.k,
            early_termination=args.early_termination,
        )
    for rank, neighbor in enumerate(shown, start=1):
        items = sorted(db[neighbor.tid])
        print(
            f"#{rank:<3d} tid={neighbor.tid:<8d} "
            f"{args.similarity}={neighbor.similarity:.4f} items={items}"
        )
    print(
        f"-- accessed {stats.transactions_accessed}/{stats.total_transactions} "
        f"transactions (pruned {stats.pruning_efficiency:.1f}%), "
        f"{stats.io.pages_read} pages, {stats.io.seeks} seeks"
    )
    if stats.terminated_early:
        guarantee = (
            "provably optimal"
            if stats.guaranteed_optimal
            else f"best possible remaining {stats.best_possible_remaining:.4f}"
        )
        print(f"-- terminated early: {guarantee}")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    from repro.obs import SearchTrace, Tracer, render_explain
    from repro.service.protocol import encode_neighbors, encode_search_stats

    db = _load_database(args.database)
    table = SignatureTable.load(args.table)
    searcher = SignatureTableSearcher(table, db)
    similarity = get_similarity(args.similarity)
    target = [int(token) for token in args.items]

    trace = SearchTrace()
    tracer = Tracer(correlation_id="explain")
    with tracer.activate():
        if args.threshold is not None:
            results, stats = searcher.multi_range_query(
                target,
                [(similarity, args.threshold)],
                search_trace=trace,
            )
        else:
            results, stats = searcher.knn(
                target,
                similarity,
                k=args.k,
                early_termination=args.early_termination,
                sort_by=args.sort_by,
                search_trace=trace,
            )

    if args.output == "json":
        print(
            json.dumps(
                {
                    "explain": trace.to_dict(),
                    "spans": tracer.to_dicts(),
                    "results": encode_neighbors(results[: args.k]),
                    "stats": encode_search_stats(stats),
                }
            )
        )
        return 0
    print(render_explain(trace, max_events=args.max_events))
    if results:
        print("top results:")
        for rank, neighbor in enumerate(results[: args.k], start=1):
            print(
                f"  #{rank:<3d} tid={neighbor.tid:<8d} "
                f"{args.similarity}={neighbor.similarity:.4f}"
            )
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient

    scope = "cluster" if args.router else args.scope
    with ServiceClient(args.host, args.port) as client:
        payload = client.metrics(args.format, scope=scope)
    if args.format == "prometheus":
        # Exposition text already ends with a newline.
        sys.stdout.write(str(payload))
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient

    timeout = 30.0 + (args.duration or 0.0)
    with ServiceClient(args.host, args.port, socket_timeout=timeout) as client:
        payload = client.profile(
            duration_s=args.duration,
            format=args.output,
            hz=args.hz,
            reset=args.reset,
        )
    if args.output == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    profile = str(payload.get("profile", ""))
    if profile:
        print(profile)
    print(
        f"-- {payload.get('samples', 0)} samples over "
        f"{float(payload.get('elapsed_s', 0.0)):.2f}s "
        f"({payload.get('mode', '?')} profiler)",
        file=sys.stderr,
    )
    return 0


def _render_top_frame(metrics: Dict[str, object], scope: str) -> str:
    """One ``repro top`` frame from a metrics-registry JSON dump."""

    def samples(name):
        family = metrics.get(name) or {}
        return family.get("samples") or []

    def total(name) -> float:
        out = 0.0
        for sample in samples(name):
            value = sample.get("value")
            if isinstance(value, dict):
                out += float(value.get("count", 0.0))
            else:
                out += float(value)
        return out

    completed = total("repro_requests_completed_total")
    received = total("repro_requests_received_total")
    lat_sum = 0.0
    lat_count = 0.0
    for sample in samples("repro_request_latency_seconds"):
        value = sample.get("value")
        if isinstance(value, dict):
            lat_sum += float(value.get("sum", 0.0))
            lat_count += float(value.get("count", 0.0))
    mean_ms = 1000.0 * lat_sum / lat_count if lat_count else 0.0
    lines = [
        f"repro top — scope {scope}",
        f"  requests: {completed:.0f} completed / {received:.0f} received"
        f", mean latency {mean_ms:.2f} ms",
    ]
    rejected: Dict[str, float] = {}
    for sample in samples("repro_requests_rejected_total"):
        reason = str(sample.get("labels", {}).get("reason", "?"))
        rejected[reason] = rejected.get(reason, 0.0) + float(sample["value"])
    if rejected:
        shown = ", ".join(
            f"{reason}={count:.0f}"
            for reason, count in sorted(rejected.items())
        )
        lines.append(f"  rejected: {shown}")
    depth = total("repro_queue_depth")
    batches = total("repro_batches_total")
    lines.append(f"  queue depth: {depth:.0f}, batches executed: {batches:.0f}")
    fallbacks = total("repro_kernel_fallbacks_total")
    if fallbacks:
        lines.append(
            f"  kernel fallbacks: {fallbacks:.0f} early_termination batches"
            " on the scalar loop"
        )
    budget = samples("repro_slo_error_budget_remaining")
    if budget:
        parts = []
        for sample in sorted(
            budget, key=lambda s: sorted(s.get("labels", {}).items())
        ):
            labels = sample.get("labels", {})
            name = str(labels.get("objective", "?"))
            source = labels.get("source")
            tag = f"{name}@{source}" if source else name
            parts.append(f"{tag} {100.0 * float(sample['value']):.2f}%")
        lines.append("  slo budget remaining: " + ", ".join(parts))
    for sample in samples("repro_cluster_router_requests_total"):
        shard = sample.get("labels", {}).get("shard", "?")
        lines.append(
            f"  shard {shard}: {float(sample['value']):.0f} sub-queries"
        )
    return "\n".join(lines)


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient

    scope = "cluster" if args.router else "self"
    try:
        while True:
            with ServiceClient(args.host, args.port) as client:
                metrics = client.metrics("json", scope=scope)
            frame = _render_top_frame(metrics, scope)
            if args.once:
                print(frame)
                return 0
            # Clear-and-home keeps the dashboard in place like top(1).
            sys.stdout.write("\x1b[2J\x1b[H" + frame + "\n")
            sys.stdout.flush()
            time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _read_queries(path: str) -> List[List[int]]:
    """Read one query transaction per line (space-separated item ids)."""
    if path == "-":
        lines = sys.stdin.read().splitlines()
    else:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    queries = [
        [int(token) for token in line.split()]
        for line in lines
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if not queries:
        raise ValueError(f"no queries found in {path!r}")
    return queries


def _cmd_query_batch(args: argparse.Namespace) -> int:
    from repro.core.engine import QueryEngine, summarise_stats

    db = _load_database(args.database)
    table = SignatureTable.load(args.table)
    engine = QueryEngine.for_table(table, db)
    similarity = get_similarity(args.similarity)
    queries = _read_queries(args.queries)

    tier = getattr(args, "candidate_tier", "exact")
    recall = getattr(args, "target_recall", None)
    started = time.perf_counter()
    if args.threshold is not None:
        results, stats = engine.range_query_batch(
            queries,
            similarity,
            args.threshold,
            candidate_tier=tier,
            target_recall=recall,
        )
    else:
        results, stats = engine.knn_batch(
            queries,
            similarity,
            k=args.k,
            early_termination=args.early_termination,
            candidate_tier=tier,
            target_recall=recall,
        )
    elapsed = time.perf_counter() - started

    if args.output == "json":
        # Machine-consumable NDJSON on stdout (one object per query);
        # the human summary moves to stderr so pipelines stay clean.
        from repro.service.protocol import encode_neighbors

        for index, (query, neighbors, stat) in enumerate(
            zip(queries, results, stats)
        ):
            print(
                json.dumps(
                    {
                        "query": index,
                        "items": query,
                        "results": encode_neighbors(neighbors),
                        "latency_ms": 1000.0 * stat.elapsed_seconds,
                        "entries_scanned": stat.entries_scanned,
                    }
                )
            )
        report = sys.stderr
    else:
        for index, neighbors in enumerate(results):
            if neighbors:
                shown = " ".join(
                    f"{nb.tid}:{nb.similarity:.4f}" for nb in neighbors
                )
            else:
                shown = "(no match)"
            print(f"query {index:<4d} {shown}")
        report = sys.stdout
    summary = summarise_stats(stats)
    print(
        f"-- {summary.num_queries} queries in {elapsed:.2f}s "
        f"({summary.num_queries / elapsed:.1f} queries/sec)",
        file=report,
    )
    print(
        f"-- accessed {summary.transactions_accessed} transactions "
        f"(mean pruned {summary.mean_pruning_efficiency:.1f}%), "
        f"{summary.io.pages_read} pages, {summary.io.seeks} seeks",
        file=report,
    )
    if summary.terminated_early:
        optimal = "yes" if summary.guaranteed_optimal else "no"
        print(
            f"-- {summary.terminated_early} queries terminated early "
            f"(all provably optimal: {optimal})",
            file=report,
        )
    if tier != "exact":
        recalls = [s.estimated_recall for s in stats if s.estimated_recall]
        mean_recall = sum(recalls) / len(recalls) if recalls else 0.0
        print(
            f"-- {tier} tier: mean estimated recall {mean_recall:.3f}, "
            f"results are approximate",
            file=report,
        )
    return 0


def _cmd_sketch_build(args: argparse.Namespace) -> int:
    from repro.sketch import SketchIndex

    db = _load_database(args.database)
    table = SignatureTable.load(args.table)
    started = time.perf_counter()
    sketch = SketchIndex.build(
        db,
        num_hashes=args.num_hashes,
        num_bands=args.bands,
        rows_per_band=args.rows,
        seed=args.seed,
        design_similarity=args.design_similarity,
    )
    elapsed = time.perf_counter() - started
    table.attach_sketch(sketch)
    output = args.out if args.out is not None else args.table
    table.save(output)
    print(
        f"signed {sketch.num_transactions} transactions with "
        f"{sketch.hasher.num_hashes} hashes "
        f"({sketch.bands.num_bands} bands x {sketch.bands.rows_per_band} rows, "
        f"design similarity {sketch.design_similarity:.3f}) "
        f"in {elapsed:.1f}s -> {output}"
    )
    return 0


def _cmd_sketch_stats(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.sketch import bands_for_recall, collision_probability

    table = SignatureTable.load(args.table)
    sketch = table.sketch
    if sketch is None:
        print(
            "error: table has no sketch column; "
            "run `repro sketch build` first",
            file=sys.stderr,
        )
        return 1
    sizes = sketch.bands.bucket_sizes()
    print(f"{'transactions':>24s}: {sketch.num_transactions}")
    print(f"{'num_hashes':>24s}: {sketch.hasher.num_hashes}")
    print(f"{'num_bands':>24s}: {sketch.bands.num_bands}")
    print(f"{'rows_per_band':>24s}: {sketch.bands.rows_per_band}")
    print(f"{'seed':>24s}: {sketch.hasher.seed}")
    print(f"{'design_similarity':>24s}: {sketch.design_similarity:.4f}")
    print(f"{'mean_bucket_size':>24s}: {float(np.mean(sizes)):.1f}")
    print(f"{'max_bucket_size':>24s}: {int(np.max(sizes))}")
    print(f"{'signature_bytes':>24s}: {sketch.signatures.nbytes}")
    print()
    print("target_recall -> bands probed (expected recall at design sim):")
    for target in (0.8, 0.9, 0.95, 0.99):
        bands = bands_for_recall(
            target,
            sketch.design_similarity,
            sketch.bands.num_bands,
            sketch.bands.rows_per_band,
        )
        expected = collision_probability(
            sketch.design_similarity, bands, sketch.bands.rows_per_band
        )
        print(f"{target:>24.2f}: {bands} ({expected:.3f})")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service.server import QueryServer

    live_index = None
    metrics_registry = None
    if args.live is not None:
        from repro.live import LiveIndex, LiveQueryEngine
        from repro.obs import MetricRegistry

        # One registry carries both the service counters and the live
        # index's WAL/compaction gauges, so a single scrape shows both.
        metrics_registry = MetricRegistry()
        injector = None
        if getattr(args, "fault_plan", None):
            from repro.faults import FaultInjector, FaultPlan

            injector = FaultInjector(
                FaultPlan.load(args.fault_plan),
                metrics_registry=metrics_registry,
            )
            print(f"fault injection armed from {args.fault_plan}", flush=True)
        live_index = LiveIndex.recover(
            args.live, metrics_registry=metrics_registry, injector=injector
        )
        engine = LiveQueryEngine(live_index)
        num_transactions = live_index.num_transactions
        universe_size = live_index.scheme.universe_size
        index_info = {"directory": args.live, **live_index.describe()}
        index_info["universe_size"] = universe_size
        source = args.live
    else:
        if args.database is None or args.table is None:
            raise ValueError(
                "serve needs either --live DIR or a database and a table"
            )
        from repro.core.engine import QueryEngine

        db = _load_database(args.database)
        table = SignatureTable.load(args.table)
        engine = QueryEngine.for_table(table, db, kernel=args.kernel)
        num_transactions = len(db)
        index_info = {
            "database": args.database,
            "table": args.table,
            "num_transactions": len(db),
            "universe_size": db.universe_size,
            "num_signatures": table.scheme.num_signatures,
        }
        source = args.database
    logger = None
    if args.log_json:
        from repro.obs import JsonLogger

        logger = JsonLogger("server", enabled=True)
    server = QueryServer(
        engine,
        host=args.host,
        port=args.port,
        logger=logger,
        max_batch_size=args.max_batch_size,
        max_wait_ms=args.max_wait_ms,
        max_queue=args.max_queue,
        default_timeout_ms=args.timeout_ms,
        allow_remote_shutdown=not args.no_remote_shutdown,
        index_info=index_info,
        live_index=live_index,
        metrics_registry=metrics_registry,
        wire=args.wire,
        profile_hz=args.profile_hz,
    )

    async def _serve() -> None:
        import signal

        host, port = await server.start()
        mode = "live" if live_index is not None else "frozen"
        print(
            f"serving {source} ({num_transactions} transactions, {mode}) on "
            f"{host}:{port}  [max_batch_size={args.max_batch_size}, "
            f"max_wait_ms={args.max_wait_ms:g}, max_queue={args.max_queue}]",
            flush=True,
        )
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(
                    signum, lambda: loop.create_task(server.shutdown())
                )
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        await server.wait_shutdown()
        snapshot = server.metrics.snapshot()
        requests = snapshot["requests"]
        print(
            f"drained: {requests['completed']} completed, "
            f"{requests['rejected_overload']} overload rejections, "
            f"{requests['timeouts']} timeouts",
            flush=True,
        )

    try:
        asyncio.run(_serve())
    finally:
        if live_index is not None:
            live_index.close()
    return 0


def _parse_address(text: str) -> tuple:
    host, sep, port = str(text).rpartition(":")
    if not sep or not host:
        raise ValueError(f"address must be HOST:PORT, got {text!r}")
    return host, int(port)


def _parse_shard_spec(text: str) -> tuple:
    name, sep, address = str(text).partition("=")
    if not sep or not name:
        raise ValueError(f"shard spec must be NAME=HOST:PORT, got {text!r}")
    return name, _parse_address(address)


def _serve_forever(server, banner: str) -> None:
    """Run an already-configured server until SIGINT/SIGTERM/shutdown."""
    import asyncio
    import signal

    async def _serve() -> None:
        host, port = await server.start()
        print(banner.format(host=host, port=port), flush=True)
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(
                    signum, lambda: loop.create_task(server.shutdown())
                )
            except NotImplementedError:  # pragma: no cover - non-POSIX
                pass
        await server.wait_shutdown()

    asyncio.run(_serve())


def _cmd_node(args: argparse.Namespace) -> int:
    from repro.cluster import (
        ClusterNodeServer,
        ReplicatedLiveIndex,
        WalShipper,
    )
    from repro.live import LiveIndex, LiveQueryEngine
    from repro.obs import MetricRegistry

    if args.replica and args.role != "owner":
        raise ValueError(
            "--replica names the owner's ship target; replica-role nodes "
            "receive the stream instead"
        )
    registry = MetricRegistry()
    index = LiveIndex.recover(args.directory, metrics_registry=registry)
    live = index
    if args.replica:
        live = ReplicatedLiveIndex(
            index, WalShipper(args.shard, _parse_address(args.replica))
        )
    index_info = {
        "directory": args.directory,
        "shard": args.shard,
        "role": args.role,
        **index.describe(),
    }
    index_info["universe_size"] = index.scheme.universe_size
    server = ClusterNodeServer(
        LiveQueryEngine(index),
        shard=args.shard,
        role=args.role,
        host=args.host,
        port=args.port,
        live_index=live,
        metrics_registry=registry,
        index_info=index_info,
        max_batch_size=args.max_batch_size,
        max_wait_ms=args.max_wait_ms,
        wire=args.wire,
        profile_hz=args.profile_hz,
    )
    replicated = f" -> replica {args.replica}" if args.replica else ""
    try:
        _serve_forever(
            server,
            f"cluster node shard={args.shard} role={args.role} serving "
            f"{args.directory} ({index.num_transactions} transactions) on "
            "{host}:{port}" + replicated,
        )
    finally:
        index.close()
    return 0


def _cmd_router(args: argparse.Namespace) -> int:
    from repro.cluster import ClusterRouter, RouterServer, ShardSpec

    replicas = {}
    for item in args.replica or []:
        name, address = _parse_shard_spec(item)
        replicas[name] = address
    specs = []
    for item in args.shard:
        name, address = _parse_shard_spec(item)
        specs.append(
            ShardSpec(name, address, replica_address=replicas.pop(name, None))
        )
    if replicas:
        raise ValueError(
            f"--replica for unknown shards: {sorted(replicas)}"
        )
    router = ClusterRouter(
        specs,
        universe_size=args.universe_size,
        vnodes=args.vnodes,
        client_retries=args.retries,
    )
    # A fresh router has an empty tid directory, so rows already on a
    # shard are invisible to it.  Count them as unmapped head-room (the
    # scatter then stays exact for the rows the router *does* map) and
    # tell the operator.
    from repro.service.client import ServiceClient

    for spec in specs:
        try:
            with ServiceClient(*spec.address, retries=1) as probe:
                existing = int(probe.role().get("num_transactions", 0))
        except Exception:
            continue
        if existing:
            router.directory.record_physical(spec.name, existing - 1)
            print(
                f"warning: shard {spec.name} already holds {existing} "
                "transactions the router cannot map; they stay invisible "
                "to cluster queries",
                file=sys.stderr,
            )
    if args.probe_interval is not None:
        router.start_probes(
            interval=args.probe_interval,
            failure_threshold=args.probe_failures,
        )
    server = RouterServer(
        router,
        host=args.host,
        port=args.port,
        index_info={
            "kind": "cluster_router",
            "shards": [spec.name for spec in specs],
        },
        max_batch_size=args.max_batch_size,
        max_wait_ms=args.max_wait_ms,
        wire=args.wire,
        profile_hz=args.profile_hz,
    )
    shard_list = ", ".join(
        spec.name + ("+replica" if spec.replica_address else "")
        for spec in specs
    )
    try:
        _serve_forever(
            server,
            f"cluster router over [{shard_list}] on " + "{host}:{port}",
        )
    finally:
        router.close()
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    import os

    from repro.live import LiveIndex

    injector = None
    if getattr(args, "fault_plan", None):
        from repro.faults import FaultInjector, FaultPlan

        injector = FaultInjector(FaultPlan.load(args.fault_plan))
        print(f"fault injection armed from {args.fault_plan}", flush=True)
    exists = os.path.exists(os.path.join(args.directory, "manifest.json"))
    if args.init is not None:
        if exists:
            raise ValueError(
                f"{args.directory!r} already holds a live index; "
                "drop --init to ingest into it"
            )
        db = _load_database(args.init)
        num_signatures = args.signatures
        if num_signatures is None:
            from repro.core.advisor import suggest_parameters

            num_signatures = suggest_parameters(db).num_signatures
        scheme = partition_items(
            db,
            num_signatures=num_signatures,
            activation_threshold=args.activation_threshold,
            rng=args.seed,
        )
        index = LiveIndex.create(
            args.directory,
            db,
            scheme=scheme,
            page_size=args.page_size,
            fsync_interval=args.fsync_interval,
            injector=injector,
        )
        print(
            f"created live index over {len(db)} transactions "
            f"(K={scheme.num_signatures}, r={scheme.activation_threshold}) "
            f"in {args.directory}"
        )
    elif not exists:
        raise ValueError(
            f"no live index at {args.directory!r}; pass --init DATABASE "
            "to create one"
        )
    else:
        index = LiveIndex.recover(
            args.directory,
            fsync_interval=args.fsync_interval,
            injector=injector,
        )
    try:
        if args.transactions is not None:
            rows = _read_queries(args.transactions)
            started = time.perf_counter()
            failures = 0
            for row in rows:
                try:
                    index.insert(row)
                except OSError as exc:
                    failures += 1
                    print(f"insert failed (not applied): {exc}", file=sys.stderr)
            elapsed = time.perf_counter() - started
            if failures:
                print(f"-- {failures}/{len(rows)} inserts failed", file=sys.stderr)
            print(
                f"ingested {len(rows)} transactions in {elapsed:.2f}s "
                f"({len(rows) / max(elapsed, 1e-9):.0f} inserts/sec, "
                f"{index.wal.counters.fsyncs} fsyncs, "
                f"WAL {index.wal.size_bytes} bytes)"
            )
        if args.checkpoint:
            applied = index.checkpoint()
            print(f"checkpointed through seqno {applied}; WAL truncated")
        info = index.describe()
        print(
            f"-- {info['num_transactions']} logical transactions "
            f"({info['delta_size']} in delta, {info['tombstones']} tombstones)"
        )
    finally:
        index.close()
    return 0


def _cmd_compact(args: argparse.Namespace) -> int:
    from repro.live import LiveIndex

    index = LiveIndex.recover(args.directory)
    try:
        drift = index.drift_report()
        if drift is not None:
            print(f"drift advisor: {drift.recommendation}")
        repartition = args.repartition or (
            args.auto_repartition and drift is not None and drift.drifted
        )
        if args.if_needed and not index.should_compact():
            info = index.describe()
            print(
                f"compaction not needed ({info['delta_size']} delta rows, "
                f"{info['tombstones']} tombstones)"
            )
            return 0
        report = index.compact(repartition=repartition)
        print(
            f"compacted: merged {report.merged_inserts} inserts, dropped "
            f"{report.dropped_tombstones} tombstones -> "
            f"{report.new_num_transactions} transactions "
            f"({report.duration_seconds:.2f}s"
            f"{', repartitioned' if report.repartitioned else ''}); "
            f"WAL truncated through seqno {report.applied_seqno}"
        )
    finally:
        index.close()
    return 0


def _cmd_client(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceError

    try:
        return _run_client_action(args)
    except ServiceError as exc:
        print(f"error: server rejected the request: {exc}", file=sys.stderr)
        return 1
    except (ConnectionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _run_client_action(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient as _RawClient
    from repro.service.client import run_load, wait_ready

    def ServiceClient(host, port):
        return _RawClient(
            host,
            port,
            retries=args.retries,
            deadline=args.deadline,
            wire=args.wire,
        )

    if args.wait_ready is not None:
        if not wait_ready(args.host, args.port, timeout=args.wait_ready):
            print(
                f"error: no server at {args.host}:{args.port} after "
                f"{args.wait_ready:g}s",
                file=sys.stderr,
            )
            return 2

    if args.action == "ping":
        with ServiceClient(args.host, args.port) as client:
            print("pong" if client.ping() else "no answer")
        return 0
    if args.action == "health":
        with ServiceClient(args.host, args.port) as client:
            health = client.health()
        print(json.dumps(health, indent=2, sort_keys=True))
        return 0 if health.get("ready") and not health.get("degraded") else 1
    if args.action == "stats":
        with ServiceClient(args.host, args.port) as client:
            print(json.dumps(client.stats(), indent=2, sort_keys=True))
        return 0
    if args.action == "ring":
        with ServiceClient(args.host, args.port) as client:
            print(json.dumps(client.ring(), indent=2, sort_keys=True))
        return 0
    if args.action == "shutdown":
        with ServiceClient(args.host, args.port) as client:
            draining = client.shutdown()
        print("server draining" if draining else "shutdown refused")
        return 0 if draining else 1
    if args.action == "insert":
        if not args.items:
            print("error: insert needs --items", file=sys.stderr)
            return 2
        with ServiceClient(args.host, args.port) as client:
            tid = client.insert([int(i) for i in args.items])
        print(f"inserted as logical tid {tid}")
        return 0
    if args.action == "delete":
        if args.tid is None:
            print("error: delete needs --tid", file=sys.stderr)
            return 2
        with ServiceClient(args.host, args.port) as client:
            client.delete(args.tid)
        print(f"deleted logical tid {args.tid}")
        return 0
    if args.action == "compact":
        with ServiceClient(args.host, args.port) as client:
            report = client.compact(repartition=args.repartition)
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    if args.action == "checkpoint":
        with ServiceClient(args.host, args.port) as client:
            applied = client.checkpoint()
        print(f"checkpointed through seqno {applied}")
        return 0
    if args.action == "query":
        if not args.items:
            print("error: query needs --items", file=sys.stderr)
            return 2
        items = [int(i) for i in args.items]
        tier = getattr(args, "candidate_tier", None)
        recall = getattr(args, "target_recall", None)
        with ServiceClient(args.host, args.port) as client:
            if args.threshold is not None:
                neighbors, stats = client.range_query(
                    items, args.similarity, args.threshold,
                    timeout_ms=args.timeout_ms,
                    candidate_tier=tier, target_recall=recall,
                )
            else:
                neighbors, stats = client.knn(
                    items, args.similarity, k=args.k,
                    timeout_ms=args.timeout_ms,
                    candidate_tier=tier, target_recall=recall,
                )
        for neighbor in neighbors:
            print(f"tid {neighbor.tid}  similarity {neighbor.similarity:.6f}")
        if stats.get("candidate_tier", "exact") != "exact":
            print(
                f"-- {stats['candidate_tier']} tier: "
                f"{stats.get('sketch_candidates', '?')} sketch candidates, "
                f"estimated recall {stats.get('estimated_recall', 0.0):.3f}"
            )
        return 0

    # action == "burst": a closed-loop concurrent load burst.
    if args.queries is not None:
        queries = _read_queries(args.queries)
    else:
        # No query file: sample random transactions from the universe the
        # server reports in its stats payload.
        import random

        with ServiceClient(args.host, args.port) as client:
            index_info = client.stats()["index"]
        universe = int(index_info.get("universe_size", 0))
        if universe <= 0:
            print(
                "error: server reports no universe_size; pass --queries FILE",
                file=sys.stderr,
            )
            return 2
        rng = random.Random(args.seed)
        queries = [
            sorted(rng.sample(range(universe), k=min(universe, 10)))
            for _ in range(min(args.requests, 256))
        ]
    result = run_load(
        args.host,
        args.port,
        queries,
        similarity=args.similarity,
        k=args.k,
        threshold=args.threshold,
        concurrency=args.concurrency,
        total_requests=args.requests,
        timeout_ms=args.timeout_ms,
        retries=args.retries,
        wire=args.wire,
    )
    latencies = result.latencies_ms()
    mid = latencies[len(latencies) // 2] if latencies else float("nan")
    retried = f", {result.retried} retried" if result.retried else ""
    print(
        f"{result.completed}/{len(result.records)} requests ok "
        f"({result.rejected} rejected{retried}) in "
        f"{result.elapsed_seconds:.2f}s — "
        f"{result.qps:.1f} req/s at concurrency {result.concurrency} "
        f"over {result.wire}, ~p50 {mid:.1f} ms"
    )
    return 0 if result.completed else 1


_EXPERIMENTS = {
    "fig6": ("pruning", "hamming"),
    "fig7": ("termination", "hamming"),
    "fig8": ("txnsize", "hamming"),
    "fig9": ("pruning", "match_ratio"),
    "fig10": ("termination", "match_ratio"),
    "fig11": ("txnsize", "match_ratio"),
    "fig12": ("pruning", "cosine"),
    "fig13": ("termination", "cosine"),
    "fig14": ("txnsize", "cosine"),
    "table1": ("inverted", None),
}


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro.eval.harness import (
        ExperimentContext,
        run_accuracy_vs_termination,
        run_accuracy_vs_transaction_size,
        run_inverted_access_fractions,
        run_pruning_vs_db_size,
    )

    kind, similarity_name = _EXPERIMENTS[args.experiment]
    overrides = {}
    if args.db_sizes:
        overrides["db_sizes"] = args.db_sizes
        overrides["large_spec"] = f"T10.I6.D{max(args.db_sizes)}"
        overrides["txn_size_db"] = max(args.db_sizes)
    if args.ks:
        overrides["ks"] = args.ks
        overrides["default_k"] = max(args.ks)
    if args.queries:
        overrides["num_queries"] = args.queries
    ctx = ExperimentContext(args.profile, **overrides)

    if kind == "inverted":
        table = run_inverted_access_fractions(ctx)
    else:
        similarity = get_similarity(similarity_name)
        runner = {
            "pruning": run_pruning_vs_db_size,
            "termination": run_accuracy_vs_termination,
            "txnsize": run_accuracy_vs_transaction_size,
        }[kind]
        table = runner(similarity, ctx)
    print(table.to_text())
    if args.output:
        table.save(args.output, args.experiment)
        print(f"saved to {args.output}/{args.experiment}.txt")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Signature-table similarity indexing of market basket data "
        "(Aggarwal, Wolf & Yu, SIGMOD 1999)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p_gen = subparsers.add_parser(
        "generate", help="synthesise a T·.I·.D· dataset"
    )
    p_gen.add_argument("spec", help="dataset spec, e.g. T10.I6.D100K")
    p_gen.add_argument("output", help="output path (.npz, or .txt for FIMI)")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--num-items", type=int, default=1000)
    p_gen.add_argument("--num-patterns", type=int, default=2000)
    p_gen.add_argument(
        "--skew",
        type=float,
        default=0.0,
        metavar="S",
        help="Zipf exponent skewing item popularity (0 = the paper's "
        "uniform universe; try 1.0-2.0 for a hot-head catalogue)",
    )
    p_gen.set_defaults(func=_cmd_generate)

    p_stats = subparsers.add_parser("stats", help="print dataset statistics")
    p_stats.add_argument("database", help="dataset path (.npz or .txt)")
    p_stats.set_defaults(func=_cmd_stats)

    p_build = subparsers.add_parser("build", help="build a signature table")
    p_build.add_argument("database", help="dataset path (.npz or .txt)")
    p_build.add_argument("output", help="output table path (.npz)")
    p_build.add_argument(
        "--signatures", "-K", type=int, default=15,
        help="signature cardinality K (default 15)",
    )
    p_build.add_argument("--activation-threshold", "-r", type=int, default=1)
    p_build.add_argument("--min-support", type=float, default=0.0)
    p_build.add_argument("--page-size", type=int, default=64)
    p_build.add_argument("--seed", type=int, default=0)
    p_build.set_defaults(func=_cmd_build)

    p_advise = subparsers.add_parser(
        "advise", help="recommend K and the activation threshold"
    )
    p_advise.add_argument("database", help="dataset path (.npz or .txt)")
    p_advise.add_argument(
        "--memory",
        type=int,
        default=1 << 20,
        help="directory memory budget in bytes (default 1 MiB)",
    )
    p_advise.set_defaults(func=_cmd_advise)

    p_query = subparsers.add_parser(
        "query", help="run a similarity query against a saved table"
    )
    p_query.add_argument("database", help="dataset path (.npz or .txt)")
    p_query.add_argument("table", help="signature-table path (.npz)")
    p_query.add_argument(
        "items", nargs="+", help="target transaction as item ids"
    )
    p_query.add_argument(
        "--similarity",
        "-s",
        default="match_ratio",
        choices=sorted(SIMILARITY_FUNCTIONS),
    )
    p_query.add_argument("--k", type=int, default=5)
    p_query.add_argument(
        "--early-termination",
        type=float,
        default=None,
        help="stop after this fraction of the data (e.g. 0.02)",
    )
    p_query.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="run a range query with this similarity threshold instead of k-NN",
    )
    p_query.set_defaults(func=_cmd_query)

    p_batch = subparsers.add_parser(
        "query-batch",
        help="run a file of queries through the batched engine",
    )
    p_batch.add_argument("database", help="dataset path (.npz or .txt)")
    p_batch.add_argument("table", help="signature-table path (.npz)")
    p_batch.add_argument(
        "queries",
        help="query file: one transaction per line as space-separated item "
        "ids ('-' reads stdin; '#' lines are comments)",
    )
    p_batch.add_argument(
        "--similarity",
        "-s",
        default="match_ratio",
        choices=sorted(SIMILARITY_FUNCTIONS),
    )
    p_batch.add_argument("--k", type=int, default=5)
    p_batch.add_argument(
        "--early-termination",
        type=float,
        default=None,
        help="stop each query after this fraction of the data (e.g. 0.02)",
    )
    p_batch.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="run range queries with this similarity threshold instead of k-NN",
    )
    p_batch.add_argument(
        "--output",
        "-o",
        choices=["human", "json"],
        default="human",
        help="result format: human (default) or json (one object per "
        "line on stdout, summary on stderr)",
    )
    p_batch.add_argument(
        "--candidate-tier",
        choices=["exact", "lsh"],
        default="exact",
        help="candidate tier: exact (default) or lsh (sketch prefilter; "
        "table needs `repro sketch build` first)",
    )
    p_batch.add_argument(
        "--target-recall",
        type=float,
        default=None,
        help="recall target for --candidate-tier lsh (default 0.9)",
    )
    p_batch.set_defaults(func=_cmd_query_batch)

    p_sketch = subparsers.add_parser(
        "sketch",
        help="build or inspect the sketch candidate tier of a table",
    )
    sketch_sub = p_sketch.add_subparsers(dest="sketch_action", required=True)
    p_sk_build = sketch_sub.add_parser(
        "build",
        help="sign the database and attach the sketch column to a table",
    )
    p_sk_build.add_argument("database", help="dataset path (.npz or .txt)")
    p_sk_build.add_argument("table", help="signature-table path (.npz)")
    p_sk_build.add_argument(
        "--out",
        default=None,
        help="output table path (default: overwrite the input table)",
    )
    p_sk_build.add_argument("--num-hashes", type=int, default=128)
    p_sk_build.add_argument("--bands", type=int, default=32)
    p_sk_build.add_argument("--rows", type=int, default=2)
    p_sk_build.add_argument("--seed", type=int, default=0)
    p_sk_build.add_argument(
        "--design-similarity",
        type=float,
        default=None,
        help="similarity the band budget is calibrated against "
        "(default: calibrated from the data, skew-aware)",
    )
    p_sk_build.set_defaults(func=_cmd_sketch_build)
    p_sk_stats = sketch_sub.add_parser(
        "stats", help="print a table's sketch parameters and band budgets"
    )
    p_sk_stats.add_argument("table", help="signature-table path (.npz)")
    p_sk_stats.set_defaults(func=_cmd_sketch_stats)

    p_explain = subparsers.add_parser(
        "explain",
        help="run one query with a branch-and-bound explain report",
    )
    p_explain.add_argument("database", help="dataset path (.npz or .txt)")
    p_explain.add_argument("table", help="signature-table path (.npz)")
    p_explain.add_argument(
        "items", nargs="+", help="target transaction as item ids"
    )
    p_explain.add_argument(
        "--similarity",
        "-s",
        default="match_ratio",
        choices=sorted(SIMILARITY_FUNCTIONS),
    )
    p_explain.add_argument("--k", type=int, default=5)
    p_explain.add_argument(
        "--early-termination",
        type=float,
        default=None,
        help="stop after this fraction of the data (e.g. 0.02)",
    )
    p_explain.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="explain a range query with this threshold instead of k-NN",
    )
    p_explain.add_argument(
        "--sort-by",
        default="optimistic",
        choices=["optimistic", "supercoordinate"],
        help="entry scan order for k-NN (default optimistic)",
    )
    p_explain.add_argument(
        "--max-events",
        type=int,
        default=None,
        help="cap the per-entry rows in the human report",
    )
    p_explain.add_argument(
        "--output",
        "-o",
        choices=["human", "json"],
        default="human",
        help="human-readable report (default) or one JSON object with "
        "the explain record, span tree, results and stats",
    )
    p_explain.set_defaults(func=_cmd_explain)

    p_metrics = subparsers.add_parser(
        "metrics", help="fetch a running server's metric registry"
    )
    p_metrics.add_argument("--host", default="127.0.0.1")
    p_metrics.add_argument("--port", type=int, default=7807)
    p_metrics.add_argument(
        "--format",
        "-f",
        choices=["json", "prometheus"],
        default="prometheus",
        help="exposition format (default prometheus)",
    )
    p_metrics.add_argument(
        "--scope",
        choices=["self", "cluster"],
        default="self",
        help="'self' is the answering server's registry; 'cluster' asks "
        "a router for the exact merge of every node's (default self)",
    )
    p_metrics.add_argument(
        "--router",
        action="store_true",
        help="shorthand for --scope cluster",
    )
    p_metrics.set_defaults(func=_cmd_metrics)

    p_profile = subparsers.add_parser(
        "profile",
        help="sample a running server's thread stacks (folded output)",
    )
    p_profile.add_argument("--host", default="127.0.0.1")
    p_profile.add_argument("--port", type=int, default=7807)
    p_profile.add_argument(
        "--duration",
        "-d",
        type=float,
        default=None,
        help="one-shot sampling window in seconds (server default 1s; "
        "ignored by a continuous profiler)",
    )
    p_profile.add_argument(
        "--hz",
        type=float,
        default=None,
        help="sampling rate for a one-shot profile (server default)",
    )
    p_profile.add_argument(
        "--reset",
        action="store_true",
        help="clear a continuous profiler's accumulated stacks after "
        "snapshotting",
    )
    p_profile.add_argument(
        "--output",
        "-o",
        choices=["folded", "json"],
        default="folded",
        help="'folded' prints flamegraph-compatible stacks; 'json' the "
        "raw snapshot (default folded)",
    )
    p_profile.set_defaults(func=_cmd_profile)

    p_top = subparsers.add_parser(
        "top",
        help="live terminal dashboard over a server's aggregated metrics",
    )
    p_top.add_argument("--host", default="127.0.0.1")
    p_top.add_argument("--port", type=int, default=7807)
    p_top.add_argument(
        "--router",
        action="store_true",
        help="poll the cluster-wide merged metrics of a router",
    )
    p_top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="refresh interval in seconds (default 2)",
    )
    p_top.add_argument(
        "--once",
        action="store_true",
        help="print one frame and exit (no screen clearing)",
    )
    p_top.set_defaults(func=_cmd_top)

    p_serve = subparsers.add_parser(
        "serve",
        help="serve a table to concurrent clients (NDJSON over TCP)",
    )
    p_serve.add_argument(
        "database", nargs="?", default=None,
        help="dataset path (.npz or .txt); omit with --live",
    )
    p_serve.add_argument(
        "table", nargs="?", default=None,
        help="signature-table path (.npz); omit with --live",
    )
    p_serve.add_argument(
        "--live",
        default=None,
        metavar="DIR",
        help="serve a mutable live index from this directory instead of a "
        "frozen table; enables the insert/delete/compact/checkpoint ops "
        "(create the directory with 'repro ingest DIR --init DATABASE')",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=7807)
    p_serve.add_argument(
        "--max-batch-size",
        type=int,
        default=32,
        help="flush a micro-batch at this many coalesced requests (default 32)",
    )
    p_serve.add_argument(
        "--max-wait-ms",
        type=float,
        default=2.0,
        help="flush a micro-batch after its oldest request waited this "
        "long (default 2 ms)",
    )
    p_serve.add_argument(
        "--max-queue",
        type=int,
        default=1024,
        help="admission bound on in-flight requests; beyond it the server "
        "rejects with 'overloaded' (default 1024)",
    )
    p_serve.add_argument(
        "--timeout-ms",
        type=float,
        default=30_000.0,
        help="default per-request deadline (default 30000)",
    )
    p_serve.add_argument(
        "--no-remote-shutdown",
        action="store_true",
        help="refuse the protocol-level 'shutdown' op",
    )
    p_serve.add_argument(
        "--log-json",
        action="store_true",
        help="emit structured JSON logs (one object per line, with "
        "correlation ids) on stderr",
    )
    p_serve.add_argument(
        "--fault-plan",
        default=None,
        metavar="FILE",
        help="inject deterministic faults into the live index's WAL and "
        "checkpoint I/O from this JSON fault plan (testing only; "
        "requires --live)",
    )
    p_serve.add_argument(
        "--wire",
        choices=["auto", "ndjson"],
        default="auto",
        help="wire policy: 'auto' lets clients negotiate the binary "
        "frame protocol, 'ndjson' refuses it (default auto)",
    )
    p_serve.add_argument(
        "--kernel",
        choices=["packed", "python"],
        default="packed",
        help="candidate-scan kernel for frozen tables: vectorized "
        "bitset 'packed' or scalar 'python' (default packed)",
    )
    p_serve.add_argument(
        "--profile-hz",
        type=float,
        default=None,
        metavar="HZ",
        help="run a continuous sampling profiler at this rate; the "
        "'profile' op returns its accumulated folded stacks "
        "(default: off, 'profile' serves one-shot passes)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_node = subparsers.add_parser(
        "node",
        help="serve a live-index directory as one cluster shard node",
    )
    p_node.add_argument("directory", help="live-index directory "
                        "(create with 'repro ingest DIR --init DATABASE')")
    p_node.add_argument(
        "--shard", required=True, help="shard name this node carries"
    )
    p_node.add_argument(
        "--role",
        choices=["owner", "replica"],
        default="owner",
        help="owner accepts routed mutations; replica only applies the "
        "owner's WAL stream until promoted (default owner)",
    )
    p_node.add_argument(
        "--replica",
        default=None,
        metavar="HOST:PORT",
        help="owner-side: ship every WAL record to this replica node "
        "before acknowledging (synchronous replication)",
    )
    p_node.add_argument("--host", default="127.0.0.1")
    p_node.add_argument("--port", type=int, default=7807)
    p_node.add_argument("--max-batch-size", type=int, default=32)
    p_node.add_argument("--max-wait-ms", type=float, default=2.0)
    p_node.add_argument(
        "--wire", choices=["auto", "ndjson"], default="auto"
    )
    p_node.add_argument(
        "--profile-hz", type=float, default=None, metavar="HZ",
        help="continuous sampling profiler rate (default: off)",
    )
    p_node.set_defaults(func=_cmd_node)

    p_router = subparsers.add_parser(
        "router",
        help="front a set of shard nodes with the consistent-hash router",
    )
    p_router.add_argument(
        "--shard",
        action="append",
        required=True,
        metavar="NAME=HOST:PORT",
        help="one shard owner's address (repeat per shard)",
    )
    p_router.add_argument(
        "--replica",
        action="append",
        default=None,
        metavar="NAME=HOST:PORT",
        help="a shard's warm-replica address, enabling probe-driven "
        "failover for it (repeat per replicated shard)",
    )
    p_router.add_argument("--host", default="127.0.0.1")
    p_router.add_argument("--port", type=int, default=7807)
    p_router.add_argument(
        "--universe-size",
        type=int,
        default=None,
        help="item universe of the clustered dataset (queries naming an item "
        "outside it are refused at the router)",
    )
    p_router.add_argument(
        "--vnodes",
        type=int,
        default=64,
        help="virtual nodes per shard on the hash ring (default 64)",
    )
    p_router.add_argument(
        "--retries",
        type=int,
        default=3,
        help="router->shard retry budget per forwarded request (default 3)",
    )
    p_router.add_argument(
        "--probe-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="health-probe shard owners this often and fail over to their "
        "replicas (default: probing off)",
    )
    p_router.add_argument(
        "--probe-failures",
        type=int,
        default=2,
        help="consecutive probe failures before promoting (default 2)",
    )
    p_router.add_argument("--max-batch-size", type=int, default=32)
    p_router.add_argument("--max-wait-ms", type=float, default=2.0)
    p_router.add_argument(
        "--wire", choices=["auto", "ndjson"], default="auto"
    )
    p_router.add_argument(
        "--profile-hz", type=float, default=None, metavar="HZ",
        help="continuous sampling profiler rate (default: off)",
    )
    p_router.set_defaults(func=_cmd_router)

    p_ingest = subparsers.add_parser(
        "ingest",
        help="create a live index and/or durably insert transactions",
    )
    p_ingest.add_argument("directory", help="live-index directory")
    p_ingest.add_argument(
        "transactions",
        nargs="?",
        default=None,
        help="transactions to insert, one per line as space-separated item "
        "ids ('-' reads stdin; '#' lines are comments)",
    )
    p_ingest.add_argument(
        "--init",
        default=None,
        metavar="DATABASE",
        help="create the live index over this base dataset first",
    )
    p_ingest.add_argument(
        "--signatures", "-K", type=int, default=None,
        help="signature cardinality K for --init (default: advisor pick)",
    )
    p_ingest.add_argument(
        "--activation-threshold", "-r", type=int, default=1,
        help="activation threshold r for --init (default 1)",
    )
    p_ingest.add_argument(
        "--page-size", type=int, default=64,
        help="transactions per simulated disk page for --init (default 64)",
    )
    p_ingest.add_argument(
        "--seed", type=int, default=0, help="partitioning seed for --init"
    )
    p_ingest.add_argument(
        "--fsync-interval",
        type=int,
        default=1,
        help="fsync the WAL every N inserts (default 1 = every insert)",
    )
    p_ingest.add_argument(
        "--checkpoint",
        action="store_true",
        help="write a checkpoint and truncate the WAL after ingesting",
    )
    p_ingest.add_argument(
        "--fault-plan",
        default=None,
        metavar="FILE",
        help="inject deterministic faults into WAL and checkpoint I/O "
        "from this JSON fault plan (testing only)",
    )
    p_ingest.set_defaults(func=_cmd_ingest)

    p_compact = subparsers.add_parser(
        "compact",
        help="fold a live index's delta and tombstones into the base",
    )
    p_compact.add_argument("directory", help="live-index directory")
    p_compact.add_argument(
        "--repartition",
        action="store_true",
        help="re-learn the signature partition from the merged data",
    )
    p_compact.add_argument(
        "--auto-repartition",
        action="store_true",
        help="repartition only if the drift advisor recommends it",
    )
    p_compact.add_argument(
        "--if-needed",
        action="store_true",
        help="compact only when the compaction policy triggers",
    )
    p_compact.set_defaults(func=_cmd_compact)

    p_client = subparsers.add_parser(
        "client", help="talk to a running repro server"
    )
    p_client.add_argument(
        "action",
        choices=[
            "ping", "health", "stats", "shutdown", "burst", "query",
            "insert", "delete", "compact", "checkpoint", "ring",
        ],
        help="ping/health/stats/shutdown, a single 'query', a closed-loop "
        "'burst' of queries, a mutation against a live server, or 'ring' "
        "for a cluster router's topology",
    )
    p_client.add_argument(
        "--items",
        nargs="+",
        default=None,
        help="item ids for the insert action",
    )
    p_client.add_argument(
        "--tid",
        type=int,
        default=None,
        help="logical tid for the delete action",
    )
    p_client.add_argument(
        "--repartition",
        action="store_true",
        help="ask the server to repartition during the compact action",
    )
    p_client.add_argument("--host", default="127.0.0.1")
    p_client.add_argument("--port", type=int, default=7807)
    p_client.add_argument(
        "--wait-ready",
        type=float,
        nargs="?",
        const=10.0,
        default=None,
        metavar="SECONDS",
        help="poll until the server answers ping before acting "
        "(bare flag waits up to 10s)",
    )
    p_client.add_argument(
        "--queries",
        default=None,
        help="query file for burst (one transaction per line; default: "
        "random items over the server's universe)",
    )
    p_client.add_argument(
        "--requests", type=int, default=64, help="burst size (default 64)"
    )
    p_client.add_argument(
        "--concurrency",
        "-c",
        type=int,
        default=8,
        help="concurrent closed-loop clients for burst (default 8)",
    )
    p_client.add_argument(
        "--similarity",
        "-s",
        default="match_ratio",
        choices=sorted(SIMILARITY_FUNCTIONS),
    )
    p_client.add_argument("--k", type=int, default=5)
    p_client.add_argument(
        "--threshold",
        type=float,
        default=None,
        help="send range queries with this threshold instead of k-NN",
    )
    p_client.add_argument(
        "--timeout-ms",
        type=float,
        default=None,
        help="per-request deadline forwarded to the server",
    )
    p_client.add_argument(
        "--candidate-tier",
        choices=["exact", "lsh"],
        default=None,
        help="candidate tier for the query action (lsh needs a "
        "sketch-enabled server)",
    )
    p_client.add_argument(
        "--target-recall",
        type=float,
        default=None,
        help="recall target for --candidate-tier lsh (default 0.9)",
    )
    p_client.add_argument(
        "--seed", type=int, default=0, help="seed for generated burst queries"
    )
    p_client.add_argument(
        "--retries",
        type=int,
        default=0,
        help="retry retryable failures (overloaded/unavailable, dropped "
        "connections) up to this many times with jittered exponential "
        "backoff (default 0 = no retries)",
    )
    p_client.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="SECONDS",
        help="overall per-call deadline budget; retries never sleep past "
        "it (default: unbounded)",
    )
    p_client.add_argument(
        "--wire",
        choices=["auto", "binary", "ndjson"],
        default="auto",
        help="wire protocol: 'binary' demands the frame protocol, "
        "'ndjson' skips negotiation, 'auto' tries binary and falls "
        "back (default auto)",
    )
    p_client.set_defaults(func=_cmd_client)

    p_experiment = subparsers.add_parser(
        "experiment",
        help="reproduce one of the paper's figures/tables",
    )
    p_experiment.add_argument(
        "experiment", choices=sorted(_EXPERIMENTS, key=lambda e: (len(e), e))
    )
    p_experiment.add_argument(
        "--profile", default=None, help="quick (default) or paper"
    )
    p_experiment.add_argument(
        "--db-sizes", type=int, nargs="+", default=None,
        help="override the profile's database-size sweep",
    )
    p_experiment.add_argument(
        "--ks", type=int, nargs="+", default=None,
        help="override the profile's K sweep",
    )
    p_experiment.add_argument(
        "--queries", type=int, default=None, help="queries per point"
    )
    p_experiment.add_argument(
        "--output", default=None, help="directory to save the result table"
    )
    p_experiment.set_defaults(func=_cmd_experiment)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream pipe (e.g. `| head`) closed early; not an error.
        return 0
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConnectionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
