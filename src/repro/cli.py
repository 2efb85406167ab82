"""Command-line interface: the full life cycle without writing Python.

* ``repro generate`` — synthesise a T·.I·.D· dataset (``.npz`` or FIMI text)
* ``repro stats`` — print dataset statistics
* ``repro build`` — build a signature table
* ``repro advise`` — recommend K and the activation threshold
* ``repro query`` — run a similarity query (k-NN or range) against a saved table
* ``repro query-batch`` — run a file of queries through the batched engine
* ``repro sketch`` — build or inspect the sketch candidate tier of a table
* ``repro explain`` — run one query with a branch-and-bound explain report
* ``repro metrics`` — fetch a running server's metric registry
* ``repro profile`` — sample a running server's thread stacks (folded output)
* ``repro top`` — live terminal dashboard over a server's aggregated metrics
* ``repro serve`` — serve a table, or with ``--live`` a mutable live index,
  to concurrent clients
* ``repro node`` — serve a live-index directory as one cluster shard node
* ``repro router`` — front a set of shard nodes with the consistent-hash router
* ``repro ingest`` — create a live index and/or durably insert transactions
* ``repro compact`` — fold a live index's delta and tombstones into the base
* ``repro client`` — talk to a running repro server
* ``repro experiment`` — reproduce one of the paper's figures/tables

That list is the ``(name, help)`` column of ``_COMMANDS``, the table this
module is built around: every flag is declared once, in a named group of
``_GROUPS``, and a subcommand is one row naming the groups it takes, the
flags only it has and its handler.  ``docs/api.md`` describes each command;
``python -m repro <subcommand> --help`` prints its flags.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

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


def _load_index(args: argparse.Namespace) -> Tuple[TransactionDatabase, SignatureTable]:
    """The ``dataset`` and ``table`` positionals, loaded."""
    return _load_database(args.database), SignatureTable.load(args.table)


def _json_text(payload: object) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


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
        f"occupied, directory {table.memory_bytes(dense=True) / 1024:.0f} KiB "
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


def _refuse_knn_flags_on_range(args: argparse.Namespace) -> None:
    """A ``--threshold`` range query has no row budget: an
    ``--early-termination`` beside it is refused rather than ignored, as
    the service refuses ``early_termination`` on ``op='range'``."""
    if args.threshold is not None and args.early_termination is not None:
        raise ValueError("--early-termination does not apply to --threshold")


def _run_queries(args: argparse.Namespace, queries: List[List[int]], **tier):
    """Load the index and answer ``queries`` through the batched engine,
    the path ``repro serve`` answers on: range queries with
    ``--threshold``, k-NN otherwise.  ``tier`` is ``candidate_tier`` /
    ``target_recall``.  Returns ``(db, results, stats, elapsed seconds of
    the engine call)``."""
    from repro.core.engine import QueryEngine

    _refuse_knn_flags_on_range(args)
    db, table = _load_index(args)
    engine = QueryEngine(table, db)
    similarity = get_similarity(args.similarity)
    started = time.perf_counter()
    if args.threshold is not None:
        results, stats = engine.range_query_batch(
            queries, similarity, args.threshold, **tier
        )
    else:
        results, stats = engine.knn_batch(
            queries,
            similarity,
            k=args.k,
            early_termination=args.early_termination,
            **tier,
        )
    return db, results, stats, time.perf_counter() - started


def _cmd_query(args: argparse.Namespace) -> int:
    target = [int(token) for token in args.items]
    db, results, batch_stats, _ = _run_queries(args, [target])
    shown, stats = results[0], batch_stats[0]
    if args.threshold is not None:
        print(f"{len(shown)} transactions with {args.similarity} >= {args.threshold}")
        shown = shown[: args.k]
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
    from repro.core.engine import QueryEngine
    from repro.obs import Tracer, render_explain
    from repro.service.protocol import encode_neighbors, encode_search_stats

    _refuse_knn_flags_on_range(args)
    db, table = _load_index(args)
    engine = QueryEngine(table, db)
    target = [int(token) for token in args.items]
    tracer = Tracer(correlation_id="explain")
    with tracer.activate():
        results, stats, trace, _ = engine.explain(
            target,
            get_similarity(args.similarity),
            k=args.k,
            early_termination=args.early_termination,
            threshold=args.threshold,
        )

    if args.output == "json":
        # The whole answer: --k bounds a k-NN search, not a range answer;
        # only the human report below caps what it lists.
        document = {
            "explain": trace.to_dict(),
            "spans": tracer.to_dicts(),
            "results": encode_neighbors(results),
            "stats": encode_search_stats(stats),
        }
        print(json.dumps(document))
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


def _metrics_scope(args: argparse.Namespace) -> str:
    return "cluster" if args.router else "self"


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient

    with ServiceClient(args.host, args.port) as client:
        payload = client.metrics(args.format, scope=_metrics_scope(args))
    if args.format == "prometheus":
        # Exposition text already ends with a newline.
        sys.stdout.write(str(payload))
    else:
        print(_json_text(payload))
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
        print(_json_text(payload))
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

    def mean(name) -> float:
        """A histogram's mean over every source: sums and counts add, so
        a cluster scope's merge is exact."""
        added, count = 0.0, 0.0
        for sample in samples(name):
            value = sample.get("value")
            if isinstance(value, dict):
                added += float(value.get("sum", 0.0))
                count += float(value.get("count", 0.0))
        return added / count if count else 0.0

    completed = total("repro_requests_completed_total")
    received = total("repro_requests_received_total")
    mean_ms = 1000.0 * mean("repro_request_latency_seconds")
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
    lines.append(
        f"  batching: mean batch size {mean('repro_batch_size'):.1f}, "
        f"mean queue wait {1000.0 * mean('repro_batch_queue_wait_seconds'):.2f} ms"
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

    scope = _metrics_scope(args)
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
    from repro.core.engine import summarise_stats

    queries = _read_queries(args.queries)
    tier = args.candidate_tier
    _, results, stats, elapsed = _run_queries(
        args, queries, candidate_tier=tier, target_recall=args.target_recall
    )

    if args.output == "json":
        # Machine-consumable NDJSON on stdout (one object per query);
        # the human summary moves to stderr so pipelines stay clean.
        from repro.service.protocol import encode_neighbors

        for index, (query, neighbors, stat) in enumerate(
            zip(queries, results, stats)
        ):
            record = {
                "query": index,
                "items": query,
                "results": encode_neighbors(neighbors),
                "latency_ms": 1000.0 * stat.elapsed_seconds,
                "entries_scanned": stat.entries_scanned,
            }
            print(json.dumps(record))
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

    db, table = _load_index(args)
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


@contextlib.contextmanager
def _open_live(
    directory: str, *, base=None, fault_plan=None, fault_metrics=None, **options
):
    """The live index in ``directory``, open; closed when the block ends.

    ``base`` — the ``db``, ``scheme`` and ``page_size`` of
    :meth:`LiveIndex.create` — creates the directory first.
    ``fault_plan`` names a JSON :class:`~repro.faults.FaultPlan` whose
    injector guards the index's WAL and checkpoint I/O and counts into
    the ``fault_metrics`` registry; ``options`` go to the index
    (``fsync_interval``).
    """
    from repro.live import LiveIndex

    if fault_plan:
        from repro.faults import FaultInjector, FaultPlan

        options["injector"] = FaultInjector(
            FaultPlan.load(fault_plan), metrics_registry=fault_metrics
        )
        print(f"fault injection armed from {fault_plan}", flush=True)
    if base is not None:
        index = LiveIndex.create(directory, **base, **options)
    else:
        index = LiveIndex.recover(directory, **options)
    try:
        yield index
    finally:
        index.close()


def _server_options(args: argparse.Namespace) -> Dict[str, object]:
    """The ``endpoint`` and ``batcher`` groups as server keyword arguments."""
    return {
        "host": args.host,
        "port": args.port,
        "max_batch_size": args.max_batch_size,
        "wire": args.wire,
        "profile_hz": args.profile_hz,
    }


def _serve_forever(server, what: str, tail: str = "") -> None:
    """Run an already-configured server until SIGINT/SIGTERM/shutdown.

    The banner is ``{what} on HOST:PORT{tail}``, printed once the port is
    bound: ``--port 0`` callers read the port the kernel chose from it.
    """
    import asyncio
    import signal

    async def _serve() -> None:
        host, port = await server.start()
        print(f"{what} on {host}:{port}{tail}", flush=True)
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


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.obs import JsonLogger
    from repro.service.server import QueryServer

    live, metrics_registry = contextlib.nullcontext(), None
    if args.live is not None:
        if args.fault_plan:
            from repro.obs import MetricRegistry

            # The injector counts into the server's registry, beside the
            # service and live-index metrics the server binds there.
            metrics_registry = MetricRegistry()
        live = _open_live(
            args.live, fault_plan=args.fault_plan, fault_metrics=metrics_registry
        )
    elif args.fault_plan:
        # The plan guards WAL and checkpoint I/O, which a frozen table has
        # none of; serving with the flag ignored would only look armed.
        raise ValueError("--fault-plan requires --live")
    elif args.database is None or args.table is None:
        raise ValueError("serve needs either --live DIR or a database and a table")
    with live as live_index:
        if live_index is not None:
            index, index_info = live_index, {"directory": args.live}
            served = f"{live_index.num_transactions} transactions, live"
        else:
            from repro.core.engine import QueryEngine

            db, table = _load_index(args)
            index = QueryEngine(table, db)
            index_info = {
                "database": args.database,
                "table": args.table,
                "num_transactions": len(db),
                "universe_size": db.universe_size,
                "num_signatures": table.scheme.num_signatures,
            }
            served = f"{len(db)} transactions, frozen"
        server = QueryServer(
            index,
            logger=JsonLogger("server", enabled=args.log_json),
            max_queue=args.max_queue,
            default_timeout_ms=args.timeout_ms,
            allow_remote_shutdown=not args.no_remote_shutdown,
            index_info=index_info,
            metrics_registry=metrics_registry,
            **_server_options(args),
        )
        _serve_forever(
            server,
            f"serving {args.live or args.database} ({served})",
            f"  [max_batch_size={args.max_batch_size}, max_queue={args.max_queue}]",
        )
        requests = server.metrics.snapshot()["requests"]
        print(
            f"drained: {requests['completed']} completed, "
            f"{requests['rejected_overload']} overload rejections, "
            f"{requests['timeouts']} timeouts",
            flush=True,
        )
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


def _cmd_node(args: argparse.Namespace) -> int:
    from repro.cluster import ClusterNodeServer, ReplicatedLiveIndex, WalShipper

    if args.replica and args.role != "owner":
        raise ValueError(
            "--replica names the owner's ship target; replica-role nodes "
            "receive the stream instead"
        )
    with _open_live(args.directory) as index:
        served = index
        if args.replica:
            served = ReplicatedLiveIndex(
                index, WalShipper(args.shard, _parse_address(args.replica))
            )
        server = ClusterNodeServer(
            served,
            shard=args.shard,
            role=args.role,
            index_info={
                "directory": args.directory,
                "shard": args.shard,
                "role": args.role,
            },
            **_server_options(args),
        )
        _serve_forever(
            server,
            f"cluster node shard={args.shard} role={args.role} serving "
            f"{args.directory} ({index.num_transactions} transactions)",
            f" -> replica {args.replica}" if args.replica else "",
        )
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
        raise ValueError(f"--replica for unknown shards: {sorted(replicas)}")
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
    server = RouterServer(router, **_server_options(args))
    shard_list = ", ".join(
        spec.name + ("+replica" if spec.replica_address else "")
        for spec in specs
    )
    try:
        _serve_forever(server, f"cluster router over [{shard_list}]")
    finally:
        router.close()
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    import os

    exists = os.path.exists(os.path.join(args.directory, "manifest.json"))
    base = None
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
        base = {"db": db, "scheme": scheme, "page_size": args.page_size}
    elif not exists:
        raise ValueError(
            f"no live index at {args.directory!r}; pass --init DATABASE "
            "to create one"
        )
    with _open_live(
        args.directory,
        base=base,
        fault_plan=args.fault_plan,
        fsync_interval=args.fsync_interval,
    ) as index:
        if base is not None:
            print(
                f"created live index over {len(db)} transactions "
                f"(K={scheme.num_signatures}, r={scheme.activation_threshold}) "
                f"in {args.directory}"
            )
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
    return 0


def _cmd_compact(args: argparse.Namespace) -> int:
    with _open_live(args.directory) as index:
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
    return 0


def _client_query(client, args: argparse.Namespace):
    items = [int(i) for i in args.items]
    tier = {
        "timeout_ms": args.timeout_ms,
        "candidate_tier": args.candidate_tier,
        "target_recall": args.target_recall,
    }
    if args.threshold is not None:
        return client.range_query(items, args.similarity, args.threshold, **tier)
    return client.knn(items, args.similarity, k=args.k, **tier)


def _render_client_query(answer, args: argparse.Namespace):
    neighbors, stats = answer
    lines = [
        f"tid {neighbor.tid}  similarity {neighbor.similarity:.6f}"
        for neighbor in neighbors
    ]
    if stats.get("candidate_tier", "exact") != "exact":
        lines.append(
            f"-- {stats['candidate_tier']} tier: "
            f"{stats.get('sketch_candidates', '?')} sketch candidates, "
            f"estimated recall {stats.get('estimated_recall', 0.0):.3f}"
        )
    return "\n".join(lines), 0


def _client_burst(client, args: argparse.Namespace):
    """A closed-loop concurrent load burst."""
    from repro.service.client import run_load

    if args.queries is not None:
        queries = _read_queries(args.queries)
    else:
        # No query file: sample random transactions from the universe the
        # server reports in its stats payload.
        import random

        universe = int(client.stats()["index"].get("universe_size", 0))
        if universe <= 0:
            raise ValueError("server reports no universe_size; pass --queries FILE")
        rng = random.Random(args.seed)
        queries = [
            sorted(rng.sample(range(universe), k=min(universe, 10)))
            for _ in range(min(args.requests, 256))
        ]
    return run_load(
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


def _render_burst(result, args: argparse.Namespace):
    latencies = result.latencies_ms()
    mid = latencies[len(latencies) // 2] if latencies else float("nan")
    retried = f", {result.retried} retried" if result.retried else ""
    return (
        f"{result.completed}/{len(result.records)} requests ok "
        f"({result.rejected} rejected{retried}) in "
        f"{result.elapsed_seconds:.2f}s — "
        f"{result.qps:.1f} req/s at concurrency {result.concurrency} "
        f"over {result.wire}, ~p50 {mid:.1f} ms"
    ), 0 if result.completed else 1


def _render_json(payload, args: argparse.Namespace):
    return _json_text(payload), 0


#: ``repro client`` actions: the flags (by dest) the action cannot run
#: without, the ``(ServiceClient, args) -> answer`` call, and the renderer
#: ``(answer, args) -> (stdout text, exit code)``.
_CLIENT_ACTIONS = {
    "ping": ((), lambda c, a: c.ping(), lambda r, a: ("pong" if r else "no answer", 0)),
    "health": (
        (),
        lambda c, a: c.health(),
        lambda r, a: (
            _json_text(r), 0 if r.get("ready") and not r.get("degraded") else 1
        ),
    ),
    "stats": ((), lambda c, a: c.stats(), _render_json),
    "shutdown": (
        (),
        lambda c, a: c.shutdown(),
        lambda r, a: ("server draining", 0) if r else ("shutdown refused", 1),
    ),
    "burst": ((), _client_burst, _render_burst),
    "query": (("items",), _client_query, _render_client_query),
    "insert": (
        ("items",),
        lambda c, a: c.insert([int(i) for i in a.items]),
        lambda r, a: (f"inserted as logical tid {r}", 0),
    ),
    "delete": (
        ("tid",),
        lambda c, a: c.delete(a.tid),
        lambda r, a: (f"deleted logical tid {a.tid}", 0),
    ),
    "compact": ((), lambda c, a: c.compact(repartition=a.repartition), _render_json),
    "checkpoint": (
        (),
        lambda c, a: c.checkpoint(),
        lambda r, a: (f"checkpointed through seqno {r}", 0),
    ),
    "ring": ((), lambda c, a: c.ring(), _render_json),
}


def _cmd_client(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient, ServiceError, wait_ready

    ready = args.wait_ready
    if ready is not None and not wait_ready(args.host, args.port, timeout=ready):
        print(
            f"error: no server at {args.host}:{args.port} after {ready:g}s",
            file=sys.stderr,
        )
        return 2
    needs, call, render = _CLIENT_ACTIONS[args.action]
    for dest in needs:
        if vars(args)[dest] is None:
            print(f"error: {args.action} needs --{dest}", file=sys.stderr)
            return 2
    connect = {"retries": args.retries, "deadline": args.deadline, "wire": args.wire}
    try:
        with ServiceClient(args.host, args.port, **connect) as client:
            answer = call(client, args)
    except ServiceError as exc:
        print(f"error: server rejected the request: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a dead port, a dropped connection
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text, code = render(answer, args)
    if text:
        print(text)
    return code


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


# ----------------------------------------------------------------------
# The command table
# ----------------------------------------------------------------------
def _flag(*names: str, **spec) -> Tuple[Tuple[str, ...], Dict[str, object]]:
    """One ``add_argument`` declaration, kept as data."""
    return names, spec


#: Flags more than one subcommand takes, declared once.  A command row
#: that names a group's flag again refines the declaration (a default, a
#: help text worded for that command) instead of repeating it.
_GROUPS: Dict[str, list] = {
    "dataset": [_flag("database", help="dataset path (.npz or .txt)")],
    "table": [_flag("table", help="signature-table path (.npz)")],
    "target": [_flag("items", nargs="+", help="target transaction as item ids")],
    "query": [
        _flag("--similarity", "-s", default="match_ratio",
              choices=sorted(SIMILARITY_FUNCTIONS)),
        _flag("--k", type=int, default=5),
        _flag("--threshold", type=float,
              help="run a range query with this similarity threshold instead of k-NN"),
    ],
    "budget": [
        _flag("--early-termination", type=float,
              help="stop after this fraction of the data (e.g. 0.02)"),
    ],
    "tier": [
        _flag("--candidate-tier", choices=["exact", "lsh"], default="exact",
              help="candidate tier: exact (default) or lsh (sketch prefilter; "
              "table needs `repro sketch build` first)"),
        _flag("--target-recall", type=float,
              help="recall target for --candidate-tier lsh (default 0.9)"),
    ],
    "report": [
        _flag("--output", "-o", choices=["human", "json"], default="human",
              help="result format: human (default) or json (one object per "
              "line on stdout, summary on stderr)"),
    ],
    "seed": [_flag("--seed", type=int, default=0)],
    "endpoint": [
        _flag("--host", default="127.0.0.1"),
        _flag("--port", type=int, default=7807),
    ],
    "scope": [
        _flag("--router", action="store_true",
              help="poll the cluster-wide merged metrics of a router"),
    ],
    "batcher": [
        _flag("--max-batch-size", type=int, default=32,
              help="flush a micro-batch at this many coalesced requests (default 32)"),
        _flag("--wire", choices=["auto", "ndjson"], default="auto",
              help="wire policy: 'auto' lets clients negotiate the binary "
              "frame protocol, 'ndjson' refuses it (default auto)"),
        _flag("--profile-hz", type=float, metavar="HZ",
              help="run a continuous sampling profiler at this rate; the "
              "'profile' op returns its accumulated folded stacks "
              "(default: off, 'profile' serves one-shot passes)"),
    ],
    "live-dir": [_flag("directory", help="live-index directory")],
    "live-init": [
        _flag("--signatures", "-K", type=int, default=15,
              help="signature cardinality K (default 15)"),
        _flag("--activation-threshold", "-r", type=int, default=1),
        _flag("--page-size", type=int, default=64),
    ],
    "faults": [
        _flag("--fault-plan", metavar="FILE",
              help="inject deterministic faults into WAL and checkpoint I/O "
              "from this JSON fault plan (testing only)"),
    ],
}


class _Command(NamedTuple):
    """One subcommand: the shared groups it takes, then its own flags."""

    name: str
    help: str
    groups: Tuple[str, ...]
    #: ``args -> exit code``; ``None`` for a row that only holds ``subcommands``.
    handler: Optional[Callable[[argparse.Namespace], int]]
    flags: tuple = ()
    subcommands: tuple = ()


_COMMANDS = (
    _Command("generate", "synthesise a T·.I·.D· dataset", ("seed",), _cmd_generate, [
        _flag("spec", help="dataset spec, e.g. T10.I6.D100K"),
        _flag("output", help="output path (.npz, or .txt for FIMI)"),
        _flag("--num-items", type=int, default=1000),
        _flag("--num-patterns", type=int, default=2000),
        _flag("--skew", type=float, default=0.0, metavar="S",
              help="Zipf exponent skewing item popularity (0 = the paper's "
              "uniform universe; try 1.0-2.0 for a hot-head catalogue)"),
    ]),
    _Command("stats", "print dataset statistics", ("dataset",), _cmd_stats),
    _Command("build", "build a signature table", ("dataset", "live-init", "seed"),
             _cmd_build, [
        _flag("output", help="output table path (.npz)"),
        _flag("--min-support", type=float, default=0.0),
    ]),
    _Command("advise", "recommend K and the activation threshold", ("dataset",),
             _cmd_advise, [
        _flag("--memory", type=int, default=1 << 20,
              help="directory memory budget in bytes (default 1 MiB)"),
    ]),
    _Command("query", "run a similarity query against a saved table",
             ("dataset", "table", "target", "query", "budget"), _cmd_query),
    _Command("query-batch", "run a file of queries through the batched engine",
             ("dataset", "table", "query", "budget", "report", "tier"),
             _cmd_query_batch, [
        _flag("queries",
              help="query file: one transaction per line as space-separated item "
              "ids ('-' reads stdin; '#' lines are comments)"),
        _flag("--early-termination",
              help="stop each query after this fraction of the data (e.g. 0.02)"),
        _flag("--threshold",
              help="run range queries with this similarity threshold instead of k-NN"),
    ]),
    _Command("sketch", "build or inspect the sketch candidate tier of a table",
             (), None, subcommands=[
        _Command("build", "sign the database and attach the sketch column to a table",
                 ("dataset", "table", "seed"), _cmd_sketch_build, [
            _flag("--out",
                  help="output table path (default: overwrite the input table)"),
            _flag("--num-hashes", type=int, default=128),
            _flag("--bands", type=int, default=32),
            _flag("--rows", type=int, default=2),
            _flag("--design-similarity", type=float,
                  help="similarity the band budget is calibrated against "
                  "(default: calibrated from the data, skew-aware)"),
        ]),
        _Command("stats", "print a table's sketch parameters and band budgets",
                 ("table",), _cmd_sketch_stats),
    ]),
    _Command("explain", "run one query with a branch-and-bound explain report",
             ("dataset", "table", "target", "query", "budget", "report"),
             _cmd_explain, [
        _flag("--threshold",
              help="explain a range query with this threshold instead of k-NN"),
        _flag("--max-events", type=int,
              help="cap the per-entry rows in the human report"),
        _flag("--output",
              help="human-readable report (default) or one JSON object with "
              "the explain record, span tree, results and stats"),
    ]),
    _Command("metrics", "fetch a running server's metric registry",
             ("endpoint", "scope"), _cmd_metrics, [
        _flag("--format", "-f", choices=["json", "prometheus"], default="prometheus",
              help="exposition format (default prometheus)"),
    ]),
    _Command("profile", "sample a running server's thread stacks (folded output)",
             ("endpoint",), _cmd_profile, [
        _flag("--duration", "-d", type=float,
              help="one-shot sampling window in seconds (server default 1s; "
              "ignored by a continuous profiler)"),
        _flag("--hz", type=float,
              help="sampling rate for a one-shot profile (server default)"),
        _flag("--reset", action="store_true",
              help="clear a continuous profiler's accumulated stacks after "
              "snapshotting"),
        _flag("--output", "-o", choices=["folded", "json"], default="folded",
              help="'folded' prints flamegraph-compatible stacks; 'json' the "
              "raw snapshot (default folded)"),
    ]),
    _Command("top", "live terminal dashboard over a server's aggregated metrics",
             ("endpoint", "scope"), _cmd_top, [
        _flag("--interval", type=float, default=2.0,
              help="refresh interval in seconds (default 2)"),
        _flag("--once", action="store_true",
              help="print one frame and exit (no screen clearing)"),
    ]),
    _Command("serve", "serve a table to concurrent clients (NDJSON over TCP)",
             ("dataset", "table", "endpoint", "batcher", "faults"), _cmd_serve, [
        _flag("database", nargs="?",
              help="dataset path (.npz or .txt); omit with --live"),
        _flag("table", nargs="?",
              help="signature-table path (.npz); omit with --live"),
        _flag("--live", metavar="DIR",
              help="serve a mutable live index from this directory instead of a "
              "frozen table; enables the insert/delete/compact/checkpoint ops "
              "(create the directory with 'repro ingest DIR --init DATABASE')"),
        _flag("--max-queue", type=int, default=1024,
              help="admission bound on in-flight requests; beyond it the server "
              "rejects with 'overloaded' (default 1024)"),
        _flag("--timeout-ms", type=float, default=30_000.0,
              help="default per-request deadline (default 30000)"),
        _flag("--no-remote-shutdown", action="store_true",
              help="refuse the protocol-level 'shutdown' op"),
        _flag("--log-json", action="store_true",
              help="emit structured JSON logs (one object per line, with "
              "correlation ids) on stderr"),
        _flag("--fault-plan",
              help="inject deterministic faults into the live index's WAL and "
              "checkpoint I/O from this JSON fault plan (testing only; "
              "requires --live)"),
    ]),
    _Command("node", "serve a live-index directory as one cluster shard node",
             ("live-dir", "endpoint", "batcher"), _cmd_node, [
        _flag("directory", help="live-index directory "
              "(create with 'repro ingest DIR --init DATABASE')"),
        _flag("--shard", required=True, help="shard name this node carries"),
        _flag("--role", choices=["owner", "replica"], default="owner",
              help="owner accepts routed mutations; replica only applies the "
              "owner's WAL stream until promoted (default owner)"),
        _flag("--replica", metavar="HOST:PORT",
              help="owner-side: ship every WAL record to this replica node "
              "before acknowledging (synchronous replication)"),
    ]),
    _Command("router", "front a set of shard nodes with the consistent-hash router",
             ("endpoint", "batcher"), _cmd_router, [
        _flag("--shard", action="append", required=True, metavar="NAME=HOST:PORT",
              help="one shard owner's address (repeat per shard)"),
        _flag("--replica", action="append", metavar="NAME=HOST:PORT",
              help="a shard's warm-replica address, enabling probe-driven "
              "failover for it (repeat per replicated shard)"),
        _flag("--universe-size", type=int,
              help="item universe of the clustered dataset (queries naming an item "
              "outside it are refused at the router)"),
        _flag("--vnodes", type=int, default=64,
              help="virtual nodes per shard on the hash ring (default 64)"),
        _flag("--retries", type=int, default=3,
              help="router->shard retry budget per forwarded request (default 3)"),
        _flag("--probe-interval", type=float, metavar="SECONDS",
              help="health-probe shard owners this often and fail over to their "
              "replicas (default: probing off)"),
        _flag("--probe-failures", type=int, default=2,
              help="consecutive probe failures before promoting (default 2)"),
    ]),
    _Command("ingest", "create a live index and/or durably insert transactions",
             ("live-dir", "live-init", "seed", "faults"), _cmd_ingest, [
        _flag("transactions", nargs="?",
              help="transactions to insert, one per line as space-separated item "
              "ids ('-' reads stdin; '#' lines are comments)"),
        _flag("--init", metavar="DATABASE",
              help="create the live index over this base dataset first"),
        _flag("--signatures", default=None,
              help="signature cardinality K for --init (default: advisor pick)"),
        _flag("--activation-threshold",
              help="activation threshold r for --init (default 1)"),
        _flag("--page-size",
              help="transactions per simulated disk page for --init (default 64)"),
        _flag("--seed", help="partitioning seed for --init"),
        _flag("--fsync-interval", type=int, default=1,
              help="fsync the WAL every N inserts (default 1 = every insert)"),
        _flag("--checkpoint", action="store_true",
              help="write a checkpoint and truncate the WAL after ingesting"),
    ]),
    _Command("compact", "fold a live index's delta and tombstones into the base",
             ("live-dir",), _cmd_compact, [
        _flag("--repartition", action="store_true",
              help="re-learn the signature partition from the merged data"),
        _flag("--auto-repartition", action="store_true",
              help="repartition only if the drift advisor recommends it"),
        _flag("--if-needed", action="store_true",
              help="compact only when the compaction policy triggers"),
    ]),
    _Command("client", "talk to a running repro server",
             ("endpoint", "query", "tier", "seed"), _cmd_client, [
        _flag("action", choices=list(_CLIENT_ACTIONS),
              help="ping/health/stats/shutdown, a single 'query', a closed-loop "
              "'burst' of queries, a mutation against a live server, or 'ring' "
              "for a cluster router's topology"),
        _flag("--items", nargs="+", help="item ids for the insert action"),
        _flag("--tid", type=int, help="logical tid for the delete action"),
        _flag("--repartition", action="store_true",
              help="ask the server to repartition during the compact action"),
        _flag("--wait-ready", type=float, nargs="?", const=10.0, metavar="SECONDS",
              help="poll until the server answers ping before acting "
              "(bare flag waits up to 10s)"),
        _flag("--queries",
              help="query file for burst (one transaction per line; default: "
              "random items over the server's universe)"),
        _flag("--requests", type=int, default=64, help="burst size (default 64)"),
        _flag("--concurrency", "-c", type=int, default=8,
              help="concurrent closed-loop clients for burst (default 8)"),
        _flag("--threshold",
              help="send range queries with this threshold instead of k-NN"),
        _flag("--timeout-ms", type=float,
              help="per-request deadline forwarded to the server"),
        _flag("--candidate-tier", default=None,
              help="candidate tier for the query action (lsh needs a "
              "sketch-enabled server)"),
        _flag("--seed", help="seed for generated burst queries"),
        _flag("--retries", type=int, default=0,
              help="retry retryable failures (overloaded/unavailable, dropped "
              "connections) up to this many times with jittered exponential "
              "backoff (default 0 = no retries)"),
        _flag("--deadline", type=float, metavar="SECONDS",
              help="overall per-call deadline budget; retries never sleep past "
              "it (default: unbounded)"),
        _flag("--wire", choices=["auto", "binary", "ndjson"], default="auto",
              help="wire protocol: 'binary' demands the frame protocol, "
              "'ndjson' skips negotiation, 'auto' tries binary and falls "
              "back (default auto)"),
    ]),
    _Command("experiment", "reproduce one of the paper's figures/tables", (),
             _cmd_experiment, [
        _flag("experiment", choices=sorted(_EXPERIMENTS, key=lambda e: (len(e), e))),
        _flag("--profile", help="quick (default) or paper"),
        _flag("--db-sizes", type=int, nargs="+",
              help="override the profile's database-size sweep"),
        _flag("--ks", type=int, nargs="+", help="override the profile's K sweep"),
        _flag("--queries", type=int, help="queries per point"),
        _flag("--output", help="directory to save the result table"),
    ]),
)


def _declarations(command: _Command):
    """``(names, spec)`` of a command: its groups' flags in group order,
    then its own; an own flag that names a group's refines it in place."""
    flags: Dict[str, Tuple[Tuple[str, ...], Dict[str, object]]] = {}
    for group in command.groups:
        for names, spec in _GROUPS[group]:
            flags[names[0]] = (names, dict(spec))
    for names, spec in command.flags:
        if names[0] in flags:
            flags[names[0]][1].update(spec)
        else:
            flags[names[0]] = (names, dict(spec))
    return flags.values()


def _add_commands(subparsers, commands) -> None:
    for command in commands:
        parser = subparsers.add_parser(command.name, help=command.help)
        if command.subcommands:
            holder = parser.add_subparsers(dest=f"{command.name}_action", required=True)
            _add_commands(holder, command.subcommands)
            continue
        for names, spec in _declarations(command):
            parser.add_argument(*names, **spec)
        parser.set_defaults(func=command.handler)


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Signature-table similarity indexing of market basket data "
        "(Aggarwal, Wolf & Yu, SIGMOD 1999)",
    )
    _add_commands(parser.add_subparsers(dest="command", required=True), _COMMANDS)
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
    except (ValueError, OSError) as exc:
        # OSError covers a missing file and a dead or refused connection.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
