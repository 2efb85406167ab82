"""Cluster scatter-gather throughput across 1 -> 2 -> 4 shard owners.

Stands up real ``repro node`` shard-owner *processes* (subprocesses, so
per-shard candidate scans run on separate interpreters rather than
timesharing one GIL), fronts them with an in-process
:class:`~repro.cluster.router.ClusterRouter` served over TCP, and
drives the router with the closed-loop load generator from
:func:`repro.service.client.run_load`.

Every shard count verifies in-run that the router's kNN and range
answers are byte-identical to a single-node
:class:`~repro.core.engine.QueryEngine` over one signature table of the
same logical database — the cluster's core contract — before any throughput is
recorded.  Results land in ``results/cluster_scatter.{txt,csv}``.

Runs two ways:

* under pytest with the shared benchmark fixtures
  (``pytest benchmarks/bench_cluster_scatter.py``);
* as a standalone script — ``python benchmarks/bench_cluster_scatter.py``
  (full scale) or ``--quick`` (CI smoke: tiny dataset, identity checks
  plus a short load burst, seconds of runtime).
"""

import argparse
import os
import socket
import subprocess
import sys
import tempfile
import time
from pathlib import Path

try:
    import repro  # noqa: F401  (probe: is the package importable?)
except ImportError:  # running as a script without PYTHONPATH=src
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cluster import ClusterRouter, RouterServer, ShardSpec
from repro.cluster.harness import bootstrap_node_state
from repro.core.engine import QueryEngine
from repro.core.similarity import get_similarity
from repro.core.table import SignatureTable
from repro.eval.harness import ExperimentContext
from repro.eval.reporting import ExperimentTable
from repro.service.client import ServiceClient, run_load
from repro.service.server import serve_in_background

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

FULL_SPEC = "T8.I4.D8K"
FULL_QUERIES = 48
QUICK_SPEC = "T5.I3.D1K"
QUICK_QUERIES = 16
SHARD_COUNTS = (1, 2, 4)
SIMILARITY = "match_ratio"
K = 10
RANGE_THRESHOLD = 0.3


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _spawn_node(directory: str, shard: str, port: int) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "node",
            directory,
            "--shard",
            shard,
            "--host",
            "127.0.0.1",
            "--port",
            str(port),
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


def _wait_ready(port: int, deadline: float = 30.0) -> None:
    end = time.monotonic() + deadline
    while True:
        try:
            with ServiceClient("127.0.0.1", port, retries=0) as client:
                client.ping()
                return
        except (OSError, ConnectionError):
            if time.monotonic() >= end:
                raise TimeoutError(f"node on port {port} never became ready")
            time.sleep(0.1)


def _percentile(samples, fraction: float) -> float:
    if not samples:
        return float("nan")
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def _check_identity(client, oracle, queries) -> bool:
    """Exact (tid, similarity) comparison against the single-node engine."""
    similarity = get_similarity(SIMILARITY)
    for k in (1, K):
        expected_lists, _ = oracle.knn_batch(queries, similarity, k=k)
        for items, expected in zip(queries, expected_lists):
            got, _ = client.knn(items, similarity=SIMILARITY, k=k)
            if [(n.tid, n.similarity) for n in got] != [
                (n.tid, n.similarity) for n in expected
            ]:
                return False
    expected_lists, _ = oracle.range_query_batch(
        queries, similarity, RANGE_THRESHOLD
    )
    for items, expected in zip(queries, expected_lists):
        got, _ = client.range_query(items, SIMILARITY, RANGE_THRESHOLD)
        if [(n.tid, n.similarity) for n in got] != [
            (n.tid, n.similarity) for n in expected
        ]:
            return False
    return True


def _measure_shard_count(
    num_shards: int,
    base_dir: str,
    rows,
    scheme,
    oracle,
    queries,
    identity_queries,
    concurrency: int,
    total_requests: int,
):
    """One sweep point: ``num_shards`` owner subprocesses behind a router."""
    shard_names = [f"s{i}" for i in range(num_shards)]
    per_shard_rows = {name: [] for name in shard_names}
    preload_pairs = []
    for g, row in enumerate(rows):
        shard = shard_names[g % num_shards]
        preload_pairs.append((shard, len(per_shard_rows[shard])))
        per_shard_rows[shard].append(row)

    procs = []
    router = None
    router_server = None
    try:
        specs = []
        for name in shard_names:
            directory = os.path.join(base_dir, name)
            bootstrap_node_state(
                directory, scheme, rows=per_shard_rows[name]
            ).close()
            port = _free_port()
            procs.append(_spawn_node(directory, name, port))
            specs.append(ShardSpec(name, ("127.0.0.1", port)))
        for spec in specs:
            _wait_ready(spec.address[1])

        router = ClusterRouter(
            specs, universe_size=scheme.universe_size, client_retries=2
        )
        router.directory.preload(preload_pairs)
        router_server = serve_in_background(router, server_cls=RouterServer)
        host, port = router_server.address

        with ServiceClient(host, port) as probe:
            identical = _check_identity(probe, oracle, identity_queries)

        load = run_load(
            host,
            port,
            queries,
            similarity=SIMILARITY,
            k=K,
            concurrency=concurrency,
            total_requests=total_requests,
        )
        return load, identical
    finally:
        if router_server is not None:
            router_server.stop(timeout=10.0)
        if router is not None:
            router.close()
        for proc in procs:
            proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=10.0)


def run(quick: bool = False):
    """Execute the sweep; returns ``(table, identical, qps_by_shards)``."""
    if quick:
        ctx = ExperimentContext("quick", num_queries=QUICK_QUERIES)
        spec = QUICK_SPEC
        concurrency = 8
        total_requests = 64
    else:
        ctx = ExperimentContext("quick", num_queries=FULL_QUERIES)
        spec = FULL_SPEC
        concurrency = 16
        total_requests = 384
    indexed, _ = ctx.database(spec)
    scheme = ctx.scheme(spec, num_signatures=6)
    rows = [sorted(indexed[g]) for g in range(len(indexed))]
    queries = ctx.queries(spec)
    identity_queries = queries[: min(8, len(queries))]
    oracle = QueryEngine.for_table(
        SignatureTable.build(indexed, scheme), indexed
    )

    table = ExperimentTable(
        title=(
            "Cluster scatter-gather throughput vs shard-owner processes "
            f"({spec}, k={K}, {concurrency} clients)"
        ),
        columns=[
            "shards",
            "clients",
            "requests",
            "qps",
            "p50 ms",
            "p99 ms",
            "speedup",
            "identical",
        ],
    )
    table.notes.append(
        f"spec={spec} seed={ctx.seed} similarity={SIMILARITY} "
        f"k={K} range_threshold={RANGE_THRESHOLD}"
    )
    table.notes.append(
        "each shard owner is a separate `repro node` process; identity is "
        "checked in-run against the single-node QueryEngine"
    )
    table.notes.append(
        f"host cpu_count={os.cpu_count()}; scaling saturates once owner "
        "processes + router + load clients oversubscribe the cores"
    )

    qps_by_shards = {}
    all_identical = True
    base_qps = None
    with tempfile.TemporaryDirectory() as root:
        for num_shards in SHARD_COUNTS:
            load, identical = _measure_shard_count(
                num_shards,
                os.path.join(root, f"{num_shards}-shards"),
                rows,
                scheme,
                oracle,
                queries,
                identity_queries,
                concurrency,
                total_requests,
            )
            all_identical = all_identical and identical
            qps_by_shards[num_shards] = load.qps
            if base_qps is None:
                base_qps = load.qps
            table.add_row(
                **{
                    "shards": num_shards,
                    "clients": concurrency,
                    "requests": load.completed,
                    "qps": load.qps,
                    "p50 ms": _percentile(load.latencies_ms(), 0.50),
                    "p99 ms": _percentile(load.latencies_ms(), 0.99),
                    "speedup": load.qps / base_qps if base_qps else 0.0,
                    "identical": "yes" if identical else "NO",
                }
            )
    return table, all_identical, qps_by_shards


def test_cluster_scatter_scaling(emit):
    table, identical, qps = run(quick=False)
    emit(table, "cluster_scatter")
    assert identical, "cluster answers diverged from the single-node engine"
    assert all(value > 0 for value in qps.values()), f"empty load run: {qps}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small smoke run (CI): identity checks plus a short burst",
    )
    args = parser.parse_args(argv)
    table, identical, qps = run(quick=args.quick)
    print(table.to_text())
    if not identical:
        print("FAIL: cluster answers diverged from the single-node engine")
        return 1
    summary = ", ".join(
        f"{shards} shard(s): {value:.1f} q/s" for shards, value in qps.items()
    )
    print(f"OK: identical results across all shard counts; {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
