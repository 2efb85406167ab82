"""Chaos differential suite: exactly-once under seeded fault schedules.

Two sweeps, both fully deterministic per seed:

* the **errfs sweep** drives randomized mutation workloads straight into
  a :class:`~repro.live.LiveIndex` whose WAL/checkpoint I/O fails on a
  seeded schedule (including simulated crashes + recovery mid-stream),
  and checks the terminal logical database is byte-identical to a replay
  of exactly the acknowledged ops;
* the **proxy sweep** runs the full client/server path through the TCP
  fault proxy (resets, truncations, delays) with a retrying client, and
  holds the same invariant — ambiguous outcomes are resolved through the
  dedupe table exactly as a resilient client resolves them.

The sweeps carry the ``faults`` marker (``pytest -m faults`` selects
them); they run in the default suite.
"""

import random

import numpy as np
import pytest

from repro.faults import (
    AckedOracle,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    FaultProxy,
    run_errfs_schedule,
)
from repro.live import LiveIndex, LiveQueryEngine
from repro.service.client import ServiceClient
from repro.service.server import serve_in_background

from tests.faults.conftest import UNIVERSE, random_transaction

#: Seed counts for the two sweeps; together they clear the 200-schedule
#: acceptance bar with margin.
ERRFS_SEEDS = 200
PROXY_SEEDS = 16


class TestErrfsSchedule:
    def test_single_schedule_reports_consistently(self, tmp_path):
        summary = run_errfs_schedule(3, tmp_path)
        assert summary.verified, summary.mismatch
        assert summary.seed == 3
        assert summary.ops_attempted == 40
        assert summary.acked <= summary.ops_attempted
        assert summary.recoveries == summary.crashes
        assert summary.fault_plan is not None

    def test_schedule_is_deterministic(self, tmp_path):
        a = run_errfs_schedule(11, tmp_path / "a")
        b = run_errfs_schedule(11, tmp_path / "b")
        assert (a.acked, a.io_failures, a.crashes, a.faults_injected) == (
            b.acked, b.io_failures, b.crashes, b.faults_injected
        )
        assert a.fault_plan == b.fault_plan

    @pytest.mark.faults
    def test_errfs_sweep_no_lost_or_duplicated_acks(self, tmp_path):
        failures = []
        injected = crashes = retries = dedupe_hits = 0
        for seed in range(ERRFS_SEEDS):
            summary = run_errfs_schedule(seed, tmp_path)
            injected += summary.faults_injected
            crashes += summary.crashes
            retries += summary.retries
            dedupe_hits += summary.dedupe_hits
            if not summary.verified:
                failures.append((seed, summary.mismatch, summary.fault_plan))
        assert not failures, (
            f"{len(failures)}/{ERRFS_SEEDS} schedules diverged from the "
            f"acked-op replay; first: seed={failures[0][0]} "
            f"{failures[0][1]} plan={failures[0][2]}"
        )
        # The sweep must actually exercise the machinery it certifies.
        assert injected >= ERRFS_SEEDS / 2
        assert crashes > ERRFS_SEEDS  # every schedule ends in one forced crash
        assert retries > 0
        assert dedupe_hits > 0


def _run_proxy_schedule(seed, root, base_db, scheme, num_ops=12):
    """One seeded proxy chaos schedule; returns (mismatch, stats)."""
    rng = random.Random(seed ^ 0xAB1E)
    data_rng = np.random.default_rng(seed)
    specs = []
    for _ in range(rng.randint(1, 3)):
        site = ("proxy.c2s", "proxy.s2c")[rng.randrange(2)]
        kind = ("reset", "truncate", "delay")[rng.randrange(3)]
        specs.append(
            FaultSpec(
                site=site,
                kind=kind,
                after=rng.randint(1, 2 * num_ops),
                nbytes=rng.randint(0, 12),
                delay_ms=5.0,
            )
        )
    injector = FaultInjector(FaultPlan(specs=tuple(specs), seed=seed))

    index = LiveIndex.create(root, base_db, scheme=scheme)
    handle = serve_in_background(LiveQueryEngine(index), live_index=index)
    oracle = AckedOracle(base_db)
    ambiguous = retried = 0
    try:
        with FaultProxy(handle.address, injector) as proxy:
            host, port = proxy.address
            client = ServiceClient(
                host,
                port,
                retries=4,
                backoff_base=0.005,
                backoff_max=0.05,
                retry_seed=seed,
                client_id=f"proxy-chaos-{seed}",
            )
            try:
                for _ in range(num_ops):
                    if rng.random() < 0.7 or len(oracle) <= 2:
                        op = "insert"
                        payload = random_transaction(data_rng)
                    else:
                        op = "delete"
                        payload = rng.randrange(len(oracle))
                    retries_before = client.retries_attempted
                    try:
                        if op == "insert":
                            tid = client.insert([int(i) for i in payload])
                            oracle.acked_insert(payload)
                            if tid != len(oracle) - 1:
                                return (
                                    f"insert acked tid {tid}, oracle expects "
                                    f"{len(oracle) - 1}",
                                    None,
                                )
                        else:
                            client.delete(payload)
                            oracle.acked_delete(payload)
                    except (OSError, ConnectionError):
                        # Retries exhausted mid-request: the outcome is
                        # ambiguous.  Resolve it the way recovery does —
                        # through the dedupe table (the key the client
                        # stamped is its newest request_id).
                        ambiguous += 1
                        cached = index.dedupe.lookup(
                            client.client_id, client._next_request_id
                        )
                        if cached is not None:
                            if op == "insert":
                                oracle.acked_insert(payload)
                            else:
                                oracle.acked_delete(payload)
                    retried += client.retries_attempted - retries_before
            finally:
                client.close()
        mismatch = oracle.diff(index.logical_db())
        return mismatch, {
            "injected": injector.injected,
            "killed": None,
            "ambiguous": ambiguous,
            "retried": retried,
        }
    finally:
        handle.stop()
        index.close()


class TestProxySchedule:
    @pytest.mark.faults
    def test_proxy_sweep_exactly_once_over_tcp(
        self, tmp_path, base_db, scheme
    ):
        failures = []
        injected = retried = 0
        for seed in range(PROXY_SEEDS):
            mismatch, stats = _run_proxy_schedule(
                seed, tmp_path / f"seed-{seed}", base_db, scheme
            )
            if mismatch is not None:
                failures.append((seed, mismatch))
                continue
            injected += stats["injected"]
            retried += stats["retried"]
        assert not failures, (
            f"{len(failures)}/{PROXY_SEEDS} proxy schedules diverged; "
            f"first: seed={failures[0][0]} {failures[0][1]}"
        )
        assert injected > 0
        assert retried > 0
