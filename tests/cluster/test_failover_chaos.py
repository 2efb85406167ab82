"""Failover chaos: zero acknowledged mutations lost across promotion.

Seeded schedules drive a keyed, retrying client against the router while
the shard-0 owner sits behind a :class:`~repro.faults.FaultProxy` running
a seeded fault plan (resets / truncations / delays); mid-schedule the
proxy partitions the owner away entirely, the router's health probes
promote the warm replica, and the workload keeps going.  Terminal
invariant — exactly the chaos suite's single-node bar — the cluster's
logical database is byte-identical to a replay of exactly the
acknowledged ops (:class:`tests.faults.chaos.AckedOracle`).
"""

import random
import time

import numpy as np
import pytest

from repro.cluster import ClusterHarness
from repro.data.transaction import TransactionDatabase
from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.service.client import ServiceError

from tests.cluster.conftest import UNIVERSE, random_transaction
from tests.faults.chaos import AckedOracle

pytestmark = pytest.mark.cluster

NUM_OPS = 24
PARTITION_AT = 8


class _KeyedDriver:
    """Drives keyed mutations to completion across failover windows.

    Each op keeps ONE idempotency key across every attempt, so the
    router's dedupe table (and, behind it, each shard node's) resolves
    replays; an op is only recorded in the oracle once an attempt is
    acknowledged.  Returns whether the op was acked.
    """

    def __init__(self, client, oracle, router, attempts=80, backoff=0.05):
        self.client = client
        self.oracle = oracle
        self.router = router
        self.attempts = attempts
        self.backoff = backoff
        self.ambiguous = 0
        self._request_id = 0

    def _run(self, message, on_ack):
        self._request_id += 1
        message = dict(
            message,
            client_id=self.client.client_id,
            request_id=self._request_id,
        )
        for _ in range(self.attempts):
            try:
                response = self.client.request(dict(message))
            except (OSError, ConnectionError):
                time.sleep(self.backoff)
            except ServiceError as exc:
                if exc.code not in ("unavailable", "internal"):
                    raise
                time.sleep(self.backoff)
            else:
                on_ack(response)
                return True
        # Retries exhausted: resolve the ambiguity through the router's
        # dedupe table, exactly as a recovering client would.
        self.ambiguous += 1
        cached = self.router.dedupe.lookup(
            message["client_id"], message["request_id"]
        )
        if cached is not None:
            on_ack(cached)
            return True
        return False

    def insert(self, items):
        def on_ack(response):
            tid = int(response["tid"])
            self.oracle.acked_insert(items)
            assert tid == len(self.oracle) - 1, (
                f"insert acked tid {tid}, oracle expects "
                f"{len(self.oracle) - 1}"
            )

        return self._run({"op": "insert", "items": list(items)}, on_ack)

    def delete(self, tid):
        return self._run(
            {"op": "delete", "tid": int(tid)},
            lambda response: self.oracle.acked_delete(tid),
        )


def _run_cluster_schedule(seed, root, scheme):
    """One seeded failover chaos schedule; returns (mismatch, stats)."""
    rng = random.Random(seed ^ 0x5EED)
    data_rng = np.random.default_rng(seed)
    specs = []
    for _ in range(rng.randint(1, 3)):
        specs.append(
            FaultSpec(
                site=("proxy.c2s", "proxy.s2c")[rng.randrange(2)],
                kind=("reset", "truncate", "delay")[rng.randrange(3)],
                after=rng.randint(1, 2 * NUM_OPS),
                nbytes=rng.randint(0, 12),
                delay_ms=5.0,
            )
        )
    injector = FaultInjector(FaultPlan(specs=tuple(specs), seed=seed))

    base_rows = [random_transaction(data_rng) for _ in range(12)]
    assignment = [("s0", "s1")[g % 2] for g in range(len(base_rows))]
    oracle = AckedOracle(
        TransactionDatabase(base_rows, universe_size=UNIVERSE)
    )
    with ClusterHarness(
        str(root),
        scheme,
        shards=("s0", "s1"),
        replicas=("s0",),
        proxies={"s0": injector},
        rows=base_rows,
        assignment=assignment,
        probe_interval=0.05,
        probe_failures=2,
        client_retries=2,
    ) as h:
        with h.client(
            retries=2,
            backoff_base=0.005,
            backoff_max=0.05,
            retry_seed=seed,
            client_id=f"cluster-chaos-{seed}",
        ) as client:
            driver = _KeyedDriver(client, oracle, h.router)
            unresolved = 0
            for op_index in range(NUM_OPS):
                if op_index == PARTITION_AT:
                    h.proxies["s0"].partition()
                if rng.random() < 0.7 or len(oracle) <= 2:
                    acked = driver.insert(random_transaction(data_rng))
                else:
                    acked = driver.delete(rng.randrange(len(oracle)))
                if not acked:
                    unresolved += 1
        deadline = time.monotonic() + 10.0
        while (
            not h.router.describe()["shards"]["s0"]["promoted"]
            and time.monotonic() < deadline
        ):
            time.sleep(0.02)
        promoted = h.router.describe()["shards"]["s0"]["promoted"]
        mismatch = oracle.diff(h.router.logical_db())
        return mismatch, {
            "promoted": promoted,
            "injected": injector.injected,
            "ambiguous": driver.ambiguous,
            "unresolved": unresolved,
            "acked_rows": len(oracle),
        }


class TestFailoverChaos:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_no_acked_mutation_lost_across_failover(
        self, tmp_path, cluster_scheme, seed
    ):
        mismatch, stats = _run_cluster_schedule(
            seed, tmp_path / f"seed-{seed}", cluster_scheme
        )
        assert mismatch is None, (
            f"seed {seed} diverged from the acked-op replay: {mismatch} "
            f"({stats})"
        )
        assert stats["promoted"], f"seed {seed}: replica never promoted"
        assert stats["unresolved"] == 0, stats

    def test_owner_crash_failover_without_proxy(
        self, tmp_path, cluster_scheme
    ):
        """Hard owner kill (no proxy): promotion + exactly-once retries."""
        data_rng = np.random.default_rng(99)
        base_rows = [random_transaction(data_rng) for _ in range(8)]
        assignment = [("s0", "s1")[g % 2] for g in range(len(base_rows))]
        oracle = AckedOracle(
            TransactionDatabase(base_rows, universe_size=UNIVERSE)
        )
        with ClusterHarness(
            str(tmp_path),
            cluster_scheme,
            shards=("s0", "s1"),
            replicas=("s0", "s1"),
            rows=base_rows,
            assignment=assignment,
            probe_interval=0.05,
            probe_failures=2,
            client_retries=2,
        ) as h:
            with h.client(client_id="crash-drill", retries=2) as client:
                driver = _KeyedDriver(client, oracle, h.router)
                for _ in range(4):
                    assert driver.insert(random_transaction(data_rng))
                h.kill_owner("s0")
                for _ in range(8):
                    assert driver.insert(random_transaction(data_rng))
                assert driver.delete(2)
            assert h.router.describe()["shards"]["s0"]["promoted"]
            assert oracle.diff(h.router.logical_db()) is None
