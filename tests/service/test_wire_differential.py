"""Cross-protocol differential test: NDJSON vs binary frames.

One live-index server; two clients speaking different wires run the same
seeded workload of queries and mutations.  The wires must be invisible:
every query answer byte-identical between protocols (and to the direct
index), and the exactly-once accounting identical — the acked-mutation
oracle (:class:`tests.faults.chaos.AckedOracle`) must replay to the server's
logical rows byte-for-byte no matter which wire carried each mutation.
"""

import numpy as np
import pytest

from repro.core.partitioning import partition_items
from repro.core.similarity import get_similarity
from repro.data.transaction import TransactionDatabase
from repro.live import LiveIndex
from repro.service.client import ServiceClient
from repro.service.server import serve_in_background

from tests.faults.chaos import AckedOracle

UNIVERSE = 60
SEED = 2024


def random_transaction(rng):
    size = int(rng.integers(2, 9))
    return np.sort(rng.choice(UNIVERSE, size=size, replace=False))


@pytest.fixture()
def live_server(tmp_path):
    rng = np.random.default_rng(7)
    base_db = TransactionDatabase(
        [random_transaction(rng) for _ in range(120)], universe_size=UNIVERSE
    )
    index = LiveIndex.create(
        tmp_path / "idx",
        base_db,
        scheme=partition_items(base_db, num_signatures=6, rng=0),
    )
    handle = serve_in_background(index)
    try:
        yield handle, index, base_db
    finally:
        handle.stop()
        index.close()


class TestCrossProtocolDifferential:
    def test_same_workload_same_answers_same_accounting(self, live_server):
        handle, index, base_db = live_server
        host, port = handle.address
        oracle = AckedOracle(base_db)
        rng = np.random.default_rng(SEED)
        similarity = get_similarity("match_ratio")

        with ServiceClient(host, port, wire="ndjson") as ndjson, \
                ServiceClient(host, port, wire="binary") as binary:
            assert ndjson.wire == "ndjson"
            assert binary.wire == "binary"
            clients = {"ndjson": ndjson, "binary": binary}
            for step in range(40):
                # Mutations alternate wires; the oracle records only what
                # was acknowledged, regardless of the carrying protocol.
                mutator = clients["binary" if step % 2 else "ndjson"]
                roll = rng.random()
                if roll < 0.25:
                    items = [int(i) for i in random_transaction(rng)]
                    tid = mutator.insert(items)
                    oracle.acked_insert(items)
                    assert tid == len(oracle) - 1
                elif roll < 0.35 and len(oracle) > 1:
                    victim = int(rng.integers(0, len(oracle)))
                    mutator.delete(victim)
                    oracle.acked_delete(victim)
                # Every step: the same query over both wires must agree
                # with each other and with the direct index.
                target = random_transaction(rng)
                items = [int(i) for i in target]
                for k in (1, 5):
                    answers = {}
                    stats = {}
                    for wire, client in clients.items():
                        answers[wire], stats[wire] = client.knn(
                            items, "match_ratio", k=k
                        )
                    assert answers["ndjson"] == answers["binary"]
                    direct, _ = index.knn(target, similarity, k=k)
                    assert answers["binary"] == direct
                    for key in (
                        "total_transactions",
                        "transactions_accessed",
                        "entries_scanned",
                        "entries_pruned",
                    ):
                        assert stats["ndjson"][key] == stats["binary"][key]

        # Exactly-once accounting: the acked replay matches the server's
        # logical rows byte-for-byte.
        assert oracle.diff(index.logical_db()) is None
        assert oracle.acked_inserts > 0
        assert oracle.acked_deletes > 0

    def test_retried_mutation_never_double_applies_on_binary(
        self, live_server
    ):
        """The idempotency key survives the frame encoding: replaying the
        exact same insert request returns the original tid."""
        handle, index, base_db = live_server
        host, port = handle.address
        with ServiceClient(host, port, wire="binary") as client:
            items = [1, 2, 3]
            message = {
                "op": "insert",
                "items": items,
                "client_id": client.client_id,
                "request_id": 1,
            }
            first = client.request(dict(message))
            second = client.request(dict(message))
            assert first["tid"] == second["tid"]
            oracle = AckedOracle(base_db)
            oracle.acked_insert(items)
            assert oracle.diff(index.logical_db()) is None
