"""Control-plane parity across wires: binary frames vs NDJSON.

Queries and mutations already have a cross-protocol differential suite
(``test_wire_differential``); this one pins the *control* ops — ping,
stats, health, metrics — to behave identically over a negotiated binary
connection and a plain NDJSON one, including their error paths.
"""

import numpy as np
import pytest

from repro.core.partitioning import partition_items
from repro.data.transaction import TransactionDatabase
from repro.live import LiveIndex
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import serve_in_background

UNIVERSE = 30


@pytest.fixture()
def control_server(tmp_path):
    rng = np.random.default_rng(17)
    rows = [
        sorted(rng.choice(UNIVERSE, size=4, replace=False).tolist())
        for _ in range(20)
    ]
    db = TransactionDatabase(rows, universe_size=UNIVERSE)
    index = LiveIndex.create(
        tmp_path / "idx", db, scheme=partition_items(db, num_signatures=3, rng=0)
    )
    handle = serve_in_background(index)
    try:
        yield handle
    finally:
        handle.stop()
        index.close()


@pytest.fixture()
def wire_pair(control_server):
    host, port = control_server.address
    with ServiceClient(host, port, wire="ndjson") as ndjson, \
            ServiceClient(host, port, wire="binary") as binary:
        assert ndjson.wire == "ndjson"
        assert binary.wire == "binary"
        yield ndjson, binary


class TestControlParity:
    def test_ping(self, wire_pair):
        ndjson, binary = wire_pair
        assert ndjson.ping() is binary.ping() is True

    def test_health_identical(self, wire_pair):
        ndjson, binary = wire_pair
        assert ndjson.health() == binary.health()

    def test_stats_same_shape_and_index_info(self, wire_pair):
        ndjson, binary = wire_pair
        a, b = ndjson.stats(), binary.stats()
        # No mutation runs between the two calls, so the index describes
        # itself the same to both wires; the counters tick in between,
        # so compare their schema rather than their values.
        assert a["index"] == b["index"]
        assert set(a["stats"]) == set(b["stats"])

    def test_metrics_json_same_metric_families(self, wire_pair):
        ndjson, binary = wire_pair
        a = ndjson.metrics(format="json")
        b = binary.metrics(format="json")
        assert set(a) == set(b)

    def test_metrics_prometheus_same_families(self, wire_pair):
        ndjson, binary = wire_pair

        def names(text):
            return {
                line.split()[2]
                for line in text.splitlines()
                if line.startswith("# TYPE")
            }

        a = ndjson.metrics(format="prometheus")
        b = binary.metrics(format="prometheus")
        assert names(a) == names(b)

    def test_bad_metrics_format_same_error(self, wire_pair):
        ndjson, binary = wire_pair
        codes = []
        for client in wire_pair:
            with pytest.raises(ServiceError) as err:
                client.metrics(format="nope")
            codes.append(err.value.code)
        assert codes == ["bad_request", "bad_request"]

    def test_mutations_then_stats_agree_on_tid_space(self, wire_pair):
        """Both wires observe the same logical tid space in stats."""
        ndjson, binary = wire_pair
        tid_a = ndjson.insert([1, 2, 3])
        tid_b = binary.insert([4, 5, 6])
        assert tid_b == tid_a + 1
        a, b = ndjson.stats(), binary.stats()
        assert a["index"] == b["index"]
