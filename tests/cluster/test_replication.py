"""WAL-streaming replication: shipping, apply, fencing, heal-on-probe."""

import numpy as np
import pytest

from repro.cluster import (
    ClusterHarness,
    ClusterNodeServer,
    ReplicaApplier,
    ReplicatedLiveIndex,
    bootstrap_node_state,
)
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import serve_in_background

from tests.cluster.conftest import random_transaction

pytestmark = pytest.mark.cluster


@pytest.fixture()
def pair(tmp_path, cluster_scheme):
    """(owner LiveIndex, replica LiveIndex) with empty logical state."""
    owner = bootstrap_node_state(str(tmp_path / "owner"), cluster_scheme)
    replica = bootstrap_node_state(str(tmp_path / "replica"), cluster_scheme)
    try:
        yield owner, replica
    finally:
        owner.close()
        replica.close()


class _FlakyShipper:
    """Delivers to an applier unless told to drop the link."""

    def __init__(self, applier):
        self.applier = applier
        self.fail = False
        self.shipped = 0

    def __call__(self, data):
        if self.fail:
            raise OSError("replica link down")
        self.applier.apply(data)
        self.shipped += 1


class TestSynchronousShipping:
    def test_every_acked_mutation_is_on_the_replica(self, pair):
        owner, replica = pair
        applier = ReplicaApplier(replica)
        live = ReplicatedLiveIndex(owner, _FlakyShipper(applier))
        rng = np.random.default_rng(3)
        for step in range(20):
            if step % 5 == 4 and len(owner.logical_db()):
                live.delete(0)
            else:
                live.insert(random_transaction(rng))
            assert replica.logical_db() == owner.logical_db()

    def test_duplicate_batch_is_skipped(self, pair):
        owner, replica = pair
        batches = []
        live = ReplicatedLiveIndex(owner, batches.append)
        live.insert([1, 2, 3])
        applier = ReplicaApplier(replica)
        applied, seqno = applier.apply(batches[0])
        assert applied == 1
        again, seqno_again = applier.apply(batches[0])
        assert again == 0 and seqno_again == seqno
        assert replica.logical_db() == owner.logical_db()

    def test_seqno_gap_is_refused(self, pair):
        owner, replica = pair
        batches = []
        live = ReplicatedLiveIndex(owner, batches.append)
        live.insert([1, 2, 3])
        live.insert([4, 5, 6])
        applier = ReplicaApplier(replica)
        applier.apply(batches[0])
        applier.apply(batches[1])
        live.insert([7, 8])
        live.insert([9, 10])
        with pytest.raises(ValueError):
            applier.apply(batches[3])  # batch 2 never arrived

    def test_ship_failure_blocks_ack_and_probe_heals(self, pair):
        owner, replica = pair
        applier = ReplicaApplier(replica)
        shipper = _FlakyShipper(applier)
        live = ReplicatedLiveIndex(owner, shipper)
        live.insert([1, 2, 3])
        shipper.fail = True
        with pytest.raises(OSError):
            live.insert([4, 5, 6])  # applied locally, NOT acked
        assert len(owner.logical_db()) == 2
        assert len(replica.logical_db()) == 1
        assert live.probe() is False  # degraded while the link is down
        shipper.fail = False
        assert live.probe() is True  # heals: pending tail re-shipped
        assert replica.logical_db() == owner.logical_db()

    def test_checkpoint_ships_pending_tail_first(self, pair):
        owner, replica = pair
        applier = ReplicaApplier(replica)
        live = ReplicatedLiveIndex(owner, _FlakyShipper(applier))
        live.insert([1, 2])
        live.insert([3, 4])
        live.checkpoint()  # truncates the owner WAL
        live.insert([5, 6])  # shipped from the reset WAL
        assert replica.logical_db() == owner.logical_db()

    def test_dedupe_keys_mirror_to_replica(self, pair):
        owner, replica = pair
        applier = ReplicaApplier(replica)
        live = ReplicatedLiveIndex(owner, _FlakyShipper(applier))
        tid = live.insert([4, 5, 6], client_id="c-1", request_id=9)
        cached = replica.dedupe.lookup("c-1", 9)
        assert cached is not None
        assert int(cached["tid"]) == tid


class TestNodeRoles:
    def test_replica_rejects_client_mutations_but_serves_reads(
        self, tmp_path, cluster_db, cluster_scheme
    ):
        rows = [sorted(cluster_db[g]) for g in range(10)]
        index = bootstrap_node_state(
            str(tmp_path / "n"), cluster_scheme, rows=rows
        )
        handle = serve_in_background(
            index,
            server_cls=ClusterNodeServer,
            shard="s0",
            role="replica",
        )
        try:
            with ServiceClient(*handle.address, retries=0) as client:
                with pytest.raises(ServiceError) as err:
                    client.insert([1, 2, 3])
                assert err.value.code == "unavailable"
                with pytest.raises(ServiceError):
                    client.delete(0)
                neighbors, _ = client.knn(rows[0], similarity="jaccard", k=1)
                assert neighbors[0].similarity == pytest.approx(1.0)
                role = client.role()
                assert role["role"] == "replica"
                assert role["shard"] == "s0"
        finally:
            handle.stop()
            index.close()

    def test_promote_flips_role_and_admits_mutations(
        self, tmp_path, cluster_scheme
    ):
        index = bootstrap_node_state(str(tmp_path / "n"), cluster_scheme)
        handle = serve_in_background(
            index,
            server_cls=ClusterNodeServer,
            shard="s0",
            role="replica",
        )
        try:
            with ServiceClient(*handle.address, retries=0) as client:
                promoted = client.promote()
                assert promoted["role"] == "owner"
                assert client.insert([7, 8, 9]) == 0
        finally:
            handle.stop()
            index.close()

    def test_owner_refuses_replicate_batches(self, tmp_path, cluster_scheme):
        """Fencing: a promoted node never accepts a stale owner's stream."""
        index = bootstrap_node_state(str(tmp_path / "n"), cluster_scheme)
        handle = serve_in_background(
            index,
            server_cls=ClusterNodeServer,
            shard="s0",
            role="owner",
        )
        try:
            with ServiceClient(*handle.address, retries=0) as client:
                with pytest.raises(ServiceError) as err:
                    client.replicate("s0", b"\x00\x01")
                assert err.value.code == "bad_request"
        finally:
            handle.stop()
            index.close()

    def test_every_cluster_server_is_mutable_and_describes_itself(
        self, tmp_path, cluster_db, cluster_scheme
    ):
        """The owner serves its ReplicatedLiveIndex, the replica its plain
        index and the router itself: all three have the mutation surface,
        and ``stats`` describes each as it is after an insert."""
        rows = [sorted(cluster_db[g]) for g in range(6)]
        with ClusterHarness(
            str(tmp_path), cluster_scheme, shards=("s0",), replicas=("s0",),
            rows=rows, assignment=["s0"] * len(rows),
        ) as harness:
            with harness.client() as client:
                client.insert([1, 2, 3])
            for name, handle in [
                *harness.servers.items(), ("router", harness.router_server)
            ]:
                with ServiceClient(*handle.address, retries=0) as client:
                    assert client.health()["mutable"] is True
                    assert client.stats()["index"]["num_transactions"] == 7, name

    def test_replicate_over_the_wire(self, tmp_path, cluster_scheme):
        """Real WAL bytes stream through the replicate op end-to-end."""
        owner = bootstrap_node_state(str(tmp_path / "owner"), cluster_scheme)
        replica = bootstrap_node_state(
            str(tmp_path / "replica"), cluster_scheme
        )
        handle = serve_in_background(
            replica,
            server_cls=ClusterNodeServer,
            shard="s0",
            role="replica",
        )
        try:
            offset = owner.wal.tail_offset
            owner.insert([1, 2, 3])
            owner.insert([4, 5])
            data, _ = owner.wal.read_tail(offset)
            with ServiceClient(*handle.address) as client:
                ack = client.replicate("s0", data)
                assert ack["applied"] == 2
                # Re-sending the identical batch is a no-op.
                assert client.replicate("s0", data)["applied"] == 0
            assert replica.logical_db() == owner.logical_db()
        finally:
            handle.stop()
            owner.close()
            replica.close()
