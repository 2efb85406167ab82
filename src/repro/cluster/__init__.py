"""Multi-node cluster: hash routing, replication, scatter-gather, rebalance.

The cluster layer turns the single-process service into a set of
shard-owner node processes behind one router:

* :mod:`repro.cluster.ring` — consistent-hash placement of inserts;
* :mod:`repro.cluster.directory` — the global-tid → (shard, local)
  directory that gives the cluster exact live-index tid semantics;
* :mod:`repro.cluster.replication` — synchronous WAL shipping to warm
  replicas (acked ⇒ durable on owner *and* replica);
* :mod:`repro.cluster.node` — the shard node server (replicate /
  promote / role / rows ops on top of the stock query server);
* :mod:`repro.cluster.router` — scatter-gather query fan-out with
  byte-identical merge, idempotent mutation routing, health-probe
  failover and online rebalance;
* :mod:`repro.cluster.harness` — one-process cluster assembly for
  tests and chaos drills.

See ``docs/cluster.md`` for the design and its invariants.
"""

from repro.cluster.directory import TidDirectory
from repro.cluster.harness import ClusterHarness, WalShipper, bootstrap_node_state
from repro.cluster.node import ClusterNodeServer
from repro.cluster.replication import ReplicaApplier, ReplicatedLiveIndex
from repro.cluster.ring import HashRing
from repro.cluster.router import ClusterRouter, RouterServer, ShardSpec

__all__ = [
    "ClusterHarness",
    "ClusterNodeServer",
    "ClusterRouter",
    "HashRing",
    "ReplicaApplier",
    "ReplicatedLiveIndex",
    "RouterServer",
    "ShardSpec",
    "TidDirectory",
    "WalShipper",
    "bootstrap_node_state",
]
