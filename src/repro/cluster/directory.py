"""Global-tid directory: the router's authoritative row placement map.

The cluster presents one logical tid space with exactly the semantics
of a single :class:`~repro.live.index.LiveIndex`: an insert appends at
``len(directory)`` and a delete shifts every later global tid down by
one.  Each global tid maps to a ``(shard, local_tid)`` pair, where
``local_tid`` is the shard node's own logical tid for the row — shard
nodes are plain live indexes, so a node-local delete shifts the node's
later locals down by one, and the directory mirrors that shift.

Beyond the mapped rows the directory tracks each shard's *physical*
row count, which can briefly exceed its mapped count:

* during an online move, the copy inserted at the target is physical
  but unmapped until the flip (:meth:`begin_copy` → :meth:`commit_move`
  → :meth:`end_move`);
* a shard insert whose ack was lost leaves a *ghost* row — applied on
  the node, never mapped.  :meth:`record_physical` heals the count from
  the node-returned tid, and a later keyed retry maps the ghost in
  place via ``assign(shard, local=ghost_tid)``.

Unmapped physical rows are invisible to queries (the reverse map marks
their slots ``-1`` and the router drops them from shard results); the
:attr:`unmapped` total is the router's per-shard ``k`` head-room so an
unmapped row can never displace a mapped one from a shard top-k.

Thread safety: the router guards every call with its topology lock;
the directory itself is deliberately lock-free.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = ["TidDirectory"]


class TidDirectory:
    """Mapping of global logical tids to ``(shard, local_tid)`` pairs."""

    def __init__(self, shards) -> None:
        # entries[g] = [shard, local]; index in this list IS the global tid.
        self._entries: List[List[object]] = []
        self._physical: Dict[str, int] = {str(s): 0 for s in shards}
        self._version = 0
        self._snapshot_version = -1
        self._snapshot: Dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of mapped (logical) rows across the cluster."""
        return len(self._entries)

    @property
    def shards(self) -> Tuple[str, ...]:
        return tuple(sorted(self._physical))

    def add_shard(self, shard: str) -> None:
        """Register a (possibly new) shard with zero rows."""
        self._physical.setdefault(str(shard), 0)
        self._version += 1

    def physical_count(self, shard: str) -> int:
        """Physical rows on ``shard`` (mapped + in-flight + ghosts)."""
        return self._physical[str(shard)]

    def mapped_count(self, shard: str) -> int:
        """Rows on ``shard`` that are reachable through a global tid."""
        return sum(1 for entry in self._entries if entry[0] == shard)

    @property
    def unmapped(self) -> int:
        """Physical rows not mapped by any global tid (cluster-wide).

        The router widens every per-shard ``k`` by this much, so a
        shard's top-k *after dropping unmapped rows* still covers its
        true mapped top-k.
        """
        return sum(self._physical.values()) - len(self._entries)

    def lookup(self, global_tid: int) -> Tuple[str, int]:
        """The ``(shard, local_tid)`` behind a global tid."""
        if not 0 <= global_tid < len(self._entries):
            raise ValueError(
                f"tid {global_tid} out of range [0, {len(self._entries)})"
            )
        shard, local = self._entries[global_tid]
        return shard, local

    # ------------------------------------------------------------------
    # Mutations (router-lock-guarded)
    # ------------------------------------------------------------------
    def assign(self, shard: str, local: int) -> int:
        """Map a new global tid to the node-returned ``local`` tid.

        Appends at ``len(self)`` — exactly a live index's insert
        semantics.  ``local`` comes back from the shard node, so a
        dedupe replay on the node (returning an old tid for a retried
        key) maps the original physical row instead of predicting a
        fresh slot.  The physical count is healed to cover ``local``
        (it can lag when a previous ack was lost after the node
        applied).
        """
        shard = str(shard)
        local = int(local)
        global_tid = len(self._entries)
        self._entries.append([shard, local])
        self._physical[shard] = max(self._physical[shard], local + 1)
        self._version += 1
        return global_tid

    def record_physical(self, shard: str, local: int) -> None:
        """Heal the physical count after a node applied an unmapped row."""
        shard = str(shard)
        self._physical[shard] = max(self._physical[shard], int(local) + 1)
        self._version += 1

    def remove(self, global_tid: int) -> Tuple[str, int]:
        """Unmap a global tid after its shard row was deleted.

        Later global tids shift down by one (list removal) and the
        shard's later locals shift down by one (the node's live index
        did the same when it applied the delete).  Returns the
        pre-removal ``(shard, local)``.
        """
        shard, local = self.lookup(global_tid)
        del self._entries[global_tid]
        for entry in self._entries:
            if entry[0] == shard and entry[1] > local:
                entry[1] -= 1
        self._physical[shard] -= 1
        self._version += 1
        return shard, local

    # ------------------------------------------------------------------
    # Two-phase online move (rebalance)
    # ------------------------------------------------------------------
    def begin_copy(self, target: str) -> int:
        """Reserve the next physical slot on ``target`` for a move copy.

        The slot is counted (queries widen ``k``) but unmapped (its
        results are dropped) until :meth:`commit_move` flips the row.
        Returns the local tid the target node's insert must come back
        with — the router asserts it does.
        """
        target = str(target)
        local = self._physical[target]
        self._physical[target] += 1
        self._version += 1
        return local

    def cancel_copy(self, shard: str) -> None:
        """Release a :meth:`begin_copy` reservation that never landed.

        Used when the node-side insert failed outright, or answered a
        dedupe replay (the row already exists, so the reserved fresh
        slot will never hold data).
        """
        self._physical[str(shard)] -= 1
        self._version += 1

    def commit_move(self, global_tid: int, target: str, target_local: int
                    ) -> Tuple[str, int]:
        """Atomically remap a global tid onto its copied target row.

        From this version on, queries resolve the row through the
        target copy; the stale source copy is unmapped (dropped from
        results) until :meth:`end_move` physically deletes it.  Returns
        the old ``(shard, local)`` for that delete.
        """
        entry = self._entries[global_tid]
        old = (entry[0], entry[1])
        entry[0] = str(target)
        entry[1] = int(target_local)
        self._version += 1
        return old

    def end_move(self, source: str, source_local: int) -> None:
        """Drop the source copy's physical slot after its node delete.

        The node's delete shifted its later locals down by one; mirror
        that for every mapped row still on ``source``.
        """
        source = str(source)
        source_local = int(source_local)
        for entry in self._entries:
            if entry[0] == source and entry[1] > source_local:
                entry[1] -= 1
        self._physical[source] -= 1
        self._version += 1

    # ------------------------------------------------------------------
    def preload(self, assignment) -> None:
        """Bulk-load a fresh directory from ``[(shard, local), ...]``.

        Position ``g`` of the assignment becomes global tid ``g``; the
        physical counts are derived.  Used when shard node states were
        built out-of-band (:class:`~repro.cluster.harness.ClusterHarness`
        preloads rows this way).
        """
        if self._entries:
            raise ValueError("preload requires an empty directory")
        for shard, local in assignment:
            shard = str(shard)
            if shard not in self._physical:
                raise ValueError(f"unknown shard {shard!r}")
            self._entries.append([shard, int(local)])
            self._physical[shard] = max(self._physical[shard], int(local) + 1)
        self._version += 1

    def reverse_maps(self) -> Dict[str, np.ndarray]:
        """Per-shard arrays mapping local tid -> global tid (-1 unmapped).

        Cached by mutation version: query-heavy phases rebuild once and
        share the arrays (they are immutable by convention — each
        mutation bumps the version instead of touching a snapshot).
        """
        if self._snapshot_version != self._version:
            snapshot = {
                shard: np.full(count, -1, dtype=np.int64)
                for shard, count in self._physical.items()
            }
            for global_tid, (shard, local) in enumerate(self._entries):
                snapshot[shard][local] = global_tid
            self._snapshot = snapshot
            self._snapshot_version = self._version
        return self._snapshot

    def per_shard_counts(self) -> Dict[str, Dict[str, int]]:
        """``{shard: {"mapped": n, "physical": m}}`` for introspection."""
        mapped: Dict[str, int] = {shard: 0 for shard in self._physical}
        for shard, _ in self._entries:
            mapped[shard] += 1
        return {
            shard: {"mapped": mapped[shard], "physical": count}
            for shard, count in sorted(self._physical.items())
        }
