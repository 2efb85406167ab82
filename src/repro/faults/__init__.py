"""Deterministic, seeded fault injection for the durable serving stack.

The package has three layers:

* :mod:`repro.faults.plan` — the *what* and *when*: a
  :class:`~repro.faults.plan.FaultPlan` is a serialisable list of
  :class:`~repro.faults.plan.FaultSpec` rules (site + kind + trigger),
  and a :class:`~repro.faults.plan.FaultInjector` evaluates them
  deterministically at runtime (op-count triggers, seeded-probability
  triggers, bounded fire counts).
* :mod:`repro.faults.errfs` — an errfs-style failing-file shim for the
  write-ahead log and checkpoint I/O: fsync ``EIO``, ``ENOSPC``, short
  and torn writes, and crash-after-N-bytes
  (:class:`~repro.faults.plan.SimulatedCrash`).
* :mod:`repro.faults.proxy` — an in-process TCP fault proxy between
  :class:`~repro.service.client.ServiceClient` and
  :class:`~repro.service.server.QueryServer`: connection resets,
  response truncation and injected latency.

:mod:`repro.faults.chaos` drives randomized client workloads through
those shims and checks the *acknowledged-op oracle*: the terminal
(recovered/served) state must be byte-identical to replaying exactly
the acknowledged mutations — zero lost, zero duplicated.

Everything is opt-in: with no injector attached the hot paths pay one
``is None`` check.  That production configuration (``injector=None``) is
the insert path the ``live_mixed`` workload of ``bench/run.py`` times.
"""

from repro.faults.chaos import AckedOracle, ChaosSummary, run_errfs_schedule
from repro.faults.errfs import FailingWalFile, checkpoint_fault
from repro.faults.plan import (
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    SimulatedCrash,
)
from repro.faults.proxy import FaultProxy

__all__ = [
    "AckedOracle",
    "ChaosSummary",
    "FAULT_KINDS",
    "FailingWalFile",
    "FaultInjector",
    "FaultPlan",
    "FaultProxy",
    "FaultSpec",
    "SimulatedCrash",
    "checkpoint_fault",
    "run_errfs_schedule",
]
