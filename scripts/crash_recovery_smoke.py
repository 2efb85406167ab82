"""SIGKILL crash-recovery smoke test for the live index (CI gate).

Spawns a child process that builds a :class:`~repro.live.LiveIndex` and
ingests transactions forever, acknowledging each durable insert on
stdout.  After a number of acknowledgements the parent SIGKILLs the
child — no atexit handlers, no flush — then recovers the index from the
WAL and checks:

1. every acknowledged insert survived (durability of the ack), and
2. recovered query results are byte-identical to a fresh
   :class:`~repro.core.table.SignatureTable` built over the recovered
   logical database (the differential oracle).

With ``--with-faults`` the smoke additionally sweeps a handful of
seeded errfs fault schedules (``run_errfs_schedule`` from the test
suite's ``tests/faults/chaos.py``; the repo root goes on ``sys.path``):
each schedule injects deterministic WAL/checkpoint I/O faults and
simulated crashes into a randomized workload, then checks the terminal
state is byte-identical to a replay of exactly the acknowledged ops.

Usage:  python scripts/crash_recovery_smoke.py [--acks N] [--keep DIR]
        [--with-faults] [--fault-seeds N]

Exit code 0 on success, 1 on any violation.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = REPO_ROOT / "src"

_CHILD_SCRIPT = r"""
import sys
import numpy as np
from repro.data.transaction import TransactionDatabase
from repro.core.partitioning import partition_items
from repro.live import LiveIndex

path = sys.argv[1]
rng = np.random.default_rng(7)
rows = [
    np.sort(rng.choice(80, size=int(rng.integers(2, 10)), replace=False))
    for _ in range(100)
]
db = TransactionDatabase(rows, universe_size=80)
scheme = partition_items(db, num_signatures=6, rng=0)
index = LiveIndex.create(path, db, scheme=scheme)
while True:
    size = int(rng.integers(2, 10))
    tid = index.insert(np.sort(rng.choice(80, size=size, replace=False)))
    print(tid, flush=True)
"""


def run_smoke(index_path: Path, acks: int) -> int:
    """Run one kill-and-recover cycle; returns the number of failures."""
    import numpy as np

    from repro.core.search import SignatureTableSearcher
    from repro.core.similarity import get_similarity
    from repro.core.table import SignatureTable
    from repro.live import LiveIndex

    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    child = subprocess.Popen(
        [sys.executable, "-c", _CHILD_SCRIPT, str(index_path)],
        stdout=subprocess.PIPE,
        env=env,
        text=True,
    )
    acknowledged = []
    try:
        for _ in range(acks):
            line = child.stdout.readline()
            if not line:
                print("FAIL: ingest child died before enough acknowledgements")
                return 1
            acknowledged.append(int(line))
    finally:
        child.kill()  # SIGKILL — the crash under test
        child.wait(timeout=60)
    print(f"killed ingest child after {len(acknowledged)} acknowledged inserts")

    failures = 0
    recovered = LiveIndex.recover(index_path)
    try:
        if recovered.delta_size < len(acknowledged):
            print(
                f"FAIL: only {recovered.delta_size} of "
                f"{len(acknowledged)} acknowledged inserts survived"
            )
            failures += 1
        else:
            print(
                f"ok: {recovered.delta_size} delta rows recovered "
                f"(>= {len(acknowledged)} acknowledged)"
            )

        similarity = get_similarity("match_ratio")
        db = recovered.logical_db()
        oracle = SignatureTableSearcher(
            SignatureTable.build(db, recovered.scheme), db
        )
        rng = np.random.default_rng(1)
        for query in range(8):
            target = np.sort(rng.choice(80, size=5, replace=False))
            got, _ = recovered.knn(target, similarity, k=5)
            want, _ = oracle.knn(target, similarity, k=5)
            got_pairs = [(n.tid, n.similarity) for n in got]
            want_pairs = [(n.tid, n.similarity) for n in want]
            if got_pairs != want_pairs:
                print(f"FAIL: query {query} diverged from the fresh build")
                print(f"  recovered: {got_pairs}")
                print(f"  oracle:    {want_pairs}")
                failures += 1
        if failures == 0:
            print("ok: recovered results byte-identical to a fresh build")
    finally:
        recovered.close()
    return failures


def run_fault_schedules(root: Path, num_seeds: int) -> int:
    """Sweep seeded errfs chaos schedules; returns the number of failures."""
    from tests.faults.chaos import run_errfs_schedule

    failures = 0
    injected = 0
    for seed in range(num_seeds):
        summary = run_errfs_schedule(seed, root / f"seed-{seed:04d}")
        injected += summary.faults_injected
        if not summary.verified:
            print(f"FAIL: fault schedule seed={seed}: {summary.mismatch}")
            print(f"  plan: {summary.fault_plan}")
            failures += 1
    if failures == 0:
        print(
            f"ok: {num_seeds} seeded fault schedules verified "
            f"({injected} faults injected), terminal state matched the "
            f"acknowledged-op replay every time"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--acks",
        type=int,
        default=25,
        help="acknowledged inserts to read before SIGKILL (default 25)",
    )
    parser.add_argument(
        "--keep",
        metavar="DIR",
        default=None,
        help="run in DIR and keep it afterwards (default: fresh tempdir)",
    )
    parser.add_argument(
        "--with-faults",
        action="store_true",
        help="also sweep seeded errfs fault-injection schedules and "
        "verify exactly-once recovery under each",
    )
    parser.add_argument(
        "--fault-seeds",
        type=int,
        default=16,
        metavar="N",
        help="fault schedules to sweep with --with-faults (default 16)",
    )
    args = parser.parse_args(argv)
    for path in (str(SRC_DIR), str(REPO_ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)

    if args.keep is not None:
        workroot = Path(args.keep)
        failures = run_smoke(workroot / "crash-smoke-idx", args.acks)
        if args.with_faults:
            failures += run_fault_schedules(
                workroot / "fault-smoke", args.fault_seeds
            )
    else:
        workdir = tempfile.mkdtemp(prefix="repro-crash-smoke-")
        try:
            failures = run_smoke(Path(workdir) / "idx", args.acks)
            if args.with_faults:
                failures += run_fault_schedules(
                    Path(workdir) / "faults", args.fault_seeds
                )
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    print("PASS" if failures == 0 else f"FAIL ({failures} violations)")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
