"""Keep one vCPU from halting while the benchmark runs.

On the shared 2-core VM every sleep-to-wake transition (a selector
waking, a 2 ms batcher timer, a thread hand-off, an fsync returning)
waits for the hypervisor to schedule the halted vCPU again.  That wait,
not the program, set served latency: `serve_wire` p50 read 4.4 to 8.1 ms
from run to run, and 3.9 to 4.0 ms with this spinner running.  The
spinner runs under SCHED_IDLE, so it only takes cycles nothing else
wants, and it exits when the benchmark that started it is gone.

usage: keep_awake.py CPU
"""

import os
import sys
import time


def main(cpu):
    parent = os.getppid()
    os.sched_setaffinity(0, {cpu})
    try:
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    except OSError:
        os.nice(19)
    while os.getppid() == parent:
        deadline = time.monotonic() + 0.05
        while time.monotonic() < deadline:
            pass


if __name__ == "__main__":
    main(int(sys.argv[1]))
