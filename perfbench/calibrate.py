"""Host-speed calibration: a fixed pure-Python kernel timed between samples.

The benchmark's host is a shared 2-vCPU virtual machine whose speed wanders
by itself: a fixed integer loop, timed in 30 s windows on both vCPUs of an
otherwise idle guest, varied by 12% (IQR over the median) and by up to 35%
from one minute to the next, and the two vCPUs drift independently.  No
run length within the benchmark's time limit averages that out.

So each run also times a fixed kernel that owes nothing to the program,
on both vCPUs at once (the load the samples themselves put on the host),
before the first sample and after every sample.  The kernel's time over
:data:`REFERENCE_S` is the host's *slowness* at that moment; the run's
time metrics are divided by the median slowness of the run (and its
throughput multiplied by it).  They are therefore in seconds of the
reference host: a change to the program moves them, a change in how busy
the host's neighbours are moves them much less.

    python3 perfbench/calibrate.py --worker     # one calibration worker
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from typing import List

#: Calibration workers timed at once: one per vCPU of the host.
WORKERS = 2
#: Objects in the kernel's table: about 40 MB, far past the caches.
TABLE_SIZE = 1 << 18
#: Table visits in one kernel run (about 0.25 s on the reference host).
KERNEL_STEPS = 250_000
#: Median kernel time, two workers at once, on the reference host (a
#: 2-vCPU KVM guest, Intel Xeon).
REFERENCE_S = 0.25
#: Longest a worker may take to answer one measurement.
WORKER_TIMEOUT_S = 60.0


class _Entry:
    __slots__ = ("key", "hits", "last")

    def __init__(self, key: int):
        self.key = key
        self.hits = 0
        self.last = 0


def build_table() -> dict:
    return {key: _Entry(key) for key in range(TABLE_SIZE)}


def kernel(table: dict) -> float:
    """Run the fixed kernel once and return its wall seconds.

    Pseudo-random visits to a table of small objects far larger than the
    CPU caches, updating two attributes per visit: the dictionary and
    attribute traffic the simulator's caches and walkers are made of,
    with none of its code.  Of the kernels tried (this one, and integer
    dictionary loops over 64k and 1k keys), this one followed the service
    workload's speed most closely: a correlation of 0.87 over 45 s
    windows, against 0.52 and 0.75."""
    started = time.perf_counter()
    state = 12345
    mask = TABLE_SIZE - 1
    for step in range(KERNEL_STEPS):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        entry = table[state & mask]
        entry.hits += 1
        entry.last = step
    return time.perf_counter() - started


def worker() -> int:
    """Answer each line on standard input with one kernel time."""
    table = build_table()
    kernel(table)  # warm-up
    for _ in sys.stdin:
        sys.stdout.write(f"{kernel(table)!r}\n")
        sys.stdout.flush()
    return 0


class HostSpeed:
    """Calibration workers that time the kernel together on request."""

    def __init__(self):
        self.slowness: List[float] = []
        self.workers = [
            subprocess.Popen(
                [sys.executable, __file__, "--worker"],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
            for _ in range(WORKERS)
        ]

    def measure(self, times: int = 1) -> None:
        """Time the kernel ``times`` times on every worker at once and
        record the host's slowness each time (the mean kernel time over
        :data:`REFERENCE_S`)."""
        for _ in range(times):
            for proc in self.workers:
                proc.stdin.write("go\n")
                proc.stdin.flush()
            seconds = []
            for proc in self.workers:
                line = proc.stdout.readline()
                if not line:
                    raise RuntimeError(
                        f"calibration worker exited with code {proc.poll()}"
                    )
                seconds.append(float(line))
            self.slowness.append(statistics.mean(seconds) / REFERENCE_S)

    def close(self) -> None:
        for proc in self.workers:
            proc.stdin.close()
        for proc in self.workers:
            try:
                proc.wait(timeout=WORKER_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()

    def __enter__(self) -> "HostSpeed":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    if sys.argv[1:] != ["--worker"]:
        sys.exit("usage: calibrate.py --worker")
    sys.exit(worker())
