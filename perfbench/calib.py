"""Machine-noise readout: a fixed pure-Python loop, timed in a helper
process.

On a shared machine the CPU speed drifts in phases lasting minutes, and
the loop's time tracks the phase. The helper is started before
``repro`` is imported and runs the loop only when asked, between the
benchmark's ops, so nothing the program does in the benchmark process
(a thread holding the interpreter lock, a tracing or profiling hook)
can slow it. Each time it is pinned to the CPU the asking thread last
ran on: the CPUs of a virtual machine drift apart, and the loop must
time the one the single-threaded workloads run on.

Run as a script, this file is the helper: it reads an iteration count
per line on stdin and answers each with the loop's time in ms.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

#: Iterations of the slice timed after every op, and of the readout
#: timed at the start and at the end of a run.
SLICE = 20_000
READOUT = 300_000


def spin_ms(iterations: int) -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc = (acc + i * i) % 1_000_003
    return (time.perf_counter() - t0) * 1e3


class Calibrator:
    """The helper process; ``close`` ends it."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen([sys.executable, __file__],
                                      stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)

    def time_ms(self, iterations: int = SLICE) -> float:
        """The loop's time in the helper, on the caller's CPU, in ms."""
        cpu = _current_cpu()
        if cpu is not None:
            try:
                os.sched_setaffinity(self._proc.pid, {cpu})
            except OSError:
                pass        # not allowed here: the helper runs unpinned
        self._proc.stdin.write(f"{iterations}\n")
        self._proc.stdin.flush()
        return float(self._proc.stdout.readline())

    def close(self) -> None:
        """End the helper and wait for it."""
        if not self._proc.stdin.closed:
            self._proc.stdin.close()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


def _current_cpu() -> int | None:
    """The CPU this thread last ran on (Linux), else ``None``."""
    try:
        with open("/proc/thread-self/stat") as f:
            # field 39, counted from field 3 after the parenthesised name
            return int(f.read().rsplit(")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


def _serve() -> None:
    for line in sys.stdin:
        print(f"{spin_ms(int(line)):.6f}", flush=True)


if __name__ == "__main__":
    _serve()
