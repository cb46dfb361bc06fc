"""The service workloads: ``svc-serial`` and ``svc-burst``.

Each run starts ``repro serve --store sqlite:///<tmp>/jobs.db --port 0``
in its own process (every other flag at its default: two embedded
drainers, inline solves) and drives it with :class:`ServiceClient` from
this process: one thread for ``svc-serial``; one sender plus one watcher
for ``svc-burst``.
"""

from __future__ import annotations

import os
import queue
import re
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request
from pathlib import Path

import harness
from harness import Op, Run

ALGOS = ("splittable", "nonpreemptive")
HOT = 16            # svc-burst: instances solved in set-up, then repeated
BURST = 16          # svc-burst: jobs per burst, half of them repeats
PREFIX = {"svc-serial": 120, "svc-burst": 12 * BURST}
#: Generator stream of the timed jobs; set-up draws from streams 0 and 3.
STREAM = 1

_BANNER = re.compile(r"listening on (http://\S+?)/v1")


class Server:
    """One service process with its own store directory and log file."""

    def __init__(self, traced: bool = False) -> None:
        harness.WORK.mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="svc-", dir=harness.WORK))
        store = f"sqlite:///{self.dir / 'jobs.db'}"
        self.spans_file = self.dir / "spans.jsonl"
        if traced:
            cmd = [sys.executable, str(Path(__file__).parent / "launcher.py"),
                   str(self.spans_file), store]
        else:
            cmd = [sys.executable, "-m", "repro", "serve", "--store", store,
                   "--port", "0"]
        self._log = open(self.dir / "server.log", "wb")
        self.proc = subprocess.Popen(cmd, cwd=harness.ROOT,
                                     env=harness.child_env(),
                                     stdout=subprocess.PIPE,
                                     stderr=self._log,
                                     start_new_session=True)
        self.url = self._await_banner(timeout=120.0)

    def _await_banner(self, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        seen = b""
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                seen += line
                m = _BANNER.search(line.decode(errors="replace"))
                if m:
                    return m.group(1)
                if not line and self.proc.poll() is not None:
                    break
            elif self.proc.poll() is not None:
                break
        self.stop()
        raise RuntimeError(f"service did not start: {seen!r}; log in "
                           f"{self.dir / 'server.log'}")

    def metrics(self) -> dict:
        with urllib.request.urlopen(self.url + "/v1/metrics",
                                    timeout=30) as resp:
            return harness.parse_prometheus(resp.read().decode())

    def cpu_s(self) -> float:
        """User + system CPU time of the server process so far."""
        stat = Path(f"/proc/{self.proc.pid}/stat").read_text()
        fields = stat.rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        """SIGTERM (graceful drain), then wait; kill its whole process
        group if it hangs, and anything it left behind."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        harness.kill_group(self.proc)
        self.proc.stdout.close()
        self._log.close()

    def remove(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def serial_instance(seed: int, stream: int, k: int):
    from repro.workloads import uniform_instance
    import numpy as np
    return uniform_instance(np.random.default_rng([seed, stream, k]),
                            n=32, C=8, m=4, c=2)


class Workload:
    """Set-up plus a timed pass against one server."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        self.server: Server | None = None
        self.client = None
        self.hot: list = []

    def setup(self, traced: bool = False) -> float:
        """Start the server and warm it up; returns the seconds taken."""
        harness.use_repo_source()
        from repro.service.client import ServiceClient
        t0 = time.perf_counter()
        self.server = Server(traced=traced)
        self.client = ServiceClient(self.server.url)
        if self.name == "svc-serial":
            for k in range(5):
                job = self.client.submit(serial_instance(self.seed, 0, k),
                                         list(ALGOS), label=f"warm-{k}")
                self.client.wait(job["id"])
        else:
            # solved now, repeated by half the burst's jobs: cache hits
            self.hot = [serial_instance(self.seed, 3, k) for k in range(HOT)]
            ids = [self.client.submit(inst, list(ALGOS),
                                      label=f"hot-{k}")["id"]
                   for k, inst in enumerate(self.hot)]
            for job_id in ids:
                self.client.wait(job_id)
        return time.perf_counter() - t0

    def teardown(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server.remove()
            self.server = None

    def run(self, seconds: float, calib, *, trace_ids: bool = False) -> Run:
        """Timed pass of ``seconds`` and at least the checked prefix of
        jobs; ``calib`` times a slice after each job."""
        if self.name == "svc-serial":
            return self._serial(seconds, calib, trace_ids)
        return self._burst(seconds, calib, trace_ids)

    # ------------------------------------------------------------------ #

    def _one_job(self, op: Op, inst, label: str) -> None:
        """submit + wait, timed; fills ``op`` (wall clock for stages)."""
        op.extra["t0_wall"] = time.time()
        t0 = time.perf_counter()
        try:
            job = self.client.submit(inst, list(ALGOS), label=label)
            t1 = time.perf_counter()
            op.extra["job_id"] = job["id"]
            op.reports = self.client.wait(job["id"])
        except Exception as exc:    # noqa: BLE001 — a failed op
            op.error = f"{type(exc).__name__}: {exc}"
            t1 = t0
        t2 = time.perf_counter()
        op.extra["end_wall"] = time.time()
        op.submit_s, op.latency_s = t1 - t0, t2 - t0

    def _serial(self, seconds: float, calib, trace_ids: bool) -> Run:
        from repro.obs.trace import trace_context
        run = Run()
        start = time.perf_counter()
        k = 0
        while run.wall_s < seconds or len(run.ops) < PREFIX[self.name]:
            inst = serial_instance(self.seed, STREAM, k)
            op = Op(seed=f"{self.seed}/{STREAM}/{k}",
                    cells=[(inst, a) for a in ALGOS])
            if trace_ids:
                with trace_context() as tid:
                    op.extra["trace"] = tid
                    self._one_job(op, inst, f"s-{k}")
            else:
                self._one_job(op, inst, f"s-{k}")
            run.ops.append(op)
            run.wall_s += op.latency_s
            run.slices.append(calib.time_ms())
            k += 1
        run.window = (start, time.perf_counter())
        return run

    def _burst(self, seconds: float, calib, trace_ids: bool) -> Run:
        import numpy as np
        run = Run()
        start = time.perf_counter()
        b = 0
        while run.wall_s < seconds or len(run.ops) < PREFIX[self.name]:
            g = np.random.default_rng([self.seed, STREAM, b])
            repeat = g.permutation([True] * (BURST // 2)
                                   + [False] * (BURST - BURST // 2))
            ops = []
            for i, rep in enumerate(repeat):
                k = b * BURST + i
                inst = (self.hot[int(g.integers(HOT))] if rep
                        else serial_instance(self.seed, STREAM, k))
                ops.append(Op(seed=f"{self.seed}/{STREAM}/{k}",
                              cells=[(inst, a) for a in ALGOS],
                              extra={"repeat": bool(rep)}))
            run.bursts.append(self._one_burst(ops, b, trace_ids))
            run.wall_s += run.bursts[-1]
            run.ops.extend(ops)
            run.slices.extend(calib.time_ms() for _ in ops)
            b += 1
        run.window = (start, time.perf_counter())
        return run

    def stamp_bursts(self, run: Run) -> None:
        """Re-time each burst of a finished svc-burst pass by the server's
        stamps: from its first POST to its last job's ``finished_at``.

        As the client sees it, a burst ends at the watcher's first poll
        after the last job finished, and ``wait``'s poll interval grows
        geometrically: a burst that ends just after a poll reads a whole
        interval (~100 ms of ~150) later, which turns a small slowdown
        into a jump of the tail. svc-serial measures that notify delay.
        Call this after the timed pass: it GETs every job once more."""
        bursts = []
        for i, client_s in zip(range(0, len(run.ops), BURST), run.bursts):
            ops = run.ops[i:i + BURST]
            ends = [self.client.job(op.extra["job_id"])["finished_at"]
                    for op in ops if op.reports is not None]
            bursts.append(max(ends) - ops[0].extra["t0_wall"] if ends
                          else client_s)
        run.bursts = bursts
        run.wall_s = sum(bursts)

    def _one_burst(self, ops: list[Op], b: int, trace_ids: bool) -> float:
        """Sender (this thread) submits back to back; one watcher thread
        waits on the jobs in submission order. Returns the burst's
        seconds from the first POST to the last job's reports."""
        from repro.obs.trace import trace_context
        handoff: queue.Queue = queue.Queue()

        def watch() -> None:
            for _ in ops:
                op, job_id, t0 = handoff.get()
                if job_id is None:
                    continue
                try:
                    if "trace" in op.extra:
                        with trace_context(op.extra["trace"]):
                            op.reports = self.client.wait(job_id)
                    else:
                        op.reports = self.client.wait(job_id)
                except Exception as exc:    # noqa: BLE001 — a failed op
                    op.error = f"{type(exc).__name__}: {exc}"
                op.latency_s = time.perf_counter() - t0
                op.extra["end_wall"] = time.time()

        watcher = threading.Thread(target=watch, name="perfbench-watcher")
        t_start = time.perf_counter()
        watcher.start()
        try:
            for i, op in enumerate(ops):
                label = f"b-{b}-{i}"
                op.extra["t0_wall"] = time.time()
                t0 = time.perf_counter()
                try:
                    if trace_ids:
                        with trace_context() as tid:
                            op.extra["trace"] = tid
                            job = self.client.submit(op.cells[0][0],
                                                     list(ALGOS), label=label)
                    else:
                        job = self.client.submit(op.cells[0][0], list(ALGOS),
                                                 label=label)
                except Exception as exc:    # noqa: BLE001 — a failed op
                    op.error = f"{type(exc).__name__}: {exc}"
                    handoff.put((op, None, t0))
                    continue
                op.submit_s = time.perf_counter() - t0
                op.extra["job_id"] = job["id"]
                handoff.put((op, job["id"], t0))
        finally:
            watcher.join()
        return time.perf_counter() - t_start
