"""The library workloads: ``lib-pool`` and ``lib-large``.

Both call ``repro`` in this process through :class:`repro.api.Session`,
one caller, closed loop. Inputs come from :mod:`repro.workloads` with a
generator seeded per op (``[seed, stream, op]``), so op ``k`` of a seed
is always the same grid. Set-up draws from stream 0, the timed ops
from ``STREAM``.
"""

from __future__ import annotations

import time

import harness
from harness import Op, Run

#: The pooled ratio sweep: each op is one grid of this shape.
POOL_ALGOS = ("splittable", "preemptive", "nonpreemptive")
POOL_WORKERS = 2
#: Instances of each ``large_ratio_suite`` family per grid. With 6 the
#: batch time flips for seconds at a time between two modes ~1.7x apart
#: (one pool worker's chunks then take ~1.7x the CPU time), which no
#: machine calibration follows; with 2 it is unimodal.
POOL_PER_FAMILY = 2

#: lib-large cells: (algorithm, instance family). 15 cells, so that the
#: 50th and 90th percentiles of a cycle fall inside one cell type's
#: block of samples instead of on the edge between two.
LARGE_CELLS = (
    [(a, fam) for fam in ("uniform2000", "zipf2000")
     for a in POOL_ALGOS]
    + [("ptas-splittable", "ptas40"), ("ptas-nonpreemptive", "ptas40")]
    + [(a, f"nfold-m{m}") for m in (128, 4096)
       for a in ("nfold-splittable", "nfold-preemptive",
                 "nfold-nonpreemptive")]
    # the third point of the m = 128 / 4096 / 10^6 flatness triple
    + [("nfold-splittable", "nfold-m1000000")])

#: Ops whose reports are digested and enter ``makespan_over_lb``. On
#: lib-large each PTAS cell's ratio swings with its instance, so its
#: mean, which ``makespan_over_lb_max`` reads, needs a dozen of them.
PREFIX = {"lib-pool": 30, "lib-large": 12 * len(LARGE_CELLS)}
STREAM = 1


def rng(seed: int, stream: int, k: int):
    import numpy as np
    return np.random.default_rng([seed, stream, k])


def pool_grid(seed: int, stream: int, k: int) -> list:
    """``POOL_PER_FAMILY`` instances of each ``large_ratio_suite``
    family."""
    from repro.workloads import (data_placement_instance, uniform_instance,
                                 video_on_demand_instance)
    g = rng(seed, stream, k)
    grid = []
    for j in range(POOL_PER_FAMILY):
        grid.append((f"uniform-{k}-{j}", uniform_instance(
            g, n=200, C=20, m=10, c=3, p_hi=1000)))
        grid.append((f"dataplace-{k}-{j}", data_placement_instance(
            g, n_ops=150, n_databases=18, m=8, disk_slots=3)))
        grid.append((f"vod-{k}-{j}", video_on_demand_instance(
            g, n_requests=180, n_movies=24, m=12, cache_slots=2)))
    return grid


def large_instances(seed: int, stream: int, k: int) -> dict:
    """Fresh generated instances for cycle ``k``, plus the fixed n-fold
    instance at each machine count."""
    from repro.core.instance import Instance
    from repro.workloads import uniform_instance, zipf_instance
    g = rng(seed, stream, k)
    out = {"uniform2000": uniform_instance(g, n=2000, C=100, m=50, c=3),
           "zipf2000": zipf_instance(g, n=2000, C=200, m=50, c=4),
           "ptas40": uniform_instance(g, n=40, C=8, m=6, c=2)}
    # the kernel/nfold_solve instance itself: the n-fold solve time swings
    # 5x with the processing times, which would move this workload's
    # median with the seed rather than with the program
    for m in (128, 4096, 1_000_000):
        out[f"nfold-m{m}"] = Instance((7, 5, 4, 3, 3, 2), (0, 0, 1, 1, 2, 2),
                                      m, 2)
    return out


class Workload:
    """Set-up plus a timed closed loop for one library workload."""

    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.seed = seed
        self.session = None

    def setup(self) -> float:
        """Imports, session, warm-up; returns its duration in seconds."""
        t0 = time.perf_counter()
        harness.use_repo_source()
        from repro.api import Session
        import repro.core.bounds  # noqa: F401 — used by the checks
        if self.name == "lib-pool":
            self.session = Session(workers=POOL_WORKERS)
            for k in range(2):      # the first batch starts the pool
                self.session.solve_batch(pool_grid(self.seed, 0, k),
                                         algorithms=list(POOL_ALGOS))
        else:
            self.session = Session()
            insts = large_instances(self.seed, 0, 0)
            for algo, fam in LARGE_CELLS:
                self.session.solve(insts[fam], algorithm=algo)
        return time.perf_counter() - t0

    def teardown(self) -> None:
        """Stop the engine's pool, when this build has one, release its
        shared-memory segments and wait for every helper process."""
        shutdown = harness.optional_attr("repro.engine.pool",
                                         "shutdown_pool")
        if shutdown is not None:
            shutdown()
        release = harness.optional_attr("repro.engine.shm", "release_all")
        if release is not None:
            release()
        harness.stop_resource_tracker()

    def run(self, seconds: float, calib) -> Run:
        """Closed loop for ``seconds`` of op time and at least the
        checked prefix of ops; ``calib`` times a slice after each op."""
        run = Run()
        start = time.perf_counter()
        k = 0
        while run.wall_s < seconds or len(run.ops) < PREFIX[self.name]:
            new = ([self._pool_op(k)] if self.name == "lib-pool"
                   else self._large_cycle(k))
            run.ops.extend(new)
            # op time only: generating the next inputs is not timed
            run.wall_s += sum(op.latency_s for op in new)
            run.slices.extend(calib.time_ms() for _ in new)
            k += 1
        run.window = (start, time.perf_counter())
        return run

    def _pool_op(self, k: int) -> Op:
        from repro.api import BatchRequest
        grid = pool_grid(self.seed, STREAM, k)
        cells = [(inst, a) for _, inst in grid for a in POOL_ALGOS]
        op = Op(seed=f"{self.seed}/{STREAM}/{k}", cells=cells)
        t0 = time.perf_counter()
        try:
            batch = BatchRequest.create(grid, list(POOL_ALGOS))
            t1 = time.perf_counter()
            op.reports = self.session.solve_batch(batch)
        except Exception as exc:    # noqa: BLE001 — a failed op, not a crash
            op.error = f"{type(exc).__name__}: {exc}"
            t1 = t0
        t2 = time.perf_counter()
        op.submit_s, op.latency_s = t1 - t0, t2 - t0
        return op

    def _large_cycle(self, k: int) -> list[Op]:
        from repro.api import SolveRequest
        insts = large_instances(self.seed, STREAM, k)
        ops = []
        for algo, fam in LARGE_CELLS:
            inst = insts[fam]
            op = Op(seed=f"{self.seed}/{STREAM}/{k}:{fam}",
                    cells=[(inst, algo)])
            t0 = time.perf_counter()
            try:
                request = SolveRequest(inst, algorithm=algo, label=fam)
                t1 = time.perf_counter()
                op.reports = [self.session.solve(request)]
            except Exception as exc:    # noqa: BLE001 — a failed op
                op.error = f"{type(exc).__name__}: {exc}"
                t1 = t0
            t2 = time.perf_counter()
            op.submit_s, op.latency_s = t1 - t0, t2 - t0
            op.extra["machines"] = inst.machines
            ops.append(op)
        return ops
