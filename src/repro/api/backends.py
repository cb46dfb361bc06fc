"""The three interchangeable execution backends behind ``Session``.

* :class:`InProcessBackend` — the engine, inline in this process
  (honest timings; what benchmarks use).
* :class:`ProcessPoolBackend` — the engine's process fan-out
  (batch throughput).
* :class:`RemoteBackend` — a ``/v1`` scheduling service over HTTP
  (shared queue, cross-client result cache).

All three consume the same :class:`~repro.api.requests.SolveRequest` /
:class:`~repro.api.requests.BatchRequest` objects and return the same
:class:`~repro.engine.report.SolveReport` records, with batch reports in
the same deterministic order (instances outermost) — swapping backends
never changes what a caller sees, only where the work runs.
"""

from __future__ import annotations

from concurrent.futures import FIRST_COMPLETED, wait
from typing import TYPE_CHECKING, Iterator

from ..core.fastmath import fast_paths_enabled
from ..engine import DEFAULT_WORKERS, execute, run_batch
from ..resultcache import cache_key, is_cacheable, relabel_hit
from ..engine.pool import submit_task
from ..engine.report import SolveReport
from ..engine.runner import SOLVE_SECONDS, execute_in_worker
from ..obs.trace import current_trace_id
from .requests import BatchRequest, SolveRequest

if TYPE_CHECKING:    # pragma: no cover - typing only
    from ..service.client import ServiceClient

__all__ = ["InProcessBackend", "ProcessPoolBackend", "RemoteBackend"]


class InProcessBackend:
    """Runs requests inline through the execution engine.

    ``cache`` is any object with the engine's ``get``/``put`` report
    cache protocol (:class:`~repro.engine.cache.ReportCache` or the
    service's SQLite-backed adapter).
    """

    name = "in-process"

    def __init__(self, *, workers: int = 0, cache=None) -> None:
        self.workers = workers
        self.cache = cache

    def solve(self, request: SolveRequest) -> SolveReport:
        spec, kwargs = request.resolve()
        if self.cache is not None and not request.want_schedule:
            # single-cell batch so the configured cache is consulted and
            # filled; want_schedule bypasses it — cached reports carry
            # no schedule
            (rep,) = run_batch(
                [(request.label, request.instance)], [(spec.name, kwargs)],
                workers=0, timeout=request.timeout, cache=self.cache)
            return rep
        return execute(request.instance, spec.name, kwargs,
                       label=request.label, timeout=request.timeout,
                       keep_schedule=request.want_schedule)

    def solve_batch(self, batch: BatchRequest) -> list[SolveReport]:
        return run_batch(batch.instances, list(batch.algorithms),
                         workers=self.workers, timeout=batch.timeout,
                         cache=self.cache)

    def stream(self, batch: BatchRequest) -> Iterator[SolveReport]:
        """Yield each cell's report as soon as it is solved (grid
        order when inline, completion order under the pool). Cells that
        repeat an identical (instance, algorithm, kwargs) triple are
        solved once, exactly like ``run_batch``."""
        seen: dict[str, SolveReport] = {}
        for label, inst in batch.instances:
            for name, kwargs in batch.algorithms:
                key = cache_key(inst, name, kwargs)
                if key in seen:
                    yield relabel_hit(seen[key], label)
                    continue
                (rep,) = run_batch([(label, inst)], [(name, kwargs)],
                                   workers=0, timeout=batch.timeout,
                                   cache=self.cache)
                seen[key] = rep
                yield rep


class ProcessPoolBackend(InProcessBackend):
    """Fans batches out over the engine's process pool."""

    name = "process-pool"

    def __init__(self, *, workers: int | None = None, cache=None) -> None:
        super().__init__(workers=workers or DEFAULT_WORKERS, cache=cache)

    def stream(self, batch: BatchRequest) -> Iterator[SolveReport]:
        cells = [(label, inst, name, dict(kwargs))
                 for label, inst in batch.instances
                 for name, kwargs in batch.algorithms]
        if len(cells) == 1 or self.workers <= 1:
            yield from super().stream(batch)
            return
        # cache hits come first, misses in completion order; dedup and
        # cache rules are the engine's (cache_key / is_cacheable)
        pending: list[tuple[str, str, object, str, dict]] = []
        dup_labels: dict[str, list[str]] = {}
        for label, inst, name, kwargs in cells:
            key = cache_key(inst, name, kwargs)
            hit = self.cache.get(key) if self.cache is not None else None
            if hit is not None:
                yield relabel_hit(hit, label)
            elif key in dup_labels:     # solved once, replayed per cell
                dup_labels[key].append(label)
            else:
                dup_labels[key] = []
                pending.append((key, label, inst, name, kwargs))
        if not pending:
            return
        # the engine's persistent pool: warm workers across stream calls.
        # Submission is windowed to ``workers`` in-flight cells — the
        # caller's fan-out stays a hard cap even when the shared pool is
        # wider — and never asks for more workers than pending cells
        # (fork pre-spawns the pool's whole width on first use).
        width = min(self.workers, len(pending))
        fast = fast_paths_enabled()
        tid = current_trace_id()    # shipped to workers like fast_paths
        queue = iter(pending)
        live: dict = {}

        def submit_next() -> None:
            item = next(queue, None)
            if item is None:
                return
            key, label, inst, name, kwargs = item
            fut = submit_task(width, execute_in_worker, inst, name, kwargs,
                              label=label, timeout=batch.timeout,
                              fast_paths=fast, trace_id=tid)
            live[fut] = key
        for _ in range(width):
            submit_next()
        while live:
            done, _ = wait(live, return_when=FIRST_COMPLETED)
            for fut in done:
                key = live.pop(fut)
                rep = fut.result()
                # the worker observed into its own (lost) registry; record
                # the solve in the parent's
                SOLVE_SECONDS.observe(rep.wall_time_s,
                                      algorithm=rep.algorithm,
                                      status=rep.status)
                submit_next()
                if self.cache is not None and is_cacheable(rep):
                    self.cache.put(key, rep)
                yield rep
                for label in dup_labels[key]:
                    yield relabel_hit(rep, label)


class RemoteBackend:
    """Runs requests on a ``/v1`` scheduling service.

    ``solve`` uses the synchronous ``POST /v1/solve`` endpoint; batches
    are submitted as one job per instance, so they land in the service's
    persistent queue and result cache like any other client's work, and
    each job is then awaited with :meth:`ServiceClient.wait`, whose
    long-poll returns as soon as the server has finished it.
    """

    name = "remote"

    def __init__(self, target: "str | ServiceClient", *,
                 wait_timeout: float = 600.0) -> None:
        from ..service.client import ServiceClient
        self.client = (target if isinstance(target, ServiceClient)
                       else ServiceClient(target))
        self.wait_timeout = wait_timeout

    def close(self) -> None:
        """Close the client's idle pooled connections."""
        self.client.close()

    def solve(self, request: SolveRequest) -> SolveReport:
        return self.client.solve(request)

    def solve_batch(self, batch: BatchRequest) -> list[SolveReport]:
        return list(self.stream(batch))

    def stream(self, batch: BatchRequest) -> Iterator[SolveReport]:
        """Submit every instance, then yield each job's reports in
        submission order — the order the store claims equal-priority
        jobs. ``wait_timeout`` applies per job. A server-side job failure
        raises :class:`~repro.service.client.ServiceError` with
        ``code="job_failed"`` (``"job_quarantined"`` for jobs that
        exhausted their retries), exactly like ``ServiceClient.wait``."""
        jobs = [self.client.submit(inst, list(batch.algorithms), label=label,
                                   timeout=batch.timeout)
                for label, inst in batch.instances]
        for job in jobs:
            yield from self.client.wait(job["id"], timeout=self.wait_timeout)
