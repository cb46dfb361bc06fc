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

from typing import TYPE_CHECKING, Iterator

from ..engine import DEFAULT_WORKERS, execute, run_batch
from ..engine.report import SolveReport
from ..engine.runner import iter_batch
from .requests import BatchRequest, SolveRequest

if TYPE_CHECKING:    # pragma: no cover - typing only
    from ..service.client import ServiceClient

__all__ = ["InProcessBackend", "ProcessPoolBackend", "RemoteBackend"]


class InProcessBackend:
    """Runs requests inline through the execution engine.

    ``cache`` is any object with the engine's ``get``/``put`` report
    cache protocol (:class:`~repro.resultcache.ReportCache` or the
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
        """Yield each cell's report as soon as it is known: grid order
        when inline; under the pool, cache hits first, then each solved
        cell and its duplicates as their chunk finishes. Cache, dedupe
        and worker-death rules are ``run_batch``'s: both read the same
        engine generator."""
        for _, rep in iter_batch(batch.instances, list(batch.algorithms),
                                 workers=self.workers,
                                 timeout=batch.timeout, cache=self.cache):
            yield rep


class ProcessPoolBackend(InProcessBackend):
    """Fans batches out over the engine's process pool."""

    name = "process-pool"

    def __init__(self, *, workers: int | None = None, cache=None) -> None:
        super().__init__(workers=workers or DEFAULT_WORKERS, cache=cache)


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
