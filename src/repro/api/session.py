"""The ``Session`` facade — one front door for every consumer.

A session binds request objects to one of three interchangeable
backends and exposes the whole system as three verbs::

    from repro.api import Session, SolveRequest, SolverQuery

    s = Session()                       # in-process, inline
    s = Session(workers=4)              # process-pool batch engine
    s = Session("http://host:8080")     # remote /v1 service

    report = s.solve(inst, algorithm="nonpreemptive")
    report = s.solve(SolveRequest(inst, query=SolverQuery(
        variant="splittable", max_ratio=2)))
    reports = s.solve_batch(suite, algorithms=["splittable", "lpt"])
    for report in s.stream(suite, algorithms=["splittable"]):
        ...                             # reports as they complete
    s.close()                           # or ``with Session(...) as s:``

The CLI, the examples, the benchmarks and the service's own queue
drainers all dispatch through this class, so every surface shares one
request model, one report format and one error contract.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping, Sequence

from ..core.instance import Instance
from ..engine.report import SolveReport
from .backends import InProcessBackend, ProcessPoolBackend, RemoteBackend
from .query import SolverQuery
from .requests import BatchRequest, SolveRequest

__all__ = ["Session"]

_AlgorithmsArg = Sequence["str | tuple[str, Mapping[str, Any]] | SolverQuery"]


def _make_backend(backend, workers, cache):
    if backend is None or backend == "local":
        if workers is not None and workers > 1:
            return ProcessPoolBackend(workers=workers, cache=cache)
        return InProcessBackend(workers=workers or 0, cache=cache)
    if backend == "pool":
        return ProcessPoolBackend(workers=workers, cache=cache)
    if isinstance(backend, str):
        if backend.startswith(("http://", "https://")):
            if cache is not None:
                raise ValueError(
                    "a remote session cannot take a local cache; the "
                    "service owns its own result cache")
            if workers is not None:
                raise ValueError(
                    "workers do not apply to a remote session; the "
                    "service's engine_workers controls its fan-out")
            return RemoteBackend(backend)
        raise ValueError(
            f"unknown backend {backend!r}; expected 'local', 'pool', "
            "an http(s):// service URL, or a backend object")
    if workers is not None or cache is not None:
        raise ValueError(
            "workers/cache are ignored when passing a backend object; "
            "configure the backend directly")
    return backend


class Session:
    """Typed facade over one execution backend.

    Parameters
    ----------
    backend:
        ``"local"`` (default) solves inline in this process, ``"pool"``
        fans out over the engine's process pool, an ``http(s)://`` URL
        targets a remote ``/v1`` service, and any object implementing
        ``solve``/``solve_batch``/``stream`` is used as-is.
    workers:
        Process fan-out for the local/pool backends. ``Session(workers=4)``
        is shorthand for the pool backend.
    cache:
        Optional engine report cache (local/pool backends only).
    """

    def __init__(self, backend=None, *, workers: int | None = None,
                 cache=None) -> None:
        self.backend = _make_backend(backend, workers, cache)

    def __repr__(self) -> str:    # pragma: no cover - cosmetic
        return f"Session(backend={self.backend.name!r})"

    def close(self) -> None:
        """Release what this session holds: a remote session closes its
        client's pooled connections. The engine's process pool is shared
        by every session in the process and stays up
        (:func:`repro.engine.pool.shutdown_pool` stops it)."""
        close = getattr(self.backend, "close", None)
        if close is not None:
            close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # the three verbs
    # ------------------------------------------------------------------ #

    def solve(self, request: SolveRequest | Instance, *,
              algorithm: str | None = None,
              query: SolverQuery | None = None,
              kwargs: Mapping[str, Any] | None = None,
              label: str = "", timeout: float | None = None,
              want_schedule: bool = False) -> SolveReport:
        """Run one solve; never raises for solver failures (the report's
        ``status`` carries the outcome, exactly like the engine)."""
        if isinstance(request, Instance):
            request = SolveRequest(
                request, algorithm=algorithm, query=query,
                kwargs=dict(kwargs or {}), label=label, timeout=timeout,
                want_schedule=want_schedule)
        elif isinstance(request, SolveRequest):
            if algorithm is not None or query is not None \
                    or kwargs is not None or label or timeout is not None \
                    or want_schedule:
                raise TypeError(
                    "solver options are part of the SolveRequest; pass "
                    "one or the other")
        else:
            raise TypeError(
                f"solve() takes a SolveRequest or an Instance, "
                f"got {type(request).__name__}")
        return self.backend.solve(request)

    def solve_batch(self,
                    batch: BatchRequest
                    | Iterable[Instance | tuple[str, Instance]],
                    *, algorithms: _AlgorithmsArg | None = None,
                    timeout: float | None = None) -> list[SolveReport]:
        """Run an instances x algorithms grid; one report per cell, in
        deterministic order (instances outermost)."""
        return self.backend.solve_batch(
            self._as_batch(batch, algorithms, timeout))

    def stream(self,
               batch: BatchRequest
               | Iterable[Instance | tuple[str, Instance]],
               *, algorithms: _AlgorithmsArg | None = None,
               timeout: float | None = None) -> Iterator[SolveReport]:
        """Like :meth:`solve_batch`, but yield reports as they finish."""
        return self.backend.stream(self._as_batch(batch, algorithms, timeout))

    @staticmethod
    def _as_batch(batch, algorithms, timeout) -> BatchRequest:
        if isinstance(batch, BatchRequest):
            if algorithms is not None or timeout is not None:
                raise TypeError("algorithms/timeout are part of the "
                                "BatchRequest; pass one or the other")
            return batch
        if algorithms is None:
            raise TypeError("algorithms are required when not passing "
                            "a BatchRequest")
        return BatchRequest.create(batch, algorithms, timeout=timeout)
