"""The storage layer's contract and the URLs that open a store.

:class:`StoreBackend` is the protocol the worker nodes, the HTTP server
and chaos program against: the create/claim/heartbeat/requeue/finish
surface of the lease protocol, plus the store's result ``cache``.
:class:`~repro.service.store.JobStore` is its one implementation:
SQLite, on a file (WAL, per-thread connections, one more SQLite file for
the result cache; the only kind of store several *processes* can share)
or in memory (private to the process that opened it).

Construction goes through :func:`open_store`, which parses the
``store_url`` syntax used by ``repro serve --store``, ``repro worker
--store`` and ``repro chaos --store``::

    sqlite:///relative/path.db     SQLite file (also: bare paths)
    sqlite:////absolute/path.db    SQLite file, absolute
    sqlite:///:memory:             in-memory SQLite, this process only
    memory://                      the same as sqlite:///:memory:

:func:`require_shared` refuses an in-memory store where another process
must reach it: a standalone ``repro worker``, and an accept-only server
whose jobs only such workers can run.
"""

from __future__ import annotations

import os
from typing import Any, Iterable, Mapping, Protocol, runtime_checkable

from ..core.instance import Instance
from ..engine.report import SolveReport
from ..resultcache import ServiceCache
from .store import DEFAULT_MAX_ATTEMPTS, JobRecord, JobStore

__all__ = ["StoreBackend", "open_store", "require_shared"]


@runtime_checkable
class StoreBackend(Protocol):
    """What the worker nodes, server and chaos require of a store.

    The lease semantics are the contract's heart — see
    :class:`~repro.service.store.JobStore` for the authoritative
    docstrings. Every method must be safe to call from any thread.
    """

    #: The result cache the worker nodes hand to their engine sessions.
    cache: ServiceCache

    @property
    def url(self) -> str: ...

    def close(self) -> None: ...

    # jobs
    def create_job(self, inst: Instance,
                   algorithms: Iterable[tuple[str, Mapping[str, Any]]],
                   *, label: str = "", priority: int = 0,
                   timeout: float | None = None,
                   trace_id: str | None = None,
                   max_attempts: int = DEFAULT_MAX_ATTEMPTS) -> JobRecord: ...
    def get_job(self, job_id: str) -> JobRecord | None: ...
    def list_jobs(self, status: str | None = None, limit: int = 100,
                  offset: int = 0) -> list[JobRecord]: ...
    def count_jobs(self, status: str | None = None) -> int: ...
    def counts(self) -> dict[str, int]: ...

    # lease protocol
    def claim_job(self, job_id: str, lease_seconds: float,
                  *, worker: str = "") -> bool: ...
    def claim_next(self, lease_seconds: float,
                   *, worker: str = "") -> JobRecord | None: ...
    def claims_by_worker(self) -> dict[str, int]: ...
    def heartbeat(self, job_id: str, lease_seconds: float) -> bool: ...
    def requeue_job(self, job_id: str, *, error: str = "",
                    delay: float = 0.0) -> bool: ...
    def release_lease(self, job_id: str) -> bool: ...
    def quarantine_job(self, job_id: str, error: str) -> bool: ...
    def reclaim_expired(self, backoff) -> tuple[list[JobRecord],
                                                list[JobRecord]]: ...
    def finish_job(self, job_id: str, reports: Iterable[SolveReport],
                   *, error: str = "") -> bool: ...
    def reports_for(self, job_id: str) -> list[SolveReport]: ...
    def recover_incomplete(self) -> list[JobRecord]: ...


def open_store(url: str | os.PathLike) -> JobStore:
    """Open a store from a ``store_url`` (or a bare SQLite path).

    ``sqlite:///jobs.db`` / ``sqlite:////var/lib/repro/jobs.db`` open a
    SQLite file; ``memory://`` and ``sqlite:///:memory:`` an in-memory
    SQLite store, private to this process — every call returns a *fresh*
    empty store, whose ``url`` is ``sqlite:///:memory:``. Anything
    without a scheme is treated as a SQLite path, so existing ``--db``
    values keep working.
    """
    text = os.fspath(url)
    if text == "memory://" or text == "memory:":
        return JobStore(":memory:")
    if text.startswith("sqlite://"):
        path = text[len("sqlite://"):]
        if path.startswith("/") and not path.startswith("//"):
            path = path[1:]         # sqlite:///rel.db -> rel.db
        elif path.startswith("//"):
            path = path[1:]         # sqlite:////abs.db -> /abs.db
        if not path or path == ":memory:":
            return JobStore(":memory:")
        return JobStore(path)
    if "://" in text:
        scheme = text.split("://", 1)[0]
        raise ValueError(
            f"unsupported store scheme {scheme!r} in {text!r}; "
            f"expected sqlite:///path or memory://")
    return JobStore(text)


def require_shared(store: StoreBackend) -> None:
    """Close ``store`` and raise :class:`ValueError` when it lives in
    this process only. For callers whose jobs cross a process boundary:
    an accept-only server, whose jobs external workers run, and a
    standalone worker, whose jobs a server submits."""
    if store.url == "sqlite:///:memory:":
        store.close()
        raise ValueError(
            "memory:// and sqlite:///:memory: stores are private to this "
            "process, but another process must reach this one to run its "
            "jobs; use a sqlite:///path store")
