"""The storage layer's contract and its non-SQLite backends.

:class:`StoreBackend` is the protocol every store speaks — the full
create/claim/heartbeat/requeue/finish/cache surface the worker nodes,
the HTTP server and chaos all program against. Two
implementations ship:

* :class:`~repro.service.store.JobStore` — the SQLite reference
  implementation (WAL, per-thread connections, one more SQLite file for
  the result cache); the only backend multiple *processes* can share.
* :class:`MemoryStore` — a pure-dict twin with identical lease/retry
  semantics, for tests and chaos campaigns that want a store with zero
  filesystem footprint (and a place to wedge failures without touching
  SQLite).

Construction goes through :func:`open_store`, which parses the
``store_url`` syntax used by ``repro serve --store``, ``repro worker
--store`` and ``repro chaos --store``::

    sqlite:///relative/path.db     SQLite file (also: bare paths)
    sqlite:////absolute/path.db    SQLite file, absolute
    memory://                      in-process MemoryStore
"""

from __future__ import annotations

import os
import threading
import time
import uuid
from dataclasses import replace
from typing import (Any, Iterable, Mapping, Protocol, runtime_checkable)

from ..core.instance import Instance
from ..engine.report import SolveReport
from ..faults import injection
from ..resultcache import ServiceCache
from .store import DEFAULT_MAX_ATTEMPTS, JOB_STATUSES, JobRecord, JobStore

__all__ = ["StoreBackend", "MemoryStore", "open_store"]


@runtime_checkable
class StoreBackend(Protocol):
    """What the worker nodes, server and chaos require of a store.

    The lease semantics are the contract's heart — see
    :class:`~repro.service.store.JobStore` (the reference
    implementation) for the authoritative docstrings. Every method must
    be safe to call from any thread.
    """

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

    # result cache
    def cache_get(self, key: str) -> SolveReport | None: ...
    def cache_put(self, key: str, digest: str,
                  report: SolveReport) -> None: ...
    def cached_reports_for_digest(self, digest: str) -> list[SolveReport]: ...
    def cache_size(self) -> int: ...


class MemoryStore:
    """In-memory :class:`StoreBackend` with full lease-protocol parity.

    Everything lives in dicts behind one RLock; reports and instances
    are held as objects (no serialisation round-trip). Semantics —
    attempt counting, backoff parking, stale-writer refusal, recovery
    ordering, error strings — mirror :class:`JobStore` exactly, so the
    two backends are interchangeable under the conformance suite.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._jobs: dict[str, JobRecord] = {}
        self._reports: dict[str, list[SolveReport]] = {}
        self._claims: dict[str, int] = {}
        self.cache = ServiceCache(":memory:")

    @property
    def url(self) -> str:
        return "memory://"

    def close(self) -> None:
        self.cache.close()

    # ------------------------------------------------------------------ #
    # jobs
    # ------------------------------------------------------------------ #

    def create_job(self, inst: Instance,
                   algorithms: Iterable[tuple[str, Mapping[str, Any]]],
                   *, label: str = "", priority: int = 0,
                   timeout: float | None = None,
                   trace_id: str | None = None,
                   max_attempts: int = DEFAULT_MAX_ATTEMPTS) -> JobRecord:
        algos = tuple((name, dict(kwargs or {}))
                      for name, kwargs in algorithms)
        if not algos:
            raise ValueError("a job needs at least one algorithm")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        job = JobRecord(id=uuid.uuid4().hex[:16], status="queued",
                        priority=int(priority), label=label, instance=inst,
                        instance_digest=inst.digest(), algorithms=algos,
                        timeout=timeout, submitted_at=time.time(),
                        trace_id=trace_id, max_attempts=int(max_attempts))
        with self._lock:
            self._jobs[job.id] = job
        return job

    def get_job(self, job_id: str) -> JobRecord | None:
        with self._lock:
            return self._jobs.get(job_id)

    def list_jobs(self, status: str | None = None,
                  limit: int = 100, offset: int = 0) -> list[JobRecord]:
        with self._lock:
            jobs = [j for j in self._jobs.values()
                    if status is None or j.status == status]
        jobs.sort(key=lambda j: (-j.submitted_at, j.id))
        return jobs[int(offset):int(offset) + int(limit)]

    def count_jobs(self, status: str | None = None) -> int:
        with self._lock:
            return sum(1 for j in self._jobs.values()
                       if status is None or j.status == status)

    def counts(self) -> dict[str, int]:
        out = {s: 0 for s in JOB_STATUSES}
        with self._lock:
            for job in self._jobs.values():
                out[job.status] = out.get(job.status, 0) + 1
        return out

    # ------------------------------------------------------------------ #
    # lease protocol
    # ------------------------------------------------------------------ #

    def claim_job(self, job_id: str, lease_seconds: float,
                  *, worker: str = "") -> bool:
        now = time.time()
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.status != "queued":
                return False
            if job.next_attempt_at is not None and job.next_attempt_at > now:
                return False
            self._jobs[job_id] = replace(
                job, status="running", started_at=now,
                lease_expires_at=now + lease_seconds,
                attempts=job.attempts + 1, claimed_by=worker or None)
            if worker:
                self._claims[worker] = self._claims.get(worker, 0) + 1
            return True

    def claim_next(self, lease_seconds: float,
                   *, worker: str = "") -> JobRecord | None:
        now = time.time()
        with self._lock:
            eligible = [j for j in self._jobs.values()
                        if j.status == "queued"
                        and (j.next_attempt_at is None
                             or j.next_attempt_at <= now)]
            eligible.sort(key=lambda j: (-j.priority, j.submitted_at, j.id))
            for job in eligible:
                if self.claim_job(job.id, lease_seconds, worker=worker):
                    return self._jobs[job.id]
        return None

    def claims_by_worker(self) -> dict[str, int]:
        with self._lock:
            return dict(self._claims)

    def heartbeat(self, job_id: str, lease_seconds: float) -> bool:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.status != "running":
                return False
            self._jobs[job_id] = replace(
                job, lease_expires_at=time.time() + lease_seconds)
            return True

    def requeue_job(self, job_id: str, *, error: str = "",
                    delay: float = 0.0) -> bool:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.status != "running":
                return False
            self._jobs[job_id] = replace(
                job, status="queued", started_at=None, lease_expires_at=None,
                next_attempt_at=time.time() + max(0.0, delay), error=error)
            return True

    def release_lease(self, job_id: str) -> bool:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.status != "running":
                return False
            self._jobs[job_id] = replace(
                job, status="queued", started_at=None, lease_expires_at=None,
                next_attempt_at=None, attempts=max(0, job.attempts - 1))
            return True

    def quarantine_job(self, job_id: str, error: str) -> bool:
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.status != "running":
                return False
            self._jobs[job_id] = replace(
                job, status="quarantined", error=error,
                finished_at=time.time(), lease_expires_at=None)
            return True

    def reclaim_expired(self, backoff) -> tuple[list[JobRecord],
                                                list[JobRecord]]:
        now = time.time()
        requeued: list[JobRecord] = []
        quarantined: list[JobRecord] = []
        with self._lock:
            for job in list(self._jobs.values()):
                if job.status != "running" or job.lease_expires_at > now:
                    continue
                note = (f"lease expired mid-run (attempt "
                        f"{job.attempts}/{job.max_attempts})")
                if job.error:
                    note += f"; last error: {job.error}"
                if job.attempts >= job.max_attempts:
                    self._jobs[job.id] = replace(
                        job, status="quarantined", error=note,
                        finished_at=now, lease_expires_at=None)
                    quarantined.append(self._jobs[job.id])
                else:
                    due = now + max(0.0, float(backoff(job.attempts)))
                    self._jobs[job.id] = replace(
                        job, status="queued", error=note, started_at=None,
                        lease_expires_at=None, next_attempt_at=due)
                    requeued.append(self._jobs[job.id])
        return requeued, quarantined

    def finish_job(self, job_id: str, reports: Iterable[SolveReport],
                   *, error: str = "") -> bool:
        injection.maybe_raise("store_commit")
        status = "failed" if error else "done"
        with self._lock:
            job = self._jobs.get(job_id)
            if job is None or job.status != "running":
                return False
            self._jobs[job_id] = replace(
                job, status=status, error=error, finished_at=time.time(),
                lease_expires_at=None)
            self._reports[job_id] = list(reports)
            return True

    def reports_for(self, job_id: str) -> list[SolveReport]:
        with self._lock:
            return list(self._reports.get(job_id, []))

    def recover_incomplete(self) -> list[JobRecord]:
        now = time.time()
        with self._lock:
            for job in list(self._jobs.values()):
                if job.status == "running":
                    if job.attempts >= job.max_attempts:
                        self._jobs[job.id] = replace(
                            job, status="quarantined", finished_at=now,
                            lease_expires_at=None,
                            error=("process died mid-run with no attempts "
                                   f"left (attempts {job.attempts}/"
                                   f"{job.max_attempts})"))
                    else:
                        self._jobs[job.id] = replace(
                            job, status="queued", started_at=None,
                            lease_expires_at=None, next_attempt_at=None)
                elif job.status == "queued" and job.next_attempt_at:
                    self._jobs[job.id] = replace(job, next_attempt_at=None)
            queued = [j for j in self._jobs.values()
                      if j.status == "queued"]
        queued.sort(key=lambda j: j.submitted_at)
        return queued

    # ------------------------------------------------------------------ #
    # result cache
    # ------------------------------------------------------------------ #

    def cache_get(self, key: str) -> SolveReport | None:
        return self.cache.peek(key)

    def cache_put(self, key: str, digest: str, report: SolveReport) -> None:
        self.cache.store(key, digest, report)

    def cached_reports_for_digest(self, digest: str) -> list[SolveReport]:
        return self.cache.reports_for_digest(digest)

    def cache_size(self) -> int:
        return self.cache.size()


def open_store(url: str | os.PathLike) -> JobStore | MemoryStore:
    """Open a store from a ``store_url`` (or a bare SQLite path).

    ``sqlite:///jobs.db`` / ``sqlite:////var/lib/repro/jobs.db`` open
    the SQLite backend; ``memory://`` the in-process one (private to
    this process — every call returns a *fresh* empty store). Anything
    without a scheme is treated as a SQLite path, so existing ``--db``
    values keep working.
    """
    text = os.fspath(url)
    if text == "memory://" or text == "memory:":
        return MemoryStore()
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
