"""Scheduling-as-a-service: a persistent job store + worker nodes + an
HTTP API wrapping the batch execution engine.

The subsystem turns the repository from a CLI into a long-running
server: clients submit class-constrained scheduling work over HTTP,
wait on it, and share solved results through a digest-indexed report
cache that survives restarts.

The service is split into three swappable layers:

* **Storage** — :class:`~repro.service.storage.StoreBackend` is the
  protocol every backend speaks; :func:`~repro.service.storage.open_store`
  builds one from a ``store_url`` (``sqlite:///jobs.db`` — WAL, safe
  across threads *and* processes — or ``memory://`` for tests/chaos).
  :class:`~repro.service.store.JobStore` is the SQLite reference
  implementation; results live in a consistent-hash-sharded cache
  (:mod:`repro.resultcache`).
* **Workers** — :class:`~repro.service.worker.WorkerNode` drains any
  backend via its atomic ``claim_next``; ``repro worker --store URL``
  runs one as a standalone process, and N of them share a store with
  no double execution. :class:`~repro.service.queue.JobQueue` is the
  embedded-mode facade the server uses.
* **HTTP** — :class:`~repro.service.server.SchedulingService` / ``serve``
  (``repro serve``), a stdlib threaded JSON API, versioned under ``/v1``
  with a uniform error envelope (the original unversioned routes remain
  as deprecated aliases); :class:`~repro.service.client.ServiceClient`
  is the Python client (``repro submit``, tests, examples, and the
  remote backend of :class:`repro.api.Session`).
"""

from .client import ServiceClient, ServiceError
from .queue import JobQueue
from .server import SchedulingService, serve
from .storage import MemoryStore, StoreBackend, open_store
from .store import (JOB_STATUSES, TERMINAL_STATUSES, JobRecord, JobStore,
                    SqliteReportCache)
from .worker import WorkerNode, run_worker

__all__ = ["JobStore", "JobRecord", "SqliteReportCache", "JobQueue",
           "StoreBackend", "MemoryStore", "open_store",
           "WorkerNode", "run_worker",
           "SchedulingService", "serve", "ServiceClient", "ServiceError",
           "JOB_STATUSES", "TERMINAL_STATUSES"]
