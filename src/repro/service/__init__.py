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
  implementation; results live in one more SQLite file beside it,
  ``<db>.cache`` (:class:`~repro.resultcache.ServiceCache`).
* **Workers** — :class:`~repro.service.worker.WorkerNode` drains any
  backend via its atomic ``claim_next``, holding a lease on every job
  it runs; ``repro worker --store URL`` runs one as a standalone
  process, and N of them share a store with no double execution.
* **HTTP** — :class:`~repro.service.server.SchedulingService` / ``serve``
  (``repro serve``), a stdlib threaded JSON API under ``/v1`` with a
  uniform error envelope, owning one worker node for its embedded
  drainers; :class:`~repro.service.client.ServiceClient` is the Python
  client (``repro submit``, tests, examples, and the remote backend of
  :class:`repro.api.Session`).
"""

from .client import ServiceClient, ServiceError
from .server import SchedulingService, serve
from .storage import MemoryStore, StoreBackend, open_store
from .store import JOB_STATUSES, TERMINAL_STATUSES, JobRecord, JobStore
from .worker import WorkerNode, run_worker

__all__ = ["JobStore", "JobRecord", "StoreBackend", "MemoryStore",
           "open_store", "WorkerNode", "run_worker",
           "SchedulingService", "serve", "ServiceClient", "ServiceError",
           "JOB_STATUSES", "TERMINAL_STATUSES"]
