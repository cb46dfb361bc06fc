"""Scheduling-as-a-service: a persistent job store + worker nodes + an
HTTP API wrapping the batch execution engine.

The subsystem turns the repository from a CLI into a long-running
server: clients submit class-constrained scheduling work over HTTP,
wait on it, and share solved results through a digest-indexed report
cache that survives restarts.

The service is split into three layers:

* **Storage** — :class:`~repro.service.store.JobStore` is the one
  store: SQLite, with its lease protocol and, as ``store.cache``, a
  result cache in one more SQLite file beside it, ``<db>.cache``
  (:class:`~repro.resultcache.ServiceCache`).
  :class:`~repro.service.storage.StoreBackend` is the protocol the other
  layers program against; :func:`~repro.service.storage.open_store`
  builds a store from a ``store_url``: ``sqlite:///jobs.db`` (WAL, safe
  across threads *and* processes) or ``memory://`` /
  ``sqlite:///:memory:`` (in memory, private to one process).
* **Workers** — :class:`~repro.service.worker.WorkerNode` drains a
  store via its atomic ``claim_next``, holding a lease on every job
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
from .storage import StoreBackend, open_store
from .store import JOB_STATUSES, TERMINAL_STATUSES, JobRecord, JobStore
from .worker import WorkerNode, run_worker

__all__ = ["JobStore", "JobRecord", "StoreBackend", "open_store",
           "WorkerNode", "run_worker",
           "SchedulingService", "serve", "ServiceClient", "ServiceError",
           "JOB_STATUSES", "TERMINAL_STATUSES"]
