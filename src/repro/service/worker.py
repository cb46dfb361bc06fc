"""Worker nodes: the transport-agnostic execution layer.

A :class:`WorkerNode` owns N drainer threads that poll *any*
:class:`~repro.service.storage.StoreBackend` via ``claim_next`` — the
store's atomic conditional claim is the only coordination, so any
number of nodes (threads in the server process, or whole separate
``repro worker`` processes) can drain one store with no job ever
executed twice. Each claimed job runs its instance x algorithms grid
through a :class:`repro.api.Session` (the same facade every other
consumer uses) with the store's result cache plugged in, and persists
the resulting reports. The HTTP server owns one node for its embedded
drainers; ``repro worker`` runs one per process.

Crash safety. Every claim holds a lease. A supervisor thread, always
running, heartbeats the lease of every in-flight job, reclaims jobs
whose lease expired anywhere in the fleet
(their worker died or hung — the store requeues them with exponential
backoff + full jitter, or quarantines them once ``max_attempts`` is
spent), and respawns drainer threads that died (e.g. to an injected
``drainer_loop`` fault). Retryable job failures (broken pools, injected
faults, I/O errors) are requeued with the same backoff; non-retryable
ones (bad input) fail terminally on the first attempt. Nodes never call
``recover_incomplete`` — recovery is a *server boot* operation; a node
joining a live fleet must not clobber its peers' leases.

Drainers are plain threads, not the main thread, so the engine's
``SIGALRM`` timeout cannot arm for inline solves; per-run timeouts here
rely on :mod:`repro.engine.runner`'s watchdog-thread fallback (or, with
``engine_workers > 1``, on ``SIGALRM`` inside the pool workers, which do
run solver code on their main thread).

:func:`run_worker` is the ``repro worker --store URL`` foreground entry:
a standalone process holding nothing but a store connection and its
drainers, SIGTERM/SIGINT releasing its leases on the way out.
"""

from __future__ import annotations

import itertools
import os
import random
import sqlite3
import threading
import time
from concurrent.futures.process import BrokenProcessPool

from ..api import BatchRequest, Session
from ..faults import injection
from ..faults.injection import FaultInjected
from ..obs.log import get_logger
from ..obs.metrics import REGISTRY
from ..obs.trace import trace_context
from .store import TERMINAL_STATUSES, JobRecord

__all__ = ["WorkerNode", "run_worker", "retryable"]

_log = get_logger("repro.service.worker")

#: How often :meth:`WorkerNode.wait_terminal` re-reads the store while no
#: local drainer finishes anything: jobs run by other processes sharing
#: the store (``repro worker``) signal nothing here.
STORE_REREAD_SECONDS = 0.02

QUEUE_DEPTH = REGISTRY.gauge(
    "repro_queue_depth", "Jobs waiting in the queue (in-flight excluded).")
JOBS_ACTIVE = REGISTRY.gauge(
    "repro_jobs_active", "Jobs currently being solved by a drainer.")
JOBS_COMPLETED = REGISTRY.counter(
    "repro_jobs_completed_total", "Jobs finished, by terminal status.",
    labelnames=("status",))
_DRAIN_SECONDS = REGISTRY.histogram(
    "repro_job_drain_seconds",
    "Wall time from claim to persisted result, per job.")
JOB_RETRIES = REGISTRY.counter(
    "repro_job_retries_total",
    "Jobs requeued for another attempt, by reason "
    "(error = drainer caught a retryable failure; "
    "reclaim = lease expired and the supervisor took the job back).",
    labelnames=("reason",))
LEASE_RECLAIMS = REGISTRY.counter(
    "repro_lease_reclaims_total",
    "Expired job leases reclaimed by the supervisor.")
_DRAINER_RESTARTS = REGISTRY.counter(
    "repro_drainer_restarts_total",
    "Drainer threads respawned by the supervisor after dying mid-job.")
WORKER_CLAIMS = REGISTRY.counter(
    "repro_worker_claims_total",
    "Jobs claimed by this process's worker nodes, by node name.",
    labelnames=("worker",))

_NODE_IDS = itertools.count()


def retryable(exc: BaseException) -> bool:
    """Whether a job failure is worth another attempt. Infrastructure
    trouble (dead pools, injected faults, I/O hiccups) is; malformed
    input (``ValueError`` and friends from the solvers) is not."""
    if isinstance(exc, (BrokenProcessPool, FaultInjected, OSError,
                        ConnectionError, MemoryError,
                        sqlite3.OperationalError)):
        return True
    if isinstance(exc, RuntimeError):
        msg = str(exc).lower()
        return "shutdown" in msg or "broken" in msg
    return False


class WorkerNode:
    """N drainer threads + a supervisor, polling one store backend.

    Parameters
    ----------
    store:
        Any :class:`~repro.service.storage.StoreBackend`. The node holds
        no state the store does not; several nodes — across processes —
        may share one store.
    workers:
        Drainer threads claiming and solving jobs (0 = supervision-only:
        the node still heartbeats/reclaims, useful for an accept-only
        server fronting external workers).
    engine_workers:
        Process fan-out per job. The default 0 solves inline on the
        drainer thread — one process, ``workers`` concurrent solves;
        raise it to fan each job out over processes.
    name:
        This node's identity for ``claimed_by`` stamps and per-worker
        claim counters; unique-per-process default.
    default_timeout:
        Per-run timeout (seconds) for jobs that carry none.
    lease_seconds:
        Length of the store lease a drainer holds (and keeps
        heartbeating) while running a job; a positive number.
    reclaim_interval:
        Supervisor tick (heartbeats, reclaims, drainer respawn).
        Default: a third of the lease, capped at 1s.
    retry_backoff_base / retry_backoff_cap:
        Exponential-backoff envelope for retries: attempt ``k`` waits
        ``uniform(0, min(cap, base * 2**(k-1)))`` seconds (full jitter).
    poll_interval:
        How long an idle drainer sleeps between ``claim_next`` polls
        (local submitters cut it short via :meth:`notify`).
    """

    def __init__(self, store, *, workers: int = 2, engine_workers: int = 0,
                 name: str | None = None,
                 default_timeout: float | None = None,
                 lease_seconds: float = 30.0,
                 reclaim_interval: float | None = None,
                 retry_backoff_base: float = 0.2,
                 retry_backoff_cap: float = 30.0,
                 poll_interval: float = 0.25) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if lease_seconds is None or not lease_seconds > 0:
            raise ValueError(
                f"lease_seconds must be > 0, got {lease_seconds}")
        self.store = store
        self.workers = workers
        self.engine_workers = engine_workers
        self.name = name or f"node-{os.getpid()}-{next(_NODE_IDS)}"
        self.default_timeout = default_timeout
        self.lease_seconds = lease_seconds
        self.reclaim_interval = (min(1.0, lease_seconds / 3.0)
                                 if reclaim_interval is None
                                 else reclaim_interval)
        self.retry_backoff_base = retry_backoff_base
        self.retry_backoff_cap = retry_backoff_cap
        self.poll_interval = poll_interval
        self.cache = store.cache
        self._session = Session(workers=engine_workers, cache=self.cache)
        # one lock, two conditions: ``_cv`` wakes long-polls (a job was
        # let go of) and the supervisor (stop); ``_wake`` wakes idle
        # drainers, one per :meth:`notify`
        lock = threading.RLock()
        self._cv = threading.Condition(lock)
        self._wake = threading.Condition(lock)
        #: :meth:`notify` calls so far; a drainer that read it before an
        #: empty claim sleeps only while it is unchanged
        self._wakeups = 0
        self._threads: list[threading.Thread] = []
        self._supervisor: threading.Thread | None = None
        self._inflight: set[str] = set()
        self._active = 0
        #: Jobs this node's drainers have let go of (any outcome); read
        #: and waited on under ``_cv`` by :meth:`wait_terminal`.
        self._finished = 0
        self._stopping = False
        self._names = itertools.count()

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> "WorkerNode":
        """Spawn the drainers and the supervisor."""
        if self.engine_workers > 1 and self.workers > 0:
            # pre-warm the shared engine pool to the *aggregate* demand:
            # each drainer's batch caps its own fan-out at engine_workers,
            # so concurrent jobs need workers x engine_workers width to
            # run at full parallelism
            from ..engine.pool import get_pool
            get_pool(self.workers * self.engine_workers)
        with self._cv:
            self._stopping = False
        for _ in range(self.workers):
            self._spawn_drainer()
        # supervision runs even with zero drainers: an accept-only server
        # must still reclaim leases its external workers drop
        self._supervisor = threading.Thread(
            target=self._supervise_loop, daemon=True,
            name=f"repro-supervisor-{self.name}")
        self._supervisor.start()
        return self

    def _spawn_drainer(self) -> threading.Thread:
        t = threading.Thread(
            target=self._drain_loop, daemon=True,
            name=f"repro-drainer-{self.name}-{next(self._names)}")
        t.start()
        self._threads.append(t)
        return t

    def stop(self, wait: bool = True, *, grace: float | None = None) -> int:
        """Stop claiming; drainers exit after their current job.

        With ``grace`` set, waits at most that many seconds for in-flight
        jobs, then releases the leases of whatever is still running so
        another node (or the next start) can pick the work up without
        burning a retry attempt. Returns the number of leases released."""
        with self._cv:
            self._stopping = True
            self._cv.notify_all()
            self._wake.notify_all()
        deadline = (time.monotonic() + grace) if grace is not None else None
        if wait:
            for t in self._threads:
                if deadline is None:
                    t.join()
                else:
                    t.join(max(0.0, deadline - time.monotonic()))
        if self._supervisor is not None:
            self._supervisor.join(1.0 if grace is not None else None)
            self._supervisor = None
        released = 0
        with self._cv:
            leftover = list(self._inflight)
        for job_id in leftover:
            if self.store.release_lease(job_id):
                released += 1
                _log.warning("lease_released", job_id=job_id)
        self._threads.clear()
        return released

    def notify(self) -> None:
        """Wake one idle drainer now — a local submitter's shortcut past
        the poll interval, called once per submitted job.

        The call is counted, so it is not lost on a drainer that is
        between an empty claim and its sleep: that drainer claims again
        at once instead of sleeping out the poll interval."""
        with self._wake:
            self._wakeups += 1
            self._wake.notify()

    def active(self) -> int:
        """Jobs this node is solving right now."""
        with self._cv:
            return self._active

    def wait_terminal(self, job_id: str,
                      timeout: float) -> JobRecord | None:
        """The job's record once it is terminal, or its current record
        after ``timeout`` seconds or when the node stops (``None`` for an
        unknown id).

        Sleeps on the condition the drainers notify after each job, and
        re-reads the store every :data:`STORE_REREAD_SECONDS` to see jobs
        finished elsewhere. The completion counter is read before the
        store, so a job that finishes in between still wakes the wait."""
        deadline = time.monotonic() + timeout
        while True:
            with self._cv:
                seen, stopping = self._finished, self._stopping
            job = self.store.get_job(job_id)
            left = deadline - time.monotonic()
            if job is None or job.status in TERMINAL_STATUSES \
                    or left <= 0 or stopping:
                return job
            with self._cv:
                self._cv.wait_for(
                    lambda: self._finished != seen or self._stopping,
                    timeout=min(left, STORE_REREAD_SECONDS))

    def join(self, timeout: float | None = None) -> bool:
        """Block until the store holds no claimable work and this node is
        idle. Other nodes' in-flight jobs are invisible here — fleet
        callers should poll the store's counts instead."""
        deadline = (time.monotonic() + timeout) if timeout is not None \
            else None
        while True:
            with self._cv:
                idle = self._active == 0
            if idle and self.store.count_jobs("queued") == 0:
                return True
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(0.02)

    # ------------------------------------------------------------------ #
    # draining
    # ------------------------------------------------------------------ #

    def _backoff(self, attempts: int) -> float:
        """Full-jitter exponential backoff for retry attempt ``attempts``."""
        ceiling = min(self.retry_backoff_cap,
                      self.retry_backoff_base * 2 ** max(0, attempts - 1))
        return random.uniform(0.0, ceiling)

    def _drain_loop(self) -> None:
        """Claim and run jobs until the node stops. A drainer that finds
        the queue empty sleeps on its own wake-up: until a :meth:`notify`
        it has not yet seen, the node stops, or the poll interval (jobs
        submitted by other processes signal nothing here) runs out."""
        while True:
            with self._wake:
                if self._stopping:
                    return
                seen = self._wakeups
            job = self.store.claim_next(self.lease_seconds,
                                        worker=self.name)
            if job is None:
                with self._wake:
                    self._wake.wait_for(
                        lambda: self._wakeups != seen or self._stopping,
                        timeout=self.poll_interval)
                continue
            WORKER_CLAIMS.inc(worker=self.name)
            # a drainer_loop fault fires *after* the claim and *before*
            # in-flight tracking: the thread dies holding a live lease,
            # and only supervision (lease reclaim + drainer respawn)
            # saves the job
            injection.maybe_raise("drainer_loop")
            with self._cv:
                self._inflight.add(job.id)
                self._active += 1
                JOBS_ACTIVE.set(self._active)
            try:
                self._execute_claimed(job)
            finally:
                with self._cv:
                    self._inflight.discard(job.id)
                    self._active -= 1
                    self._finished += 1
                    JOBS_ACTIVE.set(self._active)
                    self._cv.notify_all()

    def _execute_claimed(self, job: JobRecord) -> None:
        # re-enter the job's submission trace on this drainer thread
        # (contextvars do not cross threads); jobs from a pre-trace
        # database get a fresh ID so their reports are still correlated
        with trace_context(job.trace_id):
            t0 = time.monotonic()
            _log.info("job_started", job_id=job.id, label=job.label,
                      worker=self.name, attempt=job.attempts,
                      algorithms=len(job.algorithms))
            timeout = job.timeout if job.timeout is not None \
                else self.default_timeout
            try:
                reports = self._session.solve_batch(BatchRequest.create(
                    [(job.label or job.id, job.instance)],
                    list(job.algorithms), timeout=timeout))
                finished = self.store.finish_job(job.id, reports)
            except Exception as exc:    # noqa: BLE001 — job fails, node lives
                self._job_failed(job, exc, time.monotonic() - t0)
                return
            elapsed = time.monotonic() - t0
            if not finished:
                # our lease was reclaimed mid-run and a retry superseded
                # us; the store refused the stale write
                _log.warning("job_finish_stale", job_id=job.id,
                             wall_time_s=round(elapsed, 6))
                return
            JOBS_COMPLETED.inc(status="done")
            _DRAIN_SECONDS.observe(elapsed)
            _log.info("job_finished", job_id=job.id, status="done",
                      error="", wall_time_s=round(elapsed, 6))

    def _job_failed(self, job: JobRecord, exc: Exception,
                    elapsed: float) -> None:
        """Route a failed attempt: requeue with backoff, quarantine, or
        fail terminally. Runs on the drainer thread, inside the job's
        trace context."""
        error = f"{type(exc).__name__}: {exc}"
        attempts = job.attempts     # fetched post-claim: already counted
        if retryable(exc):
            if attempts < job.max_attempts:
                delay = self._backoff(attempts)
                if self.store.requeue_job(job.id, error=error, delay=delay):
                    JOB_RETRIES.inc(reason="error")
                    _log.warning("job_retrying", job_id=job.id, error=error,
                                 attempt=attempts,
                                 max_attempts=job.max_attempts,
                                 delay_s=round(delay, 3))
                return
            if self.store.quarantine_job(
                    job.id, f"{error} (attempt {attempts}/"
                    f"{job.max_attempts}, no attempts left)"):
                JOBS_COMPLETED.inc(status="quarantined")
                _DRAIN_SECONDS.observe(elapsed)
                _log.error("job_quarantined", job_id=job.id, error=error,
                           attempt=attempts, wall_time_s=round(elapsed, 6))
            return
        try:
            finished = self.store.finish_job(job.id, [], error=error)
        except Exception as exc2:   # noqa: BLE001 — e.g. store_commit fault
            # the failure record itself failed to commit; leave the row
            # running — lease reclaim will retry or quarantine it
            _log.warning("job_fail_commit_failed", job_id=job.id,
                         error=f"{type(exc2).__name__}: {exc2}")
            return
        if finished:
            JOBS_COMPLETED.inc(status="failed")
            _DRAIN_SECONDS.observe(elapsed)
            _log.warning("job_finished", job_id=job.id, status="failed",
                         error=error, wall_time_s=round(elapsed, 6))

    # ------------------------------------------------------------------ #
    # supervision
    # ------------------------------------------------------------------ #

    def _supervise_loop(self) -> None:
        while True:
            with self._cv:
                if self._cv.wait_for(lambda: self._stopping,
                                     timeout=self.reclaim_interval):
                    return
            try:
                self._tick()
            except Exception as exc:    # noqa: BLE001 — supervisor survives
                _log.error("supervisor_error",
                           error=f"{type(exc).__name__}: {exc}")

    def _tick(self) -> None:
        """One supervisor pass: heartbeat, reclaim, gauge, respawn."""
        with self._cv:
            inflight = list(self._inflight)
        for job_id in inflight:
            self.store.heartbeat(job_id, self.lease_seconds)

        requeued, quarantined = self.store.reclaim_expired(self._backoff)
        for rec in requeued:
            LEASE_RECLAIMS.inc()
            JOB_RETRIES.inc(reason="reclaim")
            _log.warning("lease_reclaimed", job_id=rec.id,
                         trace_id=rec.trace_id, attempt=rec.attempts,
                         max_attempts=rec.max_attempts,
                         claimed_by=rec.claimed_by)
            self.notify()       # the requeued job may be due immediately
        for rec in quarantined:
            LEASE_RECLAIMS.inc()
            JOBS_COMPLETED.inc(status="quarantined")
            _log.error("job_quarantined", job_id=rec.id,
                       trace_id=rec.trace_id, error=rec.error,
                       attempt=rec.attempts)

        QUEUE_DEPTH.set(self.store.count_jobs("queued"))

        for i, t in enumerate(self._threads):
            if not t.is_alive() and not self._stopping:
                _DRAINER_RESTARTS.inc()
                _log.warning("drainer_restarted", died=t.name)
                self._threads[i] = threading.Thread(
                    target=self._drain_loop, daemon=True,
                    name=f"repro-drainer-{self.name}-{next(self._names)}")
                self._threads[i].start()


def run_worker(store_url: str, *, workers: int = 2, engine_workers: int = 0,
               name: str | None = None, lease_seconds: float = 30.0,
               default_timeout: float | None = None,
               poll_interval: float = 0.25, drain_grace: float = 10.0,
               quiet: bool = False, log_level: str | None = None) -> None:
    """Run a standalone worker node in the foreground (``repro worker``).

    Opens ``store_url``, drains it until SIGTERM/SIGINT, then stops
    gracefully: in-flight jobs get up to ``drain_grace`` seconds, leases
    that cannot finish are released back to the store untouched, and the
    process exits 0. Several such processes against one SQLite store —
    plus, typically, a ``repro serve --no-embedded-workers`` front door —
    form the fleet topology."""
    import signal as _signal

    from ..engine.pool import shutdown_pool
    from ..obs.log import set_level
    from .storage import open_store

    set_level(log_level or ("warning" if quiet else "info"))
    store = open_store(store_url)
    node = WorkerNode(store, workers=workers, engine_workers=engine_workers,
                      name=name, lease_seconds=lease_seconds,
                      default_timeout=default_timeout,
                      poll_interval=poll_interval)
    node.start()
    print(f"repro worker {node.name!r} draining {store.url} "
          f"({workers} drainer(s), engine_workers={engine_workers})",
          flush=True)
    stop = threading.Event()
    previous = {}
    try:
        for sig in (_signal.SIGTERM, _signal.SIGINT):
            previous[sig] = _signal.signal(
                sig, lambda signum, frame: stop.set())
    except (ValueError, OSError):   # pragma: no cover - non-main thread
        pass
    try:
        while not stop.wait(0.5):
            pass
        print(f"shutting down (draining up to {drain_grace:g}s)", flush=True)
    except KeyboardInterrupt:       # signal handlers not installed
        print("shutting down", flush=True)
    finally:
        for sig, handler in previous.items():
            try:
                _signal.signal(sig, handler)
            except (ValueError, OSError):   # pragma: no cover
                pass
        released = node.stop(wait=True, grace=drain_grace)
        store.close()
        shutdown_pool(wait=False)
        if released:
            print(f"released {released} unfinished lease(s)", flush=True)
