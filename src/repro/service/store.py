"""SQLite reference implementation of the storage layer.

One database file holds everything the service must not lose on restart:

* ``jobs`` — every submitted job with its full input (instance JSON,
  algorithm list, priority, timeout) and lifecycle timestamps, so a
  restarted server re-enqueues whatever was queued or mid-flight;
* ``reports`` — the ordered :class:`~repro.engine.report.SolveReport`
  rows a finished job produced (JSON per row, fractions stay exact via
  the report's ``num/den`` wire encoding);
* ``worker_claims`` — cumulative claims per worker node, so a server
  can expose per-worker counters for workers living in *other*
  processes (their in-process metric registries are invisible here).

The cross-client result cache lives next to the database in one more
SQLite file, ``<path>.cache`` (:class:`~repro.resultcache.ServiceCache`),
reached through the ``cache_get``/``cache_put`` seam.

Concurrency. The store is accessed from many threads (HTTP handlers +
worker-node drainers) and, in fleet topologies, from many *processes*.
File-backed stores open one connection per thread (WAL journal +
``busy_timeout`` + ``BEGIN IMMEDIATE`` write transactions; a write of
one statement runs in autocommit), so readers never block behind
writers and concurrent writers queue on SQLite's own lock instead of
racing; ``:memory:`` stores — where every connection
would see a different empty database — keep the legacy single shared
connection behind an RLock.

This is the reference :class:`~repro.service.storage.StoreBackend`; the
in-memory twin used by tests and chaos lives in
:mod:`repro.service.storage`.
"""

from __future__ import annotations

import contextlib
import json
import os
import sqlite3
import threading
import time
import uuid
from dataclasses import dataclass, replace
from typing import Any, Iterable, Mapping

from ..core.instance import Instance
from ..engine.report import SolveReport
from ..faults import injection
from ..io import instance_from_dict, instance_to_dict
from ..resultcache import ServiceCache

__all__ = ["JobStore", "JobRecord", "JOB_STATUSES", "TERMINAL_STATUSES",
           "DEFAULT_MAX_ATTEMPTS"]

#: Lifecycle of a job. ``queued`` and ``running`` survive restarts as
#: ``queued`` (until their attempts run out); ``done``, ``failed`` and
#: ``quarantined`` are terminal. ``quarantined`` is where a job lands
#: after exhausting ``max_attempts`` — repeatedly crashing work must
#: neither loop forever nor masquerade as an ordinary failure.
JOB_STATUSES = ("queued", "running", "done", "failed", "quarantined")

#: The statuses a job can never leave.
TERMINAL_STATUSES = ("done", "failed", "quarantined")

#: Attempts a job gets before quarantine, unless overridden per job.
DEFAULT_MAX_ATTEMPTS = 3

#: The head of the queue: the most urgent claimable job, highest
#: priority first, FIFO within a priority level.
_HEAD = ("SELECT id FROM jobs WHERE status='queued' "
         "AND (next_attempt_at IS NULL OR next_attempt_at<=?) "
         "ORDER BY priority DESC, submitted_at, id LIMIT 1")

_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    id              TEXT PRIMARY KEY,
    status          TEXT NOT NULL,
    priority        INTEGER NOT NULL DEFAULT 0,
    label           TEXT NOT NULL DEFAULT '',
    instance        TEXT NOT NULL,
    instance_digest TEXT NOT NULL,
    algorithms      TEXT NOT NULL,
    timeout         REAL,
    error           TEXT NOT NULL DEFAULT '',
    submitted_at    REAL NOT NULL,
    started_at      REAL,
    finished_at     REAL,
    trace_id        TEXT,
    lease_expires_at REAL,
    attempts        INTEGER NOT NULL DEFAULT 0,
    max_attempts    INTEGER NOT NULL DEFAULT 3,
    next_attempt_at REAL,
    claimed_by      TEXT
);
CREATE INDEX IF NOT EXISTS idx_jobs_status ON jobs(status);

CREATE TABLE IF NOT EXISTS reports (
    job_id TEXT NOT NULL,
    seq    INTEGER NOT NULL,
    report TEXT NOT NULL,
    PRIMARY KEY (job_id, seq)
);

CREATE TABLE IF NOT EXISTS worker_claims (
    worker TEXT PRIMARY KEY,
    claims INTEGER NOT NULL DEFAULT 0
);
"""


@dataclass(frozen=True)
class JobRecord:
    """One row of the ``jobs`` table, decoded."""

    id: str
    status: str
    priority: int
    label: str
    instance: Instance
    instance_digest: str
    algorithms: tuple[tuple[str, dict], ...]
    timeout: float | None
    error: str = ""
    submitted_at: float = 0.0
    started_at: float | None = None
    finished_at: float | None = None
    trace_id: str | None = None
    lease_expires_at: float | None = None
    attempts: int = 0
    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    next_attempt_at: float | None = None
    claimed_by: str | None = None

    def to_dict(self) -> dict:
        """JSON-safe summary: what ``GET /v1/jobs/{id}`` returns, which
        adds a terminal job's ``reports``."""
        return {
            "id": self.id, "status": self.status, "priority": self.priority,
            "label": self.label, "instance_digest": self.instance_digest,
            "algorithms": [[name, kwargs] for name, kwargs in self.algorithms],
            "timeout": self.timeout, "error": self.error,
            "submitted_at": self.submitted_at, "started_at": self.started_at,
            "finished_at": self.finished_at, "trace_id": self.trace_id,
            "lease_expires_at": self.lease_expires_at,
            "attempts": self.attempts, "max_attempts": self.max_attempts,
            "next_attempt_at": self.next_attempt_at,
            "claimed_by": self.claimed_by,
        }


def _row_to_record(row: sqlite3.Row) -> JobRecord:
    return JobRecord(
        id=row["id"], status=row["status"], priority=row["priority"],
        label=row["label"],
        instance=instance_from_dict(json.loads(row["instance"])),
        instance_digest=row["instance_digest"],
        algorithms=tuple((name, dict(kwargs))
                         for name, kwargs in json.loads(row["algorithms"])),
        timeout=row["timeout"], error=row["error"],
        submitted_at=row["submitted_at"], started_at=row["started_at"],
        finished_at=row["finished_at"], trace_id=row["trace_id"],
        lease_expires_at=row["lease_expires_at"],
        attempts=row["attempts"], max_attempts=row["max_attempts"],
        next_attempt_at=row["next_attempt_at"],
        claimed_by=row["claimed_by"])


class _Rollback(Exception):
    """Raised inside a :meth:`JobStore._write` block to abort the
    transaction without propagating — the conditional-UPDATE-lost path."""


class JobStore:
    """Thread- and process-safe persistent job + report + cache store."""

    def __init__(self, path: str | os.PathLike) -> None:
        if sqlite3.sqlite_version_info < (3, 35):
            # claim_next needs UPDATE ... RETURNING; failing here beats a
            # drainer dying on every claim
            raise RuntimeError(
                f"the job store needs SQLite >= 3.35; this Python links "
                f"SQLite {sqlite3.sqlite_version}")
        self.path = str(path)
        self._serial = self.path == ":memory:" \
            or self.path.startswith("file::memory:")
        self._lock = threading.RLock()
        self._tls = threading.local()
        self._conns: list[sqlite3.Connection] = []
        self._closed = False
        if self._serial:
            # every connection to :memory: is its own empty database, so
            # per-thread connections are impossible — serialise instead
            self._shared = self._connect()
        else:
            self._shared = None
        # executescript commits on its own (autocommit mode), so schema
        # setup stays outside the explicit-transaction helpers
        self._connection().executescript(_SCHEMA)
        with self._write() as conn:
            self._migrate(conn)
        self.cache = ServiceCache(":memory:" if self._serial
                                  else f"{self.path}.cache")

    # ------------------------------------------------------------------ #
    # connections & transactions
    # ------------------------------------------------------------------ #

    def _connect(self) -> sqlite3.Connection:
        # check_same_thread=False so close() may run from any thread;
        # each connection is still *used* by one thread only (file mode)
        # or behind the RLock (memory mode). isolation_level=None puts
        # sqlite3 in autocommit so BEGIN IMMEDIATE below is explicit.
        conn = sqlite3.connect(self.path, check_same_thread=False,
                               isolation_level=None)
        conn.row_factory = sqlite3.Row
        if not self._serial:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA busy_timeout=10000")
        conn.execute("PRAGMA synchronous=NORMAL")
        with self._lock:
            self._conns.append(conn)
        return conn

    def _connection(self) -> sqlite3.Connection:
        if self._serial:
            return self._shared
        conn = getattr(self._tls, "conn", None)
        if conn is None:
            conn = self._connect()
            self._tls.conn = conn
        return conn

    @contextlib.contextmanager
    def _autocommit(self):
        """The connection for statements that stand alone: reads, and
        writes of a single statement, which SQLite commits on its own."""
        if self._serial:
            with self._lock:
                yield self._shared
        else:
            yield self._connection()

    @contextlib.contextmanager
    def _write(self):
        """One atomic write transaction (`BEGIN IMMEDIATE` ... COMMIT).

        Raising :class:`_Rollback` inside the block rolls back quietly —
        the caller signals "condition not met" via its own return value.
        Any other exception rolls back and propagates."""
        if self._serial:
            with self._lock:
                yield from self._tx(self._shared)
        else:
            yield from self._tx(self._connection())

    @staticmethod
    def _tx(conn: sqlite3.Connection):
        conn.execute("BEGIN IMMEDIATE")
        try:
            yield conn
        except _Rollback:
            conn.execute("ROLLBACK")
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        else:
            conn.execute("COMMIT")

    def _migrate(self, conn: sqlite3.Connection) -> None:
        """Bring a pre-existing database up to the current schema —
        additive columns only, so old and new processes can share one
        file during a rolling restart."""
        cols = {row["name"] for row in conn.execute("PRAGMA table_info(jobs)")}
        for name, decl in (
                ("trace_id", "TEXT"),
                ("lease_expires_at", "REAL"),
                ("attempts", "INTEGER NOT NULL DEFAULT 0"),
                ("max_attempts",
                 f"INTEGER NOT NULL DEFAULT {DEFAULT_MAX_ATTEMPTS}"),
                ("next_attempt_at", "REAL"),
                ("claimed_by", "TEXT")):
            if name not in cols:
                conn.execute(f"ALTER TABLE jobs ADD COLUMN {name} {decl}")

    @property
    def url(self) -> str:
        """The ``store_url`` this store reopens under."""
        if self._serial:
            return "sqlite:///:memory:"
        return f"sqlite:///{self.path}"

    def close(self) -> None:
        self.cache.close()
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for conn in self._conns:
                with contextlib.suppress(sqlite3.ProgrammingError):
                    conn.close()
            self._conns.clear()

    # ------------------------------------------------------------------ #
    # jobs
    # ------------------------------------------------------------------ #

    def create_job(self, inst: Instance,
                   algorithms: Iterable[tuple[str, Mapping[str, Any]]],
                   *, label: str = "", priority: int = 0,
                   timeout: float | None = None,
                   trace_id: str | None = None,
                   max_attempts: int = DEFAULT_MAX_ATTEMPTS) -> JobRecord:
        """Persist a new ``queued`` job and return its record.

        The job is one autocommit ``INSERT``: no explicit transaction,
        so a submit costs a single statement."""
        job_id = uuid.uuid4().hex[:16]
        algos = tuple((name, dict(kwargs or {})) for name, kwargs in algorithms)
        if not algos:
            raise ValueError("a job needs at least one algorithm")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        now = time.time()
        with self._autocommit() as conn:
            conn.execute(
                "INSERT INTO jobs (id, status, priority, label, instance, "
                "instance_digest, algorithms, timeout, submitted_at, "
                "trace_id, max_attempts) "
                "VALUES (?, 'queued', ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (job_id, int(priority), label,
                 json.dumps(instance_to_dict(inst)), inst.digest(),
                 json.dumps([[n, k] for n, k in algos]), timeout, now,
                 trace_id, int(max_attempts)))
        return JobRecord(id=job_id, status="queued", priority=int(priority),
                         label=label, instance=inst,
                         instance_digest=inst.digest(), algorithms=algos,
                         timeout=timeout, submitted_at=now,
                         trace_id=trace_id, max_attempts=int(max_attempts))

    def get_job(self, job_id: str) -> JobRecord | None:
        with self._autocommit() as conn:
            row = conn.execute(
                "SELECT * FROM jobs WHERE id = ?", (job_id,)).fetchone()
        return _row_to_record(row) if row is not None else None

    def list_jobs(self, status: str | None = None,
                  limit: int = 100, offset: int = 0) -> list[JobRecord]:
        """Most recent jobs first, optionally filtered by status.

        ``offset`` skips past rows for pagination; id breaks ties in
        ``submitted_at`` so pages never overlap or skip."""
        q = "SELECT * FROM jobs"
        params: tuple = ()
        if status is not None:
            q += " WHERE status = ?"
            params = (status,)
        q += " ORDER BY submitted_at DESC, id LIMIT ? OFFSET ?"
        with self._autocommit() as conn:
            rows = conn.execute(q, params + (int(limit),
                                             int(offset))).fetchall()
        return [_row_to_record(r) for r in rows]

    def count_jobs(self, status: str | None = None) -> int:
        """Total jobs (for one status, or overall) — pagination totals."""
        q = "SELECT COUNT(*) FROM jobs"
        params: tuple = ()
        if status is not None:
            q += " WHERE status = ?"
            params = (status,)
        with self._autocommit() as conn:
            (n,) = conn.execute(q, params).fetchone()
        return n

    def claim_job(self, job_id: str, lease_seconds: float,
                  *, worker: str = "") -> bool:
        """Atomically flip one ``queued`` job to ``running``, counting
        the attempt and stamping a lease of ``lease_seconds`` plus the
        claiming ``worker``'s name.

        Returns False when the job is gone, already claimed, or parked
        behind its retry backoff (``next_attempt_at`` in the future) —
        any number of worker nodes may race one id, and exactly one must
        win."""
        now = time.time()
        claimed = False
        with self._write() as conn:
            if self._claim(conn, job_id, now, lease_seconds, worker) is None:
                raise _Rollback
            claimed = True
        return claimed

    @staticmethod
    def _claim(conn: sqlite3.Connection, job_id: str, now: float,
               lease_seconds: float, worker: str) -> sqlite3.Row | None:
        """Inside a write transaction: flip ``job_id`` to ``running`` if
        it is still claimable, count the claim against ``worker``, and
        return the post-claim row (``None`` when the job was not
        claimable)."""
        rows = conn.execute(
            "UPDATE jobs SET status='running', started_at=?, "
            "lease_expires_at=?, attempts=attempts+1, claimed_by=? "
            "WHERE id=? AND status='queued' "
            "AND (next_attempt_at IS NULL OR next_attempt_at<=?) "
            "RETURNING *",
            (now, now + lease_seconds, worker or None, job_id,
             now)).fetchall()
        if not rows:
            return None
        if worker:
            conn.execute(
                "INSERT INTO worker_claims (worker, claims) "
                "VALUES (?, 1) ON CONFLICT(worker) "
                "DO UPDATE SET claims=claims+1", (worker,))
        return rows[0]

    def claim_next(self, lease_seconds: float,
                   *, worker: str = "") -> JobRecord | None:
        """Claim the most urgent eligible ``queued`` job — highest
        priority first, FIFO within a priority level — and return its
        post-claim record (attempt counted, lease stamped), or ``None``
        when nothing is currently claimable.

        This is the one-call poll a :class:`WorkerNode` loops on. A read
        probe finds the head of the queue first, so an empty queue costs
        one ``SELECT`` and never takes the write lock. The claim itself
        is one write transaction: a conditional ``UPDATE ... RETURNING``
        hands back the claimed row, and the per-worker claim count is
        bumped in the same commit. When a racing node took the probed
        head first, the transaction claims the head it sees under the
        write lock instead, where the queue cannot move."""
        now = time.time()
        with self._autocommit() as conn:
            head = conn.execute(_HEAD, (now,)).fetchone()
        if head is None:
            return None
        with self._write() as conn:
            row = self._claim(conn, head["id"], now, lease_seconds, worker)
            if row is None:
                head = conn.execute(_HEAD, (now,)).fetchone()
                if head is None:
                    raise _Rollback
                row = self._claim(conn, head["id"], now, lease_seconds,
                                  worker)
        return _row_to_record(row) if row is not None else None

    def claims_by_worker(self) -> dict[str, int]:
        """Cumulative claims per worker node, across every process that
        ever claimed from this store."""
        with self._autocommit() as conn:
            rows = conn.execute(
                "SELECT worker, claims FROM worker_claims").fetchall()
        return {row["worker"]: row["claims"] for row in rows}

    def heartbeat(self, job_id: str, lease_seconds: float) -> bool:
        """Extend a ``running`` job's lease; False when the job is no
        longer running (finished, or reclaimed out from under us)."""
        with self._write() as conn:
            cur = conn.execute(
                "UPDATE jobs SET lease_expires_at=? "
                "WHERE id=? AND status='running'",
                (time.time() + lease_seconds, job_id))
            ok = cur.rowcount == 1
        return ok

    def requeue_job(self, job_id: str, *, error: str = "",
                    delay: float = 0.0) -> bool:
        """Put a ``running`` job back in line after a retryable failure,
        due again ``delay`` seconds from now. The attempt stays counted."""
        with self._write() as conn:
            cur = conn.execute(
                "UPDATE jobs SET status='queued', started_at=NULL, "
                "lease_expires_at=NULL, next_attempt_at=?, error=? "
                "WHERE id=? AND status='running'",
                (time.time() + max(0.0, delay), error, job_id))
            ok = cur.rowcount == 1
        return ok

    def release_lease(self, job_id: str) -> bool:
        """Hand a ``running`` job back untouched — graceful shutdown's
        path for work it cannot finish in its drain grace. Unlike
        :meth:`requeue_job` the attempt is *refunded*: the job was not
        at fault, and an orderly restart must not eat its retry budget."""
        with self._write() as conn:
            cur = conn.execute(
                "UPDATE jobs SET status='queued', started_at=NULL, "
                "lease_expires_at=NULL, next_attempt_at=NULL, "
                "attempts=CASE WHEN attempts>0 THEN attempts-1 ELSE 0 END "
                "WHERE id=? AND status='running'", (job_id,))
            ok = cur.rowcount == 1
        return ok

    def quarantine_job(self, job_id: str, error: str) -> bool:
        """Terminally park a ``running`` job that exhausted its attempts."""
        with self._write() as conn:
            cur = conn.execute(
                "UPDATE jobs SET status='quarantined', error=?, "
                "finished_at=?, lease_expires_at=NULL "
                "WHERE id=? AND status='running'",
                (error, time.time(), job_id))
            ok = cur.rowcount == 1
        return ok

    def reclaim_expired(self, backoff) -> tuple[list[JobRecord],
                                                list[JobRecord]]:
        """Sweep ``running`` jobs whose lease expired (their worker died
        or hung past its heartbeat): requeue those with attempts left —
        due after ``backoff(attempts)`` seconds — and quarantine the
        rest. Returns ``(requeued, quarantined)`` records with their
        post-sweep fields, so the caller can re-index and log them."""
        now = time.time()
        requeued: list[JobRecord] = []
        quarantined: list[JobRecord] = []
        with self._write() as conn:
            rows = conn.execute(
                "SELECT * FROM jobs WHERE status='running' "
                "AND lease_expires_at<=?", (now,)).fetchall()
            for row in rows:
                rec = _row_to_record(row)
                note = (f"lease expired mid-run (attempt "
                        f"{rec.attempts}/{rec.max_attempts})")
                if rec.error:
                    note += f"; last error: {rec.error}"
                if rec.attempts >= rec.max_attempts:
                    conn.execute(
                        "UPDATE jobs SET status='quarantined', error=?, "
                        "finished_at=?, lease_expires_at=NULL WHERE id=?",
                        (note, now, rec.id))
                    quarantined.append(replace(
                        rec, status="quarantined", error=note,
                        finished_at=now, lease_expires_at=None))
                else:
                    due = now + max(0.0, float(backoff(rec.attempts)))
                    conn.execute(
                        "UPDATE jobs SET status='queued', started_at=NULL, "
                        "lease_expires_at=NULL, next_attempt_at=?, error=? "
                        "WHERE id=?", (due, note, rec.id))
                    requeued.append(replace(
                        rec, status="queued", error=note, started_at=None,
                        lease_expires_at=None, next_attempt_at=due))
        return requeued, quarantined

    def finish_job(self, job_id: str, reports: Iterable[SolveReport],
                   *, error: str = "") -> bool:
        """Store a job's reports and flip it to ``done`` (or ``failed``).

        The flip is conditional on the job still being ``running``:
        returns False — storing nothing — when it is not, so a worker
        whose lease was reclaimed mid-run cannot clobber the outcome of
        the retry that superseded it."""
        injection.maybe_raise("store_commit")
        status = "failed" if error else "done"
        finished = False
        with self._write() as conn:
            cur = conn.execute(
                "UPDATE jobs SET status=?, error=?, finished_at=?, "
                "lease_expires_at=NULL WHERE id=? AND status='running'",
                (status, error, time.time(), job_id))
            if cur.rowcount != 1:
                raise _Rollback
            conn.execute("DELETE FROM reports WHERE job_id=?", (job_id,))
            conn.executemany(
                "INSERT INTO reports (job_id, seq, report) VALUES (?, ?, ?)",
                [(job_id, seq, json.dumps(rep.to_dict()))
                 for seq, rep in enumerate(reports)])
            finished = True
        return finished

    def reports_for(self, job_id: str) -> list[SolveReport]:
        with self._autocommit() as conn:
            rows = conn.execute(
                "SELECT report FROM reports WHERE job_id=? ORDER BY seq",
                (job_id,)).fetchall()
        return [SolveReport.from_dict(json.loads(r["report"])) for r in rows]

    def recover_incomplete(self) -> list[JobRecord]:
        """Flip ``running`` leftovers back to ``queued`` — except those
        already out of attempts, which are quarantined — and return every
        job the queue must pick up again, oldest submission first, so a
        restart preserves FIFO order within a priority level. Call once
        at *server* start (never from a worker node joining a live
        fleet — it would clobber its peers' leases): a crash mid-solve
        must not strand work in ``running`` forever. Recovery clears any
        retry backoff: the new process starts with a clean slate."""
        now = time.time()
        with self._write() as conn:
            conn.execute(
                "UPDATE jobs SET status='quarantined', finished_at=?, "
                "lease_expires_at=NULL, "
                "error='process died mid-run with no attempts left "
                "(attempts ' || attempts || '/' || max_attempts || ')' "
                "WHERE status='running' AND attempts>=max_attempts",
                (now,))
            conn.execute(
                "UPDATE jobs SET status='queued', started_at=NULL, "
                "lease_expires_at=NULL, next_attempt_at=NULL "
                "WHERE status='running'")
            conn.execute(
                "UPDATE jobs SET next_attempt_at=NULL "
                "WHERE status='queued'")
        with self._autocommit() as conn:
            rows = conn.execute(
                "SELECT * FROM jobs WHERE status='queued' "
                "ORDER BY submitted_at").fetchall()
        return [_row_to_record(r) for r in rows]

    def counts(self) -> dict[str, int]:
        """Job counts per status (zero-filled for missing statuses)."""
        with self._autocommit() as conn:
            rows = conn.execute(
                "SELECT status, COUNT(*) AS n FROM jobs GROUP BY status"
            ).fetchall()
        out = {s: 0 for s in JOB_STATUSES}
        out.update({r["status"]: r["n"] for r in rows})
        return out

    # ------------------------------------------------------------------ #
    # cross-client result cache
    # ------------------------------------------------------------------ #

    def cache_get(self, key: str) -> SolveReport | None:
        return self.cache.peek(key)

    def cache_put(self, key: str, digest: str, report: SolveReport) -> None:
        self.cache.store(key, digest, report)

    def cached_reports_for_digest(self, digest: str) -> list[SolveReport]:
        """Every cached report for one instance content hash — the store
        doubles as a digest-indexed ReportCache across clients."""
        return self.cache.reports_for_digest(digest)

    def cache_size(self) -> int:
        return self.cache.size()
