"""The one result-cache module every consumer shares.

Three layers used to live in three places — the engine's in-memory/disk
:class:`ReportCache`, the service's persistent ``results`` table
(bottom of ``service/store.py``), and ad-hoc key helpers scattered
between them. They are unified here:

* **Keys and policy** — :func:`cache_key`, :func:`is_cacheable`,
  :func:`relabel_hit` and :data:`CACHE_KEY_VERSION` define *what* may be
  cached and under which identity, for every cache in the package.
* **:class:`ReportCache`** — the bounded LRU (plus optional spill
  directory) the engine hands to ``run_batch(cache=...)``.
* **:class:`ServiceCache`** — the service's persistent cache, one
  SQLite database beside the job store.

Every cache speaks the protocol ``run_batch`` expects — ``get`` /
``put`` / ``__len__`` — and every hit/miss lands in the same labelled
process-wide counters, so ``/v1/healthz`` and ``/v1/metrics`` read one
set of numbers no matter which layer answered.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import threading
from collections import OrderedDict
from dataclasses import replace
from pathlib import Path
from typing import Any, Mapping

from .core.instance import Instance
from .engine.report import SolveReport
from .obs.metrics import REGISTRY
from .obs.trace import current_trace_id

__all__ = ["ReportCache", "ServiceCache",
           "cache_key", "is_cacheable", "relabel_hit",
           "CACHEABLE_STATUSES", "CACHE_KEY_VERSION",
           "DEFAULT_MAX_ENTRIES", "CACHE_HITS", "CACHE_MISSES"]

#: Default in-memory bound: large enough for any one experiment sweep,
#: small enough that a service holding ~1-2 KiB reports stays in the MBs.
DEFAULT_MAX_ENTRIES = 4096


#: Bump whenever the *meaning* of a cached report changes for an
#: unchanged (instance, algorithm, kwargs) triple, so persistent caches
#: (the service's SQLite cache, on-disk ReportCache dirs) never serve
#: stale semantics across an upgrade. v2: the status taxonomy split
#: ``unsupported`` out of ``infeasible`` (mcnaughton / capacity caps).
CACHE_KEY_VERSION = "report-v2"


def cache_key(inst: Instance, algorithm: str,
              kwargs: Mapping[str, Any] | None = None) -> str:
    """Deterministic key for (instance, algorithm, kwargs)."""
    payload = json.dumps(
        {"v": CACHE_KEY_VERSION,
         "instance": inst.digest(), "algorithm": algorithm,
         "kwargs": {k: repr(v) for k, v in sorted((kwargs or {}).items())}},
        sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


#: Cache hit/miss counters, labelled by which cache answered: the
#: engine's in-memory/disk ReportCache or the service's ServiceCache.
CACHE_HITS = REGISTRY.counter(
    "repro_cache_hits_total", "Report-cache lookups served from cache.",
    labelnames=("cache",))
CACHE_MISSES = REGISTRY.counter(
    "repro_cache_misses_total", "Report-cache lookups that missed.",
    labelnames=("cache",))

#: Outcomes worth remembering; timeouts and crashes are retried instead.
CACHEABLE_STATUSES = ("ok", "infeasible", "unsupported")


def is_cacheable(report: SolveReport) -> bool:
    """Whether a report may enter a result cache — one rule for every
    consumer (``run_batch``, the api backends, the service)."""
    return report.status in CACHEABLE_STATUSES


def relabel_hit(report: SolveReport, label: str) -> SolveReport:
    """A cached/duplicate report re-issued for a new batch cell: marked
    cached, relabelled to the requesting cell, zero solver time. When
    the caller runs under a trace context, the re-issued report is
    re-stamped with *that* trace — a cache hit belongs to the request
    that received it, not the one that originally solved it."""
    tid = current_trace_id()
    extra = report.extra
    if tid is not None and extra.get("trace_id") != tid:
        extra = {**extra, "trace_id": tid}
    return replace(report, cached=True, instance_label=label,
                   wall_time_s=0.0, extra=extra)


def _decode(text: str) -> SolveReport | None:
    try:
        return SolveReport.from_dict(json.loads(text))
    except (ValueError, TypeError, json.JSONDecodeError):
        return None     # corrupt entry: treat as a miss


class ReportCache:
    """Bounded, thread-safe store of :class:`SolveReport`.

    ``max_entries`` caps the in-memory dict only (least-recently-*used*
    entry evicted first); ``None`` disables the bound for short-lived
    batch runs that want every report resident.
    """

    def __init__(self, directory: str | os.PathLike | None = None,
                 max_entries: int | None = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self._mem: OrderedDict[str, SolveReport] = OrderedDict()
        self._lock = threading.Lock()
        self.max_entries = max_entries
        self._dir: Path | None = None
        if directory is not None:
            self._dir = Path(directory)
            self._dir.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._mem)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def _path(self, key: str) -> Path:
        assert self._dir is not None
        return self._dir / f"{key}.json"

    def get(self, key: str) -> SolveReport | None:
        with self._lock:
            rep = self._mem.get(key)
            if rep is not None:
                self._mem.move_to_end(key)
                self.hits += 1
        if rep is not None:
            CACHE_HITS.inc(cache="engine")
            return rep
        # Disk probe outside the lock: file IO must not serialise every
        # thread, and a racing double-read just loads the same JSON twice.
        if self._dir is not None:
            path = self._path(key)
            if path.exists():
                rep = _decode(path.read_text())
        with self._lock:
            if rep is None:
                self.misses += 1
            else:
                self._store(key, rep)
                self.hits += 1
        if rep is None:
            CACHE_MISSES.inc(cache="engine")
        else:
            CACHE_HITS.inc(cache="engine")
        return rep

    def _store(self, key: str, report: SolveReport) -> None:
        # caller holds self._lock
        self._mem[key] = report
        self._mem.move_to_end(key)
        if self.max_entries is not None:
            while len(self._mem) > self.max_entries:
                self._mem.popitem(last=False)

    def put(self, key: str, report: SolveReport) -> None:
        with self._lock:
            self._store(key, report)
        if self._dir is not None:
            path = self._path(key)
            # per-writer tmp name: concurrent threads/processes storing the
            # same key must not interleave writes before the atomic rename
            tmp = path.with_suffix(
                f".{os.getpid()}.{threading.get_ident()}.tmp")
            tmp.write_text(json.dumps(report.to_dict(), indent=2))
            os.replace(tmp, path)


_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    key             TEXT PRIMARY KEY,
    instance_digest TEXT NOT NULL,
    report          TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_results_digest ON results(instance_digest);
"""


class ServiceCache:
    """The service's digest-indexed, persistent report cache: one SQLite
    database, ``<db>.cache`` beside a file-backed job store, or
    ``:memory:``.

    Speaks both dialects of the cache seam:

    * the engine protocol ``run_batch(cache=...)`` expects —
      :meth:`get` / :meth:`put` / ``len()`` — whose lookups count in the
      process-wide ``repro_cache_*`` counters under ``cache="service"``;
    * the raw store seam — :meth:`peek` / :meth:`store` /
      :meth:`reports_for_digest` / :meth:`size` — behind
      ``cache_get`` / ``cache_put`` and the ``/v1/results`` endpoint,
      which must not inflate the hit/miss statistics.

    One connection serves every thread behind a lock; a file-backed
    cache runs in WAL mode, so the processes of a fleet can share it.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = str(path)
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(self.path, check_same_thread=False)
        if self.path != ":memory:":
            self._conn.execute("PRAGMA busy_timeout=5000")
            self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.executescript(_SCHEMA)

    # -- raw store seam (never counts hits/misses) --------------------- #

    def peek(self, key: str) -> SolveReport | None:
        with self._lock:
            row = self._conn.execute(
                "SELECT report FROM results WHERE key=?", (key,)).fetchone()
        return _decode(row[0]) if row is not None else None

    def store(self, key: str, digest: str, report: SolveReport) -> None:
        # REPLACE deletes the old row, so an overwritten key moves to the
        # end of the rowid order the digest view reads
        with self._lock:
            self._conn.execute(
                "INSERT OR REPLACE INTO results "
                "(key, instance_digest, report) VALUES (?, ?, ?)",
                (key, digest, json.dumps(report.to_dict())))
            self._conn.commit()

    def reports_for_digest(self, digest: str) -> list[SolveReport]:
        """Every cached report for one instance content hash, in
        insertion order (corrupt rows skipped)."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT report FROM results WHERE instance_digest=? "
                "ORDER BY rowid", (digest,)).fetchall()
        reports = (_decode(text) for (text,) in rows)
        return [rep for rep in reports if rep is not None]

    def size(self) -> int:
        with self._lock:
            (n,) = self._conn.execute(
                "SELECT COUNT(*) FROM results").fetchone()
        return n

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    # -- counting engine protocol -------------------------------------- #

    def __len__(self) -> int:
        return self.size()

    def get(self, key: str) -> SolveReport | None:
        rep = self.peek(key)
        if rep is None:
            CACHE_MISSES.inc(cache="service")
        else:
            CACHE_HITS.inc(cache="service")
        return rep

    def put(self, key: str, report: SolveReport) -> None:
        self.store(key, report.instance_digest, report)

