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
* **:class:`ShardedReportCache`** — the service's persistent cache,
  now split over N shards (one SQLite file or in-memory segment each)
  chosen by consistent hashing over the report key, so cache writes
  stop contending on the job table's lock and on each other.

Every cache speaks the same protocol ``run_batch`` expects — ``get`` /
``put`` / ``__len__`` / ``hits`` / ``misses`` / ``hit_rate`` — and every
hit/miss lands in the same labelled process-wide counters, so
``/v1/healthz`` and ``/v1/metrics`` read one set of numbers no matter
which layer answered.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import os
import sqlite3
import threading
import time
from collections import OrderedDict
from dataclasses import replace
from pathlib import Path
from typing import Any, Iterable, Mapping

from .core.instance import Instance
from .engine.report import SolveReport
from .obs.metrics import REGISTRY
from .obs.trace import current_trace_id

__all__ = ["ReportCache", "ShardedReportCache", "HashRing",
           "MemoryCacheShard", "SqliteCacheShard",
           "cache_key", "is_cacheable", "relabel_hit",
           "CACHEABLE_STATUSES", "CACHE_KEY_VERSION",
           "DEFAULT_MAX_ENTRIES", "DEFAULT_CACHE_SHARDS",
           "CACHE_HITS", "CACHE_MISSES", "CACHE_SHARD_OPS"]

#: Default in-memory bound: large enough for any one experiment sweep,
#: small enough that a service holding ~1-2 KiB reports stays in the MBs.
DEFAULT_MAX_ENTRIES = 4096

#: Default shard fan-out of the service's persistent result cache.
DEFAULT_CACHE_SHARDS = 4


#: Bump whenever the *meaning* of a cached report changes for an
#: unchanged (instance, algorithm, kwargs) triple, so persistent caches
#: (the service's SQLite shards, on-disk ReportCache dirs) never serve
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
#: engine's in-memory/disk ReportCache or the service's sharded store.
CACHE_HITS = REGISTRY.counter(
    "repro_cache_hits_total", "Report-cache lookups served from cache.",
    labelnames=("cache",))
CACHE_MISSES = REGISTRY.counter(
    "repro_cache_misses_total", "Report-cache lookups that missed.",
    labelnames=("cache",))

#: Per-shard traffic of a ShardedReportCache, by operation (hit / miss /
#: put) — the readout that shows whether consistent hashing is actually
#: spreading load.
CACHE_SHARD_OPS = REGISTRY.counter(
    "repro_cache_shard_ops_total",
    "Sharded report-cache operations, by cache label, shard and op.",
    labelnames=("cache", "shard", "op"))

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
                try:
                    rep = SolveReport.from_dict(json.loads(path.read_text()))
                except (ValueError, TypeError, json.JSONDecodeError):
                    rep = None      # corrupt entry: treat as a miss
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


# --------------------------------------------------------------------- #
# sharding
# --------------------------------------------------------------------- #


class HashRing:
    """Consistent hashing over ``shard_count`` shards.

    Each shard owns ``replicas`` points on a 64-bit ring (sha256 of a
    stable ``shard-{i}:{r}`` label); a key lands on the first point at or
    after its own hash. Virtual nodes keep the key distribution even,
    and growing/shrinking the shard count moves only the keys whose arc
    changed owner — persistent shard files keep most of their entries
    across a resize instead of going cold all at once.
    """

    def __init__(self, shard_count: int, replicas: int = 64) -> None:
        if shard_count < 1:
            raise ValueError(
                f"shard_count must be >= 1, got {shard_count}")
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        self.shard_count = shard_count
        points: list[tuple[int, int]] = []
        for shard in range(shard_count):
            for r in range(replicas):
                points.append((self._hash(f"shard-{shard}:{r}"), shard))
        points.sort()
        self._points = points
        self._hashes = [h for h, _ in points]

    @staticmethod
    def _hash(value: str) -> int:
        digest = hashlib.sha256(value.encode()).digest()
        return int.from_bytes(digest[:8], "big")

    def shard_for(self, key: str) -> int:
        """The shard index owning ``key`` (deterministic)."""
        i = bisect.bisect_right(self._hashes, self._hash(key))
        return self._points[i % len(self._points)][1]


class MemoryCacheShard:
    """One in-memory segment of a :class:`ShardedReportCache`."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._rows: dict[str, tuple[str, SolveReport, float]] = {}
        self._stamp = 0.0

    def get(self, key: str) -> SolveReport | None:
        with self._lock:
            row = self._rows.get(key)
        return row[1] if row is not None else None

    def put(self, key: str, digest: str, report: SolveReport) -> None:
        with self._lock:
            # wall-clock stamps (monotonically bumped within a tick) keep
            # insertion order comparable ACROSS shards, so the merged
            # digest view lists reports in true arrival order
            self._stamp = max(self._stamp + 1e-6, time.time())
            self._rows[key] = (digest, report, self._stamp)

    def reports_for_digest(self, digest: str) -> list[tuple[float,
                                                            SolveReport]]:
        with self._lock:
            return [(stamp, rep) for d, rep, stamp in self._rows.values()
                    if d == digest]

    def size(self) -> int:
        with self._lock:
            return len(self._rows)

    def close(self) -> None:
        pass


_SHARD_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    key             TEXT PRIMARY KEY,
    instance_digest TEXT NOT NULL,
    report          TEXT NOT NULL,
    stored_at       REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_results_digest ON results(instance_digest);
"""


class SqliteCacheShard:
    """One SQLite file holding a slice of the sharded result cache.

    The schema is the pre-shard ``results`` table verbatim, so migrating
    a monolithic store is a straight row copy. Each shard serialises its
    own writers behind a private lock — the point of sharding is that
    those locks are *independent*: writers on different shards (and on
    the job table) never contend.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = str(path)
        self._lock = threading.Lock()
        self._counter = 0.0
        self._conn = sqlite3.connect(self.path, check_same_thread=False)
        self._conn.row_factory = sqlite3.Row
        with self._lock:
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            self._conn.execute("PRAGMA busy_timeout=5000")
            self._conn.executescript(_SHARD_SCHEMA)
            self._conn.commit()

    def get(self, key: str) -> SolveReport | None:
        with self._lock:
            row = self._conn.execute(
                "SELECT report FROM results WHERE key=?", (key,)).fetchone()
        if row is None:
            return None
        try:
            return SolveReport.from_dict(json.loads(row["report"]))
        except (ValueError, TypeError, json.JSONDecodeError):
            return None     # corrupt entry: treat as a miss

    def put(self, key: str, digest: str, report: SolveReport) -> None:
        with self._lock:
            # a monotonically-bumped stamp keeps insertion order stable
            # even when several puts land within one clock tick
            self._counter = max(self._counter + 1e-6, time.time())
            self._conn.execute(
                "INSERT OR REPLACE INTO results "
                "(key, instance_digest, report, stored_at) VALUES (?,?,?,?)",
                (key, digest, json.dumps(report.to_dict()), self._counter))
            self._conn.commit()

    def reports_for_digest(self, digest: str) -> list[tuple[float,
                                                            SolveReport]]:
        with self._lock:
            rows = self._conn.execute(
                "SELECT stored_at, report FROM results "
                "WHERE instance_digest=?", (digest,)).fetchall()
        out = []
        for row in rows:
            try:
                out.append((row["stored_at"],
                            SolveReport.from_dict(json.loads(row["report"]))))
            except (ValueError, TypeError, json.JSONDecodeError):
                continue
        return out

    def size(self) -> int:
        with self._lock:
            (n,) = self._conn.execute(
                "SELECT COUNT(*) FROM results").fetchone()
        return n

    def close(self) -> None:
        with self._lock:
            self._conn.close()


class ShardedReportCache:
    """Digest-indexed persistent report cache split over N shards.

    Speaks both dialects of the cache seam:

    * the counting engine protocol ``run_batch(cache=...)`` expects —
      :meth:`get` / :meth:`put` / ``len()`` / ``hits`` / ``misses`` /
      ``hit_rate`` (mirrored into the process-wide ``repro_cache_*``
      counters under this cache's ``label``);
    * the raw store seam — :meth:`peek` / :meth:`store` /
      :meth:`reports_for_digest` / :meth:`size` — used by
      ``JobStore.cache_get`` / ``cache_put`` and the ``/v1/results``
      endpoint, which must not inflate the hit/miss statistics.

    ``shards`` is a list of :class:`MemoryCacheShard` /
    :class:`SqliteCacheShard` (anything with the same five methods);
    keys are routed by a :class:`HashRing` over ``len(shards)``.
    """

    def __init__(self, shards: Iterable[MemoryCacheShard | SqliteCacheShard],
                 *, label: str = "service") -> None:
        self.shards = list(shards)
        if not self.shards:
            raise ValueError("a sharded cache needs at least one shard")
        self.label = label
        self._ring = HashRing(len(self.shards))
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    # -- routing ------------------------------------------------------- #

    def shard_for(self, key: str) -> int:
        return self._ring.shard_for(key)

    def _shard(self, key: str):
        return self.shards[self._ring.shard_for(key)]

    # -- raw store seam (never counts hits/misses) --------------------- #

    def peek(self, key: str) -> SolveReport | None:
        return self._shard(key).get(key)

    def store(self, key: str, digest: str, report: SolveReport) -> None:
        shard = self._ring.shard_for(key)
        self.shards[shard].put(key, digest, report)
        CACHE_SHARD_OPS.inc(cache=self.label, shard=str(shard), op="put")

    def reports_for_digest(self, digest: str) -> list[SolveReport]:
        """Every cached report for one instance content hash, merged
        across shards in insertion order."""
        merged: list[tuple[float, SolveReport]] = []
        for shard in self.shards:
            merged.extend(shard.reports_for_digest(digest))
        merged.sort(key=lambda pair: pair[0])
        return [rep for _, rep in merged]

    def size(self) -> int:
        return sum(shard.size() for shard in self.shards)

    # -- counting engine protocol -------------------------------------- #

    def __len__(self) -> int:
        return self.size()

    @property
    def hit_rate(self) -> float:
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0

    def get(self, key: str) -> SolveReport | None:
        shard = self._ring.shard_for(key)
        rep = self.shards[shard].get(key)
        with self._lock:
            if rep is None:
                self.misses += 1
            else:
                self.hits += 1
        if rep is None:
            CACHE_MISSES.inc(cache=self.label)
            CACHE_SHARD_OPS.inc(cache=self.label, shard=str(shard),
                                op="miss")
        else:
            CACHE_HITS.inc(cache=self.label)
            CACHE_SHARD_OPS.inc(cache=self.label, shard=str(shard), op="hit")
        return rep

    def put(self, key: str, report: SolveReport) -> None:
        self.store(key, report.instance_digest, report)

    def close(self) -> None:
        for shard in self.shards:
            shard.close()
