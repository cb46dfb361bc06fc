"""The persistent process pool shared by every batch run.

Before this module existed, every ``run_batch`` call built a fresh
``ProcessPoolExecutor`` and tore it down again — each batch paid the full
interpreter spin-up (fork/spawn, module imports) before the first solve
started.  The engine now draws workers from one lazily-created,
process-wide pool that survives across ``run_batch``/``Session`` calls:
the first parallel batch warms it up, every later batch reuses the warm
workers.

Properties:

* **Lazy** — nothing is spawned until the first parallel batch asks.
* **Grow-by-default sizing** — the pool is replaced when a caller asks
  for more workers than the current pool offers; asking for fewer just
  reuses the bigger pool (idle workers cost almost nothing, respawning
  costs a lot), unless the caller passes ``shrink=True`` to release an
  explicitly unwanted width. Callers enforce their own ``workers`` cap
  by bounding how many tasks they submit — a batch ships at most
  ``workers`` chunks — and the pool's width is a ceiling, not a promise.
* **Swap-safe submission** — :func:`submit_task` resolves the live pool
  and submits *under the pool lock*, so a concurrent grow/replace can
  never invalidate a handle between resolution and submission.  A
  retiring pool is drained, not cancelled: futures already submitted to
  it complete normally.
* **Self-healing** — a broken pool (a worker died mid-task) is detected
  and replaced on the next use.
* **Explicit shutdown** — :func:`shutdown_pool` for the service drainers
  and the CLI; graceful by default (pending work drains in the
  background), cancellation is opt-in and used by the ``atexit`` hook so
  a runaway task cannot hang interpreter exit.  After a shutdown the
  next use transparently builds a fresh pool.
"""

from __future__ import annotations

import atexit
import threading
from concurrent.futures import Future, ProcessPoolExecutor

from ..obs.metrics import REGISTRY

__all__ = ["get_pool", "submit_task", "pool_id", "pool_max_workers",
           "rebuild_pool", "shutdown_pool", "batch_begin", "batch_end",
           "active_batches"]

_lock = threading.Lock()
_pool: ProcessPoolExecutor | None = None
_pool_workers: int = 0
_active_batches: int = 0

_POOL_WIDTH = REGISTRY.gauge(
    "repro_pool_width", "Max workers of the live shared process pool "
    "(0 when not running).")
_POOL_TASKS = REGISTRY.counter(
    "repro_pool_tasks_total", "Chunks submitted to the shared process "
    "pool.")
_POOL_BATCHES = REGISTRY.gauge(
    "repro_pool_batches_active", "Pooled batches currently in flight.")
_POOL_REBUILDS = REGISTRY.counter(
    "repro_pool_rebuilds_total",
    "Shared-pool rebuilds after a worker death (BrokenProcessPool).")


def _broken(pool: ProcessPoolExecutor) -> bool:
    # _broken is set when a worker dies abruptly; treat a pool we cannot
    # introspect as usable and let submit() surface any real failure
    return bool(getattr(pool, "_broken", False))


def _ensure(workers: int, shrink: bool = False) -> ProcessPoolExecutor:
    """The live pool, (re)created/resized as needed. Caller holds
    ``_lock``. Width only ever grows unless ``shrink`` is set."""
    global _pool, _pool_workers
    if _pool is not None and _broken(_pool):
        _pool.shutdown(wait=False, cancel_futures=True)
        _pool = None
    elif _pool is not None and (_pool_workers < workers
                                or (shrink and _pool_workers > workers)):
        # resizing: retire the old pool *gracefully* — other threads may
        # hold futures on it, so already-submitted work must drain
        # (shutdown without cancel_futures finishes queued items in the
        # background and the old pool reaps itself)
        _pool.shutdown(wait=False)
        _pool = None
    if _pool is None:
        _pool = ProcessPoolExecutor(max_workers=workers)
        _pool_workers = workers
    _POOL_WIDTH.set(_pool_workers)
    return _pool


def get_pool(workers: int, *, shrink: bool = False) -> ProcessPoolExecutor:
    """The shared executor, created/resized on demand.

    ``workers`` is the width the caller wants *available*; the returned
    pool has ``max_workers >= workers``. By default a smaller ask reuses
    a wider pool (idle workers cost almost nothing, respawning costs a
    lot); ``shrink=True`` instead rebuilds the pool at exactly
    ``workers`` when it is currently wider — ``run_batch`` uses it on an
    *explicit* ``workers=`` downsize, so a one-off wide batch cannot pin
    the pool's width (and its resident worker processes) forever. The
    retiring pool drains gracefully either way. Prefer
    :func:`submit_task` for submission — a handle returned here can be
    retired by a concurrent caller's resize, after which its ``submit``
    raises ``RuntimeError``.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    with _lock:
        return _ensure(workers, shrink)


def submit_task(workers: int, fn, /, *args, **kwargs) -> Future:
    """Submit ``fn(*args, **kwargs)`` to the shared pool, atomically.

    Pool resolution and submission happen under one lock, so a
    concurrent grow/replace cannot invalidate the pool in between — the
    race a bare ``get_pool().submit()`` is exposed to.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    _POOL_TASKS.inc()
    with _lock:
        return _ensure(workers).submit(fn, *args, **kwargs)


def rebuild_pool(workers: int) -> None:
    """Replace a broken pool after a ``BrokenProcessPool``, at width
    ``workers``. A no-op when the live pool is healthy: with several
    batches in flight, every one of them sees the same
    ``BrokenProcessPool`` and calls in — only the first may cancel and
    rebuild, or it would cancel the fresh futures a sibling already
    resubmitted (and a ``CancelledError`` escaping ``fut.result()``
    kills the sibling's drainer thread)."""
    global _pool
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    with _lock:
        if _pool is not None and not _broken(_pool):
            return
        if _pool is not None:
            _pool.shutdown(wait=False, cancel_futures=True)
            _pool = None
        _ensure(workers)
        _POOL_REBUILDS.inc()


def batch_begin() -> None:
    """Mark a pooled batch as in flight (see :func:`active_batches`)."""
    global _active_batches
    with _lock:
        _active_batches += 1
        _POOL_BATCHES.set(_active_batches)


def batch_end() -> None:
    """Mark one pooled batch as finished."""
    global _active_batches
    with _lock:
        _active_batches -= 1
        _POOL_BATCHES.set(_active_batches)


def active_batches() -> int:
    """Number of pooled batches currently in flight.

    Replacing the executor forks new workers; doing that while a sibling
    batch's threads are mid-submission is the classic fork-with-held-locks
    hazard (the child can inherit a locked queue lock and deadlock).
    ``run_batch`` therefore shrinks the pool only when it is the *sole*
    active batch — growth for correctness still happens regardless, as a
    too-narrow pool could not run the batch at all.
    """
    with _lock:
        return _active_batches


def pool_id() -> int | None:
    """Identity of the live shared pool (``None`` when not running).

    Exposed so tests — and curious operators — can assert that two batch
    calls really did reuse one warm pool.
    """
    with _lock:
        return None if _pool is None else id(_pool)


def pool_max_workers() -> int:
    """Max workers of the live shared pool (0 when not running)."""
    with _lock:
        return _pool_workers if _pool is not None else 0


def shutdown_pool(wait: bool = True, *, cancel_futures: bool = False) -> None:
    """Tear the shared pool down (idempotent).

    Graceful by default: work already submitted — possibly by *other*
    components of the process — drains before the workers exit, so a
    service shutting down cannot kill an unrelated batch mid-flight.
    ``cancel_futures=True`` abandons pending work instead (interpreter
    exit uses this). The next use lazily builds a fresh pool either way.
    """
    global _pool, _pool_workers
    with _lock:
        pool, _pool, _pool_workers = _pool, None, 0
    _POOL_WIDTH.set(0)
    if pool is not None:
        pool.shutdown(wait=wait, cancel_futures=cancel_futures)


atexit.register(shutdown_pool, wait=False, cancel_futures=True)
