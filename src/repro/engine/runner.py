"""Batch execution: many instances x many algorithms, in parallel.

:func:`run_batch` is the one run-loop in the repository — the CLI
``batch``/``compare`` subcommands, the scheduling service, the benchmark
harness and the analysis layer all call it instead of hand-rolling
instance/algorithm loops. It

* resolves algorithms through :mod:`repro.registry`,
* fans tasks out over the engine's *persistent* process pool
  (:mod:`repro.engine.pool` — warm workers survive across batches;
  ``workers=0`` runs inline, which the benchmarks use to keep timings
  honest), in pickled chunks of cells grouped by instance, so each
  distinct instance crosses to a worker once per chunk instead of once
  per cell. A batch ships one chunk per worker it may use, packed by
  instance size and all submitted at once, so no worker waits on a round
  trip for its next chunk; a worker solves each cell of its chunk with
  :func:`execute`,
* enforces a per-run wall-clock timeout — ``SIGALRM`` where available
  (POSIX main threads, i.e. the pool workers), a watchdog-thread fallback
  everywhere else (Windows, service queue drainers),
* validates every schedule with :mod:`repro.core.validation` before
  trusting its makespan,
* consults/fills an optional :class:`~repro.resultcache.ReportCache`
  keyed by instance content hash, and
* solves each distinct (instance, algorithm, kwargs) cell once per batch,
  even when the grid repeats it.

All of that happens in one generator, :func:`iter_batch`, which yields
each cell's report as soon as it is known. :func:`run_batch` puts its
output in grid order; ``Session.stream`` passes it on as it comes.

Every run — success, timeout, infeasibility or crash — yields exactly one
:class:`~repro.engine.report.SolveReport`; a batch never raises because a
single cell failed (unknown solver names, a caller bug, still do).
"""

from __future__ import annotations

import ctypes
import heapq
import os
import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from fractions import Fraction
from operator import itemgetter
from typing import (Any, Callable, Iterable, Iterator, Mapping,
                    Sequence)

from ..core.deadline import DeadlineExceeded, deadline
from ..core.errors import (CapacityExceededError, InfeasibleInstanceError,
                           InfeasibleScheduleError, InvalidInstanceError,
                           UnsupportedInstanceError)
from ..core.fastmath import fast_paths_enabled
from ..core.instance import Instance
from ..core.validation import validate
from ..faults import injection
from ..obs.metrics import REGISTRY
from ..obs.trace import current_trace_id, trace_context
from ..registry import get_solver
from ..resultcache import (ReportCache, cache_key, is_cacheable,
                           relabel_hit)
from .pool import (active_batches, batch_begin, batch_end, get_pool,
                   pool_max_workers, rebuild_pool, submit_task)
from .report import SolveReport

__all__ = ["run_batch", "iter_batch", "execute", "DEFAULT_WORKERS"]

#: Default process fan-out; small enough not to oversubscribe CI boxes.
DEFAULT_WORKERS = min(4, os.cpu_count() or 1)

#: Per-solver latency, labelled by algorithm and outcome. Stamped where
#: the report is *built* (inline runs) and again where pooled chunks are
#: collected — worker processes have their own invisible registry, so
#: the parent observes pooled cells from the returned reports.
SOLVE_SECONDS = REGISTRY.histogram(
    "repro_solve_seconds", "Wall time of individual solver runs.",
    labelnames=("algorithm", "status"))
_BATCH_CELLS = REGISTRY.counter(
    "repro_batch_cells_total", "Batch cells by how they were satisfied: "
    "solved fresh, served from cache, or deduplicated within the batch.",
    labelnames=("outcome",))
_CHUNK_CELLS = REGISTRY.histogram(
    "repro_batch_chunk_cells", "Cells per chunk shipped to the pool.",
    buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256))


@contextmanager
def _maybe_trace(trace_id: str | None):
    """Install a *shipped* trace ID (worker side); no-op when the
    submitting batch ran without one — unlike ``trace_context()``,
    nothing is generated here."""
    if trace_id is None:
        yield
        return
    with trace_context(trace_id):
        yield


def _alarm_usable() -> bool:
    return hasattr(signal, "SIGALRM") and \
        threading.current_thread() is threading.main_thread()


@contextmanager
def _alarm(seconds: float | None):
    """Raise :class:`DeadlineExceeded` after ``seconds`` of wall time.

    Uses ``SIGALRM``, so it only arms on POSIX main threads — which covers
    the pool workers: they run solver code on their main thread.
    """
    if not seconds or not _alarm_usable():
        yield
        return

    def _handle(signum, frame):
        raise DeadlineExceeded()

    old = signal.signal(signal.SIGALRM, _handle)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def _call_with_timeout(fn: Callable[[], Any], seconds: float | None) -> Any:
    """Run ``fn()``, raising :class:`DeadlineExceeded` after ``seconds``.

    On a POSIX main thread this is the cheap ``SIGALRM`` path. Anywhere
    signals cannot arm — Windows, and crucially the service's queue
    drainer threads running inline solves — the call moves to a daemon
    worker thread that is joined with a deadline. On expiry the caller
    gets a real timeout report immediately; the runaway solve is then
    asked to die via ``PyThreadState_SetAsyncExc`` (best effort — pure
    Python solver loops honour it at the next bytecode boundary, a solve
    stuck inside a C extension finishes its call first and the exception
    lands on return). Either way ``fn`` runs under
    :func:`~repro.core.deadline.deadline`, so a HiGHS call inside it stops
    at the budget too.
    """
    if not seconds:
        return fn()

    def timed() -> Any:
        # set on the thread that runs fn: a fresh thread does not
        # inherit context variables
        with deadline(seconds):
            return fn()

    if _alarm_usable():
        with _alarm(seconds):
            return timed()

    outcome: dict[str, Any] = {}
    done = threading.Event()

    def _target() -> None:
        try:
            outcome["value"] = timed()
        except BaseException as exc:    # noqa: BLE001 — re-raised below
            outcome["error"] = exc
        finally:
            done.set()

    worker = threading.Thread(target=_target, daemon=True,
                              name="repro-solve-timeout")
    worker.start()
    if not done.wait(seconds):
        if worker.ident is not None:
            ctypes.pythonapi.PyThreadState_SetAsyncExc(
                ctypes.c_ulong(worker.ident),
                ctypes.py_object(DeadlineExceeded))
        raise DeadlineExceeded()
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


def _ratio(makespan, guess) -> float | None:
    try:
        if makespan is None or guess is None or Fraction(guess) <= 0:
            return None
        return float(Fraction(makespan) / Fraction(guess))
    except (TypeError, ValueError):
        return None


def _base_fields(spec, inst: Instance, label: str) -> dict:
    """The identifying fields every report of one cell shares."""
    return dict(algorithm=spec.name, instance_digest=inst.digest(),
                instance_label=label, variant=spec.variant,
                proven_ratio=spec.ratio_label)


def _trace_extra(base_extra: Mapping[str, Any] | None = None) -> dict:
    """A report's ``extra`` mapping, stamped with the ambient trace ID
    when one is set. With no trace context active (library use, golden
    tests, corpus replay) the reports stay byte-identical to
    pre-observability output."""
    extra = dict(base_extra) if base_extra else {}
    tid = current_trace_id()
    if tid is not None:
        extra["trace_id"] = tid
    return extra


def _failure_report(exc: BaseException, base: dict, elapsed: float,
                    timeout: float | None) -> SolveReport:
    """Map a solve/validate exception to its report — the single failure
    taxonomy of :func:`execute`. Non-solver ``BaseException``s
    (``KeyboardInterrupt``...) propagate."""
    if isinstance(exc, DeadlineExceeded):
        status, error = "timeout", f"exceeded {timeout:g}s"
    elif isinstance(exc, (UnsupportedInstanceError, CapacityExceededError)):
        # the instance is fine; this solver just cannot take it — batch
        # runs skip the cell instead of mislabeling the instance
        status, error = "unsupported", str(exc)
    elif isinstance(exc, (InfeasibleInstanceError, InfeasibleScheduleError,
                          InvalidInstanceError)):
        status, error = "infeasible", str(exc)
    elif isinstance(exc, Exception):    # one cell, one report
        status, error = "error", f"{type(exc).__name__}: {exc}"
    else:
        raise exc
    SOLVE_SECONDS.observe(elapsed, algorithm=base["algorithm"],
                          status=status)
    return SolveReport(status=status, wall_time_s=elapsed, error=error,
                       extra=_trace_extra(), **base)


def _ok_report(raw, makespan, validated: bool, base: dict, elapsed: float,
               keep_schedule: bool = False) -> SolveReport:
    """Assemble the success report of :func:`execute`."""
    extra = _trace_extra(raw.extra)
    if keep_schedule and raw.schedule is not None:
        from ..io import schedule_to_dict
        try:
            extra["schedule"] = schedule_to_dict(raw.schedule)
        except TypeError:
            pass    # compact schedules have no portable JSON form
    SOLVE_SECONDS.observe(elapsed, algorithm=base["algorithm"], status="ok")
    return SolveReport(status="ok", makespan=makespan, guess=raw.guess,
                       certified_ratio=_ratio(makespan, raw.guess),
                       wall_time_s=elapsed, validated=validated,
                       extra=extra, **base)


def execute(inst: Instance, algorithm: str,
            kwargs: Mapping[str, Any] | None = None, *,
            label: str = "", timeout: float | None = None,
            keep_schedule: bool = False) -> SolveReport:
    """Run one algorithm on one instance; never raises for solver failures.

    ``keep_schedule=True`` attaches the validated schedule to the report
    as ``extra["schedule"]`` (the :mod:`repro.io` JSON encoding), so the
    report stays picklable and JSON-safe; value-only solvers and
    representation-specific compact schedules simply omit it.
    """
    spec = get_solver(algorithm)        # unknown names fail loudly, pre-run
    kwargs = dict(kwargs or {})
    base = _base_fields(spec, inst, label)
    t0 = time.perf_counter()

    def elapsed() -> float:
        return time.perf_counter() - t0

    def _solve_and_validate():
        # inside the timed region on purpose: with a small timeout the
        # injected delay exercises the timeout machinery end to end
        delay = injection.should_fire("solve_delay")
        if delay is not None:
            time.sleep(delay.arg if delay.arg is not None else 0.05)
        raw = spec.solve(inst, **kwargs)
        if raw.schedule is not None:
            return raw, validate(inst, raw.schedule), True
        return raw, raw.makespan, False

    try:
        raw, makespan, validated = _call_with_timeout(_solve_and_validate,
                                                      timeout)
    except BaseException as exc:        # noqa: BLE001 — mapped to a report
        return _failure_report(exc, base, elapsed(), timeout)
    return _ok_report(raw, makespan, validated, base, elapsed(),
                      keep_schedule)


def _execute_chunk(groups: list[tuple[Instance, list[tuple]]],
                   fast_paths: bool = True,
                   trace_id: str | None = None
                   ) -> list[tuple[int, SolveReport]]:
    """Run one chunk — several cells grouped by instance — in a worker.

    Cells are grouped by instance before submission, so each distinct
    instance crosses the process boundary once per chunk — not once per
    cell — and the worker's memoized ``Instance`` quantities (class
    groupings, digest) are shared by every cell of its group.
    ``fast_paths`` carries the caller's :mod:`repro.core.fastmath`
    switch across the process boundary — workers are forked once and
    reused warm, so the flag must ride with the task, not the fork.
    ``trace_id`` rides along the same way: context variables do not
    cross the process boundary either.
    """
    injection.maybe_kill_worker()
    injection.maybe_raise("chunk_raise")
    from ..core.fastmath import use_fast_paths
    out: list[tuple[int, SolveReport]] = []
    with use_fast_paths(fast_paths), _maybe_trace(trace_id):
        for inst, cells in groups:
            out.extend(
                (i, execute(inst, name, kwargs, label=label,
                            timeout=timeout))
                for i, label, name, kwargs, timeout in cells)
    return out


def _usable_cores() -> int:
    """CPUs this process may actually run on (affinity-aware).

    A pooled batch ships no more chunks than this, because chunks beyond
    the hardware's real parallelism cannot overlap — they only add IPC
    round trips. Tests monkeypatch it to pin the chunk count.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:      # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _packed_chunks(groups: list[list[int]], target: int,
                   weight: Callable[[int], int]) -> list[list[int]]:
    """Merge cell groups into ``target`` chunks (fewer only when there
    are fewer groups), heaviest group first into the currently lightest
    chunk (deterministic LPT: ties keep input order). A group weighs the
    sum of ``weight(cell)`` over its cells; weights must be positive, or
    an empty chunk could look as light as a filled one.

    Every extra chunk is one more IPC round trip, and a worker idles
    while its next chunk travels, so the engine ships one chunk per
    worker it can overlap. The weight keeps those chunks even: a grid
    runs the same algorithms on every instance, so a cell's cost follows
    its instance's size, and ``iter_batch`` weighs each cell by its
    instance's job count — packing by cell count would put two large
    instances in one chunk as readily as a large and a small one."""
    bins: list[list[int]] = [[] for _ in range(target)]
    loads = [0] * target
    for load, g in sorted(((sum(map(weight, g)), g) for g in groups),
                          key=itemgetter(0), reverse=True):
        pos = loads.index(min(loads))
        bins[pos].extend(g)
        loads[pos] += load
    return [b for b in bins if b]


def _balanced_chunks(groups: list[list[int]], target: int) -> list[list[int]]:
    """Split per-instance cell groups until at least ``target`` chunks
    exist (or every chunk is a single cell), largest chunk first — keeps
    a one-instance x many-algorithms batch parallel while still shipping
    each instance at most a handful of times.

    Groups are left whole once there are ``target`` of them: the caller
    merges them into ``target`` chunks afterwards
    (:func:`_packed_chunks`), so splitting further would only scatter an
    instance over more chunks."""
    heap = [(-len(g), seq, g) for seq, g in enumerate(groups)]
    heapq.heapify(heap)
    seq = len(groups)
    while len(heap) < target:
        neg, _, g = heap[0]
        if len(g) <= 1:
            break
        heapq.heappop(heap)
        mid = len(g) // 2
        for part in (g[:mid], g[mid:]):
            heapq.heappush(heap, (-len(part), seq, part))
            seq += 1
    return [g for _, _, g in heap]


def _normalize_instances(instances) -> list[tuple[str, Instance]]:
    out = []
    for k, item in enumerate(instances):
        if isinstance(item, Instance):
            out.append((f"instance-{k}", item))
        else:
            label, inst = item
            out.append((str(label), inst))
    if not out:
        raise ValueError("run_batch needs at least one instance")
    return out


def _normalize_algorithms(algorithms) -> list[tuple[str, dict]]:
    out = []
    for item in algorithms:
        if isinstance(item, str):
            name, kwargs = item, {}
        else:
            name, kwargs = item
        out.append((get_solver(name).name, dict(kwargs or {})))
    if not out:
        raise ValueError("run_batch needs at least one algorithm")
    return out


def iter_batch(instances: Iterable[Instance | tuple[str, Instance]],
               algorithms: Sequence[str | tuple[str, Mapping[str, Any]]],
               *,
               workers: int | None = None,
               timeout: float | None = None,
               cache: ReportCache | None = None
               ) -> Iterator[tuple[int, SolveReport]]:
    """Yield ``(cell_index, report)`` once for every cell of the grid.

    Cells are numbered in :func:`run_batch`'s order (instances
    outermost). The cells are planned first: cache lookups, and
    in-batch dedupe of identical (instance content, algorithm, kwargs)
    triples. Inline (``workers`` of 0 or 1, or at most one cell left to
    solve) every cell is yielded in grid order. Pooled, the cells to
    solve ship as one chunk per worker — as many chunks as the least of
    ``workers``, the usable cores and the cells, weighted by instance
    size (:func:`_packed_chunks`) — all submitted at once; the cache
    hits are yielded first, then each solved cell, followed by its
    duplicates, as its chunk finishes. Solved cells are put in ``cache``
    as they arrive. A dead pool worker is survived once per call: the
    pool is rebuilt and every chunk still outstanding resubmitted; a
    second death propagates ``BrokenProcessPool``.
    """
    insts = _normalize_instances(instances)
    algos = _normalize_algorithms(algorithms)
    explicit_workers = workers is not None
    if workers is None:
        workers = DEFAULT_WORKERS

    tasks: list[tuple] = []
    keys: list[Any] = []
    hits: list[SolveReport | None] = []
    # the cell whose solve serves each cell: itself, an earlier cell
    # with the same key (intra-batch dedup), or None for a cache hit
    source: list[int | None] = []
    first_index: dict[Any, int] = {}
    for label, inst in insts:
        for name, kwargs in algos:
            if cache is not None:
                key = cache_key(inst, name, kwargs)
            else:
                # no cache to address: intra-batch dedup only needs a
                # cheap equality key, not the sha256/json cache key
                key = (inst.digest(), name,
                       tuple(sorted((k, repr(v))
                                    for k, v in kwargs.items())))
            hit = cache.get(key) if cache is not None else None
            # hits are relabelled per cell: the cache keys on content,
            # but the report belongs to this batch's row
            hits.append(relabel_hit(hit, label)
                        if hit is not None else None)
            source.append(None if hit is not None
                          else first_index.setdefault(key, len(tasks)))
            keys.append(key)
            tasks.append((label, inst, name, kwargs))

    pending = [i for i, src in enumerate(source) if src == i]
    cached_cells = source.count(None)
    if cached_cells:
        _BATCH_CELLS.inc(cached_cells, outcome="cached")
    if len(tasks) - cached_cells > len(pending):
        _BATCH_CELLS.inc(len(tasks) - cached_cells - len(pending),
                         outcome="deduped")
    if pending:
        _BATCH_CELLS.inc(len(pending), outcome="solved")

    def put(i: int, rep: SolveReport) -> SolveReport:
        if cache is not None and is_cacheable(rep):
            cache.put(keys[i], rep)
        return rep

    if workers <= 1 or len(pending) <= 1:
        solved: dict[int, SolveReport] = {}
        for i, (hit, src) in enumerate(zip(hits, source)):
            if src == i:
                label, inst, name, kwargs = tasks[i]
                hit = solved[i] = put(i, execute(inst, name, kwargs,
                                                 label=label,
                                                 timeout=timeout))
            elif src is not None:
                hit = relabel_hit(solved[src], tasks[i][0])
            yield i, hit
        return

    dups: dict[int, list[int]] = {i: [] for i in pending}
    for i, (hit, src) in enumerate(zip(hits, source)):
        if hit is not None:
            yield i, hit
        elif src != i:
            dups[src].append(i)
    batch_begin()
    try:
        # Chunking: cells group by instance, so each instance pickles
        # once per chunk, and the batch ships as exactly ``width``
        # chunks, all submitted at once. No more than ``workers`` chunks
        # exist, so the caller's fan-out is a hard concurrency cap even
        # when the shared pool is wider; no more than the post-dedupe
        # cells either, so a batch full of repeats cannot over-provision
        # pool processes (under fork the pool pre-spawns its full width
        # on first use).
        groups: dict[str, list[int]] = {}
        for i in pending:
            groups.setdefault(tasks[i][1].digest(), []).append(i)
        width = min(workers, _usable_cores(), len(pending))
        chunks = _packed_chunks(
            _balanced_chunks(list(groups.values()), width), width,
            lambda i: tasks[i][1].num_jobs)
        if explicit_workers and pool_max_workers() > workers \
                and active_batches() == 1:
            # explicit downsize: a one-off wide batch must not pin pool
            # width forever. Only when this is the sole batch in flight
            # — replacing the executor forks, and forking while sibling
            # batches are mid-submission risks the fork-with-held-locks
            # deadlock (see pool.active_batches)
            get_pool(width, shrink=True)
        fast = fast_paths_enabled()
        # ship the ambient trace with each chunk: contextvars do not
        # cross the process boundary (same reason fast_paths rides
        # along), and the workers' own registries are invisible here
        tid = current_trace_id()

        def submit(chunk: list[int]) -> Future:
            _CHUNK_CELLS.observe(len(chunk))
            by_digest: dict[str, tuple[Instance, list[tuple]]] = {}
            for i in chunk:
                label, inst, name, kwargs = tasks[i]
                group = by_digest.setdefault(inst.digest(), (inst, []))
                group[1].append((i, label, name, kwargs, timeout))
            return submit_task(width, _execute_chunk,
                               list(by_digest.values()), fast, tid)

        live = {submit(chunk): chunk for chunk in chunks}
        rebuilt = False
        while live:
            done, _ = wait(set(live), return_when=FIRST_COMPLETED)
            for fut in done:
                chunk = live.pop(fut)
                try:
                    results = fut.result()
                except BrokenProcessPool:
                    # a worker died mid-chunk. Rebuild the shared pool
                    # once per call and resubmit everything still
                    # outstanding (chunks whose futures also broke are
                    # still in ``live`` — they ride along); a second
                    # death in the same call is a real failure and
                    # propagates.
                    if rebuilt:
                        raise
                    rebuilt = True
                    outstanding = [chunk, *live.values()]
                    rebuild_pool(width)
                    live = {submit(again): again for again in outstanding}
                    break
                for i, rep in results:
                    # worker-side observations died with the worker's
                    # registry; re-observe from the returned report
                    SOLVE_SECONDS.observe(rep.wall_time_s,
                                          algorithm=rep.algorithm,
                                          status=rep.status)
                    yield i, put(i, rep)
                    for d in dups[i]:
                        yield d, relabel_hit(rep, tasks[d][0])
    finally:
        batch_end()


def run_batch(instances: Iterable[Instance | tuple[str, Instance]],
              algorithms: Sequence[str | tuple[str, Mapping[str, Any]]],
              *,
              workers: int | None = None,
              timeout: float | None = None,
              cache: ReportCache | None = None) -> list[SolveReport]:
    """Run every algorithm on every instance; one report per pair.

    Reports come back in deterministic order: instances outermost (in
    input order), algorithms innermost. ``workers`` > 1 fans out over the
    engine's persistent process pool (:mod:`repro.engine.pool` — warm
    across calls, shut down via
    :func:`~repro.engine.pool.shutdown_pool`); ``0``/``1`` runs inline
    in this process. ``timeout``
    bounds each individual run, not the batch. Cached results are
    returned with ``cached=True`` and cost no solver time; only clean
    (``ok``/``infeasible``) outcomes are cached — timeouts and crashes
    are retried on the next batch. Cells that repeat an identical
    (instance content, algorithm, kwargs) triple within one batch are
    solved once; the duplicates share the first cell's report (marked
    ``cached=True``, relabelled per cell).
    """
    return [rep for _, rep in sorted(
        iter_batch(instances, algorithms, workers=workers,
                   timeout=timeout, cache=cache),
        key=itemgetter(0))]
