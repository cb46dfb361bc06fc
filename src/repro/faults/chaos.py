"""Chaos campaigns: prove the crash-safe job lifecycle under faults.

:func:`run_chaos` drives a real :class:`~repro.service.SchedulingService`
(or a remote one via ``--url``) through a seeded campaign of jobs while
the :mod:`repro.faults.injection` registry kills pool workers, raises
inside pooled chunks, fails store commits and murders drainer threads —
then asserts the two lifecycle invariants the whole subsystem exists
for:

1. **No job is ever stuck.** Every submitted job reaches a terminal
   status (``done`` / ``failed`` / ``quarantined``) before the deadline,
   and no row is left ``running`` once the campaign settles.
2. **Retries change nothing.** Every job that completes ``done`` has
   reports byte-identical (modulo wall time, trace ids and the cache
   flag) to a fault-free run of the same instance x algorithms grid —
   crashing halfway through a solve and retrying must never change an
   exact :class:`fractions.Fraction` result.

``repro chaos`` is the CLI wrapper; CI runs it with a pinned seed
against a live ``repro serve`` under worker-kill + chunk-raise +
drainer-loop faults.
"""

from __future__ import annotations

import glob
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..engine.runner import execute
from ..service.store import TERMINAL_STATUSES
from ..workloads.generators import uniform_instance
from . import injection

__all__ = ["ChaosResult", "DEFAULT_FAULTS", "CHAOS_ALGOS",
           "campaign_instances", "canonical_report", "run_chaos"]

#: The fault plan ``repro chaos`` applies when none is given: every
#: injection layer the lifecycle defends against, each well above the
#: acceptance floor of 5%.
DEFAULT_FAULTS = ("worker_kill:0.08,chunk_raise:0.06,"
                  "store_commit:0.08,drainer_loop:0.05")

#: The algorithm grid each chaos job runs — fast solvers across the
#: three variants plus a list heuristic, so retried jobs exercise exact
#: Fraction results without MILP dependencies.
CHAOS_ALGOS = ("splittable", "preemptive", "nonpreemptive", "lpt")


def campaign_instances(seed: int, count: int):
    """The campaign's deterministic ``(label, Instance)`` list: small
    uniform instances — cheap to solve, so faults dominate wall time."""
    out = []
    for k in range(count):
        rng = np.random.default_rng([int(seed), k])
        out.append((f"chaos-{k}", uniform_instance(rng, 12, 3, 3, 2)))
    return out


def canonical_report(rep) -> dict:
    """A report's dict with the fields that legitimately differ between
    a clean run and a retried one stripped: wall time, the trace id, and
    ``cached`` (a retry may be served from the result cache a previous
    attempt filled). Everything else — makespans, exact fractions,
    statuses, certificates — must match byte for byte."""
    d = rep.to_dict()
    d.pop("wall_time_s", None)
    d.pop("cached", None)
    extra = d.get("extra")
    if isinstance(extra, dict):
        extra = dict(extra)
        extra.pop("trace_id", None)
        d["extra"] = extra
    return d


@dataclass
class ChaosResult:
    """Outcome of one chaos campaign."""

    jobs: int
    counts: dict = field(default_factory=dict)
    stuck: list = field(default_factory=list)         # labels, non-terminal
    mismatched: list = field(default_factory=list)    # labels, wrong reports
    quarantined: list = field(default_factory=list)
    failed: list = field(default_factory=list)
    retries: int = 0
    reclaims: int = 0
    rebuilds: int = 0
    faults: str = ""
    seed: int = 0
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        """The lifecycle invariants: nothing stuck, nothing corrupted.
        Quarantined/failed jobs are *expected* under heavy fault rates —
        what is never acceptable is a hung job or a wrong report."""
        return not self.stuck and not self.mismatched \
            and not self.counts.get("running")

    def to_dict(self) -> dict:
        return {"ok": self.ok, "jobs": self.jobs, "counts": self.counts,
                "stuck": self.stuck, "mismatched": self.mismatched,
                "quarantined": self.quarantined, "failed": self.failed,
                "retries": self.retries, "reclaims": self.reclaims,
                "rebuilds": self.rebuilds, "faults": self.faults,
                "seed": self.seed, "elapsed_s": round(self.elapsed_s, 3)}


def _expected_reports(instances) -> dict[str, list[dict]]:
    """Fault-free canonical reports per label, computed inline on this
    thread under :func:`injection.disabled` — the service keeps faulting
    on its own threads while we build the ground truth."""
    expected: dict[str, list[dict]] = {}
    with injection.disabled():
        for label, inst in instances:
            expected[label] = [
                canonical_report(execute(inst, name, label=label))
                for name in CHAOS_ALGOS]
    return expected


def _spawn_worker(store_url: str, k: int, *, lease_seconds: float,
                  engine_workers: int) -> subprocess.Popen:
    """Launch one external ``repro worker`` process against the shared
    store. It inherits this process's environment, including the
    ``REPRO_FAULTS`` plan already exported there. It leads a session of
    its own, so the worker and the pool processes it forks form one
    process group, signalled as a whole by :func:`_signal_group`."""
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--store", store_url,
         "--workers", "2", "--name", f"chaos-worker-{k}",
         "--engine-workers", str(engine_workers),
         "--lease-seconds", str(lease_seconds), "--quiet"],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True)


def _signal_group(proc: subprocess.Popen, sig: int) -> None:
    """Send ``sig`` to every process left in a spawned worker's group;
    nothing when none is left."""
    try:
        os.killpg(proc.pid, sig)
    except ProcessLookupError:
        pass


def _stop_workers(workers: list[subprocess.Popen]) -> None:
    """End the external workers: SIGTERM each (it drains and releases
    its leases), give it 15 s, then SIGKILL what is left of its group —
    a worker that hung, or pool processes that outlived it."""
    for proc in workers:
        if proc.poll() is None:
            proc.terminate()
    for proc in workers:
        try:
            proc.wait(timeout=15.0)
        except subprocess.TimeoutExpired:
            pass
        _signal_group(proc, signal.SIGKILL)
        proc.wait()


def _worker_killer(svc, workers: list[subprocess.Popen], jobs: int,
                   say) -> None:
    """The worker_kill leg of an external-workers campaign: once the
    fleet has made real progress, SIGKILL one worker process outright —
    no drain, no lease release — together with the pool processes it
    forked. The server's supervisor must reclaim its orphaned leases and
    the surviving workers must finish the campaign."""
    deadline = time.monotonic() + 30.0
    threshold = max(1, jobs // 5)
    while time.monotonic() < deadline:
        counts = svc.store.counts()
        terminal = sum(counts.get(s, 0) for s in TERMINAL_STATUSES)
        if terminal >= threshold:
            break
        time.sleep(0.2)
    victim = workers[0]
    if victim.poll() is None:
        _signal_group(victim, signal.SIGKILL)
        say(f"worker_kill leg: SIGKILLed external worker pid {victim.pid}")


def run_chaos(seed: int = 7, jobs: int = 50,
              faults: str = DEFAULT_FAULTS, *,
              url: str | None = None, drainers: int = 2,
              engine_workers: int = 2, lease_seconds: float = 2.0,
              max_attempts: int = 5, deadline: float = 180.0,
              db_path: str | None = None,
              store_url: str | None = None,
              external_workers: int = 0,
              progress: Callable[[str], None] | None = None) -> ChaosResult:
    """Run a chaos campaign; see the module docstring for the invariants.

    Local mode (no ``url``) boots a private :class:`SchedulingService`
    on an ephemeral port with the fault plan in the environment — so
    forked pool workers inherit it — and reads final job states straight
    from its store. ``store_url`` picks the store (default: a temporary
    SQLite file). ``external_workers > 0`` runs the server accept-only
    and drains through that many separate ``repro worker`` processes
    sharing the store (an in-memory ``store_url`` then raises
    :class:`ValueError` before any process is spawned); with at least two
    of them the campaign adds a *worker_kill leg* — one worker process is
    SIGKILLed once the fleet has made progress, and the verdict must
    still come out clean (the server reclaims its leases, the survivors
    finish the work).
    Remote mode submits against ``url`` and trusts the server's own
    fault plan (set ``REPRO_FAULTS`` in its environment).
    """
    from ..service.client import ServiceClient

    say = progress or (lambda msg: None)
    instances = campaign_instances(seed, jobs)
    say(f"computing fault-free baseline for {jobs} jobs")
    expected = _expected_reports(instances)
    t0 = time.monotonic()
    if url is not None:
        client = ServiceClient(url)
        return _drive(client, None, instances, expected, deadline,
                      faults, seed, t0, say)

    from ..engine.pool import shutdown_pool
    from ..service.server import SchedulingService
    from ..service.worker import JOB_RETRIES, LEASE_RECLAIMS
    from ..engine.pool import _POOL_REBUILDS

    saved = {k: os.environ.get(k)
             for k in ("REPRO_FAULTS", "REPRO_FAULTS_SEED")}
    os.environ["REPRO_FAULTS"] = faults
    os.environ["REPRO_FAULTS_SEED"] = str(seed)
    injection.reset()
    # the pool (if any) predates the fault env: its workers were forked
    # without the plan. Rebuild so workers inherit it.
    shutdown_pool(wait=False, cancel_futures=True)
    retries0 = JOB_RETRIES.value(reason="error") \
        + JOB_RETRIES.value(reason="reclaim")
    reclaims0 = LEASE_RECLAIMS.value()
    rebuilds0 = _POOL_REBUILDS.value()

    tmp = None
    if store_url is None:
        if db_path is None:
            fd, tmp = tempfile.mkstemp(prefix="repro-chaos-", suffix=".db")
            os.close(fd)
            db_path = tmp
        store_url = "sqlite:///" + os.path.abspath(db_path)
    svc = None
    workers: list[subprocess.Popen] = []
    try:
        svc = SchedulingService(store_url, port=0, drainers=drainers,
                                engine_workers=engine_workers,
                                lease_seconds=lease_seconds,
                                max_attempts=max_attempts,
                                embedded_workers=not external_workers,
                                quiet=True)
        svc.start()
        say(f"service up at {svc.url} under faults {faults!r} "
            f"(store {svc.store.url})")
        if external_workers:
            workers = [_spawn_worker(store_url, k,
                                     lease_seconds=lease_seconds,
                                     engine_workers=engine_workers)
                       for k in range(external_workers)]
            say(f"spawned {external_workers} external worker process(es)")
            if external_workers >= 2:
                threading.Thread(
                    target=_worker_killer, args=(svc, workers, jobs, say),
                    daemon=True, name="repro-chaos-killer").start()
        result = _drive(ServiceClient(svc.url), svc, instances, expected,
                        deadline, faults, seed, t0, say)
        result.retries = int(JOB_RETRIES.value(reason="error")
                             + JOB_RETRIES.value(reason="reclaim")
                             - retries0)
        result.reclaims = int(LEASE_RECLAIMS.value() - reclaims0)
        result.rebuilds = int(_POOL_REBUILDS.value() - rebuilds0)
        return result
    finally:
        _stop_workers(workers)
        if svc is not None:
            # disable faults before shutdown so the drain cannot be
            # re-broken by store_commit faults on its way out
            injection.configure("", seed=0)
            svc.shutdown(drain_grace=10.0)
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
        injection.reset()
        shutdown_pool(wait=False, cancel_futures=True)
        if tmp is not None:
            # the store file plus its WAL/shm sidecars and cache file
            for path in glob.glob(tmp + "*"):
                try:
                    os.unlink(path)
                except OSError:
                    pass


def _drive(client, svc, instances, expected, deadline, faults, seed,
           t0, say) -> ChaosResult:
    """Submit every job, poll to terminal states, check the invariants."""
    with injection.disabled():      # client-side code must not fault
        ids: dict[str, str] = {}
        for label, inst in instances:
            job = client.submit(inst, list(CHAOS_ALGOS), label=label)
            ids[job["id"]] = label

        states: dict[str, dict] = {}
        stop_at = time.monotonic() + deadline
        pending = set(ids)
        while pending and time.monotonic() < stop_at:
            for job_id in list(pending):
                job = client.job(job_id)
                if job["status"] in TERMINAL_STATUSES:
                    states[job_id] = job
                    pending.discard(job_id)
            if pending:
                time.sleep(0.2)
            done_n = len(states)
            if done_n and done_n % 10 == 0:
                say(f"{done_n}/{len(ids)} jobs terminal")

        result = ChaosResult(jobs=len(ids), faults=faults, seed=seed)
        for job_id in pending:
            job = client.job(job_id)
            result.stuck.append(
                f"{ids[job_id]} ({job['status']} at deadline)")
        for job_id, job in states.items():
            label = ids[job_id]
            if job["status"] == "quarantined":
                result.quarantined.append(label)
                continue
            if job["status"] == "failed":
                result.failed.append(label)
                continue
            got = [canonical_report(rep)
                   for rep in client.reports(job_id)]
            if got != expected[label]:
                result.mismatched.append(label)

        if svc is not None:
            result.counts = svc.store.counts()
        else:
            counts: dict[str, int] = {}
            for job_id in ids:
                status = (states.get(job_id)
                          or client.job(job_id))["status"]
                counts[status] = counts.get(status, 0) + 1
            result.counts = counts
        result.elapsed_s = time.monotonic() - t0
        return result
