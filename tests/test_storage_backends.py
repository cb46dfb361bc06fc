"""Conformance tests for the storage layer: every flavour of the store
(a file, ``:memory:``, the ``memory://`` URL) speaks one contract,
SQLite survives multi-thread and multi-connection writers, store_url
parsing builds the right store, and in-memory stores are refused where
another process must reach them."""

import os
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest

import repro
from repro import Instance
from repro.engine import SolveReport
from repro.service import (JobStore, SchedulingService, ServiceClient,
                           StoreBackend, open_store)


@pytest.fixture
def inst() -> Instance:
    return Instance((5, 3, 8, 6, 2), (0, 0, 1, 2, 2), 2, 2)


@pytest.fixture(params=["sqlite", "sqlite-memory", "memory"])
def store(request, tmp_path):
    """Every store flavour, driven through the identical suite below."""
    if request.param == "sqlite":
        s = JobStore(tmp_path / "jobs.db")
    elif request.param == "sqlite-memory":
        s = JobStore(":memory:")
    else:
        s = open_store("memory://")
    yield s
    s.close()


def _report(inst: Instance, **over) -> SolveReport:
    base = dict(algorithm="splittable", instance_digest=inst.digest(),
                instance_label="x", variant="splittable",
                makespan=Fraction(22, 7), guess=Fraction(11, 7),
                certified_ratio=2.0, proven_ratio="2", wall_time_s=0.01,
                validated=True, extra={"pieces": 3})
    base.update(over)
    return SolveReport(**base)


class TestBackendConformance:
    """One behavioural suite, three flavours — the protocol is the spec."""

    def test_satisfies_protocol(self, store):
        assert isinstance(store, StoreBackend)

    def test_url_is_stable(self, store):
        assert store.url == store.url
        assert store.url.startswith("sqlite:///")

    def test_claim_next_priority_then_fifo(self, store, inst):
        low1 = store.create_job(inst, [("lpt", {})], priority=1)
        time.sleep(0.002)   # distinct submitted_at for FIFO within a level
        high = store.create_job(inst, [("lpt", {})], priority=9)
        time.sleep(0.002)
        low2 = store.create_job(inst, [("lpt", {})], priority=1)
        order = [store.claim_next(30.0).id for _ in range(3)]
        assert order == [high.id, low1.id, low2.id]
        assert store.claim_next(30.0) is None

    def test_claim_next_skips_parked_retries(self, store, inst):
        job = store.create_job(inst, [("lpt", {})])
        assert store.claim_job(job.id, 30.0)
        assert store.requeue_job(job.id, error="transient", delay=30.0)
        assert store.claim_next(30.0) is None   # backoff not yet due
        ready = store.create_job(inst, [("lpt", {})])
        assert store.claim_next(30.0).id == ready.id

    def test_claim_records_worker(self, store, inst):
        store.create_job(inst, [("lpt", {})])
        store.create_job(inst, [("lpt", {})])
        a = store.claim_next(30.0, worker="alpha")
        b = store.claim_next(30.0, worker="beta")
        assert store.get_job(a.id).claimed_by == "alpha"
        assert store.get_job(b.id).claimed_by == "beta"
        assert store.claims_by_worker() == {"alpha": 1, "beta": 1}

    def test_finish_refuses_stale_writer(self, store, inst):
        job = store.create_job(inst, [("lpt", {})])
        assert store.claim_job(job.id, 30.0)
        # the lease is reclaimed under the first writer's feet
        assert store.requeue_job(job.id, error="lease expired")
        assert not store.finish_job(job.id, [_report(inst)])
        assert store.get_job(job.id).status == "queued"

    def test_release_refunds_attempt(self, store, inst):
        job = store.create_job(inst, [("lpt", {})])
        store.claim_job(job.id, 30.0)
        assert store.get_job(job.id).attempts == 1
        assert store.release_lease(job.id)
        back = store.get_job(job.id)
        assert back.status == "queued" and back.attempts == 0

    def test_reclaim_requeues_then_quarantines(self, store, inst):
        job = store.create_job(inst, [("lpt", {})], max_attempts=2)
        store.claim_job(job.id, lease_seconds=0.01)
        time.sleep(0.05)
        requeued, quarantined = store.reclaim_expired(lambda a: 0.0)
        assert [j.id for j in requeued] == [job.id] and not quarantined
        assert "lease expired" in store.get_job(job.id).error
        store.claim_job(job.id, lease_seconds=0.01)     # attempt 2 of 2
        time.sleep(0.05)
        requeued, quarantined = store.reclaim_expired(lambda a: 0.0)
        assert not requeued and [j.id for j in quarantined] == [job.id]
        assert store.get_job(job.id).status == "quarantined"

    def test_recover_incomplete_requeues_running(self, store, inst):
        running = store.create_job(inst, [("lpt", {})])
        store.claim_job(running.id, lease_seconds=30.0)
        queued = store.create_job(inst, [("lpt", {})])
        recovered = {j.id for j in store.recover_incomplete()}
        assert recovered == {running.id, queued.id}
        assert store.get_job(running.id).status == "queued"

    def test_cache_seam_round_trip(self, store, inst):
        rep = _report(inst)
        store.cache.put("k1", rep)
        assert store.cache.get("k1").makespan == rep.makespan
        assert store.cache.get("missing") is None
        assert len(store.cache) == 1
        got = store.cache.reports_for_digest(inst.digest())
        assert [r.algorithm for r in got] == ["splittable"]

    def test_cached_reports_keep_insertion_order(self, store, inst):
        for k in range(6):
            store.cache.put(f"key-{k}", _report(inst, algorithm=f"algo-{k}"))
        got = store.cache.reports_for_digest(inst.digest())
        assert [r.algorithm for r in got] == [f"algo-{k}" for k in range(6)]

    def test_single_backend_thread_contention_claims_once(self, store, inst):
        jobs = [store.create_job(inst, [("lpt", {})]) for _ in range(30)]
        claimed: list[str] = []
        lock = threading.Lock()

        def drain(name):
            while True:
                job = store.claim_next(lease_seconds=30.0, worker=name)
                if job is None:
                    return
                with lock:
                    claimed.append(job.id)

        threads = [threading.Thread(target=drain, args=(f"t{i}",))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(claimed) == sorted(j.id for j in jobs)
        assert len(set(claimed)) == len(jobs)
        assert all(store.get_job(j.id).attempts == 1 for j in jobs)


class TestSqliteConcurrency:
    def test_two_threads_writing_never_lock(self, tmp_path, inst):
        # the regression the WAL + busy_timeout + per-thread-connection
        # rework exists for: concurrent writers on one store used to race
        # a single shared connection and raise "database is locked"
        store = JobStore(tmp_path / "w.db")
        errors: list[BaseException] = []

        def writer():
            try:
                for _ in range(100):
                    job = store.create_job(inst, [("lpt", {})])
                    store.claim_job(job.id, 30.0)
                    store.finish_job(job.id, [_report(inst)])
            except BaseException as exc:   # noqa: BLE001 — collect to assert
                errors.append(exc)

        threads = [threading.Thread(target=writer) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, f"concurrent writers failed: {errors!r}"
        assert store.count_jobs("done") == 200
        store.close()

    def test_two_connections_share_one_file(self, tmp_path, inst):
        # two JobStore instances on one path model two *processes*: the
        # atomic conditional claim must hand every job to exactly one
        path = tmp_path / "shared.db"
        a, b = JobStore(path), JobStore(path)
        jobs = [a.create_job(inst, [("lpt", {})]) for _ in range(50)]
        wins: dict[str, list[str]] = {"a": [], "b": []}

        def drain(store, name):
            while True:
                job = store.claim_next(lease_seconds=30.0, worker=name)
                if job is None:
                    return
                wins[name].append(job.id)

        threads = [threading.Thread(target=drain, args=(a, "a")),
                   threading.Thread(target=drain, args=(b, "b"))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(wins["a"] + wins["b"]) == sorted(j.id for j in jobs)
        assert not set(wins["a"]) & set(wins["b"])
        # one thread may drain all 50 first; the other then has no row
        total = b.claims_by_worker()
        assert total.get("a", 0) + total.get("b", 0) == 50
        a.close()
        b.close()

    def test_serial_memory_mode_still_works(self, inst):
        # ":memory:" cannot use per-thread connections (each one would be
        # a different empty database) — the store must fall back to one
        # serialised connection and stay correct across threads
        store = JobStore(":memory:")
        jobs = [store.create_job(inst, [("lpt", {})]) for _ in range(10)]

        def drain():
            while store.claim_next(lease_seconds=30.0) is not None:
                pass

        threads = [threading.Thread(target=drain) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(store.get_job(j.id).attempts == 1 for j in jobs)
        store.close()


class TestOpenStore:
    def test_memory_url(self):
        # memory:// is a private JobStore(":memory:"), under its SQLite URL
        store = open_store("memory://")
        assert isinstance(store, JobStore) and store.path == ":memory:"
        assert store.url == "sqlite:///:memory:"
        store.close()

    def test_memory_service_reports_the_sqlite_url(self):
        svc = SchedulingService("memory://", port=0, drainers=0).start()
        try:
            with ServiceClient(svc.url) as client:
                assert client.health()["store"] == "sqlite:///:memory:"
        finally:
            svc.shutdown()

    def test_sqlite_relative_url(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        store = open_store("sqlite:///rel.db")
        assert isinstance(store, JobStore)
        assert store.path == "rel.db"
        store.close()
        assert (tmp_path / "rel.db").exists()

    def test_sqlite_absolute_url(self, tmp_path):
        path = tmp_path / "abs.db"
        store = open_store(f"sqlite:///{path}")    # 3 slashes + abs path = 4
        assert store.path == str(path)
        store.close()
        assert path.exists()

    def test_bare_path_still_works(self, tmp_path):
        store = open_store(tmp_path / "plain.db")
        assert isinstance(store, JobStore)
        store.close()

    def test_sqlite_memory_url(self):
        store = open_store("sqlite:///:memory:")
        assert isinstance(store, JobStore) and store.path == ":memory:"
        store.close()

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError, match="unsupported store scheme"):
            open_store("postgres://nope/jobs")

    def test_fresh_memory_stores_are_independent(self, inst):
        a, b = open_store("memory://"), open_store("memory://")
        a.create_job(inst, [("lpt", {})])
        assert b.count_jobs() == 0
        a.close()
        b.close()


PRIVATE_URLS = pytest.mark.parametrize(
    "url", ["memory://", "sqlite:///:memory:"], ids=["memory", "sqlite"])


class TestPrivateStoresRefused:
    """An in-memory store lives in one process: wherever another process
    must reach the store to run its jobs, it is refused up front."""

    @PRIVATE_URLS
    def test_worker_cli_exits_with_an_error_line(self, tmp_path, url):
        src = Path(repro.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "worker", "--store", url],
            cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True, text=True, timeout=20)
        assert proc.returncode == 1
        assert any(line.startswith("error:") and "private" in line
                   for line in proc.stderr.splitlines()), proc.stderr
        assert "draining" not in proc.stdout

    @PRIVATE_URLS
    def test_accept_only_service_refuses(self, url):
        with pytest.raises(ValueError, match="private to this process"):
            SchedulingService(url, port=0, embedded_workers=False)

    def test_accept_only_service_takes_a_file_store(self, tmp_path):
        svc = SchedulingService(f"sqlite:///{tmp_path}/jobs.db", port=0,
                                embedded_workers=False).start()
        assert svc.node.workers == 0
        svc.shutdown()
