"""Multi-node worker tests: several WorkerNodes (in-process and real
subprocesses) sharing one store must run every job exactly once, survive
a killed peer via lease reclaim, and produce byte-identical reports in
every topology."""

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro import Instance
from repro.faults.chaos import CHAOS_ALGOS, campaign_instances, canonical_report
from repro.service import JobStore, WorkerNode


@pytest.fixture
def inst() -> Instance:
    return Instance((5, 3, 8, 6, 2), (0, 0, 1, 2, 2), 2, 2)


def _wait_done(store, n, deadline=60.0, statuses=("done",)):
    end = time.monotonic() + deadline
    while time.monotonic() < end:
        if sum(store.count_jobs(s) for s in statuses) >= n:
            return
        time.sleep(0.05)
    counts = {s: store.count_jobs(s) for s in
              ("queued", "running", "done", "failed", "quarantined")}
    pytest.fail(f"jobs never finished: {counts}")


def _node(store, name, **over):
    opts = dict(workers=2, name=name, lease_seconds=30.0,
                reclaim_interval=0.05, retry_backoff_base=0.01,
                retry_backoff_cap=0.05, poll_interval=0.02)
    opts.update(over)
    return WorkerNode(store, **opts)


class TestWakeUps:
    def test_submit_between_an_empty_claim_and_the_sleep(self, inst,
                                                          monkeypatch):
        # the job lands after the drainer found the queue empty and
        # before it sleeps: its wake-up must not be lost, or the job
        # waits out the whole poll interval
        store = JobStore(":memory:")
        node = WorkerNode(store, workers=1, poll_interval=5.0)
        claim_next = store.claim_next
        submitted = []

        def claim_then_submit(*args, **kwargs):
            job = claim_next(*args, **kwargs)
            if job is None and not submitted:
                submitted.append(store.create_job(inst, [("lpt", {})]))
                node.notify()
            return job

        monkeypatch.setattr(store, "claim_next", claim_then_submit)
        node.start()
        try:
            end = time.monotonic() + 4.0
            while time.monotonic() < end and not (
                    submitted and store.get_job(submitted[0].id).status
                    == "done"):
                time.sleep(0.02)
            assert submitted
            assert store.get_job(submitted[0].id).status == "done"
        finally:
            node.stop()
            store.close()

    def test_completions_do_not_wake_idle_drainers(self, inst):
        # with both drainers asleep, a submit wakes one: it claims the
        # job, then finds the queue empty. The job's completion wakes
        # no drainer, so the other one never claims
        store = JobStore(":memory:")
        claims = []
        claim_next = store.claim_next
        store.claim_next = lambda *a, **kw: claims.append(1) or claim_next(
            *a, **kw)
        node = WorkerNode(store, workers=2, poll_interval=60.0).start()
        try:
            time.sleep(0.2)
            assert len(claims) == 2         # each drainer's first look
            for k in range(3):
                store.create_job(inst, [("lpt", {})])
                node.notify()
                _wait_done(store, k + 1, deadline=10.0)
                time.sleep(0.2)
                assert len(claims) == 2 + 2 * (k + 1)
        finally:
            node.stop()
            store.close()

    def test_no_wake_up_lost_under_contention(self, inst):
        # more drainers than cores, three submitters and a short switch
        # interval: any lost wake-up strands a job for the 30 s poll
        store = JobStore(":memory:")
        node = WorkerNode(store, workers=4, poll_interval=30.0)
        prev = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            node.start()

            def submit():
                for _ in range(25):
                    store.create_job(inst, [("lpt", {})])
                    node.notify()

            senders = [threading.Thread(target=submit) for _ in range(3)]
            for t in senders:
                t.start()
            for t in senders:
                t.join(10.0)
                assert not t.is_alive()
            _wait_done(store, 75, deadline=15.0)
        finally:
            sys.setswitchinterval(prev)
            node.stop()
            store.close()


class TestMultiNode:
    def test_two_nodes_fifty_jobs_exactly_once(self, tmp_path):
        # two store connections on one file model two processes; the
        # atomic claim must hand each job to exactly one node
        path = tmp_path / "jobs.db"
        a, b = JobStore(path), JobStore(path)
        jobs = [a.create_job(inst, [("lpt", {})], label=label)
                for label, inst in campaign_instances(11, 50)]
        nodes = [_node(a, "fleet-a"), _node(b, "fleet-b")]
        for n in nodes:
            n.start()
        try:
            _wait_done(a, 50)
        finally:
            for n in nodes:
                n.stop()
        assert a.count_jobs("done") == 50
        assert a.count_jobs("running") == 0
        records = [a.get_job(j.id) for j in jobs]
        assert all(r.attempts == 1 for r in records), \
            [(r.label, r.attempts) for r in records if r.attempts != 1]
        claims = a.claims_by_worker()
        assert set(claims) <= {"fleet-a", "fleet-b"}
        assert sum(claims.values()) == 50
        a.close()
        b.close()

    def test_dead_worker_leases_reclaimed(self, tmp_path, inst):
        # a "worker" claims four jobs and dies without executing them;
        # a live node's supervisor must reclaim the expired leases and
        # drive everything terminal
        store = JobStore(tmp_path / "jobs.db")
        jobs = [store.create_job(inst, [("lpt", {})]) for _ in range(10)]
        ghost = [store.claim_next(lease_seconds=0.05, worker="ghost")
                 for _ in range(4)]
        assert all(ghost)
        node = _node(store, "survivor", workers=1, lease_seconds=0.5)
        node.start()
        try:
            _wait_done(store, 10)
        finally:
            node.stop()
        assert store.count_jobs("done") == 10
        assert store.count_jobs("running") == 0
        reclaimed = [store.get_job(g.id) for g in ghost]
        assert all(r.attempts == 2 for r in reclaimed)   # ghost try + real
        untouched = [store.get_job(j.id) for j in jobs
                     if j.id not in {g.id for g in ghost}]
        assert all(r.attempts == 1 for r in untouched)
        store.close()


def _spawn_worker(store_url, name, *, lease_seconds=1.0):
    env = dict(os.environ)
    env.setdefault("PYTHONPATH", "src")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "worker", "--store", store_url,
         "--workers", "1", "--name", name, "--poll-interval", "0.05",
         "--lease-seconds", str(lease_seconds), "--quiet"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)


class TestSubprocessWorkers:
    def test_sigterm_drains_cleanly(self, tmp_path, inst):
        path = tmp_path / "jobs.db"
        store = JobStore(path)
        for _ in range(5):
            store.create_job(inst, [("lpt", {})])
        proc = _spawn_worker(f"sqlite:///{path}", "sub-a",
                             lease_seconds=30.0)
        try:
            _wait_done(store, 5, deadline=60.0)
        finally:
            proc.send_signal(signal.SIGTERM)
            code = proc.wait(timeout=30)
        assert code == 0
        assert store.count_jobs("done") == 5
        assert store.count_jobs("running") == 0
        assert store.claims_by_worker() == {"sub-a": 5}
        store.close()

    def test_sigkill_mid_batch_ends_all_jobs_terminal(self, tmp_path):
        # a worker is hard-killed while holding leases; the remaining
        # (in-process) node must reclaim them and finish the whole batch
        path = tmp_path / "jobs.db"
        store = JobStore(path)
        first = campaign_instances(23, 20)
        for label, inst in first:
            store.create_job(inst, list((a, {}) for a in CHAOS_ALGOS),
                             label=label)
        proc = _spawn_worker(f"sqlite:///{path}", "victim",
                             lease_seconds=1.0)
        try:
            # let the victim get properly mid-batch before killing it
            _wait_done(store, 3, deadline=60.0)
        finally:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        # more work arrives after the kill — only the survivor can run it
        for label, inst in campaign_instances(24, 10):
            store.create_job(inst, list((a, {}) for a in CHAOS_ALGOS),
                             label=label)
        node = _node(store, "survivor", lease_seconds=1.0)
        node.start()
        try:
            _wait_done(store, 30, deadline=120.0)
        finally:
            node.stop()
        assert store.count_jobs("done") == 30
        assert store.count_jobs("running") == 0
        assert store.count_jobs("queued") == 0
        store.close()


class TestTopologyEquivalence:
    """The same seeded batch must yield byte-identical canonical reports
    whether it runs on an in-memory store, one node on SQLite, or a
    two-node SQLite fleet."""

    BATCH = 6
    SEED = 7

    def _run(self, store, extra_stores=()):
        jobs = [store.create_job(inst, [(a, {}) for a in CHAOS_ALGOS],
                                 label=label)
                for label, inst in campaign_instances(self.SEED, self.BATCH)]
        nodes = [_node(store, "topo-0")] + [
            _node(s, f"topo-{i + 1}") for i, s in enumerate(extra_stores)]
        for n in nodes:
            n.start()
        try:
            _wait_done(store, self.BATCH)
        finally:
            for n in nodes:
                n.stop()
        out = {}
        for job in jobs:
            reports = store.reports_for(job.id)
            out[job.label] = json.dumps(
                [canonical_report(r) for r in reports], sort_keys=True)
        return out

    def test_all_topologies_agree(self, tmp_path):
        mem = JobStore(":memory:")
        baseline = self._run(mem)
        mem.close()

        solo = JobStore(tmp_path / "solo.db")
        single = self._run(solo)
        solo.close()

        shared = tmp_path / "fleet.db"
        a, b = JobStore(shared), JobStore(shared)
        fleet = self._run(a, extra_stores=[b])
        a.close()
        b.close()

        assert baseline == single
        assert baseline == fleet
