"""End-to-end chaos campaigns (small, test-sized) and their helpers."""

import contextlib
import os
import signal
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

from repro.engine.runner import execute
from repro.faults import chaos, injection
from repro.faults.chaos import (CHAOS_ALGOS, campaign_instances,
                                canonical_report, run_chaos)


@pytest.fixture(autouse=True)
def _no_faults():
    injection.reset()
    yield
    injection.reset()


class TestHelpers:
    def test_campaign_instances_deterministic(self):
        a = campaign_instances(7, 3)
        b = campaign_instances(7, 3)
        assert [label for label, _ in a] == ["chaos-0", "chaos-1", "chaos-2"]
        assert a == b
        c = campaign_instances(8, 3)
        assert [i for _, i in a] != [i for _, i in c]

    def test_canonical_report_strips_volatile_fields(self):
        label, inst = campaign_instances(1, 1)[0]
        rep = execute(inst, CHAOS_ALGOS[0], label=label)
        d = canonical_report(rep)
        assert "wall_time_s" not in d and "cached" not in d
        assert "trace_id" not in (d.get("extra") or {})
        assert d["makespan"] == rep.to_dict()["makespan"]
        # identical modulo the stripped fields across re-solves
        assert d == canonical_report(execute(inst, CHAOS_ALGOS[0],
                                             label=label))


class TestCampaign:
    def test_fault_free_campaign_is_clean(self):
        result = run_chaos(seed=3, jobs=3, faults="", engine_workers=0,
                           drainers=2, lease_seconds=5.0, deadline=60.0)
        assert result.ok
        assert result.counts["done"] == 3
        assert not result.quarantined and not result.failed
        assert not result.mismatched and not result.stuck

    @pytest.mark.filterwarnings(
        "ignore::pytest.PytestUnhandledThreadExceptionWarning")
    def test_faulty_campaign_keeps_invariants(self):
        # heavy store/drainer faults: jobs may retry or quarantine, but
        # nothing sticks and every done job matches the fault-free run
        result = run_chaos(seed=7, jobs=6,
                           faults="store_commit:0.3,drainer_loop:0.2",
                           engine_workers=0, drainers=2,
                           lease_seconds=0.5, max_attempts=6,
                           deadline=120.0)
        assert result.ok
        assert not result.stuck and not result.mismatched
        assert result.counts["running"] == 0
        assert sum(result.counts.values()) == 6
        terminal = (result.counts["done"] + result.counts["failed"]
                    + result.counts["quarantined"])
        assert terminal == 6
        data = result.to_dict()
        assert data["ok"] is True and data["jobs"] == 6


    def test_external_workers_refuse_an_in_memory_store(self, monkeypatch):
        # the accept-only service refuses the store before any worker
        # process is spawned; none could ever reach its jobs
        spawned = []

        def popen(argv, **kwargs):
            spawned.append(argv)
            raise OSError("no worker process may start")

        monkeypatch.setattr(chaos.subprocess, "Popen", popen)
        with pytest.raises(ValueError, match="private to this process"):
            run_chaos(seed=7, jobs=2, store_url="sqlite:///:memory:",
                      external_workers=2, deadline=5)
        assert spawned == []


#: A stand-in for ``repro worker``: starts one child, writes the child's
#: pid to the file named by its last argument, and sleeps.
_TINY_WORKER = (
    "import subprocess, sys, time\n"
    "child = subprocess.Popen([sys.executable, '-c',"
    " 'import time; time.sleep(60)'])\n"
    "open(sys.argv[-1], 'w').write(str(child.pid))\n"
    "time.sleep(60)\n")


def _alive(pid: int) -> bool:
    """Running, not a zombie (the state field of ``/proc/<pid>/stat``)."""
    try:
        stat = open(f"/proc/{pid}/stat").read()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads /proc")
class TestWorkerProcesses:
    def test_no_process_a_worker_started_outlives_the_campaign(
            self, tmp_path, monkeypatch):
        # each spawned worker is a tiny process with one child, as a
        # worker with a pool has: the kill leg and the cleanup must both
        # take the children along
        popen = subprocess.Popen
        pidfiles = []

        def tiny(argv, **kwargs):
            pidfiles.append(tmp_path / f"child-{len(pidfiles)}")
            return popen([sys.executable, "-c", _TINY_WORKER,
                          str(pidfiles[-1])], **kwargs)

        monkeypatch.setattr(chaos.subprocess, "Popen", tiny)
        workers = [chaos._spawn_worker("sqlite:///unused.db", k,
                                       lease_seconds=1.0, engine_workers=0)
                   for k in range(2)]
        pids = [w.pid for w in workers]
        try:
            end = time.monotonic() + 30.0
            while not all(p.is_file() and p.read_text() for p in pidfiles):
                assert time.monotonic() < end, "tiny workers did not start"
                time.sleep(0.02)
            children = [int(p.read_text()) for p in pidfiles]
            pids += children
            progress = SimpleNamespace(store=SimpleNamespace(
                counts=lambda: {"done": 1}))
            chaos._worker_killer(progress, workers, 1, lambda msg: None)
            workers[0].wait(10.0)
            end = time.monotonic() + 10.0
            while _alive(children[0]) and time.monotonic() < end:
                time.sleep(0.02)
            assert not _alive(children[0]), "the killed worker's child"
            assert _alive(children[1])
            chaos._stop_workers(workers)
            end = time.monotonic() + 10.0
            while any(map(_alive, pids)) and time.monotonic() < end:
                time.sleep(0.02)
            assert [pid for pid in pids if _alive(pid)] == []
        finally:
            for pid in pids:
                with contextlib.suppress(OSError):
                    os.kill(pid, signal.SIGKILL)
            for w in workers:
                w.wait()
