"""Tests for the engine features the scheduling service leans on:
bounded thread-safe ReportCache, intra-batch dedup, and per-run
timeouts away from the main thread."""

import threading
from fractions import Fraction

import numpy as np
import pytest

from repro import Instance
from repro.engine import ReportCache, SolveReport, execute, run_batch
from repro.resultcache import DEFAULT_MAX_ENTRIES
from repro.workloads import uniform_instance


def _report(i: int) -> SolveReport:
    return SolveReport(algorithm="lpt", instance_digest=f"d{i}",
                       makespan=Fraction(i + 1, 3))


class TestCacheLRU:
    def test_default_is_bounded(self):
        assert ReportCache().max_entries == DEFAULT_MAX_ENTRIES

    def test_eviction_drops_least_recently_used(self):
        cache = ReportCache(max_entries=2)
        cache.put("a", _report(0))
        cache.put("b", _report(1))
        assert cache.get("a") is not None   # refresh a; b is now LRU
        cache.put("c", _report(2))
        assert len(cache) == 2
        assert cache.get("b") is None
        assert cache.get("a") is not None and cache.get("c") is not None

    def test_unbounded_opt_out(self):
        cache = ReportCache(max_entries=None)
        for i in range(DEFAULT_MAX_ENTRIES + 10):
            cache.put(f"k{i}", _report(i))
        assert len(cache) == DEFAULT_MAX_ENTRIES + 10

    def test_bad_bound_rejected(self):
        with pytest.raises(ValueError):
            ReportCache(max_entries=0)

    def test_eviction_falls_back_to_disk(self, tmp_path):
        cache = ReportCache(tmp_path, max_entries=1)
        cache.put("a", _report(0))
        cache.put("b", _report(1))      # evicts "a" from memory only
        assert cache.get("a") == _report(0)     # reloaded from disk
        assert cache.hit_rate == 1.0


class TestCacheConcurrency:
    def test_threads_sharing_one_disk_directory(self, tmp_path):
        """Many threads hammering one on-disk cache: every put must be
        readable, eviction must keep the dict bounded, and no write may
        tear (each JSON parses back to the exact report)."""
        cache = ReportCache(tmp_path, max_entries=8)
        n_threads, n_keys = 8, 40
        barrier = threading.Barrier(n_threads)
        failures: list[str] = []

        def _worker(tid: int) -> None:
            barrier.wait()
            for i in range(n_keys):
                key = f"key-{i}"
                cache.put(key, _report(i))
                got = cache.get(key)
                # a concurrent writer stores the *same* report, so any
                # non-miss read must round-trip exactly
                if got is not None and got != _report(i):
                    failures.append(f"t{tid} read torn value for {key}")

        threads = [threading.Thread(target=_worker, args=(t,))
                   for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures
        assert len(cache) <= 8
        # disk holds everything ever written; a fresh cache can read all
        fresh = ReportCache(tmp_path)
        for i in range(n_keys):
            assert fresh.get(f"key-{i}") == _report(i)

    def test_counters_do_not_race(self):
        cache = ReportCache(max_entries=None)
        cache.put("k", _report(0))
        n_threads, n_ops = 8, 200

        def _worker() -> None:
            for i in range(n_ops):
                cache.get("k")
                cache.get("missing")

        threads = [threading.Thread(target=_worker)
                   for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert cache.hits == n_threads * n_ops
        assert cache.misses == n_threads * n_ops
        assert cache.hit_rate == 0.5


class TestBatchDedup:
    @pytest.fixture
    def inst(self) -> Instance:
        return uniform_instance(np.random.default_rng(7), 12, 4, 3, 2)

    def test_duplicate_cells_solved_once(self, inst, tmp_path):
        cache = ReportCache(tmp_path)
        reps = run_batch([("a", inst), ("b", inst), ("c", inst)],
                         ["splittable"], workers=0, cache=cache)
        assert [r.instance_label for r in reps] == ["a", "b", "c"]
        assert [r.cached for r in reps] == [False, True, True]
        assert len({r.makespan for r in reps}) == 1
        # only the first cell ever touched the cache store
        assert len(list(tmp_path.glob("*.json"))) == 1

    def test_dedup_without_cache(self, inst):
        reps = run_batch([inst, inst], ["splittable", "lpt"], workers=0)
        assert [r.cached for r in reps] == [False, False, True, True]
        assert reps[2].makespan == reps[0].makespan
        assert reps[2].algorithm == "splittable"

    def test_dedup_in_process_pool(self, inst):
        reps = run_batch([inst] * 4, ["splittable"], workers=2)
        assert sum(not r.cached for r in reps) == 1
        assert len({r.makespan for r in reps}) == 1

    def test_distinct_kwargs_not_deduped(self, inst):
        reps = run_batch([inst], [("ptas-splittable", {"delta": 2}),
                                  ("ptas-splittable", {"delta": 3})],
                         workers=0)
        assert [r.cached for r in reps] == [False, False]
        assert reps[0].extra["delta"] != reps[1].extra["delta"]


class TestThreadTimeoutFallback:
    """`_alarm` cannot arm outside the main thread — exactly where the
    service's queue drainers run solver code inline. The watchdog-thread
    fallback must still produce real timeout reports there."""

    @pytest.fixture
    def hard(self) -> Instance:
        # n = 60: branch-and-bound must exhaust an astronomic tree to
        # *prove* optimality, so it can never finish inside the timeout.
        return uniform_instance(np.random.default_rng(3), 60, 8, 6, 2,
                                p_hi=1000)

    def test_timeout_fires_in_worker_thread(self, hard):
        out: dict = {}

        def _run() -> None:
            out["rep"] = execute(hard, "brute-force", timeout=0.2)

        t = threading.Thread(target=_run)
        t.start()
        t.join(timeout=30)
        assert not t.is_alive()
        assert out["rep"].status == "timeout"
        assert "0.2" in out["rep"].error
        assert out["rep"].wall_time_s < 10

    def test_fast_solve_unaffected_in_thread(self):
        inst = Instance((5, 3, 8, 6, 2), (0, 0, 1, 2, 2), 2, 2)
        out: dict = {}

        def _run() -> None:
            out["rep"] = execute(inst, "splittable", timeout=30)

        t = threading.Thread(target=_run)
        t.start()
        t.join(timeout=30)
        assert out["rep"].ok and out["rep"].validated

    def test_solver_error_propagates_through_fallback(self):
        inst = Instance((1, 1, 1), (0, 1, 2), 1, 2)     # infeasible
        out: dict = {}

        def _run() -> None:
            out["rep"] = execute(inst, "nonpreemptive", timeout=30)

        t = threading.Thread(target=_run)
        t.start()
        t.join(timeout=30)
        assert out["rep"].status == "infeasible"
