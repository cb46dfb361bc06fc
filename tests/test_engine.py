"""Tests for the execution engine: SolveReport, run_batch, caching."""

import dataclasses
import json
import threading
import time
from fractions import Fraction

import numpy as np
import pytest

from repro import Instance
from repro.engine import (ReportCache, SolveReport, cache_key, execute,
                          run_batch)
from repro.engine.report import _num_str
from repro.registry import UnknownSolverError, list_solvers
from repro.workloads import uniform_instance


@pytest.fixture
def inst_a() -> Instance:
    return uniform_instance(np.random.default_rng(11), 14, 4, 3, 2)


@pytest.fixture
def inst_b() -> Instance:
    return uniform_instance(np.random.default_rng(12), 16, 4, 3, 2)


class TestSolveReport:
    def test_json_roundtrip_with_fractions(self):
        rep = SolveReport(algorithm="splittable", instance_digest="d" * 64,
                          instance_label="x", variant="splittable",
                          makespan=Fraction(7, 3), guess=Fraction(5, 3),
                          certified_ratio=1.4, proven_ratio="2",
                          wall_time_s=0.25, validated=True,
                          extra={"pieces": 9})
        back = SolveReport.from_dict(json.loads(json.dumps(rep.to_dict())))
        assert back == rep
        assert back.makespan == Fraction(7, 3)

    def test_roundtrip_error_report(self):
        rep = SolveReport(algorithm="lpt", instance_digest="e" * 64,
                          status="error", error="boom")
        assert SolveReport.from_dict(rep.to_dict()) == rep

    def test_unknown_status_rejected(self):
        with pytest.raises(ValueError, match="unknown status"):
            SolveReport(algorithm="x", instance_digest="d", status="meh")

    def test_to_dict_matches_the_asdict_reference(self, inst_a):
        # to_dict builds its dict from the fields directly; the deep copy
        # of dataclasses.asdict, then the three overwrites, is the
        # reference it must match byte for byte
        def reference(rep):
            d = dataclasses.asdict(rep)
            d["makespan"] = _num_str(rep.makespan)
            d["guess"] = _num_str(rep.guess)
            d["extra"] = dict(rep.extra)
            return d

        tiny = Instance((5, 3, 8, 6, 2), (0, 0, 1, 2, 2), 2, 2)
        reports = [execute(inst, spec.name, label="x")
                   for inst in (tiny, inst_a) for spec in list_solvers()]
        assert {r.status for r in reports} >= {"ok"}
        for rep in reports:
            assert json.dumps(rep.to_dict()) == json.dumps(reference(rep))


class TestExecute:
    def test_validated_schedule(self, inst_a):
        rep = execute(inst_a, "nonpreemptive", label="a")
        assert rep.ok and rep.validated
        assert rep.certified_ratio == pytest.approx(
            float(Fraction(rep.makespan) / Fraction(rep.guess)))
        assert rep.certified_ratio <= 7 / 3 + 1e-9
        assert rep.instance_digest == inst_a.digest()

    def test_value_only_solver_not_validated(self):
        tiny = Instance((3, 4, 5), (0, 1, 0), 2, 2)
        rep = execute(tiny, "milp-nonpreemptive")
        assert rep.ok and not rep.validated
        assert rep.makespan is not None
        assert rep.certified_ratio == pytest.approx(1.0)

    def test_infeasible_status(self):
        # C = 3 classes but only c*m = 2 slots in total
        rep = execute(Instance((1, 1, 1), (0, 1, 2), 1, 2), "nonpreemptive")
        assert rep.status == "infeasible"
        assert "infeasible" in rep.error

    def test_unknown_solver_raises(self, inst_a):
        with pytest.raises(UnknownSolverError):
            execute(inst_a, "nope")


class TestRunBatch:
    def test_two_workers_full_grid(self, inst_a, inst_b):
        algos = ["splittable", "preemptive", "nonpreemptive"]
        reps = run_batch([("a", inst_a), ("b", inst_b)], algos, workers=2)
        assert len(reps) == 6
        # deterministic order: instances outermost, algorithms innermost
        assert [(r.instance_label, r.algorithm) for r in reps] == \
            [(lbl, alg) for lbl in ("a", "b") for alg in algos]
        assert all(r.ok and r.validated for r in reps)
        # every report must respect its own proven ratio certificate
        for r in reps:
            assert r.certified_ratio <= float(Fraction(r.proven_ratio)) + 1e-9

    # n = 60 jobs: the branch-and-bound brute force must exhaust an
    # astronomic search tree to *prove* optimality, so these can never
    # finish inside the timeout regardless of the random draw.

    def test_timeout_in_pool(self):
        big_a = uniform_instance(np.random.default_rng(3), 60, 8, 6, 2,
                                 p_hi=1000)
        big_b = uniform_instance(np.random.default_rng(4), 60, 8, 6, 2,
                                 p_hi=1000)
        reps = run_batch([big_a, big_b], ["brute-force"], workers=2,
                         timeout=0.2)
        assert [r.status for r in reps] == ["timeout", "timeout"]
        assert all("0.2" in r.error for r in reps)

    def test_timeout_inline(self):
        big = uniform_instance(np.random.default_rng(5), 60, 8, 6, 2,
                               p_hi=1000)
        (rep,) = run_batch([big], ["brute-force"], workers=0, timeout=0.2)
        assert rep.status == "timeout"

    def test_solver_crash_is_one_report(self, inst_a):
        # mcnaughton cannot take constrained instances -> the cell is
        # reported unsupported (skippable), not raised and not mislabeled
        # as the instance being infeasible
        reps = run_batch([inst_a], ["mcnaughton", "splittable"], workers=0)
        assert reps[0].status == "unsupported"
        assert reps[1].ok

    def test_empty_inputs_rejected(self, inst_a):
        with pytest.raises(ValueError):
            run_batch([], ["splittable"])
        with pytest.raises(ValueError):
            run_batch([inst_a], [])

    def test_algorithm_kwargs(self, inst_a):
        (rep,) = run_batch([inst_a], [("ptas-splittable", {"delta": 2})],
                           workers=0)
        assert rep.ok
        assert rep.extra["delta"] == "1/2"


class TestCache:
    def test_memory_cache_hits_across_batches(self, inst_a):
        cache = ReportCache()
        first = run_batch([inst_a], ["splittable"], workers=0, cache=cache)
        again = run_batch([inst_a], ["splittable"], workers=0, cache=cache)
        assert not first[0].cached and again[0].cached
        assert again[0].makespan == first[0].makespan

    def test_cache_keys_on_content_not_label(self, inst_a):
        cache = ReportCache()
        run_batch([("x", inst_a)], ["splittable"], workers=0, cache=cache)
        (rep,) = run_batch([("renamed", inst_a)], ["splittable"],
                           workers=0, cache=cache)
        assert rep.cached

    def test_kwargs_change_key(self, inst_a):
        k1 = cache_key(inst_a, "ptas-splittable", {"delta": 2})
        k2 = cache_key(inst_a, "ptas-splittable", {"delta": 3})
        assert k1 != k2

    def test_disk_cache_persists(self, tmp_path, inst_a):
        first = run_batch([inst_a], ["nonpreemptive"], workers=0,
                          cache=ReportCache(tmp_path))
        fresh = ReportCache(tmp_path)     # new process, same directory
        (rep,) = run_batch([inst_a], ["nonpreemptive"], workers=0,
                           cache=fresh)
        assert rep.cached and rep.makespan == first[0].makespan

    def test_timeouts_not_cached(self, tmp_path):
        big = uniform_instance(np.random.default_rng(6), 60, 8, 6, 2,
                               p_hi=1000)
        cache = ReportCache(tmp_path)
        (rep,) = run_batch([big], ["brute-force"], workers=0, timeout=0.2,
                           cache=cache)
        assert rep.status == "timeout"
        assert len(cache) == 0


class TestHighsDeadline:
    """A cell's timeout bounds HiGHS too: ``ptas-preemptive`` at ε = 1 on
    this near-infeasible fuzz case (n=7, C=6, m=3, c=2) spends about a
    minute inside one MILP call, where neither ``SIGALRM`` nor the
    watchdog thread can stop it."""

    TIMEOUT = 2.0

    @staticmethod
    def _case() -> Instance:
        from repro.fuzz.generators import draw_case
        return draw_case(np.random.default_rng([424242, 2]),
                         only=("near-infeasible",)).instance

    def _solve(self) -> SolveReport:
        return execute(self._case(), "ptas-preemptive", {"epsilon": 1},
                       timeout=self.TIMEOUT)

    def test_inline_report_arrives_on_time(self):
        t0 = time.monotonic()
        rep = self._solve()
        assert rep.status == "timeout"
        assert rep.error == f"exceeded {self.TIMEOUT:g}s"
        assert time.monotonic() - t0 < self.TIMEOUT + 2.0

    def test_solve_thread_stops_on_time(self):
        # off the main thread the solve runs on a "repro-solve-timeout"
        # thread; the report is on time either way, the thread must be
        # gone by then too instead of running HiGHS on
        def solve_threads() -> set[threading.Thread]:
            return {t for t in threading.enumerate()
                    if t.name == "repro-solve-timeout"}

        before = solve_threads()
        out: list[SolveReport] = []
        caller = threading.Thread(target=lambda: out.append(self._solve()))
        t0 = time.monotonic()
        caller.start()
        caller.join(self.TIMEOUT + 2.0)
        assert out and out[0].status == "timeout"
        ours = solve_threads() - before
        for t in ours:
            t.join(max(0.0, t0 + self.TIMEOUT + 2.0 - time.monotonic()))
        assert not any(t.is_alive() for t in ours)
