"""Tests for the ``repro.api`` facade: request objects, capability
selection, and the three interchangeable backends."""

import functools
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from repro import Instance
from repro.api import (BatchRequest, InProcessBackend, ProcessPoolBackend,
                       Session, SolveRequest, SolverQuery)
from repro.engine import ReportCache
from repro.engine.runner import _execute_chunk
from repro.io import schedule_from_dict
from repro.registry import (NoMatchingSolverError, UnknownSolverError,
                            find_solvers, select_solver)

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


@pytest.fixture
def inst() -> Instance:
    return Instance((5, 3, 8, 6, 2), (0, 0, 1, 2, 2), 2, 2)


@pytest.fixture
def other() -> Instance:
    return Instance((7, 4, 4, 2), (0, 1, 1, 0), 2, 2)


# --------------------------------------------------------------------- #
# SolverQuery selection
# --------------------------------------------------------------------- #

class TestSolverQuery:
    def test_no_candidate_raises(self):
        q = SolverQuery(variant="splittable", kind="baseline", max_ratio=2)
        assert q.candidates() == []
        with pytest.raises(NoMatchingSolverError, match="no registered"):
            q.select()

    def test_tie_broken_by_best_ratio(self):
        # splittable(2) and nonpreemptive(7/3) both satisfy ratio<=3;
        # the tighter guarantee must win within the same cost tier
        q = SolverQuery(kind="approx", max_ratio=3)
        names = [s.name for s in q.candidates()]
        assert names.index("splittable") < names.index("nonpreemptive")
        assert q.select().ratio == Fraction(2)

    def test_exact_beats_constant_factor_without_budget(self):
        q = SolverQuery(variant="nonpreemptive")
        assert q.select().kind == "exact"

    def test_time_budget_excludes_expensive_kinds(self):
        q = SolverQuery(variant="nonpreemptive", time_budget=1.0)
        kinds = {s.kind for s in q.candidates()}
        assert kinds <= {"approx", "baseline"}
        assert q.select().name == "nonpreemptive"

    def test_allow_milp_false_drops_milp_solvers(self):
        q = SolverQuery(variant="splittable", allow_milp=False)
        assert all(not s.needs_milp for s in q.candidates())

    def test_epsilon_promotes_ptas(self):
        specs = find_solvers(variant="splittable", epsilon=0.5,
                             time_budget=60.0, allow_milp=True)
        names = [s.name for s in specs]
        # ratio-2 approx cannot certify 1.5; the PTAS and exact can
        assert "splittable" not in names
        assert "ptas-splittable" in names

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError, match="epsilon"):
            find_solvers(epsilon=0)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="unknown variant"):
            select_solver(variant="quantum")

    def test_max_ratio_accepts_fraction_string(self):
        q = SolverQuery(variant="nonpreemptive", max_ratio="7/3",
                        time_budget=1.0)
        assert q.max_ratio == Fraction(7, 3)
        assert q.select().name == "nonpreemptive"

    def test_ratio_bounds_parse_identically_everywhere(self):
        # registry queries and SolverQuery share one parser, decimal
        # strings included
        assert find_solvers(kind="approx", max_ratio="1.5") == []
        assert SolverQuery(max_ratio="1.5").max_ratio == Fraction(3, 2)
        with pytest.raises(ValueError, match="invalid ratio"):
            find_solvers(max_ratio="1/0")

    def test_invalid_queries_fail_at_construction(self):
        with pytest.raises(ValueError, match="unknown variant"):
            SolverQuery(variant="bogus")
        with pytest.raises(ValueError, match="unknown kind"):
            SolverQuery(kind="magic")
        with pytest.raises(ValueError, match="epsilon must be"):
            SolverQuery(epsilon=0)
        with pytest.raises(ValueError, match="time_budget must be"):
            SolverQuery(time_budget=-1)
        with pytest.raises(ValueError, match="invalid ratio"):
            SolverQuery(max_ratio="1/0")
        with pytest.raises(ValueError, match="ratio bound must be"):
            SolverQuery(max_ratio=0)

    def test_parse_round_trips_the_cli_form(self):
        q = SolverQuery.parse(
            "variant=nonpreemptive,max_ratio=7/3,no_milp,budget=5")
        assert q == SolverQuery(variant="nonpreemptive",
                                max_ratio=Fraction(7, 3),
                                allow_milp=False, time_budget=5.0)
        with pytest.raises(ValueError, match="cannot parse"):
            SolverQuery.parse("speed=warp")

    def test_dict_round_trip(self):
        q = SolverQuery(variant="preemptive", max_ratio=Fraction(7, 3),
                        epsilon=0.25, allow_milp=False, time_budget=2.0)
        assert SolverQuery.from_dict(q.to_dict()) == q
        with pytest.raises(ValueError, match="unknown query fields"):
            SolverQuery.from_dict({"varian": "preemptive"})


# --------------------------------------------------------------------- #
# SolveRequest / BatchRequest
# --------------------------------------------------------------------- #

class TestSolveRequest:
    def test_exactly_one_of_algorithm_and_query(self, inst):
        with pytest.raises(ValueError, match="exactly one"):
            SolveRequest(inst)
        with pytest.raises(ValueError, match="exactly one"):
            SolveRequest(inst, algorithm="lpt", query=SolverQuery())

    def test_canonical_json_round_trip(self, inst):
        req = SolveRequest(inst, algorithm="splittable",
                           label="rt", timeout=3.5, want_schedule=True)
        clone = SolveRequest.from_dict(json.loads(req.canonical_json()))
        assert clone == req
        assert clone.canonical_json() == req.canonical_json()

    def test_constructor_normalises_like_from_dict(self, inst):
        # an int timeout must serialise exactly like the float the
        # server's from_dict produces, or the byte-identity claim breaks
        req = SolveRequest(inst, algorithm="lpt", timeout=30)
        clone = SolveRequest.from_dict(json.loads(req.canonical_json()))
        assert clone.canonical_json() == req.canonical_json()
        assert isinstance(req.timeout, float)

    def test_non_positive_timeouts_rejected_everywhere(self, inst):
        # every backend sees the same request contract, so the check
        # lives in the request object, not per surface
        for bad in (0, -5, 0.0):
            with pytest.raises(ValueError, match="positive"):
                SolveRequest(inst, algorithm="lpt", timeout=bad)
        with pytest.raises(ValueError, match="positive"):
            BatchRequest.create([inst], ["lpt"], timeout=-1)

    def test_canonical_json_round_trip_with_query(self, inst):
        req = SolveRequest(inst, query=SolverQuery(
            variant="nonpreemptive", max_ratio="7/3", epsilon=0.5,
            allow_milp=False, time_budget=1.5))
        clone = SolveRequest.from_dict(json.loads(req.canonical_json()))
        assert clone.canonical_json() == req.canonical_json()

    def test_from_dict_rejects_unknown_fields(self, inst):
        d = SolveRequest(inst, algorithm="lpt").to_dict()
        d["prioritee"] = 3
        with pytest.raises(ValueError, match="unknown request fields"):
            SolveRequest.from_dict(d)

    def test_resolve_rejects_unaccepted_kwargs(self, inst):
        req = SolveRequest(inst, algorithm="lpt", kwargs={"delta": 2})
        with pytest.raises(TypeError, match="does not accept"):
            req.resolve()

    def test_query_epsilon_is_injected_into_ptas_kwargs(self, inst):
        req = SolveRequest(inst, query=SolverQuery(
            variant="splittable", epsilon=0.5))
        spec, kwargs = req.resolve()
        if spec.kind == "ptas":     # exact may outrank it
            assert kwargs["epsilon"] == 0.5

    def test_unknown_algorithm_fails_at_resolve(self, inst):
        with pytest.raises(UnknownSolverError, match="did you mean"):
            SolveRequest(inst, algorithm="splitable").resolve()


class TestBatchRequest:
    def test_create_normalises_and_resolves(self, inst, other):
        batch = BatchRequest.create(
            [inst, ("named", other)],
            ["lpt", ("ptas-splittable", {"delta": 2}),
             SolverQuery(variant="preemptive", time_budget=1.0)])
        assert [label for label, _ in batch.instances] == \
            ["instance-0", "named"]
        assert [name for name, _ in batch.algorithms] == \
            ["lpt", "ptas-splittable", "preemptive"]

    def test_empty_grid_rejected(self, inst):
        with pytest.raises(ValueError, match="at least one instance"):
            BatchRequest.create([], ["lpt"])
        with pytest.raises(ValueError, match="at least one algorithm"):
            BatchRequest.create([inst], [])

    def test_requests_flatten_in_grid_order(self, inst, other):
        batch = BatchRequest.create([("a", inst), ("b", other)],
                                    ["lpt", "greedy"], timeout=9.0)
        cells = batch.requests()
        assert [(r.label, r.algorithm) for r in cells] == \
            [("a", "lpt"), ("a", "greedy"), ("b", "lpt"), ("b", "greedy")]
        assert all(r.timeout == 9.0 for r in cells)


# --------------------------------------------------------------------- #
# Session over the local backends
# --------------------------------------------------------------------- #

class TestSessionLocal:
    def test_backend_selection(self):
        assert isinstance(Session().backend, InProcessBackend)
        assert isinstance(Session(workers=4).backend, ProcessPoolBackend)
        assert isinstance(Session("pool").backend, ProcessPoolBackend)
        with pytest.raises(ValueError, match="unknown backend"):
            Session("carrier-pigeon")

    def test_solve_instance_and_request_agree(self, inst):
        direct = Session().solve(inst, algorithm="splittable")
        via_req = Session().solve(SolveRequest(inst,
                                               algorithm="splittable"))
        assert direct.makespan == via_req.makespan
        assert direct.ok and direct.validated

    def test_solve_rejects_other_types(self):
        with pytest.raises(TypeError, match="SolveRequest or an Instance"):
            Session().solve("not-an-instance")

    def test_solve_rejects_options_alongside_a_request(self, inst):
        req = SolveRequest(inst, algorithm="lpt")
        with pytest.raises(TypeError, match="part of the SolveRequest"):
            Session().solve(req, timeout=5.0)
        with pytest.raises(TypeError, match="part of the SolveRequest"):
            Session().solve(req, want_schedule=True)

    def test_want_schedule_attaches_wire_schedule(self, inst):
        rep = Session().solve(inst, algorithm="nonpreemptive",
                              want_schedule=True)
        sched = schedule_from_dict(rep.extra["schedule"])
        assert sched.num_machines == inst.machines
        plain = Session().solve(inst, algorithm="nonpreemptive")
        assert "schedule" not in plain.extra

    def test_inline_and_pool_batches_agree(self, inst, other):
        batch = BatchRequest.create([("a", inst), ("b", other)],
                                    ["splittable", "lpt"])
        inline = Session().solve_batch(batch)
        pooled = Session(workers=2).solve_batch(batch)
        assert [(r.instance_label, r.algorithm, r.makespan)
                for r in inline] == \
            [(r.instance_label, r.algorithm, r.makespan) for r in pooled]

    def test_batch_kwargs_validation(self, inst):
        batch = BatchRequest.create([inst], ["lpt"])
        with pytest.raises(TypeError, match="part of the BatchRequest"):
            Session().solve_batch(batch, algorithms=["greedy"])
        with pytest.raises(TypeError, match="algorithms are required"):
            Session().solve_batch([inst])

    def test_stream_yields_every_cell(self, inst, other):
        got = list(Session().stream([("a", inst), ("b", other)],
                                    algorithms=["lpt", "greedy"]))
        assert [(r.instance_label, r.algorithm) for r in got] == \
            [("a", "lpt"), ("a", "greedy"), ("b", "lpt"), ("b", "greedy")]

    def test_pool_stream_completes_all_cells(self, inst, other):
        got = list(Session(workers=2).stream(
            [("a", inst), ("b", other)], algorithms=["lpt", "greedy"]))
        assert sorted((r.instance_label, r.algorithm) for r in got) == \
            [("a", "greedy"), ("a", "lpt"), ("b", "greedy"), ("b", "lpt")]

    def test_pool_stream_uses_the_cache_like_inline(self, inst, other):
        cache = ReportCache()
        session = Session(workers=2, cache=cache)
        batch = [("a", inst), ("b", other)]
        first = list(session.stream(batch, algorithms=["lpt"]))
        assert not any(r.cached for r in first) and len(cache) == 2
        again = list(session.stream(batch, algorithms=["lpt"]))
        assert all(r.cached for r in again)
        assert sorted(r.instance_label for r in again) == ["a", "b"]

    def test_remote_session_rejects_workers(self):
        with pytest.raises(ValueError, match="workers do not apply"):
            Session("http://127.0.0.1:1", workers=8)

    @pytest.mark.parametrize("workers", [0, 2])
    def test_stream_dedupes_identical_cells(self, inst, workers):
        # two labels, same instance content + algorithm: one solve,
        # the duplicate replayed as a relabelled cached report —
        # run_batch semantics on both stream backends
        got = list(Session(workers=workers).stream(
            [("a", inst), ("b", inst)], algorithms=["lpt"]))
        assert sorted(r.instance_label for r in got) == ["a", "b"]
        assert sorted(r.cached for r in got) == [False, True]
        assert got[0].makespan == got[1].makespan

    def test_inline_stream_keeps_grid_order_with_hits_and_duplicates(
            self, inst, other):
        cache = ReportCache()
        session = Session(cache=cache)
        session.solve_batch([("warm", other)], algorithms=["lpt"])
        grid = [("a", inst), ("b", other), ("c", inst), ("d", other)]
        got = list(session.stream(grid, algorithms=["greedy", "lpt"]))
        assert [(r.instance_label, r.algorithm) for r in got] == \
            [(label, algo) for label, _ in grid
             for algo in ("greedy", "lpt")]
        # b/lpt and d/lpt are cache hits; c and d repeat a and b
        assert [r.cached for r in got] == \
            [False, False, False, True, True, True, True, True]
        assert [r.makespan for r in got] == [r.makespan for r in Session(
            ).solve_batch(grid, algorithms=["greedy", "lpt"])]

    def test_pool_stream_submits_the_batch_chunks(self, monkeypatch):
        # stream and solve_batch share one engine path: one 8x3 grid is
        # one pool task per worker either way, not one per cell
        import numpy as np
        import repro.engine.runner as runner
        from repro.obs.metrics import REGISTRY
        from repro.workloads import uniform_instance
        monkeypatch.setattr(runner, "_usable_cores", lambda: 8)
        grid = [(f"g{k}", uniform_instance(np.random.default_rng(k), n=20,
                                           C=4, m=3, c=2))
                for k in range(8)]
        algos = ["splittable", "preemptive", "nonpreemptive"]
        tasks = REGISTRY.get("repro_pool_tasks_total")
        session = Session(workers=2)
        before = tasks.value()
        batch = session.solve_batch(grid, algorithms=algos)
        batch_tasks = tasks.value() - before
        before = tasks.value()
        streamed = list(session.stream(grid, algorithms=algos))
        stream_tasks = tasks.value() - before
        assert stream_tasks == batch_tasks == 2
        assert sorted((r.instance_label, r.algorithm, r.makespan)
                      for r in streamed) == \
            sorted((r.instance_label, r.algorithm, r.makespan)
                   for r in batch)

    def test_session_cache_is_wired_through(self, inst):
        cache = ReportCache()
        session = Session(cache=cache)
        first = session.solve_batch([("x", inst)], algorithms=["lpt"])
        again = session.solve_batch([("y", inst)], algorithms=["lpt"])
        assert not first[0].cached and again[0].cached
        # cache hits are relabelled to the requesting cell
        assert again[0].instance_label == "y"

    def test_single_solve_uses_the_session_cache(self, inst):
        cache = ReportCache()
        session = Session(cache=cache)
        first = session.solve(inst, algorithm="lpt")
        again = session.solve(inst, algorithm="lpt")
        assert not first.cached and again.cached
        # want_schedule must bypass the cache (cached reports carry none)
        with_sched = session.solve(inst, algorithm="lpt",
                                   want_schedule=True)
        assert not with_sched.cached and "schedule" in with_sched.extra

    def test_backend_object_passthrough(self, inst):
        backend = InProcessBackend()
        assert Session(backend).backend is backend
        with pytest.raises(ValueError, match="ignored when passing"):
            Session(backend, workers=3)


# --------------------------------------------------------------------- #
# Session.close
# --------------------------------------------------------------------- #

#: Drives a remote session against an in-process service; run under
#: ``-W error::ResourceWarning``, so a pooled connection left open when
#: the session is collected prints "ResourceWarning: unclosed <socket".
_REMOTE_SESSION_SCRIPT = """
import gc, sys
from repro import Instance
from repro.api import Session
from repro.service import SchedulingService

svc = SchedulingService("memory://", port=0, drainers=1).start()
try:
    inst = Instance((5, 3, 8, 6, 2), (0, 0, 1, 2, 2), 2, 2)
    session = Session(svc.url)
    if sys.argv[1] == "close":
        with session:
            session.solve(inst, algorithm="lpt")
            session.solve_batch([("a", inst)], algorithms=["splittable"])
    else:
        session.solve(inst, algorithm="lpt")
        session.solve_batch([("a", inst)], algorithms=["splittable"])
    del session
    gc.collect()
finally:
    svc.shutdown()
print("done")
"""


def _run_remote_session(mode: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-W", "error::ResourceWarning", "-c",
         _REMOTE_SESSION_SCRIPT, mode],
        env=env, capture_output=True, text=True, timeout=120)


class TestSessionClose:
    def test_closed_remote_session_leaks_no_connection(self):
        proc = _run_remote_session("close")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "done"
        assert "ResourceWarning" not in proc.stderr, proc.stderr

    def test_unclosed_remote_session_is_detected(self):
        # the control: the same script without close() does leak, so the
        # check above can fail
        proc = _run_remote_session("leak")
        assert proc.returncode == 0, proc.stderr
        assert "ResourceWarning: unclosed <socket" in proc.stderr

    def test_close_leaves_the_engine_pool_up(self, inst, other):
        from repro.engine.pool import pool_id
        with Session(workers=2) as session:
            got = list(session.stream([("a", inst), ("b", other)],
                                      algorithms=["lpt"]))
            live = pool_id()
        assert len(got) == 2
        assert live is not None and pool_id() == live

    def test_close_is_a_no_op_for_local_sessions(self, inst):
        session = Session()
        session.close()
        assert session.solve(inst, algorithm="lpt").status == "ok"


# --------------------------------------------------------------------- #
# pool stream: a dead worker
# --------------------------------------------------------------------- #

def _crash_once(sentinel, *args, **kwargs):    # pragma: no cover - worker
    """``runner._execute_chunk``, except that the first call of all
    kills its pool worker."""
    try:
        os.close(os.open(sentinel, os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return _execute_chunk(*args, **kwargs)
    os._exit(13)


def _crash_always(*args, **kwargs):    # pragma: no cover - dies in worker
    os._exit(13)


class TestPoolStreamWorkerDeath:
    ALGOS = ["splittable", "preemptive", "nonpreemptive"]

    @staticmethod
    def _grid():
        import numpy as np
        from repro.workloads import uniform_instance
        rng = np.random.default_rng(3)
        return [(f"u{k}", uniform_instance(rng, n=40, C=6, m=4, c=2))
                for k in range(8)]

    @staticmethod
    def _answers(reports):
        return sorted((r.instance_label, r.algorithm, r.status, r.makespan,
                       r.guess) for r in reports)

    def test_stream_survives_one_worker_death(self, tmp_path, monkeypatch):
        import repro.engine.runner as runner
        grid = self._grid()
        expected = Session().solve_batch(grid, algorithms=self.ALGOS)
        sentinel = tmp_path / "crashed"
        monkeypatch.setattr(runner, "_execute_chunk",
                            functools.partial(_crash_once, str(sentinel)))
        got = list(Session(workers=2).stream(grid, algorithms=self.ALGOS))
        assert sentinel.exists()        # a worker really died
        assert all(r.status == "ok" for r in got)
        assert self._answers(got) == self._answers(expected)

    def test_second_death_propagates(self, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool
        import repro.engine.runner as runner
        monkeypatch.setattr(runner, "_execute_chunk", _crash_always)
        with pytest.raises(BrokenProcessPool):
            list(Session(workers=2).stream(self._grid(),
                                           algorithms=self.ALGOS))
        # the next pooled call gets a fresh pool
        monkeypatch.undo()
        got = list(Session(workers=2).stream(self._grid()[:2],
                                             algorithms=["splittable"]))
        assert [r.status for r in got] == ["ok", "ok"]
