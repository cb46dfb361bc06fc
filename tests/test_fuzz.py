"""Tests for the differential fuzzing subsystem itself."""

import json
import threading

import numpy as np
import pytest

from repro import Instance
from repro.api import Session
from repro.faults.injection import FaultInjected
from repro.fuzz import (GENERATORS, CorpusCase, draw_case, load_corpus_file,
                        run_campaign, run_oracle, save_corpus_file,
                        shrink_instance)
from repro.fuzz.generators import FuzzCase
from repro.fuzz.oracles import (DEFAULT_SOLVERS, Violation,
                                eligible_solvers, ground_truth,
                                reports_oracle)
from repro.registry import get_solver


@pytest.fixture(autouse=True)
def drainer_deaths(monkeypatch) -> list[threading.ExceptHookArgs]:
    """Campaigns run the faults oracle on every fifth small case, and its
    injected ``drainer_loop`` faults kill drainer threads by design; how
    many die depends on lease timing. Collect those deaths for the test
    to assert on; any other thread exception goes to the previous hook,
    which reports it."""
    deaths: list[threading.ExceptHookArgs] = []
    previous = threading.excepthook

    def hook(args: threading.ExceptHookArgs) -> None:
        if (isinstance(args.exc_value, FaultInjected)
                and args.exc_value.site == "drainer_loop"):
            deaths.append(args)
        else:
            previous(args)

    monkeypatch.setattr(threading, "excepthook", hook)
    return deaths


class TestGenerators:
    @pytest.mark.parametrize("name", sorted(GENERATORS))
    def test_generators_are_deterministic(self, name):
        gen = GENERATORS[name][0]
        a = gen(np.random.default_rng(42))
        b = gen(np.random.default_rng(42))
        assert a == b
        assert a.num_jobs >= 1

    def test_draw_case_deterministic_and_diverse(self):
        cases = [draw_case(np.random.default_rng([5, i]))
                 for i in range(60)]
        again = [draw_case(np.random.default_rng([5, i]))
                 for i in range(60)]
        assert cases == again
        assert len({c.generator for c in cases}) >= 4

    def test_near_infeasible_produces_both_sides(self):
        feas = {GENERATORS["near-infeasible"][0](
            np.random.default_rng(i)).is_feasible() for i in range(40)}
        assert feas == {True, False}

    def test_huge_m_exceeds_int64(self):
        insts = [GENERATORS["huge-m"][0](np.random.default_rng(i))
                 for i in range(10)]
        assert any(i.machines > 2**63 for i in insts)
        # the digest big-int fallback must not crash or collide trivially
        assert len({i.digest() for i in insts}) == len(set(insts))


class TestOracles:
    def test_reports_oracle_clean_on_feasible(self):
        inst = Instance((5, 3, 8, 6), (0, 0, 1, 2), 2, 2)
        specs = eligible_solvers(inst, DEFAULT_SOLVERS)
        assert not reports_oracle(inst, specs)

    def test_reports_oracle_catches_mislabelled_infeasible(self):
        # fabricate the pre-taxonomy world: an infeasible instance whose
        # report says "error" must be flagged
        inst = Instance((1, 1), (0, 1), 1, 1)
        spec = get_solver("splittable")
        from repro.engine.report import SolveReport
        fake = SolveReport(algorithm="splittable",
                           instance_digest=inst.digest(),
                           status="error", error="SolverError: boom")
        violations = reports_oracle(inst, [spec], reports=[fake])
        assert len(violations) == 1
        assert "instead of 'infeasible'" in violations[0].message

    def test_reports_oracle_catches_ratio_violation(self):
        inst = Instance((5, 3, 8, 6), (0, 0, 1, 2), 2, 2)
        spec = get_solver("nonpreemptive")
        from repro.engine.report import SolveReport
        fake = SolveReport(algorithm="nonpreemptive",
                           instance_digest=inst.digest(), status="ok",
                           makespan=100, guess=10, certified_ratio=10.0,
                           validated=True)
        violations = reports_oracle(inst, [spec], reports=[fake])
        assert any("exceeds the proven" in v.message for v in violations)

    def test_ground_truth_nonpreemptive_exact(self):
        inst = Instance((3, 3, 3, 3), (0, 0, 1, 1), 2, 1)
        opt, exact = ground_truth(inst, "nonpreemptive")
        assert exact and opt == 6

    def test_differential_oracle_clean(self):
        inst = Instance((4, 2, 5, 3), (0, 1, 0, 1), 2, 2)
        specs = eligible_solvers(inst, DEFAULT_SOLVERS)
        assert not run_oracle("differential", inst, specs)

    def test_fastpath_oracle_clean(self):
        inst = Instance((7, 11, 13, 5), (0, 1, 0, 2), 7, 2)
        specs = eligible_solvers(
            inst, ("splittable", "preemptive", "nonpreemptive", "lpt"))
        assert not run_oracle("fastpath", inst, specs)

    def test_fastpath_oracle_compares_schedules(self, monkeypatch):
        # a fast path that mirrors the machine order keeps the makespan,
        # the guess and every other report field: only the schedule
        # differs, and the oracle must see it
        import repro.approx.splittable as approx_splittable
        from repro.core.fastmath import fast_paths_enabled
        from repro.core.schedule import SplittableSchedule
        build = approx_splittable._build_explicit

        def mirrored(inst, T):
            sched, makespan = build(inst, T)
            if not fast_paths_enabled():
                return sched, makespan
            out = SplittableSchedule(sched.num_machines)
            for i, piece in sched.iter_pieces():
                out.assign(sched.num_machines - 1 - i, piece.job,
                           piece.amount)
            return out, makespan

        monkeypatch.setattr(approx_splittable, "_build_explicit", mirrored)
        inst = Instance((7, 11, 13, 5), (0, 1, 0, 2), 3, 2)
        (violation,) = run_oracle("fastpath", inst,
                                  eligible_solvers(inst, ("splittable",)))
        assert "extra" in violation.message

    def test_metamorphic_oracle_clean(self):
        inst = Instance((5, 9, 2, 7, 4, 6), (0, 1, 2, 3, 0, 2), 2, 2)
        specs = eligible_solvers(inst, DEFAULT_SOLVERS)
        assert not run_oracle(
            "metamorphic", inst, specs, None, np.random.default_rng(3))

    def test_unknown_oracle_rejected(self):
        inst = Instance((1,), (0,), 1, 1)
        with pytest.raises(ValueError, match="unknown oracle"):
            run_oracle("nope", inst, [])

    def test_eligibility_prunes_exponential_solvers(self):
        big = Instance(tuple([3] * 30), tuple([0] * 30), 5, 1)
        names = [s.name for s in eligible_solvers(big, DEFAULT_SOLVERS)]
        assert "brute-force" not in names
        assert "milp-nonpreemptive" not in names
        assert "splittable" in names


class TestShrinker:
    def test_shrinks_to_minimal_witness(self):
        # predicate: instance is infeasible (C > c*m) — the shrinker
        # should walk a 12-job instance down to two jobs
        inst = Instance(tuple([7] * 12), tuple(range(12)), 2, 3)
        assert not inst.is_feasible()
        small = shrink_instance(inst, lambda i: not i.is_feasible())
        assert not small.is_feasible()
        assert small.num_jobs == 2
        assert small.total_load == 2
        assert small.machines == 1

    def test_shrink_is_deterministic(self):
        inst = Instance(tuple([9] * 10), tuple(range(10)), 3, 2)
        pred = lambda i: not i.is_feasible()            # noqa: E731
        assert shrink_instance(inst, pred) == shrink_instance(inst, pred)

    def test_predicate_false_returns_input(self):
        inst = Instance((3, 4), (0, 1), 2, 2)
        assert shrink_instance(inst, lambda i: False) == inst


class TestCampaign:
    def test_small_campaign_clean_and_deterministic(self):
        a = run_campaign(seed=11, count=6, shrink=False)
        b = run_campaign(seed=11, count=6, shrink=False)
        assert a.cases_run == b.cases_run == 6
        assert not a.violations and not b.violations

    def test_campaign_through_pool_session(self):
        # the process-pool backend sees the same adversarial instances
        res = run_campaign(seed=3, count=4, shrink=False,
                           session=Session(workers=2))
        assert res.cases_run == 4
        assert not res.violations

    def test_time_budget_stops_early(self):
        res = run_campaign(seed=1, count=10**6, time_budget=2.0)
        assert res.out_of_budget
        assert res.cases_run < 10**6

    def test_campaign_finds_and_shrinks_planted_bug(self, monkeypatch):
        # plant the pre-PR taxonomy bug: the splittable solver raises a
        # bare RuntimeError on infeasible instances -> status 'error'
        import repro.approx.splittable as mod

        real = mod.solve_splittable

        def broken(inst, **kwargs):
            if not inst.is_feasible():
                raise RuntimeError("boom")
            return real(inst, **kwargs)

        monkeypatch.setattr(mod, "solve_splittable", broken)
        res = run_campaign(seed=7, count=40,
                           solvers=["splittable"], shrink=True)
        assert res.violations, "fuzzer missed the planted taxonomy bug"
        assert res.shrunk
        witness = res.shrunk[0]
        assert witness.oracle == "reports"
        assert witness.solver == "splittable"
        # the witness is minimal: you cannot be infeasible with fewer
        # than two unit jobs in two classes on one single-slot machine
        assert witness.instance.num_jobs == 2
        assert witness.instance.total_load == 2


class TestCorpusRoundTrip:
    def test_save_load_replay(self, tmp_path):
        case = CorpusCase(instance=Instance((2, 3), (0, 1), 2, 1),
                          oracles=("reports",), note="round-trip test",
                          source="test")
        path = save_corpus_file(str(tmp_path / "case.json"), case)
        loaded = load_corpus_file(path)
        assert loaded.instance == case.instance
        assert loaded.oracles == ("reports",)
        from repro.fuzz import replay_case
        assert replay_case(loaded) == []

    def test_bad_format_rejected(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"format": "nope", "instance": {}}))
        with pytest.raises(ValueError, match="not a repro-fuzz-corpus"):
            load_corpus_file(str(p))


class TestFuzzCLI:
    def test_cli_clean_run(self, capsys):
        from repro.__main__ import main
        assert main(["fuzz", "--seed", "11", "--count", "5",
                     "--no-shrink"]) == 0
        assert "0 violation(s)" in capsys.readouterr().err

    def test_cli_unknown_solver(self):
        from repro.__main__ import main
        with pytest.raises(SystemExit, match="unknown solver"):
            main(["fuzz", "--solvers", "nope", "--count", "1"])

    def test_cli_writes_artifacts_on_violation(self, tmp_path,
                                               monkeypatch, capsys,
                                               drainer_deaths):
        import repro.approx.splittable as mod
        from repro.__main__ import main

        def broken(inst, **kwargs):
            raise RuntimeError("planted")

        monkeypatch.setattr(mod, "solve_splittable", broken)
        artifacts = tmp_path / "artifacts"
        rc = main(["fuzz", "--seed", "2", "--count", "6",
                   "--solvers", "splittable", "--no-shrink",
                   "--artifacts", str(artifacts)])
        assert rc == 1
        # this seed's faults-oracle replay loses drainers to its
        # injected faults
        assert drainer_deaths, "the faults oracle killed no drainer"
        assert all(d.thread.name.startswith("repro-drainer")
                   for d in drainer_deaths)
        written = list(artifacts.glob("*.json"))
        assert written, "no counterexample artifact written"
        case = load_corpus_file(str(written[0]))
        assert case.solvers == ("splittable",)
        payload = json.loads(capsys.readouterr().out)
        assert payload["violations"]


def test_fuzzcase_tiny_flag():
    assert FuzzCase("x", Instance((1, 1), (0, 1), 2, 1)).tiny
    assert not FuzzCase("x", Instance(tuple([1] * 20),
                                      tuple([0] * 20), 2, 1)).tiny


def test_violation_is_json_safe():
    v = Violation("reports", "lpt", "msg", Instance((1,), (0,), 1, 1),
                  {"k": 1})
    json.dumps(v.to_dict())
