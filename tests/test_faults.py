"""Tests for the deterministic fault-injection registry."""

import os
import pickle

import pytest

from repro.faults import injection
from repro.faults.injection import (FaultInjected, FaultPlan, FaultRule,
                                    KNOWN_SITES, parse_plan)


@pytest.fixture(autouse=True)
def _clean_registry(monkeypatch):
    """Every test starts with no plan, no env, and ends the same way."""
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    monkeypatch.delenv("REPRO_FAULTS_SEED", raising=False)
    injection.reset()
    yield
    injection.reset()


class TestParsePlan:
    def test_roundtrip(self):
        plan = parse_plan("worker_kill:0.1,chunk_raise:0.05", seed=7)
        assert plan.seed == 7
        assert plan.rules["worker_kill"].rate == 0.1
        assert plan.rules["chunk_raise"].rate == 0.05
        assert parse_plan(plan.spec(), 7).spec() == plan.spec()

    def test_arg_parses(self):
        plan = parse_plan("solve_delay:1:0.25")
        rule = plan.rules["solve_delay"]
        assert rule.rate == 1.0 and rule.arg == 0.25
        assert "solve_delay:1:0.25" == plan.spec()

    def test_empty_spec_is_empty_plan(self):
        assert parse_plan("").rules == {}
        assert parse_plan(" , ,").rules == {}

    @pytest.mark.parametrize("bad", [
        "worker_kill",              # no rate
        "worker_kill:0.1:2:3",      # too many fields
        "not_a_site:0.1",           # unknown site
        "worker_kill:nan%",         # unparsable rate
        "worker_kill:1.5",          # rate out of range
        "worker_kill:-0.1",
        "solve_delay:0.5:xyz",      # unparsable arg
    ])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_plan(bad)

    def test_known_sites_documented(self):
        # every site is a valid spec target
        for site in KNOWN_SITES:
            assert parse_plan(f"{site}:0.5").rules[site].rate == 0.5


class TestDraws:
    def test_deterministic_sequence(self):
        a = FaultPlan([FaultRule("store_commit", 0.3)], seed=11)
        b = FaultPlan([FaultRule("store_commit", 0.3)], seed=11)
        seq_a = [a.draw("store_commit") is not None for _ in range(200)]
        seq_b = [b.draw("store_commit") is not None for _ in range(200)]
        assert seq_a == seq_b
        assert any(seq_a) and not all(seq_a)

    def test_seed_changes_sequence(self):
        a = FaultPlan([FaultRule("store_commit", 0.3)], seed=1)
        b = FaultPlan([FaultRule("store_commit", 0.3)], seed=2)
        seq_a = [a.draw("store_commit") is not None for _ in range(200)]
        seq_b = [b.draw("store_commit") is not None for _ in range(200)]
        assert seq_a != seq_b

    def test_rate_edges(self):
        plan = FaultPlan([FaultRule("chunk_raise", 1.0),
                          FaultRule("store_commit", 0.0)], seed=0)
        assert all(plan.draw("chunk_raise") for _ in range(10))
        assert not any(plan.draw("store_commit") for _ in range(10))

    def test_unknown_site_never_fires(self):
        plan = FaultPlan([FaultRule("chunk_raise", 1.0)], seed=0)
        assert plan.draw("worker_kill") is None


class TestActivation:
    def test_no_plan_no_fire(self):
        assert injection.should_fire("store_commit") is None
        injection.maybe_raise("store_commit")   # no-op

    def test_configure_and_restore(self):
        prev = injection.configure("store_commit:1", seed=3)
        assert prev is None
        with pytest.raises(FaultInjected) as exc:
            injection.maybe_raise("store_commit")
        assert exc.value.site == "store_commit"
        # restoring the previous (None) plan hands control back
        injection.configure(prev)
        assert injection.should_fire("store_commit") is None

    def test_env_activation_lazy(self):
        os.environ["REPRO_FAULTS"] = "chunk_raise:1"
        os.environ["REPRO_FAULTS_SEED"] = "9"
        try:
            assert injection.should_fire("chunk_raise") is not None
            assert injection.active_plan().seed == 9
            # a spec change is picked up without reset()
            os.environ["REPRO_FAULTS"] = "store_commit:1"
            assert injection.should_fire("chunk_raise") is None
            assert injection.should_fire("store_commit") is not None
        finally:
            del os.environ["REPRO_FAULTS"], os.environ["REPRO_FAULTS_SEED"]

    def test_configure_overrides_env(self):
        os.environ["REPRO_FAULTS"] = "chunk_raise:1"
        try:
            injection.configure("store_commit:1")
            assert injection.should_fire("chunk_raise") is None
            assert injection.should_fire("store_commit") is not None
        finally:
            del os.environ["REPRO_FAULTS"]

    def test_disabled_suppresses_this_thread(self):
        injection.configure("store_commit:1")
        with injection.disabled():
            assert injection.should_fire("store_commit") is None
            with injection.disabled():      # nests
                assert injection.should_fire("store_commit") is None
            assert injection.should_fire("store_commit") is None
        assert injection.should_fire("store_commit") is not None

    def test_fault_injected_pickles(self):
        exc = pickle.loads(pickle.dumps(FaultInjected("worker_kill")))
        assert isinstance(exc, FaultInjected)
        assert exc.site == "worker_kill"
        assert "worker_kill" in str(exc)

    def test_maybe_kill_worker_is_safe_in_parent(self):
        # rate 1, but we are not a pool worker: must NOT exit the process
        injection.configure("worker_kill:1")
        injection.maybe_kill_worker()
