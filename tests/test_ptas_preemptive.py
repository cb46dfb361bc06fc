"""Tests for the preemptive PTAS (Theorem 19)."""

from fractions import Fraction

import networkx as nx
import numpy as np
import pytest

from repro import Instance, validate
from repro.core.errors import CapacityExceededError
from repro.exact import opt_preemptive
from repro.ptas.preemptive import build_lemma16_network, ptas_preemptive
from repro.workloads import uniform_instance


class TestGuarantee:
    @pytest.mark.parametrize("seed", range(4))
    def test_validates_and_bounded(self, seed):
        rng = np.random.default_rng(seed)
        inst = uniform_instance(rng, n=9, C=3, m=3, c=2, p_hi=15)
        res = ptas_preemptive(inst, delta=2)
        mk = validate(inst, res.schedule)  # checks self-parallelism too
        assert mk == res.makespan
        opt = opt_preemptive(inst)
        envelope = (1 + 3 / 2) * (1 + 1 / 4)  # T-bar factor at q=2
        # +envelope covers the ceil() when the true optimum is fractional
        assert float(mk) <= envelope * (opt + 1) + 1e-6

    def test_guess_at_most_ceil_opt(self):
        # The preemptive optimum may be fractional (the paper's integrality
        # remark is only true up to rounding); the integral search then
        # accepts at ceil(OPT) at the latest.
        rng = np.random.default_rng(21)
        inst = uniform_instance(rng, n=8, C=3, m=2, c=2, p_hi=12)
        res = ptas_preemptive(inst, delta=2)
        assert float(res.guess) <= opt_preemptive(inst) + 1 + 1e-6

    def test_guess_is_certified_below_fractional_opt(self):
        # c >= C, so McNaughton reaches the area bound 77/4 = OPT; the
        # accepted integral guess 20 is above it, the certificate is not
        inst = Instance((9, 11, 11, 9, 9, 9, 11, 8),
                        (0, 1, 1, 0, 2, 0, 2, 1), 4, 4)
        res = ptas_preemptive(inst, delta=2)
        assert res.guess <= Fraction(77, 4) <= res.makespan

    def test_never_parallel_with_itself(self):
        # heavy jobs that must be layered across machines
        inst = Instance((12, 12, 12, 5), (0, 0, 0, 1), 3, 2)
        res = ptas_preemptive(inst, delta=2)
        validate(inst, res.schedule)  # raises on self-parallelism


class TestManyMachines:
    def test_m_ge_n_optimal(self):
        inst = Instance((9, 4), (0, 1), 5, 1)
        res = ptas_preemptive(inst, delta=2)
        assert validate(inst, res.schedule) == 9

    def test_machine_cap(self):
        inst = Instance(tuple([3] * 40), tuple([i % 4 for i in range(40)]),
                        30, 2)
        with pytest.raises(CapacityExceededError):
            ptas_preemptive(inst, delta=2, machine_cap=8)


class TestLemma16Network:
    def test_flow_value_attained(self):
        """The max flow equals the total piece count when eligibility and
        capacities come from a feasible schedule shape (Lemma 16)."""
        inst = Instance((10, 10, 6), (0, 0, 1), 2, 2)
        T, q = 14, 2
        # both classes allowed everywhere, machine loads = half the work
        class_on = {(i, u): True for i in range(2) for u in range(2)}
        from fractions import Fraction
        loads = {0: Fraction(13), 1: Fraction(13)}
        G, total = build_lemma16_network(inst, T, q, class_on, loads)
        value, _ = nx.maximum_flow(G, "alpha", "omega")
        assert value == total

    def test_flow_blocked_without_eligibility(self):
        inst = Instance((10, 10, 6), (0, 0, 1), 2, 2)
        G, total = build_lemma16_network(inst, 14, 2, {}, {})
        value, _ = nx.maximum_flow(G, "alpha", "omega")
        assert value == 0
