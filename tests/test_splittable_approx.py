"""Tests for the splittable 2-approximation (Theorem 4)."""

from fractions import Fraction

import numpy as np
import pytest

from repro import Instance, InfeasibleInstanceError, validate
from repro.approx.compact import CompactSplittableSchedule
from repro.approx.splittable import solve_splittable, splittable_value
from repro.core.schedule import SplittableSchedule
from repro.exact import opt_splittable
from repro.workloads import (adversarial_splittable_instance,
                             uniform_instance, zipf_instance)
from tests.conftest import random_suite


class TestGuarantee:
    @pytest.mark.parametrize("seed", range(12))
    def test_ratio_vs_guess(self, seed):
        rng = np.random.default_rng(seed)
        inst = uniform_instance(rng, n=25, C=6, m=4, c=2)
        res = solve_splittable(inst)
        mk = validate(inst, res.schedule)
        assert mk == res.makespan
        assert mk <= 2 * res.guess  # Theorem 4

    @pytest.mark.parametrize("seed", range(8))
    def test_ratio_vs_exact_optimum(self, seed):
        rng = np.random.default_rng(100 + seed)
        inst = zipf_instance(rng, n=10, C=3, m=3, c=2, p_hi=20)
        res = solve_splittable(inst)
        mk = float(validate(inst, res.schedule))
        assert mk <= 2 * opt_splittable(inst) + 1e-6

    def test_guess_lower_bounds_optimum(self):
        for inst in random_suite(6, n=10, C=3, m=3, c=2, p_hi=20):
            res = solve_splittable(inst)
            assert float(res.guess) <= opt_splittable(inst) + 1e-6

    def test_adversarial_family(self):
        inst = adversarial_splittable_instance(k=4, m=5)
        res = solve_splittable(inst)
        mk = validate(inst, res.schedule)
        assert mk <= 2 * res.guess


class TestStructure:
    def test_unconstrained_instance_balances(self):
        # c >= C: degenerates to fluid balancing; makespan <= LB + T but
        # with one class per machine split exactly it should be near LB
        inst = Instance((12, 12), (0, 1), 4, 2)
        res = solve_splittable(inst)
        validate(inst, res.schedule)
        assert res.makespan <= 2 * res.guess

    def test_single_machine(self):
        inst = Instance((3, 4), (0, 1), 1, 2)
        res = solve_splittable(inst)
        assert validate(inst, res.schedule) == 7

    def test_single_job(self):
        inst = Instance((5,), (0,), 3, 1)
        res = solve_splittable(inst)
        validate(inst, res.schedule)

    def test_infeasible_raises(self):
        inst = Instance((1, 1, 1), (0, 1, 2), 1, 2)
        with pytest.raises(InfeasibleInstanceError):
            solve_splittable(inst)

    def test_pieces_polynomial_in_n(self):
        rng = np.random.default_rng(5)
        inst = uniform_instance(rng, n=40, C=8, m=6, c=2)
        res = solve_splittable(inst)
        assert isinstance(res.schedule, SplittableSchedule)
        assert res.schedule.num_pieces() <= 3 * inst.num_jobs + \
            inst.class_slots * inst.machines

    def test_ratio_certificate(self):
        rng = np.random.default_rng(6)
        inst = uniform_instance(rng, n=15, C=4, m=3, c=2)
        res = solve_splittable(inst)
        assert res.ratio_certificate <= 2


class TestHugeMachineCounts:
    def test_compact_mode_triggers(self):
        inst = Instance(tuple([10**6] * 8), tuple([0] * 8), 2**40, 1)
        res = solve_splittable(inst, piece_cap=1000)
        assert isinstance(res.schedule, CompactSplittableSchedule)
        mk = validate(inst, res.schedule)
        assert mk == res.makespan
        assert mk <= 2 * res.guess

    def test_compact_spot_materialisation(self):
        inst = Instance(tuple([10**6] * 8), tuple([0] * 8), 2**40, 1)
        res = solve_splittable(inst, piece_cap=1000)
        sched = res.schedule
        pieces = sched.pieces_on(0)
        assert sum((p.amount for p in pieces), Fraction(0)) == sched.load(0)

    def test_explicit_and_compact_agree_on_makespan(self):
        # moderate m where both representations are buildable
        inst = Instance(tuple([100] * 6), tuple([0] * 6), 24, 1)
        res_explicit = solve_splittable(inst)
        compact = CompactSplittableSchedule.build(inst, res_explicit.guess)
        assert compact.validate_against(inst) == res_explicit.makespan

    def test_huge_m_runtime_logarithmic(self):
        # the algorithm must not iterate over machines
        import time
        inst = Instance(tuple([10**9] * 10), tuple(range(10)), 2**60, 2)
        t0 = time.perf_counter()
        res = solve_splittable(inst)
        assert time.perf_counter() - t0 < 5.0
        validate(inst, res.schedule)


class TestValueOnly:
    """``splittable_value`` returns ``solve_splittable``'s (guess,
    makespan) without building a schedule."""

    @staticmethod
    def _random_instance(rng: np.random.Generator) -> Instance:
        n = int(rng.integers(1, 14))
        C = int(rng.integers(1, n + 1))
        classes = list(range(C)) + [int(u) for u in rng.integers(0, C,
                                                                 n - C)]
        p_hi = int(rng.choice([10, 40, 10 ** 6]))
        p = [int(x) for x in rng.integers(1, p_hi, n)]
        m = int(rng.choice([1, 2, 3, int(rng.integers(1, 40)),
                            n + int(rng.integers(1, 10)),
                            10 ** int(rng.integers(3, 13))]))
        return Instance.create(p, classes, m, int(rng.integers(1, C + 1)))

    def test_matches_solve_splittable(self):
        rng = np.random.default_rng(2024)
        seen = {"m=1": 0, "m>n": 0, "compact": 0}
        checked = 0
        while checked < 400:
            inst = self._random_instance(rng)
            if not inst.normalized().is_feasible():
                continue
            # a tiny piece cap forces the compact layout whenever m > n
            cap = 4 if checked % 3 == 0 else 500_000
            res = solve_splittable(inst, piece_cap=cap)
            assert splittable_value(inst) == (res.guess, res.makespan), inst
            checked += 1
            seen["m=1"] += inst.machines == 1
            seen["m>n"] += inst.machines > inst.num_jobs
            seen["compact"] += isinstance(res.schedule,
                                          CompactSplittableSchedule)
        assert min(seen.values()) >= 20, seen

    def test_huge_m(self):
        inst = Instance(tuple([10**9] * 10), tuple(range(10)), 2**60, 2)
        res = solve_splittable(inst)
        assert splittable_value(inst) == (res.guess, res.makespan)

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleInstanceError):
            splittable_value(Instance((1, 1), (0, 1), 1, 1))
