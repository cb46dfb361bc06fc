"""Tests for the splittable PTAS (Theorems 10/11)."""

import numpy as np
import pytest

from repro import Instance, validate
from repro.core.bounds import splittable_lower_bound
from repro.core.errors import CapacityExceededError
from repro.exact import opt_splittable
from repro.ptas.splittable import ptas_splittable
from repro.workloads import uniform_instance


class TestGuarantee:
    @pytest.mark.parametrize("seed", range(5))
    def test_validates_and_bounded(self, seed):
        rng = np.random.default_rng(seed)
        inst = uniform_instance(rng, n=12, C=4, m=3, c=2, p_hi=20)
        res = ptas_splittable(inst, delta=3)
        mk = validate(inst, res.schedule)
        assert mk == res.makespan
        # worst-case analysis: makespan <= (1+5*delta)(1+delta) * OPT
        opt = opt_splittable(inst)
        assert float(mk) <= (1 + 5 / 3) * (1 + 1 / 3) * opt + 1e-6

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_quality_improves_with_q(self, q):
        rng = np.random.default_rng(77)
        inst = uniform_instance(rng, n=12, C=4, m=3, c=2, p_hi=20)
        res = ptas_splittable(inst, delta=q)
        mk = float(validate(inst, res.schedule))
        opt = opt_splittable(inst)
        # measured quality must stay within the theoretical envelope and
        # the envelope shrinks with q
        assert mk / opt <= 1 + 7 / q + 1e-9

    def test_epsilon_interface(self):
        rng = np.random.default_rng(5)
        inst = uniform_instance(rng, n=10, C=3, m=2, c=2, p_hi=15)
        res = ptas_splittable(inst, epsilon=1.0)
        mk = float(validate(inst, res.schedule))
        assert mk <= 2.0 * opt_splittable(inst) + 1e-6  # 1 + eps

    def test_guess_close_to_opt(self):
        rng = np.random.default_rng(6)
        inst = uniform_instance(rng, n=12, C=4, m=3, c=2, p_hi=20)
        res = ptas_splittable(inst, delta=3)
        # geometric search: guess <= (1+delta) * OPT
        assert float(res.guess) <= (1 + 1 / 3) * opt_splittable(inst) + 1e-6

    def test_guess_is_certified(self):
        for seed in range(4):
            inst = uniform_instance(np.random.default_rng(seed), n=9, C=3,
                                    m=3, c=2, p_hi=12)
            res = ptas_splittable(inst, delta=2)
            assert float(res.guess) <= opt_splittable(inst) + 1e-6
            assert splittable_lower_bound(inst) <= res.guess <= res.makespan


class TestInterface:
    def test_requires_exactly_one_accuracy(self, small_instance):
        with pytest.raises(ValueError):
            ptas_splittable(small_instance)
        with pytest.raises(ValueError):
            ptas_splittable(small_instance, epsilon=0.5, delta=3)

    def test_rejects_bad_delta(self, small_instance):
        with pytest.raises(ValueError):
            ptas_splittable(small_instance, delta=1)

    def test_machine_cap(self):
        inst = Instance((5, 5), (0, 1), 2**30, 1)
        with pytest.raises(CapacityExceededError):
            ptas_splittable(inst, delta=2)

    def test_small_classes_only(self):
        # every class tiny relative to T: pure small-class path
        inst = Instance((1, 1, 1, 1), (0, 1, 2, 3), 2, 2)
        res = ptas_splittable(inst, delta=2)
        validate(inst, res.schedule)

    def test_single_heavy_class(self):
        inst = Instance((100,), (0,), 4, 1)
        res = ptas_splittable(inst, delta=2)
        mk = float(validate(inst, res.schedule))
        assert mk <= (1 + 7 / 2) * 25 + 1e-6  # opt = 25
