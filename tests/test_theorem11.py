"""Tests for the Theorem 11 trivial-configuration machinery."""

import numpy as np
import pytest

from repro import validate
from repro.core.errors import InfeasibleGuessError
from repro.ptas.splittable import (_solve_guess, ptas_splittable,
                                   theorem11_nontrivial_bound)
from repro.workloads import uniform_instance


class TestBound:
    def test_formula(self):
        # C^2/2 + C with C*(C-1)/2 pairs: C=3 -> 3 + 3 = 6
        assert theorem11_nontrivial_bound(3) == 6
        assert theorem11_nontrivial_bound(1) == 1


class TestConstraintPreservesFeasibility:
    """The exchange argument (Figure 3) says restricting to few
    non-trivial configurations never removes all solutions — verified by
    comparing guess feasibility with and without the constraint."""

    @pytest.mark.parametrize("seed", range(5))
    def test_same_feasibility_frontier(self, seed):
        rng = np.random.default_rng(seed)
        inst = uniform_instance(rng, n=10, C=3, m=4, c=2, p_hi=15)
        from fractions import Fraction
        area = Fraction(inst.total_load, inst.machines)
        for factor in (Fraction(1, 2), Fraction(1), Fraction(3, 2),
                       Fraction(3)):
            T = area * factor
            def feas(t11):
                try:
                    _solve_guess(inst, T, 2, theorem11=t11)
                    return True
                except InfeasibleGuessError:
                    return False
            assert feas(False) == feas(True), (seed, float(T))

    @pytest.mark.parametrize("seed", range(3))
    def test_end_to_end_with_constraint(self, seed):
        rng = np.random.default_rng(100 + seed)
        inst = uniform_instance(rng, n=10, C=3, m=3, c=2, p_hi=15)
        res = ptas_splittable(inst, delta=2, theorem11=True)
        mk = validate(inst, res.schedule)
        assert mk == res.makespan
        baseline = ptas_splittable(inst, delta=2)
        # same guess accepted on the same grid
        assert res.guess == baseline.guess
