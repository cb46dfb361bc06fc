"""Tests for the advanced border binary search (Lemma 2)."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.approx.borders import (_smallest_feasible_border_reference,
                                  advanced_binary_search, candidate_borders,
                                  count_threshold, smallest_feasible_border,
                                  split_count)


class TestSplitCount:
    def test_exact_divisions(self):
        assert split_count([12], Fraction(4)) == 3
        assert split_count([12], Fraction(5)) == 3
        assert split_count([12], Fraction(6)) == 2

    def test_sum_over_classes(self):
        assert split_count([10, 4], Fraction(5)) == 2 + 1

    def test_fractional_T(self):
        assert split_count([10], Fraction(10, 3)) == 3

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            split_count([1], Fraction(0))


class TestCandidateBorders:
    def test_small_case_exhaustive(self):
        # P=6, m=4: borders 6/1, 6/2, 6/3, 6/4
        got = candidate_borders([6], 4)
        assert got == sorted({Fraction(6, k) for k in range(1, 5)})

    def test_m_caps_k(self):
        got = candidate_borders([6], 2)
        assert Fraction(6, 3) not in got
        assert Fraction(6, 2) in got

    def test_matches_brute_force(self):
        P, m = 100, 60
        brute = sorted({Fraction(P, k) for k in range(1, min(P, m) + 1)})
        assert candidate_borders([P], m) == brute

    def test_cap_guards_huge_sets(self):
        with pytest.raises(ValueError):
            candidate_borders([10**9], 2**50, cap=1000)

    def test_huge_m_feasible_border_fast(self):
        import time
        t0 = time.perf_counter()
        b = smallest_feasible_border([10**9] * 5, 2**50, budget=10**6)
        assert b is not None and b > 0
        assert time.perf_counter() - t0 < 1.0


class TestSmallestFeasibleBorder:
    def test_monotone_threshold(self):
        # loads 12 and 6, budget 4: count(T) = ceil(12/T)+ceil(6/T)
        # T=6: 2+1=3 <= 4; T=4: 3+2=5 > 4; threshold between
        loads = [12, 6]
        border = smallest_feasible_border(loads, 10, 4)
        assert split_count(loads, border) <= 4
        # anything strictly below the border must be infeasible
        below = border - Fraction(1, 100)
        assert split_count(loads, below) > 4

    def test_infeasible_returns_none(self):
        assert smallest_feasible_border([1, 1, 1], 1, 2) is None

    @pytest.mark.parametrize("seed", range(10))
    def test_agrees_with_scan(self, seed):
        rng = np.random.default_rng(seed)
        loads = [int(x) for x in rng.integers(1, 60, size=4)]
        m, budget = 3, 6
        border = smallest_feasible_border(loads, m, budget)
        cands = candidate_borders(loads, m)
        feasible = [T for T in cands if split_count(loads, T) <= budget]
        assert border == min(feasible)


class TestAdvancedBinarySearch:
    def test_lower_bound_dominates(self):
        # border would be small, but LB forces the guess up
        got = advanced_binary_search([4], 4, 100, Fraction(10))
        assert got == Fraction(10)

    def test_border_dominates(self):
        got = advanced_binary_search([100], 2, 2, Fraction(1))
        assert got == Fraction(50)

    def test_infeasible(self):
        assert advanced_binary_search([1, 1, 1], 1, 2, Fraction(1)) is None


@st.composite
def border_cases(draw):
    """Loads with zeros and repeats, ``m`` up to 10**15, and the budgets
    at the window's edges: none, one short of the ``C'`` positive loads,
    exactly ``C'``, one spare, and ``c * m``."""
    loads = draw(st.lists(st.one_of(st.just(0), st.integers(1, 10**6)),
                          min_size=1, max_size=10))
    loads += draw(st.lists(st.sampled_from(loads), max_size=4))
    m = draw(st.one_of(st.integers(1, 10), st.integers(1, 10**15)))
    positive = sum(1 for P in loads if P > 0)
    c = draw(st.integers(1, 4))
    budget = draw(st.sampled_from(
        [0, max(positive - 1, 0), positive, positive + 1, c * m]))
    return loads, m, budget


class TestWindowedSearch:
    @given(border_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, case):
        loads, m, budget = case
        ref = _smallest_feasible_border_reference(loads, m, budget)
        assert smallest_feasible_border(loads, m, budget) == ref

    @given(border_cases())
    @settings(max_examples=200, deadline=None)
    def test_threshold_is_the_uncapped_border(self, case):
        # with m >= budget the k <= m cap never binds: every window
        # border has k <= P_u * budget / S <= budget
        loads, _, budget = case
        t0 = count_threshold(loads, budget)
        assert t0 == _smallest_feasible_border_reference(
            loads, max(budget, 1), budget)
        if t0 is not None:
            assert split_count(loads, t0) <= budget

    def test_float_ties_are_ordered_exactly(self):
        # (2**53 + 1)/1 and (3 * 2**53 + 1)/3 round to the same double
        # and enumerate in the wrong exact order; both lie in the window
        # of budget 5, and only the smaller one is the threshold
        loads = [2**53 + 1, 3 * 2**53 + 1]
        assert float(Fraction(loads[0], 1)) == float(Fraction(loads[1], 3))
        t0 = Fraction(loads[1], 3)
        assert count_threshold(loads, 5) == t0
        assert smallest_feasible_border(loads, 3, 5) == t0
        assert _smallest_feasible_border_reference(loads, 3, 5) == t0

    def test_cap_snaps_the_threshold(self):
        # budget 12 on [12, 6] gives T0 = 12/8 (8 + 4 slots); m = 3 caps
        # the larger class at k = 3, so the border is min(12/3, 6/3)
        assert count_threshold([12, 6], 12) == Fraction(3, 2)
        assert smallest_feasible_border([12, 6], 3, 12) == Fraction(2)
        assert _smallest_feasible_border_reference([12, 6], 3, 12) == 2
