"""Tests for the PTAS shared machinery."""

import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import InfeasibleGuessError
from repro.ptas.common import (delta_for_epsilon, geometric_guess_search,
                               integral_guess_search)


class TestDelta:
    def test_reciprocal_integer(self):
        d = delta_for_epsilon(0.5)
        assert d.numerator == 1
        assert 1 / d == 14  # ceil(7 / 0.5)

    def test_eps_one(self):
        assert delta_for_epsilon(1) == Fraction(1, 7)

    def test_budget(self):
        assert delta_for_epsilon(1, budget=5) == Fraction(1, 5)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            delta_for_epsilon(0)
        with pytest.raises(ValueError):
            delta_for_epsilon(-1)

    def test_coarse_epsilon_floors_at_q2(self):
        # the coarse regime: eps > 1 is legal (this is where the registry
        # default epsilon lives) and never drops below the minimal grid
        assert delta_for_epsilon(1.5) == Fraction(1, 5)
        assert delta_for_epsilon(Fraction(7, 2)) == Fraction(1, 2)
        assert delta_for_epsilon(100) == Fraction(1, 2)


class TestIntegralSearch:
    def test_finds_threshold(self):
        calls = []

        def try_guess(T):
            calls.append(T)
            if T < 37:
                raise InfeasibleGuessError("no")
            return f"ok@{T}"

        g, art, tried = integral_guess_search(1, 100, try_guess)
        assert g == 37
        assert art == "ok@37"
        assert tried == len(calls)
        assert tried <= 8  # log2(100)

    def test_all_infeasible_raises(self):
        def try_guess(T):
            raise InfeasibleGuessError("no")

        with pytest.raises(InfeasibleGuessError, match=re.escape(
                "no feasible guess in [1, 10] — instance infeasible")):
            integral_guess_search(1, 10, try_guess)

    def test_single_point(self):
        g, art, _ = integral_guess_search(5, 5, lambda T: T)
        assert g == 5

    def test_lower_bound_accepted_in_one_probe(self):
        calls = []
        g, art, tried = integral_guess_search(
            10, 100, lambda T: calls.append(T) or f"ok@{T}")
        assert (g, art, tried, calls) == (10, "ok@10", 1, [10])


class TestGeometricSearch:
    def test_guess_within_delta_of_threshold(self):
        threshold = Fraction(50)

        def try_guess(T):
            if T < threshold:
                raise InfeasibleGuessError("no")
            return T

        delta = Fraction(1, 4)
        g, _, _ = geometric_guess_search(Fraction(10), Fraction(100), delta,
                                         try_guess)
        assert threshold <= g <= threshold * (1 + delta)

    def test_lower_bound_accepted_immediately(self):
        calls = []
        g, _, tried = geometric_guess_search(
            Fraction(10), Fraction(100), Fraction(1, 2),
            lambda T: calls.append(T) or T)
        assert (g, tried, calls) == (10, 1, [10])

    def test_rejects_nonpositive_lb(self):
        with pytest.raises(ValueError):
            geometric_guess_search(Fraction(0), Fraction(1), Fraction(1, 2),
                                   lambda T: T)


# --------------------------------------------------------------------- #
# the certificate under arbitrary acceptance
# --------------------------------------------------------------------- #

def _search(search, args, accept, index):
    """Run ``search`` with a ``try_guess`` that accepts exactly the grid
    indices in ``accept``; returns its result (or the raised error) and
    the guesses probed, in order."""
    calls: list = []

    def try_guess(T):
        calls.append(T)
        if index(T) not in accept:
            raise InfeasibleGuessError("no")
        return ("art", T)

    try:
        return search(*args, try_guess), calls
    except InfeasibleGuessError as exc:
        return exc, calls


def _check(search, args, accept, index, lb, ub):
    """The certificate every PTAS relies on, for ``accept`` and for the
    monotone acceptance set it contains."""
    monotone = frozenset(k for k in accept
                         if all(j in accept for j in range(k, index(ub) + 1)))
    for acc in (accept, monotone):
        result, calls = _search(search, args, acc, index)
        if isinstance(result, InfeasibleGuessError):
            # every probe was rejected, and the message is unchanged;
            # a monotone search misses no accepted point
            assert not any(index(T) in acc for T in calls)
            assert str(result) == \
                f"no feasible guess in [{lb}, {ub}] — instance infeasible"
            assert acc != monotone or not acc
            continue
        g, art, tried = result
        assert art == ("art", g)
        assert tried == len(calls) == len(set(calls))
        k = index(g)
        assert k in acc
        if g != lb:       # the grid predecessor was probed and rejected
            assert k - 1 not in acc and any(index(T) == k - 1 for T in calls)
        if acc == monotone:
            assert k == min(acc)              # the smallest accepted point


#: A window of up to 13 grid points and any acceptance set over them.
_windows = st.integers(0, 12).flatmap(
    lambda size: st.tuples(st.just(size),
                           st.frozensets(st.integers(0, size))))


class TestSearchCertificate:
    @given(lb=st.integers(0, 50), window=_windows)
    def test_integral(self, lb, window):
        size, accept = window
        _check(integral_guess_search, (lb, lb + size), accept,
               lambda T: T - lb, lb, lb + size)

    @given(lb=st.fractions(Fraction(1, 7), 40), q=st.integers(1, 5),
           window=_windows)
    def test_geometric(self, lb, q, window):
        size, accept = window
        grid = [lb * (1 + Fraction(1, q)) ** k for k in range(size + 1)]
        _check(geometric_guess_search, (lb, grid[-1], Fraction(1, q)),
               accept, grid.index, lb, grid[-1])
