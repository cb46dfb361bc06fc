"""Tests for the faithful N-fold constructions of Section 4."""

from fractions import Fraction

import pytest

from repro import Instance
from repro.core.errors import InfeasibleGuessError
from repro.nfold import parameters_of, solve_milp
from repro.ptas.nfold_builders import (build_nonpreemptive_nfold,
                                       build_splittable_nfold)
from repro.ptas.nonpreemptive import _solve_guess as np_guess
from repro.ptas.splittable import _solve_guess as sp_guess


@pytest.fixture
def micro() -> Instance:
    return Instance((4, 4, 3, 2, 5), (0, 0, 1, 1, 2), machines=2,
                    class_slots=2)


def compact_feasible_splittable(inst, T, q) -> bool:
    try:
        sp_guess(inst, Fraction(T), q)
        return True
    except InfeasibleGuessError:
        return False


def compact_feasible_nonpreemptive(inst, T, q) -> bool:
    try:
        np_guess(inst, T, q)
        return True
    except InfeasibleGuessError:
        return False


class TestSplittableNFold:
    def test_block_dimensions_match_paper(self, micro):
        nf = build_splittable_nfold(micro, Fraction(9), q=2)
        # s = 2 locally uniform constraints (the paper's (4), (5))
        assert nf.s == 2
        # one brick per class
        assert nf.N == micro.num_classes

    @pytest.mark.parametrize("T", [2, 5, 9, 18])
    def test_agrees_with_compact(self, micro, T):
        nf = build_splittable_nfold(micro, Fraction(T), q=2)
        nfold_ok = solve_milp(nf) is not None
        assert nfold_ok == compact_feasible_splittable(micro, T, 2)

    def test_infeasible_at_tiny_T(self, micro):
        # area 18 over 2 machines: T=1 gives budget 3 per machine — hopeless
        nf = build_splittable_nfold(micro, Fraction(1), q=2)
        assert solve_milp(nf) is None

    def test_parameters_reported(self, micro):
        nf = build_splittable_nfold(micro, Fraction(9), q=2)
        p = parameters_of(nf)
        assert p.N == 3 and p.t == nf.t and p.delta >= 1


class TestNonPreemptiveNFold:
    def test_block_dimensions(self, micro):
        nf = build_nonpreemptive_nfold(micro, 9, q=2)
        assert nf.N == micro.num_classes
        # s = |P| + 1 (paper Section 4.2)
        assert nf.s >= 2

    @pytest.mark.parametrize("T", [2, 5, 9, 18])
    def test_agrees_with_compact(self, micro, T):
        nf = build_nonpreemptive_nfold(micro, T, q=2)
        nfold_ok = solve_milp(nf) is not None
        assert nfold_ok == compact_feasible_nonpreemptive(micro, T, 2)

    def test_feasible_solution_is_integral_structure(self, micro):
        nf = build_nonpreemptive_nfold(micro, 9, q=2)
        x = solve_milp(nf)
        assert x is not None
        assert nf.is_feasible(x)
        # machine count covered: sum over bricks of x-part equals m via the
        # residual check already; spot-check objective is zero
        assert nf.objective(x) == 0
