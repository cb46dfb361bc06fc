"""Probing the certified lower bound first changes how many guesses a
search tries, never which guess it returns: every ``ptas-*`` and
``nfold-*`` report equals the one the midpoint-first bisection gives,
but for ``extra.guesses_tried`` and ``wall_time_s``. Also pins the
configuration MILPs' one-pass CSR build against a ``lil_matrix`` build.
"""

from fractions import Fraction

import numpy as np
import pytest
from scipy.sparse import lil_matrix

from repro.core.errors import InfeasibleGuessError
from repro.engine.runner import execute
from repro.fuzz.generators import draw_case
from repro.nfold import registry_solvers
from repro.ptas import nonpreemptive, preemptive, splittable
from repro.ptas._milp_util import FeasibilityMILP
from repro.workloads import uniform_instance

NAMES = ("ptas-splittable", "ptas-preemptive", "ptas-nonpreemptive",
         "nfold-splittable", "nfold-preemptive", "nfold-nonpreemptive")
FAMILIES = ("uniform-tiny", "near-infeasible", "tight-budget",
            "heavy-tailed", "fraction-stress")

#: The benchmark's ``ptas40`` shape.
PTAS40 = uniform_instance(np.random.default_rng(0), n=40, C=8, m=6, c=2)


# --------------------------------------------------------------------- #
# the reference: midpoint-first bisection over the whole window
# --------------------------------------------------------------------- #

def _midpoint_integral(lb, ub, try_guess):
    tried = 0
    lo, hi = lb, ub
    best = None
    while lo <= hi:
        mid = (lo + hi) // 2
        tried += 1
        try:
            art = try_guess(mid)
        except InfeasibleGuessError:
            lo = mid + 1
            continue
        best = (mid, art)
        hi = mid - 1
    if best is None:
        raise InfeasibleGuessError(
            f"no feasible guess in [{lb}, {ub}] — instance infeasible")
    return best[0], best[1], tried


def _midpoint_geometric(lb, ub, delta, try_guess):
    lb, ub = Fraction(lb), Fraction(ub)
    step = 1 + Fraction(delta)
    kmax = 0
    v = lb
    while v < ub:
        v *= step
        kmax += 1
    tried = 0
    lo, hi = 0, kmax
    best = None
    while lo <= hi:
        mid = (lo + hi) // 2
        T = lb * step ** mid
        tried += 1
        try:
            art = try_guess(T)
        except InfeasibleGuessError:
            lo = mid + 1
            continue
        best = (T, art)
        hi = mid - 1
    if best is None:
        raise InfeasibleGuessError(
            f"no feasible guess in [{lb}, {ub}] — instance infeasible")
    return best[0], best[1], tried


def _use_midpoint_first(monkeypatch) -> None:
    for mod in (splittable, registry_solvers):
        monkeypatch.setattr(mod, "geometric_guess_search",
                            _midpoint_geometric)
    for mod in (preemptive, nonpreemptive, registry_solvers):
        monkeypatch.setattr(mod, "integral_guess_search", _midpoint_integral)


def _comparable(rep) -> dict:
    d = rep.to_dict()
    d.pop("wall_time_s")
    d["extra"] = {k: v for k, v in d["extra"].items()
                  if k != "guesses_tried"}
    return d


class TestDecisionEquivalence:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_fuzz_family(self, family, monkeypatch):
        cases = [draw_case(np.random.default_rng([20260820, i]),
                           only=(family,)).instance for i in range(3)]
        self._check(cases, NAMES, monkeypatch)

    def test_ptas40(self, monkeypatch):
        # ptas-preemptive is left out: the benchmark never runs it on
        # this shape, and its midpoint-first search takes ~3 s here
        names = tuple(n for n in NAMES if n != "ptas-preemptive")
        tried = self._check([PTAS40], names, monkeypatch)[0]
        for name in ("ptas-splittable", "ptas-nonpreemptive"):
            low_end_first, midpoint_first = tried[name]
            assert low_end_first == 1 < midpoint_first, name

    @staticmethod
    def _check(cases, names, monkeypatch) -> list[dict]:
        """Assert the reports match; per case, ``guesses_tried`` of each
        solver as ``(low end first, midpoint first)``."""
        new = [[execute(inst, name, keep_schedule=True) for name in names]
               for inst in cases]
        _use_midpoint_first(monkeypatch)
        tried = []
        for inst, reps in zip(cases, new):
            tried.append({})
            for name, rep in zip(names, reps):
                ref = execute(inst, name, keep_schedule=True)
                assert _comparable(rep) == _comparable(ref), (inst, name)
                tried[-1][name] = (rep.extra.get("guesses_tried"),
                                   ref.extra.get("guesses_tried"))
        return tried


# --------------------------------------------------------------------- #
# the constraint matrix HiGHS sees
# --------------------------------------------------------------------- #

def _lil_build(mp: FeasibilityMILP):
    A = lil_matrix((len(mp.rows), mp.n))
    for r, coeffs in enumerate(mp.rows):
        for k, v in coeffs.items():
            A[r, k] = v
    return A.tocsr()


def _assert_same(A, B) -> None:
    assert A.shape == B.shape
    assert np.array_equal(A.indptr, B.indptr)
    assert np.array_equal(A.indices, B.indices)
    assert np.array_equal(A.data, B.data)


def _has_negative_zero(mp: FeasibilityMILP) -> bool:
    return any(v == 0 and np.signbit(v)
               for coeffs in mp.rows for v in coeffs.values())


class TestConstraintMatrix:
    def test_zero_negative_zero_and_negative_coefficients(self):
        mp = FeasibilityMILP(6)
        mp.add_eq({3: 1.0, 0: -0.0, 5: -2.5, 1: 0.0}, 1.0)
        mp.add_le({}, 0.0)
        mp.add_le({4: 0.0, 2: 3.0, 0: -1.0}, 0.0)
        A = mp.matrix()
        _assert_same(A, _lil_build(mp))
        assert A.nnz == 4

    def test_ptas_nonpreemptive_rows(self, monkeypatch):
        # its slot rows carry -(c - b) = -0.0 for buckets with b == c
        seen = []
        build = FeasibilityMILP.matrix

        def checked(mp):
            A = build(mp)
            _assert_same(A, _lil_build(mp))
            seen.append(_has_negative_zero(mp))
            return A

        monkeypatch.setattr(FeasibilityMILP, "matrix", checked)
        rep = execute(PTAS40, "ptas-nonpreemptive")
        assert rep.status == "ok", rep.error
        assert any(seen)
