"""Constructed points of the Section-4 n-fold IPs: each branch of the
packing, the exact acceptance check around it, flatness in ``m`` with
no IP solver, and decision equivalence with the solver-only path."""

from fractions import Fraction

import numpy as np
import pytest

from repro.core.instance import Instance
from repro.engine.runner import execute
from repro.fuzz.generators import draw_case
from repro.nfold import registry_solvers
from repro.ptas import nfold_builders
from repro.ptas.nfold_builders import (_cut_splittable, _first_fit_decreasing,
                                       _splittable_layout,
                                       build_nonpreemptive_nfold,
                                       build_splittable_nfold,
                                       nonpreemptive_nfold_with_point,
                                       splittable_nfold_with_point)

NFOLD_NAMES = ("nfold-splittable", "nfold-preemptive", "nfold-nonpreemptive")

#: The m=128 shape of the solver docs and the benchmark's n-fold cells.
LARGE_M = Instance((7, 5, 4, 3, 3, 2), (0, 0, 1, 1, 2, 2), 128, 2)


def _brick_parts(inst: Instance, T, q: int = 2):
    """The splittable point per brick as ``(configs, module sizes,
    buckets)``, read back through the layout."""
    nf, x = splittable_nfold_with_point(inst, T, q)
    assert x is not None and nf.is_feasible(x)
    _, lay = _splittable_layout(inst.normalized(), T, q)
    nK, nM, nB = lay.columns
    parts = []
    for u in range(nf.N):
        brick = nf.brick(x, u)
        parts.append((
            {lay.space.configs[k]: int(v)
             for k, v in enumerate(brick[:nK]) if v},
            {lay.totals[i]: int(v)
             for i, v in enumerate(brick[nK:nK + nM]) if v},
            [lay.buckets[i]
             for i, v in enumerate(brick[nK + nM:nK + nM + nB]) if v]))
    return parts


def _naive_ffd(counts: dict[int, int], slots: int, capacity: int):
    """Item-by-item first-fit decreasing: the reference for the run
    version."""
    bins: list[list[int]] = []
    for v in sorted(counts, reverse=True):
        for _ in range(counts[v]):
            for b in bins:
                if len(b) < slots and sum(b) + v <= capacity:
                    b.append(v)
                    break
            else:
                if v > capacity or slots < 1:
                    return None
                bins.append([v])
    out: dict[tuple, int] = {}
    for b in bins:
        ms = tuple(sorted({v: b.count(v) for v in b}.items(), reverse=True))
        out[ms] = out.get(ms, 0) + 1
    return out


class TestSplittableModules:
    def test_remainder_below_qc_replaces_one_full_module(self):
        # S = 13, T-bar = 12, qc = 2: r = 1 is no module, so one full
        # module becomes 11 + 2
        assert _cut_splittable(13, 12, 2) == {11: 1, 2: 1}
        ((configs, modules, _),) = _brick_parts(
            Instance((13,), (0,), 2, 1), Fraction(4))
        assert modules == {11: 1, 2: 1}
        assert configs == {((11, 1),): 1, ((2, 1),): 1}

    def test_remainder_at_least_qc_is_its_own_module(self):
        assert _cut_splittable(12 * 3 + 5, 12, 2) == {12: 3, 5: 1}
        assert _cut_splittable(24, 12, 2) == {12: 2}
        assert _cut_splittable(7, 12, 2) == {7: 1}


class TestPacking:
    def test_small_class_goes_into_first_bucket_with_room(self):
        # class 1 (load 1) is small: 2 units, placed beside a module
        parts = _brick_parts(Instance((13, 1), (0, 1), 2, 2), Fraction(4))
        (configs, modules, _), (_, small_modules, buckets) = parts
        assert modules == {22: 1, 4: 1} and not small_modules
        assert configs == {((22, 1),): 1, ((4, 1),): 1}
        # (4, 1) sorts before (22, 1) and has a free slot and room
        assert buckets == [(4, 1)]

    def test_more_modules_than_machines_uses_first_fit(self):
        # two 6-unit modules, one machine with two slots: one
        # configuration holds both
        configs = _brick_parts(Instance((3, 3), (0, 1), 1, 2),
                               Fraction(5))[0][0]
        assert configs == {((6, 2),): 1}

    def test_idle_machines_run_the_empty_configuration(self):
        inst = LARGE_M.with_machines(10**6)
        parts = _brick_parts(inst, Fraction(3, 125000))
        configs = parts[0][0]
        assert sum(configs.values()) == 10**6
        assert configs[()] == 10**6 - sum(
            k for cfg, k in configs.items() if cfg)

    def test_failed_packing_returns_none_and_the_solver_decides(self):
        # modules 24, 24, 16, 4 fill all three machines, so no bucket has
        # a free slot for the small class; HiGHS splits class 0 into two
        # 8-unit modules instead and accepts
        inst = Instance((4, 1, 13), (0, 1, 2), 3, 2)
        nf, point = splittable_nfold_with_point(inst, Fraction(2), 2)
        assert point is None
        x, backend = registry_solvers._solve_feasibility(nf, point)
        assert backend in ("dp", "highs")
        assert x is not None and nf.is_feasible(x)

    def test_infeasible_guess_has_no_point(self):
        # one class of load 13 on one machine at budget 3T = 12
        nf, point = splittable_nfold_with_point(
            Instance((13,), (0,), 1, 2), Fraction(4), 2)
        assert point is None
        assert registry_solvers._solve_feasibility(nf, point)[0] is None

    def test_rejected_point_falls_through_to_the_solver(self):
        nf, point = splittable_nfold_with_point(LARGE_M, Fraction(1, 4), 2)
        assert point is not None
        point = point.copy()
        point[0] += 1                       # one machine too many
        x, backend = registry_solvers._solve_feasibility(nf, point)
        assert backend in ("dp", "highs")
        assert x is not None and nf.is_feasible(x)

    @pytest.mark.parametrize("seed", range(40))
    def test_run_first_fit_matches_item_first_fit(self, seed):
        rng = np.random.default_rng([1919, seed])
        capacity = int(rng.integers(4, 40))
        slots = int(rng.integers(1, 5))
        sizes = rng.integers(1, capacity + 3, size=int(rng.integers(1, 6)))
        counts = {int(v): int(rng.integers(1, 12)) for v in sizes}
        assert _first_fit_decreasing(counts, slots, capacity) \
            == _naive_ffd(counts, slots, capacity)

    def test_run_first_fit_never_loops_over_items(self):
        bins = _first_fit_decreasing({24: 10**15, 10: 3 * 10**14 + 1,
                                      4: 7}, 2, 24)
        assert bins == {((24, 1),): 10**15, ((10, 2),): 15 * 10**13,
                        ((10, 1), (4, 1)): 1, ((4, 2),): 3}


class TestNonPreemptiveModules:
    def test_modules_are_enumerated_multisets(self):
        nf, x = nonpreemptive_nfold_with_point(LARGE_M, 7, 2)
        assert x is not None and nf.is_feasible(x)

    @pytest.mark.parametrize("q", [2, 3])
    def test_with_point_builds_the_same_program(self, q):
        inst = Instance((9, 7, 5, 4, 3, 1), (0, 0, 1, 1, 2, 2), 3, 2)
        nf, _ = nonpreemptive_nfold_with_point(inst, 12, q)
        ref = build_nonpreemptive_nfold(inst, 12, q)
        assert all(np.array_equal(a, b)
                   for a, b in zip(nf.A_blocks, ref.A_blocks))
        assert np.array_equal(nf.upper, ref.upper)
        nf, _ = splittable_nfold_with_point(inst, Fraction(12), q)
        ref = build_splittable_nfold(inst, Fraction(12), q)
        assert all(np.array_equal(a, b)
                   for a, b in zip(nf.A_blocks, ref.A_blocks))
        assert all(np.array_equal(a, b)
                   for a, b in zip(nf.b_local, ref.b_local))


class TestHighsFalseInfeasibility:
    """HiGHS with presolve reports this splittable IP infeasible; the
    constructed point shows it is not. The guess is a third of the
    warm lower bound 437/13223, so today's search never tries it."""

    INST = Instance((1, 4, 1453, 3, 726, 2, 1, 4, 2, 1, 2, 450, 3),
                    (0, 1, 0, 0, 0, 1, 1, 1, 1, 1, 0, 1, 1), 80246, 1)
    T = Fraction(437, 39669)

    def test_decision_accepts_with_a_feasible_point(self):
        nf, point = splittable_nfold_with_point(self.INST, self.T, 2)
        x, backend = registry_solvers._solve_feasibility(nf, point)
        assert backend == "constructed"
        assert x is not None and nf.is_feasible(x)


class TestFlatInMachines:
    """No IP solver runs for the benchmark's n-fold cells at any m."""

    @pytest.fixture(autouse=True)
    def no_solvers(self, monkeypatch):
        def refuse(nf):
            raise AssertionError("IP solver called")
        monkeypatch.setattr(registry_solvers, "solve_milp", refuse)
        monkeypatch.setattr(registry_solvers, "solve_dp", refuse)

    @pytest.mark.parametrize("m", [128, 4096, 10**6])
    @pytest.mark.parametrize("name,backend", [
        ("nfold-splittable", "constructed"),
        ("nfold-nonpreemptive", "constructed"),
        ("nfold-preemptive", "closed-form")])
    def test_backend(self, m, name, backend):
        rep = execute(LARGE_M.with_machines(m), name)
        assert rep.status == "ok", (rep.status, rep.error)
        assert rep.extra["backend"] == backend


FAMILIES = ("large-m-overlap", "uniform-tiny", "tight-budget",
            "near-infeasible", "fraction-stress")


def _comparable(rep) -> dict:
    d = rep.to_dict()
    d.pop("wall_time_s")
    d["extra"] = {k: v for k, v in d["extra"].items() if k != "backend"}
    return d


def _cases(family: str, count: int, max_slots: int) -> list[Instance]:
    """The first ``count`` seeded cases of ``family`` with at most
    ``max_slots`` class slots."""
    out: list[Instance] = []
    i = 0
    while len(out) < count:
        inst = draw_case(np.random.default_rng([190419, i]),
                         only=(family,)).instance
        if inst.class_slots <= max_slots:
            out.append(inst)
        i += 1
    return out


class TestDecisionEquivalence:
    """Constructed points change how guesses are decided, never what is
    decided: every report equals the solver-only one but for
    ``extra.backend``.

    Cases stay within the n-fold solvers' cap of three class slots. At
    epsilon = 1 (q = 7) three slots give ~7000 configurations per brick,
    whose solver-only side runs for tens of seconds per guess, so that
    accuracy is sampled at up to two slots."""

    @pytest.mark.parametrize("epsilon,max_slots", [(None, 3), (1, 2)])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_reports_match_solver_only(self, family, epsilon, max_slots,
                                       monkeypatch):
        kwargs = {} if epsilon is None else {"epsilon": epsilon}
        cases = _cases(family, 3, max_slots)
        with_points = [[execute(inst, name, kwargs) for name in NFOLD_NAMES]
                       for inst in cases]
        monkeypatch.setattr(nfold_builders, "_constructed_point",
                            lambda *args: None)
        for inst, reps in zip(cases, with_points):
            for name, rep in zip(NFOLD_NAMES, reps):
                ref = execute(inst, name, kwargs)
                assert _comparable(rep) == _comparable(ref), (inst, name)
                if ref.status == "ok" and rep.extra["backend"] in (
                        "dp", "highs"):
                    assert ref.extra["backend"] == rep.extra["backend"]
