"""The ``nfold-*`` registry solvers: differential sandwich against exact
ground truth in the overlap region, the large-m regime claim, and the
query/service/backend plumbing around them."""

from fractions import Fraction

import numpy as np
import pytest

from repro.api import SolverQuery
from repro.core.instance import Instance
from repro.engine.runner import execute
from repro.fuzz.oracles import ground_truth
from repro.nfold import milp_backend
from repro.registry import find_solvers, get_solver
from repro.service.server import _solver_dict

NFOLD_NAMES = ("nfold-splittable", "nfold-preemptive", "nfold-nonpreemptive")
MILP_NAMES = ("milp-splittable", "milp-preemptive", "milp-nonpreemptive")

#: The m=128 shape from the solver docs: past every milp-* machine cap,
#: inside the nfold class/slot caps.
LARGE_M = Instance((7, 5, 4, 3, 3, 2), (0, 0, 1, 1, 2, 2), 128, 2)


def _overlap_instance(rng: np.random.Generator) -> Instance:
    """A shape where exact MILP ground truth exists (m <= 8, small n).

    ``c = 1``-heavy on purpose: single-slot machines make the per-class
    configuration spaces trivial, so 100 cases x 3 solvers x several
    guesses stay fast while still exercising the full search machinery.
    """
    n = int(rng.integers(2, 7))
    C = int(rng.integers(1, min(n, 3) + 1))
    m = int(rng.integers(1, 9))
    c = 1 if rng.random() < 0.7 else 2
    p = tuple(int(x) for x in rng.integers(1, 20, size=n))
    classes = list(range(C)) + [int(u) for u in rng.integers(0, C, n - C)]
    return Instance(p, tuple(classes), m, c)


class TestDifferentialSandwich:
    """OPT <= makespan <= (1+eps) * OPT with guess <= OPT, 100 seeds."""

    @pytest.mark.parametrize("name", NFOLD_NAMES)
    def test_sandwich_over_seeded_cases(self, name):
        spec = get_solver(name)
        checked = 0
        for i in range(100):
            rng = np.random.default_rng([990217, i])
            inst = _overlap_instance(rng)
            if not inst.is_feasible():
                continue
            gt = ground_truth(inst, spec.variant)
            if gt is None:
                continue
            opt, exact = gt
            raw = spec.solve(inst)
            assert raw.schedule is None     # value-only contract
            assert "fallback" not in raw.extra, \
                f"case {i}: enumeration cap tripped in-region: {raw.extra}"
            guess = Fraction(raw.guess)
            mk = Fraction(raw.makespan)
            tol = 0 if exact else Fraction(1, 10**6)
            assert guess <= opt * (1 + tol) + tol, \
                f"case {i} ({inst!r}): guess {guess} > OPT {opt}"
            assert mk * (1 + tol) + tol >= opt, \
                f"case {i} ({inst!r}): makespan {mk} beats OPT {opt}"
            eps = Fraction(raw.extra["epsilon"])
            assert mk <= (1 + eps) * guess
            checked += 1
        assert checked >= 60, f"only {checked}/100 cases had ground truth"

    def test_tighter_epsilon_never_worse(self):
        inst = Instance((9, 7, 5, 4, 3), (0, 0, 1, 1, 2), 3, 2)
        for name in NFOLD_NAMES:
            spec = get_solver(name)
            coarse = Fraction(spec.solve(inst, delta=2).makespan)
            fine = Fraction(spec.solve(inst, delta=5).makespan)
            assert fine <= coarse


class TestLargeMachineRegime:
    """m = 128: every milp-* is unsupported, every nfold-* solves."""

    @pytest.mark.parametrize("name", NFOLD_NAMES)
    def test_nfold_solves(self, name):
        rep = execute(LARGE_M, name)
        assert rep.status == "ok", (rep.status, rep.error)
        assert rep.makespan is not None
        assert Fraction(rep.makespan) >= Fraction(rep.guess)

    @pytest.mark.parametrize("name", MILP_NAMES)
    def test_milp_unsupported(self, name):
        spec = get_solver(name)
        if name == "milp-preemptive" or name == "milp-nonpreemptive":
            # the more-machines-than-jobs clamp keeps these in; the
            # regime claim is about literal large m on the splittable
            # MILP and any m past the clamped cap
            big = LARGE_M.with_machines(128)
            assert spec.supports(big) == (min(128, big.num_jobs) <= 64)
        else:
            assert not spec.supports(LARGE_M)
            assert execute(LARGE_M, name).status == "unsupported"

    def test_nfold_extra_reports_theorem1(self):
        rep = execute(LARGE_M, "nfold-nonpreemptive")
        nf = rep.extra["nfold"]
        assert set(nf) >= {"N", "r", "s", "t", "delta", "theorem1_log10"}
        assert nf["theorem1_log10"] > 0
        assert rep.extra["guesses_tried"] >= 1
        assert rep.extra["backend"] == "constructed"

    def test_machine_count_free_dimensions(self):
        # the same instance at m=128 and m=10**9 builds the same program
        rep_small = execute(LARGE_M, "nfold-nonpreemptive")
        rep_huge = execute(LARGE_M.with_machines(10**9),
                           "nfold-nonpreemptive")
        assert rep_huge.status == "ok"
        small_dims = {k: rep_small.extra["nfold"][k] for k in "rst"}
        huge_dims = {k: rep_huge.extra["nfold"][k] for k in "rst"}
        assert small_dims == huge_dims

    def test_machines_past_int64_unsupported(self):
        astro = LARGE_M.with_machines(10**40)
        for name in ("nfold-splittable", "nfold-nonpreemptive"):
            assert not get_solver(name).supports(astro)
            assert execute(astro, name).status == "unsupported"


class TestQueryThreading:
    def test_allow_nfold_filter(self):
        names = [s.name for s in find_solvers(variant="splittable")]
        assert "nfold-splittable" in names
        names = [s.name for s in find_solvers(variant="splittable",
                                              allow_nfold=False)]
        assert "nfold-splittable" not in names

    def test_query_field_roundtrip(self):
        q = SolverQuery(variant="nonpreemptive", allow_nfold=False)
        assert not any(s.needs_nfold for s in q.candidates())
        d = q.to_dict()
        assert d["allow_nfold"] is False
        assert SolverQuery.from_dict(d) == q

    def test_parse_no_nfold(self):
        q = SolverQuery.parse("variant=preemptive,no_nfold")
        assert q.allow_nfold is False and q.allow_milp is True
        with pytest.raises(ValueError, match="no_nfold"):
            SolverQuery.parse("bogus_flag")

    def test_nfold_ranked_after_dependency_free_ties(self):
        # among unproven-ratio solvers of one variant, the substrate-free
        # PTAS outranks the n-fold one at equal guarantee
        names = [s.name for s in find_solvers(variant="splittable")]
        assert names.index("ptas-splittable") \
            < names.index("nfold-splittable")

    def test_solver_dict_exposes_needs_nfold(self):
        d = _solver_dict(get_solver("nfold-preemptive"))
        assert d["needs_nfold"] is True and d["needs_milp"] is False
        assert d["restricted"] is True
        assert _solver_dict(get_solver("lpt"))["needs_nfold"] is False


class TestBackendDegradation:
    def test_missing_scipy_degrades_to_unsupported(self, monkeypatch):
        monkeypatch.setattr(milp_backend, "_BACKEND", None)
        monkeypatch.setattr(milp_backend, "_BACKEND_ERROR",
                            "No module named 'scipy'")
        assert not milp_backend.milp_available()
        spec = get_solver("nfold-splittable")
        assert not spec.supports(LARGE_M)
        rep = execute(LARGE_M, "nfold-splittable")
        assert rep.status == "unsupported"
        assert "scipy" in (rep.error or "")

    def test_preemptive_closed_form_survives_missing_backend(self,
                                                             monkeypatch):
        monkeypatch.setattr(milp_backend, "_BACKEND", None)
        monkeypatch.setattr(milp_backend, "_BACKEND_ERROR", "gone")
        inst = Instance((5, 3), (0, 1), 4, 1)       # m >= n: closed form
        assert get_solver("nfold-preemptive").supports(inst)
        rep = execute(inst, "nfold-preemptive")
        assert rep.status == "ok"
        assert rep.extra["backend"] == "closed-form"

    def test_milp_available_recovers_reality(self):
        # the real environment has scipy: the probe must say so
        assert milp_backend.milp_available()


class TestObservability:
    def test_guess_histogram_records_per_algorithm(self):
        from repro.nfold.registry_solvers import GUESSES_TRIED
        before = GUESSES_TRIED.snapshot(
            algorithm="nfold-splittable")["count"]
        raw = get_solver("nfold-splittable").solve(LARGE_M)
        after = GUESSES_TRIED.snapshot(
            algorithm="nfold-splittable")["count"]
        assert after == before + 1
        assert raw.extra["guesses_tried"] >= 1

    def test_histograms_render_in_exposition(self):
        from repro.obs.metrics import REGISTRY
        import repro.nfold.registry_solvers  # noqa: F401 — registers them
        text = REGISTRY.render()
        assert "# TYPE repro_nfold_augment_rounds histogram" in text
        assert "# TYPE repro_nfold_guesses_tried histogram" in text


class TestSplittableWarmStart:
    def test_m4096_builds_no_explicit_schedule(self, monkeypatch):
        # the warm window needs only Theorem 4's (guess, makespan); the
        # explicit round robin layout of 4096 machines is never built
        import repro.approx.splittable as approx

        def refuse(*args, **kwargs):
            raise AssertionError("_build_explicit called")

        monkeypatch.setattr(approx, "_build_explicit", refuse)
        rep = execute(LARGE_M.with_machines(4096), "nfold-splittable")
        assert rep.status == "ok", (rep.status, rep.error)
        assert Fraction(rep.guess) <= Fraction(rep.makespan)
