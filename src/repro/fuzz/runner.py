"""The seeded fuzz campaign: generate, check, shrink, report.

:func:`run_campaign` is what ``repro fuzz`` drives. Per case it draws an
adversarial instance (:mod:`repro.fuzz.generators`), runs the solver
sweep once through the caller's :class:`repro.api.Session` — so a
``workers > 0`` session fuzzes the process-pool backend with the same
instances — and feeds the reports to every applicable oracle. The first
failure of each distinct (oracle, solver) pair is minimised by
:mod:`repro.fuzz.shrinker` before it is reported, so what reaches a
human (or a CI artifact) is the smallest known witness.

Determinism: case ``i`` of seed ``s`` draws its *instance* from
``np.random.default_rng([s, i])`` and its oracle transforms from a
fresh ``default_rng(_case_seed(s, i))`` — re-running with the same seed
and count reproduces every instance, transform and violation exactly,
and a recorded witness replays under its single per-case seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from ..api import Session
from ..obs.log import get_logger
from ..obs.metrics import REGISTRY
from ..obs.trace import trace_context
from .generators import draw_case
from .oracles import (DEFAULT_SOLVERS, ORACLES, PTAS_SOLVERS, Violation,
                      _run_reports, differential_oracle,
                      eligible_solvers, fastpath_oracle, faults_oracle,
                      metamorphic_oracle, reports_oracle)
from .shrinker import shrink_instance

__all__ = ["FuzzResult", "run_campaign"]

#: Cases above these sizes skip the double-run oracles (fastpath and
#: metamorphic re-solve everything 2-5x).
_DOUBLE_RUN_MAX_JOBS = 64

#: The faults oracle spins up a private store+queue and replays the case
#: under injected faults — expensive, so only every Nth small case.
_FAULTS_EVERY = 5

_log = get_logger("repro.fuzz")

_FUZZ_CASES = REGISTRY.counter(
    "repro_fuzz_cases_total", "Adversarial fuzz cases executed.")
_FUZZ_VIOLATIONS = REGISTRY.counter(
    "repro_fuzz_violations_total", "Oracle violations found, by oracle.",
    labelnames=("oracle",))


@dataclass
class FuzzResult:
    """Outcome of one campaign."""

    seed: int
    cases_run: int = 0
    violations: list[Violation] = field(default_factory=list)
    shrunk: list[Violation] = field(default_factory=list)
    elapsed_s: float = 0.0
    out_of_budget: bool = False

    @property
    def ok(self) -> bool:
        return not self.violations


def _case_seed(seed: int, index: int) -> int:
    """One deterministic integer seed per case. The oracles draw their
    transforms from a *fresh* rng over this value (not the progressed
    generation rng), so a violation found at case ``i`` reproduces under
    ``default_rng(_case_seed(seed, i))`` — which is exactly what the
    shrinker validates with and what corpus replay re-draws from."""
    return seed * 1_000_003 + index


def _shrink_violation(violation: Violation, specs_names, session
                      ) -> Violation:
    """Minimise the violating instance: a candidate still fails when the
    same oracle reports the same (oracle, solver) pair on it, under the
    same per-case seed the violation was found with."""
    oracle = violation.oracle.split("-")[0] \
        if violation.oracle.startswith("metamorphic") else violation.oracle
    check = ORACLES[oracle]
    seed = violation.seed or 0

    def still_fails(cand) -> bool:
        try:
            specs = eligible_solvers(cand, specs_names)
            if not any(s.name == violation.solver for s in specs):
                return False
            found = check(cand, specs, session,
                          np.random.default_rng(seed))
            return any(v.solver == violation.solver
                       and v.oracle == violation.oracle for v in found)
        except Exception:               # noqa: BLE001 — shrink must not die
            return False

    small = shrink_instance(violation.instance, still_fails)
    if small == violation.instance:
        return violation
    # re-derive the violation on the minimised witness so the reported
    # message/details describe what gets committed to the corpus
    for v in check(small, eligible_solvers(small, specs_names), session,
                   np.random.default_rng(seed)):
        if v.solver == violation.solver and v.oracle == violation.oracle:
            return replace(v, seed=violation.seed)
    return violation                    # pragma: no cover - defensive


def run_campaign(seed: int = 0, count: int = 100, *,
                 solvers=None, include_ptas: bool = False,
                 generators=None,
                 session: Session | None = None,
                 time_budget: float | None = None,
                 shrink: bool = True,
                 progress=None) -> FuzzResult:
    """Run ``count`` seeded adversarial cases through every oracle.

    ``session`` carries the execution backend under test (defaults to a
    fresh in-process one; pass ``Session(workers=4)`` to fuzz the
    process-pool fan-out). ``time_budget`` (seconds) stops the campaign
    early — whatever ran is still fully deterministic. ``solvers``
    restricts the sweep to a subset of registry names; ``generators``
    restricts case drawing to the named generator families (how the
    nightly matrix dedicates a leg to e.g. ``large-m-overlap``).
    """
    t0 = time.monotonic()
    session = session or Session()
    names = tuple(solvers) if solvers else DEFAULT_SOLVERS
    if include_ptas:
        names += tuple(s for s in PTAS_SOLVERS if s not in names)
    only = tuple(generators) if generators else None
    result = FuzzResult(seed=seed)
    seen: set[tuple[str, str]] = set()

    # one trace spans the campaign: every solve report and log line it
    # produces carries the same id (both halves of a double-run oracle
    # stamp identically, so report comparisons are unaffected)
    with trace_context():
        _log.info("fuzz_campaign_started", seed=seed, count=count,
                  solvers=len(names))
        for i in range(count):
            if time_budget is not None \
                    and time.monotonic() - t0 > time_budget:
                result.out_of_budget = True
                break
            case = draw_case(np.random.default_rng([seed, i]), only=only)
            case_seed = _case_seed(seed, i)
            inst = case.instance
            specs = eligible_solvers(inst, names)
            if not specs:           # pragma: no cover - names all filtered
                continue

            def rng():
                # every oracle gets a *fresh* generator over the case
                # seed — matching what shrink validation and corpus
                # replay draw from
                return np.random.default_rng(case_seed)

            found: list[Violation] = []
            reports = _run_reports(inst, specs, session)
            found += reports_oracle(inst, specs, session, rng(),
                                    reports=reports)
            found += differential_oracle(inst, specs, session, rng(),
                                         reports=reports)
            if inst.num_jobs <= _DOUBLE_RUN_MAX_JOBS:
                fast_specs = [s for s in specs if s.kind != "exact"]
                found += fastpath_oracle(inst, fast_specs, session, rng())
                found += metamorphic_oracle(inst, specs, session, rng(),
                                            reports=reports)
                if i % _FAULTS_EVERY == 0 and inst.num_jobs <= 32:
                    found += faults_oracle(inst, fast_specs, session, rng())
            found = [replace(v, seed=case_seed) for v in found]

            result.cases_run += 1
            _FUZZ_CASES.inc()
            if not found:
                if progress is not None and (i + 1) % 25 == 0:
                    progress(f"[fuzz] {i + 1}/{count} cases, "
                             f"{len(result.violations)} violation(s)")
                continue
            result.violations += found
            for violation in found:
                _FUZZ_VIOLATIONS.inc(oracle=violation.oracle)
                _log.warning("fuzz_violation", case=i, oracle=violation.oracle,
                             solver=violation.solver, seed=case_seed)
            for violation in found:
                key = (violation.oracle, violation.solver)
                if key in seen:
                    continue
                seen.add(key)
                if progress is not None:
                    progress(f"[fuzz] case {i} ({case.generator}): "
                             f"{violation}")
                if shrink:
                    small = _shrink_violation(violation, names, session)
                    result.shrunk.append(small)
                    if progress is not None and \
                            small.instance != violation.instance:
                        si = small.instance
                        progress(f"[fuzz]   shrunk to n={si.num_jobs} "
                                 f"C={si.num_classes} m={si.machines} "
                                 f"c={si.class_slots}")
                else:
                    result.shrunk.append(violation)

        result.elapsed_s = time.monotonic() - t0
        _log.info("fuzz_campaign_finished", cases=result.cases_run,
                  violations=len(result.violations),
                  out_of_budget=result.out_of_budget,
                  elapsed_s=round(result.elapsed_s, 6))
    return result
