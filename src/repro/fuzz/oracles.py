"""The fuzzer's oracles: what must *always* hold, for every instance.

Six families, each cheap enough to run thousands of times:

``reports``
    Universal report invariants. A provably infeasible instance
    (``C > c * m``) yields status ``infeasible`` from every solver — the
    uniform taxonomy, the bug class PR 5 unified. A feasible instance
    never yields ``error``/``infeasible`` from a guaranteed solver.
    Every ``ok`` schedule passed the authoritative validator, beats its
    own certified lower bound, and stays within its proven ratio.

``differential``
    Cross-solver ground truth: exact optima (``brute-force`` and the
    ``milp-*`` solvers) sandwich every approximation — ``OPT <=
    makespan <= ratio * OPT`` — and certified guesses never exceed OPT.

``fastpath``
    ``use_fast_paths(False)`` golden equivalence on *random* instances,
    not just committed goldens: the scaled-integer kernels must produce
    byte-identical reports, and byte-identical schedules, to the
    pure-Fraction reference.

``batch``
    ``solve_many`` (the engine's stacked multi-cell kernels) must be
    byte-identical to per-cell ``execute`` on random same-algorithm
    chunks built from the case instance and rng-drawn mutations of it.

``metamorphic``
    Structure-preserving transformations with known effect: adding a
    machine never worsens a certified bound, permuting jobs or
    relabeling classes changes nothing, scaling processing times scales
    results exactly (for the solvers whose search is scale-exact; the
    integral binary searches of ``nonpreemptive``/``ffd`` are documented
    exceptions and excluded).

``faults``
    Crash-safety: the case replayed through a job queue under injected
    ``store_commit``/``drainer_loop`` faults must end terminal (never
    stuck) and, when it completes, with reports byte-identical to a
    fault-free run — retries may never change exact Fraction results.

Oracles return :class:`Violation` records (JSON-safe, shrinkable)
instead of raising, so one campaign surfaces every distinct failure.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from ..core.fastmath import use_fast_paths
from ..core.instance import Instance
from ..engine.report import SolveReport
from ..engine.runner import execute
from ..io import instance_to_dict
from ..registry import SolverSpec, get_solver

__all__ = ["Violation", "ORACLES", "run_oracle", "eligible_solvers",
           "DEFAULT_SOLVERS", "ground_truth"]

#: Relative slack for comparisons against float-valued MILP optima.
FLOAT_TOL = 1e-6

#: The default fuzz sweep: every registry solver without an accuracy
#: knob. PTASes join via ``--include-ptas`` (they are MILP-backed and
#: dominate the runtime budget).
DEFAULT_SOLVERS = ("splittable", "preemptive", "nonpreemptive",
                   "milp-nonpreemptive", "milp-splittable",
                   "milp-preemptive", "brute-force",
                   "lpt", "greedy", "ffd", "round-robin", "mcnaughton",
                   "nfold-splittable", "nfold-preemptive",
                   "nfold-nonpreemptive")

PTAS_SOLVERS = ("ptas-splittable", "ptas-preemptive", "ptas-nonpreemptive")

#: Makespan is invariant under job permutation: these solvers place by
#: per-class loads or per-class sorted sizes, where permuting jobs
#: changes nothing observable. ``greedy`` (input-order dependent by
#: design) and ``lpt``/``ffd`` are excluded: their global LPT orders
#: break ties by job index, and two equal-size jobs of *different
#: classes* swapping rank changes the class-slot dynamics — the fuzzer
#: demonstrated an infeasible-to-ok status flip for ``lpt`` on exactly
#: such a tie.
PERMUTATION_INVARIANT = frozenset(
    {"splittable", "preemptive", "nonpreemptive",
     "round-robin", "mcnaughton", "brute-force",
     "nfold-splittable", "nfold-preemptive", "nfold-nonpreemptive"})

#: Makespan is invariant under a bijective relabeling of classes
#: (solvers only ever test class *equality*, never class order; the
#: job-order-sensitive heuristics qualify here because relabeling
#: leaves the job sequence untouched).
RELABEL_INVARIANT = PERMUTATION_INVARIANT | {"greedy", "lpt", "ffd"}

#: Makespan scales exactly when every p_j is multiplied by k. The
#: integral binary searches (``nonpreemptive``, ``ffd``,
#: ``nfold-nonpreemptive``) are excluded: their accepted guess for k*p
#: may legitimately differ from k times the guess for p (the scaled grid
#: is finer), changing the schedule. The fractional n-fold searches
#: qualify: their guess grids anchor at scale-equivariant warm bounds
#: and the rounded IPs are built from size/budget *ratios*, so the
#: accepted guess scales exactly.
SCALING_EXACT = frozenset({"splittable", "preemptive", "lpt", "greedy",
                           "round-robin", "mcnaughton", "brute-force",
                           "nfold-splittable", "nfold-preemptive"})

#: The certified guess T (a lower bound that only improves with more
#: machines) must be non-increasing in m.
GUESS_MONOTONE = frozenset({"splittable", "preemptive", "nonpreemptive"})

#: Exact optima are non-increasing in m.
MAKESPAN_MONOTONE = frozenset({"brute-force", "milp-nonpreemptive",
                               "milp-splittable", "milp-preemptive"})


@dataclass(frozen=True)
class Violation:
    """One oracle failure, carrying everything needed to reproduce it.

    ``seed`` is the rng seed the oracle drew its transforms from when it
    found (and re-validated) this witness — recorded into corpus files
    so replay re-draws exactly the failing transform.
    """

    oracle: str
    solver: str
    message: str
    instance: Instance
    details: Mapping[str, Any] = field(default_factory=dict)
    seed: int | None = None

    def to_dict(self) -> dict:
        return {"oracle": self.oracle, "solver": self.solver,
                "message": self.message,
                "instance": instance_to_dict(self.instance),
                "details": dict(self.details), "seed": self.seed}

    def __str__(self) -> str:    # pragma: no cover - cosmetic
        inst = self.instance
        return (f"[{self.oracle}] {self.solver} on n={inst.num_jobs} "
                f"C={inst.num_classes} m={inst.machines} "
                f"c={inst.class_slots}: {self.message}")


def eligible_solvers(inst: Instance,
                     names: Sequence[str]) -> list[SolverSpec]:
    """The subset of ``names`` worth running on ``inst``: exponential
    and MILP-backed solvers only at sizes where they terminate promptly;
    ``supports()``-rejected solvers stay in (their ``unsupported``
    reports are themselves under test)."""
    out = []
    for name in names:
        spec = get_solver(name)
        if spec.name == "brute-force" and not (
                inst.num_jobs <= 9 and min(inst.machines,
                                           inst.num_jobs) <= 4):
            continue
        if spec.needs_milp and not (inst.num_jobs <= 12
                                    and min(inst.machines,
                                            inst.num_jobs) <= 8):
            continue
        if spec.needs_nfold and not (inst.num_jobs <= 10
                                     and inst.num_classes <= 3
                                     and inst.class_slots <= 2):
            # every guess builds + solves a block ILP whose size is
            # exponential in (C, c); machine count is deliberately NOT
            # bounded here — large m is the regime these solvers claim
            continue
        out.append(spec)
    return out


def _frac(x) -> Fraction | None:
    return None if x is None else Fraction(x)


def _close_enough(lhs: Fraction, rhs: Fraction, exact: bool) -> bool:
    """``lhs <= rhs``, with relative slack when a float optimum is in
    play (the MILP values for the fractional regimes)."""
    if exact:
        return lhs <= rhs
    return float(lhs) <= float(rhs) * (1 + FLOAT_TOL) + FLOAT_TOL


def ground_truth(inst: Instance, variant: str,
                 session=None) -> tuple[Fraction, bool] | None:
    """``(OPT, exact)`` for ``inst`` in ``variant``, or ``None`` when no
    exact solver can take it. ``exact`` is ``False`` for the fractional
    MILP optima, which carry float rounding."""
    if variant == "nonpreemptive":
        specs = eligible_solvers(inst, ("brute-force",))
        if specs:
            rep = execute(inst, "brute-force")
            if rep.ok:
                return Fraction(rep.makespan), True
        specs = eligible_solvers(inst, ("milp-nonpreemptive",))
        if specs and specs[0].supports(inst):
            rep = execute(inst, "milp-nonpreemptive")
            if rep.ok:
                return Fraction(rep.makespan), True    # integral optimum
        return None
    name = f"milp-{variant}"
    specs = eligible_solvers(inst, (name,))
    if specs and specs[0].supports(inst):
        rep = execute(inst, name)
        if rep.ok:
            return Fraction(rep.makespan), False
    return None


# --------------------------------------------------------------------- #
# oracle: universal report invariants (the taxonomy oracle)
# --------------------------------------------------------------------- #

def _run_reports(inst: Instance, specs: Sequence[SolverSpec],
                 session) -> list[SolveReport]:
    """One report per solver, through the caller's Session (so a
    pool-backed session fuzzes the process-pool fan-out too)."""
    if session is not None:
        return session.solve_batch([inst],
                                   algorithms=[s.name for s in specs])
    return [execute(inst, s.name) for s in specs]


def reports_oracle(inst: Instance, specs: Sequence[SolverSpec],
                   session=None,
                   rng: np.random.Generator | None = None,
                   reports: Sequence[SolveReport] | None = None
                   ) -> list[Violation]:
    """Universal invariants over one report per solver."""
    if reports is None:
        reports = _run_reports(inst, specs, session)
    feasible = inst.is_feasible()
    out: list[Violation] = []
    for spec, rep in zip(specs, reports):
        viol = _check_one_report(inst, spec, rep, feasible)
        if viol is not None:
            out.append(viol)
    return out


def _check_one_report(inst: Instance, spec: SolverSpec, rep: SolveReport,
                      feasible: bool) -> Violation | None:
    def bad(message, **details):
        return Violation("reports", spec.name, message, inst,
                         {"status": rep.status, "error": rep.error,
                          **details})

    if not feasible:
        # the one uniform answer: the *instance* is infeasible — never a
        # crash, never a solver-specific exception leaking through. A
        # solver that cannot even take the instance (mcnaughton when
        # C > c) may say so, but only when its predicate agrees.
        if rep.status == "unsupported" and not spec.supports(inst):
            return None
        if rep.status != "infeasible":
            return bad(f"provably infeasible instance (C > c*m) reported "
                       f"{rep.status!r} instead of 'infeasible'")
        return None
    if rep.status == "timeout":
        return None                     # budget artefact, not a bug
    if rep.status == "unsupported":
        if spec.supports(inst):
            return bad("reported unsupported although supports() accepts "
                       "the instance")
        return None
    if rep.status == "error":
        # no solver — baseline or not — may *crash* on a feasible
        # instance; dead-ending is a status, crashing is a bug
        return bad("solver crashed on a feasible instance")
    if spec.supports(inst) and spec.kind != "baseline" \
            and rep.status != "ok":
        # guaranteed solvers must schedule every feasible instance;
        # only no-guarantee baselines may dead-end
        return bad(f"feasible instance reported {rep.status!r}")
    if rep.status != "ok":
        return None
    if rep.makespan is None:
        return bad("ok report without a makespan")
    schedule_producing = spec.name not in ("milp-nonpreemptive",
                                           "milp-splittable",
                                           "milp-preemptive",
                                           "nfold-splittable",
                                           "nfold-preemptive",
                                           "nfold-nonpreemptive")
    if schedule_producing and not rep.validated:
        return bad("ok schedule skipped the authoritative validator")
    if rep.guess is not None and spec.kind != "ptas":
        # the certified reference value is a lower bound on what the
        # solver achieved (for exact solvers they are equal)
        if Fraction(rep.makespan) < Fraction(rep.guess) * (
                1 - FLOAT_TOL) - FLOAT_TOL:
            return bad(f"makespan {rep.makespan} beat the certified "
                       f"reference value {rep.guess}",
                       makespan=str(rep.makespan), guess=str(rep.guess))
    if spec.ratio is not None and rep.certified_ratio is not None:
        if rep.certified_ratio > float(spec.ratio) + FLOAT_TOL:
            return bad(f"certified ratio {rep.certified_ratio:.6f} "
                       f"exceeds the proven {spec.ratio_label}",
                       certified_ratio=rep.certified_ratio)
    return None


# --------------------------------------------------------------------- #
# oracle: cross-solver differential vs exact ground truth
# --------------------------------------------------------------------- #

def differential_oracle(inst: Instance, specs: Sequence[SolverSpec],
                        session=None,
                        rng: np.random.Generator | None = None,
                        reports: Sequence[SolveReport] | None = None
                        ) -> list[Violation]:
    """Exact optima sandwich every solver of the same variant."""
    if not inst.is_feasible():
        return []                       # the reports oracle owns this case
    opts: dict[str, tuple[Fraction, bool]] = {}
    for variant in {s.variant for s in specs}:
        gt = ground_truth(inst, variant)
        if gt is not None:
            opts[variant] = gt
    if not opts:
        return []
    out: list[Violation] = []
    if reports is None:
        reports = _run_reports(inst, specs, session)
    for spec, rep in zip(specs, reports):
        if spec.variant not in opts or not rep.ok or rep.makespan is None:
            continue
        opt, exact = opts[spec.variant]
        makespan = Fraction(rep.makespan)

        def bad(message, **details):
            out.append(Violation(
                "differential", spec.name, message, inst,
                {"opt": str(opt), "makespan": str(rep.makespan),
                 **details}))

        if not _close_enough(opt, makespan, exact):
            bad(f"makespan {rep.makespan} beats the optimum {opt} "
                f"({spec.variant})")
        if spec.ratio is not None \
                and not _close_enough(makespan, spec.ratio * opt, exact):
            bad(f"makespan {rep.makespan} exceeds {spec.ratio_label} * "
                f"OPT = {spec.ratio * opt}")
        if spec.kind == "ptas":
            eps = Fraction(rep.extra.get("epsilon", "0"))
            if not _close_enough(makespan, (1 + eps) * opt, False):
                bad(f"PTAS makespan {rep.makespan} exceeds (1+eps) * OPT "
                    f"with eps={eps}")
        if rep.guess is not None:
            if not _close_enough(Fraction(rep.guess), opt, exact):
                bad(f"certified lower bound {rep.guess} exceeds the "
                    f"optimum {opt}", guess=str(rep.guess))
    return out


# --------------------------------------------------------------------- #
# oracle: fast paths vs pure-Fraction reference
# --------------------------------------------------------------------- #

def _stripped(rep: SolveReport) -> dict:
    d = rep.to_dict()
    d.pop("wall_time_s", None)
    # trace ids are per-run observability metadata, not solver output;
    # both halves of a double-run normally stamp the same ambient id,
    # but never let a context boundary masquerade as a solver mismatch
    if isinstance(d.get("extra"), dict):
        d["extra"] = {k: v for k, v in d["extra"].items()
                      if k != "trace_id"}
    return d


def fastpath_oracle(inst: Instance, specs: Sequence[SolverSpec],
                    session=None,
                    rng: np.random.Generator | None = None
                    ) -> list[Violation]:
    """The scaled-integer fast paths must match the pure-Fraction
    reference byte for byte — on freshly generated instances, not just
    the committed goldens. Both sides keep their schedule, so its
    :mod:`repro.io` encoding (``extra["schedule"]``) is compared too: a
    piece placed elsewhere at an equal makespan is a mismatch."""
    out: list[Violation] = []
    for spec in specs:
        with use_fast_paths(True):
            fast = _stripped(execute(inst, spec.name, keep_schedule=True))
        with use_fast_paths(False):
            ref = _stripped(execute(inst, spec.name, keep_schedule=True))
        if fast != ref:
            diff = {k: (fast.get(k), ref.get(k))
                    for k in set(fast) | set(ref)
                    if fast.get(k) != ref.get(k)}
            out.append(Violation(
                "fastpath", spec.name,
                f"fast-path report diverges from reference on "
                f"{sorted(diff)}", inst,
                {"diff": {k: [repr(a), repr(b)]
                          for k, (a, b) in diff.items()}}))
    return out


# --------------------------------------------------------------------- #
# oracle: batched solve_many vs per-cell execute
# --------------------------------------------------------------------- #

def batch_oracle(inst: Instance, specs: Sequence[SolverSpec],
                 session=None,
                 rng: np.random.Generator | None = None
                 ) -> list[Violation]:
    """``solve_many`` must be byte-identical to per-cell ``execute``.

    Builds a random same-algorithm chunk — the case instance plus
    rng-drawn mutations of it (permutation, class relabeling, an extra
    machine) — and runs it through the stacked multi-cell kernels and
    through the scalar per-cell path. Any divergence in any report
    field (status, makespan, guess, extras, ...) is a violation: the
    batch transport must be invisible.
    """
    from ..engine.multicell import MULTI_CELL_ALGOS, solve_many
    rng = rng if rng is not None else np.random.default_rng(0)
    variants = [inst, _permuted(inst, rng), _relabeled(inst, rng),
                inst.with_machines(inst.machines + 1)]
    names = [spec.name for spec in specs]
    batched = [n for n in names if n in MULTI_CELL_ALGOS]
    # one foreign algorithm rides along to exercise the per-cell
    # fallback inside the same chunk
    foreign = [n for n in names if n not in MULTI_CELL_ALGOS]
    chunk_names = batched + ([str(rng.choice(foreign))] if foreign else [])
    cells = [(f"cell-{k}-{v}", variant, name, {})
             for v, variant in enumerate(variants)
             for k, name in enumerate(chunk_names)]
    if not cells:
        return []
    many = solve_many(cells)
    out: list[Violation] = []
    for (label, variant, name, kwargs), rep in zip(cells, many):
        ref = _stripped(execute(variant, name, kwargs, label=label))
        got = _stripped(rep)
        if got != ref:
            diff = {k: (got.get(k), ref.get(k))
                    for k in set(got) | set(ref)
                    if got.get(k) != ref.get(k)}
            out.append(Violation(
                "batch", name,
                f"solve_many report diverges from per-cell execute on "
                f"{sorted(diff)} (cell {label})", variant,
                {"diff": {k: [repr(a), repr(b)]
                          for k, (a, b) in diff.items()}}))
    return out


# --------------------------------------------------------------------- #
# oracle: metamorphic properties
# --------------------------------------------------------------------- #

def _permuted(inst: Instance, rng: np.random.Generator) -> Instance:
    perm = rng.permutation(inst.num_jobs)
    return Instance.create(
        [inst.processing_times[j] for j in perm],
        [inst.classes[j] for j in perm],
        inst.machines, inst.class_slots)


def _relabeled(inst: Instance, rng: np.random.Generator) -> Instance:
    relabel = rng.permutation(inst.num_classes)
    return Instance.create(
        list(inst.processing_times),
        [int(relabel[u]) for u in inst.classes],
        inst.machines, inst.class_slots)


def _scaled(inst: Instance, k: int) -> Instance:
    return Instance(tuple(p * k for p in inst.processing_times),
                    inst.classes, inst.machines, inst.class_slots,
                    inst.class_labels)


def metamorphic_oracle(inst: Instance, specs: Sequence[SolverSpec],
                       session=None,
                       rng: np.random.Generator | None = None,
                       reports: Sequence[SolveReport] | None = None
                       ) -> list[Violation]:
    """All four metamorphic relations on one instance. Pass the sweep's
    existing ``reports`` as the baseline to avoid re-solving (and to
    keep the baseline on the session's backend); the transformed twins
    always run inline."""
    rng = rng if rng is not None else np.random.default_rng(0)
    out: list[Violation] = []
    if reports is not None:
        base = {spec.name: rep for spec, rep in zip(specs, reports)}
    else:
        base = {spec.name: execute(inst, spec.name) for spec in specs}

    def compare(relation, other_inst, names, field_of):
        others = {spec.name: execute(other_inst, spec.name)
                  for spec in specs if spec.name in names}
        for name, other in others.items():
            a, b = base[name], other
            if a.status != b.status:
                out.append(Violation(
                    relation, name,
                    f"status changed {a.status!r} -> {b.status!r}", inst,
                    {"transformed": instance_to_dict(other_inst)}))
                continue
            if not a.ok:
                continue
            va, vb = field_of(a), field_of(b)
            if va != vb:
                out.append(Violation(
                    relation, name,
                    f"{relation} violated: {va} -> {vb}", inst,
                    {"transformed": instance_to_dict(other_inst),
                     "before": str(va), "after": str(vb)}))

    # (1) job-permutation invariance
    compare("metamorphic-permutation", _permuted(inst, rng),
            PERMUTATION_INVARIANT, lambda r: _frac(r.makespan))
    # (2) class-relabel invariance
    compare("metamorphic-relabel", _relabeled(inst, rng),
            RELABEL_INVARIANT, lambda r: _frac(r.makespan))
    # (3) processing-time scaling: makespan scales exactly by k
    k = int(rng.choice([2, 3, 7]))
    scaled = {spec.name: execute(_scaled(inst, k), spec.name)
              for spec in specs if spec.name in SCALING_EXACT}
    for name, other in scaled.items():
        a, b = base[name], other
        if a.status != b.status:
            out.append(Violation(
                "metamorphic-scaling", name,
                f"status changed {a.status!r} -> {b.status!r} under "
                f"p *= {k}", inst, {"k": k}))
        elif a.ok and _frac(a.makespan) * k != _frac(b.makespan):
            out.append(Violation(
                "metamorphic-scaling", name,
                f"makespan {a.makespan} * {k} != {b.makespan}", inst,
                {"k": k, "before": str(a.makespan),
                 "after": str(b.makespan)}))
    # (4) machine-count monotonicity: certified bounds never worsen
    more = inst.with_machines(inst.machines + 1)
    grown = {spec.name: execute(more, spec.name) for spec in specs
             if spec.name in GUESS_MONOTONE | MAKESPAN_MONOTONE}
    for name, other in grown.items():
        a = base[name]
        if not (a.ok and other.ok):
            continue
        if name in GUESS_MONOTONE \
                and _frac(other.guess) > _frac(a.guess):
            out.append(Violation(
                "metamorphic-machines", name,
                f"certified guess grew with an extra machine: "
                f"{a.guess} -> {other.guess}", inst,
                {"before": str(a.guess), "after": str(other.guess)}))
        if name in MAKESPAN_MONOTONE and not _close_enough(
                _frac(other.makespan), _frac(a.makespan),
                name == "brute-force"):
            out.append(Violation(
                "metamorphic-machines", name,
                f"optimum grew with an extra machine: "
                f"{a.makespan} -> {other.makespan}", inst,
                {"before": str(a.makespan), "after": str(other.makespan)}))
    return out


# --------------------------------------------------------------------- #
# oracle: retries under injected faults change nothing
# --------------------------------------------------------------------- #

def faults_oracle(inst: Instance, specs: Sequence[SolverSpec],
                  session=None,
                  rng: np.random.Generator | None = None
                  ) -> list[Violation]:
    """Replaying the instance through a faulting job queue must yield
    reports byte-identical to a clean inline run.

    Spins up an in-memory :class:`~repro.service.store.JobStore` +
    :class:`~repro.service.queue.JobQueue` with a short lease and an
    rng-seeded ``store_commit`` + ``drainer_loop`` fault plan, submits
    the case, and lets supervision (reclaim, backoff, drainer respawn)
    carry the job to a terminal state. A job that ends ``done`` must
    match the fault-free reports exactly — a crashed-and-retried solve
    may never change an exact Fraction result; quarantined/failed ends
    are legitimate under injected faults. A job still non-terminal at
    the deadline is the violation this oracle exists to catch.
    """
    from ..faults import injection
    from ..service.queue import JobQueue
    from ..service.store import TERMINAL_STATUSES, JobStore

    rng = rng if rng is not None else np.random.default_rng(0)
    names = [spec.name for spec in specs
             if not spec.needs_milp and not spec.needs_nfold
             and spec.name != "brute-force"][:3]
    if not names or not inst.is_feasible():
        return []

    def canon(rep: SolveReport) -> dict:
        d = _stripped(rep)
        d.pop("cached", None)   # a retry may hit the cache a prior
        return d                # attempt filled; the clean run cannot

    with injection.disabled():
        clean = [canon(execute(inst, name, label="faults"))
                 for name in names]

    seed = int(rng.integers(2 ** 31))
    prev = injection.configure("store_commit:0.4,drainer_loop:0.25",
                               seed=seed)
    store = JobStore(":memory:")
    queue = JobQueue(store, drainers=1, lease_seconds=0.2,
                     reclaim_interval=0.02, retry_backoff_base=0.01,
                     retry_backoff_cap=0.05, max_attempts=8)
    out: list[Violation] = []
    try:
        queue.start()
        job = queue.submit(inst, [(n, {}) for n in names], label="faults")
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            rec = store.get_job(job.id)
            if rec.status in TERMINAL_STATUSES:
                break
            time.sleep(0.01)
        else:
            rec = store.get_job(job.id)
        if rec.status not in TERMINAL_STATUSES:
            out.append(Violation(
                "faults", names[0],
                f"job stuck {rec.status!r} after 30s under injected "
                f"faults (attempts {rec.attempts}/{rec.max_attempts})",
                inst, {"seed": seed, "status": rec.status}))
        elif rec.status == "done":
            got = [canon(rep) for rep in store.reports_for(job.id)]
            for name, g, c in zip(names, got, clean):
                if g != c:
                    diff = {k: (g.get(k), c.get(k))
                            for k in set(g) | set(c)
                            if g.get(k) != c.get(k)}
                    out.append(Violation(
                        "faults", name,
                        f"retried report diverges from the clean run on "
                        f"{sorted(diff)}", inst,
                        {"seed": seed,
                         "diff": {k: [repr(a), repr(b)]
                                  for k, (a, b) in diff.items()}}))
        # quarantined/failed: legitimate under a 40% commit-fault plan
    finally:
        queue.stop(wait=True, grace=5.0)
        injection.configure(prev)
        store.close()
    return out


#: Oracle registry: what ``repro fuzz``, the corpus replayer and the
#: tests dispatch through. Metamorphic sub-relations share one entry —
#: a corpus case recorded under any ``metamorphic-*`` name replays the
#: whole family.
ORACLES: dict[str, Callable[..., list[Violation]]] = {
    "reports": reports_oracle,
    "differential": differential_oracle,
    "fastpath": fastpath_oracle,
    "batch": batch_oracle,
    "metamorphic": metamorphic_oracle,
    "faults": faults_oracle,
}


def run_oracle(name: str, inst: Instance, specs: Sequence[SolverSpec],
               session=None,
               rng: np.random.Generator | None = None) -> list[Violation]:
    """Run one oracle (family) by name."""
    key = name.split("-")[0] if name.startswith("metamorphic") else name
    try:
        oracle = ORACLES[key]
    except KeyError:
        raise ValueError(f"unknown oracle {name!r}; one of: "
                         f"{', '.join(sorted(ORACLES))}") from None
    return oracle(inst, specs, session, rng)
