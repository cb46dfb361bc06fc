"""PTAS for non-preemptive CCS (Section 4.2, Theorem 14).

For a guess ``T``: group jobs so every class is large or small (Lemma 12),
round large sizes to multiples of ``delta^2 T``. *Modules* are now
multisets of job sizes (the jobs of one class sharing one class slot of a
machine); *configurations* are multisets of module **sizes**. The
configuration ILP assigns module counts per class (``y``), configuration
counts (``x``) and small-class placements (``z``); a solution is dissolved
configuration -> slots -> modules -> jobs (Figure 4 of the paper).

As in the splittable case we solve the compact equivalent of the paper's
N-fold ILP (same feasible schedules; see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..core.bounds import nonpreemptive_lower_bound, trivial_upper_bound
from ..core.errors import (CapacityExceededError, InfeasibleGuessError,
                           InfeasibleInstanceError)
from ..core.instance import Instance
from ..core.schedule import NonPreemptiveSchedule
from ._milp_util import FeasibilityMILP
from .common import PTASResult, integral_guess_search
from .configurations import (Multiset, build_configuration_space,
                             enumerate_bounded_multisets, multiset_total)
from .rounding import IntegralRounding, group_jobs, round_grouped
from .splittable import _resolve_q

__all__ = ["ptas_nonpreemptive"]

DEFAULT_MACHINE_CAP = 20_000

#: Most modules per class, and configurations, one guess may enumerate
#: before the PTAS gives up with
#: :class:`~repro.core.errors.CapacityExceededError`.
_ENUM_CAP = 200_000


@dataclass
class _GuessArtifact:
    rounding: IntegralRounding
    config_assign: list[tuple[Multiset, int]]       # (config, machine count)
    modules_per_class: dict[int, list[tuple[Multiset, int]]]
    small_assignment: dict[tuple[int, int], list[int]]


def ptas_nonpreemptive(inst: Instance,
                       epsilon: float | Fraction | None = None,
                       delta: Fraction | int | None = None,
                       machine_cap: int = DEFAULT_MACHINE_CAP) -> PTASResult:
    """(1 + eps)-approximation for non-preemptive CCS (Theorem 14)."""
    inst = inst.normalized()
    # feasibility first: an infeasible instance is 'infeasible' from
    # every solver, even one that is also over this PTAS's machine cap
    inst.require_feasible()
    q = _resolve_q(epsilon, delta)
    if inst.machines > machine_cap:
        raise CapacityExceededError("machines (explicit PTAS)",
                                    inst.machines, machine_cap)
    lb = nonpreemptive_lower_bound(inst)
    if lb < 0:    # pragma: no cover — ruled out by require_feasible
        raise InfeasibleInstanceError(inst.num_classes, inst.slot_budget())
    ub = int(trivial_upper_bound(inst))

    def try_guess(T: int) -> _GuessArtifact:
        return _solve_guess(inst, T, q)

    T, art, tried = integral_guess_search(lb, ub, try_guess)
    sched = _build_schedule(inst, art)
    dlt = Fraction(1, q)
    eps_out = Fraction(epsilon).limit_denominator(10**6) if epsilon is not None \
        else 7 * dlt
    return PTASResult(schedule=sched, guess=Fraction(T), epsilon=eps_out,
                      delta=dlt, makespan=Fraction(sched.makespan(inst)),
                      guesses_tried=tried)


def _solve_guess(inst: Instance, T: int, q: int) -> _GuessArtifact:
    grouped = group_jobs(inst, T, q)
    rnd = round_grouped(inst, grouped, T, q,
                        tbar_factor_num=(q + 3) * (q + 2),
                        tbar_factor_den=q * q,
                        per_class_slot_unit=True)
    c, m = inst.class_slots, inst.machines
    Tbar = rnd.Tbar_units
    min_piece = q * c  # delta*T in units
    c_star = min(c, Tbar // min_piece)

    # any grouped large job must fit a machine at all
    for u, g in enumerate(grouped.classes):
        if not g.is_small and rnd.large_sizes[u] and \
                max(rnd.large_sizes[u]) > Tbar:
            raise InfeasibleGuessError(
                f"a grouped job exceeds the machine budget at T={T}")

    large = [u for u in range(inst.num_classes)
             if not grouped.classes[u].is_small]
    small = [u for u in range(inst.num_classes)
             if grouped.classes[u].is_small]

    # per-class module enumeration (bounded by available job counts)
    class_modules: dict[int, list[Multiset]] = {}
    for u in large:
        counts = rnd.size_counts(u)
        vals = sorted(counts)
        mods = enumerate_bounded_multisets(
            vals, max_items=Tbar // min(vals), max_total=Tbar,
            max_count_per_value=[counts[v] for v in vals],
            cap=_ENUM_CAP, include_empty=False)
        class_modules[u] = mods

    lambda_set = sorted({multiset_total(ms)
                         for mods in class_modules.values()
                         for ms in mods})
    if not lambda_set and large:
        raise InfeasibleGuessError("no modules available")
    space = build_configuration_space(lambda_set or [min_piece], c_star,
                                      Tbar, cap=_ENUM_CAP)
    buckets = sorted(space.buckets)
    lam_index = {v: i for i, v in enumerate(lambda_set)}

    nK = space.num_configs
    nB = len(buckets)
    y_offsets: dict[int, int] = {}
    off = nK
    for u in large:
        y_offsets[u] = off
        off += len(class_modules[u])
    off_z = off
    nvar = off_z + len(small) * nB

    def xv(k):
        return k

    def yv(u, mi):
        return y_offsets[u] + mi

    def zv(ui, bi):
        return off_z + ui * nB + bi

    mp = FeasibilityMILP(nvar)
    for k in range(nK):
        mp.set_bounds(xv(k), 0, m)
    for u in large:
        for mi in range(len(class_modules[u])):
            mp.set_bounds(yv(u, mi), 0, m * c_star)
    for ui in range(len(small)):
        for bi in range(nB):
            mp.set_bounds(zv(ui, bi), 0, 1)

    # (0) machine count
    mp.add_eq({xv(k): 1.0 for k in range(nK)}, float(m))
    # (1) configurations cover module sizes
    for h in lambda_set:
        coeffs: dict[int, float] = {}
        for k, cfg in enumerate(space.configs):
            cnt = dict(cfg).get(h, 0)
            if cnt:
                coeffs[xv(k)] = float(cnt)
        for u in large:
            for mi, ms in enumerate(class_modules[u]):
                if multiset_total(ms) == h:
                    coeffs[yv(u, mi)] = -1.0
        mp.add_eq(coeffs, 0.0)
    # (4) modules cover the jobs of each large class, per size
    for u in large:
        counts = rnd.size_counts(u)
        for p, need in counts.items():
            coeffs = {}
            for mi, ms in enumerate(class_modules[u]):
                k_p = dict(ms).get(p, 0)
                if k_p:
                    coeffs[yv(u, mi)] = float(k_p)
            mp.add_eq(coeffs, float(need))
    # (5) small classes placed once
    for ui in range(len(small)):
        mp.add_eq({zv(ui, bi): 1.0 for bi in range(nB)}, 1.0)
    # (2)+(3) slots and space per bucket
    for bi, (h, b) in enumerate(buckets):
        ks = space.buckets[(h, b)]
        slot_coeffs = {zv(ui, bi): 1.0 for ui in range(len(small))}
        for k in ks:
            slot_coeffs[xv(k)] = -(float(c - b))
        mp.add_le(slot_coeffs, 0.0)
        space_coeffs = {zv(ui, bi): float(rnd.small_size[small[ui]])
                        for ui in range(len(small))}
        for k in ks:
            space_coeffs[xv(k)] = -(float(Tbar - h))
        mp.add_le(space_coeffs, 0.0)

    T_units = q * q * c
    objective = {xv(k): float(max(0, space.sizes[k] - T_units))
                 for k in range(nK)}
    sol = mp.solve(objective)
    if sol is None:
        raise InfeasibleGuessError(f"configuration ILP infeasible at T={T}")

    config_assign = [(space.configs[k], int(sol[xv(k)]))
                     for k in range(nK) if sol[xv(k)]]
    modules_per_class = {
        u: [(ms, int(sol[yv(u, mi)]))
            for mi, ms in enumerate(class_modules[u]) if sol[yv(u, mi)]]
        for u in large}
    small_assignment: dict[tuple[int, int], list[int]] = {}
    for ui, u in enumerate(small):
        for bi, hb in enumerate(buckets):
            if sol[zv(ui, bi)]:
                small_assignment.setdefault(hb, []).append(u)
    return _GuessArtifact(rnd, config_assign, modules_per_class,
                          small_assignment)


def _build_schedule(inst: Instance,
                    art: _GuessArtifact) -> NonPreemptiveSchedule:
    """Figure 4: dissolve configurations into slots, slots into modules,
    modules into grouped jobs, grouped jobs into original jobs."""
    rnd = art.rounding
    grouped = rnd.grouped
    sched = NonPreemptiveSchedule(inst.num_jobs, inst.machines)

    # queues of grouped jobs per (class, rounded size)
    job_queues: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for u, g in enumerate(grouped.classes):
        if g.is_small:
            continue
        for sz, members in zip(rnd.large_sizes[u], g.members):
            job_queues.setdefault((u, sz), []).append(members)

    # instantiate modules: queue per module size of (class, multiset)
    module_queues: dict[int, list[tuple[int, Multiset]]] = {}
    for u, mods in art.modules_per_class.items():
        for ms, cnt in mods:
            h = multiset_total(ms)
            for _ in range(cnt):
                module_queues.setdefault(h, []).append((u, ms))

    machine_cfg: list[Multiset] = []
    bucket_of_machine: list[tuple[int, int]] = []
    for cfg, cnt in art.config_assign:
        h = multiset_total(cfg)
        b = sum(k for _, k in cfg)
        for _ in range(cnt):
            machine_cfg.append(cfg)
            bucket_of_machine.append((h, b))
    assert len(machine_cfg) == inst.machines

    for i, cfg in enumerate(machine_cfg):
        for h, slots in cfg:
            for _ in range(slots):
                u, ms = module_queues[h].pop()
                for p, k_p in ms:
                    for _ in range(k_p):
                        members = job_queues[(u, p)].pop()
                        for j in members:
                            sched.assign(j, i)
    assert all(not v for v in module_queues.values()), "unfilled slots"
    assert all(not v for v in job_queues.values()), "unplaced grouped jobs"

    # small classes: round robin per bucket, assigning the grouped job's
    # original members wholesale
    for hb, classes in art.small_assignment.items():
        machines = [i for i, mb in enumerate(bucket_of_machine) if mb == hb]
        order = sorted(classes, key=lambda u: (-grouped.classes[u].sizes[0], u))
        for pos, u in enumerate(order):
            target = machines[pos % len(machines)]
            for j in grouped.classes[u].members[0]:
                sched.assign(j, target)
    return sched
