"""PTAS for preemptive CCS (Section 4.3, Theorem 19).

For a guess ``T``: group jobs (Lemma 15), round large sizes to multiples of
the layer height ``delta^2 T``. A *well-structured* schedule places pieces
of large-class jobs only at layer boundaries (Lemma 16 proves one exists
via an integral max-flow — :func:`build_lemma16_network` reproduces that
network, Figure 5). Feasibility of a guess is decided by an ILP whose
solution fixes, per machine and layer, which class occupies the layer
(``o``), how many slots each (class, size) pair gets per layer (``a``) and
where the small classes live (``z``); Theorem 18's greedy ("most remaining
pieces first") then fills concrete jobs into the slots without ever running
a job in parallel with itself.

The paper encodes this as an N-fold whose modules are 0-1 layer vectors and
whose configurations are exponential in the layer count; we solve the
machine-indexed aggregation instead (exactly the same constraint system —
machines are identical, so indexing them explicitly is an equivalent, if
less scalable, formulation; see DESIGN.md). The machine count is therefore
capped.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import networkx as nx

from ..core.bounds import preemptive_lower_bound, trivial_upper_bound
from ..core.errors import (CapacityExceededError, InfeasibleGuessError,
                           InfeasibleInstanceError)
from ..core.instance import Instance
from ..core.schedule import PreemptiveSchedule
from ._milp_util import FeasibilityMILP
from .common import PTASResult, integral_guess_search
from .rounding import IntegralRounding, group_jobs, round_grouped
from .splittable import _resolve_q

__all__ = ["ptas_preemptive", "build_lemma16_network"]

DEFAULT_MACHINE_CAP = 12


@dataclass
class _GuessArtifact:
    rounding: IntegralRounding
    m: int
    layers: int
    occupancy: dict[tuple[int, int], list[int]]   # (u, layer) -> machines
    slot_counts: dict[tuple[int, int, int], int]  # (u, p, layer) -> a
    small_on: dict[int, int]                      # small class -> machine


def ptas_preemptive(inst: Instance,
                    epsilon: float | Fraction | None = None,
                    delta: Fraction | int | None = None,
                    machine_cap: int = DEFAULT_MACHINE_CAP) -> PTASResult:
    """(1 + eps)-approximation for preemptive CCS (Theorem 19)."""
    inst = inst.normalized()
    inst.require_feasible()
    q = _resolve_q(epsilon, delta)
    dlt = Fraction(1, q)
    eps_out = Fraction(epsilon).limit_denominator(10**6) if epsilon is not None \
        else 7 * dlt

    if inst.machines >= inst.num_jobs:
        # one job per machine is optimal (makespan pmax)
        sched = PreemptiveSchedule(inst.machines)
        for j, p in enumerate(inst.processing_times):
            sched.assign(j, j, 0, p)
        return PTASResult(schedule=sched, guess=Fraction(inst.pmax),
                          epsilon=eps_out, delta=dlt,
                          makespan=sched.makespan(), guesses_tried=0)

    if inst.machines > machine_cap:
        raise CapacityExceededError("machines (preemptive PTAS)",
                                    inst.machines, machine_cap)
    lb_f = preemptive_lower_bound(inst)
    if lb_f < 0:    # pragma: no cover — ruled out by require_feasible
        raise InfeasibleInstanceError(inst.num_classes, inst.slot_budget())
    lb = int(lb_f) if lb_f == int(lb_f) else int(lb_f) + 1
    ub = int(trivial_upper_bound(inst))

    def try_guess(T: int) -> _GuessArtifact:
        return _solve_guess(inst, T, q)

    T, art, tried = integral_guess_search(lb, max(ub, lb), try_guess)
    sched = _build_schedule(inst, art)
    # preemptive OPT is fractional, so an accepted integral T may exceed
    # it; the search rejected T - 1 (or T is the rounded-up bound), so
    # OPT > T - 1 is what is certified
    guess = max(lb_f, Fraction(T - 1))
    return PTASResult(schedule=sched, guess=guess, epsilon=eps_out,
                      delta=dlt, makespan=sched.makespan(),
                      guesses_tried=tried,
                      stats={"layers": art.layers})


def _solve_guess(inst: Instance, T: int, q: int) -> _GuessArtifact:
    grouped = group_jobs(inst, T, q)
    rnd = round_grouped(inst, grouped, T, q,
                        tbar_factor_num=(q + 3) * (q * q + 1),
                        tbar_factor_den=q * q * q,
                        per_class_slot_unit=False)
    m, c = inst.machines, inst.class_slots
    L = rnd.Tbar_units              # number of layers
    large = [u for u in range(inst.num_classes)
             if not grouped.classes[u].is_small]
    small = [u for u in range(inst.num_classes)
             if grouped.classes[u].is_small]
    # (class, size) -> count, sizes in layers (units of delta^2 T)
    counts = {u: rnd.size_counts(u) for u in large}
    for u in large:
        for p in counts[u]:
            if p > L:
                raise InfeasibleGuessError(
                    f"a grouped job needs {p} layers but only {L} exist")

    # variable layout: o[i,u,l] | s[i,u] | a[u,p,l] | z[u,i]
    nO = m * len(large) * L
    nS = m * len(large)
    apl_index: dict[tuple[int, int, int], int] = {}
    idx = nO + nS
    for u in large:
        for p in counts[u]:
            for ell in range(L):
                apl_index[(u, p, ell)] = idx
                idx += 1
    off_z = idx
    zmax_var = off_z + len(small) * m  # highest occupied layer (heuristic)
    nvar = zmax_var + 1

    li = {u: k for k, u in enumerate(large)}
    si = {u: k for k, u in enumerate(small)}

    def ov(i, u, ell):
        return (i * len(large) + li[u]) * L + ell

    def sv(i, u):
        return nO + i * len(large) + li[u]

    def zv(u, i):
        return off_z + si[u] * m + i

    mp = FeasibilityMILP(nvar)
    for v in range(nO + nS):
        mp.set_bounds(v, 0, 1)
    for (u, p, ell), v in apl_index.items():
        mp.set_bounds(v, 0, counts[u][p])
    for v in range(off_z, zmax_var):
        mp.set_bounds(v, 0, 1)
    mp.set_bounds(zmax_var, 0, L)

    # one class per (machine, layer)
    for i in range(m):
        for ell in range(L):
            mp.add_le({ov(i, u, ell): 1.0 for u in large}, 1.0)
    # occupancy opens a class slot
    for i in range(m):
        for u in large:
            for ell in range(L):
                mp.add_le({ov(i, u, ell): 1.0, sv(i, u): -1.0}, 0.0)
    # class slots per machine (large slots + small classes)
    for i in range(m):
        coeffs = {sv(i, u): 1.0 for u in large}
        for u in small:
            coeffs[zv(u, i)] = 1.0
        mp.add_le(coeffs, float(c))
    # per (class, layer): machines hosting u = slots used by u's sizes
    for u in large:
        for ell in range(L):
            coeffs = {ov(i, u, ell): 1.0 for i in range(m)}
            for p in counts[u]:
                coeffs[apl_index[(u, p, ell)]] = -1.0
            mp.add_eq(coeffs, 0.0)
    # (4): all pieces of each (class, size) placed
    for u in large:
        for p, n_up in counts[u].items():
            mp.add_eq({apl_index[(u, p, ell)]: 1.0 for ell in range(L)},
                      float(p * n_up))
    # small classes on exactly one machine
    for u in small:
        mp.add_eq({zv(u, i): 1.0 for i in range(m)}, 1.0)
    # space per machine: q^2 * smalls + T * occupied_layers <= T * L
    for i in range(m):
        coeffs = {}
        for u in small:
            coeffs[zv(u, i)] = float(q * q * grouped.classes[u].sizes[0])
        for u in large:
            for ell in range(L):
                coeffs[ov(i, u, ell)] = float(T)
        mp.add_le(coeffs, float(T * L))

    # balance heuristic: zmax dominates the highest occupied layer and is
    # minimised (ties broken toward fewer high layers overall). Purely a
    # quality heuristic — feasibility semantics are the paper's.
    for i in range(m):
        for u in large:
            for ell in range(L):
                mp.add_le({ov(i, u, ell): float(ell + 1), zmax_var: -1.0},
                          0.0)
    objective = {zmax_var: float(m * L)}
    for i in range(m):
        for u in large:
            for ell in range(q * q, L):
                objective[ov(i, u, ell)] = 1.0
    sol = mp.solve(objective)
    if sol is None:
        raise InfeasibleGuessError(f"layer ILP infeasible at T={T}")

    occupancy: dict[tuple[int, int], list[int]] = {}
    for u in large:
        for ell in range(L):
            machines = [i for i in range(m) if sol[ov(i, u, ell)]]
            if machines:
                occupancy[(u, ell)] = machines
    slot_counts = {(u, p, ell): int(sol[v])
                   for (u, p, ell), v in apl_index.items() if sol[v]}
    small_on = {}
    for u in small:
        for i in range(m):
            if sol[zv(u, i)]:
                small_on[u] = i
    return _GuessArtifact(rnd, m, L, occupancy, slot_counts, small_on)


def _build_schedule(inst: Instance, art: _GuessArtifact) -> PreemptiveSchedule:
    """Theorem 18's greedy filling + gap placement of the small classes."""
    rnd = art.rounding
    grouped = rnd.grouped
    unit = rnd.unit  # delta^2 T
    sched = PreemptiveSchedule(inst.machines)

    # grouped large jobs: (class, rounded size) -> list of job states
    jobs_by_up: dict[tuple[int, int], list[dict]] = {}
    for u, g in enumerate(grouped.classes):
        if g.is_small:
            continue
        for sz, members in zip(rnd.large_sizes[u], g.members):
            jobs_by_up.setdefault((u, sz), []).append(
                {"members": members, "remaining": sz, "slots": []})

    # layer sweep: most-remaining-pieces-first keeps a job to one slot per
    # layer (Theorem 18)
    for ell in range(art.layers):
        for (u, layer) in [k for k in art.occupancy if k[1] == ell]:
            machines = list(art.occupancy[(u, ell)])
            pos = 0
            for p in sorted({p for (uu, p, l2) in art.slot_counts
                             if uu == u and l2 == ell}):
                need = art.slot_counts.get((u, p, ell), 0)
                cands = sorted(
                    (job for job in jobs_by_up[(u, p)] if job["remaining"] > 0),
                    key=lambda job: -job["remaining"])
                assert len(cands) >= need, "greedy ran out of jobs"
                for job in cands[:need]:
                    job["remaining"] -= 1
                    job["slots"].append((machines[pos], ell))
                    pos += 1

    # emit pieces, shrinking rounded sizes back to original member sizes
    machine_busy: dict[int, list[tuple[Fraction, Fraction]]] = {}
    for (u, p), jobs in jobs_by_up.items():
        for job in jobs:
            assert job["remaining"] == 0, "unplaced pieces"
            slots = sorted(job["slots"], key=lambda s: s[1])
            member_iter = iter(job["members"])
            cur = next(member_iter)
            cur_left = Fraction(inst.processing_times[cur])
            for machine, ell in slots:
                cap = unit
                start = ell * unit
                while cap > 0 and cur is not None:
                    take = min(cap, cur_left)
                    if take > 0:
                        sched.assign(machine, cur, start, take)
                        machine_busy.setdefault(machine, []).append(
                            (start, start + take))
                        start += take
                        cap -= take
                        cur_left -= take
                    if cur_left == 0:
                        cur = next(member_iter, None)
                        if cur is not None:
                            cur_left = Fraction(inst.processing_times[cur])
                        else:
                            break
            assert cur is None, "grouped job not fully scheduled"

    # small classes into the idle gaps of their machine; each placed
    # piece joins the machine's busy list, so the next small class on
    # the same machine fills the gaps that remain
    for u, i in art.small_on.items():
        busy = sorted(machine_busy.get(i, []))
        gaps: list[tuple[Fraction, Fraction | None]] = []
        clock = Fraction(0)
        for s, e in busy:
            if s > clock:
                gaps.append((clock, s))
            clock = max(clock, e)
        gaps.append((clock, None))  # open-ended tail
        gi = 0
        gpos = gaps[0][0]
        for j in grouped.classes[u].members[0]:
            left = Fraction(inst.processing_times[j])
            while left > 0:
                start, end = gaps[gi]
                room = (end - gpos) if end is not None else left
                if room <= 0:
                    gi += 1
                    gpos = gaps[gi][0]
                    continue
                take = min(left, room)
                sched.assign(i, j, gpos, take)
                machine_busy.setdefault(i, []).append((gpos, gpos + take))
                gpos += take
                left -= take
    return sched


def build_lemma16_network(inst: Instance, T: int, q: int,
                          class_on_machine: dict[tuple[int, int], bool],
                          machine_loads: dict[int, Fraction]
                          ) -> tuple[nx.DiGraph, int]:
    """The flow network of Lemma 16 / Figure 5.

    Nodes: source ``alpha``, one per large grouped job, one per (job,
    layer), one per slot (machine, layer), one per machine, sink ``omega``.
    Capacities exactly as in the paper: ``p_j / delta^2 T`` out of the
    source, 1 on job->layer and slot->machine edges, the class-eligibility
    indicator on (job, layer)->(slot) edges, ``ceil(D_i / delta^2 T)`` into
    the sink. Returns the graph and the value an integral max flow must
    attain (the total piece count); Lemma 16 asserts they are equal.
    Used by ``benchmarks/bench_fig5_flow.py``.
    """
    grouped = group_jobs(inst, T, q)
    rnd = round_grouped(inst, grouped, T, q,
                        tbar_factor_num=(q + 3) * (q * q + 1),
                        tbar_factor_den=q * q * q,
                        per_class_slot_unit=False)
    L = rnd.Tbar_units
    G = nx.DiGraph()
    total = 0
    jobs = []
    for u, g in enumerate(grouped.classes):
        if g.is_small:
            continue
        for k, sz in enumerate(rnd.large_sizes[u]):
            jobs.append((u, k, sz))
    for (u, k, sz) in jobs:
        total += sz
        G.add_edge("alpha", ("x", u, k), capacity=sz)
        for ell in range(L):
            G.add_edge(("x", u, k), ("u", u, k, ell), capacity=1)
            for i in range(inst.machines):
                if class_on_machine.get((i, u), False):
                    G.add_edge(("u", u, k, ell), ("v", i, ell), capacity=1)
    for i in range(inst.machines):
        D = machine_loads.get(i, Fraction(0))
        cap = int(-(-D * q * q // T))  # ceil(D_i / delta^2 T)
        for ell in range(L):
            G.add_edge(("v", i, ell), ("y", i), capacity=1)
        G.add_edge(("y", i), "omega", capacity=cap)
    return G, total
