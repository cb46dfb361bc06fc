"""PTAS for splittable CCS (Section 4.1, Theorems 10/11).

For a guess ``T``: group each class into one fluid job (Lemma 7), round to
``O(1/delta^2)`` sizes, and decide feasibility of a *configuration ILP*
whose modules are the allowed split-piece sizes (multiples of
``delta^2 T`` that are at least ``delta T``) and whose configurations are
multisets of modules fitting a machine (Lemmas 8/9 justify the
restriction to these well-structured schedules). A feasible ILP solution
is dissolved back into an explicit schedule; the small classes are round
robined over machines grouped by configuration size and slot count.

The ILP solved here is the *compact* equivalent of the paper's N-fold
(the per-class variable duplication exists only to force N-fold block
structure; aggregating the ``x`` variables is an exact reformulation —
:mod:`repro.ptas.nfold_builders` constructs the faithful N-fold and tests
verify both agree on micro instances).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from ..core.bounds import splittable_lower_bound, trivial_upper_bound
from ..core.errors import (CapacityExceededError, InfeasibleGuessError,
                           InfeasibleInstanceError)
from ..core.instance import Instance
from ..core.schedule import SplittableSchedule
from ._milp_util import FeasibilityMILP
from .common import PTASResult, delta_for_epsilon, geometric_guess_search
from .configurations import (ConfigurationSpace, build_configuration_space,
                             splittable_modules)
from .rounding import SplittableRounding, round_splittable

__all__ = ["ptas_splittable"]

#: Machine counts above this are refused for the explicit PTAS; the paper's
#: Theorem 11 extension (compact trivial-configuration bookkeeping) is
#: covered by the constant-factor compact solver, not the PTAS.
DEFAULT_MACHINE_CAP = 20_000

#: Most configurations one guess may enumerate before the PTAS gives up
#: with :class:`~repro.core.errors.CapacityExceededError`.
_CONFIG_CAP = 300_000


@lru_cache(maxsize=32)
def _config_space(q: int, c: int) -> ConfigurationSpace:
    """Configurations depend only on (q, c) — sizes are in scaled units."""
    modules = splittable_modules(q, c)
    c_star = min(q + 4, c)
    return build_configuration_space(modules, c_star, q * c * (q + 4),
                                     cap=_CONFIG_CAP)


@dataclass
class _GuessArtifact:
    rounding: SplittableRounding
    space: ConfigurationSpace
    x_counts: dict[int, int]              # config index -> machine count
    modules_per_class: dict[int, dict[int, int]]  # u -> {module size: count}
    small_assignment: dict[tuple[int, int], list[int]]  # (h,b) -> classes


def ptas_splittable(inst: Instance, epsilon: float | Fraction | None = None,
                    delta: Fraction | int | None = None,
                    machine_cap: int = DEFAULT_MACHINE_CAP,
                    theorem11: bool = False) -> PTASResult:
    """(1 + eps)-approximation for splittable CCS.

    Exactly one of ``epsilon`` (guarantee-driven: ``delta`` is derived so
    the final ratio is at most ``1 + epsilon``) or ``delta`` (directly pick
    the rounding accuracy ``1/q``; the *measured* ratio certificate in the
    result is then the honest quality statement) must be given.
    """
    inst = inst.normalized()
    inst.require_feasible()
    q = _resolve_q(epsilon, delta)
    if inst.machines > machine_cap:
        raise CapacityExceededError("machines (explicit PTAS)",
                                    inst.machines, machine_cap)
    lb = splittable_lower_bound(inst)
    if lb < 0:    # pragma: no cover — ruled out by require_feasible
        raise InfeasibleInstanceError(inst.num_classes, inst.slot_budget())
    ub = max(trivial_upper_bound(inst), lb)
    dlt = Fraction(1, q)

    def try_guess(T: Fraction) -> _GuessArtifact:
        return _solve_guess(inst, T, q, theorem11=theorem11)

    T, art, tried = geometric_guess_search(lb, ub, dlt, try_guess)
    sched = _build_schedule(inst, art)
    eps_out = Fraction(epsilon).limit_denominator(10**6) if epsilon is not None \
        else 7 * dlt
    # the grid point below T was rejected (or was the lower bound
    # itself), so OPT > T / (1+delta); T alone can exceed OPT
    return PTASResult(schedule=sched, guess=max(lb, T / (1 + dlt)),
                      epsilon=eps_out, delta=dlt,
                      makespan=sched.makespan(), guesses_tried=tried,
                      stats={"configs": art.space.num_configs})


def theorem11_nontrivial_bound(num_classes: int) -> int:
    """Theorem 11: any splittable schedule can be normalised (by the
    Figure 3 exchange) so that at most ``C*(C-1)/2 + C`` machines carry a
    *non-trivial* configuration — everything else is either empty or one
    class filling the machine. This is what caps the explicit work for
    exponential ``m``."""
    return num_classes * (num_classes - 1) // 2 + num_classes


def add_theorem11_constraint(mp: FeasibilityMILP, space: ConfigurationSpace,
                             q: int, c: int, num_classes: int,
                             xv) -> None:
    """Append the Theorem 11 globally uniform constraint to a splittable
    configuration ILP: the *non-trivial* configurations (anything other
    than the empty one and the single-largest-module one) are chosen at
    most ``C^2/2 + C`` times in total. By the exchange argument this never
    cuts off all solutions when one exists.
    """
    largest = q * c * (q + 4)  # the maximal module size (= T-bar)
    trivial = {(), ((largest, 1),)}
    coeffs = {xv(k): 1.0 for k, cfg in enumerate(space.configs)
              if cfg not in trivial}
    if coeffs:
        mp.add_le(coeffs, float(theorem11_nontrivial_bound(num_classes)))


def _resolve_q(epsilon, delta) -> int:
    if (epsilon is None) == (delta is None):
        raise ValueError("pass exactly one of epsilon or delta")
    if epsilon is not None:
        return delta_for_epsilon(epsilon).denominator
    if isinstance(delta, int):
        if delta < 2:
            raise ValueError("q = 1/delta must be at least 2")
        return delta
    d = Fraction(delta)
    if d.numerator != 1 or d.denominator < 2:
        raise ValueError("delta must be 1/q for an integer q >= 2")
    return d.denominator


def _solve_guess(inst: Instance, T: Fraction, q: int,
                 theorem11: bool = False) -> _GuessArtifact:
    rnd = round_splittable(inst, T, q)
    c, m = inst.class_slots, inst.machines
    space = _config_space(q, c)
    module_sizes = splittable_modules(q, c)
    size_index = {s: i for i, s in enumerate(module_sizes)}
    large = [u for u in range(inst.num_classes) if not rnd.is_small[u]]
    small = [u for u in range(inst.num_classes) if rnd.is_small[u]]
    buckets = sorted(space.buckets)

    nK, nM, nB = space.num_configs, len(module_sizes), len(buckets)
    # variable layout: x[k] | y[u_large, s] | z[u_small, bucket]
    off_y = nK
    off_z = off_y + len(large) * nM
    nvar = off_z + len(small) * nB

    def xv(k):
        return k

    def yv(ui, si):
        return off_y + ui * nM + si

    def zv(ui, bi):
        return off_z + ui * nB + bi

    mp = FeasibilityMILP(nvar)
    for k in range(nK):
        mp.set_bounds(xv(k), 0, m)
    for ui in range(len(large)):
        for si in range(nM):
            mp.set_bounds(yv(ui, si), 0, m * (q + 4))
    for ui in range(len(small)):
        for bi in range(nB):
            mp.set_bounds(zv(ui, bi), 0, 1)

    # (0) machines covered exactly
    mp.add_eq({xv(k): 1.0 for k in range(nK)}, float(m))
    # (1) chosen configurations cover chosen modules
    for si, s in enumerate(module_sizes):
        coeffs: dict[int, float] = {}
        for k, cfg in enumerate(space.configs):
            cnt = dict(cfg).get(s, 0)
            if cnt:
                coeffs[xv(k)] = float(cnt)
        for ui in range(len(large)):
            coeffs[yv(ui, si)] = coeffs.get(yv(ui, si), 0.0) - 1.0
        mp.add_eq(coeffs, 0.0)
    # (4) modules cover the large classes
    for ui, u in enumerate(large):
        mp.add_eq({yv(ui, si): float(s)
                   for si, s in enumerate(module_sizes)},
                  float(rnd.size_units[u]))
    # (5) each small class lands in exactly one bucket
    for ui in range(len(small)):
        mp.add_eq({zv(ui, bi): 1.0 for bi in range(nB)}, 1.0)
    # (2) class slots and (3) space left for small classes, per bucket
    for bi, (h, b) in enumerate(buckets):
        ks = space.buckets[(h, b)]
        slot_coeffs = {zv(ui, bi): 1.0 for ui in range(len(small))}
        for k in ks:
            slot_coeffs[xv(k)] = -(float(c - b))
        mp.add_le(slot_coeffs, 0.0)
        space_coeffs = {zv(ui, bi): float(rnd.size_units[small[ui]])
                        for ui in range(len(small))}
        for k in ks:
            space_coeffs[xv(k)] = -(float(rnd.Tbar_units - h))
        mp.add_le(space_coeffs, 0.0)

    if theorem11:
        add_theorem11_constraint(mp, space, q, c, inst.num_classes, xv)

    # Balance heuristic: among feasible points, prefer configurations whose
    # large-piece load stays near T (total large load is fixed by (1)+(4),
    # so minimising total excess pushes toward balanced machines). Purely a
    # quality heuristic — the guarantee comes from feasibility alone.
    T_units = q * q * c
    objective = {xv(k): float(max(0, space.sizes[k] - T_units))
                 for k in range(nK)}
    sol = mp.solve(objective)
    if sol is None:
        raise InfeasibleGuessError(f"no well-structured schedule at T={T}")

    x_counts = {k: int(sol[xv(k)]) for k in range(nK) if sol[xv(k)]}
    modules_per_class = {
        u: {module_sizes[si]: int(sol[yv(ui, si)])
            for si in range(nM) if sol[yv(ui, si)]}
        for ui, u in enumerate(large)}
    small_assignment: dict[tuple[int, int], list[int]] = {}
    for ui, u in enumerate(small):
        for bi, hb in enumerate(buckets):
            if sol[zv(ui, bi)]:
                small_assignment.setdefault(hb, []).append(u)
    return _GuessArtifact(rnd, space, x_counts, modules_per_class,
                          small_assignment)


def _build_schedule(inst: Instance, art: _GuessArtifact) -> SplittableSchedule:
    """Dissolve the ILP solution into an explicit splittable schedule."""
    rnd = art.rounding
    unit = rnd.unit
    sched = SplittableSchedule(inst.machines)

    # expand machines: list of config indices, one per machine
    machine_cfg: list[int] = []
    for k, cnt in sorted(art.x_counts.items()):
        machine_cfg.extend([k] * cnt)
    assert len(machine_cfg) == inst.machines

    # cut each large class into its module pieces, shrinking the rounded
    # sizes back to the original class load
    queues: dict[int, list[list[tuple[int, Fraction]]]] = {}
    for u, mods in art.modules_per_class.items():
        piece_sizes: list[Fraction] = []
        remaining = Fraction(inst.class_load(u))
        rounded = sorted(
            (s for s, cnt in mods.items() for _ in range(cnt)), reverse=True)
        actual: list[tuple[int, Fraction]] = []  # (module size units, amount)
        for s in rounded:
            take = min(remaining, s * unit)
            actual.append((s, take))
            remaining -= take
        assert remaining == 0, "rounded modules do not cover the class"
        # slice the class's jobs (concatenated) at the piece boundaries
        jobs = inst.jobs_of_class(u)
        job_iter = iter(jobs)
        cur_job = next(job_iter)
        cur_left = Fraction(inst.processing_times[cur_job])
        for s, amount in actual:
            pieces: list[tuple[int, Fraction]] = []
            need = amount
            while need > 0:
                take = min(need, cur_left)
                if take > 0:
                    pieces.append((cur_job, take))
                need -= take
                cur_left -= take
                if cur_left == 0:
                    nxt = next(job_iter, None)
                    if nxt is None:
                        break
                    cur_job = nxt
                    cur_left = Fraction(inst.processing_times[cur_job])
            queues.setdefault(s, []).append(pieces)

    # fill machine slots with pieces of matching module size
    for i, k in enumerate(machine_cfg):
        for s, cnt in art.space.configs[k]:
            for _ in range(cnt):
                pieces = queues[s].pop()
                for job, amount in pieces:
                    sched.assign(i, job, amount)
    assert all(not v for v in queues.values()), "unassigned module pieces"

    # small classes: round robin within each (h, b) bucket
    for hb, classes in art.small_assignment.items():
        machines = [i for i, k in enumerate(machine_cfg)
                    if art.space.bucket_of(k) == hb]
        order = sorted(classes, key=lambda u: (-inst.class_load(u), u))
        for pos, u in enumerate(order):
            target = machines[pos % len(machines)]
            for j in inst.jobs_of_class(u):
                sched.assign(target, j, inst.processing_times[j])
    return sched
