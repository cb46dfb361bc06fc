"""Exact optimum values via mixed-integer programming (HiGHS through SciPy).

These solvers are ground truth for small instances — the approximation-ratio
experiments divide algorithm makespans by these optima. They are *not* part
of the paper's contribution; they exist so the reproduction can measure
ratios against true optima instead of lower bounds whenever instances are
small enough.

Formulations (identical machines, ``y[u,i]`` = class ``u`` occupies a slot
on machine ``i``):

* non-preemptive: assignment binaries ``z[j,i]``; classical makespan MILP
  plus ``z[j,i] <= y[c_j,i]`` and ``sum_u y[u,i] <= c``.
* splittable: per-class fluid ``x[u,i] >= 0`` (jobs of one class are
  interchangeable fluid when they may run in parallel), ``x <= P_u * y``.
* preemptive: per-job fluid ``x[j,i]`` with ``T >= pmax``. By the classical
  preemptive timetabling theorem (Lawler–Labetoulle / open-shop style BvN
  decomposition), a timetable with no job running in parallel with itself
  exists iff per-machine loads and per-job totals are at most ``T`` — so
  the MILP value equals the true preemptive optimum.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import lil_matrix

from ..core.deadline import timed_milp
from ..core.errors import SolverError, UnsupportedInstanceError
from ..core.instance import Instance

__all__ = [
    "opt_nonpreemptive",
    "opt_splittable",
    "opt_preemptive",
]

_MAX_MACHINES = 64


def _check_size(inst: Instance, clamp_machines: bool = True) -> Instance:
    inst = inst.normalized()
    # provable infeasibility (C > c*m) surfaces as the uniform taxonomy
    # error before the backend ever runs, identical to every other solver
    inst.require_feasible()
    if clamp_machines and inst.machines > _MAX_MACHINES:
        # more machines than jobs never helps when a job cannot run in
        # parallel with itself (non-preemptive and preemptive regimes:
        # one machine per job is already optimal). NOT valid for the
        # splittable regime, where the optimum keeps shrinking as m
        # grows — found by the differential fuzzer, which caught the
        # clamped MILP reporting OPT=1 against a true 1/m.
        inst = inst.with_machines(min(inst.machines, max(inst.num_jobs, 1)))
    if inst.machines > _MAX_MACHINES:
        raise UnsupportedInstanceError(
            f"exact MILP limited to {_MAX_MACHINES} machines, got "
            f"{inst.machines}")
    return inst


def _solve(c_vec, constraints, integrality, bounds) -> np.ndarray:
    res = timed_milp(milp, c=c_vec, constraints=constraints,
                     integrality=integrality, bounds=bounds)
    if res.status != 0 or res.x is None:
        raise SolverError(f"MILP failed: status={res.status} "
                          f"message={res.message!r}")
    return res.x


def opt_nonpreemptive(inst: Instance) -> int:
    """Exact non-preemptive optimum (integral)."""
    inst = _check_size(inst)
    n, m, C, c = (inst.num_jobs, inst.machines, inst.num_classes,
                  inst.class_slots)
    p = inst.processing_times
    # variables: z[j,i] (n*m), y[u,i] (C*m), T  -> total n*m + C*m + 1
    nz, ny = n * m, C * m
    nv = nz + ny + 1
    Tix = nv - 1

    def z(j, i):
        return j * m + i

    def y(u, i):
        return nz + u * m + i

    rows: list[tuple[dict[int, float], float, float]] = []
    for j in range(n):
        rows.append(({z(j, i): 1.0 for i in range(m)}, 1.0, 1.0))
    for i in range(m):
        coeffs = {z(j, i): float(p[j]) for j in range(n)}
        coeffs[Tix] = -1.0
        rows.append((coeffs, -np.inf, 0.0))
    for j in range(n):
        for i in range(m):
            rows.append(({z(j, i): 1.0, y(inst.classes[j], i): -1.0},
                         -np.inf, 0.0))
    for i in range(m):
        rows.append(({y(u, i): 1.0 for u in range(C)}, -np.inf, float(c)))

    A = lil_matrix((len(rows), nv))
    lo = np.empty(len(rows))
    hi = np.empty(len(rows))
    for r, (coeffs, lb, ub) in enumerate(rows):
        for k, v in coeffs.items():
            A[r, k] = v
        lo[r], hi[r] = lb, ub

    c_vec = np.zeros(nv)
    c_vec[Tix] = 1.0
    integrality = np.ones(nv)
    integrality[Tix] = 0
    lb_var = np.zeros(nv)
    ub_var = np.ones(nv)
    ub_var[Tix] = float(sum(p))
    lb_var[Tix] = float(max(p))
    x = _solve(c_vec, LinearConstraint(A.tocsr(), lo, hi), integrality,
               Bounds(lb_var, ub_var))
    return int(round(x[Tix]))


def opt_splittable(inst: Instance) -> float:
    """Exact splittable optimum (may be fractional)."""
    inst = _check_size(inst, clamp_machines=False)
    m, C, c = inst.machines, inst.num_classes, inst.class_slots
    P = inst.class_loads()
    nx, ny = C * m, C * m
    nv = nx + ny + 1
    Tix = nv - 1

    def x_(u, i):
        return u * m + i

    def y_(u, i):
        return nx + u * m + i

    rows: list[tuple[dict[int, float], float, float]] = []
    for u in range(C):
        rows.append(({x_(u, i): 1.0 for i in range(m)},
                     float(P[u]), float(P[u])))
    for i in range(m):
        coeffs = {x_(u, i): 1.0 for u in range(C)}
        coeffs[Tix] = -1.0
        rows.append((coeffs, -np.inf, 0.0))
    for u in range(C):
        for i in range(m):
            rows.append(({x_(u, i): 1.0, y_(u, i): -float(P[u])},
                         -np.inf, 0.0))
    for i in range(m):
        rows.append(({y_(u, i): 1.0 for u in range(C)}, -np.inf, float(c)))

    A = lil_matrix((len(rows), nv))
    lo = np.empty(len(rows))
    hi = np.empty(len(rows))
    for r, (coeffs, lb, ub) in enumerate(rows):
        for k, v in coeffs.items():
            A[r, k] = v
        lo[r], hi[r] = lb, ub

    c_vec = np.zeros(nv)
    c_vec[Tix] = 1.0
    integrality = np.zeros(nv)
    integrality[nx:nx + ny] = 1
    lb_var = np.zeros(nv)
    ub_var = np.full(nv, np.inf)
    ub_var[nx:nx + ny] = 1.0
    x = _solve(c_vec, LinearConstraint(A.tocsr(), lo, hi), integrality,
               Bounds(lb_var, ub_var))
    return float(x[Tix])


def opt_preemptive(inst: Instance) -> float:
    """Exact preemptive optimum (may be fractional)."""
    inst = _check_size(inst)
    n, m, C, c = (inst.num_jobs, inst.machines, inst.num_classes,
                  inst.class_slots)
    p = inst.processing_times
    nx, ny = n * m, C * m
    nv = nx + ny + 1
    Tix = nv - 1

    def x_(j, i):
        return j * m + i

    def y_(u, i):
        return nx + u * m + i

    rows: list[tuple[dict[int, float], float, float]] = []
    for j in range(n):
        rows.append(({x_(j, i): 1.0 for i in range(m)},
                     float(p[j]), float(p[j])))
    for i in range(m):
        coeffs = {x_(j, i): 1.0 for j in range(n)}
        coeffs[Tix] = -1.0
        rows.append((coeffs, -np.inf, 0.0))
    for j in range(n):
        for i in range(m):
            rows.append(({x_(j, i): 1.0, y_(inst.classes[j], i): -float(p[j])},
                         -np.inf, 0.0))
    for i in range(m):
        rows.append(({y_(u, i): 1.0 for u in range(C)}, -np.inf, float(c)))

    A = lil_matrix((len(rows), nv))
    lo = np.empty(len(rows))
    hi = np.empty(len(rows))
    for r, (coeffs, lb, ub) in enumerate(rows):
        for k, v in coeffs.items():
            A[r, k] = v
        lo[r], hi[r] = lb, ub

    c_vec = np.zeros(nv)
    c_vec[Tix] = 1.0
    integrality = np.zeros(nv)
    integrality[nx:nx + ny] = 1
    lb_var = np.zeros(nv)
    ub_var = np.full(nv, np.inf)
    ub_var[nx:nx + ny] = 1.0
    lb_var[Tix] = float(max(p))  # a job cannot run in parallel with itself
    x = _solve(c_vec, LinearConstraint(A.tocsr(), lo, hi), integrality,
               Bounds(lb_var, ub_var))
    return float(x[Tix])
