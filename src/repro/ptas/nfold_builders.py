"""Faithful N-fold constructions of the paper's configuration ILPs.

The production PTAS path solves compact (aggregated) MILPs; this module
builds the *exact* N-fold block matrices of Section 4 — one brick per
class, variables ``x^u_K | y^u | z^u_{h,b} | slack`` — so that

* the paper's claimed block structure (r, s, t, Δ) can be inspected and
  reported (``benchmarks/bench_nfold.py``), and
* tests can certify that the faithful N-fold and the compact MILP agree on
  feasibility for micro instances (they encode the same schedules: the
  per-class duplication of ``x`` carries no meaning, as the paper notes).

Only the splittable and non-preemptive IPs are constructed; the preemptive
configuration set is exponential in the layer count (0-1 vectors over
layers), which is exactly why the production path aggregates by machine
instead (see DESIGN.md).

Each builder has a ``*_with_point`` twin that also returns a point of the
program built by packing (:func:`_constructed_point`). The budget ``T-bar``
leaves room above a guess, so a first-fit packing of the classes' modules
is usually feasible already, and :meth:`NFold.is_feasible` can certify it
without an IP solver. A ``None`` point means only that the packing did
not place everything, never that the program is infeasible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.instance import Instance
from ..nfold.structure import NFold
from .configurations import (ConfigurationSpace, _enumerate_cached,
                             build_configuration_space, multiset_total,
                             splittable_modules)
from .rounding import group_jobs, round_grouped, round_splittable

__all__ = ["build_splittable_nfold", "build_nonpreemptive_nfold",
           "splittable_nfold_with_point", "nonpreemptive_nfold_with_point"]

#: Cap on the configurations and modules one guess's program enumerates
#: (past it, :class:`~repro.core.errors.CapacityExceededError`).
_ENUM_CAP = 50_000


@dataclass(frozen=True)
class _Layout:
    """What one guess's program is assembled from, shared by the builder
    and the construction. Sizes are in the rounding's units."""

    m: int
    c: int
    c_star: int                     # module slots per configuration
    Tbar: int
    space: ConfigurationSpace
    buckets: list[tuple[int, int]]  # sorted (h, b); z and slack order
    totals: tuple[int, ...]         # module total of each y column
    small: tuple[int | None, ...]   # per class: rounded size if small

    @property
    def columns(self) -> tuple[int, int, int]:
        """``(nK, nM, nB)``: x, y and z columns per brick."""
        return self.space.num_configs, len(self.totals), len(self.buckets)


def _assemble(lay: _Layout, module_rows: np.ndarray, B: np.ndarray,
              b_local: list[np.ndarray], y_upper: int) -> NFold:
    """The brick layout both IPs share: ``x (nK) | y (nM) | z (nB) |
    slack2 (nB) | slack3 (nB)``. Global rows: (0) ``sum_K x = m``; the
    ``module_rows`` (configurations cover modules); (2) ``z + (b - c) x
    + slack = 0`` and (3) ``p'_u z + (h - T-bar) x + slack = 0`` per
    bucket, where only (3) differs by brick."""
    nK, nM, nB = lay.columns
    C = len(lay.small)
    t = nK + nM + 3 * nB
    nL = module_rows.shape[0]
    r = 1 + nL + 2 * nB

    A = np.zeros((r, t), dtype=np.int64)
    A[0, :nK] = 1
    A[1:1 + nL, :nK + nM] = module_rows
    for bi, (h, b) in enumerate(lay.buckets):
        row = 1 + nL + bi
        A[row, nK + nM + bi] = 1
        for k in lay.space.buckets[(h, b)]:
            A[row, k] = b - lay.c
        A[row, nK + nM + nB + bi] = 1
        row += nB
        for k in lay.space.buckets[(h, b)]:
            A[row, k] = h - lay.Tbar
        A[row, nK + nM + 2 * nB + bi] = 1
    A_blocks = []
    for u in range(C):
        Au = A.copy()
        Au[1 + nL + nB:, nK + nM:nK + nM + nB] = \
            np.eye(nB, dtype=np.int64) * (lay.small[u] or 0)
        A_blocks.append(Au)

    b_global = np.zeros(r, dtype=np.int64)
    b_global[0] = lay.m
    big = max(lay.m * lay.c_star * lay.Tbar, lay.m)
    brick_upper = np.zeros(t, dtype=np.int64)
    brick_upper[:nK] = lay.m
    brick_upper[nK:nK + nM] = y_upper
    brick_upper[nK + nM:nK + nM + nB] = 1
    brick_upper[nK + nM + nB:] = big
    return NFold(A_blocks, [B.copy() for _ in range(C)], b_global, b_local,
                 np.zeros(C * t, dtype=np.int64), np.tile(brick_upper, C),
                 np.zeros(C * t, dtype=np.int64))


def _cover_rows(lay: _Layout, lambdas: list[int]) -> np.ndarray:
    """Rows (1) over ``x | y``: for each module total ``lambda``, the
    configurations' ``lambda`` count minus the modules of that total."""
    nK, nM, _ = lay.columns
    pos = {lam: i for i, lam in enumerate(lambdas)}
    rows = np.zeros((len(lambdas), nK + nM), dtype=np.int64)
    for k, cfg in enumerate(lay.space.configs):
        for lam, cnt in cfg:
            rows[pos[lam], k] = cnt
    for mi, lam in enumerate(lay.totals):
        rows[pos[lam], nK + mi] = -1
    return rows


# --------------------------------------------------------------------- #
# Section 4.1: splittable
# --------------------------------------------------------------------- #

def _splittable_layout(inst: Instance, T, q: int):
    rnd = round_splittable(inst, T, q)
    c = inst.class_slots
    module_sizes = splittable_modules(q, c)
    c_star = min(q + 4, c)
    space = build_configuration_space(module_sizes, c_star, rnd.Tbar_units,
                                      cap=_ENUM_CAP)
    small = tuple(sz if is_small else None
                  for sz, is_small in zip(rnd.size_units, rnd.is_small))
    return rnd, _Layout(inst.machines, c, c_star, rnd.Tbar_units, space,
                        sorted(space.buckets), tuple(module_sizes), small)


def _splittable_program(rnd, lay: _Layout, q: int) -> NFold:
    nK, nM, nB = lay.columns
    # local rows: (4) sum_q q y^u_q = (1-xi_u) p'_u ; (5) sum z = xi_u
    B = np.zeros((2, nK + nM + 3 * nB), dtype=np.int64)
    B[0, nK:nK + nM] = lay.totals
    B[1, nK + nM:nK + nM + nB] = 1
    b_local = [np.array([0, 1] if p is not None else [rnd.size_units[u], 0],
                        dtype=np.int64) for u, p in enumerate(lay.small)]
    return _assemble(lay, _cover_rows(lay, list(lay.totals)), B, b_local,
                     lay.m * (q + 4))


def build_splittable_nfold(inst: Instance, T, q: int) -> NFold:
    """The N-fold IP of Section 4.1 for guess ``T`` (feasibility: w = 0).

    Brick ``u`` holds ``x^u_K``, ``y^u_q``, ``z^u_{h,b}`` and one slack
    column per inequality row ((2) and (3)), exactly as the paper counts
    them into ``t``. Globally uniform rows: (0), (1), (2), (3); locally
    uniform rows: (4), (5).
    """
    inst = inst.normalized()
    rnd, lay = _splittable_layout(inst, T, q)
    return _splittable_program(rnd, lay, q)


def _cut_splittable(S: int, Tbar: int, smallest: int) -> dict[int, int]:
    """Module sizes for a large class of rounded size ``S``: ``S // Tbar``
    full modules plus the remainder ``r`` when ``r >= smallest`` (= q c,
    i.e. delta T). A shorter ``r`` cannot be a module, so one full
    module becomes two: ``Tbar + r - smallest`` and ``smallest``. A
    large class has ``S > smallest``, so that full module exists."""
    full, r = divmod(S, Tbar)
    sizes = {Tbar: full} if full else {}
    if r >= smallest:
        sizes[r] = 1
    elif r:
        sizes[Tbar] -= 1
        sizes[Tbar + r - smallest] = 1
        sizes[smallest] = 1
    return {sz: k for sz, k in sizes.items() if k}


def splittable_nfold_with_point(inst: Instance, T, q: int
                                ) -> tuple[NFold, np.ndarray | None]:
    """:func:`build_splittable_nfold` plus a constructed point of it
    (``None`` when the packing does not place everything)."""
    inst = inst.normalized()
    rnd, lay = _splittable_layout(inst, T, q)
    nf = _splittable_program(rnd, lay, q)
    c = lay.c
    # module size l*c sits in y column l - q
    modules = [{} if p is not None else
               {sz // c - q: k for sz, k in
                _cut_splittable(S, lay.Tbar, q * c).items()}
               for S, p in zip(rnd.size_units, lay.small)]
    return nf, _constructed_point(nf, lay, modules)


# --------------------------------------------------------------------- #
# Section 4.2: non-preemptive
# --------------------------------------------------------------------- #

def _nonpreemptive_layout(inst: Instance, T: int, q: int):
    grouped = group_jobs(inst, T, q)
    rnd = round_grouped(inst, grouped, T, q,
                        tbar_factor_num=(q + 3) * (q + 2),
                        tbar_factor_den=q * q,
                        per_class_slot_unit=True)
    c = inst.class_slots
    Tbar = rnd.Tbar_units
    P = list(rnd.distinct_sizes) or [q * c]
    # the memoised module enumeration itself, as {multiset: y column}
    modules = _enumerate_cached(tuple(P), Tbar // min(P), Tbar, None,
                                _ENUM_CAP, False)
    totals = tuple(multiset_total(ms) for ms in modules)
    c_star = min(c, Tbar // (q * c))
    space = build_configuration_space(sorted(set(totals)), c_star, Tbar,
                                      cap=_ENUM_CAP)
    small = tuple(sz if g.is_small else None
                  for sz, g in zip(rnd.small_size, grouped.classes))
    lay = _Layout(inst.machines, c, c_star, Tbar, space,
                  sorted(space.buckets), totals, small)
    return rnd, lay, P, modules


def _nonpreemptive_program(rnd, lay: _Layout, P: list[int],
                           modules: dict) -> NFold:
    nK, nM, nB = lay.columns
    nP = len(P)
    # local rows: (4) per size p in P, (5) sum z = xi_u
    B = np.zeros((nP + 1, nK + nM + 3 * nB), dtype=np.int64)
    pos = {p: i for i, p in enumerate(P)}
    for mi, ms in enumerate(modules):
        for p, k_p in ms:
            B[pos[p], nK + mi] = k_p
    B[nP, nK + nM:nK + nM + nB] = 1
    b_local = []
    for u, p_small in enumerate(lay.small):
        counts = {} if p_small is not None else rnd.size_counts(u)
        b_local.append(np.array([counts.get(p, 0) for p in P]
                                + [int(p_small is not None)], dtype=np.int64))
    return _assemble(lay, _cover_rows(lay, sorted(set(lay.totals))), B,
                     b_local, lay.m * max(lay.c_star, 1))


def build_nonpreemptive_nfold(inst: Instance, T: int, q: int) -> NFold:
    """The N-fold IP of Section 4.2 for guess ``T`` (feasibility: w = 0).

    Modules here are the *global* set of job-size multisets fitting the
    budget (the paper's M); brick ``u`` holds ``x^u_K | y^u_M | z^u_{h,b}``
    plus slack columns. Locally uniform rows: (4) per size ``p in P`` and
    (5) — ``s = |P| + 1`` as the paper states.
    """
    inst = inst.normalized()
    rnd, lay, P, modules = _nonpreemptive_layout(inst, T, q)
    return _nonpreemptive_program(rnd, lay, P, modules)


def nonpreemptive_nfold_with_point(inst: Instance, T: int, q: int
                                   ) -> tuple[NFold, np.ndarray | None]:
    """:func:`build_nonpreemptive_nfold` plus a constructed point of it
    (``None`` when the packing does not place everything). Each large
    class's rounded grouped jobs are packed into modules by first-fit
    decreasing, each of total at most ``T-bar``."""
    inst = inst.normalized()
    rnd, lay, P, modules = _nonpreemptive_layout(inst, T, q)
    nf = _nonpreemptive_program(rnd, lay, P, modules)
    per_class = []
    for u, p_small in enumerate(lay.small):
        cols: dict[int, int] = {}
        if p_small is None:
            packed = _first_fit_decreasing(rnd.size_counts(u), lay.Tbar,
                                           lay.Tbar)
            if packed is None:
                return nf, None
            for ms, k in packed.items():
                if ms not in modules:
                    return nf, None
                cols[modules[ms]] = k
        per_class.append(cols)
    return nf, _constructed_point(nf, lay, per_class)


# --------------------------------------------------------------------- #
# the construction both families share
# --------------------------------------------------------------------- #

def _first_fit_decreasing(counts: dict[int, int], slots: int,
                          capacity: int) -> dict[tuple, int] | None:
    """First-fit decreasing of ``counts[v]`` items of size ``v`` into bins
    of at most ``slots`` items and total at most ``capacity``: each bin
    as a multiset (values descending) with how many bins hold it, or
    ``None`` when an item fits no empty bin.

    Identical bins in a row are kept as one run ``[contents, load,
    items, count]``. First fit fills the earliest bin with room until no
    further item of this size fits, so a run splits into at most three
    (filled, partly filled, untouched): the cost depends on the number
    of distinct sizes, never on the number of items or bins.
    """
    runs: list[list] = []
    for v in sorted(counts, reverse=True):
        left = counts[v]
        i = 0
        while left and i < len(runs):
            contents, load, items, n = runs[i]
            fit = min(slots - items, (capacity - load) // v)
            if fit <= 0:
                i += 1
                continue
            filled = min(n, left // fit)
            left -= filled * fit
            split = []
            if filled:
                split.append([contents + ((v, fit),), load + fit * v,
                              items + fit, filled])
            if n > filled and left:             # left < fit here
                split.append([contents + ((v, left),), load + left * v,
                              items + left, 1])
                filled += 1
                left = 0
            if n > filled:
                split.append([contents, load, items, n - filled])
            runs[i:i + 1] = split
            i += len(split)
        if left:
            fit = min(slots, capacity // v)
            if fit <= 0:
                return None
            filled, rest = divmod(left, fit)
            if filled:
                runs.append([((v, fit),), fit * v, fit, filled])
            if rest:
                runs.append([((v, rest),), rest * v, rest, 1])
    bins: dict[tuple, int] = {}
    for contents, _, _, n in runs:
        bins[contents] = bins.get(contents, 0) + n
    return bins


def _constructed_point(nf: NFold, lay: _Layout,
                       modules: list[dict[int, int]]) -> np.ndarray | None:
    """A point of ``nf`` built by packing; ``modules[u]`` counts class
    ``u``'s modules by y column (empty for a small class).

    Machines: one module each (configuration ``{lambda}``) when there
    are at most ``m`` modules, else first-fit decreasing into at most
    ``c*`` slots and ``T-bar``; the rest run the empty configuration.
    Each small class (largest first) goes into the first bucket ``(h,
    b)`` with a free slot, ``(c - b) X``, and room, ``(T-bar - h) X``,
    over its ``X`` machines; the slack columns take what is left. The
    global rows sum over bricks, so ``x`` and the slacks sit in brick 0.
    Nothing here loops over machines.
    """
    by_total: dict[int, int] = {}
    for cols in modules:
        for i, k in cols.items():
            lam = lay.totals[i]
            by_total[lam] = by_total.get(lam, 0) + k
    if sum(by_total.values()) <= lay.m:
        configs = {((lam, 1),): k for lam, k in by_total.items()}
    else:
        configs = _first_fit_decreasing(by_total, lay.c_star, lay.Tbar)
        if configs is None:
            return None
    idle = lay.m - sum(configs.values())
    if idle < 0:
        return None
    if idle:
        configs[()] = configs.get((), 0) + idle

    nK, nM, nB = lay.columns
    t = nf.t
    x = np.zeros(nf.num_variables, dtype=np.int64)
    bucket_pos = {hb: bi for bi, hb in enumerate(lay.buckets)}
    free_slots = [0] * nB
    free_room = [0] * nB
    for cfg, k in configs.items():
        K = lay.space.index.get(cfg)
        if K is None:
            return None
        x[K] = k
        h, b = lay.space.bucket_of(K)
        bi = bucket_pos[(h, b)]
        free_slots[bi] += (lay.c - b) * k
        free_room[bi] += (lay.Tbar - h) * k
    for u, cols in enumerate(modules):
        for i, k in cols.items():
            x[u * t + nK + i] = k
    smalls = sorted(((p, u) for u, p in enumerate(lay.small)
                     if p is not None), key=lambda pu: -pu[0])
    for p, u in smalls:
        bi = next((bi for bi in range(nB)
                   if free_slots[bi] and free_room[bi] >= p), None)
        if bi is None:
            return None
        free_slots[bi] -= 1
        free_room[bi] -= p
        x[u * t + nK + nM + bi] = 1
    x[nK + nM + nB:nK + nM + 2 * nB] = free_slots
    x[nK + nM + 2 * nB:t] = free_room
    return x
