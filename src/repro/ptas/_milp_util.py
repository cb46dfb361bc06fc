"""Small helper for assembling feasibility MILPs row by row."""

from __future__ import annotations

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_matrix

from ..core.deadline import timed_milp
from ..core.errors import SolverError

__all__ = ["FeasibilityMILP"]


class FeasibilityMILP:
    """Accumulates sparse rows, then asks HiGHS for any integral point.

    All variables are integral; the objective is zero (the PTAS guesses a
    makespan and only needs feasibility).
    """

    def __init__(self, num_vars: int) -> None:
        self.n = num_vars
        self.rows: list[dict[int, float]] = []
        self.lo: list[float] = []
        self.hi: list[float] = []
        self.var_lo = np.zeros(num_vars)
        self.var_hi = np.full(num_vars, np.inf)

    def add_eq(self, coeffs: dict[int, float], rhs: float) -> None:
        self.rows.append(coeffs)
        self.lo.append(rhs)
        self.hi.append(rhs)

    def add_le(self, coeffs: dict[int, float], rhs: float) -> None:
        self.rows.append(coeffs)
        self.lo.append(-np.inf)
        self.hi.append(rhs)

    def set_bounds(self, var: int, lo: float, hi: float) -> None:
        self.var_lo[var] = lo
        self.var_hi[var] = hi

    def matrix(self) -> csr_matrix:
        """The constraint rows as one CSR matrix, built in one pass.

        Columns are sorted within each row and zero coefficients
        (``-0.0`` included) are dropped, so this is the canonical matrix
        that assigning the rows into a ``lil_matrix`` would give.
        """
        indptr = [0]
        indices: list[int] = []
        data: list[float] = []
        for coeffs in self.rows:
            for k in sorted(coeffs):
                v = coeffs[k]
                if v:
                    indices.append(k)
                    data.append(v)
            indptr.append(len(indices))
        return csr_matrix((np.array(data, dtype=float), indices, indptr),
                          shape=(len(self.rows), self.n))

    def solve(self, objective: dict[int, float] | None = None
              ) -> np.ndarray | None:
        """A feasible integral point, or ``None`` if proven infeasible.

        ``objective`` (optional, sparse) is minimised among feasible points;
        the PTAS uses it purely as a *balance heuristic* — feasibility and
        the worst-case guarantee are unaffected.
        """
        c_vec = np.zeros(self.n)
        if objective:
            for k, v in objective.items():
                c_vec[k] = v
        res = timed_milp(milp, c=c_vec,
                         constraints=LinearConstraint(self.matrix(),
                                                      np.array(self.lo),
                                                      np.array(self.hi)),
                         integrality=np.ones(self.n),
                         bounds=Bounds(self.var_lo, self.var_hi))
        if res.status == 2:
            return None
        if res.status != 0 or res.x is None:
            raise SolverError(
                f"HiGHS failed: status={res.status} message={res.message!r}")
        return np.round(res.x).astype(np.int64)
