"""Exact optimality oracle for small instances.

Privacy makes the query law r(q) the same for every pivot u, and for a fixed
r a per-pivot split p(q, x | u) with the request x inside q exists if and
only if Hall's condition sum_{q subset of B} r(q) <= m(B) = min_u law[u, B]
holds for every proper nonempty set B of sources.  So the one-step
query-design LP has one variable per query mask and 2^n - 1 rows, and this
module solves it with a self-contained dense two-phase tableau simplex under
Bland's rule.  A pivot subtracts its rank-1 update only from the rows whose
pivot-column entry is nonzero; at desk scale most rows have a zero there.
Skipping a row skips only ``v - 0 * w``, so the pivot path and every nonzero
value match the full update, but a zero may keep the sign ``-0.0`` that the
full update would have cleared.  ``solve`` therefore writes every zero of
``x`` as ``+0.0``, so ``x`` stays byte-identical to the full update's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import EPS, CapacityError, ConditionalLaw

_FEAS_TOL = 1e-7   # constraint satisfaction at optimality
_PIVOT_TOL = 1e-9  # reduced-cost / ratio-test threshold
# Most pivots one simplex phase may take before it is declared stalled.
MAX_PIVOTS = 10 ** 6
# Most bytes the phase-1 simplex tableau of a ``build_lp`` problem may take
# (the LP fits up to n = 11, at 101 MB, whatever the cap).
TABLEAU_BYTES = 1 << 28


class IterationLimitError(RuntimeError):
    """Simplex did not terminate within the pivot cap (numerical stall)."""


@dataclass(frozen=True)
class LpProblem:
    """minimize objective @ x  subject to  eq_matrix @ x = eq_rhs, x >= 0.

    ``columns`` optionally carries the query bitmask of each leading column
    for problems produced by :func:`build_lp`; the columns after them are
    slacks.
    """

    objective: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray
    columns: tuple | None = None

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float)
        a = np.asarray(self.eq_matrix, dtype=float)
        b = np.asarray(self.eq_rhs, dtype=float)
        if a.shape != (len(b), len(c)):
            raise ValueError(f"inconsistent LP shapes: A{a.shape}, b{b.shape}, c{c.shape}")
        for name, arr in (("objective", c), ("eq_matrix", a), ("eq_rhs", b)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def dump_text(self) -> str:
        lines = ["min c.x", "c = " + " ".join(f"{v:g}" for v in self.objective), "A x = b"]
        for row, rhs in zip(self.eq_matrix, self.eq_rhs):
            lines.append(" ".join(f"{v:g}" for v in row) + f" = {rhs:g}")
        if self.columns is not None:
            for j, mask in enumerate(self.columns):
                members = {i for i in range(mask.bit_length()) if mask >> i & 1}
                lines.append(f"({members}) -> col {j}")
        return "\n".join(lines)


@dataclass(frozen=True)
class LpSolution:
    status: str              # "optimal" | "infeasible" | "unbounded"
    optimum: float | None
    x: np.ndarray | None
    assignment: dict | None  # column label -> value on its support, labelled problems only


def _query_sizes(n: int, cardinality_cap: int | None) -> list:
    """Allowed query sizes: all of 1..n, or {1..cap, n}."""
    if cardinality_cap is None:
        return list(range(1, n + 1))
    return sorted(set(range(1, min(cardinality_cap, n) + 1)) | {n})


def build_lp(law: ConditionalLaw, cardinality_cap: int | None = None) -> LpProblem:
    """The one-step query-design LP for a given conditional law.

    Minimize sum_q |q| r(q) subject to sum_q r(q) = 1, r >= 0 and, for every
    proper nonempty source mask B, sum_{q subset of B} r(q) + s_B = m(B) with
    m(B) = min_u law[u, B] and a slack s_B >= 0.  The columns are the
    allowed query masks (|q| restricted when a cap is given, the full set
    always allowed so the problem stays feasible), by size and then by
    value, followed by the slacks; row 0 is the mass row and row B the Hall
    row of B.  Raises :class:`CapacityError` when the phase-1 tableau
    :func:`solve` would make exceeds ``TABLEAU_BYTES``.
    """
    n = law.n
    if cardinality_cap is not None and cardinality_cap < 1:
        raise ValueError("cardinality cap must be >= 1")
    sizes = _query_sizes(n, cardinality_cap)
    nrows = (1 << n) - 1
    ncols = sum(math.comb(n, k) for k in sizes) + nrows - 1
    if 8 * (nrows + 1) * (ncols + nrows + 1) > TABLEAU_BYTES:
        raise CapacityError(f"LP of {nrows} rows x {ncols} columns: its simplex "
                            f"tableau exceeds {TABLEAU_BYTES} bytes")

    # law[u, B] and |B| for every mask B, one source at a time: the masks
    # with top bit i are those below 2^i plus source i
    mass = np.zeros((n, nrows + 1))
    size = np.zeros(nrows + 1, dtype=np.int64)
    for i in range(n):
        mass[:, 1 << i:2 << i] = mass[:, :1 << i] + law.table[:, i, None]
        size[1 << i:2 << i] = size[:1 << i] + 1
    order = np.argsort(size, kind="stable")
    masks = order[np.isin(size[order], sizes)]
    hall = np.arange(1, nrows)

    a = np.zeros((nrows, ncols))
    a[0, :len(masks)] = 1.0
    a[1:, :len(masks)] = (masks & hall[:, None]) == masks
    a[hall, len(masks) - 1 + hall] = 1.0
    b = np.concatenate(([1.0], mass[:, 1:-1].min(axis=0)))
    c = np.zeros(ncols)
    c[:len(masks)] = size[masks]
    return LpProblem(c, a, b, tuple(masks.tolist()))


def _pivot(tab: np.ndarray, row: int, col: int):
    tab[row] /= tab[row, col]
    factors = tab[:, col].copy()
    factors[row] = 0.0
    nz = np.flatnonzero(factors)
    tab[nz] -= factors[nz, None] * tab[row]


def _run_simplex(tab: np.ndarray, basis: list) -> str:
    """Bland's rule on a tableau whose last row is reduced costs and last
    column the rhs.  Returns "optimal" or "unbounded"."""
    for _ in range(MAX_PIVOTS):
        entering = np.flatnonzero(tab[-1, :-1] < -_PIVOT_TOL)
        if not len(entering):
            return "optimal"
        enter = int(entering[0])
        # smallest ratio, ties within 1e-12 to the smallest basic variable
        leave, best, best_var = -1, np.inf, np.inf
        for i in np.flatnonzero(tab[:-1, enter] > _PIVOT_TOL).tolist():
            ratio = tab[i, -1] / tab[i, enter]
            if ratio < best - 1e-12 or (abs(ratio - best) <= 1e-12
                                        and basis[i] < best_var):
                leave, best, best_var = i, ratio, basis[i]
        if leave < 0:
            return "unbounded"
        _pivot(tab, leave, enter)
        basis[leave] = enter
    raise IterationLimitError(f"no optimum after {MAX_PIVOTS} pivots")


def solve(problem: LpProblem) -> LpSolution:
    """Two-phase primal simplex with Bland's anti-cycling rule."""
    a = problem.eq_matrix.copy()
    b = problem.eq_rhs.copy()
    c = problem.objective
    neg = b < 0
    a[neg] *= -1.0
    b[neg] *= -1.0
    m, ncols = a.shape

    # phase 1: artificial basis, minimize total artificial mass
    tab = np.zeros((m + 1, ncols + m + 1))
    tab[:m, :ncols] = a
    tab[:m, ncols:ncols + m] = np.eye(m)
    tab[:m, -1] = b
    tab[-1, :ncols] = -a.sum(axis=0)
    tab[-1, -1] = -b.sum()
    basis = list(range(ncols, ncols + m))
    if _run_simplex(tab, basis) != "optimal":
        raise AssertionError("phase 1 cannot be unbounded")
    if -tab[-1, -1] > _FEAS_TOL:
        return LpSolution("infeasible", None, None, None)

    # drive leftover artificials out of the basis; all-zero rows are redundant
    keep = []
    for i in range(m):
        if basis[i] >= ncols:
            nonzero = np.flatnonzero(np.abs(tab[i, :ncols]) > _PIVOT_TOL)
            if not len(nonzero):
                continue
            _pivot(tab, i, nonzero[0])
            basis[i] = int(nonzero[0])
        keep.append(i)

    # phase 2 tableau on the original columns, reduced costs in the last row
    tab2 = np.zeros((len(keep) + 1, ncols + 1))
    tab2[:-1] = tab[np.ix_(keep, np.r_[:ncols, -1])]
    tab2[-1, :ncols] = c
    basis2 = [basis[i] for i in keep]
    for r, var in enumerate(basis2):
        tab2[-1] -= c[var] * tab2[r]
    if _run_simplex(tab2, basis2) == "unbounded":
        return LpSolution("unbounded", None, None, None)

    x = np.zeros(ncols)
    x[basis2] = tab2[:-1, -1]
    x = np.where(x <= 0, 0.0, x)
    residual = problem.eq_matrix @ x - problem.eq_rhs
    if np.max(np.abs(residual)) > _FEAS_TOL:
        raise AssertionError("optimal tableau violates constraints beyond tolerance")
    optimum = float(c @ x)
    assignment = None
    if problem.columns is not None:
        labelled = x[:len(problem.columns)]
        assignment = {problem.columns[j]: float(x[j]) for j in np.flatnonzero(labelled > EPS)}
    return LpSolution("optimal", optimum, x, assignment)
