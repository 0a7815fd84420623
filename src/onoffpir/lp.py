"""Exact optimality oracle for small instances.

Privacy makes the query law r(q) the same for every pivot u, and for a fixed
r a per-pivot split p(q, x | u) with the request x inside q exists if and
only if Hall's condition sum_{q subset of B} r(q) <= m(B) = min_u law[u, B]
holds for every proper nonempty set B of sources.  So the one-step
query-design LP has one variable per query mask and 2^n - 1 rows, and this
module solves it with a self-contained dense two-phase tableau simplex under
Bland's rule.  ``build_lps`` makes the LPs of many laws with one matrix and
objective, and ``solve_batch`` runs the simplex on a stack of equal-shaped
tableaus in lock-step: each iteration takes one pivot on every tableau still
running, with the same rules per tableau as a solve alone.  ``build_lp`` and
``solve`` are the batches of one.  A pivot subtracts its rank-1 update only
from the (tableau, row) pairs whose pivot-column entry is nonzero; at desk
scale most rows have a zero there.  A stack of one broadcasts its one pivot
row over those rows, as a loop over a single tableau would; a larger stack
gathers each row's own.  The phase-2 tableaus are made row-major in one
copy, so a pivot reads and writes contiguous rows.  Skipping a row skips
only ``v - 0 * w``, so the pivot path and every nonzero value match the full
update, but a zero may keep the sign ``-0.0`` that the full update would
have cleared.  The solution therefore writes every zero of ``x`` as
``+0.0``, so ``x`` stays byte-identical to the full update's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import EPS, CapacityError, ConditionalLaw, _unchecked, numbers, whole_number

_FEAS_TOL = 1e-7   # constraint satisfaction at optimality
_PIVOT_TOL = 1e-9  # reduced-cost / ratio-test threshold
_TIE_TOL = 1e-12   # ratios this close count as tied in the ratio test
# Most lock-step pivots one simplex phase may take before it is declared
# stalled.
MAX_PIVOTS = 10 ** 6
# Most bytes the phase-1 simplex tableau of a ``build_lp`` problem may take
# (the LP fits up to n = 11, at 101 MB, whatever the cap).
TABLEAU_BYTES = 1 << 28
# Most bytes of phase-1 tableaus ``solve_batch`` stacks at once (at least
# one tableau).  Stacking pays off where numpy's per-call overhead dominates
# a pivot, for small tableaus; a large one's pivot costs its data either way.
STACK_BYTES = 1 << 24


class IterationLimitError(RuntimeError):
    """Simplex did not terminate within the pivot cap (numerical stall)."""


@dataclass(frozen=True)
class LpProblem:
    """minimize objective @ x  subject to  eq_matrix @ x = eq_rhs, x >= 0.

    ``columns`` optionally carries the query bitmask of each leading column
    for problems produced by :func:`build_lp`; the columns after them are
    slacks.  Every entry must be finite, and there must be at least one
    row and one column.
    """

    objective: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray
    columns: tuple | None = None

    def __post_init__(self):
        for name in ("objective", "eq_matrix", "eq_rhs"):
            object.__setattr__(self, name, numbers(getattr(self, name), f"LP {name}"))
        c, a, b = self.objective, self.eq_matrix, self.eq_rhs
        if c.ndim != 1 or b.ndim != 1 or a.shape != (len(b), len(c)):
            raise ValueError(f"inconsistent LP shapes: A{a.shape}, b{b.shape}, c{c.shape}")
        if not a.size:
            raise ValueError(f"an LP needs a row and a column, got A{a.shape}")

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


def build_lp(law: ConditionalLaw, cardinality_cap: int | None = None) -> LpProblem:
    """The one-step query-design LP for a given conditional law: the batch
    of one of :func:`build_lps`."""
    return build_lps([law], cardinality_cap)[0]


def build_lps(laws, cardinality_cap: int | None = None) -> list:
    """The one-step query-design LPs of laws over one source count n.

    Minimize sum_q |q| r(q) subject to sum_q r(q) = 1, r >= 0 and, for every
    proper nonempty source mask B, sum_{q subset of B} r(q) + s_B = m(B) with
    m(B) = min_u law[u, B] and a slack s_B >= 0.  The columns are the
    allowed query masks (|q| restricted when a cap is given, the full set
    always allowed so the problem stays feasible), by size and then by
    value, followed by the slacks; row 0 is the mass row and row B the Hall
    row of B.  The problems share one read-only matrix and objective; only
    the right-hand sides differ.  Raises :class:`CapacityError` when the
    phase-1 tableau :func:`solve` would make exceeds ``TABLEAU_BYTES``.
    """
    if cardinality_cap is not None:
        cardinality_cap = whole_number(cardinality_cap, "cardinality cap", 1, 1 << 62)
    laws = list(laws)
    if not laws:
        return []
    n = laws[0].n
    if any(law.n != n for law in laws):
        raise ValueError("build_lps needs laws over one source count")
    # the allowed query sizes: all of 1..n, or {1..cap, n}
    top = n if cardinality_cap is None else min(cardinality_cap, n)
    sizes = sorted({*range(1, top + 1), n})
    nrows = (1 << n) - 1
    ncols = sum(math.comb(n, k) for k in sizes) + nrows - 1
    if 8 * (nrows + 1) * (ncols + nrows + 1) > TABLEAU_BYTES:
        raise CapacityError(f"LP of {nrows} rows x {ncols} columns: its simplex "
                            f"tableau exceeds {TABLEAU_BYTES} bytes")

    # law[u, B] for every law and mask B, and |B|, one source at a time: the
    # masks with top bit i are those below 2^i plus source i
    tables = np.array([law.table for law in laws])
    mass = np.zeros((len(laws), n, nrows + 1))
    size = np.zeros(nrows + 1, dtype=np.int64)
    for i in range(n):
        mass[:, :, 1 << i:2 << i] = mass[:, :, :1 << i] + tables[:, :, i, None]
        size[1 << i:2 << i] = size[:1 << i] + 1
    order = np.argsort(size, kind="stable")
    masks = order[np.isin(size[order], sizes)]
    hall = np.arange(1, nrows)

    a = np.zeros((nrows, ncols))
    a[0, :len(masks)] = 1.0
    a[1:, :len(masks)] = (masks & hall[:, None]) == masks
    a[hall, len(masks) - 1 + hall] = 1.0
    rhs = np.ones((len(laws), nrows))
    rhs[:, 1:] = mass[:, :, 1:-1].min(axis=1)
    c = np.zeros(ncols)
    c[:len(masks)] = size[masks]
    a.setflags(write=False)
    c.setflags(write=False)
    return _unchecked(LpProblem, [c] * len(laws), [a] * len(laws), rhs,
                      [tuple(masks.tolist())] * len(laws))


def _pivot(tab: np.ndarray, stack: np.ndarray, rows: np.ndarray, column: np.ndarray):
    """Pivot tableau ``stack[k]`` on row ``rows[k]`` for every k, given its
    pivot column ``column[k]`` (which it overwrites), updating only the
    (tableau, row) pairs with a nonzero factor.  A stack of one broadcasts
    its pivot row over them; a larger stack gathers the pivot row of each.
    Every read and write indexes ``tab`` itself, so any layout keeps the
    update; the solver's tableaus are row-major, so those rows are contiguous."""
    pivots = np.arange(len(stack)), rows
    pivot_rows = tab[stack, rows] / column[pivots][:, None]
    tab[stack, rows] = pivot_rows
    column[pivots] = 0.0
    k, i = np.nonzero(column)
    tab[stack[k], i] -= column[k, i, None] * (pivot_rows if len(stack) == 1
                                              else pivot_rows[k])


def _scan(ratios: list, basis: list) -> int:
    """The sequential ratio test: rows in order, the smallest ratio, ties
    within ``_TIE_TOL`` to the smallest basic variable."""
    leave, best, best_var = -1, math.inf, math.inf
    for i, ratio in enumerate(ratios):
        if ratio < best - _TIE_TOL or (abs(ratio - best) <= _TIE_TOL
                                       and basis[i] < best_var):
            leave, best, best_var = i, ratio, basis[i]
    return leave


def _run_simplex(tab: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Bland's rule on a stack of tableaus in lock-step, each with its
    reduced costs in the last row and its rhs in the last column, and
    ``basis[k, i]`` the basic variable of row i of tableau k.  Returns which
    tableaus are unbounded; the others end optimal."""
    unbounded = np.zeros(len(tab), dtype=bool)
    run = np.arange(len(tab))
    for _ in range(MAX_PIVOTS):
        # the first negative reduced cost enters, and the smallest ratio
        # leaves; a tableau stops when nothing enters (optimal) or nothing
        # leaves (unbounded)
        enter = (tab[run, -1, :-1] < -_PIVOT_TOL).argmax(axis=1)
        column = tab[run, :, enter]
        col = column[:, :-1]
        ratio = np.divide(tab[run, :-1, -1], col, out=np.full(col.shape, np.inf),
                          where=col > _PIVOT_TOL)
        best = ratio.min(axis=1, keepdims=True)
        going = column[:, -1] < -_PIVOT_TOL
        move = going & (best[:, 0] < np.inf)
        if not (move.all() and len(run)):   # a tableau stops, or none runs
            unbounded[run[going & ~move]] = True
            if not move.any():
                return unbounded
            run, enter, column, ratio, best = (
                run[move], enter[move], column[move], ratio[move], best[move])
        # The sequential scan (``_scan``) keeps the smallest ratio, ties
        # within T = 1e-12 going to the smallest basic variable.  Split the
        # rows by their float ``gap`` above the smallest ratio ``best``:
        # near (gap <= T/2: ``best`` itself, and the round-off ties that
        # degenerate pivots leave) and far (gap > 4T, which includes the
        # inf of rows with no candidate).  If every row is near or far, then,
        # rounding included, two near ratios r, s have ``abs(r - s) <= T``
        # and not ``r < s - T``, and a near r and a far g have ``g - r > 2T``,
        # hence ``r < g - T`` and not ``abs(g - r) <= T``.  So the scan takes
        # its first near row over inf or any far ratio it holds, no far row
        # displaces a near one, and a near row displaces a near one exactly
        # when its basic variable is smaller: it returns the near row with
        # the smallest basic variable, one argmin.  Only the tableaus with a
        # row in between run the scan itself.
        gap = ratio - best
        near = gap <= _TIE_TOL / 2
        leave = np.where(near, basis[run], tab.shape[2]).argmin(axis=1)
        split = near | (gap > 4 * _TIE_TOL)
        if not split.all():
            for k in np.flatnonzero(~split.all(axis=1)).tolist():
                rows = np.flatnonzero(ratio[k] < np.inf)
                leave[k] = rows[_scan(ratio[k, rows].tolist(),
                                      basis[run[k], rows].tolist())]
        _pivot(tab, run, leave, column)
        basis[run, leave] = enter
    raise IterationLimitError(f"no optimum after {MAX_PIVOTS} pivots")


def solve(problem: LpProblem) -> LpSolution:
    """Two-phase primal simplex with Bland's anti-cycling rule: the batch of
    one of :func:`solve_batch`."""
    return solve_batch([problem])[0]


def solve_batch(problems) -> list:
    """Solve equal-shaped problems with one lock-step two-phase simplex.

    Each problem gets the :class:`LpSolution` it would get alone, bit for
    bit, with its own status; a phase that needs more than ``MAX_PIVOTS``
    lock-step pivots raises :class:`IterationLimitError`.  The problems are
    stacked at most ``STACK_BYTES`` of phase-1 tableau at a time.
    """
    problems = list(problems)
    if not problems:
        return []
    m, ncols = problems[0].eq_matrix.shape
    if any(p.eq_matrix.shape != (m, ncols) for p in problems):
        raise ValueError("solve_batch needs problems of one shape, got "
                         f"{sorted({p.eq_matrix.shape for p in problems})}")
    step = max(1, STACK_BYTES // (8 * (m + 1) * (ncols + m + 1)))
    return [sol for lo in range(0, len(problems), step)
            for sol in _solve_stack(problems[lo:lo + step])]


def _solve_stack(problems: list) -> list:
    a = np.array([p.eq_matrix for p in problems])
    b = np.array([p.eq_rhs for p in problems])
    neg = b < 0
    a[neg] *= -1.0
    b[neg] *= -1.0
    count, m, ncols = a.shape

    # phase 1: artificial basis, minimize total artificial mass
    tab = np.zeros((count, m + 1, ncols + m + 1))
    tab[:, :m, :ncols] = a
    tab[:, :m, ncols:ncols + m] = np.eye(m)
    tab[:, :m, -1] = b
    tab[:, -1, :ncols] = -a.sum(axis=1)
    tab[:, -1, -1] = -b.sum(axis=1)
    basis = np.tile(np.arange(ncols, ncols + m), (count, 1))
    if _run_simplex(tab, basis).any():
        raise AssertionError("phase 1 cannot be unbounded")
    feasible = np.flatnonzero(~(-tab[:, -1, -1] > _FEAS_TOL))
    tab, basis = tab[feasible], basis[feasible]

    # drive leftover artificials out of the basis, row by row; a row with
    # nothing to pivot on is redundant and stays as an inert zero row
    redundant = np.zeros(basis.shape, dtype=bool)
    artificial = basis >= ncols
    for i in np.flatnonzero(artificial.any(axis=0)).tolist():
        stack = np.flatnonzero(artificial[:, i])
        nonzero = np.abs(tab[stack, i, :ncols]) > _PIVOT_TOL
        found = nonzero.any(axis=1)
        redundant[stack[~found], i] = True
        stack, cols = stack[found], nonzero[found].argmax(axis=1)
        _pivot(tab, stack, np.full(len(stack), i), tab[stack, :, cols])
        basis[stack, i] = cols

    # phase 2 tableaus on the original columns, reduced costs in the last
    # row; a zero row's basic variable is the extra column ncols, of cost
    # +0.0, so subtracting it changes no bit
    c = np.array([p.objective for p in problems])[feasible]
    tab2 = np.take(tab, np.r_[:ncols, -1], axis=2)
    tab2[:, :-1][redundant] = 0.0
    tab2[:, -1, :ncols] = c
    tab2[:, -1, -1] = 0.0
    basis[redundant] = ncols
    cost = np.take_along_axis(np.pad(c, ((0, 0), (0, 1))), basis, axis=1)
    for r in range(m):
        tab2[:, -1] -= cost[:, r, None] * tab2[:, r]
    unbounded = _run_simplex(tab2, basis)

    xs = np.zeros((len(feasible), ncols + 1))
    np.put_along_axis(xs, basis, tab2[:, :-1, -1], axis=1)
    xs = np.where(xs <= 0, 0.0, xs)
    solutions = [LpSolution("infeasible", None, None, None)] * count
    for k, idx in enumerate(feasible.tolist()):
        if unbounded[k]:
            solutions[idx] = LpSolution("unbounded", None, None, None)
        else:
            solutions[idx] = _optimal(problems[idx], xs[k, :ncols].copy())
    return solutions


def _optimal(problem: LpProblem, x: np.ndarray) -> LpSolution:
    residual = problem.eq_matrix @ x - problem.eq_rhs
    if not np.all(np.abs(residual) <= _FEAS_TOL):
        raise AssertionError("optimal tableau violates constraints beyond tolerance")
    optimum = float(problem.objective @ x)
    assignment = None
    if problem.columns is not None:
        labelled = x[:len(problem.columns)]
        assignment = {problem.columns[j]: float(x[j]) for j in np.flatnonzero(labelled > EPS)}
    return LpSolution("optimal", optimum, x, assignment)
