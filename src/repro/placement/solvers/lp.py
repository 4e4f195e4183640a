"""LP engines for the placement relaxations.

Two engines share the :class:`LPResult` interface:

* :func:`solve_bounded_lp` — a bounded-variable **revised simplex** (primal
  and dual) that handles ``l <= x <= u`` natively, exposes its final basis,
  and can be warm-started from a caller-supplied basis.  This is the
  branch-and-bound hot path: fixing a binary variable is a *bound change*,
  which leaves the parent's optimal basis dual-feasible, so the dual simplex
  re-optimises a child node in a handful of pivots instead of a full
  two-phase solve.  :class:`BoundedLP` is the same engine with the
  bound-independent set-up prepared once, for callers (branch and bound)
  that re-solve one LP under many bound sets.
* :func:`solve_lp_dense` — the original dense two-phase tableau
  (``min c.x  s.t.  A x <= b, x >= 0``), kept as the slow-but-simple oracle
  for equivalence tests.  Bounds must be materialised as explicit rows
  (see :meth:`repro.placement.ilp.ILPProblem.dense_rows`).

:func:`solve_lp` is the public convenience entry point: it accepts optional
bounds and a ``fixed`` map (branching by variable fixing) and dispatches to
the bounded engine.  GLPK (used by the paper) is replaced by these
self-contained implementations.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Optional

import numpy as np

_EPS = 1e-9
_PIVOT_TOL = 1e-7         # minimum acceptable pivot magnitude
_FEAS_TOL = 1e-7          # relative primal-feasibility tolerance
_MAX_ITERATIONS = 20_000
_BLAND_STREAK = 40        # degenerate pivots before switching to Bland's rule
_REFACTOR_EVERY = 100     # pivots between basis-inverse refactorisations


class LPStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"


@dataclass
class LPResult:
    status: LPStatus
    objective: float = float("inf")
    values: Optional[np.ndarray] = None
    #: Basic column per row over the full (structural + slack) column space.
    #: This is the warm-start token for :func:`solve_bounded_lp`; the dense
    #: oracle leaves it ``None``.
    basis: Optional[np.ndarray] = None
    #: Nonbasic-at-upper-bound flags over the full column space (the other
    #: half of the warm-start token).
    at_upper: Optional[np.ndarray] = None
    #: Simplex pivots spent producing this result.
    iterations: int = 0
    #: ``inv`` of this result's basis columns, left here by the first warm
    #: start from it; later warm starts from the same result (a branch and
    #: bound sibling) copy it instead of inverting the same matrix again.
    basis_inverse: Optional[np.ndarray] = None


# =========================================================================== #
# Bounded-variable revised simplex
# =========================================================================== #
class _BoundedSimplex:
    """Revised simplex over ``min c.x  s.t.  A x + s = b, l <= x <= u, s >= 0``.

    Columns ``0..n-1`` are the structural variables, ``n..n+m-1`` the row
    slacks.  Nonbasic variables sit at one of their (finite) bounds; the
    ``at_upper`` flag records which.  The basis inverse is maintained by
    product-form updates and refactorised every :data:`_REFACTOR_EVERY`
    pivots.
    """

    def __init__(self, lp: "BoundedLP", lower: np.ndarray, upper: np.ndarray):
        m, n = lp.m, lp.n
        self.m, self.n = m, n
        self.total = n + m
        # Shared with every other solve of the same LP, never written.
        self.W, self.b, self.c = lp.W, lp.b, lp.costs
        self.lower = np.concatenate([lower, np.zeros(m)])
        self.upper = np.concatenate([upper, np.full(m, np.inf)])
        self.basis = np.arange(n, self.total, dtype=int)
        self.in_basis = np.zeros(self.total, dtype=bool)
        self.in_basis[self.basis] = True
        self.at_upper = np.zeros(self.total, dtype=bool)
        self.Binv = np.eye(m)
        self.iterations = 0

    # ------------------------------------------------------------------ #
    # Basis management
    # ------------------------------------------------------------------ #
    def slack_basis(self) -> None:
        """All-slack basis; nonbasic columns at the bound their cost prefers.

        Putting every negative-cost column at its (finite) upper bound makes
        the starting point dual-feasible whenever such bounds exist, so the
        dual simplex alone completes the cold solve.
        """
        self.basis = np.arange(self.n, self.total, dtype=int)
        self.in_basis[:] = False
        self.in_basis[self.basis] = True
        self.at_upper = (self.c < 0.0) & np.isfinite(self.upper)
        self.at_upper[self.in_basis] = False
        self.Binv = np.eye(self.m)

    def load_basis(self, warm: LPResult) -> None:
        """Adopt the basis of *warm*, an earlier result of the same LP.

        The basis inverse is computed on the first warm start from *warm*
        (raising ``LinAlgError`` if singular) and left on it; later warm
        starts from *warm* copy it.  Either way the engine starts from the
        very floats ``inv`` returns for these columns.
        """
        basis = np.asarray(warm.basis, dtype=int)
        if basis.shape != (self.m,):
            raise ValueError("warm-start basis has the wrong number of rows")
        if warm.basis_inverse is None:
            warm.basis_inverse = np.linalg.inv(self.W[:, basis])
        self.Binv = warm.basis_inverse.copy()
        self.basis = basis.copy()
        self.in_basis = np.zeros(self.total, dtype=bool)
        self.in_basis[self.basis] = True
        at_upper = (warm.at_upper if warm.at_upper is not None
                    else np.zeros(self.total, dtype=bool))
        self.at_upper = np.asarray(at_upper, dtype=bool).copy()
        # A flag can become stale when bounds were edited since it was saved
        # (e.g. an upper bound relaxed to infinity): snap it back to "lower".
        self.at_upper &= np.isfinite(self.upper)
        self.at_upper[self.in_basis] = False

    def _refactor(self) -> None:
        self.Binv = np.linalg.inv(self.W[:, self.basis])

    def _update_basis(self, row: int, col: int, alpha: np.ndarray) -> int:
        """Pivot ``col`` into the basis at ``row``; returns the leaving column."""
        leaving = int(self.basis[row])
        self.in_basis[leaving] = False
        self.basis[row] = col
        self.in_basis[col] = True
        self.at_upper[col] = False
        self.Binv[row] /= alpha[row]
        others = np.arange(self.m) != row
        self.Binv[others] -= np.outer(alpha[others], self.Binv[row])
        self.iterations += 1
        if self.iterations % _REFACTOR_EVERY == 0:
            self._refactor()
        return leaving

    # ------------------------------------------------------------------ #
    # State
    # ------------------------------------------------------------------ #
    def _nonbasic_values(self) -> np.ndarray:
        values = np.where(self.at_upper, self.upper, self.lower)
        values[self.basis] = 0.0
        return values

    def _basic_values(self, nonbasic: np.ndarray) -> np.ndarray:
        if self.m == 0:
            return np.zeros(0)
        return self.Binv @ (self.b - self.W @ nonbasic)

    def solution(self) -> np.ndarray:
        x = self._nonbasic_values()
        x[self.basis] = self._basic_values(x)
        return x

    def _reduced_costs(self, costs: np.ndarray) -> np.ndarray:
        if self.m == 0:
            return costs.copy()
        y = costs[self.basis] @ self.Binv
        d = costs - y @ self.W
        d[self.basis] = 0.0
        return d

    def _movable(self) -> np.ndarray:
        """Nonbasic columns that are not fixed (``l < u``)."""
        return ~self.in_basis & (self.upper - self.lower > _EPS)

    # ------------------------------------------------------------------ #
    # Primal simplex (needs a primal-feasible basis)
    # ------------------------------------------------------------------ #
    def primal(self, costs: np.ndarray, max_iterations: int) -> LPStatus:
        streak, bland = 0, False
        for _ in range(max_iterations):
            d = self._reduced_costs(costs)
            movable = self._movable()
            improvement = np.zeros(self.total)
            at_low = movable & ~self.at_upper
            at_up = movable & self.at_upper
            improvement[at_low] = -d[at_low]
            improvement[at_up] = d[at_up]
            candidates = np.where(improvement > _EPS)[0]
            if candidates.size == 0:
                return LPStatus.OPTIMAL
            if bland:
                entering = int(candidates[0])
            else:
                entering = int(candidates[np.argmax(improvement[candidates])])

            alpha = self.Binv @ self.W[:, entering] if self.m else np.zeros(0)
            direction = -1.0 if self.at_upper[entering] else 1.0
            delta = -direction * alpha          # change of x_B per unit step
            nonbasic = self._nonbasic_values()
            basic = self._basic_values(nonbasic)
            lower_b = self.lower[self.basis]
            upper_b = self.upper[self.basis]
            steps = np.full(self.m, np.inf)
            shrink = delta < -_PIVOT_TOL
            steps[shrink] = (basic[shrink] - lower_b[shrink]) / (-delta[shrink])
            grow = delta > _PIVOT_TOL
            steps[grow] = (upper_b[grow] - basic[grow]) / delta[grow]
            steps = np.maximum(steps, 0.0)
            basic_step = float(steps.min()) if self.m else float("inf")
            flip_step = self.upper[entering] - self.lower[entering]

            if flip_step <= basic_step:
                if not np.isfinite(flip_step):
                    return LPStatus.UNBOUNDED
                # Bound flip: the entering column runs to its other bound
                # before any basic variable blocks it.
                self.at_upper[entering] = ~self.at_upper[entering]
                self.iterations += 1
                streak, bland = 0, False
                continue

            near = np.where(steps <= basic_step + _EPS * (1.0 + basic_step))[0]
            if bland:
                row = int(min(near, key=lambda i: self.basis[i]))
            else:
                row = int(near[np.argmax(np.abs(delta[near]))])
            hit_upper = delta[row] > 0
            leaving = self._update_basis(row, entering, alpha)
            self.at_upper[leaving] = bool(hit_upper)
            if basic_step <= _EPS:
                streak += 1
                if streak >= _BLAND_STREAK:
                    bland = True
            else:
                streak, bland = 0, False
        return LPStatus.ITERATION_LIMIT

    # ------------------------------------------------------------------ #
    # Dual simplex (needs a dual-feasible basis)
    # ------------------------------------------------------------------ #
    def dual(self, costs: np.ndarray, max_iterations: int) -> LPStatus:
        streak, bland = 0, False
        for _ in range(max_iterations):
            if self.m == 0:
                return LPStatus.OPTIMAL
            nonbasic = self._nonbasic_values()
            basic = self._basic_values(nonbasic)
            lower_b = self.lower[self.basis]
            upper_b = self.upper[self.basis]
            tolerance = _FEAS_TOL * np.maximum(1.0, np.abs(basic))
            below = lower_b - basic
            above = basic - upper_b
            infeasibility = np.maximum(below, above)
            violated = np.where(infeasibility > tolerance)[0]
            if violated.size == 0:
                return LPStatus.OPTIMAL
            if bland:
                row = int(min(violated, key=lambda i: self.basis[i]))
            else:
                row = int(violated[np.argmax(infeasibility[violated])])

            arow = self.Binv[row] @ self.W
            if below[row] > above[row]:
                effective = -arow               # basic value must increase
                leaving_at_upper = False
            else:
                effective = arow                # basic value must decrease
                leaving_at_upper = True
            d = self._reduced_costs(costs)
            movable = self._movable()
            eligible = movable & (
                (~self.at_upper & (effective > _PIVOT_TOL))
                | (self.at_upper & (effective < -_PIVOT_TOL)))
            candidates = np.where(eligible)[0]
            if candidates.size == 0:
                # The violated row cannot be repaired: dual unbounded, i.e.
                # the primal problem is infeasible.
                return LPStatus.INFEASIBLE
            ratios = np.maximum(d[candidates] / effective[candidates], 0.0)
            best = float(ratios.min())
            near = candidates[ratios <= best + _EPS * (1.0 + best)]
            if bland:
                entering = int(near.min())
            else:
                entering = int(near[np.argmax(np.abs(effective[near]))])

            alpha = self.Binv @ self.W[:, entering]
            leaving = self._update_basis(row, entering, alpha)
            self.at_upper[leaving] = leaving_at_upper
            if best <= _EPS:
                streak += 1
                if streak >= _BLAND_STREAK:
                    bland = True
            else:
                streak, bland = 0, False
        return LPStatus.ITERATION_LIMIT


class BoundedLP:
    """``min c.x`` s.t. ``a_ub x <= b_ub``, prepared once for many bound sets.

    Everything that depends only on ``(c, a_ub, b_ub)`` is built here: the
    row-equilibrated ``[A | I]`` slack extension, the scaled right-hand side
    and the unit-scale objective.  Branch and bound changes only variable
    bounds from node to node, so it prepares one instance per ILP and calls
    :meth:`solve` per node.
    """

    def __init__(self, c: np.ndarray, a_ub: np.ndarray, b_ub: np.ndarray):
        c = np.asarray(c, dtype=float)
        n = c.shape[0]
        a_ub = np.asarray(a_ub, dtype=float)
        if a_ub.size == 0:
            a_ub = np.zeros((0, n))
        b_ub = np.asarray(b_ub, dtype=float).reshape(-1)
        m = a_ub.shape[0]
        self.c = c
        self.m, self.n = m, n
        # Row equilibration: divide every row (and its RHS) by its inf-norm
        # so mixed-scale constraint systems (byte-sized McCormick rows next
        # to cycle-count execution-time rows) pivot stably.  Structural
        # variable values are unaffected; only slack values are rescaled,
        # and those are never reported.
        if m:
            norms = np.maximum(np.abs(a_ub).max(axis=1), _EPS)
            self.b = b_ub / norms
            self.W = np.hstack([a_ub / norms[:, None], np.eye(m)])
        else:
            self.b = b_ub.astype(float)
            self.W = np.zeros((0, n))
        # Normalise the objective so reduced-cost tolerances are scale-free
        # (the placement objective lives at the ~1e-9 J scale).
        cost_scale = float(np.max(np.abs(c))) if c.size else 0.0
        scaled_c = c / cost_scale if cost_scale > 0 else c
        self.costs = np.concatenate([scaled_c, np.zeros(m)])

    def solve(self, lower: Optional[np.ndarray] = None,
              upper: Optional[np.ndarray] = None,
              warm: Optional[LPResult] = None,
              max_iterations: int = _MAX_ITERATIONS) -> LPResult:
        """Solve under ``lower <= x <= upper`` (see :func:`solve_bounded_lp`).

        *warm* is an earlier optimal result of this same LP whose basis
        seeds the dual simplex; its basis inverse is computed once and kept
        on it for the next warm start from the same result.
        """
        n = self.n
        lower = (np.zeros(n) if lower is None
                 else np.asarray(lower, dtype=float).copy())
        upper = (np.full(n, np.inf) if upper is None
                 else np.asarray(upper, dtype=float).copy())
        if not np.all(np.isfinite(lower)):
            raise ValueError("lower bounds must be finite")
        if np.any(lower > upper + _EPS):
            return LPResult(LPStatus.INFEASIBLE)
        upper = np.maximum(upper, lower)

        engine = _BoundedSimplex(self, lower, upper)
        costs = engine.c

        if warm is not None:
            try:
                engine.load_basis(warm)
            except np.linalg.LinAlgError:
                warm = None
        if warm is not None:
            status = engine.dual(costs, max_iterations)
        else:
            engine.slack_basis()
            if np.any((costs < -_EPS) & ~np.isfinite(engine.upper)):
                # No dual-feasible starting point exists with these bounds:
                # run a feasibility-only dual pass (zero costs keep every
                # basis dual-feasible), then optimise with the primal simplex.
                status = engine.dual(np.zeros_like(costs), max_iterations)
                if status is LPStatus.OPTIMAL:
                    remaining = max(max_iterations - engine.iterations, 1)
                    status = engine.primal(costs, remaining)
            else:
                status = engine.dual(costs, max_iterations)

        if status is not LPStatus.OPTIMAL:
            return LPResult(status, iterations=engine.iterations)
        x = engine.solution()
        values = np.clip(x[:n], lower, upper)
        return LPResult(LPStatus.OPTIMAL, objective=float(self.c @ values),
                        values=values, basis=engine.basis.copy(),
                        at_upper=engine.at_upper.copy(),
                        iterations=engine.iterations)


def solve_bounded_lp(c: np.ndarray, a_ub: np.ndarray, b_ub: np.ndarray,
                     lower: Optional[np.ndarray] = None,
                     upper: Optional[np.ndarray] = None,
                     basis: Optional[np.ndarray] = None,
                     at_upper: Optional[np.ndarray] = None,
                     max_iterations: int = _MAX_ITERATIONS) -> LPResult:
    """Solve ``min c.x`` s.t. ``a_ub x <= b_ub`` and ``lower <= x <= upper``.

    With ``basis``/``at_upper`` from a previous :class:`LPResult` the solve is
    warm-started with the dual simplex — sound whenever only *bounds* changed
    since that basis was optimal, because reduced costs (and hence dual
    feasibility) depend only on ``c`` and ``A``.  Cold solves start from the
    all-slack basis: dual simplex directly when every negative-cost column
    has a finite upper bound, otherwise a feasibility-only dual phase
    followed by the primal simplex.
    """
    warm = (None if basis is None
            else LPResult(LPStatus.OPTIMAL, basis=basis, at_upper=at_upper))
    return BoundedLP(c, a_ub, b_ub).solve(lower, upper, warm=warm,
                                          max_iterations=max_iterations)


def solve_lp(c: np.ndarray, a_ub: np.ndarray, b_ub: np.ndarray,
             fixed: Optional[Dict[int, float]] = None,
             lower: Optional[np.ndarray] = None,
             upper: Optional[np.ndarray] = None) -> LPResult:
    """Solve ``min c.x`` s.t. ``a_ub x <= b_ub``, ``x >= 0`` (default bounds).

    ``fixed`` maps variable indices to forced values (used by branch and
    bound); fixing is implemented as the bound pair ``l_j = u_j = value``,
    so fixed columns stay in the matrix and basis indices remain stable.
    """
    c = np.asarray(c, dtype=float)
    n = c.shape[0]
    lower = np.zeros(n) if lower is None else np.asarray(lower, dtype=float).copy()
    upper = (np.full(n, np.inf) if upper is None
             else np.asarray(upper, dtype=float).copy())
    for index, value in (fixed or {}).items():
        lower[index] = value
        upper[index] = value
    return solve_bounded_lp(c, a_ub, b_ub, lower=lower, upper=upper)


# =========================================================================== #
# Dense two-phase tableau (oracle)
# =========================================================================== #
def _simplex(tableau: np.ndarray, basis: np.ndarray, num_cols: int) -> tuple:
    """Run the primal simplex on an in-place tableau; last row is -objective.

    Uses Dantzig pricing until a streak of degenerate pivots, then falls back
    to Bland's least-index rule (entering column and, among tied ratios,
    leaving row with the smallest basic index), which cannot cycle.  Returns
    ``(status, pivots)``.
    """
    rows = tableau.shape[0] - 1
    streak, bland = 0, False
    for iteration in range(_MAX_ITERATIONS):
        objective_row = tableau[-1, :num_cols]
        if bland:
            negative = np.where(objective_row < -_EPS)[0]
            if negative.size == 0:
                return LPStatus.OPTIMAL, iteration
            pivot_col = int(negative[0])
        else:
            pivot_col = int(np.argmin(objective_row))
            if objective_row[pivot_col] >= -_EPS:
                return LPStatus.OPTIMAL, iteration
        column = tableau[:rows, pivot_col]
        positive = column > _EPS
        if not np.any(positive):
            return LPStatus.UNBOUNDED, iteration
        ratios = np.full(rows, np.inf)
        ratios[positive] = tableau[:rows, -1][positive] / column[positive]
        if bland:
            best = float(ratios.min())
            tied = np.where(ratios <= best + _EPS)[0]
            pivot_row = int(min(tied, key=lambda i: basis[i]))
        else:
            pivot_row = int(np.argmin(ratios))
        degenerate = ratios[pivot_row] <= _EPS
        _pivot(tableau, basis, pivot_row, pivot_col)
        if degenerate:
            streak += 1
            if streak >= _BLAND_STREAK:
                bland = True
        else:
            streak, bland = 0, False
    return LPStatus.ITERATION_LIMIT, _MAX_ITERATIONS


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tableau[row, :] /= tableau[row, col]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, tableau[row, :])
    basis[row] = col


def _remove_artificials(tableau: np.ndarray, basis: np.ndarray,
                        num_free: int, num_slack: int, artificial_cols) -> tuple:
    """Eliminate phase-1 artificial columns from a feasible tableau.

    ``tableau`` holds the constraint rows only (no objective row).  Every
    artificial still in the basis is first driven out by pivoting on any
    nonzero real (structural or slack) coefficient of its row.  A row where
    no such coefficient exists is **redundant**: its real part is all zeros
    and phase 1 proved its RHS is zero, so the row is dropped.  (The
    historical behaviour — remapping the stranded artificial basis entry onto
    column 0 — silently corrupted the recovered solution values for that
    row.)  Returns the reduced ``(tableau, basis, num_rows)``.
    """
    num_rows = tableau.shape[0]
    total_cols = tableau.shape[1] - 1
    artificial_set = set(int(col) for col in artificial_cols)
    for row in range(num_rows):
        if int(basis[row]) in artificial_set:
            candidates = np.where(
                np.abs(tableau[row, :num_free + num_slack]) > _EPS)[0]
            if candidates.size:
                _pivot(tableau, basis, row, int(candidates[0]))
    stuck = [row for row in range(num_rows) if int(basis[row]) in artificial_set]
    if stuck:
        keep_rows = [row for row in range(num_rows) if row not in stuck]
        tableau = tableau[keep_rows, :]
        basis = basis[keep_rows]
        num_rows = len(keep_rows)
    keep = [col for col in range(total_cols) if col not in artificial_set]
    remap = {old: new for new, old in enumerate(keep)}
    tableau = tableau[:, keep + [total_cols]]
    basis = np.array([remap[int(b)] for b in basis], dtype=int)
    return tableau, basis, num_rows


def solve_lp_dense(c: np.ndarray, a_ub: np.ndarray, b_ub: np.ndarray,
                   fixed: Optional[Dict[int, float]] = None) -> LPResult:
    """Solve ``min c.x`` s.t. ``a_ub x <= b_ub``, ``x >= 0`` (dense two-phase).

    ``fixed`` maps variable indices to forced values; fixed columns are
    substituted out before solving and re-inserted in the returned
    assignment.  Variable upper bounds must be supplied as explicit rows.
    This is the reference oracle for :func:`solve_bounded_lp`.
    """
    c = np.asarray(c, dtype=float)
    a_ub = np.asarray(a_ub, dtype=float)
    b_ub = np.asarray(b_ub, dtype=float)
    num_vars = c.shape[0]
    fixed = fixed or {}

    free_vars = [j for j in range(num_vars) if j not in fixed]
    fixed_vector = np.zeros(num_vars)
    for index, value in fixed.items():
        fixed_vector[index] = value

    # Normalise the objective so the reduced-cost stopping tolerance is
    # scale-free: the placement objective lives at the ~1e-9 J scale, where
    # an absolute epsilon would declare optimality several pivots early and
    # hand branch-and-bound an unsound bound.  The recovered vertex is
    # unaffected; the reported objective is recomputed with the original c.
    cost_scale = float(np.max(np.abs(c))) if c.size else 0.0
    reduced_c = (c[free_vars] / cost_scale) if cost_scale > 0 else c[free_vars]
    if a_ub.size:
        reduced_a = a_ub[:, free_vars]
        reduced_b = b_ub - a_ub @ fixed_vector
    else:
        reduced_a = np.zeros((0, len(free_vars)))
        reduced_b = np.zeros(0)

    num_rows = reduced_a.shape[0]
    num_free = len(free_vars)
    iterations = 0

    # Normalise rows so every RHS is non-negative (flip the row sign turns a
    # <= constraint into a >= constraint, which then needs a surplus variable
    # and an artificial variable).
    surplus_rows = []
    for row in range(num_rows):
        if reduced_b[row] < -_EPS:
            reduced_a[row, :] *= -1.0
            reduced_b[row] *= -1.0
            surplus_rows.append(row)

    num_slack = num_rows
    num_artificial = len(surplus_rows)
    total_cols = num_free + num_slack + num_artificial

    tableau = np.zeros((num_rows + 1, total_cols + 1))
    tableau[:num_rows, :num_free] = reduced_a
    tableau[:num_rows, -1] = reduced_b
    basis = np.zeros(num_rows, dtype=int)

    artificial_index = 0
    artificial_cols = []
    for row in range(num_rows):
        slack_col = num_free + row
        sign = -1.0 if row in surplus_rows else 1.0
        tableau[row, slack_col] = sign
        if row in surplus_rows:
            art_col = num_free + num_slack + artificial_index
            tableau[row, art_col] = 1.0
            basis[row] = art_col
            artificial_cols.append(art_col)
            artificial_index += 1
        else:
            basis[row] = slack_col

    # ---------------- Phase 1 ---------------- #
    # Maximisation-tableau convention: to minimise the sum of artificials we
    # maximise its negation, so the bottom row starts at +1 on the artificial
    # columns and is then priced out against the artificial basis rows.
    if num_artificial:
        phase1 = np.zeros(total_cols + 1)
        for col in artificial_cols:
            phase1[col] = 1.0
        tableau = np.vstack([tableau, phase1])
        # Price out the artificial basis columns.
        for row in range(num_rows):
            if basis[row] in artificial_cols:
                tableau[-1, :] -= tableau[row, :]
        status, pivots = _simplex(tableau, basis, total_cols)
        iterations += pivots
        if status is not LPStatus.OPTIMAL or tableau[-1, -1] < -1e-6:
            return LPResult(LPStatus.INFEASIBLE, iterations=iterations)
        tableau, basis, num_rows = _remove_artificials(
            tableau[:num_rows, :], basis, num_free, num_slack, artificial_cols)
        total_cols = num_free + num_slack
        tableau_rows = tableau
    else:
        tableau_rows = tableau

    # ---------------- Phase 2 ---------------- #
    # Minimising reduced_c.x is maximising (-reduced_c).x, whose tableau
    # bottom row starts as +reduced_c.
    objective_row = np.zeros(total_cols + 1)
    objective_row[:num_free] = reduced_c
    tableau = np.vstack([tableau_rows[:num_rows, :], objective_row])
    # Price out basic variables that appear in the objective.
    for row in range(num_rows):
        coefficient = tableau[-1, basis[row]]
        if abs(coefficient) > _EPS:
            tableau[-1, :] -= coefficient * tableau[row, :]
    status, pivots = _simplex(tableau, basis, total_cols)
    iterations += pivots
    if status is LPStatus.UNBOUNDED:
        return LPResult(LPStatus.UNBOUNDED, iterations=iterations)
    if status is LPStatus.ITERATION_LIMIT:
        return LPResult(LPStatus.ITERATION_LIMIT, iterations=iterations)

    values_reduced = np.zeros(total_cols)
    for row in range(num_rows):
        values_reduced[basis[row]] = tableau[row, -1]
    values = np.array(fixed_vector, dtype=float)
    for position, var_index in enumerate(free_vars):
        values[var_index] = values_reduced[position]
    objective = float(c @ values)
    return LPResult(LPStatus.OPTIMAL, objective=objective, values=values,
                    iterations=iterations)
