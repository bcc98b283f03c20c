"""Bounded-variable revised simplex for the token-splitting subproblems.

Solves  min c.x  s.t.  A x <= b, 0 <= x <= u  with b >= 0, so the origin is
always a feasible start (no phase 1). The planner exploits this by
formulating splits as deviations from the home-only assignment; most split
variables only need an upper bound of one, which the bounded pivot rules
handle without a constraint row.

The solver starts from the slack basis and appends A's columns as a warm
start would, so the constraint columns, `[I | A]` and the columns and rows
appended since, are stored as given, and B^-1 explicitly (Chvátal, *Linear
Programming*, 1983). A step reads the entering column B^-1 a_j; a pivot is
one rank-1 update of B^-1, over the columns where the pivot row is nonzero,
plus one update of the reduced costs by the pivot row of B^-1 A. Warm
starts append columns priced with the duals y = c_B B^-1 and rows that
border B^-1, in batches of one allocation; each new row bounds one variable
(the split LP's fraction budgets). Pricing is Dantzig over one gain per
column, with a Bland fallback once the objective stalls, which prevents
cycling on degenerate vertices. Growth replaces the arrays it changes, and
`solve` pivots in place on copies it takes once, at entry, so nothing
writes an array a snapshot holds: a snapshot is the dict of the current
arrays.
"""

from __future__ import annotations

import numpy as np

PIVOT_TOL = 1e-9
COST_TOL = 1e-9
STALL_LIMIT = 64
# the solver state a snapshot holds
SNAPSHOT_FIELDS = ("tab", "binv", "rhs", "cost", "red", "upper", "at_upper", "struct_idx", "basis", "objective")


class LPError(RuntimeError):
    """Numerical failure or malformed input in the simplex solver."""


class DenseSimplex:
    def __init__(self, c, a_ub, b_ub, upper=None):
        b = np.asarray(b_ub, dtype=np.float64).ravel()
        if not np.isfinite(b).all():
            raise LPError("LP b is not finite")
        if b.size and b.min() < 0:
            raise LPError("b must be non-negative (origin-feasible form required)")
        m = b.size
        # the slack basis, with no structural column yet
        self.tab = self.binv = np.eye(m)
        self.rhs = b.copy()  # values of the basic variables, in basis order
        self.cost = self.red = np.zeros(m)
        self.upper = np.full(m, np.inf)
        self.at_upper = np.zeros(m, dtype=bool)
        self.struct_idx = np.arange(0)
        self.basis = np.arange(m)
        self.objective = 0.0
        self._pivots = 0
        self.add_columns(np.atleast_2d(a_ub), c, upper)

    @property
    def num_rows(self) -> int:
        return self.tab.shape[0]

    @property
    def num_struct(self) -> int:
        return self.struct_idx.size

    # ------------------------------------------------------------------
    # warm-start growth

    def add_columns(self, cols, c_new, upper_new=None) -> None:
        """Append structural columns (entering at zero); basis stays feasible.

        Each column is stored as given and priced with the duals:
        its reduced cost is c_j - y a_j. Non-finite columns or costs, or
        upper bounds not one positive value per column, raise LPError and
        leave the solver unchanged.
        """
        cols = np.atleast_2d(np.asarray(cols, dtype=np.float64))
        c_new = np.asarray(c_new, dtype=np.float64).ravel()
        k = c_new.size
        if cols.shape != (self.num_rows, k):
            raise LPError(f"new columns shaped {cols.shape}, expected ({self.num_rows}, {k})")
        if not (np.isfinite(cols).all() and np.isfinite(c_new).all()):
            raise LPError("new columns and their costs must be finite")
        if upper_new is None:
            upper_new = np.full(k, np.inf)
        else:
            upper_new = np.asarray(upper_new, dtype=np.float64).ravel()
            # an infinite upper bound is no bound; NaN fails the > 0 test
            if upper_new.shape != (k,):
                raise LPError(f"{k} new columns but {upper_new.size} upper bounds")
            if not (upper_new > 0).all():
                raise LPError("new upper bounds must be positive (or omitted)")
        duals = self.cost[self.basis] @ self.binv
        start = self.tab.shape[1]
        self.tab = np.hstack([self.tab, cols])
        self.cost = np.concatenate([self.cost, c_new])
        self.red = np.concatenate([self.red, c_new - duals @ cols])
        self.upper = np.concatenate([self.upper, upper_new])
        self.at_upper = np.concatenate([self.at_upper, np.zeros(k, dtype=bool)])
        self.struct_idx = np.concatenate([self.struct_idx, np.arange(start, start + k)])

    def add_row(self, positions, coefs, b_new) -> None:
        """Append the rows coefs[i] * x[positions[i]] <= b_new[i] at once.

        positions index structural variables. The current point must
        satisfy every row; each new slack starts basic at its row's slack.
        B^-1 is bordered: a new row's B^-1 row is its slack's unit row less
        its coefficient times the B^-1 row of its variable, if that variable
        is basic. The new rows' duals are zero, so no reduced cost changes,
        and a new row has no coefficient on the slack of another, so rows
        appended together equal rows appended one at a time.
        """
        positions = np.asarray(positions, dtype=np.intp).ravel()
        coefs = np.asarray(coefs, dtype=np.float64).ravel()
        b_new = np.asarray(b_new, dtype=np.float64).ravel()
        k = positions.size
        if coefs.shape != (k,) or b_new.shape != (k,):
            raise LPError(f"{k} new rows but {coefs.size} coefficients and {b_new.size} bounds")
        if not (np.isfinite(coefs).all() and np.isfinite(b_new).all()):
            raise LPError("new row coefficients and bounds must be finite")
        m, ncols = self.tab.shape
        cols = self.struct_idx[positions]
        slack = b_new - coefs * self._full_solution()[cols]
        if (slack < -PIVOT_TOL).any():
            raise LPError("new row is violated at the current point")
        rows = np.arange(m, m + k)
        new_slacks = np.arange(ncols, ncols + k)
        tab = np.zeros((m + k, ncols + k))
        tab[:m, :ncols] = self.tab
        tab[rows, cols] = coefs
        tab[rows, new_slacks] = 1.0
        binv = np.zeros((m + k, m + k))
        binv[:m, :m] = self.binv
        binv[rows, rows] = 1.0
        basis_row = np.full(ncols, -1)
        basis_row[self.basis] = np.arange(m)
        basic = basis_row[cols] >= 0
        binv[rows[basic], :m] = -coefs[basic, None] * self.binv[basis_row[cols[basic]]]
        self.tab, self.binv = tab, binv
        self.rhs = np.concatenate([self.rhs, np.where(slack < 0.0, 0.0, slack)])
        self.cost = np.concatenate([self.cost, np.zeros(k)])
        self.red = np.concatenate([self.red, np.zeros(k)])
        self.upper = np.concatenate([self.upper, np.full(k, np.inf)])
        self.at_upper = np.concatenate([self.at_upper, np.zeros(k, dtype=bool)])
        self.basis = np.concatenate([self.basis, new_slacks])

    # ------------------------------------------------------------------
    # pivoting

    def _full_solution(self) -> np.ndarray:
        x = np.zeros(self.tab.shape[1])
        x[self.at_upper] = self.upper[self.at_upper]
        x[self.basis] = self.rhs
        return x

    def optimal(self) -> bool:
        """True when no column's gain exceeds COST_TOL: `solve`'s own stop
        test, so `solve` would return at once, without a step."""
        return self._entering() is None

    def _entering(self):
        """(gain, the lowest column of the largest gain) if some gain exceeds
        COST_TOL, else None. A column's gain is how fast the objective falls
        as it leaves its bound: -red at its lower bound, red at its upper,
        -inf while basic. A NaN gain raises LPError naming its column."""
        gain = np.where(self.at_upper, self.red, -self.red)
        gain[self.basis] = -np.inf
        col = int(np.argmax(gain))  # the first NaN, if there is one
        if gain[col] > COST_TOL:
            return gain, col
        if np.isnan(gain[col]):
            raise LPError(f"column {col} has a NaN reduced cost")
        return None

    def _block(self, rows: np.ndarray, limits: np.ndarray, t_best: float):
        """(step, row) if the smallest of `limits` beats t_best by more than
        the tolerance, else None. The step is clamped at 0; among the rows
        within the tolerance of it, the one of the lowest basic index blocks."""
        if not rows.size:
            return None
        best = float(limits.min())
        tol = PIVOT_TOL * (1.0 + abs(best))
        if not best < t_best - tol:
            return None
        tied = rows[limits <= best + tol]
        return max(best, 0.0), int(tied[np.argmin(self.basis[tied])])

    def _step(self, col: int) -> None:
        from_upper = self.at_upper[col]
        a = self.tab[:, col]
        nz = np.flatnonzero(a)
        d = self.binv[:, nz] @ a[nz]  # the entering column B^-1 a_j
        direction = -d if from_upper else d
        # basic variables move by -t * direction as the entering variable
        # travels t away from its bound; find the blocking limit: a bound
        # flip (may be inf), then basics decreasing toward 0, then basics
        # increasing toward a finite upper bound
        t_best, block_row, block_to_upper = float(self.upper[col]), -1, False
        dec = np.flatnonzero(direction > PIVOT_TOL)
        inc = np.flatnonzero(direction < -PIVOT_TOL)
        inc = inc[np.isfinite(self.upper[self.basis[inc]])]
        for rows, limits, to_upper in ((dec, self.rhs[dec] / direction[dec], False),
                                       (inc, (self.upper[self.basis[inc]] - self.rhs[inc]) / -direction[inc], True)):
            block = self._block(rows, limits, t_best)
            if block is not None:
                t_best, block_row = block
                block_to_upper = to_upper

        if not np.isfinite(t_best):
            raise LPError("LP is unbounded (no blocking bound)")

        t = t_best
        self.rhs -= t * direction
        self.objective += self.red[col] * (-t if from_upper else t)

        if block_row < 0:
            # bound flip: the entering variable runs to its other bound
            self.at_upper[col] = not from_upper
            return

        leaving = self.basis[block_row]
        if block_to_upper:
            self.at_upper[leaving] = True
        piv = d[block_row]
        if abs(piv) < PIVOT_TOL:
            raise LPError("numerically singular pivot")
        entering_value = self.upper[col] - t if from_upper else t
        # the new B^-1: its pivot row divided by the pivot, and d times that
        # row subtracted from every row, only in the columns where it is
        # nonzero; a row where d is 0 subtracts an exact zero
        brow = self.binv[block_row] / piv
        used = np.flatnonzero(brow)
        self.binv[:, used] -= np.outer(d, brow[used])
        self.binv[block_row] = brow
        prow = brow[used] @ self.tab[used]  # the pivot row of B^-1 A, divided by the pivot
        self.red -= self.red[col] * prow
        self.basis[block_row] = col
        self.at_upper[col] = False
        self.rhs[block_row] = entering_value
        self._pivots += 1

    def solve(self) -> float:
        """Run primal simplex to optimality; returns the objective value.
        Pivots write in place the copies of B^-1, the basic values, the
        reduced costs, the basis and the bound flags taken here, once."""
        self.binv, self.rhs, self.red = self.binv.copy(), self.rhs.copy(), self.red.copy()
        self.basis, self.at_upper = self.basis.copy(), self.at_upper.copy()
        m = self.num_rows
        max_iter = 200 * (m + self.num_struct) + 2000
        stall = 0
        last_obj = self.objective
        for _ in range(max_iter):
            entering = self._entering()
            if entering is None:
                return self.objective
            gain, col = entering
            if stall >= STALL_LIMIT:
                col = int(np.argmax(gain > COST_TOL))  # Bland: smallest index, guarantees termination
            self._step(col)
            if self.objective < last_obj - 1e-12 * (1.0 + abs(last_obj)):
                stall = 0
                last_obj = self.objective
            else:
                stall += 1
        raise LPError(f"simplex exceeded {max_iter} iterations (m={m}, n={self.num_struct})")

    def solution(self) -> np.ndarray:
        """Values of the structural variables, in the order they were added."""
        return self._full_solution()[self.struct_idx]

    def snapshot(self) -> dict:
        """Solver state to roll back to with restore(). No array is copied:
        growth replaces the arrays it changes and `solve` pivots on its own
        copies, so nothing writes an array a snapshot holds."""
        return {name: getattr(self, name) for name in SNAPSHOT_FIELDS}

    def restore(self, snap: dict) -> None:
        """Take a snapshot's state back without copying; the snapshot stays
        valid, since the next `solve` pivots on copies, and can be restored again."""
        for name in SNAPSHOT_FIELDS:
            setattr(self, name, snap[name])
