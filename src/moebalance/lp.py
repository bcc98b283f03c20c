"""Bounded-variable dense primal simplex for the token-splitting subproblems.

Solves  min c.x  s.t.  A x <= b, 0 <= x <= u  with b >= 0, so the origin is
always a feasible start (no phase 1). The planner exploits this by
formulating splits as deviations from the home-only assignment; most split
variables only need an upper bound of one, which the bounded pivot rules
handle without a constraint row.

The tableau keeps the slack block explicit, which makes B^-1 available for
warm starts: after an optimal solve, new structural columns and new rows
can be appended and the solve resumed from the current basis. Rows and
columns are appended in batches, one tableau allocation per batch, and
each new row bounds one variable (the split LP's fraction budgets); a
placement's split LP is built in one column batch per run of replicas
that needs no new budget row. Pricing is Dantzig with a Bland fallback
once the objective stalls, which prevents cycling on degenerate vertices.
A snapshot shares its arrays with the solver until the next pivot copies
the ones it writes, so a trial rolled back without a pivot copies nothing.
"""

from __future__ import annotations

import numpy as np

PIVOT_TOL = 1e-9
COST_TOL = 1e-9
STALL_LIMIT = 64
# the solver state a snapshot holds
SNAPSHOT_FIELDS = ("tab", "rhs", "cost", "red", "upper", "at_upper", "struct_idx", "slack_idx", "basis",
                   "objective")


class LPError(RuntimeError):
    """Numerical failure or malformed input in the simplex solver."""


class DenseSimplex:
    def __init__(self, c, a_ub, b_ub, upper=None):
        a = np.atleast_2d(np.asarray(a_ub, dtype=np.float64))
        b = np.asarray(b_ub, dtype=np.float64).ravel()
        c = np.asarray(c, dtype=np.float64).ravel()
        m, n = a.shape
        if b.shape != (m,) or c.shape != (n,):
            raise LPError(f"inconsistent LP shapes: A {a.shape}, b {b.shape}, c {c.shape}")
        for name, values in (("c", c), ("A", a), ("b", b)):
            if not np.isfinite(values).all():
                raise LPError(f"LP {name} is not finite")
        if m and b.min() < 0:
            raise LPError("b must be non-negative (origin-feasible form required)")
        if upper is None:
            upper = np.full(n, np.inf)
        else:
            upper = np.asarray(upper, dtype=np.float64).ravel()
            # an infinite upper bound is no bound; NaN fails the > 0 test
            if upper.shape != (n,) or not (upper > 0).all():
                raise LPError("upper bounds must be positive (or omitted)")
        self.tab = np.hstack([a, np.eye(m)])
        self.rhs = b.copy()
        self.cost = np.concatenate([c, np.zeros(m)])
        self.red = self.cost.copy()
        self.upper = np.concatenate([upper, np.full(m, np.inf)])
        self.at_upper = np.zeros(n + m, dtype=bool)
        self.struct_idx = np.arange(n)
        self.slack_idx = np.arange(n, n + m)
        self.basis = self.slack_idx.copy()
        self.objective = 0.0
        self._pivots = 0
        # a snapshot holds self.tab, or the arrays a pivot writes in place
        # (rhs, red, at_upper, basis); the pivot copies them before writing
        self._tab_shared = False
        self._state_shared = False

    @property
    def num_rows(self) -> int:
        return self.tab.shape[0]

    @property
    def num_struct(self) -> int:
        return self.struct_idx.size

    @property
    def pivots(self) -> int:
        """Pivots taken since construction; while none, the slack block is
        the identity and `add_columns` skips the B^-1 product."""
        return self._pivots

    # ------------------------------------------------------------------
    # warm-start growth

    def add_columns(self, cols, c_new, upper_new=None) -> None:
        """Append structural columns (entering at zero); basis stays feasible.

        The columns are multiplied by B^-1, the slack block, once a pivot
        has been taken. Before the first pivot B^-1 is the identity and the
        columns enter as given: the product would only turn -0.0 entries
        into +0.0, and the split LP builds none.
        """
        cols = np.atleast_2d(np.asarray(cols, dtype=np.float64))
        c_new = np.asarray(c_new, dtype=np.float64).ravel()
        if cols.shape != (self.num_rows, c_new.size):
            raise LPError(f"new columns shaped {cols.shape}, expected ({self.num_rows}, {c_new.size})")
        if upper_new is None:
            upper_new = np.full(c_new.size, np.inf)
        else:
            upper_new = np.asarray(upper_new, dtype=np.float64).ravel()
        transformed = self.tab[:, self.slack_idx] @ cols if self.pivots else cols
        red_new = c_new - self.cost[self.basis] @ transformed
        start = self.tab.shape[1]
        self.tab = np.hstack([self.tab, transformed])
        self._tab_shared = False
        self.cost = np.concatenate([self.cost, c_new])
        self.red = np.concatenate([self.red, red_new])
        self.upper = np.concatenate([self.upper, upper_new])
        self.at_upper = np.concatenate([self.at_upper, np.zeros(c_new.size, dtype=bool)])
        self.struct_idx = np.concatenate([self.struct_idx, np.arange(start, start + c_new.size)])

    def add_row(self, positions, coefs, b_new) -> None:
        """Append the rows coefs[i] * x[positions[i]] <= b_new[i] in one
        tableau allocation.

        positions index structural variables. The current point must
        satisfy every row (each slack starts basic and non-negative). A row
        on a basic variable is expressed in the basis by subtracting its
        coefficient times that variable's tableau row; a new row has no
        coefficient on the slack of another, so rows appended together
        equal rows appended one at a time, bit for bit.
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
        grown = np.zeros((m + k, ncols + k))
        grown[:m, :ncols] = self.tab
        rows = np.arange(m, m + k)
        grown[rows, cols] = coefs
        basis_row = np.full(ncols, -1)
        basis_row[self.basis] = np.arange(m)
        basic = (basis_row[cols] >= 0) & (coefs != 0.0)
        grown[rows[basic], :ncols] -= coefs[basic, None] * self.tab[basis_row[cols[basic]]]
        new_slacks = np.arange(ncols, ncols + k)
        grown[rows, new_slacks] = 1.0
        self.tab = grown
        self._tab_shared = False
        self.rhs = np.concatenate([self.rhs, np.where(slack < 0.0, 0.0, slack)])
        self.cost = np.concatenate([self.cost, np.zeros(k)])
        self.red = np.concatenate([self.red, np.zeros(k)])
        self.upper = np.concatenate([self.upper, np.full(k, np.inf)])
        self.at_upper = np.concatenate([self.at_upper, np.zeros(k, dtype=bool)])
        self.slack_idx = np.concatenate([self.slack_idx, new_slacks])
        self.basis = np.concatenate([self.basis, new_slacks])

    # ------------------------------------------------------------------
    # pivoting

    def _full_solution(self) -> np.ndarray:
        x = np.zeros(self.tab.shape[1])
        x[self.at_upper] = self.upper[self.at_upper]
        x[self.basis] = self.rhs
        return x

    def optimal(self) -> bool:
        """True when no column may enter the basis, so `solve` would return
        at once, without a step."""
        return not self._eligible().any()

    def _eligible(self) -> np.ndarray:
        lower_gain = (~self.at_upper) & (self.red < -COST_TOL)
        upper_gain = self.at_upper & (self.red > COST_TOL)
        mask = lower_gain | upper_gain
        mask[self.basis] = False
        return mask

    def _step(self, col: int) -> None:
        if self._state_shared:
            self.rhs, self.red = self.rhs.copy(), self.red.copy()
            self.at_upper, self.basis = self.at_upper.copy(), self.basis.copy()
            self._state_shared = False
        from_upper = self.at_upper[col]
        d = self.tab[:, col]
        direction = -d if from_upper else d
        # basic variables move by -t * direction as the entering variable
        # travels t away from its bound; find the blocking limit
        t_best = float(self.upper[col])  # bound flip; may be inf
        block_row = -1
        block_to_upper = False

        dec = np.flatnonzero(direction > PIVOT_TOL)  # basics decreasing toward 0
        if dec.size:
            ratios = self.rhs[dec] / direction[dec]
            best = float(ratios.min())
            if best < t_best - PIVOT_TOL * (1.0 + abs(best)):
                tied = dec[ratios <= best + PIVOT_TOL * (1.0 + abs(best))]
                block_row = int(tied[np.argmin(self.basis[tied])])
                block_to_upper = False
                t_best = max(best, 0.0)

        inc = np.flatnonzero(direction < -PIVOT_TOL)  # basics increasing toward upper
        if inc.size:
            caps = self.upper[self.basis[inc]]
            finite = inc[np.isfinite(caps)]
            if finite.size:
                gaps = (self.upper[self.basis[finite]] - self.rhs[finite]) / (-direction[finite])
                best = float(gaps.min())
                if best < t_best - PIVOT_TOL * (1.0 + abs(best)):
                    tied = finite[gaps <= best + PIVOT_TOL * (1.0 + abs(best))]
                    block_row = int(tied[np.argmin(self.basis[tied])])
                    block_to_upper = True
                    t_best = max(best, 0.0)

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
        piv = self.tab[block_row, col]
        if abs(piv) < PIVOT_TOL:
            raise LPError("numerically singular pivot")
        entering_value = self.upper[col] - t if from_upper else t
        if self._tab_shared:
            self.tab = self.tab.copy()
            self._tab_shared = False
        self.tab[block_row] /= piv
        factors = self.tab[:, col].copy()
        factors[block_row] = 0.0
        # the rank-1 update, subtracted in place. Which sign a zero product
        # takes is left to einsum; no comparison or output sees it: ratio
        # tests compare against +-PIVOT_TOL, eligibility against +-COST_TOL,
        # and rhs zeros are always +0.0
        self.tab -= np.einsum("i,j->ij", factors, self.tab[block_row])
        rfac = self.red[col]
        self.red -= rfac * self.tab[block_row]
        self.basis[block_row] = col
        self.at_upper[col] = False
        self.rhs[block_row] = entering_value
        self._pivots += 1

    def solve(self) -> float:
        """Run primal simplex to optimality; returns the objective value."""
        m = self.num_rows
        max_iter = 200 * (m + self.num_struct) + 2000
        stall = 0
        last_obj = self.objective
        for _ in range(max_iter):
            mask = self._eligible()
            if not mask.any():
                return self.objective
            candidates = np.flatnonzero(mask)
            if stall < STALL_LIMIT:
                col = int(candidates[np.argmax(np.abs(self.red[candidates]))])
            else:
                col = int(candidates[0])  # Bland: smallest index, guarantees termination
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
        """Solver state to roll back to with restore().

        No array is copied: growth replaces arrays instead of writing them,
        and the first pivot after a snapshot copies the arrays it writes in
        place (rhs, red, at_upper, basis, and the tableau unless growth has
        replaced it). A trial rolled back without a pivot copies nothing.
        """
        self._tab_shared = self._state_shared = True
        return {name: getattr(self, name) for name in SNAPSHOT_FIELDS}

    def restore(self, snap: dict) -> None:
        """Take a snapshot's state back without copying; the snapshot stays
        valid, so it can be restored again."""
        for name in SNAPSHOT_FIELDS:
            setattr(self, name, snap[name])
        self._tab_shared = self._state_shared = True
