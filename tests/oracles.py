"""Reference solvers the tests compare the planners against.

`exact_milp_small` enumerates every feasible replica placement of a small
instance and solves the token-split LP for each; the greedy replication
planner is checked against its optimum. `ReferencePivotSimplex` keeps the
simplex's pivot rule as it was before pivots wrote B^-1 in place; the
solver is checked against it step for step. `split_table` builds the
split of a {expert: (GPUs, fractions)} dict, the form the split tests
draw.
"""

from __future__ import annotations

from itertools import chain, combinations

import numpy as np

from moebalance import costmodel as cm
from moebalance import lp
from moebalance.reorder import ReorderPlan
from moebalance.replicate import (
    ReplicaConfig,
    ReplicaPlacement,
    SplitPlan,
    candidate_gpus,
    solve_token_split_lp,
)
from moebalance.topology import ClusterTopology, HardwareProfile

ENUM_GUARD = 2**20


def split_table(splits: dict) -> SplitPlan:
    """The split of {expert: (GPUs (k,), fractions (G, k))}: one column per
    GPU, experts in dict order."""
    if not splits:
        return SplitPlan()
    return SplitPlan(np.repeat(list(splits), [len(gpus) for gpus, _ in splits.values()]),
                     np.concatenate([gpus for gpus, _ in splits.values()]),
                     np.concatenate([np.asarray(frac, dtype=np.float64).T for _, frac in splits.values()]))


class InstanceTooLargeError(ValueError):
    """The exact enumeration oracle refuses instances past the guard."""


def _powerset(items: list[int]):
    return chain.from_iterable(combinations(items, k) for k in range(len(items) + 1))


def exact_milp_small(
    x: np.ndarray,
    plan: ReorderPlan,
    topo: ClusterTopology,
    model,
    hw: HardwareProfile,
    cfg: ReplicaConfig,
) -> tuple[ReplicaPlacement, SplitPlan]:
    """Enumerate every feasible placement, solving the split LP for each.

    Guarded to at most 2^20 candidate placements.
    """
    x = np.asarray(x, dtype=np.float64)
    home = np.asarray(plan.assignment)
    num_experts = x.shape[1]
    cands = [candidate_gpus(e, home, topo) for e in range(num_experts)]
    total = 1
    for c in cands:
        total *= 2 ** len(c)
        if total > ENUM_GUARD:
            raise InstanceTooLargeError(
                f"placement space exceeds {ENUM_GUARD}; refusing exact enumeration"
            )

    units = cm.TimeUnits.of(model, hw, topo.num_gpus)
    best: tuple[float, ReplicaPlacement, SplitPlan] | None = None

    def recurse(e: int, slots: np.ndarray, chosen: dict[int, list[int]]) -> None:
        nonlocal best
        if e == num_experts:
            placement = ReplicaPlacement(home=home, replicas={k: list(v) for k, v in chosen.items() if v})
            split = solve_token_split_lp(x, placement, topo, model, hw)
            loads = cm.compute_loads(x, home, topo, split=split)
            obj = units.estimate(loads).t_moe
            if best is None or obj < best[0] - 1e-15:
                best = (obj, placement, split)
            return
        for subset in _powerset(cands[e]):
            ok = all(slots[g] < cfg.slots_per_gpu for g in subset)
            if not ok:
                continue
            for g in subset:
                slots[g] += 1
            if subset:
                chosen[e] = list(subset)
            recurse(e + 1, slots, chosen)
            chosen.pop(e, None)
            for g in subset:
                slots[g] -= 1

    recurse(0, np.zeros(topo.num_gpus, dtype=int), {})
    assert best is not None
    return best[1], best[2]


class ReferencePivotSimplex(lp.DenseSimplex):
    """`lp.DenseSimplex` with a frozen copy of its earlier pivot rule.

    Pricing masks the eligible columns and takes the largest |red| among
    them (Bland: the first), and a pivot replaces every array it changes,
    updating B^-1 only in the block of rows where the entering column is
    nonzero. Growth, snapshots and the blocking rule are inherited.
    `lp.STALL_LIMIT` is read at each solve, so a test may lower it.
    """

    def optimal(self) -> bool:
        return not self._eligible().any()

    def _eligible(self) -> np.ndarray:
        lower_gain = (~self.at_upper) & (self.red < -lp.COST_TOL)
        upper_gain = self.at_upper & (self.red > lp.COST_TOL)
        mask = lower_gain | upper_gain
        mask[self.basis] = False
        return mask

    def _step(self, col: int) -> None:
        from_upper = self.at_upper[col]
        a = self.tab[:, col]
        nz = np.flatnonzero(a)
        d = self.binv[:, nz] @ a[nz]
        direction = -d if from_upper else d
        t_best, block_row, block_to_upper = float(self.upper[col]), -1, False
        dec = np.flatnonzero(direction > lp.PIVOT_TOL)
        inc = np.flatnonzero(direction < -lp.PIVOT_TOL)
        inc = inc[np.isfinite(self.upper[self.basis[inc]])]
        for rows, limits, to_upper in ((dec, self.rhs[dec] / direction[dec], False),
                                       (inc, (self.upper[self.basis[inc]] - self.rhs[inc]) / -direction[inc], True)):
            block = self._block(rows, limits, t_best)
            if block is not None:
                t_best, block_row = block
                block_to_upper = to_upper

        if not np.isfinite(t_best):
            raise lp.LPError("LP is unbounded (no blocking bound)")

        t = t_best
        self.rhs = self.rhs - t * direction
        self.objective += self.red[col] * (-t if from_upper else t)
        at_upper = self.at_upper.copy()
        self.at_upper = at_upper

        if block_row < 0:
            at_upper[col] = not from_upper
            return

        leaving = self.basis[block_row]
        if block_to_upper:
            at_upper[leaving] = True
        piv = d[block_row]
        if abs(piv) < lp.PIVOT_TOL:
            raise lp.LPError("numerically singular pivot")
        entering_value = self.upper[col] - t if from_upper else t
        brow = self.binv[block_row] / piv
        used = np.flatnonzero(brow)
        others = np.flatnonzero(d)
        others = others[others != block_row]
        binv = self.binv.copy()
        binv[np.ix_(others, used)] -= np.outer(d[others], brow[used])
        binv[block_row] = brow
        self.binv = binv
        prow = brow[used] @ self.tab[used]
        self.red = self.red - self.red[col] * prow
        self.basis = self.basis.copy()
        self.basis[block_row] = col
        at_upper[col] = False
        self.rhs[block_row] = entering_value
        self._pivots += 1

    def solve(self) -> float:
        m = self.num_rows
        max_iter = 200 * (m + self.num_struct) + 2000
        stall = 0
        last_obj = self.objective
        for _ in range(max_iter):
            mask = self._eligible()
            if not mask.any():
                return self.objective
            candidates = np.flatnonzero(mask)
            if stall < lp.STALL_LIMIT:
                col = int(candidates[np.argmax(np.abs(self.red[candidates]))])
            else:
                col = int(candidates[0])
            self._step(col)
            if self.objective < last_obj - 1e-12 * (1.0 + abs(last_obj)):
                stall = 0
                last_obj = self.objective
            else:
                stall += 1
        raise lp.LPError(f"simplex exceeded {max_iter} iterations (m={m}, n={self.num_struct})")
