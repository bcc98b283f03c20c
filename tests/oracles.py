"""Reference solvers the tests compare the planners against.

`exact_milp_small` enumerates every feasible replica placement of a small
instance and solves the token-split LP for each; the greedy replication
planner is checked against its optimum.
"""

from __future__ import annotations

from itertools import chain, combinations

import numpy as np

from moebalance import costmodel as cm
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
            loads = cm.compute_loads(x, home, topo, splits=split.to_split_map(placement))
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
