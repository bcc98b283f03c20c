"""Intra-batch expert replication planning for one (micro_batch, layer).

Replicas of an expert may only live on GPUs of its home node, and each GPU
offers `r` replica slots shared by all experts (the home copy is free).
Given a placement, the token-splitting subproblem - what fraction of each
source's tokens every copy serves - is a linear program: the nested maxima
of the time model are linearized with auxiliary upper-bound variables, and
fractions are modeled as deviations from home-only serving so the origin
is always feasible.

The planner is an incremental greedy: repeatedly give the bottleneck GPU's
hottest expert one more replica on the cheapest candidate GPU, re-solve the
split LP (warm-started), and stop when slots, candidates, or improvement
run out. The LP's per-token charges are rows of the topology's charge
operator (`topology.ChargeOperator`) converted by `costmodel.TimeUnits`.
A fixed placement's LP is built in one column batch per run of replicas
between budget rows, the run's columns charged in one pass. A split is a
`costmodel.SplitPlan`, one column per copy; the LP's solution is scattered
into those columns in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import costmodel as cm
from .costmodel import SplitPlan
from .lp import DenseSimplex, LPError
from .reorder import ReorderPlan
from .topology import ClusterTopology, HardwareProfile

IMPROVE_RTOL = 1e-9


@dataclass(frozen=True)
class ReplicaConfig:
    """Per-GPU replica slot budget; the home copy does not count."""

    slots_per_gpu: int = 2

    def __post_init__(self) -> None:
        if self.slots_per_gpu < 0:
            raise ValueError("slots_per_gpu must be >= 0")


@dataclass
class ReplicaPlacement:
    """Home assignment plus non-home replica GPUs per expert."""

    home: np.ndarray                       # (E,) home GPU per expert
    replicas: dict[int, list[int]] = field(default_factory=dict)

    def copies(self, e: int) -> list[int]:
        return [int(self.home[e])] + self.replicas.get(e, [])

    def slot_usage(self, num_gpus: int) -> np.ndarray:
        used = np.zeros(num_gpus, dtype=int)
        for gpus in self.replicas.values():
            for g in gpus:
                used[g] += 1
        return used

    def serving(self, gpu: int) -> list[int]:
        """Experts with a copy (home or replica) on `gpu`, ascending."""
        out = list(np.flatnonzero(self.home == gpu))
        out.extend(e for e, gpus in self.replicas.items() if gpu in gpus)
        return sorted(set(int(e) for e in out))


def split_of(placement: ReplicaPlacement, matrices: dict[int, np.ndarray]) -> SplitPlan:
    """The split giving each expert of `matrices`, in that order, one
    column per copy, with the shares of its (G, len(copies(e))) matrix."""
    if not matrices:
        return SplitPlan()
    copies = [placement.copies(e) for e in matrices]
    return SplitPlan(np.repeat(list(matrices), list(map(len, copies))), np.concatenate(copies),
                     np.concatenate([np.asarray(frac, dtype=np.float64).T for frac in matrices.values()]))


@dataclass
class ReplicationEntry:
    placement: ReplicaPlacement
    split: SplitPlan
    objective: float


@dataclass
class ReplicationPlan:
    """Replication decisions per (micro_batch, layer)."""

    entries: dict[tuple[int, int], ReplicationEntry] = field(default_factory=dict)


def candidate_gpus(e: int, home: np.ndarray, topo: ClusterTopology) -> list[int]:
    """GPUs eligible for replicas of e: its home node, home GPU excluded."""
    h = int(home[e])
    return [g for g in topo.node_gpus(topo.node_of(h)) if g != h]


def validate_placement(placement: ReplicaPlacement, topo: ClusterTopology, cfg: ReplicaConfig | None = None) -> None:
    for e, gpus in placement.replicas.items():
        cands = set(candidate_gpus(e, placement.home, topo))
        for g in gpus:
            if g not in cands:
                raise ValueError(f"replica of expert {e} on GPU {g} leaves its home node or duplicates home")
        if len(set(gpus)) != len(gpus):
            raise ValueError(f"duplicate replica GPUs for expert {e}")
    if cfg is not None:
        used = placement.slot_usage(topo.num_gpus)
        if (used > cfg.slots_per_gpu).any():
            raise ValueError(
                f"replica slots exceeded: usage {used.tolist()}, limit {cfg.slots_per_gpu}"
            )


def validate_split(split: SplitPlan, placement: ReplicaPlacement, x: np.ndarray | None = None) -> None:
    """Coupling: each split expert's columns are exactly its copies, in
    order. Given x, first the shares' conservation, range and home checks
    of `costmodel.check_split`."""
    if x is not None:
        cm.check_split(np.asarray(x, dtype=np.float64), placement.home, split)
    starts = split.starts()
    for e, gpus in zip(split.expert[starts].tolist(), np.split(split.gpu, starts[1:])):
        copies = placement.copies(e) if 0 <= e < len(placement.home) else []
        if gpus.tolist() != copies:
            raise ValueError(f"split columns of expert {e} serve GPUs {gpus.tolist()}, not its copies {copies} in order")


# ---------------------------------------------------------------------------
# token-splitting LP


def home_times(x: np.ndarray, home: np.ndarray, topo: ClusterTopology,
               units: cm.TimeUnits) -> tuple[np.ndarray, np.ndarray]:
    """Home-only (5, G) loads of x and their times in seconds.

    The conversion runs without numpy's overflow warning, so a caller that
    finds an infinite time reports the overflow once.
    """
    loads = cm.compute_loads(x, home, topo)
    with np.errstate(over="ignore"):
        return loads, units.times(loads)


class TokenSplitLP:
    """Warm-startable LP minimizing max-comp + max-comm over split fractions.

    Rows 0..G-1 bound the computation time of each GPU, rows G..5G-1 bound
    the four link-direction times; both bounds are shifted so the home-only
    split sits at the origin. An expert's first replica only appends bounded
    columns (v <= 1 doubles as the fraction budget); a second replica
    materializes one budget row per routed source, all in one batch.
    """

    N_AUX = 4  # pc, qc, pm, qm: signed deviations of the two maxima

    def __init__(self, x: np.ndarray, home: np.ndarray, topo: ClusterTopology, model, hw: HardwareProfile):
        self.x = np.asarray(x, dtype=np.float64)
        self.home = np.asarray(home)
        self.topo = topo
        g = topo.num_gpus
        self.units = cm.TimeUnits.of(model, hw, g)

        self.base, base_times = home_times(self.x, self.home, topo, self.units)
        if not np.isfinite(base_times).all():
            # inf - inf in the shifted bounds below would hand the simplex NaN
            raise LPError(f"token-split LP: modeled times overflow to {base_times.max():g} s under {hw}")
        comp_consts = base_times[0]
        comm_consts = base_times[1:].ravel()  # (4G,) in [dir][gpu] order
        self.t0_comp = float(comp_consts.max())
        self.t0_comm = float(comm_consts.max())

        n_aux_rows = 5 * g
        a = np.zeros((n_aux_rows, self.N_AUX))
        a[:g, 0] = -1.0   # pc
        a[:g, 1] = 1.0    # qc
        a[g:, 2] = -1.0   # pm
        a[g:, 3] = 1.0    # qm
        b = np.concatenate([self.t0_comp - comp_consts, self.t0_comm - comm_consts])
        c = np.array([1.0, -1.0, 1.0, -1.0])
        self.solver = DenseSimplex(c, a, b)
        # (source, expert, copy) of v column N_AUX + i; copy indexes ReplicaPlacement.copies(expert)
        self.var_meta = np.empty((0, 3), dtype=np.int64)
        # expert -> its first budget row; the rows are consecutive, one per routed source
        self.sum_rows: dict[int, int] = {}
        self.replicas: dict[int, list[int]] = {}

    def add_replica(self, e: int, gpu: int) -> None:
        self.add_replicas([(e, gpu)])

    def add_replicas(self, pairs) -> None:
        """Append replicas, one (expert, GPU) pair each, in order.

        The LP grows as with one `add_replica` call per pair: every pair is
        checked before anything changes, an expert's second replica first
        adds its budget rows in one `add_row` call, and the columns of the
        pairs in between go into one `add_columns` call.
        """
        pairs = [(int(e), int(gpu)) for e, gpu in pairs]
        copies: dict[int, set[int]] = {}
        for e, gpu in pairs:
            taken = copies.setdefault(e, {int(self.home[e]), *self.replicas.get(e, [])})
            if gpu in taken:
                raise ValueError(f"expert {e} already has a copy on GPU {gpu}")
            taken.add(gpu)
        run: list[tuple[int, int, int, np.ndarray]] = []  # replicas whose columns are pending
        for e, gpu in pairs:
            replicas = self.replicas.setdefault(e, [])
            replicas.append(gpu)
            sources = np.flatnonzero(self.x[:, e] > 0)
            if sources.size == 0:
                continue
            if len(replicas) > 1 and e not in self.sum_rows:
                self._add_columns(run)
                run = []
                # second replica: the fraction budget now couples two columns, so the
                # v <= 1 bounds no longer suffice; the first copy's columns are in source order
                first_copy = np.flatnonzero((self.var_meta[:, 1] == e) & (self.var_meta[:, 2] == 1))
                self.sum_rows[e] = self.solver.num_rows
                self.solver.add_row(self.N_AUX + first_copy, np.ones(sources.size), np.ones(sources.size))
            # len(replicas) is gpu's position in [home] + replicas
            run.append((e, gpu, len(replicas), sources))
        self._add_columns(run)

    def _add_columns(self, run: list[tuple[int, int, int, np.ndarray]]) -> None:
        """One `add_columns` call for the v columns of `run`, whose items are
        (expert, gpu, copy index, routed sources).

        A column's bound-row entries are x * (t_gpu - t_home), the time
        charge per token served at gpu less the charge of serving it at home.
        The run is charged in one pass over the positions each pair charges
        (`ChargeOperator.pair_entries`): t_gpu is written, t_home
        subtracted and the column scaled by x in place. A position neither
        pair charges stays 0.0, which x * (0.0 - 0.0) also gives, so every
        entry equals a dense pass per replica bit for bit.
        """
        if not run:
            return
        g = self.topo.num_gpus
        sizes = [sources.size for *_, sources in run]
        width = sum(sizes)
        source = np.concatenate([sources for *_, sources in run])
        expert, gpu, copy = np.repeat([item[:3] for item in run], sizes, axis=0).T
        cols = np.zeros((self.solver.num_rows, width))
        charged = cols[:5 * g]
        col, pos = self.topo.charges.pair_entries(source, gpu)
        charged[pos, col] = self.units.times_at(pos)
        col, pos = self.topo.charges.pair_entries(source, self.home[expert])
        charged[pos, col] -= self.units.times_at(pos)
        charged *= self.x[source, expert]
        start = 0
        for e, _, _, sources in run:
            if e in self.sum_rows:
                idx = np.arange(sources.size)
                cols[self.sum_rows[e] + idx, start + idx] = 1.0
            start += sources.size
        self.var_meta = np.concatenate([self.var_meta, np.column_stack([source, expert, copy])])
        self.solver.add_columns(cols, np.zeros(width), upper_new=np.ones(width))

    def solve(self) -> float:
        """Optimize; returns the exact objective T0 + signed deviations."""
        try:
            obj = self.solver.solve()
        except LPError as err:
            raise LPError(
                f"token-split LP failed ({err}); instance: G={self.topo.num_gpus}, "
                f"replicas={self.replicas}"
            ) from err
        return self.t0_comp + self.t0_comm + obj

    def snapshot(self) -> dict:
        return {
            "solver": self.solver.snapshot(),
            "var_meta": self.var_meta,
            "sum_rows": dict(self.sum_rows),
            "replica_gpus": {e: list(g) for e, g in self.replicas.items()},
        }

    def restore(self, snap: dict) -> None:
        self.solver.restore(snap["solver"])
        self.var_meta = snap["var_meta"]
        self.sum_rows = dict(snap["sum_rows"])
        self.replicas = {e: list(g) for e, g in snap["replica_gpus"].items()}

    def split_plan(self) -> SplitPlan:
        """Shares of the current solution; the home copy takes the rest.

        The LP values are scattered into one column per copy of each
        replicated expert, in replica order, then checked, clipped and
        renormalized at once. Raises LPError when a routed source's
        replica fractions sum outside [-SPLIT_TOL, 1 + SPLIT_TOL], naming
        the first such expert in replica order and its worst source;
        smaller drift is clipped and renormalized away.
        """
        if not self.replicas:
            return SplitPlan()
        experts = list(self.replicas)
        gpus = [[int(self.home[e]), *replicas] for e, replicas in self.replicas.items()]
        counts = list(map(len, gpus))
        share = np.zeros((sum(counts), self.topo.num_gpus))
        split = SplitPlan(np.repeat(experts, counts), np.concatenate(gpus), share)
        starts = split.starts()
        start = np.zeros(self.x.shape[1], dtype=np.int64)
        start[experts] = starts
        source, expert, copy = self.var_meta.T
        share[start[expert] + copy, source] = self.solver.solution()[self.N_AUX:]
        moved = split.copy_sums(first=1)
        outside = np.where(self.x[:, experts].T > 0, np.maximum(moved - 1.0, -moved), 0.0)
        bad = np.flatnonzero((outside > cm.SPLIT_TOL).any(axis=1))
        if bad.size:
            i = bad[0]
            j = int(np.argmax(outside[i]))
            raise LPError(
                f"token-split LP residual: replica fractions of expert {experts[i]} from source "
                f"{j} sum to {moved[i, j]:.9g}, {outside[i, j]:.3e} outside [0, 1] "
                f"(tolerance {cm.SPLIT_TOL:g})"
            )
        # rows without routed tokens stay (1, 0, ..., 0): moved is 0 and the sum 1
        share[starts] = 1.0 - moved
        np.clip(share, 0.0, 1.0, out=share)
        share /= np.repeat(split.copy_sums(), counts, axis=0)
        return split


def solve_token_split_lp(
    x: np.ndarray,
    placement: ReplicaPlacement,
    topo: ClusterTopology,
    model,
    hw: HardwareProfile,
) -> SplitPlan:
    """Optimal token fractions for a fixed replica placement."""
    validate_placement(placement, topo)
    lp = TokenSplitLP(x, placement.home, topo, model, hw)
    lp.add_replicas((e, gpu) for e in sorted(placement.replicas) for gpu in placement.replicas[e])
    lp.solve()
    split = lp.split_plan()
    validate_split(split, placement, x)
    return split


# ---------------------------------------------------------------------------
# planners


def _estimate(x, placement: ReplicaPlacement, split: SplitPlan, topo, units: cm.TimeUnits) -> cm.CostEstimate:
    loads = cm.compute_loads(x, placement.home, topo, split=split)
    return units.estimate(loads)


def _served_tokens(x: np.ndarray, placement: ReplicaPlacement, split: SplitPlan, e: int, gpu: int) -> float:
    col = np.flatnonzero((split.expert == e) & (split.gpu == gpu))
    if col.size:
        return float((x[:, e] * split.share[col[0]]).sum())
    return float(x[:, e].sum()) if placement.home[e] == gpu else 0.0


MAX_TRIALS_PER_STEP = 8


def _bottleneck_candidates(comp_t: np.ndarray, comm_t: np.ndarray) -> list[int]:
    """GPUs supporting the comp or comm maximum, hottest first.

    Only these can lower max-comp + max-comm when relieved, so they are the
    placements worth trying before concluding that replication is done.
    """
    cands: set[int] = set()
    for values in (comp_t, comm_t):
        top = values.max()
        cands.update(np.flatnonzero(values >= top * (1.0 - 1e-9)).tolist())
    scores = comp_t + comm_t
    ranked = sorted(cands, key=lambda g: (-scores[g], g))
    return ranked[:MAX_TRIALS_PER_STEP]


def greedy_replicate(
    x: np.ndarray,
    plan: ReorderPlan,
    topo: ClusterTopology,
    model,
    hw: HardwareProfile,
    cfg: ReplicaConfig,
) -> tuple[ReplicaPlacement, SplitPlan]:
    """Incremental greedy replication with LP re-splitting after each step.

    Each step replicates a bottleneck GPU's most-loaded expert onto the
    cheapest candidate GPU with a free slot, then re-solves the token split.
    A placement that fails to improve the exact objective by more than
    IMPROVE_RTOL relative is rolled back; because the LP equalizes the load
    of several GPUs at the maximum, every GPU supporting the current maxima
    gets a trial before the search stops.

    A trial whose grown LP is already optimal (no column may enter) is
    rolled back without solving it, because it cannot be accepted.
    `DenseSimplex.optimal` is `solve`'s own stop test on the same reduced
    costs, so such a trial is exactly a solved one that takes no step, also
    when a new column is priced within rounding of COST_TOL. No step
    leaves the LP point unchanged, so the trial split is the accepted split
    plus a zero share on the new copy. Its exact objective differs from the
    accepted one only in the summation order of non-negative terms, about
    1e-15 relative, which IMPROVE_RTOL = 1e-9 always rejects. Before the
    first acceptance the LP is unsolved and its aux columns may enter, so
    those trials are solved.
    """
    x = np.asarray(x, dtype=np.float64)
    home = np.asarray(plan.assignment)
    placement = ReplicaPlacement(home=home)
    split = SplitPlan()
    if cfg.slots_per_gpu == 0 or x.sum() == 0:
        return placement, split

    lp = TokenSplitLP(x, home, topo, model, hw)
    # estimate of the accepted placement; an accepted trial hands over its own
    est = lp.units.estimate(lp.base)
    slots = placement.slot_usage(topo.num_gpus)

    while (slots < cfg.slots_per_gpu).any():
        scores = est.comp_times + est.comm_times
        accepted = False
        for g_b in _bottleneck_candidates(est.comp_times, est.comm_times):
            served = sorted(
                ((e, _served_tokens(x, placement, split, e, g_b)) for e in placement.serving(g_b)),
                key=lambda item: (-item[1], item[0]),
            )
            e_star = g_t = None
            for e, _load in served:
                targets = [
                    g for g in candidate_gpus(e, home, topo)
                    if g not in placement.replicas.get(e, []) and slots[g] < cfg.slots_per_gpu
                ]
                if targets:
                    e_star = e
                    g_t = min(targets, key=lambda g: (scores[g], g))
                    break
            if e_star is None:
                continue

            snap = lp.snapshot()
            lp.add_replica(e_star, g_t)
            if lp.solver.optimal():
                lp.restore(snap)
                continue
            lp.solve()
            trial_placement = ReplicaPlacement(home=home, replicas={
                e: list(gpus) for e, gpus in lp.replicas.items()
            })
            trial_split = lp.split_plan()
            trial = _estimate(x, trial_placement, trial_split, topo, lp.units)
            if trial.t_moe < est.t_moe * (1.0 - IMPROVE_RTOL):
                placement = trial_placement
                split = trial_split
                est = trial
                slots = placement.slot_usage(topo.num_gpus)
                accepted = True
                break
            lp.restore(snap)
        if not accepted:
            break

    validate_placement(placement, topo, cfg)
    validate_split(split, placement, x)
    return placement, split


# ---------------------------------------------------------------------------
# memory accounting


def replica_memory(model, cfg: ReplicaConfig, scheme: str) -> int:
    """Bytes of replica-slot parameter memory per GPU for the buffer scheme."""
    if scheme == "per-layer":
        return model.num_layers * cfg.slots_per_gpu * model.param_bytes
    if scheme == "layer-shared":
        return cfg.slots_per_gpu * model.param_bytes
    raise ValueError(f"unknown buffer scheme {scheme!r}; expected 'per-layer' or 'layer-shared'")
