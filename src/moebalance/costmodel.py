"""Per-GPU load accounting and MoE execution-time estimation.

Loads are measured in tokens. A routing matrix x[j, e] (tokens on source
GPU j routed to expert e) plus an expert placement, and optionally a
replica/split assignment, yield a (5, G) load array: per-GPU computation
and the four link directions, rows `topology.COMP` ... `topology.RDMA_RX`.
`TimeUnits` is the one conversion of such an array to seconds. The
aggregate time is max-of-comp plus max-of-comm across the EP group, with a
log-sum-exp surrogate available for search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .topology import ClusterTopology, HardwareProfile

SPLIT_TOL = 1e-6

# Split assignment: expert -> (serving GPU ids (k,), fractions (G, k)).
# Rows of the fraction matrix sum to 1 for sources with tokens routed to
# the expert; experts absent from the dict are served entirely at home.
SplitMap = dict[int, tuple[np.ndarray, np.ndarray]]


@dataclass
class CostEstimate:
    """Per-GPU times and the aggregate MoE execution time, in seconds."""

    comp_times: np.ndarray
    comm_times: np.ndarray
    t_moe: float
    t_moe_smoothed: float | None = None


def flow_matrix(x: np.ndarray, placement: np.ndarray, topo: ClusterTopology, splits: SplitMap | None = None) -> np.ndarray:
    """(G, G) token masses flow[src, serving GPU] induced by x, placement, splits.

    Experts without a split go to their home GPU in one contraction, exact
    for integer token counts. Split experts are checked at once
    (`check_splits`) and their fractional shares added by one `np.add.at`,
    which adds them in the order of `splits`, then copy, then source, as a
    loop over the split experts would.
    """
    g = topo.num_gpus
    num_experts = x.shape[1]
    x = np.asarray(x, dtype=np.float64)
    splits = splits or {}
    for e in splits:
        if not 0 <= e < num_experts:
            raise ValueError(f"split entry for unknown expert {e}")
    groups = check_splits(x, placement, splits)
    kept = np.ones(num_experts, dtype=bool)
    kept[list(splits)] = False
    home = np.zeros((num_experts, g))
    home[np.flatnonzero(kept), placement[kept]] = 1.0
    flow = x @ home
    if not splits:
        return flow
    # each entry's (copy, source) shares fill one run of `shares`, runs in splits order
    width = g * np.array([len(gpus) for gpus, _ in splits.values()])
    start = np.cumsum(width) - width
    src = np.tile(np.arange(g), width.sum() // g)
    dst = np.empty(width.sum(), dtype=np.intp)
    shares = np.empty(width.sum())
    for pos, experts, gpus, frac in groups:
        n, k = gpus.shape
        at = start[pos][:, None] + np.arange(k * g)
        shares[at] = (x[:, experts].T[:, :, None] * frac).transpose(0, 2, 1).reshape(n, k * g)
        dst[at] = np.repeat(gpus, g, axis=1)
    np.add.at(flow, (src, dst), shares)
    return flow


def check_splits(x: np.ndarray, home: np.ndarray, splits: SplitMap) -> list[tuple[np.ndarray, ...]]:
    """`check_split` of every entry at once; the first rejected entry in
    the order of `splits` raises its `check_split` error.

    Returns the entries grouped by copy count k, each group as (positions
    in `splits`, experts (n,), GPUs (n, k), fractions (n, G, k)).
    """
    items = list(splits.items())
    members: dict[int, list[int]] = {}
    failing = [len(items)]
    for p, (e, (gpus, frac)) in enumerate(items):
        if len(gpus) == 0 or np.shape(frac) != (x.shape[0], len(gpus)):
            failing.append(p)  # fails on its shapes alone; later entries are never reached
            break
        members.setdefault(len(gpus), []).append(p)
    groups = []
    for pos in members.values():
        pos = np.array(pos)
        experts = np.array([items[p][0] for p in pos])
        gpus = np.array([items[p][1][0] for p in pos])
        frac = np.stack([items[p][1][1] for p in pos])
        # a NaN or infinite fraction fails the range test through its min or max
        in_range = (frac.min(axis=(1, 2)) >= -SPLIT_TOL) & (frac.max(axis=(1, 2)) <= 1 + SPLIT_TOL)
        leaks = (np.abs(frac.sum(axis=2) - 1.0) > SPLIT_TOL) & (x[:, experts].T > 0)
        bad = (gpus != home[experts][:, None]).all(axis=1) | ~in_range | leaks.any(axis=1)
        failing.extend(pos[bad][:1].tolist())
        groups.append((pos, experts, gpus, frac))
    first = min(failing)
    if first < len(items):
        e, (gpus, frac) = items[first]
        check_split(x, home, e, gpus, frac)
    return groups


def check_split(x: np.ndarray, home: np.ndarray, e: int, gpus: np.ndarray, frac: np.ndarray) -> None:
    """Reject a split of expert e that cannot be a valid token assignment.

    gpus must include e's home GPU and frac must be a (G, len(gpus)) array
    of finite fractions within [0, 1]; every source routing tokens to e
    must split them with fractions summing to 1. Both bounds allow
    SPLIT_TOL of LP drift.
    """
    if home[e] not in gpus:
        raise ValueError(f"split for expert {e} omits its home GPU {home[e]}")
    if frac.shape != (x.shape[0], len(gpus)):
        raise ValueError(f"split fractions for expert {e} have shape {frac.shape}, expected {(x.shape[0], len(gpus))}")
    if not np.isfinite(frac).all():
        raise ValueError(f"split fractions for expert {e} are not finite")
    if frac.min() < -SPLIT_TOL or frac.max() > 1 + SPLIT_TOL:
        raise ValueError(f"split fractions for expert {e} outside [0, 1]")
    active = x[:, e] > 0
    if active.any():
        err = float(np.abs(frac[active].sum(axis=1) - 1.0).max())
        if err > SPLIT_TOL:
            raise ValueError(f"split fractions for expert {e} violate conservation by {err:.3e}")


def compute_loads(x: np.ndarray, placement: np.ndarray, topo: ClusterTopology, splits: SplitMap | None = None) -> np.ndarray:
    """(5, G) computation and link loads from routing and placement.

    Dispatch moves tokens from their source GPU to the serving GPU; combine
    sends results back along the mirror path. The topology's charge
    operator folds both phases into one load per GPU and link direction;
    rows are `topology.COMP`, `NVLINK_TX`, `NVLINK_RX`, `RDMA_TX`, `RDMA_RX`.
    """
    x = np.asarray(x, dtype=np.float64)
    g = topo.num_gpus
    placement = np.asarray(placement)
    if placement.shape != (x.shape[1],):
        raise ValueError(f"placement covers {placement.shape} experts, routing matrix has {x.shape[1]}")
    if placement.min() < 0 or placement.max() >= g:
        raise ValueError("placement references GPU ids outside the topology")
    if x.shape[0] != g:
        raise ValueError(f"routing matrix has {x.shape[0]} source rows, topology has {g} GPUs")
    return topo.charges.loads(flow_matrix(x, placement, topo, splits))


@dataclass(frozen=True, eq=False)
class TimeUnits:
    """The conversion of a (5, G) load array to seconds.

    A token costs scale / rate seconds on each row: 6*h*h' FLOPs at the
    GPU's FLOP rate for computation, bytes_per_token at the NVLink or RDMA
    bandwidth for the link directions. Loads are multiplied by the scale
    before they are divided by the rate; every planner and the evaluator
    convert here, so the same loads always give bit-identical times.
    """

    scale: np.ndarray  # (5, G)
    rate: np.ndarray   # (5, G)

    @classmethod
    def of(cls, model, hw: HardwareProfile, num_gpus: int) -> "TimeUnits":
        bpt = hw.bytes_per_token
        scale = [6.0 * model.hidden_size * model.intermediate_size, bpt, bpt, bpt, bpt]
        rate = [hw.flops_per_gpu, hw.bw_nvlink, hw.bw_nvlink, hw.bw_rdma, hw.bw_rdma]
        # full (5, G) operands: the annealer converts once per proposal, and at
        # this size broadcasting a (5, 1) column costs twice the arithmetic
        return cls(np.repeat(scale, num_gpus).reshape(5, num_gpus),
                   np.repeat(rate, num_gpus).reshape(5, num_gpus))

    def times(self, loads: np.ndarray) -> np.ndarray:
        """(5, G) seconds: computation, then NVLink tx/rx and RDMA tx/rx."""
        return loads * self.scale / self.rate

    def times_at(self, positions: np.ndarray) -> np.ndarray:
        """`times` of a load of one token at flat positions of a (5, G) array, bit for bit."""
        return self.scale.ravel()[positions] / self.rate.ravel()[positions]

    def exact(self, loads: np.ndarray) -> float:
        """max comp time + max link time.

        Links are full duplex and NVLink/RDMA transfers are overlapped, so
        a GPU's link directions do not add up; the slowest one rules.
        """
        t = self.times(loads)
        return float(t[0].max() + t[1:].max())

    def smoothed(self, loads: np.ndarray, beta: float) -> float:
        """LSE surrogate of `exact`.

        The per-GPU LSE over link directions nested in an LSE over GPUs
        equals one LSE over all (direction, GPU) terms, which is computed.
        """
        t = self.times(loads)
        return lse(t[0], beta) + lse(t[1:], beta)

    def smoothed_rows(self, loads: np.ndarray, beta: float) -> list[float]:
        """`smoothed` of each (5, G) array in a (C, 5, G) stack, bit for bit."""
        t = self.times(loads)
        comp = lse_rows(t[:, 0], beta)
        comm = lse_rows(t[:, 1:].reshape(len(t), -1), beta)
        return [a + b for a, b in zip(comp, comm)]

    def estimate(self, loads: np.ndarray, beta: float | None = None) -> CostEstimate:
        """Per-GPU comp and comm times and `exact`; with `beta`, also `smoothed`."""
        t = self.times(loads)
        return CostEstimate(
            comp_times=t[0],
            comm_times=t[1:].max(axis=0),
            t_moe=self.exact(loads),
            t_moe_smoothed=None if beta is None else self.smoothed(loads, beta),
        )


def lse(values, beta: float) -> float:
    """(1/beta) * ln(sum(exp(beta * z))), computed with max subtraction."""
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size == 0:
        raise ValueError("lse of an empty vector")
    if not beta > 0:
        raise ValueError(f"beta must be > 0, got {beta!r}")
    m = values.max()
    return float(m + math.log(np.exp(beta * (values - m)).sum()) / beta)


def lse_rows(values: np.ndarray, beta: float) -> list[float]:
    """`lse` of each row of a (C, n) array, bit for bit equal to `lse` per row.

    The max, exp and sum run over all rows at once; numpy sums each row with
    the pairwise summation of a 1-D sum, and the log stays `math.log`.
    """
    m = values.max(axis=1)
    sums = np.exp(beta * (values - m[:, None])).sum(axis=1)
    return [mi + math.log(si) / beta for mi, si in zip(m.tolist(), sums.tolist())]


def moe_time(loads: np.ndarray, model, hw: HardwareProfile, beta: float | None = None) -> CostEstimate:
    """Aggregate MoE execution time of (5, G) loads: max comp time + max comm time.

    A GPU's communication time is its slowest link direction. With `beta`,
    the estimate also carries the LSE surrogate at that sharpness.
    """
    return TimeUnits.of(model, hw, loads.shape[1]).estimate(loads, beta)
