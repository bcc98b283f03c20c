"""Per-GPU load accounting and MoE execution-time estimation.

Loads are measured in tokens. A routing matrix x[j, e] (tokens on source
GPU j routed to expert e) plus an expert placement, and optionally a
`SplitPlan` (one column of per-source shares per copy of each split
expert), yield a (5, G) load array: per-GPU computation and the four link
directions, rows `topology.COMP` ... `topology.RDMA_RX`.
`TimeUnits` is the one conversion of such an array to seconds. The
aggregate time is max-of-comp plus max-of-comm across the EP group, with a
log-sum-exp surrogate available for search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .topology import ClusterTopology, HardwareProfile

SPLIT_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class SplitPlan:
    """A token split, one column per copy of each split expert.

    Column c serves share[c, j] of source j's tokens of expert[c] on
    gpu[c]. An expert's columns are adjacent and in
    `ReplicaPlacement.copies` order, home first; experts without columns
    are served entirely at home.
    """

    expert: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))  # (C,)
    gpu: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))     # (C,)
    share: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))             # (C, G)

    def starts(self) -> np.ndarray:
        """The first column of each expert, in column order."""
        new = np.ones(self.expert.size, dtype=bool)
        new[1:] = self.expert[1:] != self.expert[:-1]
        return np.flatnonzero(new)

    def copy_sums(self, first: int = 0) -> np.ndarray:
        """(experts, G) sums of each expert's shares from copy `first` on.

        A loop over copy position adds them left to right, as numpy's sum
        over a last axis of fewer than 8 terms does; `np.add.reduceat`
        does not match it.
        """
        starts = self.starts()
        counts = np.diff(starts, append=self.expert.size)
        total = np.zeros((starts.size, self.share.shape[1]))
        for c in range(first, counts.max(initial=0)):
            more = counts > c
            total[more] += self.share[starts[more] + c]
        return total

    @property
    def fractions(self) -> MappingProxyType:
        """Read-only {expert: (G, k) view of its shares}, columns in copy order."""
        starts = self.starts()
        return MappingProxyType({e: v.T for e, v in zip(self.expert[starts].tolist(), np.split(self.share, starts[1:]))})


@dataclass
class CostEstimate:
    """Per-GPU times and the aggregate MoE execution time, in seconds."""

    comp_times: np.ndarray
    comm_times: np.ndarray
    t_moe: float
    t_moe_smoothed: float | None = None


def flow_matrix(x: np.ndarray, placement: np.ndarray, topo: ClusterTopology, split: SplitPlan | None = None) -> np.ndarray:
    """(G, G) token masses flow[src, serving GPU] induced by x, placement, split.

    Experts without columns go to their home GPU in one contraction, exact
    for integer token counts. The split is checked (`check_split`) and its
    shares added by one `np.add.at` in (column, source) order.
    """
    g = topo.num_gpus
    num_experts = x.shape[1]
    x = np.asarray(x, dtype=np.float64)
    split = split or SplitPlan()
    check_split(x, placement, split)
    kept = np.ones(num_experts, dtype=bool)
    kept[split.expert] = False
    home = np.zeros((num_experts, g))
    home[np.flatnonzero(kept), placement[kept]] = 1.0
    flow = x @ home
    if split.expert.size:
        shares = split.share * x[:, split.expert].T
        np.add.at(flow, (np.tile(np.arange(g), split.expert.size), np.repeat(split.gpu, g)), shares.ravel())
    return flow


def check_split(x: np.ndarray, home: np.ndarray, split: SplitPlan) -> None:
    """Reject a split that cannot be a valid token assignment, naming the
    first failing expert in column order.

    An expert's columns must be adjacent and include its home GPU, and
    hold finite shares within [0, 1]; every source routing tokens to it
    must split them with shares summing to 1. Both bounds allow SPLIT_TOL
    of LP drift.
    """
    expert, share = split.expert, split.share
    if not expert.size:
        return
    unknown = (expert < 0) | (expert >= x.shape[1])
    if unknown.any():
        raise ValueError(f"split entry for unknown expert {expert[unknown][0]}")
    if share.shape != (expert.size, x.shape[0]):
        raise ValueError(f"split shares have shape {share.shape}, expected {(expert.size, x.shape[0])}")
    starts = split.starts()
    experts = expert[starts]
    if np.unique(experts).size < experts.size:
        raise ValueError(f"split columns of an expert are not adjacent; experts by column run: {experts.tolist()}")
    homeless = ~np.logical_or.reduceat(split.gpu == home[expert], starts)
    infinite = ~np.logical_and.reduceat(np.isfinite(share).all(axis=1), starts)
    # a NaN share fails the finite test; its min and max compare false
    outside = ((np.minimum.reduceat(share.min(axis=1), starts) < -SPLIT_TOL)
               | (np.maximum.reduceat(share.max(axis=1), starts) > 1 + SPLIT_TOL))
    with np.errstate(invalid="ignore", over="ignore"):  # non-finite shares are named above
        err = np.where(x[:, experts].T > 0, np.abs(split.copy_sums() - 1.0), 0.0).max(axis=1)
    bad = np.flatnonzero(homeless | infinite | outside | (err > SPLIT_TOL))
    if bad.size:
        r = bad[0]
        e = int(experts[r])
        if homeless[r]:
            raise ValueError(f"split for expert {e} omits its home GPU {home[e]}")
        if infinite[r]:
            raise ValueError(f"split fractions for expert {e} are not finite")
        if outside[r]:
            raise ValueError(f"split fractions for expert {e} outside [0, 1]")
        raise ValueError(f"split fractions for expert {e} violate conservation by {err[r]:.3e}")


def compute_loads(x: np.ndarray, placement: np.ndarray, topo: ClusterTopology, split: SplitPlan | None = None) -> np.ndarray:
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
    return topo.charges.loads(flow_matrix(x, placement, topo, split))


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
