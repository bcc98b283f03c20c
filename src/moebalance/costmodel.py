"""Per-GPU load accounting and MoE execution-time estimation.

Loads are measured in tokens. A routing matrix x[j, e] (tokens on source
GPU j routed to expert e) plus an expert placement, and optionally a
replica/split assignment, yield per-GPU computation and per-link
communication loads; those convert to seconds through the hardware
profile. The aggregate time is max-of-comp plus max-of-comm across the
EP group, with a log-sum-exp surrogate available for search.
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


@dataclass(frozen=True)
class SmoothingConfig:
    """Sharpness of the log-sum-exp surrogate; larger tracks max closer."""

    beta: float = 20.0

    def __post_init__(self) -> None:
        if not self.beta > 0:
            raise ValueError(f"beta must be > 0, got {self.beta!r}")


@dataclass
class LoadVector:
    """Token loads per GPU (computation and the four link directions)."""

    comp: np.ndarray
    nvlink_tx: np.ndarray
    nvlink_rx: np.ndarray
    rdma_tx: np.ndarray
    rdma_rx: np.ndarray
    expert_load: np.ndarray

    def comm_rows(self) -> np.ndarray:
        """(4, G) array of [nvlink_tx, nvlink_rx, rdma_tx, rdma_rx]."""
        return np.stack([self.nvlink_tx, self.nvlink_rx, self.rdma_tx, self.rdma_rx])


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
    for integer token counts; split experts then add their fractional
    shares one after another, in the order of `splits`.
    """
    g = topo.num_gpus
    num_experts = x.shape[1]
    x = np.asarray(x, dtype=np.float64)
    splits = splits or {}
    for e in splits:
        if not 0 <= e < num_experts:
            raise ValueError(f"split entry for unknown expert {e}")
    kept = np.ones(num_experts, dtype=bool)
    kept[list(splits)] = False
    home = np.zeros((num_experts, g))
    home[np.flatnonzero(kept), placement[kept]] = 1.0
    flow = x @ home
    for e, (gpus, frac) in splits.items():
        _check_split_entry(x, placement, e, gpus, frac)
        flow[:, gpus] += x[:, e, None] * frac
    return flow


def _check_split_entry(x: np.ndarray, placement: np.ndarray, e: int, gpus: np.ndarray, frac: np.ndarray) -> None:
    if placement[e] not in gpus:
        raise ValueError(f"split for expert {e} omits its home GPU {placement[e]}")
    if frac.shape != (x.shape[0], len(gpus)):
        raise ValueError(f"split fractions for expert {e} have shape {frac.shape}, expected {(x.shape[0], len(gpus))}")
    if frac.min() < -SPLIT_TOL or frac.max() > 1 + SPLIT_TOL:
        raise ValueError(f"split fractions for expert {e} outside [0, 1]")
    active = x[:, e] > 0
    row_sums = frac[active].sum(axis=1)
    if active.any() and np.abs(row_sums - 1.0).max() > SPLIT_TOL:
        bad = float(np.abs(row_sums - 1.0).max())
        raise ValueError(f"split fractions for expert {e} violate conservation by {bad:.3e}")


def compute_loads(x: np.ndarray, placement: np.ndarray, topo: ClusterTopology, splits: SplitMap | None = None) -> LoadVector:
    """Derive per-GPU computation and link loads from routing and placement.

    Dispatch moves tokens from their source GPU to the serving GPU; combine
    sends results back along the mirror path. The topology's charge
    operator folds both phases into one load vector per link direction.
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

    comp, nvlink_tx, nvlink_rx, rdma_tx, rdma_rx = topo.charges.loads(flow_matrix(x, placement, topo, splits))
    return LoadVector(
        comp=comp,
        nvlink_tx=nvlink_tx,
        nvlink_rx=nvlink_rx,
        rdma_tx=rdma_tx,
        rdma_rx=rdma_rx,
        expert_load=x.sum(axis=0),
    )


@dataclass(frozen=True, eq=False)
class TimeUnits:
    """Seconds per token for each row of a (5, G) load array.

    Rows are comp, nvlink_tx, nvlink_rx, rdma_tx, rdma_rx, the layout of
    `ChargeOperator.loads`. The incremental planners keep loads in this form
    and convert them here.
    """

    per_row: np.ndarray  # (5,)

    @classmethod
    def of(cls, model, hw: HardwareProfile) -> "TimeUnits":
        nvlink = hw.bytes_per_token / hw.bw_nvlink
        rdma = hw.bytes_per_token / hw.bw_rdma
        comp = 6.0 * model.hidden_size * model.intermediate_size / hw.flops_per_gpu
        return cls(np.array([comp, nvlink, nvlink, rdma, rdma]))

    def times(self, loads5: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(G,) computation seconds and (4, G) seconds per link direction."""
        return loads5[0] * self.per_row[0], loads5[1:] * self.per_row[1:, None]

    def exact(self, loads5: np.ndarray) -> float:
        """max comp time + max link time."""
        comp_t, rows_t = self.times(loads5)
        return float(comp_t.max() + rows_t.max())

    def smoothed(self, loads5: np.ndarray, beta: float) -> float:
        """LSE surrogate of `exact`; see smoothed_moe_time."""
        comp_t, rows_t = self.times(loads5)
        return lse(comp_t, beta) + lse(rows_t, beta)


def comp_time(load, model, hw: HardwareProfile):
    """Seconds to run `load` tokens through one GPU's experts: 6*h*h'*L/F."""
    return 6.0 * model.hidden_size * model.intermediate_size * np.asarray(load, dtype=np.float64) / hw.flops_per_gpu


def comm_row_times(loads: LoadVector, hw: HardwareProfile) -> np.ndarray:
    """(4, G) seconds per link direction: NVLink tx/rx, RDMA tx/rx."""
    rows = loads.comm_rows() * hw.bytes_per_token
    rows[0:2] /= hw.bw_nvlink
    rows[2:4] /= hw.bw_rdma
    return rows


def comm_time(loads: LoadVector, hw: HardwareProfile) -> np.ndarray:
    """Per-GPU communication time: the slowest of its four link directions.

    Links are full duplex and NVLink/RDMA transfers are overlapped, so the
    directions do not add up; the max rules.
    """
    return comm_row_times(loads, hw).max(axis=0)


def lse(values, beta: float) -> float:
    """(1/beta) * ln(sum(exp(beta * z))), computed with max subtraction."""
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size == 0:
        raise ValueError("lse of an empty vector")
    if not beta > 0:
        raise ValueError(f"beta must be > 0, got {beta!r}")
    m = values.max()
    return float(m + math.log(np.exp(beta * (values - m)).sum()) / beta)


def smoothed_moe_time(loads: LoadVector, model, hw: HardwareProfile, cfg: SmoothingConfig) -> float:
    """LSE surrogate of moe_time; every max of Eq-style nesting is smoothed.

    The per-GPU LSE over link directions nested in an LSE over GPUs equals
    one LSE over all (direction, GPU) terms, which is what is computed.
    """
    comp = comp_time(loads.comp, model, hw)
    rows = comm_row_times(loads, hw)
    return lse(comp, cfg.beta) + lse(rows, cfg.beta)


def moe_time(loads: LoadVector, model, hw: HardwareProfile, smoothing: SmoothingConfig | None = None) -> CostEstimate:
    """Aggregate MoE execution time: max comp time + max comm time."""
    comp = comp_time(loads.comp, model, hw)
    comm = comm_time(loads, hw)
    est = CostEstimate(
        comp_times=comp,
        comm_times=comm,
        t_moe=float(comp.max() + comm.max()),
    )
    if smoothing is not None:
        est.t_moe_smoothed = smoothed_moe_time(loads, model, hw, smoothing)
    return est
