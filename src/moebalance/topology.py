"""Rail-optimized cluster model and GPU-pair traffic classification.

GPUs are numbered node-major: GPU id = node * gpus_per_node + local_rank.
The rail of a GPU is its local rank; NICs on the same rail across nodes
share a leaf switch, so inter-node traffic between same-rank GPUs goes
straight over RDMA while cross-rail traffic needs an NVLink hop to the
rail-matched GPU on the source node first.

This module is the one place that turns traffic classes into link charges:
`ChargeOperator` maps a token moved from a source GPU to the GPU serving it
onto the computation and link loads of dispatch and the mirrored combine.
Every planner and evaluator charges traffic through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum
from functools import cached_property

import numpy as np


class TrafficClass(IntEnum):
    """Relation between a source GPU and the GPU serving its tokens."""

    LOC = 0  # same GPU, local memory copy
    NV = 1   # same node, NVLink
    SR = 2   # different node, same rail, direct RDMA
    CR = 3   # different node, different rail, NVLink relay + RDMA


@dataclass(frozen=True)
class HardwareProfile:
    """Effective per-GPU compute rate and link bandwidths.

    Bandwidths are flat effective rates in bytes/second. Setting
    bytes_per_token = 1 lets bandwidths be expressed directly in
    tokens/second.
    """

    flops_per_gpu: float
    bw_nvlink: float
    bw_rdma: float
    bytes_per_token: float = 1.0

    def __post_init__(self) -> None:
        for name in ("flops_per_gpu", "bw_nvlink", "bw_rdma", "bytes_per_token"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"HardwareProfile.{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class ClusterTopology:
    """A cluster of num_nodes nodes with gpus_per_node GPUs each."""

    num_nodes: int
    gpus_per_node: int
    profile: HardwareProfile

    def __post_init__(self) -> None:
        if self.num_nodes < 1 or self.gpus_per_node < 1:
            raise ValueError(
                f"topology needs at least one node and one GPU per node, "
                f"got {self.num_nodes} x {self.gpus_per_node}"
            )

    @property
    def num_gpus(self) -> int:
        return self.num_nodes * self.gpus_per_node

    def node_of(self, gpu: int) -> int:
        if not (0 <= gpu < self.num_gpus):
            raise ValueError(f"GPU id {gpu} out of range [0, {self.num_gpus})")
        return gpu // self.gpus_per_node

    def gpu_id(self, node: int, local_rank: int) -> int:
        if not (0 <= node < self.num_nodes and 0 <= local_rank < self.gpus_per_node):
            raise ValueError(f"invalid (node, local_rank) = ({node}, {local_rank})")
        return node * self.gpus_per_node + local_rank

    def node_gpus(self, node: int) -> range:
        """All GPU ids on the given node."""
        base = self.gpu_id(node, 0)
        return range(base, base + self.gpus_per_node)

    @cached_property
    def class_matrix(self) -> np.ndarray:
        """(G, G) uint8 matrix of TrafficClass values for every (src, dst) pair."""
        g = self.num_gpus
        ids = np.arange(g)
        nodes = ids // self.gpus_per_node
        rails = ids % self.gpus_per_node
        same_node = nodes[:, None] == nodes[None, :]
        same_rail = rails[:, None] == rails[None, :]
        same_gpu = ids[:, None] == ids[None, :]
        out = np.full((g, g), TrafficClass.CR, dtype=np.uint8)
        out[~same_node & same_rail] = TrafficClass.SR
        out[same_node] = TrafficClass.NV
        out[same_gpu] = TrafficClass.LOC
        return out

    @cached_property
    def relay_matrix(self) -> np.ndarray:
        """(G, G) int32 matrix: relay_matrix[j, g] is the GPU on node(j) with
        local rank rail(g). Only meaningful for cross-rail pairs; defined for
        all pairs for convenience."""
        ids = np.arange(self.num_gpus)
        nodes = ids // self.gpus_per_node
        rails = ids % self.gpus_per_node
        return (nodes[:, None] * self.gpus_per_node + rails[None, :]).astype(np.int32)

    @cached_property
    def charges(self) -> "ChargeOperator":
        """The dispatch+combine charge operator of this topology."""
        return ChargeOperator.build(self)


# rows of a (5, G) load array
COMP, NVLINK_TX, NVLINK_RX, RDMA_TX, RDMA_RX = range(5)

# the links one transfer a -> b loads, per traffic class: nv pairs use
# NVLink, sr pairs RDMA, and cr pairs hop over NVLink to r, the GPU on a's
# node with b's rail, then RDMA to b; loc pairs move nothing
PATHS = {
    TrafficClass.NV: ((NVLINK_TX, "a"), (NVLINK_RX, "b")),
    TrafficClass.SR: ((RDMA_TX, "a"), (RDMA_RX, "b")),
    TrafficClass.CR: ((NVLINK_TX, "a"), (NVLINK_RX, "r"), (RDMA_TX, "r"), (RDMA_RX, "b")),
}


@dataclass(frozen=True, eq=False)
class ChargeOperator:
    """Loads caused by one token served away from its source, per GPU pair.

    A sparse 0/1 table with rows p = src * G + dst: one token routed from
    src to dst adds 1 at each flat position positions[offsets[p]:offsets[p + 1]]
    (ascending, distinct) of a (5, G) load array with rows comp, nvlink_tx,
    nvlink_rx, rdma_tx, rdma_rx. It is computed at dst; dispatch carries it
    src -> dst and combine carries the result back over the links `PATHS`
    lists for the pair's traffic class: 1 (loc), 5 (nv, sr) or 9 (cr) positions.
    """

    num_gpus: int
    offsets: np.ndarray    # (G*G + 1,) int64
    positions: np.ndarray  # (offsets[-1],) int64

    @classmethod
    def build(cls, topo: ClusterTopology) -> "ChargeOperator":
        g = topo.num_gpus
        src, dst = np.divmod(np.arange(g * g), g)
        table = np.full((g * g, 9), 5 * g)  # 5 * G marks an unused slot and sorts last
        table[:, 0] = COMP * g + dst
        dispatch = {"a": src, "b": dst, "r": topo.relay_matrix.ravel()}
        combine = {"a": dst, "b": src, "r": topo.relay_matrix.T.ravel()}
        for kind, path in PATHS.items():
            pairs = topo.class_matrix.ravel() == kind
            hops = [(row, ends[end]) for ends in (dispatch, combine) for row, end in path]
            for col, (row, gpu) in enumerate(hops, start=1):
                table[pairs, col] = row * g + gpu[pairs]
        table.sort(axis=1)
        used = table < 5 * g
        offsets = np.concatenate([[0], np.cumsum(used.sum(axis=1))])
        return cls(g, offsets, table[used])

    def loads(self, flow: np.ndarray) -> np.ndarray:
        """(5, G) loads of the (G, G) token masses flow[src, dst].

        Each load sums its pair charges in pair order, so a GPU's
        computation load adds its sources in ascending order.
        """
        g = self.num_gpus
        mass = np.repeat(np.asarray(flow, dtype=np.float64).ravel(), np.diff(self.offsets))
        return np.bincount(self.positions, weights=mass, minlength=5 * g).reshape(5, g)

    def dense(self) -> np.ndarray:
        """(G, G, 5, G) 0/1 array: [src, dst] is the loads of one token (5*G**3 floats)."""
        g = self.num_gpus
        out = np.zeros((g * g, 5 * g))
        out[np.repeat(np.arange(g * g), np.diff(self.offsets)), self.positions] = 1.0
        return out.reshape(g, g, 5, g)

    def pair_entries(self, src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The positions one token charges for arrays of pairs: (k, flat
        (5, G) position) per charge of pair (src[k], dst[k]), by k."""
        p = np.asarray(src) * self.num_gpus + np.asarray(dst)
        counts = self.offsets[p + 1] - self.offsets[p]
        ends = np.cumsum(counts)
        at = np.arange(ends[-1] if p.size else 0) + np.repeat(self.offsets[p] - (ends - counts), counts)
        return np.repeat(np.arange(p.size), counts), self.positions[at]


def build_topology(num_nodes: int, gpus_per_node: int, profile: HardwareProfile) -> ClusterTopology:
    """Build a rail-optimized topology with node-major GPU numbering."""
    return ClusterTopology(num_nodes=num_nodes, gpus_per_node=gpus_per_node, profile=profile)

