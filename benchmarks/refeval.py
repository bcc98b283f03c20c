"""Independent reference evaluator for one (micro_batch, layer) entry.

Written from the cost model's definition, not from its code: it does not
import `moebalance.costmodel` or the topology's precomputed matrices. Token
masses are summed per (source, serving GPU) pair and each pair is charged
with plain loops:

  loc  same GPU: nothing moves
  nv   same node: NVLink out of the sender, into the receiver
  sr   other node, same rail: RDMA out of the sender, into the receiver
  cr   other node, other rail: NVLink to the relay on the sender's node
       (local rank = receiver's rail), then RDMA from the relay

Dispatch charges (src -> dst); combine charges the mirror path (dst -> src).
The entry time is max per-GPU compute time plus max per-GPU link time.
"""

from __future__ import annotations


class RefTopology:
    def __init__(self, num_nodes: int, gpus_per_node: int, flops: float, bw_nvlink: float,
                 bw_rdma: float, bytes_per_token: float, hidden: int, intermediate: int):
        self.gpn = gpus_per_node
        self.g = num_nodes * gpus_per_node
        self.comp_unit = 6.0 * hidden * intermediate / flops
        self.nv_unit = bytes_per_token / bw_nvlink
        self.rd_unit = bytes_per_token / bw_rdma

    @classmethod
    def from_trace(cls, trace) -> "RefTopology":
        topo, hw, model = trace.topo, trace.topo.profile, trace.model
        return cls(topo.num_nodes, topo.gpus_per_node, hw.flops_per_gpu, hw.bw_nvlink,
                   hw.bw_rdma, hw.bytes_per_token, model.hidden_size, model.intermediate_size)

    def charge(self, a: int, b: int, m: float, nv_tx, nv_rx, rd_tx, rd_rx) -> None:
        """Charge m tokens moving from GPU a to GPU b."""
        if a == b:
            return
        node_a, rail_a = divmod(a, self.gpn)
        node_b, rail_b = divmod(b, self.gpn)
        if node_a == node_b:
            nv_tx[a] += m
            nv_rx[b] += m
        elif rail_a == rail_b:
            rd_tx[a] += m
            rd_rx[b] += m
        else:
            relay = node_a * self.gpn + rail_b
            nv_tx[a] += m
            nv_rx[relay] += m
            rd_tx[relay] += m
            rd_rx[b] += m

    def entry_time(self, x: list[list[float]], home: list[int], shares: dict[int, list[list[float]]],
                   copies: dict[int, list[int]]) -> float:
        """Modeled time of routing x (rows = sources) under home placement and splits.

        shares[e][j][c] is the fraction of source j's tokens for expert e served
        by copies[e][c]; experts without shares are served at home.
        """
        g = self.g
        mass = [[0.0] * g for _ in range(g)]
        for j, row in enumerate(x):
            out = mass[j]
            for e, tokens in enumerate(row):
                if tokens == 0.0:
                    continue
                if e in shares:
                    for c, gpu in enumerate(copies[e]):
                        out[gpu] += tokens * shares[e][j][c]
                else:
                    out[home[e]] += tokens
        comp = [0.0] * g
        nv_tx, nv_rx, rd_tx, rd_rx = ([0.0] * g for _ in range(4))
        for src in range(g):
            for dst in range(g):
                m = mass[src][dst]
                if m == 0.0:
                    continue
                comp[dst] += m
                self.charge(src, dst, m, nv_tx, nv_rx, rd_tx, rd_rx)   # dispatch
                self.charge(dst, src, m, nv_tx, nv_rx, rd_tx, rd_rx)   # combine
        comp_max = max(comp) * self.comp_unit
        comm_max = max(max(nv_tx[i] * self.nv_unit, nv_rx[i] * self.nv_unit,
                           rd_tx[i] * self.rd_unit, rd_rx[i] * self.rd_unit) for i in range(g))
        return comp_max + comm_max


def relocate_samples(trace, source_gpu: list[int]) -> list:
    """Per-(micro_batch, layer) routing rows with samples moved to new sources."""
    mats = trace.matrices.astype(float).tolist()
    s = trace.samples
    for i, dst in enumerate(source_gpu):
        src = int(s.source_gpu[i])
        if src == dst:
            continue
        mb = int(s.micro_batch[i])
        for layer, counts in enumerate(s.counts[i].tolist()):
            rows = mats[mb][layer]
            for e, c in enumerate(counts):
                rows[src][e] -= c
                rows[dst][e] += c
    return mats


def relibra_entry_times(trace, reorder: dict, replication: dict) -> list[list[float]]:
    """Entry times of the relibra plan files (parsed reorder.json / replication.json)."""
    ref = RefTopology.from_trace(trace)
    if reorder.get("sample_placement") is not None:
        mats = relocate_samples(trace, reorder["sample_placement"])
    else:
        mats = trace.matrices.astype(float).tolist()
    entries = {(e["micro_batch"], e["layer"]): e for e in replication["entries"]}
    times = []
    for mb, per_layer in enumerate(mats):
        row = []
        for layer, x in enumerate(per_layer):
            home = reorder["plans"][layer]
            copies: dict[int, list[int]] = {}
            shares: dict[int, list[list[float]]] = {}
            entry = entries.get((mb, layer))
            if entry is not None:
                for e, gpu in entry["replicas"]:
                    copies.setdefault(e, [home[e]]).append(gpu)
                for j, e, gpu, frac in entry["splits"]:
                    cs = copies.setdefault(e, [home[e]])
                    if e not in shares:
                        shares[e] = [[0.0] * len(cs) for _ in range(ref.g)]
                    shares[e][j][cs.index(gpu)] = frac
            row.append(ref.entry_time(x, home, shares, copies))
        times.append(row)
    return times


def bundle_entry_times(trace, bundle) -> list[list[float]]:
    """Entry times of an in-memory PlanBundle without sample placement."""
    ref = RefTopology.from_trace(trace)
    times = []
    for mb in range(trace.num_micro_batches):
        row = []
        for layer, plan in enumerate(bundle.reorder):
            x = trace.matrices[mb, layer].astype(float).tolist()
            home = [int(h) for h in plan.assignment]
            copies: dict[int, list[int]] = {}
            shares: dict[int, list[list[float]]] = {}
            entry = bundle.replication.entries.get((mb, layer))
            if entry is not None:
                for e, frac in entry.split.fractions.items():
                    copies[e] = [int(c) for c in entry.placement.copies(e)]
                    shares[e] = frac.tolist()
            row.append(ref.entry_time(x, home, shares, copies))
        times.append(row)
    return times


def max_rel_diff(ref: list[list[float]], got: list[list[float]]) -> float:
    worst = 0.0
    if len(ref) != len(got):
        return float("inf")
    for a_row, b_row in zip(ref, got):
        if len(a_row) != len(b_row):
            return float("inf")
        for a, b in zip(a_row, b_row):
            worst = max(worst, abs(a - b) / max(abs(a), 1e-300))
    return worst
