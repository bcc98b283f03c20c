"""Trace-level evaluation of balancing policies and comparative reporting.

Every policy is expressed as a PlanBundle (per-layer expert plans, optional
sample placement, per-(micro_batch, layer) replication entries) and scored
by the same evaluator, entry by entry. The modeled time covers the MoE
block only; attention and optimizer time are policy-invariant and excluded,
so speedup ratios are an upper bound on end-to-end gains.
"""

from __future__ import annotations

import dataclasses
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import costmodel as cm
from . import replicate as rep
from . import reorder as ro
from . import routing as rt
from .topology import COMP, ClusterTopology, HardwareProfile

POLICIES = ("static", "lpt_only", "eplb_like", "lplb_like", "balanced_oracle", "relibra")
# hot-set size of the trace summary's adjacent-micro-batch overlap
HOT_K = 8


@dataclass
class SimConfigs:
    """Solver knobs shared by the policies that need them."""

    anneal: ro.AnnealConfig = field(default_factory=ro.AnnealConfig)
    replica: rep.ReplicaConfig = field(default_factory=rep.ReplicaConfig)
    sample_locality: bool = False
    threads: int = 1


@dataclass
class PlanBundle:
    """Everything needed to evaluate one policy over a trace."""

    reorder: list[ro.ReorderPlan]
    sample_placement: ro.SamplePlacement | None = None
    replication: rep.ReplicationPlan = field(default_factory=rep.ReplicationPlan)


@dataclass
class SimReport:
    policy: str
    trace_id: str
    entry_times: np.ndarray   # (MB, L) seconds
    skew: np.ndarray          # (MB, L) rank-level skewness
    total_time: float
    metadata: dict = field(default_factory=dict)

    def mb_times(self) -> np.ndarray:
        return self.entry_times.sum(axis=1)


def _check_gpu_ids(name: str, ids: np.ndarray, count: int, what: str, num_gpus: int) -> None:
    if len(ids) != count:
        raise ValueError(f"{name} has {len(ids)} entries, the trace has {count} {what}")
    if count and (ids.min() < 0 or ids.max() >= num_gpus):
        raise ValueError(f"{name} holds a GPU id outside [0, {num_gpus})")


def check_reorder(trace: rt.RoutingTrace, plans: list[ro.ReorderPlan],
                  sample_placement: ro.SamplePlacement | None, topo: ClusterTopology) -> None:
    """Check the reorder.json part of a bundle against the trace."""
    layers = trace.model.num_layers
    if len(plans) != layers:
        raise ValueError(f"the bundle has {len(plans)} layer plans, the trace has {layers} layers")
    for layer, plan in enumerate(plans):
        _check_gpu_ids(f"plans[{layer}]", plan.assignment, trace.model.num_experts, "experts", topo.num_gpus)
        plan.validate(topo)
    if sample_placement is not None:
        if trace.samples is None:
            raise ValueError("a sample placement is set, but the trace has no sample table")
        _check_gpu_ids("the sample placement", sample_placement.source_gpu, trace.samples.num_samples,
                       "samples", topo.num_gpus)


def check_replication(trace: rt.RoutingTrace, bundle: PlanBundle, topo: ClusterTopology,
                      matrices: np.ndarray | None = None) -> None:
    """Check the replication.json part of a bundle that passed `check_reorder`.
    Given the scored matrices, also check split conservation, which
    `evaluate_bundle` leaves to `compute_loads`."""
    for (mb, layer), entry in bundle.replication.entries.items():
        if not (0 <= mb < trace.num_micro_batches and 0 <= layer < trace.model.num_layers):
            raise ValueError(f"replication entry ({mb}, {layer}) outside the trace")
        if not np.array_equal(entry.placement.home, bundle.reorder[layer].assignment):
            raise ValueError(f"replication entry ({mb}, {layer}) was built for a different expert plan")
        rep.validate_placement(entry.placement, topo)
        if matrices is not None:
            rep.validate_split(entry.split, entry.placement, matrices[mb, layer])


def scored_matrices(trace: rt.RoutingTrace, sample_placement: ro.SamplePlacement | None) -> np.ndarray:
    """The (MB, L, G, E) float routing matrices a bundle is scored on."""
    if sample_placement is not None:
        return ro.rewrite_trace_matrices(trace, sample_placement)
    return trace.matrices.astype(np.float64)


def evaluate_bundle(trace: rt.RoutingTrace, bundle: PlanBundle, topo: ClusterTopology,
                    model: rt.ModelProfile, hw: HardwareProfile, policy: str = "bundle") -> SimReport:
    """Apply the bundle per (micro_batch, layer) and aggregate times and skew."""
    check_reorder(trace, bundle.reorder, bundle.sample_placement, topo)
    check_replication(trace, bundle, topo)
    matrices = scored_matrices(trace, bundle.sample_placement)
    layers = model.num_layers
    mb_count = trace.num_micro_batches
    entry_times = np.zeros((mb_count, layers))
    skew = np.ones((mb_count, layers))
    for mb in range(mb_count):
        for layer in range(layers):
            x = matrices[mb, layer]
            plan = bundle.reorder[layer]
            entry = bundle.replication.entries.get((mb, layer))
            splits = entry.split.to_split_map(entry.placement) if entry is not None else None
            # compute_loads checks every split entry (costmodel.check_splits)
            loads = cm.compute_loads(x, plan.assignment, topo, splits=splits)
            total_tokens = float(x.sum())
            if abs(loads[COMP].sum() - total_tokens) > 1e-6 * max(total_tokens, 1.0):
                raise ValueError(f"token conservation violated at entry ({mb}, {layer})")
            with np.errstate(over="ignore"):  # an overflow is reported once, below
                est = cm.moe_time(loads, model, hw)
            if not np.isfinite(est.t_moe):
                raise ValueError(f"modeled time of entry ({mb}, {layer}) overflows to {est.t_moe:g} s under {hw}")
            entry_times[mb, layer] = est.t_moe
            skew[mb, layer] = rt.skewness(loads[COMP]) if total_tokens > 0 else 1.0

    return SimReport(
        policy=policy,
        trace_id=trace.trace_id(),
        entry_times=entry_times,
        skew=skew,
        total_time=float(entry_times.sum()),
        metadata={"throughput_proxy": "modeled MoE time only; attention and optimizer excluded"},
    )


# ---------------------------------------------------------------------------
# policy plan construction


def _uniform_matrices(trace: rt.RoutingTrace) -> np.ndarray:
    """Each row redistributed uniformly over experts, preserving integer sums."""
    mats = trace.matrices.astype(np.int64)
    mb_count, layers, g, e = mats.shape
    out = np.zeros_like(mats)
    row_sums = mats.sum(axis=3)
    base = row_sums // e
    extra = row_sums - base * e
    out += base[..., None]
    # remainders tie everywhere; the lowest expert indices take the extras
    idx = np.arange(e)
    out += (idx[None, None, None, :] < extra[..., None]).astype(np.int64)
    return out.astype(np.uint32)


def _eplb_replication(loads: np.ndarray, home: np.ndarray, topo: ClusterTopology,
                      slots_per_gpu: int, max_replicas_per_expert: int | None = None) -> rep.ReplicaPlacement:
    """Aggregate-load greedy replica fill with uniform (round-robin) splits in mind.

    Two phases: copy counts first (always one more copy for the expert with
    the highest per-copy load, while its node has slot budget), then replica
    placement (heaviest share onto the lightest feasible GPU, with every
    retained home share already accounted). The plan stays fixed for every
    micro-batch.
    """
    num_experts = len(loads)
    gpn = topo.gpus_per_node
    placement = rep.ReplicaPlacement(home=home.copy())
    copies = np.ones(num_experts, dtype=int)
    node_slots = np.full(topo.num_nodes, slots_per_gpu * gpn)
    while True:
        best = None
        for e in range(num_experts):
            if loads[e] <= 0 or copies[e] >= gpn:
                continue
            if max_replicas_per_expert is not None and copies[e] - 1 >= max_replicas_per_expert:
                continue
            if node_slots[topo.node_of(int(home[e]))] <= 0:
                continue
            per_copy = loads[e] / copies[e]
            if best is None or per_copy > best[0] + 1e-15:
                best = (per_copy, e)
        if best is None:
            break
        e = best[1]
        copies[e] += 1
        node_slots[topo.node_of(int(home[e]))] -= 1

    gpu_load = np.zeros(topo.num_gpus)
    for e in range(num_experts):
        gpu_load[home[e]] += loads[e] / copies[e]
    slot_used = np.zeros(topo.num_gpus, dtype=int)
    shares = sorted(
        ((loads[e] / copies[e], e, i) for e in range(num_experts) for i in range(copies[e] - 1)),
        key=lambda item: (-item[0], item[1], item[2]),
    )
    for share, e, _ in shares:
        targets = [
            g for g in rep.candidate_gpus(e, home, topo)
            if slot_used[g] < slots_per_gpu and g not in placement.replicas.get(e, [])
        ]
        if not targets:
            continue  # copy count overshot the distinct GPUs reachable; drop it
        g_t = min(targets, key=lambda g: (gpu_load[g], g))
        placement.replicas.setdefault(e, []).append(g_t)
        gpu_load[g_t] += share
        slot_used[g_t] += 1
    return placement


def _uniform_split(placement: rep.ReplicaPlacement, num_gpus: int) -> rep.SplitPlan:
    split = rep.SplitPlan()
    for e in placement.replicas:
        k = len(placement.copies(e))
        split.fractions[e] = np.full((num_gpus, k), 1.0 / k)
    return split


def solve_tasks(tasks, threads: int):
    """Run (key, fn) tasks, returning {key: result} in deterministic order."""
    if threads <= 1:
        return {key: fn() for key, fn in tasks}
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [(key, pool.submit(fn)) for key, fn in tasks]
        return {key: fut.result() for key, fut in futures}


def build_policy_bundle(trace: rt.RoutingTrace, policy: str, topo: ClusterTopology,
                        model: rt.ModelProfile, hw: HardwareProfile, cfgs: SimConfigs) -> tuple[PlanBundle, rt.RoutingTrace]:
    """The PlanBundle for a policy plus the (possibly rewritten) trace to score."""
    layers = model.num_layers
    mb_count = trace.num_micro_batches
    g = topo.num_gpus

    if policy == "balanced_oracle":
        uniform = dataclasses.replace(trace, matrices=_uniform_matrices(trace), samples=None)
        return PlanBundle(reorder=[ro.static_plan(model.num_experts, topo) for _ in range(layers)]), uniform

    if policy == "static":
        return PlanBundle(reorder=[ro.static_plan(model.num_experts, topo) for _ in range(layers)]), trace

    if policy == "lpt_only":
        plans = [ro.lpt_initial(rt.aggregate_batch(trace, layer), topo) for layer in range(layers)]
        return PlanBundle(reorder=plans), trace

    if policy in ("eplb_like", "lplb_like"):
        plans = []
        replication = rep.ReplicationPlan()
        limit = 1 if policy == "lplb_like" else None
        for layer in range(layers):
            agg = rt.aggregate_batch(trace, layer)
            plan = ro.lpt_initial(agg, topo)
            plans.append(plan)
            loads = agg.astype(np.float64).sum(axis=0)
            placement = _eplb_replication(loads, plan.assignment, topo,
                                          cfgs.replica.slots_per_gpu, max_replicas_per_expert=limit)
            if policy == "eplb_like":
                split = _uniform_split(placement, g)
                for mb in range(mb_count):
                    replication.entries[(mb, layer)] = rep.ReplicationEntry(placement, split, float("nan"))
            else:
                tasks = [
                    ((mb, layer), (lambda m=mb, l=layer, p=placement: rep.solve_token_split_lp(
                        trace.matrices[m, l].astype(np.float64), p, topo, model, hw)))
                    for mb in range(mb_count)
                ]
                for (mb, l), split in solve_tasks(tasks, cfgs.threads).items():
                    replication.entries[(mb, l)] = rep.ReplicationEntry(placement, split, float("nan"))
        return PlanBundle(reorder=plans, replication=replication), trace

    if policy == "relibra":
        plans = []
        units = cm.TimeUnits.of(model, hw, g)
        for layer in range(layers):
            agg = rt.aggregate_batch(trace, layer)
            # annealing on overflowed times is meaningless, and any entry whose
            # split LP would overflow makes these times overflow too (the annealed
            # plan is no worse than LPT's, an entry's loads at most the aggregate's)
            rep.home_times(agg, ro.lpt_initial(agg, topo).assignment, topo, units, hw)
            plans.append(ro.anneal_reorder(
                agg, topo, model, hw, cfgs.anneal,
                extra_initial_plans=[ro.static_plan(model.num_experts, topo)],
            ))
        placement = None
        if cfgs.sample_locality and trace.samples is not None:
            placement = ro.anneal_sample_placement(trace, plans, topo, model, hw, cfgs.anneal)
        matrices = scored_matrices(trace, placement)
        replication = rep.ReplicationPlan()
        tasks = []
        for mb in range(mb_count):
            for layer in range(layers):
                tasks.append(((mb, layer), (lambda m=mb, l=layer: rep.greedy_replicate(
                    matrices[m, l], plans[l], topo, model, hw, cfgs.replica))))
        for (mb, layer), (pl, split) in solve_tasks(tasks, cfgs.threads).items():
            replication.entries[(mb, layer)] = rep.ReplicationEntry(pl, split, float("nan"))
        return PlanBundle(reorder=plans, sample_placement=placement, replication=replication), trace

    raise ValueError(f"unknown policy {policy!r}; expected one of {', '.join(POLICIES)}")


def run_baseline(trace: rt.RoutingTrace, policy: str, topo: ClusterTopology,
                 model: rt.ModelProfile, hw: HardwareProfile, cfgs: SimConfigs) -> SimReport:
    """Plan and evaluate one policy over the trace."""
    bundle, scored_trace = build_policy_bundle(trace, policy, topo, model, hw, cfgs)
    report = evaluate_bundle(scored_trace, bundle, topo, model, hw, policy=policy)
    # reports stay comparable across policies even when the oracle rewrites routing
    report.trace_id = trace.trace_id()
    return report


# ---------------------------------------------------------------------------
# comparison and serialization


def compare_report(reports: list[SimReport]) -> dict:
    """Speedups vs static plus skewness distribution stats per policy."""
    if not reports:
        raise ValueError("no reports to compare")
    ids = {r.trace_id for r in reports}
    if len(ids) > 1:
        raise ValueError(f"reports cover different traces: {sorted(ids)}")
    static_total = next((r.total_time for r in reports if r.policy == "static"), None)
    rows = []
    for r in reports:
        flat = r.skew.ravel()
        rows.append({
            "policy": r.policy,
            "total_time_s": r.total_time,
            "speedup_vs_static": (static_total / r.total_time) if static_total else None,
            "skew_mean": float(flat.mean()),
            "skew_p50": float(np.percentile(flat, 50)),
            "skew_p95": float(np.percentile(flat, 95)),
            "skew_max": float(flat.max()),
        })
    return {
        "trace_id": reports[0].trace_id,
        "rows": rows,
        "mb_times": {r.policy: r.mb_times().tolist() for r in reports},
    }


def trace_summary(trace: rt.RoutingTrace) -> dict:
    """Raw-trace imbalance series: expert-level skew, hot-set overlap, shares."""
    layers = trace.model.num_layers
    out = {"skewness_raw": [], "intersection_ratio": [], "expert_load_share": [], "hot_k": HOT_K}
    k = min(HOT_K, trace.model.num_experts)
    for layer in range(layers):
        per_mb = trace.matrices[:, layer].astype(np.int64).sum(axis=1)  # (MB, E)
        skews = [rt.skewness(row) for row in per_mb]
        shares = per_mb / np.maximum(per_mb.sum(axis=1, keepdims=True), 1)
        out["skewness_raw"].append([float(s) for s in skews])
        out["expert_load_share"].append(shares.tolist())
        if trace.num_micro_batches >= 2:
            out["intersection_ratio"].append(rt.hot_expert_intersection(trace, layer, k).tolist())
        else:
            out["intersection_ratio"].append([])
    return out


def reports_to_dict(trace: rt.RoutingTrace, reports: list[SimReport]) -> dict:
    comparison = compare_report(reports)
    return {
        "version": 1,
        "trace_id": comparison["trace_id"],
        "timestamp": datetime.now(timezone.utc).isoformat(),  # volatile field, excluded from idempotence
        "metadata": {r.policy: r.metadata for r in reports},
        "comparison": comparison,
        "trace_summary": trace_summary(trace),
        "policies": {
            r.policy: {
                "total_time_s": r.total_time,
                "entry_times": r.entry_times.tolist(),
                "mb_times": r.mb_times().tolist(),
                "skew": r.skew.tolist(),
            }
            for r in reports
        },
    }


SUMMARY_COLUMNS = ("policy", "total_time_s", "speedup_vs_static", "skew_mean", "skew_p95", "skew_max")


def summary_csv_lines(comparison: dict) -> list[str]:
    lines = [",".join(SUMMARY_COLUMNS)]
    for row in comparison["rows"]:
        cells = []
        for col in SUMMARY_COLUMNS:
            value = row[col]
            if value is None:
                cells.append("")
            elif isinstance(value, str):
                cells.append(value)
            else:
                cells.append(f"{value:.9g}")
        lines.append(",".join(cells))
    return lines


def write_reports(out_dir: str | Path, trace: rt.RoutingTrace, reports: list[SimReport]) -> dict:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = reports_to_dict(trace, reports)
    (out / "report.json").write_text(json.dumps(payload, indent=2) + "\n")
    (out / "summary.csv").write_text("\n".join(summary_csv_lines(payload["comparison"])) + "\n")
    return payload
