"""Trace-level evaluation of balancing policies and comparative reporting.

A policy is its homes, where each expert lives for the whole batch
(inter-batch reordering), plus, if it replicates, one planner that gives
each (micro_batch, layer) entry its replicas and split (intra-batch
replication, planned on routing that replay makes known before training).
Every policy becomes a PlanBundle and is scored by the same evaluator, in
one array pass over every entry. The modeled time covers the MoE block
only; attention and optimizer time are policy-invariant and excluded, so
speedup ratios are an upper bound on end-to-end gains.

This module alone knows `report.json`: `write_reports` writes each fact
once, `series_rows` reads it back as flat series, and `summary.csv` is the
comparison series.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
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
    sample_placement: np.ndarray | None = None  # (S,) source GPU per sample
    replication: rep.ReplicationPlan = field(default_factory=rep.ReplicationPlan)


@dataclass
class SimReport:
    policy: str
    trace_id: str
    entry_times: np.ndarray   # (MB, L) seconds
    skew: np.ndarray          # (MB, L) rank-level skewness
    total_time: float

    def mb_times(self) -> np.ndarray:
        return self.entry_times.sum(axis=1)


def _check_gpu_ids(name: str, ids: np.ndarray, count: int, what: str, num_gpus: int) -> None:
    if len(ids) != count:
        raise ValueError(f"{name} has {len(ids)} entries, the trace has {count} {what}")
    if count and (ids.min() < 0 or ids.max() >= num_gpus):
        raise ValueError(f"{name} holds a GPU id outside [0, {num_gpus})")


def check_reorder(trace: rt.RoutingTrace, plans: list[ro.ReorderPlan],
                  sample_placement: np.ndarray | None, topo: ClusterTopology) -> None:
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
        _check_gpu_ids("the sample placement", sample_placement, trace.samples.num_samples,
                       "samples", topo.num_gpus)


def check_replication(trace: rt.RoutingTrace, bundle: PlanBundle, topo: ClusterTopology,
                      matrices: np.ndarray | None = None) -> None:
    """Check the replication.json part of a bundle that passed `check_reorder`:
    each placement, and each split's columns against it. Given the scored
    matrices, also check split conservation, which `evaluate_bundle` leaves
    to `compute_loads`. A placement object shared by several entries is
    validated once, at its first entry, which a failure names."""
    validated = set()
    for (mb, layer), entry in bundle.replication.entries.items():
        if not (0 <= mb < trace.num_micro_batches and 0 <= layer < trace.model.num_layers):
            raise ValueError(f"replication entry ({mb}, {layer}) outside the trace")
        if not np.array_equal(entry.placement.home, bundle.reorder[layer].assignment):
            raise ValueError(f"replication entry ({mb}, {layer}) was built for a different expert plan")
        try:
            if id(entry.placement) not in validated:
                rep.validate_placement(entry.placement, topo)
                validated.add(id(entry.placement))
            rep.validate_split(entry.split, entry.placement, None if matrices is None else matrices[mb, layer])
        except ValueError as err:
            raise ValueError(f"replication entry ({mb}, {layer}): {err}") from err


def scored_matrices(trace: rt.RoutingTrace, sample_placement: np.ndarray | None) -> np.ndarray:
    """The (MB, L, G, E) float routing matrices a bundle is scored on."""
    if sample_placement is not None:
        return ro.rewrite_trace_matrices(trace, sample_placement)
    return trace.matrices.astype(np.float64)


def evaluate_bundle(trace: rt.RoutingTrace, bundle: PlanBundle, topo: ClusterTopology,
                    model: rt.ModelProfile, hw: HardwareProfile, policy: str = "bundle") -> SimReport:
    """Apply the bundle per (micro_batch, layer) and aggregate times and skew.

    Per layer, every entry's loads at home placement come from two
    contractions. Scored matrices hold integer token counts, so these loads
    are integer sums, exact in any order and equal to a per-entry
    `compute_loads` bit for bit. Each entry with a split then takes its
    loads from `compute_loads`, which checks the split and keeps its
    summation order. Then times, skew and the conservation, overflow and
    negative-load checks are one array pass over every entry; a failing
    check names the first failing entry in (micro_batch, layer) order.
    """
    check_reorder(trace, bundle.reorder, bundle.sample_placement, topo)
    check_replication(trace, bundle, topo)
    matrices = scored_matrices(trace, bundle.sample_placement)
    mb_count = trace.num_micro_batches
    g = topo.num_gpus
    loads = np.empty((mb_count, model.num_layers, 5, g))
    charge = topo.charges.dense().reshape(g * g, 5 * g)  # row src * G + dst: loads of one token
    for layer, plan in enumerate(bundle.reorder):
        home = np.zeros((model.num_experts, g))
        home[np.arange(model.num_experts), plan.assignment] = 1.0
        flows = (matrices[:, layer] @ home).reshape(mb_count, g * g)
        loads[:, layer] = (flows @ charge).reshape(mb_count, 5, g)
    for mb, layer in sorted(bundle.replication.entries):  # in entry order, so the first bad split raises
        entry = bundle.replication.entries[mb, layer]
        if entry.split.expert.size:
            # compute_loads checks the split (costmodel.check_split)
            try:
                loads[mb, layer] = cm.compute_loads(matrices[mb, layer], bundle.reorder[layer].assignment, topo,
                                                    split=entry.split)
            except ValueError as err:
                raise ValueError(f"replication entry ({mb}, {layer}): {err}") from err
    totals = matrices.sum(axis=(2, 3))
    comp = loads[:, :, COMP]
    comp_sums = comp.sum(axis=2)
    # bad entries are reported below; the 0 / 0 skews of empty entries are replaced
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        times = cm.TimeUnits.of(model, hw, g).times(loads)
        entry_times = times[:, :, 0].max(axis=2) + times[:, :, 1:].max(axis=(2, 3))
        skew = np.where(totals > 0, comp.max(axis=2) * g / comp_sums, 1.0)
        leaks = np.abs(comp_sums - totals) > 1e-6 * np.maximum(totals, 1.0)
    overflows = ~np.isfinite(entry_times)
    negative = comp.min(axis=2) < 0
    bad = np.argwhere(leaks | overflows | negative)
    if bad.size:
        mb, layer = bad[0].tolist()
        if leaks[mb, layer]:
            raise ValueError(f"token conservation violated at entry ({mb}, {layer})")
        if overflows[mb, layer]:
            raise ValueError(f"modeled time of entry ({mb}, {layer}) overflows to {entry_times[mb, layer]:g} s "
                             f"under {hw}")
        raise ValueError(f"negative computation load at entry ({mb}, {layer}): {comp[mb, layer].min():g} tokens")

    return SimReport(
        policy=policy,
        trace_id=trace.trace_id(),
        entry_times=entry_times,
        skew=skew,
        total_time=float(entry_times.sum()),
    )


# ---------------------------------------------------------------------------
# policy plan construction


def _uniform_matrices(trace: rt.RoutingTrace) -> np.ndarray:
    """Each row redistributed uniformly over experts, preserving integer sums.

    Source GPU j gives its row's remainder to the experts from its own
    static block (expert j * E / G) on, wrapping mod E, so equal remainders
    load every static block equally."""
    mats = trace.matrices.astype(np.int64)
    mb_count, layers, g, e = mats.shape
    row_sums = mats.sum(axis=3)
    base = row_sums // e
    extra = row_sums - base * e
    offset = (np.arange(e)[None, :] - np.arange(g)[:, None] * (e // g)) % e  # (G, E) rank from the source's block
    out = base[..., None] + (offset < extra[..., None])
    return out.astype(np.uint32)


def _eplb_replication(loads: np.ndarray, home: np.ndarray, topo: ClusterTopology,
                      slots_per_gpu: int, max_replicas_per_expert: int | None = None) -> rep.ReplicaPlacement:
    """Aggregate-load greedy replica fill with uniform (round-robin) splits in mind.

    Two phases: copy counts first (always one more copy for the expert with
    the highest per-copy load, while its node has slot budget), then replica
    placement (heaviest share onto the lightest feasible GPU, with every
    retained home share already accounted). The plan stays fixed for every
    micro-batch. Each copy-count round is a few array passes over the
    experts that may still take a copy.
    """
    num_experts = len(loads)
    gpn = topo.gpus_per_node
    placement = rep.ReplicaPlacement(home=home.copy())
    copies = np.ones(num_experts, dtype=int)
    node = home // gpn
    node_slots = np.full(topo.num_nodes, slots_per_gpu * gpn)
    cap = gpn if max_replicas_per_expert is None else min(gpn, max_replicas_per_expert + 1)
    open_ = (loads > 0) & (copies < cap)
    while True:
        cand = np.flatnonzero(open_ & (node_slots[node] > 0))
        if cand.size == 0:
            break
        e = cand[np.argmax(loads[cand] / copies[cand])]
        copies[e] += 1
        node_slots[node[e]] -= 1
        open_[e] = copies[e] < cap

    gpu_load = np.zeros(topo.num_gpus)
    np.add.at(gpu_load, home, loads / copies)
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
    return rep.split_of(placement, {e: np.full((num_gpus, 1 + len(gpus)), 1.0 / (1 + len(gpus)))
                                    for e, gpus in placement.replicas.items()})


def solve_tasks(tasks, threads: int):
    """Run (key, fn) tasks, returning {key: result} in deterministic order."""
    if threads <= 1:
        return {key: fn() for key, fn in tasks}
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [(key, pool.submit(fn)) for key, fn in tasks]
        return {key: fut.result() for key, fut in futures}


def build_policy_bundle(trace: rt.RoutingTrace, policy: str, topo: ClusterTopology,
                        model: rt.ModelProfile, hw: HardwareProfile, cfgs: SimConfigs) -> tuple[PlanBundle, rt.RoutingTrace]:
    """The PlanBundle for a policy plus the (possibly rewritten) trace to score.

    Homes are static blocks for `static` and `balanced_oracle`, else LPT on
    the batch aggregate, which `relibra` anneals. A replicating policy's
    `plan_entry(mb, layer) -> (placement, split)` runs over every entry in
    one `solve_tasks` pass: the layer's EPLB fill with a uniform split
    (`eplb_like`), the fill capped at one replica per expert with the
    entry's split LP (`lplb_like`), or the greedy on the entry (`relibra`).
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown policy {policy!r}; expected one of {', '.join(POLICIES)}")
    layers = range(model.num_layers)
    if policy in ("static", "balanced_oracle"):
        plans = [ro.static_plan(model.num_experts, topo) for _ in layers]
        if policy == "balanced_oracle":
            trace = dataclasses.replace(trace, matrices=_uniform_matrices(trace), samples=None)
        return PlanBundle(reorder=plans), trace
    aggs = [rt.aggregate_batch(trace, layer) for layer in layers]
    plans = [ro.lpt_initial(agg, topo) for agg in aggs]
    if policy == "lpt_only":
        return PlanBundle(reorder=plans), trace

    sample_placement = None
    if policy == "relibra":
        units = cm.TimeUnits.of(model, hw, topo.num_gpus)
        for layer, (agg, plan) in enumerate(zip(aggs, plans)):
            # annealing on overflowed times is meaningless, and any entry whose
            # split LP would overflow makes these times overflow too (the annealed
            # plan is no worse than LPT's, an entry's loads at most the aggregate's)
            _, times = rep.home_times(agg, plan.assignment, topo, units)
            if not np.isfinite(times).all():
                raise ValueError(f"layer {layer} batch aggregate at LPT homes: modeled times overflow "
                                 f"to {times.max():g} s under {hw}")
            plans[layer] = ro.anneal_reorder(agg, topo, model, hw, cfgs.anneal)
        if cfgs.sample_locality:
            sample_placement = ro.anneal_sample_placement(trace, plans, topo, model, hw, cfgs.anneal)
        matrices = scored_matrices(trace, sample_placement)

        def plan_entry(mb, layer):
            return rep.greedy_replicate(matrices[mb, layer], plans[layer], topo, model, hw, cfgs.replica)
    else:
        limit = 1 if policy == "lplb_like" else None
        fills = [_eplb_replication(agg.astype(np.float64).sum(axis=0), plan.assignment, topo,
                                   cfgs.replica.slots_per_gpu, max_replicas_per_expert=limit)
                 for agg, plan in zip(aggs, plans)]
        if policy == "eplb_like":
            splits = [_uniform_split(fill, topo.num_gpus) for fill in fills]

            def plan_entry(mb, layer):
                return fills[layer], splits[layer]
        else:
            def plan_entry(mb, layer):
                return fills[layer], rep.solve_token_split_lp(
                    trace.matrices[mb, layer].astype(np.float64), fills[layer], topo, model, hw)

    tasks = [((mb, layer), functools.partial(plan_entry, mb, layer))
             for mb in range(trace.num_micro_batches) for layer in layers]
    entries = {key: rep.ReplicationEntry(*planned, float("nan"))
               for key, planned in solve_tasks(tasks, cfgs.threads).items()}
    return PlanBundle(plans, sample_placement, rep.ReplicationPlan(entries)), trace


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
    """The comparison section: speedup vs static and skewness stats per policy."""
    if not reports:
        raise ValueError("no reports to compare")
    ids = {r.trace_id for r in reports}
    if len(ids) > 1:
        raise ValueError(f"reports cover different traces: {sorted(ids)}")
    static_total = next((r.total_time for r in reports if r.policy == "static"), None)
    return {"rows": [{
        "policy": r.policy,
        "total_time_s": r.total_time,
        "speedup_vs_static": (static_total / r.total_time) if static_total else None,
        "skew_mean": float(r.skew.mean()),
        "skew_p50": float(np.percentile(r.skew, 50)),
        "skew_p95": float(np.percentile(r.skew, 95)),
        "skew_max": float(r.skew.max()),
    } for r in reports]}


def trace_summary(trace: rt.RoutingTrace) -> dict:
    """Raw-trace imbalance series: expert-level skew, hot-set overlap, shares."""
    layers = trace.model.num_layers
    out = {"skewness_raw": [], "intersection_ratio": [], "expert_load_share": [], "hot_k": HOT_K}
    k = min(HOT_K, trace.model.num_experts)
    for layer in range(layers):
        per_mb = trace.matrices[:, layer].astype(np.int64).sum(axis=1)  # (MB, E)
        # an all-zero micro-batch is balanced, as `evaluate_bundle` scores it
        skews = [rt.skewness(row) if row.any() else 1.0 for row in per_mb]
        shares = per_mb / np.maximum(per_mb.sum(axis=1, keepdims=True), 1)
        out["skewness_raw"].append([float(s) for s in skews])
        out["expert_load_share"].append(shares.tolist())
        if trace.num_micro_batches >= 2:
            out["intersection_ratio"].append(rt.hot_expert_intersection(trace, layer, k).tolist())
        else:
            out["intersection_ratio"].append([])
    return out


SUMMARY_COLUMNS = ("policy", "total_time_s", "speedup_vs_static", "skew_mean", "skew_p95", "skew_max")
SERIES = ("comparison", "skewness", "times", "intersection", "loads")


def check_report(data) -> None:
    if not (isinstance(data, dict) and "comparison" in data and "policies" in data):
        raise ValueError("expected a JSON object with comparison/policies sections")


def series_rows(name: str, report: dict):
    """Header and rows of one report series; version 1 reports give the same rows."""
    if name == "comparison":
        yield SUMMARY_COLUMNS
        for row in report["comparison"]["rows"]:
            yield [row[c] if row[c] is not None else "" for c in SUMMARY_COLUMNS]
    elif name == "skewness":
        yield ["policy", "micro_batch", "layer", "skewness"]
        for policy, body in report["policies"].items():
            for mb, per_layer in enumerate(body["skew"]):
                for layer, value in enumerate(per_layer):
                    yield [policy, mb, layer, value]
    elif name == "times":
        yield ["policy", "micro_batch", "time_s"]
        for policy, body in report["policies"].items():
            for mb, value in enumerate(body["mb_times"]):
                yield [policy, mb, value]
    elif name == "intersection":
        yield ["layer", "pair_index", "ratio"]
        for layer, ratios in enumerate(report["trace_summary"]["intersection_ratio"]):
            for pair, value in enumerate(ratios):
                yield [layer, pair, value]
    elif name == "loads":
        yield ["layer", "micro_batch", "expert", "share"]
        for layer, per_mb in enumerate(report["trace_summary"]["expert_load_share"]):
            for mb, shares in enumerate(per_mb):
                for expert, share in enumerate(shares):
                    yield [layer, mb, expert, share]


def write_series(target: Path, name: str, report: dict) -> None:
    """Write one series as CSV; a malformed report leaves no file."""
    rows = list(series_rows(name, report))
    with target.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def write_reports(out_dir: str | Path, trace: rt.RoutingTrace, reports: list[SimReport]) -> dict:
    """Write report.json and summary.csv, its comparison series; returns the report."""
    comparison = compare_report(reports)  # checks that the reports cover one trace
    payload = {
        "version": 2,
        "trace_id": reports[0].trace_id,
        "timestamp": datetime.now(timezone.utc).isoformat(),  # volatile field, excluded from idempotence
        "throughput_proxy": "modeled MoE time only; attention and optimizer excluded",
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
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(json.dumps(payload, indent=2) + "\n")
    write_series(out / "summary.csv", "comparison", payload)
    return payload
