"""Per-layer metrics of the traced run, derived from spans and output files.

Phases are the harness's own spans: bench.setup (make, write and load the
trace), bench.solve (one `moebalance solve`) and bench.simulate (one
`moebalance simulate`). Durations are inclusive unless a name says self.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from refeval import RefTopology
from tracer import LAYERS, SpanIndex, total, union_length
from workloads import POLICY_NAMES

SETUP, SOLVE, SIMULATE = "bench.setup", "bench.solve", "bench.simulate"
PARENTS = ("replicate", "sim", "other")

# (name, unit, better); the order is the print order.
METRICS = (
    ("reorder.anneal_s", "s", "lower"),
    ("reorder.proposals", "count", "lower"),
    ("reorder.proposal_us", "us", "lower"),
    ("reorder.accept_ratio", "ratio", "higher"),
    ("reorder.annealed_vs_lpt.layer0", "ratio", "lower"),
    ("reorder.annealed_vs_lpt.max", "ratio", "lower"),
    ("reorder.sample_pass_s", "s", "lower"),
    ("reorder.sample_init_s", "s", "lower"),
    ("reorder.sample_moved_frac", "ratio", "higher"),
    ("reorder.rewrite_s", "s", "lower"),
    ("replicate.greedy_s", "s", "lower"),
    ("replicate.entries", "count", "lower"),
    ("replicate.entry_ms_p50", "ms", "lower"),
    ("replicate.entry_ms_max", "ms", "lower"),
    ("replicate.trials", "count", "lower"),
    ("replicate.rollbacks", "count", "lower"),
    ("replicate.accept_ratio", "ratio", "higher"),
    ("replicate.slots_used_frac", "ratio", "higher"),
    ("replicate.split_lp_s", "s", "lower"),
    ("replicate.split_lp_calls", "count", "lower"),
    ("lp.solves", "count", "lower"),
    ("lp.solve_s", "s", "lower"),
    ("lp.pivots", "count", "lower"),
    ("lp.pivot_us", "us", "lower"),
    ("lp.add_row_s", "s", "lower"),
    ("lp.add_columns_s", "s", "lower"),
    ("lp.snapshot_restore_s", "s", "lower"),
    ("lp.tableau_cells_max", "count", "lower"),
    *((f"costmodel.compute_loads_calls.{p}", "count", "lower") for p in PARENTS),
    *((f"costmodel.compute_loads_s.{p}", "s", "lower") for p in PARENTS),
    *((f"costmodel.compute_loads_us.{p}", "us", "lower") for p in PARENTS),
    *((f"sim.plan_s.{p}", "s", "lower") for p in POLICY_NAMES),
    ("sim.evaluate_s", "s", "lower"),
    ("sim.evaluate_entries", "count", "lower"),
    ("sim.write_reports_s", "s", "lower"),
    ("sim.parallel_busy_ratio", "ratio", "higher"),
    ("sim.report_bytes", "bytes", "lower"),
    ("routing.gen_s", "s", "lower"),
    ("routing.save_trace_s", "s", "lower"),
    ("routing.load_trace_s", "s", "lower"),
    ("routing.trace_bytes", "bytes", "lower"),
    ("planio.save_s", "s", "lower"),
    ("planio.load_s", "s", "lower"),
    ("planio.plan_bytes", "bytes", "lower"),
    *((f"quality.moe_s.{p}", "modeled_s", "lower") for p in POLICY_NAMES),
    ("quality.moe_s.relibra.layer0", "modeled_s", "lower"),
    ("quality.moe_s.relibra.layer_max", "modeled_s", "lower"),
    ("quality.skew_mean.relibra", "ratio", "lower"),
    ("trace.overhead_solve_s", "s", "lower"),
    ("trace.overhead_simulate_s", "s", "lower"),
    ("attrib.dominant_share", "ratio", "higher"),
    ("solve.pool_wait_s", "s", "lower"),
    *((f"solve.self_s.{layer}", "s", "lower") for layer in LAYERS),
    *((f"simulate.self_s.{layer}", "s", "lower") for layer in LAYERS),
)
UNITS = {name: unit for name, unit, _ in METRICS}
# Times that are exactly zero on a workload that bypasses the function (the
# sample pass without a sample table, LP growth without replica slots). They
# are printed but kept out of the JSON result and BENCHMARK.json, where a
# time that never changes reads as one that was not measured.
PRINT_ONLY = frozenset({
    "reorder.sample_pass_s", "reorder.sample_init_s", "reorder.rewrite_s",
    "lp.add_row_s", "lp.add_columns_s", "lp.snapshot_restore_s", "solve.self_s.lp",
})


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def layer_quality(trace, reorder: dict) -> list[float]:
    """Per layer: exact modeled time of the annealed plan / the LPT plan on the batch aggregate."""
    from moebalance import reorder as ro
    from moebalance import routing as rt
    ref = RefTopology.from_trace(trace)
    out = []
    for layer, annealed in enumerate(reorder["plans"]):
        agg = rt.aggregate_batch(trace, layer).astype(float)
        lpt = [int(h) for h in ro.lpt_initial(agg, trace.topo).assignment]
        rows = agg.tolist()
        out.append(ref.entry_time(rows, annealed, {}, {}) / ref.entry_time(rows, lpt, {}, {}))
    return out


def compute(spans: list[tuple], *, trace, workload, plans: Path, report: Path, trace_dir: Path,
            untraced: dict[str, float]) -> tuple[dict[str, float], dict]:
    """All METRICS values plus the attribution detail printed beside them."""
    idx = SpanIndex(spans)
    sel = idx.select
    m: dict[str, float] = {}
    solve_wall = total(sel(SOLVE))
    simulate_wall = total(sel(SIMULATE))

    # reorder
    anneal = sel("reorder.anneal_reorder", SOLVE)
    proposals = len(sel("reorder.AnnealState.swap_delta", SOLVE, "reorder.anneal_reorder"))
    accepted = len(sel("reorder.AnnealState.apply_swap", SOLVE, "reorder.anneal_reorder"))
    m["reorder.anneal_s"] = total(anneal)
    m["reorder.proposals"] = proposals
    m["reorder.proposal_us"] = ratio(total(anneal), proposals) * 1e6
    m["reorder.accept_ratio"] = ratio(accepted, proposals)
    reorder_doc = json.loads((plans / "reorder.json").read_text())
    ratios = layer_quality(trace, reorder_doc)
    m["reorder.annealed_vs_lpt.layer0"] = ratios[0]
    m["reorder.annealed_vs_lpt.max"] = max(ratios)
    m["reorder.sample_pass_s"] = total(sel("reorder.anneal_sample_placement", SOLVE))
    m["reorder.sample_init_s"] = total(sel("reorder.greedy_sample_initial", SOLVE))
    placed = reorder_doc.get("sample_placement")
    if placed is not None:
        moved = sum(int(a != b) for a, b in zip(placed, trace.samples.source_gpu.tolist()))
        m["reorder.sample_moved_frac"] = moved / len(placed)
    else:
        m["reorder.sample_moved_frac"] = 0.0
    m["reorder.rewrite_s"] = total(sel("reorder.rewrite_trace_matrices", SOLVE))

    # replicate
    greedy = sel("replicate.greedy_replicate", SOLVE)
    entry_ms = [(s[3] - s[2]) * 1e3 for s in greedy]
    trials = len(sel("replicate.TokenSplitLP.add_replica", SOLVE, "replicate.greedy_replicate"))
    rollbacks = len(sel("replicate.TokenSplitLP.restore", SOLVE, "replicate.greedy_replicate"))
    m["replicate.greedy_s"] = total(greedy)
    m["replicate.entries"] = len(greedy)
    m["replicate.entry_ms_p50"] = statistics.median(entry_ms) if entry_ms else 0.0
    m["replicate.entry_ms_max"] = max(entry_ms, default=0.0)
    m["replicate.trials"] = trials
    m["replicate.rollbacks"] = rollbacks
    m["replicate.accept_ratio"] = ratio(trials - rollbacks, trials)
    replication_doc = json.loads((plans / "replication.json").read_text())
    placed_replicas = sum(len(e["replicas"]) for e in replication_doc["entries"])
    capacity = trace.topo.num_gpus * workload.replica_slots * len(replication_doc["entries"])
    m["replicate.slots_used_frac"] = ratio(placed_replicas, capacity)
    split_lp = sel("replicate.solve_token_split_lp", SIMULATE)
    m["replicate.split_lp_s"] = total(split_lp)
    m["replicate.split_lp_calls"] = len(split_lp)

    # lp, over solve and simulate
    def both(name):
        return sel(name, SOLVE) + sel(name, SIMULATE)

    solves = both("lp.DenseSimplex.solve")
    pivots = sum(s[6][0] for s in solves)
    m["lp.solves"] = len(solves)
    m["lp.solve_s"] = total(solves)
    m["lp.pivots"] = pivots
    m["lp.pivot_us"] = ratio(total(solves), pivots) * 1e6
    m["lp.add_row_s"] = total(both("lp.DenseSimplex.add_row"))
    m["lp.add_columns_s"] = total(both("lp.DenseSimplex.add_columns"))
    m["lp.snapshot_restore_s"] = total(both("lp.DenseSimplex.snapshot") + both("lp.DenseSimplex.restore"))
    m["lp.tableau_cells_max"] = max((s[6][1] for s in solves), default=0)

    # costmodel, split by the layer of the calling span
    groups = {p: [] for p in PARENTS}
    for s in both("costmodel.compute_loads"):
        parent = idx.parent_layer(s)
        groups[parent if parent in groups else "other"].append(s)
    for p, group in groups.items():
        m[f"costmodel.compute_loads_calls.{p}"] = len(group)
        m[f"costmodel.compute_loads_s.{p}"] = total(group)
        m[f"costmodel.compute_loads_us.{p}"] = ratio(total(group), len(group)) * 1e6

    # sim
    bundles = sel("sim.build_policy_bundle", SIMULATE)
    for policy in POLICY_NAMES:
        if policy == "relibra":  # simulate --plans loads relibra's plans instead of planning
            m["sim.plan_s.relibra"] = total(sel("planio.load_plan_bundle", SIMULATE))
        else:
            m[f"sim.plan_s.{policy}"] = total([s for s in bundles if s[6] == policy])
    m["sim.evaluate_s"] = total(sel("sim.evaluate_bundle", SIMULATE))
    m["sim.evaluate_entries"] = len(sel("costmodel.compute_loads", SIMULATE, "sim.evaluate_bundle"))
    m["sim.write_reports_s"] = total(sel("sim.write_reports", SIMULATE))
    busy = capacity_s = 0.0
    for pool in sel("sim.solve_tasks", SOLVE):
        busy += sum(s[3] - s[2] for s in spans if s[4] == pool[0])
        capacity_s += (pool[3] - pool[2]) * pool[6]
    m["sim.parallel_busy_ratio"] = ratio(busy, capacity_s)
    m["sim.report_bytes"] = (report / "report.json").stat().st_size

    # routing and planio
    m["routing.gen_s"] = total(sel("routing.generate_synthetic_trace", SETUP))
    m["routing.save_trace_s"] = total(sel("routing.save_trace", SETUP))
    m["routing.load_trace_s"] = total(sel("routing.load_trace", SETUP))
    m["routing.trace_bytes"] = dir_bytes(trace_dir)
    m["planio.save_s"] = total(sel("planio.save_reorder_plan", SOLVE) + sel("planio.save_replication_plan", SOLVE))
    m["planio.load_s"] = total(sel("planio.load_reorder_plan", SIMULATE)
                               + sel("planio.load_replication_plan", SIMULATE))
    m["planio.plan_bytes"] = (plans / "reorder.json").stat().st_size + (plans / "replication.json").stat().st_size

    # modeled quality
    report_doc = json.loads((report / "report.json").read_text())
    pol = report_doc["policies"]
    for policy in POLICY_NAMES:
        m[f"quality.moe_s.{policy}"] = pol[policy]["total_time_s"]
    per_layer = [sum(col) for col in zip(*pol["relibra"]["entry_times"])]
    m["quality.moe_s.relibra.layer0"] = per_layer[0]
    m["quality.moe_s.relibra.layer_max"] = max(per_layer)
    row = next(r for r in report_doc["comparison"]["rows"] if r["policy"] == "relibra")
    m["quality.skew_mean.relibra"] = row["skew_mean"]

    # tracing cost and attribution
    m["trace.overhead_solve_s"] = solve_wall - untraced["solve_s"]
    m["trace.overhead_simulate_s"] = simulate_wall - untraced["simulate_s"]
    dominant = union_length((s[2], s[3]) for s in sel(workload.dominant, SOLVE))
    m["attrib.dominant_share"] = ratio(dominant, solve_wall)
    m["solve.pool_wait_s"] = idx.wait(SOLVE)
    solve_self = idx.layer_self_time(SOLVE)
    simulate_self = idx.layer_self_time(SIMULATE)
    for layer in LAYERS:
        m[f"solve.self_s.{layer}"] = solve_self[layer]
        m[f"simulate.self_s.{layer}"] = simulate_self[layer]

    detail = {
        "solve_wall_s": solve_wall,
        "simulate_wall_s": simulate_wall,
        "dominant_s": dominant,
        "solve_self_s": solve_self,
        "simulate_self_s": simulate_self,
        "annealed_vs_lpt": ratios,
        "relibra_per_layer_s": per_layer,
    }
    return m, detail
