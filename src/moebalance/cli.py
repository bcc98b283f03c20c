"""Command-line front end: gen, solve, simulate, report.

All randomness flows from --seed; annealing chain seeds derive from it by
fixed offsets. Flags mirror manifest keys one-to-one and override them.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import costmodel as cm
from . import planio
from . import replicate as rep
from . import reorder as ro
from . import routing as rt
from . import sim
from .lp import LPError
from .topology import HardwareProfile, build_topology

# every policy by its own name, plus short names
POLICY_ALIASES = {**{policy: policy for policy in sim.POLICIES},
                  "lpt": "lpt_only", "eplb": "eplb_like", "lplb": "lplb_like", "balanced": "balanced_oracle"}


def chain_seeds(master_seed: int, count: int) -> tuple[int, ...]:
    """Annealing chain seeds derived from the master seed by fixed offsets."""
    return tuple(master_seed * 1000 + i for i in range(count))


def _add_hardware_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--flops", type=float, default=2.5e10,
                   help="effective FLOPS per GPU (default %(default)s)")
    p.add_argument("--bw-nvlink", type=float, default=4.0e5,
                   help="effective NVLink bandwidth, bytes/s (default %(default)s)")
    p.add_argument("--bw-rdma", type=float, default=1.0e5,
                   help="effective per-GPU RDMA bandwidth, bytes/s (default %(default)s)")
    p.add_argument("--bytes-per-token", type=float, default=1.0,
                   help="token payload bytes; 1 treats bandwidths as tokens/s (default %(default)s)")


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seeds", type=int, default=16, help="annealing chains (default %(default)s)")
    p.add_argument("--cooling", type=float, default=0.9995, help="cooling rate gamma in (0,1) (default %(default)s)")
    p.add_argument("--eps-frac", type=float, default=1e-3,
                   help="termination threshold as a fraction of the initial temperature (default %(default)s)")
    p.add_argument("--eps", type=float, default=None, help="absolute termination threshold (overrides --eps-frac)")
    p.add_argument("--beta", type=float, default=20.0, help="log-sum-exp sharpness (default %(default)s)")
    p.add_argument("--replica-slots", type=int, default=2,
                   help="replica slots per GPU, home copies excluded (default %(default)s)")
    p.add_argument("--threads", type=int, default=0,
                   help="worker threads for independent solves; 0 = all cores (default %(default)s)")
    p.add_argument("--seed", type=int, default=0, help="master random seed (default %(default)s)")


def _threads(value: int) -> int:
    import os
    if value < 0:
        raise ValueError(f"threads must be >= 0 (0 = all cores), got {value}")
    return value or (os.cpu_count() or 1)


def _sim_configs(args) -> sim.SimConfigs:
    return sim.SimConfigs(
        anneal=ro.AnnealConfig(
            seeds=chain_seeds(args.seed, args.seeds),
            cooling_rate=args.cooling,
            termination_eps=args.eps,
            eps_frac=args.eps_frac,
            beta=args.beta,
        ),
        replica=rep.ReplicaConfig(slots_per_gpu=args.replica_slots),
        sample_locality=bool(args.sample_locality),
        threads=_threads(args.threads),
    )


def cmd_gen(args) -> int:
    hw = HardwareProfile(args.flops, args.bw_nvlink, args.bw_rdma, args.bytes_per_token)
    topo = build_topology(args.nodes, args.gpus_per_node, hw)
    model = rt.ModelProfile(
        num_layers=args.layers,
        num_experts=args.experts,
        top_k=args.top_k,
        hidden_size=args.hidden,
        intermediate_size=args.intermediate,
        expert_param_bytes=args.expert_param_bytes,
    )
    model.experts_per_gpu(topo)  # reject indivisible expert counts early
    spec = rt.TraceGenSpec(
        num_domains=args.domains,
        dirichlet_alpha=args.alpha,
        tokens_per_gpu=args.tokens_per_gpu,
        rng_seed=args.seed,
        domain_focus=args.focus,
        samples_per_gpu=args.samples_per_gpu,
    )
    trace = rt.generate_synthetic_trace(spec, model, topo, args.micro_batches)
    rt.save_trace(trace, args.out)

    summary = sim.trace_summary(trace)
    skews = np.concatenate(summary["skewness_raw"])
    inters = [r for per_layer in summary["intersection_ratio"] for r in per_layer]
    print(f"trace written to {args.out} (id {trace.trace_id()})")
    print(f"expert-level skewness: mean {skews.mean():.3f} min {skews.min():.3f} max {skews.max():.3f}")
    if inters:
        k = min(summary["hot_k"], model.num_experts)
        print(f"top-{k} adjacent intersection ratio: mean {np.mean(inters):.3f}")
    return 0


def cmd_solve(args) -> int:
    trace = rt.load_trace(args.trace)
    topo, model, hw = trace.topo, trace.model, trace.topo.profile
    if args.sample_locality and trace.samples is None:
        raise SystemExit("error: --sample-locality needs a trace with a sample table")
    cfgs = _sim_configs(args)

    bundle, _ = sim.build_policy_bundle(trace, "relibra", topo, model, hw, cfgs)
    plans, placement, replication = bundle.reorder, bundle.sample_placement, bundle.replication
    objectives: list[dict] = []
    for layer, plan in enumerate(plans):
        agg = rt.aggregate_batch(trace, layer)
        lpt = ro.lpt_initial(agg, topo)
        lpt_cost = cm.moe_time(cm.compute_loads(agg, lpt.assignment, topo), model, hw).t_moe
        est = cm.moe_time(cm.compute_loads(agg, plan.assignment, topo), model, hw, beta=args.beta)
        objectives.append({"exact": est.t_moe, "smoothed": est.t_moe_smoothed})
        print(f"layer {layer}: reorder objective {lpt_cost:.6g} (LPT) -> {est.t_moe:.6g} (annealed)")
    if placement is not None:
        moved = int((placement.source_gpu != trace.samples.source_gpu).sum())
        print(f"sample placement: {moved}/{trace.samples.num_samples} samples relocated")

    reorder_only = sim.evaluate_bundle(trace, sim.PlanBundle(plans, placement), topo, model, hw)
    replicated = sim.evaluate_bundle(trace, bundle, topo, model, hw)
    for (mb, layer), entry in replication.entries.items():
        entry.objective = float(replicated.entry_times[mb, layer])
    print(f"replication: batch objective {reorder_only.total_time:.6g} (reorder only) "
          f"-> {replicated.total_time:.6g}")

    config_echo = {
        "seeds": args.seeds, "cooling": args.cooling, "eps_frac": args.eps_frac,
        "eps": args.eps, "beta": args.beta, "replica_slots": args.replica_slots,
        "seed": args.seed, "sample_locality": bool(args.sample_locality),
    }
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    planio.save_reorder_plan(out / "reorder.json", trace.trace_id(), plans, objectives, placement, config_echo)
    planio.save_replication_plan(out / "replication.json", trace.trace_id(), replication)
    print(f"plans written to {out}")
    return 0


def cmd_simulate(args) -> int:
    trace = rt.load_trace(args.trace)
    topo, model, hw = trace.topo, trace.model, trace.topo.profile
    policies = []
    for name in args.policies.split(","):
        name = name.strip()
        if name not in POLICY_ALIASES:
            raise SystemExit(f"error: unknown policy {name!r}; choose from {', '.join(sorted(set(POLICY_ALIASES)))}")
        policies.append(POLICY_ALIASES[name])

    cfgs = _sim_configs(args)
    reports = []
    for policy in policies:
        if policy == "relibra" and args.plans:
            bundle = planio.load_plan_bundle(args.plans, trace)
            report = sim.evaluate_bundle(trace, bundle, topo, model, hw, policy="relibra")
        else:
            report = sim.run_baseline(trace, policy, topo, model, hw, cfgs)
        reports.append(report)
        print(f"{policy}: total MoE time {report.total_time:.6g} s, "
              f"mean rank skew {report.skew.mean():.3f}")

    payload = sim.write_reports(args.out, trace, reports)
    for row in payload["comparison"]["rows"]:
        speedup = row["speedup_vs_static"]
        speedup_txt = f"{speedup:.3f}x" if speedup else "n/a"
        print(f"  {row['policy']}: speedup vs static {speedup_txt}")
    print(f"report written to {args.out}")
    return 0


SERIES_CHOICES = ("comparison", "skewness", "times", "intersection", "loads")


def cmd_report(args) -> int:
    path = Path(args.report)
    if not path.is_file():
        raise SystemExit(f"error: missing report file {path}")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise SystemExit(f"error: malformed report: {err}")
    if "comparison" not in data or "policies" not in data:
        raise SystemExit("error: malformed report: missing comparison/policies sections")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    series = args.series.split(",") if args.series else ["comparison"]
    for name in series:
        name = name.strip()
        if name not in SERIES_CHOICES:
            raise SystemExit(f"error: unknown series {name!r}; choose from {', '.join(SERIES_CHOICES)}")
        try:
            rows = list(_series_rows(name, data))
        except KeyError as err:
            raise ValueError(f"malformed report {path}: missing key {err}") from None
        except (TypeError, AttributeError) as err:
            raise ValueError(f"malformed report {path}: {name} series: {err}") from None
        target = out / f"{name}.csv"
        with target.open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        print(f"wrote {target}")
    return 0


def _series_rows(name: str, data: dict):
    """Header and rows of one report series."""
    if name == "comparison":
        yield sim.SUMMARY_COLUMNS
        for row in data["comparison"]["rows"]:
            yield [row[c] if row[c] is not None else "" for c in sim.SUMMARY_COLUMNS]
    elif name == "skewness":
        yield ["policy", "micro_batch", "layer", "skewness"]
        for policy, body in data["policies"].items():
            for mb, per_layer in enumerate(body["skew"]):
                for layer, value in enumerate(per_layer):
                    yield [policy, mb, layer, value]
    elif name == "times":
        yield ["policy", "micro_batch", "time_s"]
        for policy, body in data["policies"].items():
            for mb, value in enumerate(body["mb_times"]):
                yield [policy, mb, value]
    elif name == "intersection":
        yield ["layer", "pair_index", "ratio"]
        for layer, ratios in enumerate(data["trace_summary"]["intersection_ratio"]):
            for pair, value in enumerate(ratios):
                yield [layer, pair, value]
    elif name == "loads":
        yield ["layer", "micro_batch", "expert", "share"]
        for layer, per_mb in enumerate(data["trace_summary"]["expert_load_share"]):
            for mb, shares in enumerate(per_mb):
                for expert, share in enumerate(shares):
                    yield [layer, mb, expert, share]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="moebalance",
        description="Trace-driven planner and simulator for expert-parallel MoE load balancing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic routing trace")
    p.add_argument("--out", required=True, help="trace output directory")
    p.add_argument("--nodes", type=int, default=2)
    p.add_argument("--gpus-per-node", type=int, default=4)
    p.add_argument("--experts", type=int, default=64)
    p.add_argument("--layers", type=int, default=1)
    p.add_argument("--micro-batches", type=int, default=8)
    p.add_argument("--top-k", type=int, default=8)
    p.add_argument("--tokens-per-gpu", type=int, default=1024)
    p.add_argument("--domains", type=int, default=3)
    p.add_argument("--alpha", type=float, default=0.5, help="Dirichlet concentration per domain")
    p.add_argument("--focus", type=float, default=0.0,
                   help="fraction of each domain's mass biased to its expert block")
    p.add_argument("--samples-per-gpu", type=int, default=0,
                   help="emit a sample table with this many samples per GPU per micro-batch")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--hidden", type=int, default=rt.DEFAULT_HIDDEN_SIZE)
    p.add_argument("--intermediate", type=int, default=rt.DEFAULT_INTERMEDIATE_SIZE)
    p.add_argument("--expert-param-bytes", type=int, default=None)
    _add_hardware_flags(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="compute reorder + replication plans for a trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--out", required=True, help="plan output directory")
    p.add_argument("--sample-locality", action="store_true",
                   help="run the sample-placement pass (needs a sample table)")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("simulate", help="evaluate policies over a trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--out", required=True, help="report output directory")
    p.add_argument("--policies", default="static,relibra",
                   help="comma list: static,lpt,eplb,lplb,balanced,relibra")
    p.add_argument("--plans", default=None,
                   help="solve output directory (used for the relibra policy)")
    p.add_argument("--sample-locality", action="store_true")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("report", help="flatten a report.json into plot-ready CSV")
    p.add_argument("--report", required=True, help="path to report.json")
    p.add_argument("--out", required=True, help="CSV output directory")
    p.add_argument("--series", default="comparison",
                   help=f"comma list from: {', '.join(SERIES_CHOICES)}")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except (ValueError, OSError, LPError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
