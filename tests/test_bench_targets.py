"""The benchmark calls the program by name; keep what it calls in place.

`benchmarks/tracer.py` replaces every `TARGETS` entry through
`owner.__dict__[attr]`, reads `DenseSimplex._pivots` and `tab.size` after
each solve, and unpacks the `(tasks, threads)` arguments of
`sim.solve_tasks`; `benchmarks/perlayer.py` then derives every per-layer
metric from the spans and the written plans. Outside the traced targets, `benchmarks/run.py` builds
the `lplb_like` bundle itself for its reference check, and
`benchmarks/perlayer.py` scores LPT plans per layer. A rename would make a
benchmark run fail only after minutes of work; these checks fail at once.
"""

import dataclasses
import importlib
import importlib.util
import math
from pathlib import Path

import pytest

from moebalance import cli
from moebalance import reorder as ro
from moebalance import replicate as rep
from moebalance import routing as rt
from moebalance import sim
from moebalance.lp import DenseSimplex
from moebalance.topology import HardwareProfile, build_topology

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"
TRACER = BENCH / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def bench_module(monkeypatch):
    """Import a benchmark module the way the harness does, by bare name."""
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module


def small_trace():
    topo = build_topology(2, 2, HardwareProfile(2.577e10, 4.5e5, 2.5e4, 1.0))
    model = rt.ModelProfile(num_layers=1, num_experts=8, top_k=2)
    spec = rt.TraceGenSpec(num_domains=2, dirichlet_alpha=0.4, tokens_per_gpu=64, rng_seed=1)
    return rt.generate_synthetic_trace(spec, model, topo, 2)


def test_every_target_resolves():
    tracer = load_tracer()
    missing = []
    for module_name, path in tracer.TARGETS:
        owner = importlib.import_module(f"moebalance.{module_name}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if attr not in getattr(owner, "__dict__", {}):
            missing.append(f"{module_name}.{path}")
    assert missing == []


def test_solve_hook_reads_pivots_and_tableau():
    tracer = load_tracer()
    solver = DenseSimplex([-1.0, -1.0], [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [3.0, 2.0, 4.0])
    args, before = tracer._pivots_before(None, 0, (solver,))
    solver.solve()
    pivots, cells = tracer._pivots_after(args, before)
    assert pivots == solver._pivots > 0
    assert cells == solver.tab.size == 3 * 5


def test_lplb_reference_check_calls(bench_module):
    refeval = bench_module("refeval")
    trace = small_trace()
    cfgs = sim.SimConfigs(replica=rep.ReplicaConfig(1), threads=2)
    bundle, _ = sim.build_policy_bundle(trace, "lplb_like", trace.topo, trace.model, trace.topo.profile, cfgs)
    assert bundle.replication.entries
    got = sim.evaluate_bundle(trace, bundle, trace.topo, trace.model, trace.topo.profile).entry_times
    assert refeval.max_rel_diff(refeval.bundle_entry_times(trace, bundle), got.tolist()) <= 1e-9


def test_reference_check_reads_splits_of_many_copies(bench_module):
    # lplb_like's splits have 2 copies; eplb_like's uniform splits and
    # relibra's LP splits reach 4, on 2x4 GPUs with 2 slots each
    refeval = bench_module("refeval")
    topo = build_topology(2, 4, HardwareProfile(2.577e10, 4.5e5, 2.5e4, 1.0))
    model = rt.ModelProfile(num_layers=2, num_experts=16, top_k=2)
    spec = rt.TraceGenSpec(num_domains=2, dirichlet_alpha=0.4, tokens_per_gpu=64, rng_seed=1)
    trace = rt.generate_synthetic_trace(spec, model, topo, 2)
    cfgs = sim.SimConfigs(anneal=ro.AnnealConfig(seeds=(0,)), replica=rep.ReplicaConfig(2))
    for policy in ("eplb_like", "relibra"):
        bundle, _ = sim.build_policy_bundle(trace, policy, topo, model, topo.profile, cfgs)
        copies = [frac.shape[1] for entry in bundle.replication.entries.values()
                  for frac in entry.split.fractions.values()]
        assert max(copies) > 2, policy
        got = sim.evaluate_bundle(trace, bundle, topo, model, topo.profile).entry_times
        assert refeval.max_rel_diff(refeval.bundle_entry_times(trace, bundle), got.tolist()) <= 1e-9, policy


def test_layer_quality_calls(bench_module):
    perlayer = bench_module("perlayer")
    trace = small_trace()
    lpt = ro.lpt_initial(rt.aggregate_batch(trace, 0), trace.topo).assignment.tolist()
    assert perlayer.layer_quality(trace, {"plans": [lpt]}) == [1.0]


def test_tasks_hook_unpacks_solve_tasks_calls():
    tracer = load_tracer().Tracer()
    trace = small_trace()
    cfgs = sim.SimConfigs(anneal=ro.AnnealConfig(seeds=(0,), cooling_rate=0.9),
                          replica=rep.ReplicaConfig(1), threads=2)
    tracer.install()
    try:
        for policy in ("lplb_like", "relibra"):
            sim.build_policy_bundle(trace, policy, trace.topo, trace.model, trace.topo.profile, cfgs)
    finally:
        tracer.uninstall()
    pools = {span[0]: span for span in tracer.spans if span[1] == "sim.solve_tasks"}
    assert len(pools) == 2 and all(span[6] == 2 for span in pools.values())
    # the tasks ran on the pool's worker threads, under the pool's span
    for name in ("replicate.solve_token_split_lp", "replicate.greedy_replicate"):
        assert any(span[1] == name and span[4] in pools for span in tracer.spans)


def test_traced_run_yields_every_metric(tmp_path, bench_module):
    # the benchmark's traced path end to end: gen, solve with the sample pass
    # and one replica slot, and simulate --plans, each inside its bench span
    tracer_module = bench_module("tracer")
    perlayer = bench_module("perlayer")
    workload = dataclasses.replace(bench_module("workloads").WORKLOADS["locality-ep32x2"], replica_slots=1)
    trace_dir, plans, report = tmp_path / "trace", tmp_path / "plans", tmp_path / "report"
    gen = ["gen", "--out", str(trace_dir), "--nodes", "2", "--gpus-per-node", "2", "--experts", "8",
           "--layers", "2", "--micro-batches", "2", "--top-k", "2", "--tokens-per-gpu", "32",
           "--samples-per-gpu", "2", "--seed", "3", "--flops", "4e6", "--bw-nvlink", "5e3", "--bw-rdma", "1e3"]
    solve = ["solve", "--trace", str(trace_dir), "--out", str(plans), "--sample-locality",
             "--replica-slots", "1", "--seeds", "2", "--cooling", "0.9"]
    simulate = ["simulate", "--trace", str(trace_dir), "--plans", str(plans), "--out", str(report),
                "--replica-slots", "1", "--policies", "static,lpt,eplb,lplb,balanced,relibra"]
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for phase, argv in (("bench.setup", gen), ("bench.solve", solve), ("bench.simulate", simulate)):
            assert tracer.span(phase, cli.main, argv) == 0
    finally:
        tracer.uninstall()
    metrics, _ = perlayer.compute(tracer.spans, trace=rt.load_trace(trace_dir), workload=workload, plans=plans,
                                  report=report, trace_dir=trace_dir, untraced={"solve_s": 0.0, "simulate_s": 0.0})
    assert sorted(metrics) == sorted(name for name, _, _ in perlayer.METRICS)
    assert [name for name, value in metrics.items() if not math.isfinite(value)] == []
    assert 0.0 <= metrics["reorder.sample_moved_frac"] <= 1.0
    assert metrics["lp.solves"] > 0 and metrics["reorder.sample_pass_s"] > 0


def test_workload_command_lines_parse(bench_module):
    # the flags the benchmark passes, parsed as the CLI parses them; nothing runs
    workloads = bench_module("workloads")
    parser = cli.build_parser()
    for workload in workloads.WORKLOADS.values():
        if workload.gen_args is not None:
            parser.parse_args(["gen", "--out", "trace", "--seed", "0", *workload.gen_args])
        parser.parse_args(["solve", "--trace", "trace", "--out", "plans", *workload.solve_args])
        parser.parse_args(["simulate", "--trace", "trace", "--plans", "plans", "--out", "report",
                           *workload.simulate_args()])
    names = workloads.POLICIES.split(",")
    assert set(names) <= set(cli.POLICY_ALIASES)
    assert tuple(cli.POLICY_ALIASES[name] for name in names) == workloads.POLICY_NAMES
