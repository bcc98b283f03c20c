"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s`. The heavyweight trace
study (criteria 6/7) builds its traces once per session.
"""

import itertools
import math
import time

import numpy as np
import pytest

from moebalance import costmodel as cm
from moebalance import replicate as rep
from moebalance import reorder as ro
from moebalance import routing as rt
from moebalance import sim
from moebalance.topology import HardwareProfile, TrafficClass, build_topology

from oracles import exact_milp_small, split_table


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\n[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


# ---------------------------------------------------------------------------
# criterion 1: annealed reordering vs exhaustive search


def brute_force_times(x, plans, topo, comp_unit, link_units):
    """Exact MoE times for every plan, derived straight from the traffic rules."""
    g = topo.num_gpus
    num_plans, num_experts = plans.shape
    onehot = np.zeros((num_plans, num_experts, g))
    onehot[np.arange(num_plans)[:, None], np.arange(num_experts)[None, :], plans] = 1.0
    flow = np.einsum("je,peg->pjg", x, onehot)

    cls = topo.class_matrix
    nv = (cls == TrafficClass.NV).astype(float)
    sr = (cls == TrafficClass.SR).astype(float)
    cr = (cls == TrafficClass.CR).astype(float)
    relay_hot = np.zeros((g, g, g))  # [j, g, relay]
    for j in range(g):
        for d in range(g):
            relay_hot[j, d, topo.relay_matrix[j, d]] = 1.0

    def one_way(f):
        nvtx = (f * nv).sum(axis=2) + (f * cr).sum(axis=2)
        nvrx = (f * nv).sum(axis=1)
        rdtx = (f * sr).sum(axis=2)
        rdrx = (f * sr).sum(axis=1) + (f * cr).sum(axis=1)
        relay = np.einsum("pjg,jgk->pk", f * cr, relay_hot)
        return nvtx, nvrx + relay, rdtx + relay, rdrx

    a = one_way(flow)
    b = one_way(flow.transpose(0, 2, 1))
    comm_rows = np.stack([a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]], axis=1)  # (P, 4, G)
    comp = flow.sum(axis=1) * comp_unit
    comm = comm_rows * link_units[None, :, None]
    return comp.max(axis=1) + comm.max(axis=(1, 2))


def all_capacity_plans(num_experts, g):
    pool = tuple(gpu for gpu in range(g) for _ in range(num_experts // g))
    return np.array(sorted(set(itertools.permutations(pool))))


def test_criterion_1_reorder_matches_exhaustive_optimum():
    rng = np.random.default_rng(1001)
    topo_shapes = [(2, 2), (1, 4), (2, 2)]
    plans_cache = {}
    cfg = ro.AnnealConfig(seeds=(0, 1, 2, 3), cooling_rate=0.97)
    hits = 0
    trials = 200
    start = time.time()
    for trial in range(trials):
        nodes, gpn = topo_shapes[trial % len(topo_shapes)]
        g = nodes * gpn
        num_experts = g * int(rng.integers(1, 3))  # up to 8 experts
        hw = HardwareProfile(6.0, float(rng.uniform(20, 200)), float(rng.uniform(5, 60)), 1.0)
        topo = build_topology(nodes, gpn, hw)
        model = rt.ModelProfile(1, num_experts, 1, hidden_size=1, intermediate_size=1)
        x = rng.integers(0, 30, size=(g, num_experts)).astype(float)
        if x.sum() == 0:
            x[0, 0] = 1.0

        key = (num_experts, g)
        if key not in plans_cache:
            plans_cache[key] = all_capacity_plans(num_experts, g)
        plans = plans_cache[key]
        comp_unit = 6.0 * model.hidden_size * model.intermediate_size / hw.flops_per_gpu
        link_units = np.array([1 / hw.bw_nvlink, 1 / hw.bw_nvlink, 1 / hw.bw_rdma, 1 / hw.bw_rdma])
        best = brute_force_times(x, plans, topo, comp_unit, link_units).min()

        plan = ro.anneal_reorder(x, topo, model, hw, cfg)
        got = cm.moe_time(cm.compute_loads(x, plan.assignment, topo), model, hw).t_moe
        assert got >= best - 1e-9  # the oracle really is a lower bound
        if got <= best * 1.01 + 1e-12:
            hits += 1
    elapsed = time.time() - start
    ok = hits >= int(0.99 * trials) and elapsed < 10.0
    report("criterion 1 (reorder vs exhaustive)", ok,
           f"{hits}/{trials} within 1%, {elapsed:.1f}s < 10s")


# ---------------------------------------------------------------------------
# criterion 2: greedy replication vs exact enumeration


def small_replication_instance(rng):
    shape = ["1x2", "1x3", "2x2", "2x2", "1x4"][int(rng.integers(0, 5))]
    nodes, gpn = {"1x2": (1, 2), "1x3": (1, 3), "2x2": (2, 2), "1x4": (1, 4)}[shape]
    g = nodes * gpn
    num_experts = min(g * int(rng.integers(1, 3)), 4)
    num_experts = max(num_experts - num_experts % g, g) if num_experts % g else num_experts
    hw = HardwareProfile(6.0, float(rng.uniform(20, 200)), float(rng.uniform(5, 60)), 1.0)
    topo = build_topology(nodes, gpn, hw)
    model = rt.ModelProfile(1, num_experts, 1, hidden_size=1, intermediate_size=1)
    x = rng.integers(0, 30, size=(g, num_experts)).astype(float)
    if x.sum() == 0:
        x[0, 0] = 1.0
    return x, ro.lpt_initial(x, topo), topo, model, hw


def exact_obj(x, placement, split, topo, model, hw):
    loads = cm.compute_loads(x, placement.home, topo, split=split)
    return cm.moe_time(loads, model, hw).t_moe


def test_criterion_2_greedy_replication_near_oracle():
    rng = np.random.default_rng(2002)
    cfg = rep.ReplicaConfig(1)
    trials = 200
    close = 0
    start = time.time()
    for _ in range(trials):
        x, plan, topo, model, hw = small_replication_instance(rng)
        home_only = exact_obj(x, rep.ReplicaPlacement(home=plan.assignment), rep.SplitPlan(),
                              topo, model, hw)
        p_g, s_g = rep.greedy_replicate(x, plan, topo, model, hw, cfg)
        got = exact_obj(x, p_g, s_g, topo, model, hw)
        assert got <= home_only * (1 + 1e-9)  # never worse than home-only
        p_o, s_o = exact_milp_small(x, plan, topo, model, hw, cfg)
        best = exact_obj(x, p_o, s_o, topo, model, hw)
        assert got >= best - 1e-9 * max(best, 1.0)
        if got <= best * 1.05 + 1e-12:
            close += 1
    elapsed = time.time() - start
    ok = close >= int(0.95 * trials) and elapsed < 30.0
    report("criterion 2 (greedy replication vs oracle)", ok,
           f"{close}/{trials} within 5%, {elapsed:.1f}s < 30s")


# ---------------------------------------------------------------------------
# criterion 3: incremental swap updates vs recomputation


def test_criterion_3_incremental_update_fidelity():
    rng = np.random.default_rng(3003)
    mismatches = 0
    checks = 0
    total_swaps = 0
    for _ in range(4):
        hw = HardwareProfile(6.0, float(rng.uniform(20, 200)), float(rng.uniform(5, 60)), 1.0)
        topo = build_topology(2, 2, hw)
        num_experts = 16
        model = rt.ModelProfile(1, num_experts, 1, hidden_size=1, intermediate_size=1)
        x = rng.integers(0, 50, size=(4, num_experts)).astype(float)
        state = ro.AnnealState(x, ro.lpt_initial(x, topo).assignment, topo, model, hw)
        for i in range(25_000):
            e_a, e_b = rng.integers(0, num_experts, size=2)
            state.apply_swap(int(e_a), int(e_b))
            total_swaps += 1
            # integer token counts: incremental loads stay exactly the recomputed ones
            if (i + 1) % 5000 == 0:
                checks += 1
                if not np.array_equal(state.loads5, cm.compute_loads(x, state.assignment, topo)):
                    mismatches += 1
    ok = mismatches == 0 and total_swaps >= 100_000
    report("criterion 3 (incremental update fidelity)", ok,
           f"{total_swaps} swaps, {checks} checks, {mismatches} mismatches")


# ---------------------------------------------------------------------------
# criterion 4: log-sum-exp bound


def test_criterion_4_lse_bound():
    rng = np.random.default_rng(4004)
    betas = (1.0, 20.0, 1e6)
    violations = 0
    loose = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 65))
        values = rng.uniform(0.1, 10.0, size=n)
        top = values.max()
        for beta in betas:
            got = cm.lse(values, beta)
            if not (top - 1e-12 <= got <= top + math.log(n) / beta + 1e-12):
                violations += 1
            if beta == 1e6 and abs(got - top) >= 1e-4 * top:
                loose += 1
    ok = violations == 0 and loose == 0
    report("criterion 4 (LSE bound)", ok,
           f"10000 vectors x {len(betas)} betas, {violations} bound violations, {loose} loose at beta=1e6")


# ---------------------------------------------------------------------------
# criterion 5: split LP vs fine grid search


def grid_objective_builder(x, home, replicated, copy_gpu, source, topo, model, hw):
    """Linear expressions T(y) via two independent cost-model evaluations."""
    def rows_of(y):
        g = topo.num_gpus
        frac = np.zeros((g, 2))
        frac[:, 0] = 1.0
        frac[source] = [1.0 - y, y]
        split = split_table({replicated: (np.array([int(home[replicated]), copy_gpu]), frac)})
        loads = cm.compute_loads(x, home, topo, split=split)
        return cm.TimeUnits.of(model, hw, topo.num_gpus).times(loads).ravel()

    g = topo.num_gpus
    base = rows_of(0.0)
    delta = rows_of(1.0) - base

    def evaluate(ys):
        rows = base[None, :] + np.outer(ys, delta)
        return rows[:, :g].max(axis=1) + rows[:, g:].max(axis=1)

    return evaluate


def grid_minimum(evaluate):
    ys = np.linspace(0.0, 1.0, 1001)
    values = evaluate(ys)
    center = float(ys[int(values.argmin())])
    lo, hi = max(center - 2e-3, 0.0), min(center + 2e-3, 1.0)
    ys = np.arange(lo, hi + 5e-7, 1e-6)
    return float(evaluate(ys).min())


def test_criterion_5_split_lp_matches_grid():
    rng = np.random.default_rng(5005)
    trials = 100
    worst = 0.0
    for trial in range(trials):
        nodes, gpn = (1, 2) if trial % 2 == 0 else (2, 2)
        g = nodes * gpn
        hw = HardwareProfile(6.0, float(rng.uniform(20, 200)), float(rng.uniform(5, 60)), 1.0)
        topo = build_topology(nodes, gpn, hw)
        num_experts = g
        model = rt.ModelProfile(1, num_experts, 1, hidden_size=1, intermediate_size=1)
        x = rng.integers(0, 30, size=(g, num_experts)).astype(float)
        replicated = 0
        source = int(rng.integers(0, g))
        x[:, replicated] = 0.0
        x[source, replicated] = float(rng.integers(5, 40))
        home = ro.lpt_initial(x, topo).assignment
        cands = rep.candidate_gpus(replicated, home, topo)
        copy_gpu = int(cands[int(rng.integers(0, len(cands)))])

        placement = rep.ReplicaPlacement(home=home, replicas={replicated: [copy_gpu]})
        split = rep.solve_token_split_lp(x, placement, topo, model, hw)
        rep.validate_split(split, placement, x)  # Eq. 8/9 residuals
        lp_obj = exact_obj(x, placement, split, topo, model, hw)

        evaluate = grid_objective_builder(x, home, replicated, copy_gpu, source, topo, model, hw)
        grid_obj = grid_minimum(evaluate)
        rel = abs(lp_obj - grid_obj) / max(grid_obj, 1e-12)
        worst = max(worst, rel)
    ok = worst < 1e-4
    report("criterion 5 (split LP vs grid oracle)", ok,
           f"{trials} single-source instances, worst relative gap {worst:.2e} < 1e-4")


# ---------------------------------------------------------------------------
# criteria 6-8: trace study at simulation scale


EP_SIZES = (8, 16, 32, 64)


def study_trace(ep: int, seed: int = 11):
    nodes = max(ep // 8, 1)
    hw = HardwareProfile(2.577e10, 4.5e5, 2.5e4, 1.0)
    topo = build_topology(nodes, min(ep, 8), hw)
    model = rt.ModelProfile(num_layers=1, num_experts=128, top_k=8)
    spec = rt.TraceGenSpec(num_domains=3, dirichlet_alpha=4096.0, tokens_per_gpu=1024,
                           rng_seed=seed, domain_focus=0.82, redraw_concentration=64.0)
    trace = rt.generate_synthetic_trace(spec, model, topo, 32)
    return trace, topo, model, hw


def study_cfgs():
    # one replica slot per GPU: the 32-64 slots cannot cover the churning
    # 64-expert hot set, so fixed batch-level plans must leave gaps that
    # only per-micro-batch planning can close
    return sim.SimConfigs(
        anneal=ro.AnnealConfig(seeds=tuple(range(8)), cooling_rate=0.9995),
        replica=rep.ReplicaConfig(1),
        threads=2,
    )


@pytest.fixture(scope="session")
def trace_study():
    results = {}
    cfgs = study_cfgs()
    start = time.time()
    for ep in EP_SIZES:
        trace, topo, model, hw = study_trace(ep)
        raw = [rt.skewness(row) for row in trace.matrices[:, 0].astype(np.int64).sum(axis=1)]
        static = sim.run_baseline(trace, "static", topo, model, hw, cfgs)
        relibra = sim.run_baseline(trace, "relibra", topo, model, hw, cfgs)
        results[ep] = {
            "trace": trace, "topo": topo, "model": model, "hw": hw,
            "raw_mean": float(np.mean(raw)),
            "static": static, "relibra": relibra,
        }
    results["elapsed"] = time.time() - start
    return results


def test_criterion_6_skewness_reproduction(trace_study):
    lines = []
    ok = trace_study["elapsed"] < 300.0
    for ep in EP_SIZES:
        entry = trace_study[ep]
        rel_skew = float(entry["relibra"].skew.mean())
        static_skew = float(entry["static"].skew.mean())
        lines.append(f"EP{ep}: raw={entry['raw_mean']:.2f} static={static_skew:.2f} relibra={rel_skew:.3f}")
        ok &= 2.0 <= entry["raw_mean"] <= 4.0
        ok &= static_skew >= 1.5
        ok &= rel_skew <= 1.10
    report("criterion 6 (skewness reproduction)", ok,
           "; ".join(lines) + f"; total {trace_study['elapsed']:.0f}s < 300s")


def test_criterion_7_ordering_reproduction(trace_study):
    entry = trace_study[32]
    trace, topo, model, hw = entry["trace"], entry["topo"], entry["model"], entry["hw"]
    cfgs = study_cfgs()
    totals = {
        "static": entry["static"].total_time,
        "relibra": entry["relibra"].total_time,
    }
    for policy in ("lpt_only", "eplb_like", "lplb_like", "balanced_oracle"):
        totals[policy] = sim.run_baseline(trace, policy, topo, model, hw, cfgs).total_time
    speedup = totals["static"] / totals["relibra"]
    vs_balanced = totals["relibra"] / totals["balanced_oracle"]
    ok = (
        totals["relibra"] < totals["lplb_like"]
        and totals["relibra"] < totals["eplb_like"]
        and max(totals["lplb_like"], totals["eplb_like"]) < totals["lpt_only"]
        and totals["lpt_only"] < totals["static"]
        and speedup >= 1.2
        and vs_balanced <= 1.10
    )
    detail = (" < ".join(f"{p}={totals[p]:.2f}" for p in
                         ("relibra", "lplb_like", "eplb_like", "lpt_only", "static"))
              + f"; speedup={speedup:.2f} >= 1.2; relibra/balanced={vs_balanced:.3f} <= 1.10")
    report("criterion 7 (ordering reproduction)", ok, detail)


def test_criterion_8_adversarial_fixed_plan_gap():
    hw = HardwareProfile(6e6, 5e3, 1e3, 1.0)
    topo = build_topology(1, 2, hw)
    model = rt.ModelProfile(num_layers=1, num_experts=4, top_k=1,
                            hidden_size=32, intermediate_size=16)
    mbs = 8
    matrices = np.zeros((mbs, 1, 2, 4), dtype=np.uint32)
    for mb in range(mbs):
        matrices[mb, 0, :, :] = 4
        matrices[mb, 0, :, mb % 4] = 100  # the hot expert rotates every micro-batch
    trace = rt.RoutingTrace(model=model, topo=topo, matrices=matrices, tokens_per_gpu=0)
    cfgs = sim.SimConfigs(anneal=ro.AnnealConfig(seeds=(0, 1), cooling_rate=0.98),
                          replica=rep.ReplicaConfig(1))
    t_eplb = sim.run_baseline(trace, "eplb_like", topo, model, hw, cfgs).total_time
    t_rel = sim.run_baseline(trace, "relibra", topo, model, hw, cfgs).total_time
    gap = 1.0 - t_rel / t_eplb
    ok = gap >= 0.10
    report("criterion 8 (adversarial fixed-plan gap)", ok,
           f"relibra {t_rel:.3f} vs eplb {t_eplb:.3f}, gap {gap:.1%} >= 10%")


# ---------------------------------------------------------------------------
# criterion 9: generator calibration


def test_criterion_9_generator_calibration():
    hw = HardwareProfile(1e12, 1e9, 1e8, 1.0)
    topo = build_topology(2, 4, hw)
    model = rt.ModelProfile(num_layers=1, num_experts=128, top_k=8)

    mixed_means = []
    for seed in (0, 1, 2):
        spec = rt.TraceGenSpec(num_domains=3, dirichlet_alpha=0.1, tokens_per_gpu=512, rng_seed=seed)
        trace = rt.generate_synthetic_trace(spec, model, topo, 16)
        mixed_means.append(float(rt.hot_expert_intersection(trace, 0, 8).mean()))

    single_means = []
    for seed in (0, 1, 2):
        spec = rt.TraceGenSpec(num_domains=1, dirichlet_alpha=4.0, tokens_per_gpu=512, rng_seed=seed)
        trace = rt.generate_synthetic_trace(spec, model, topo, 16)
        single_means.append(float(rt.hot_expert_intersection(trace, 0, 8).mean()))

    ok = all(v < 0.5 for v in mixed_means) and all(v > 0.7 for v in single_means)
    report("criterion 9 (generator calibration)", ok,
           f"mixed top-8 intersection {['%.2f' % v for v in mixed_means]} < 0.5; "
           f"single-domain {['%.2f' % v for v in single_means]} > 0.7")


# ---------------------------------------------------------------------------
# criterion 10: replica memory accounting


def test_criterion_10_memory_accounting():
    ok = True
    checked = 0
    for layers in (1, 2, 16, 48, 94):
        for r in (1, 2, 4):
            model = rt.ModelProfile(num_layers=layers, num_experts=8, top_k=1,
                                    expert_param_bytes=3 * 2 * 1024 * 512)
            shared = rep.replica_memory(model, rep.ReplicaConfig(r), "layer-shared")
            per_layer = rep.replica_memory(model, rep.ReplicaConfig(r), "per-layer")
            checked += 1
            if shared * layers != per_layer:
                ok = False
    report("criterion 10 (replica memory accounting)", ok,
           f"{checked} (L, r) pairs with layer-shared/per-layer = 1/L exactly")
