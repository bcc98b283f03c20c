import numpy as np
import pytest

from moebalance import costmodel as cm
from moebalance import replicate as rep
from moebalance import reorder as ro
from moebalance import routing as rt
from moebalance import sim
from moebalance.topology import COMP, HardwareProfile, build_topology

HW = HardwareProfile(6e6, 5e3, 1e3, 1.0)


def fluctuating_trace(mbs=6, experts=16, seed=3, tokens=256, samples_per_gpu=0):
    topo = build_topology(2, 2, HW)
    model = rt.ModelProfile(num_layers=1, num_experts=experts, top_k=4,
                            hidden_size=32, intermediate_size=16)
    spec = rt.TraceGenSpec(num_domains=3, dirichlet_alpha=0.4, tokens_per_gpu=tokens,
                           rng_seed=seed, domain_focus=0.5, samples_per_gpu=samples_per_gpu)
    return rt.generate_synthetic_trace(spec, model, topo, mbs), topo, model, HW


def fast_cfgs(threads=1):
    return sim.SimConfigs(
        anneal=ro.AnnealConfig(seeds=(0, 1), cooling_rate=0.98),
        replica=rep.ReplicaConfig(2),
        threads=threads,
    )


class TestEvaluateBundle:
    def test_home_only_matches_reorder_only(self):
        trace, topo, model, hw = fluctuating_trace()
        plans = [ro.lpt_initial(rt.aggregate_batch(trace, 0), topo)]
        bundle = sim.PlanBundle(reorder=plans)
        report = sim.evaluate_bundle(trace, bundle, topo, model, hw)
        for mb in range(trace.num_micro_batches):
            loads = cm.compute_loads(trace.matrices[mb, 0].astype(float), plans[0].assignment, topo)
            expected = cm.moe_time(loads, model, hw).t_moe
            assert report.entry_times[mb, 0] == pytest.approx(expected, rel=1e-12)

    def test_single_entry_totals(self):
        trace, topo, model, hw = fluctuating_trace(mbs=1)
        bundle = sim.PlanBundle(reorder=[ro.static_plan(model.num_experts, topo)])
        report = sim.evaluate_bundle(trace, bundle, topo, model, hw)
        assert report.total_time == pytest.approx(report.entry_times[0, 0])

    def test_total_matches_entry_sum(self):
        trace, topo, model, hw = fluctuating_trace()
        report = sim.run_baseline(trace, "relibra", topo, model, hw, fast_cfgs())
        assert report.total_time == pytest.approx(report.entry_times.sum(), rel=1e-12)
        assert report.mb_times().sum() == pytest.approx(report.total_time, rel=1e-12)

    def test_mismatched_plan_rejected(self):
        trace, topo, model, hw = fluctuating_trace()
        plans = [ro.static_plan(model.num_experts, topo)]
        foreign = rep.ReplicaPlacement(home=ro.lpt_initial(rt.aggregate_batch(trace, 0), topo).assignment)
        bundle = sim.PlanBundle(reorder=plans, replication=rep.ReplicationPlan(
            entries={(0, 0): rep.ReplicationEntry(foreign, rep.SplitPlan(), 0.0)}))
        if np.array_equal(foreign.home, plans[0].assignment):
            pytest.skip("plans coincide on this trace")
        with pytest.raises(ValueError, match="different expert plan"):
            sim.evaluate_bundle(trace, bundle, topo, model, hw)

    def test_wrong_layer_count_rejected(self):
        trace, topo, model, hw = fluctuating_trace()
        bundle = sim.PlanBundle(reorder=[])
        with pytest.raises(ValueError, match="layer"):
            sim.evaluate_bundle(trace, bundle, topo, model, hw)

    @pytest.mark.parametrize("mutate,expected", [
        ("negative", r"sample placement holds a GPU id outside \[0, 4\)"),
        ("short", "sample placement has 47 entries, the trace has 48 samples"),
    ])
    def test_bad_sample_placement_rejected(self, mutate, expected):
        trace, topo, model, hw = fluctuating_trace(samples_per_gpu=2)
        gpus = trace.samples.source_gpu.astype(np.int64)
        gpus = np.concatenate([[-1], gpus[1:]]) if mutate == "negative" else gpus[:-1]
        bundle = sim.PlanBundle(reorder=[ro.static_plan(model.num_experts, topo)],
                                sample_placement=ro.SamplePlacement(gpus))
        with pytest.raises(ValueError, match=expected):
            sim.evaluate_bundle(trace, bundle, topo, model, hw)


class TestBaselines:
    def test_every_policy_conserves_tokens(self):
        trace, topo, model, hw = fluctuating_trace()
        cfgs = fast_cfgs()
        expected = trace.matrices.astype(np.int64)[:, 0].sum(axis=(1, 2))
        for policy in sim.POLICIES:
            bundle, scored = sim.build_policy_bundle(trace, policy, topo, model, hw, cfgs)
            matrices = sim.scored_matrices(scored, bundle.sample_placement)
            got = []
            for mb in range(trace.num_micro_batches):
                entry = bundle.replication.entries.get((mb, 0))
                splits = entry.split.to_split_map(entry.placement) if entry is not None else None
                loads = cm.compute_loads(matrices[mb, 0], bundle.reorder[0].assignment, topo, splits=splits)
                got.append(loads[COMP].sum())
            np.testing.assert_allclose(got, expected, rtol=1e-9)

    def test_balanced_oracle_near_unit_skew(self):
        trace, topo, model, hw = fluctuating_trace(tokens=512)
        report = sim.run_baseline(trace, "balanced_oracle", topo, model, hw, fast_cfgs())
        assert report.skew.max() <= 1.0 + 1e-9  # row sums divide the expert count here

    def test_uniform_trace_all_policies_tie(self):
        topo = build_topology(2, 2, HW)
        model = rt.ModelProfile(num_layers=1, num_experts=8, top_k=2,
                                hidden_size=32, intermediate_size=16)
        matrices = np.full((3, 1, 4, 8), 13, dtype=np.uint32)
        trace = rt.RoutingTrace(model=model, topo=topo, matrices=matrices, tokens_per_gpu=52)
        cfgs = fast_cfgs()
        totals = [sim.run_baseline(trace, p, topo, model, hw=HW, cfgs=cfgs).total_time
                  for p in sim.POLICIES]
        assert max(totals) <= min(totals) * (1 + 1e-9)

    def test_balanced_is_lower_bound_when_comm_free(self):
        # comp-dominated regime: enormous bandwidths zero out the comm term
        free = HardwareProfile(6e6, 1e18, 1e18, 1.0)
        topo = build_topology(2, 2, free)
        model = rt.ModelProfile(num_layers=1, num_experts=16, top_k=4,
                                hidden_size=32, intermediate_size=16)
        spec = rt.TraceGenSpec(num_domains=3, dirichlet_alpha=0.4, tokens_per_gpu=256,
                               rng_seed=3, domain_focus=0.5)
        trace = rt.generate_synthetic_trace(spec, model, topo, 6)
        cfgs = fast_cfgs()
        totals = {p: sim.run_baseline(trace, p, topo, model, free, cfgs).total_time
                  for p in sim.POLICIES}
        floor = totals["balanced_oracle"]
        for policy, total in totals.items():
            assert total >= floor * (1 - 1e-9), policy

    def test_relibra_never_worse_than_static(self):
        trace, topo, model, hw = fluctuating_trace(seed=8)
        cfgs = fast_cfgs()
        t_static = sim.run_baseline(trace, "static", topo, model, hw, cfgs).total_time
        t_rel = sim.run_baseline(trace, "relibra", topo, model, hw, cfgs).total_time
        assert t_rel <= t_static * (1 + 1e-9)

    def test_reports_deterministic(self):
        trace, topo, model, hw = fluctuating_trace()
        cfgs = fast_cfgs()
        a = sim.run_baseline(trace, "relibra", topo, model, hw, cfgs)
        b = sim.run_baseline(trace, "relibra", topo, model, hw, cfgs)
        np.testing.assert_array_equal(a.entry_times, b.entry_times)

    def test_threading_matches_serial(self):
        trace, topo, model, hw = fluctuating_trace()
        serial = sim.run_baseline(trace, "relibra", topo, model, hw, fast_cfgs(threads=1))
        threaded = sim.run_baseline(trace, "relibra", topo, model, hw, fast_cfgs(threads=2))
        np.testing.assert_allclose(serial.entry_times, threaded.entry_times, rtol=1e-12)

    def test_unknown_policy(self):
        trace, topo, model, hw = fluctuating_trace(mbs=1)
        with pytest.raises(ValueError, match="unknown policy"):
            sim.run_baseline(trace, "magic", topo, model, hw, fast_cfgs())

    def test_lplb_limits_one_replica_per_expert(self):
        trace, topo, model, hw = fluctuating_trace()
        bundle, _ = sim.build_policy_bundle(trace, "lplb_like", topo, model, hw, fast_cfgs())
        for entry in bundle.replication.entries.values():
            for gpus in entry.placement.replicas.values():
                assert len(gpus) <= 1

    def test_alternating_hot_expert_gap(self):
        # two GPUs on one node, four experts; the hot expert rotates, so a
        # fixed batch-level plan cannot keep up with per-micro-batch plans
        topo = build_topology(1, 2, HW)
        model = rt.ModelProfile(num_layers=1, num_experts=4, top_k=1,
                                hidden_size=32, intermediate_size=16)
        mbs = 8
        matrices = np.zeros((mbs, 1, 2, 4), dtype=np.uint32)
        for mb in range(mbs):
            hot = mb % 4
            matrices[mb, 0, :, :] = 4
            matrices[mb, 0, :, hot] = 100
        trace = rt.RoutingTrace(model=model, topo=topo, matrices=matrices, tokens_per_gpu=0)
        cfgs = sim.SimConfigs(anneal=ro.AnnealConfig(seeds=(0, 1), cooling_rate=0.98),
                              replica=rep.ReplicaConfig(1))
        t_eplb = sim.run_baseline(trace, "eplb_like", topo, model, HW, cfgs).total_time
        t_rel = sim.run_baseline(trace, "relibra", topo, model, HW, cfgs).total_time
        assert t_rel < t_eplb * 0.9


class TestCompareReport:
    def test_single_policy_row(self):
        trace, topo, model, hw = fluctuating_trace(mbs=2)
        report = sim.run_baseline(trace, "static", topo, model, hw, fast_cfgs())
        table = sim.compare_report([report])
        assert len(table["rows"]) == 1
        assert table["rows"][0]["speedup_vs_static"] == pytest.approx(1.0)

    def test_speedups_normalized_to_static(self):
        trace, topo, model, hw = fluctuating_trace()
        cfgs = fast_cfgs()
        reports = [sim.run_baseline(trace, p, topo, model, hw, cfgs) for p in ("static", "lpt_only")]
        table = sim.compare_report(reports)
        by_name = {row["policy"]: row for row in table["rows"]}
        assert by_name["static"]["speedup_vs_static"] == pytest.approx(1.0)
        expected = reports[0].total_time / reports[1].total_time
        assert by_name["lpt_only"]["speedup_vs_static"] == pytest.approx(expected)

    def test_mixed_traces_rejected(self):
        a, topo, model, hw = fluctuating_trace(seed=1)
        b, _, _, _ = fluctuating_trace(seed=2)
        ra = sim.run_baseline(a, "static", topo, model, hw, fast_cfgs())
        rb = sim.run_baseline(b, "static", topo, model, hw, fast_cfgs())
        with pytest.raises(ValueError, match="different traces"):
            sim.compare_report([ra, rb])

    def test_report_files_written(self, tmp_path):
        trace, topo, model, hw = fluctuating_trace(mbs=3)
        reports = [sim.run_baseline(trace, "static", topo, model, hw, fast_cfgs())]
        payload = sim.write_reports(tmp_path, trace, reports)
        assert (tmp_path / "report.json").is_file()
        lines = (tmp_path / "summary.csv").read_text().strip().splitlines()
        assert lines[0] == "policy,total_time_s,speedup_vs_static,skew_mean,skew_p95,skew_max"
        assert len(lines) == 2
        assert payload["trace_summary"]["intersection_ratio"][0]
