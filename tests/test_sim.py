import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moebalance import costmodel as cm
from moebalance import replicate as rep
from moebalance import reorder as ro
from moebalance import routing as rt
from moebalance import sim
from moebalance.topology import COMP, HardwareProfile, build_topology

HW = HardwareProfile(6e6, 5e3, 1e3, 1.0)


def fluctuating_trace(mbs=6, experts=16, seed=3, tokens=256, samples_per_gpu=0, layers=1):
    topo = build_topology(2, 2, HW)
    model = rt.ModelProfile(num_layers=layers, num_experts=experts, top_k=4,
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
                                sample_placement=gpus)
        with pytest.raises(ValueError, match=expected):
            sim.evaluate_bundle(trace, bundle, topo, model, hw)

    @staticmethod
    def split_bundle(fractions):
        """1x2 GPUs with expert 1 idle; entry (mb, 0) splits expert 0 between
        its home GPU 0 and GPU 1 by the row fractions[mb]."""
        topo = build_topology(1, 2, HW)
        model = rt.ModelProfile(num_layers=1, num_experts=2, top_k=1, hidden_size=32, intermediate_size=16)
        matrices = np.zeros((len(fractions), 1, 2, 2), dtype=np.uint32)
        matrices[:, 0, :, 0] = 4
        trace = rt.RoutingTrace(model=model, topo=topo, matrices=matrices, tokens_per_gpu=0)
        plan = ro.ReorderPlan(np.array([0, 1]))
        placement = rep.ReplicaPlacement(home=plan.assignment, replicas={0: [1]})
        entries = {(mb, 0): rep.ReplicationEntry(placement, rep.split_of(placement, {0: np.tile(row, (2, 1))}), 0.0)
                   for mb, row in enumerate(fractions)}
        return trace, sim.PlanBundle([plan], replication=rep.ReplicationPlan(entries)), topo, model

    def test_negative_computation_load_names_the_entry(self):
        # -5e-7 passes the split check, and GPU 1 has no other load to cover it
        trace, bundle, topo, model = self.split_bundle([[1 + 5e-7, -5e-7]])
        with pytest.raises(ValueError, match=r"^negative computation load at entry \(0, 0\): -4e-06 tokens$"):
            sim.evaluate_bundle(trace, bundle, topo, model, HW)

    def test_split_check_precedes_the_array_checks(self):
        # entry (0, 0) fails the negative-load check, entry (1, 0) its split check;
        # every split is checked before the array pass, so the later entry is named
        trace, bundle, topo, model = self.split_bundle([[1 + 5e-7, -5e-7], [1 + 5e-6, -5e-6]])
        with pytest.raises(ValueError, match=r"^replication entry \(1, 0\): "
                                             r"split fractions for expert 0 outside \[0, 1\]$"):
            sim.evaluate_bundle(trace, bundle, topo, model, HW)

    def test_fit_errors_name_their_entry(self):
        # entry (1, 0) moves half its tokens nowhere; the placement every entry
        # shares is validated at, and named by, its first entry (0, 0)
        trace, bundle, topo, model = self.split_bundle([[1.0, 0.0], [0.5, 0.0]])
        with pytest.raises(ValueError, match=r"^replication entry \(1, 0\): split fractions for expert 0 "
                                             r"violate conservation by 5\.000e-01$"):
            sim.evaluate_bundle(trace, bundle, topo, model, HW)
        with pytest.raises(ValueError, match=r"^replication entry \(1, 0\): split fractions"):
            sim.check_replication(trace, bundle, topo, sim.scored_matrices(trace, None))
        bundle.replication.entries[1, 0].placement.replicas[0].append(1)
        with pytest.raises(ValueError, match=r"^replication entry \(0, 0\): duplicate replica GPUs for expert 0$"):
            sim.evaluate_bundle(trace, bundle, topo, model, HW)

    @pytest.mark.parametrize("replicas, gpus, copies", [({}, [0, 1], [0]), ({0: [1]}, [1, 0], [0, 1])])
    def test_split_columns_are_the_copies_in_order(self, replicas, gpus, copies):
        # entry (1, 0) splits expert 0 onto a GPU with no copy of it, or
        # lists its copies out of order; its shares pass every other check
        trace, bundle, topo, model = self.split_bundle([[1.0, 0.0], [0.5, 0.5]])
        entry = bundle.replication.entries[1, 0]
        bundle.replication.entries[1, 0] = rep.ReplicationEntry(
            rep.ReplicaPlacement(entry.placement.home, replicas),
            dataclasses.replace(entry.split, gpu=np.array(gpus)), 0.0)
        message = (f"^{re.escape(f'replication entry (1, 0): split columns of expert 0 serve GPUs {gpus}')}"
                   f", not its copies {re.escape(str(copies))} in order$")
        with pytest.raises(ValueError, match=message):
            sim.check_replication(trace, bundle, topo, sim.scored_matrices(trace, None))
        with pytest.raises(ValueError, match=message):
            sim.evaluate_bundle(trace, bundle, topo, model, HW)

    def test_split_fractions_are_a_read_only_view(self):
        split = self.split_bundle([[0.25, 0.75]])[1].replication.entries[0, 0].split
        assert split.fractions[0].tolist() == [[0.25, 0.75], [0.25, 0.75]]
        with pytest.raises(TypeError):
            split.fractions[0] = np.ones((2, 2))


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
                split = entry.split if entry is not None else None
                loads = cm.compute_loads(matrices[mb, 0], bundle.reorder[0].assignment, topo, split=split)
                got.append(loads[COMP].sum())
            np.testing.assert_allclose(got, expected, rtol=1e-9)

    def test_balanced_oracle_near_unit_skew(self):
        trace, topo, model, hw = fluctuating_trace(tokens=512)
        report = sim.run_baseline(trace, "balanced_oracle", topo, model, hw, fast_cfgs())
        assert report.skew.max() <= 1.0 + 1e-9  # row sums divide the expert count here

    @pytest.mark.parametrize("nodes,gpus_per_node,experts,top_k,tokens", [(4, 8, 64, 2, 1000), (2, 4, 16, 3, 7)])
    def test_balanced_oracle_spreads_row_remainders(self, nodes, gpus_per_node, experts, top_k, tokens):
        # every row sum leaves a remainder mod the expert count, which each
        # source gives out from its own static block on
        assert top_k * tokens % experts
        topo = build_topology(nodes, gpus_per_node, HW)
        model = rt.ModelProfile(num_layers=1, num_experts=experts, top_k=top_k,
                                hidden_size=32, intermediate_size=16)
        spec = rt.TraceGenSpec(num_domains=2, dirichlet_alpha=0.4, tokens_per_gpu=tokens, rng_seed=5)
        trace = rt.generate_synthetic_trace(spec, model, topo, 3)
        uniform = sim._uniform_matrices(trace)
        np.testing.assert_array_equal(uniform.sum(axis=3), trace.matrices.sum(axis=3))
        static = ro.static_plan(experts, topo).assignment
        for mb in range(trace.num_micro_batches):
            comp = cm.compute_loads(uniform[mb, 0].astype(np.float64), static, topo)[COMP]
            assert (comp == comp[0]).all(), comp
        report = sim.run_baseline(trace, "balanced_oracle", topo, model, HW, fast_cfgs())
        assert (report.skew == 1.0).all()

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

    @pytest.mark.parametrize("policy", ["eplb_like", "lplb_like", "relibra"])
    def test_threading_matches_serial(self, policy):
        trace, topo, model, hw = fluctuating_trace(mbs=4, layers=2)
        serial = sim.run_baseline(trace, policy, topo, model, hw, fast_cfgs(threads=1))
        threaded = sim.run_baseline(trace, policy, topo, model, hw, fast_cfgs(threads=2))
        np.testing.assert_array_equal(serial.entry_times, threaded.entry_times)

    def test_multi_layer_baselines_plan_every_entry_from_the_layer_fill(self):
        trace, topo, model, hw = fluctuating_trace(mbs=4, layers=2)
        bundles = {policy: sim.build_policy_bundle(trace, policy, topo, model, hw, fast_cfgs())[0]
                   for policy in ("eplb_like", "lplb_like")}
        for policy, bundle in bundles.items():
            assert sorted(bundle.replication.entries) == [(mb, layer) for mb in range(4) for layer in range(2)]
            for layer in range(2):
                agg = rt.aggregate_batch(trace, layer)
                np.testing.assert_array_equal(bundle.reorder[layer].assignment, ro.lpt_initial(agg, topo).assignment)
                limit = 1 if policy == "lplb_like" else None
                fill = sim._eplb_replication(agg.astype(np.float64).sum(axis=0), bundle.reorder[layer].assignment,
                                             topo, 2, max_replicas_per_expert=limit)
                assert fill.replicas, (policy, layer)  # the layer gets replicas to compare
                for mb in range(4):
                    entry = bundle.replication.entries[mb, layer]
                    assert entry.placement.replicas == fill.replicas, (policy, mb, layer)
                    np.testing.assert_array_equal(entry.placement.home, fill.home)
        fills = [bundles["eplb_like"].replication.entries[0, layer].placement.replicas for layer in range(2)]
        assert fills[0] != fills[1]  # each layer its own fill, not layer 0's
        for (mb, layer), entry in bundles["lplb_like"].replication.entries.items():
            expected = rep.solve_token_split_lp(trace.matrices[mb, layer].astype(np.float64), entry.placement,
                                                topo, model, hw)
            assert entry.split.fractions.keys() == expected.fractions.keys()
            for e, frac in expected.fractions.items():
                np.testing.assert_array_equal(entry.split.fractions[e], frac)

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


# ---------------------------------------------------------------------------
# the array passes against the loops they replaced


def eplb_replication_loop(loads, home, topo, slots_per_gpu, max_replicas_per_expert=None):
    """sim._eplb_replication as a loop over the experts per copy."""
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
            if best is None or per_copy > best[0]:
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
            continue
        g_t = min(targets, key=lambda g: (gpu_load[g], g))
        placement.replicas.setdefault(e, []).append(g_t)
        gpu_load[g_t] += share
        slot_used[g_t] += 1
    return placement


@st.composite
def tied_loads(draw):
    """Integer token loads on a small cluster, drawn from a few base values
    so per-copy loads tie exactly across experts and copy counts (12 / 2
    and 6 / 1, 12 / 4 and 3 / 1, ...)."""
    nodes, gpn = draw(st.sampled_from([(1, 2), (1, 4), (2, 2), (2, 4), (3, 2)]))
    topo = build_topology(nodes, gpn, HW)
    num_experts = topo.num_gpus * draw(st.integers(1, 4))
    bases = draw(st.lists(st.sampled_from([0, 1, 2, 3, 4, 6, 12]), min_size=1, max_size=3))
    loads = np.array([draw(st.sampled_from(bases)) for _ in range(num_experts)], dtype=np.float64)
    home = np.array(draw(st.lists(st.integers(0, topo.num_gpus - 1), min_size=num_experts,
                                  max_size=num_experts)))
    return loads, home, topo, draw(st.integers(0, 3)), draw(st.sampled_from([None, 1, 2]))


@settings(max_examples=300, deadline=None)
@given(tied_loads())
def test_eplb_replication_matches_loop(case):
    loads, home, topo, slots, limit = case
    got = sim._eplb_replication(loads, home, topo, slots, max_replicas_per_expert=limit)
    want = eplb_replication_loop(loads, home, topo, slots, max_replicas_per_expert=limit)
    assert np.array_equal(got.home, want.home)
    # the order of replicas.items() orders the uniform split, so it must match too
    assert list(got.replicas.items()) == list(want.replicas.items())


def evaluate_per_entry(trace, bundle, topo, model, hw):
    """sim.evaluate_bundle's entry times and skew, one compute_loads and
    moe_time per entry."""
    matrices = sim.scored_matrices(trace, bundle.sample_placement)
    shape = (trace.num_micro_batches, model.num_layers)
    entry_times, skew = np.zeros(shape), np.ones(shape)
    for mb, layer in np.ndindex(shape):
        x = matrices[mb, layer]
        entry = bundle.replication.entries.get((mb, layer))
        split = entry.split if entry is not None else None
        loads = cm.compute_loads(x, bundle.reorder[layer].assignment, topo, split=split)
        entry_times[mb, layer] = cm.moe_time(loads, model, hw).t_moe
        skew[mb, layer] = rt.skewness(loads[COMP]) if x.sum() > 0 else 1.0
    return entry_times, skew


@st.composite
def scored_bundles(draw):
    """A trace, maybe thinned and with empty entries, and a bundle mixing
    absent, split-free and split entries, with or without a sample placement.
    Split rows may give a copy no share and drift from 1 by 5e-7."""
    nodes, gpn = draw(st.sampled_from([(1, 2), (2, 2), (1, 3), (2, 3)]))
    hw = HardwareProfile(6e6, draw(st.floats(1e3, 1e5)), draw(st.floats(1e2, 1e4)), 1.0)
    topo = build_topology(nodes, gpn, hw)
    layers, mbs = draw(st.integers(1, 2)), draw(st.integers(1, 4))
    model = rt.ModelProfile(num_layers=layers, num_experts=topo.num_gpus * draw(st.integers(1, 3)), top_k=2,
                            hidden_size=32, intermediate_size=16)
    g, num_experts = topo.num_gpus, model.num_experts
    spec = rt.TraceGenSpec(num_domains=2, dirichlet_alpha=0.4, tokens_per_gpu=draw(st.sampled_from([16, 64])),
                           rng_seed=draw(st.integers(0, 1000)), samples_per_gpu=draw(st.sampled_from([0, 2])))
    trace = rt.generate_synthetic_trace(spec, model, topo, mbs)
    if draw(st.booleans()):
        # thin the counts so entry totals are no longer multiples of G, and empty some entries
        rng = np.random.default_rng(draw(st.integers(0, 1000)))
        matrices = trace.matrices * (rng.random(trace.matrices.shape) < 0.7)
        for mb, layer in draw(st.lists(st.tuples(st.integers(0, mbs - 1), st.integers(0, layers - 1)),
                                       max_size=2)):
            matrices[mb, layer] = 0
        trace = dataclasses.replace(trace, matrices=matrices.astype(trace.matrices.dtype), samples=None)
    plans = []
    for _ in range(layers):
        perm = draw(st.permutations(range(num_experts)))
        plans.append(ro.ReorderPlan(np.repeat(np.arange(g), num_experts // g)[list(perm)]))
    placement = None
    if trace.samples is not None and draw(st.booleans()):
        placement = trace.samples.source_gpu[::-1].astype(np.int64)
    replication = rep.ReplicationPlan()
    for mb, layer in np.ndindex(mbs, layers):
        kind = draw(st.sampled_from(["absent", "split-free", "split"]))
        if kind == "absent":
            continue
        home = plans[layer].assignment
        entry_placement = rep.ReplicaPlacement(home=home)
        split = {}
        if kind == "split":
            for e in draw(st.lists(st.integers(0, num_experts - 1), unique=True, min_size=1, max_size=3)):
                cands = rep.candidate_gpus(e, home, topo)
                if not cands:
                    continue
                entry_placement.replicas[e] = draw(st.lists(st.sampled_from(cands), unique=True, min_size=1))
                k = len(entry_placement.copies(e))
                # zero weights give copies with no share; rows sum to 1 within the split tolerance
                weights = np.array(draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]) | st.floats(0.01, 1.0),
                                                 min_size=g * k, max_size=g * k)))
                frac = weights.reshape(g, k)
                frac[frac.sum(axis=1) == 0, 0] = 1.0
                drift = np.array(draw(st.lists(st.sampled_from([-5e-7, 0.0, 5e-7]), min_size=g, max_size=g)))
                split[e] = frac / frac.sum(axis=1, keepdims=True) * (1 + drift[:, None])
        replication.entries[(mb, layer)] = rep.ReplicationEntry(entry_placement, rep.split_of(entry_placement, split),
                                                                float("nan"))
    bundle = sim.PlanBundle(reorder=plans, sample_placement=placement, replication=replication)
    return trace, bundle, topo, model, hw


@settings(max_examples=150, deadline=None)
@given(scored_bundles())
def test_evaluate_bundle_matches_per_entry_loop(case):
    trace, bundle, topo, model, hw = case
    report = sim.evaluate_bundle(trace, bundle, topo, model, hw)
    entry_times, skew = evaluate_per_entry(trace, bundle, topo, model, hw)
    assert np.array_equal(report.entry_times, entry_times)
    assert np.array_equal(report.skew, skew)
    assert report.total_time == float(entry_times.sum())
