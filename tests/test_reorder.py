import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moebalance import costmodel as cm
from moebalance import reorder as ro
from moebalance import routing as rt
from moebalance.topology import COMP, RDMA_TX, HardwareProfile, build_topology

UNIT_HW = HardwareProfile(6.0, 1e18, 1e18, 1.0)  # comp unit 1 s/token, comm negligible
UNIT_MODEL = rt.ModelProfile(num_layers=1, num_experts=4, top_k=1, hidden_size=1, intermediate_size=1)


def comm_model(num_experts):
    return rt.ModelProfile(num_layers=1, num_experts=num_experts, top_k=1, hidden_size=1, intermediate_size=1)


def exhaustive_best(x, topo, model, hw):
    """Brute force over all capacity-preserving assignments."""
    g = topo.num_gpus
    num_experts = x.shape[1]
    m = num_experts // g
    best = np.inf
    pool = [gpu for gpu in range(g) for _ in range(m)]
    seen = set()
    for perm in itertools.permutations(pool):
        if perm in seen:
            continue
        seen.add(perm)
        assignment = np.array(perm)
        t = cm.moe_time(cm.compute_loads(x, assignment, topo), model, hw).t_moe
        best = min(best, t)
    return best


class TestLPT:
    def test_hand_example(self):
        topo = build_topology(1, 2, UNIT_HW)
        x = np.zeros((2, 4))
        x[0] = [10, 6, 5, 3]
        plan = ro.lpt_initial(x, topo)
        assert plan.assignment.tolist() == [0, 1, 1, 0]
        loads = cm.compute_loads(x, plan.assignment, topo)
        assert loads[COMP].max() == 13

    def test_equal_loads_balance(self):
        topo = build_topology(2, 2, UNIT_HW)
        x = np.full((4, 8), 3.0)
        plan = ro.lpt_initial(x, topo)
        loads = cm.compute_loads(x, plan.assignment, topo)
        assert np.ptp(loads[COMP]) == 0

    def test_single_gpu(self):
        topo = build_topology(1, 1, UNIT_HW)
        x = np.array([[5.0, 1.0, 2.0]])
        plan = ro.lpt_initial(x, topo)
        assert plan.assignment.tolist() == [0, 0, 0]

    def test_capacity_required(self):
        topo = build_topology(1, 2, UNIT_HW)
        with pytest.raises(ValueError):
            ro.lpt_initial(np.ones((2, 3)), topo)

    def test_plan_validation(self):
        topo = build_topology(1, 2, UNIT_HW)
        ro.ReorderPlan(np.array([0, 1, 0, 1])).validate(topo)
        with pytest.raises(ValueError):
            ro.ReorderPlan(np.array([0, 0, 0, 1])).validate(topo)


class TestAnnealState:
    def rand_instance(self, rng, nodes=2, gpn=2, experts=8):
        topo = build_topology(nodes, gpn, UNIT_HW)
        hw = HardwareProfile(6.0, rng.uniform(5, 50), rng.uniform(2, 20), 1.0)
        topo = build_topology(nodes, gpn, hw)
        x = rng.integers(0, 30, size=(topo.num_gpus, experts)).astype(float)
        model = comm_model(experts)
        plan = ro.lpt_initial(x, topo)
        return x, topo, model, hw, plan

    @pytest.mark.parametrize("nodes,gpn", [(2, 2), (2, 4), (3, 2), (1, 4)])
    def test_matches_compute_loads(self, nodes, gpn):
        rng = np.random.default_rng(3)
        for _ in range(6):
            x, topo, model, hw, plan = self.rand_instance(rng, nodes=nodes, gpn=gpn,
                                                          experts=2 * nodes * gpn)
            state = ro.AnnealState(x, plan.assignment, topo, model, hw)
            ref = cm.compute_loads(x, plan.assignment, topo)
            np.testing.assert_allclose(state.loads5, ref, rtol=1e-12)
            est = cm.moe_time(ref, model, hw, beta=20.0)
            assert state.exact_time() == pytest.approx(est.t_moe, rel=1e-12)
            assert state.smoothed_time() == pytest.approx(est.t_moe_smoothed, rel=1e-12)

    def test_same_host_swap_is_noop(self):
        rng = np.random.default_rng(4)
        x, topo, model, hw, plan = self.rand_instance(rng)
        state = ro.AnnealState(x, plan.assignment, topo, model, hw)
        pair = np.flatnonzero(plan.assignment == plan.assignment[0])[:2]
        before = state.loads5.copy()
        state.apply_swap(int(pair[0]), int(pair[1]))
        np.testing.assert_allclose(state.loads5, before, atol=1e-12)

    @pytest.mark.parametrize("nodes,gpn", [(2, 2), (2, 4)])
    def test_incremental_equals_recompute(self, nodes, gpn):
        rng = np.random.default_rng(5)
        x, topo, model, hw, plan = self.rand_instance(rng, nodes=nodes, gpn=gpn,
                                                      experts=2 * nodes * gpn)
        state = ro.AnnealState(x, plan.assignment, topo, model, hw)
        for _ in range(50):
            e_a, e_b = rng.integers(0, x.shape[1], size=2)
            state.apply_swap(int(e_a), int(e_b))
            ref = cm.compute_loads(x, state.assignment, topo)
            np.testing.assert_allclose(state.loads5, ref, rtol=1e-9, atol=1e-9)

    def test_long_chain_drift_bounded(self):
        # integer token counts make every incremental update exact
        rng = np.random.default_rng(6)
        x, topo, model, hw, plan = self.rand_instance(rng, experts=12)
        state = ro.AnnealState(x, plan.assignment, topo, model, hw)
        for _ in range(1000):
            e_a, e_b = rng.integers(0, 12, size=2)
            state.apply_swap(int(e_a), int(e_b))
        assert np.array_equal(state.loads5, cm.compute_loads(x, state.assignment, topo))


class TestAnnealReorder:
    def test_comm_free_reaches_optimum(self):
        topo = build_topology(1, 2, UNIT_HW)
        x = np.zeros((2, 4))
        x[0] = [10, 6, 5, 3]
        cfg = ro.AnnealConfig(seeds=(0, 1), cooling_rate=0.95)
        plan = ro.anneal_reorder(x, topo, UNIT_MODEL, UNIT_HW, cfg)
        loads = cm.compute_loads(x, plan.assignment, topo)
        assert loads[COMP].max() == pytest.approx(13.0)  # {10,3} / {6,5}

    def test_never_worse_than_lpt(self):
        rng = np.random.default_rng(11)
        cfg = ro.AnnealConfig(seeds=(0, 1), cooling_rate=0.9)
        for _ in range(10):
            hw = HardwareProfile(6.0, rng.uniform(5, 50), rng.uniform(2, 20), 1.0)
            topo = build_topology(2, 2, hw)
            x = rng.integers(0, 30, size=(4, 8)).astype(float)
            model = comm_model(8)
            lpt = ro.lpt_initial(x, topo)
            t_lpt = cm.moe_time(cm.compute_loads(x, lpt.assignment, topo), model, hw).t_moe
            plan = ro.anneal_reorder(x, topo, model, hw, cfg)
            t = cm.moe_time(cm.compute_loads(x, plan.assignment, topo), model, hw).t_moe
            assert t <= t_lpt + 1e-12

    def test_extra_candidate_bounds_result(self):
        rng = np.random.default_rng(12)
        hw = HardwareProfile(6.0, 10.0, 3.0, 1.0)
        topo = build_topology(2, 2, hw)
        x = rng.integers(0, 30, size=(4, 8)).astype(float)
        model = comm_model(8)
        static = ro.static_plan(8, topo)
        t_static = cm.moe_time(cm.compute_loads(x, static.assignment, topo), model, hw).t_moe
        cfg = ro.AnnealConfig(seeds=(0,), cooling_rate=0.9)
        plan = ro.anneal_reorder(x, topo, model, hw, cfg)
        t = cm.moe_time(cm.compute_loads(x, plan.assignment, topo), model, hw).t_moe
        assert t <= t_static + 1e-12

    def test_static_is_a_candidate(self):
        # each source routes only to its own static block, so static moves no
        # token; LPT splits both blocks, two swaps away from static, and one
        # annealing step cannot get there
        hw = HardwareProfile(6e6, 1.0, 1.0, 1.0)  # communication dominates
        topo = build_topology(1, 2, hw)
        x = np.array([[10, 9, 8, 7, 0, 0, 0, 0], [0, 0, 0, 0, 1, 1, 1, 1]], dtype=float)
        model = comm_model(8)

        def exact(assignment):
            return cm.moe_time(cm.compute_loads(x, assignment, topo), model, hw).t_moe

        t_static = exact(ro.static_plan(8, topo).assignment)
        assert exact(ro.lpt_initial(x, topo).assignment) > t_static
        plan = ro.anneal_reorder(x, topo, model, hw, ro.AnnealConfig(seeds=(0,), cooling_rate=1e-4))
        assert exact(plan.assignment) <= t_static

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        hw = HardwareProfile(6.0, 10.0, 3.0, 1.0)
        topo = build_topology(2, 2, hw)
        x = rng.integers(0, 30, size=(4, 8)).astype(float)
        model = comm_model(8)
        cfg = ro.AnnealConfig(seeds=(4, 5), cooling_rate=0.97)
        a = ro.anneal_reorder(x, topo, model, hw, cfg)
        b = ro.anneal_reorder(x, topo, model, hw, cfg)
        np.testing.assert_array_equal(a.assignment, b.assignment)

    def test_sharp_beta_agrees_with_exact_objective(self):
        # at beta = 1e6 the smoothed swap decisions match the exact ones
        # whenever the exact objective moves decisively
        rng = np.random.default_rng(15)
        hw = HardwareProfile(6.0, 10.0, 3.0, 1.0)
        topo = build_topology(2, 2, hw)
        x = rng.uniform(0, 30, size=(4, 8))
        model = comm_model(8)
        plan = ro.lpt_initial(x, topo)
        state = ro.AnnealState(x, plan.assignment, topo, model, hw, beta=1e6)
        for _ in range(200):
            e_a, e_b = rng.integers(0, 8, size=2)
            if state.assignment[e_a] == state.assignment[e_b]:
                continue
            delta = state.swap_delta(int(e_a), int(e_b))
            d_exact = state.exact_time(state.loads5 + delta) - state.exact_time()
            d_smooth = state.smoothed_time(state.loads5 + delta) - state.smoothed_time()
            if abs(d_exact) > 1e-6 * state.exact_time():
                assert np.sign(d_smooth) == np.sign(d_exact)
            state.apply_swap(int(e_a), int(e_b), delta)

    def test_close_to_exhaustive_on_small_instances(self):
        rng = np.random.default_rng(14)
        hits = 0
        trials = 20
        cfg = ro.AnnealConfig(seeds=(0, 1, 2, 3), cooling_rate=0.97)
        for _ in range(trials):
            hw = HardwareProfile(6.0, rng.uniform(5, 50), rng.uniform(2, 20), 1.0)
            topo = build_topology(2, 2, hw)
            x = rng.integers(0, 30, size=(4, 8)).astype(float)
            model = comm_model(8)
            best = exhaustive_best(x, topo, model, hw)
            plan = ro.anneal_reorder(x, topo, model, hw, cfg)
            t = cm.moe_time(cm.compute_loads(x, plan.assignment, topo), model, hw).t_moe
            if t <= best * 1.01 + 1e-12:
                hits += 1
        assert hits >= trials - 1


# bounds with rejection thresholds 0, small and near 2**32 (n = 3e9 rejects 30%)
STREAM_BOUNDS = [2, 3, 6, 7, 48, 96, 128, 1000, 2**31 + 1, 3_000_000_000, 2**32 - 1]


class TestChainStream:
    @staticmethod
    def replay(seed, n, calls):
        """Values of `calls` ("pair"/"random") from numpy and from the stream."""
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        stream = ro.ChainStream(seed)
        want, got = [], []
        for call in calls:
            if call == "pair":
                want.append(tuple(rng.integers(0, n, size=2).tolist()))
                got.append(stream.pair(n))
            else:
                want.append(rng.random())
                got.append(stream.random())
        return want, got

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**63), st.sampled_from(STREAM_BOUNDS) | st.integers(2, 2**32 - 1),
           st.lists(st.sampled_from(["pair", "random"]), min_size=1, max_size=3000))
    def test_equals_numpy_generator(self, seed, n, calls):
        want, got = self.replay(seed, n, calls)
        assert got == want

    def test_rejections_and_buffered_half_occur(self):
        # an odd number of halves consumed (a rejection) leaves an upper half
        # buffered; it must survive the random() calls that follow
        class Counting(ro.ChainStream):
            words = 0

            def _word(self):
                self.words += 1
                return super()._word()

        stream = Counting(7)
        rejected = buffered_across_random = 0
        for _ in range(400):
            words, held = stream.words, stream._half is not None
            stream.pair(3_000_000_000)
            rejected += 2 * (stream.words - words) + held - (stream._half is not None) > 2
            if stream._half is not None:
                half = stream._half
                stream.random()
                buffered_across_random += stream._half == half
        assert rejected > 50 and buffered_across_random > 20
        want, got = self.replay(7, 3_000_000_000, ["pair", "random"] * 1000)
        assert got == want

    def test_bound_checked(self):
        with pytest.raises(ValueError):
            ro.ChainStream(0).pair(1)
        with pytest.raises(ValueError):
            ro.ChainStream(0).pair(2**32)


@st.composite
def lockstep_cases(draw):
    nodes, gpn = draw(st.sampled_from([(1, 2), (1, 3), (2, 2), (2, 4)]))
    g = nodes * gpn
    num_experts = g * draw(st.integers(1, 3))
    hw = HardwareProfile(6.0, draw(st.floats(5, 200)), draw(st.floats(2, 60)), 1.0)
    topo = build_topology(nodes, gpn, hw)
    x = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(
        0, 30, size=(g, num_experts)).astype(float)
    chains = draw(st.integers(2, 6))
    first = draw(st.integers(0, 10**6))
    cfg = ro.AnnealConfig(
        seeds=tuple(range(first, first + chains)),
        cooling_rate=draw(st.floats(0.8, 0.99)),
        beta=draw(st.sampled_from([1.0, 20.0, 1e3, 1e6])),
    )
    return x, topo, comm_model(num_experts), hw, cfg


def assert_lockstep_equals_serial(x, topo, model, hw, cfg):
    base = ro.lpt_initial(x, topo)
    shared = ro.AnnealState(x, base.assignment, topo, model, hw, beta=cfg.beta)
    lockstep = ro._run_lockstep(shared, base.assignment, cfg)
    serial = [ro._run_chain(shared, base.assignment, cfg, seed) for seed in cfg.seeds]
    assert len(lockstep) == len(serial)
    for got, want in zip(lockstep, serial):
        assert got.dtype == want.dtype
        assert got.tolist() == want.tolist()


class TestLockstep:
    @settings(max_examples=60, deadline=None)
    @given(lockstep_cases())
    def test_equals_serial_chains(self, case):
        assert_lockstep_equals_serial(*case)

    def test_anneal_reorder_switches_at_the_chain_threshold(self, monkeypatch):
        rng = np.random.default_rng(32)
        hw = HardwareProfile(6.0, 40.0, 7.0, 1.0)
        topo = build_topology(2, 2, hw)
        x = rng.integers(0, 30, size=(4, 8)).astype(float)
        cfg = ro.AnnealConfig(seeds=tuple(range(ro.LOCKSTEP_MIN_CHAINS)), cooling_rate=0.95)
        lockstep = ro.anneal_reorder(x, topo, comm_model(8), hw, cfg)
        monkeypatch.setattr(ro, "LOCKSTEP_MIN_CHAINS", len(cfg.seeds) + 1)
        serial = ro.anneal_reorder(x, topo, comm_model(8), hw, cfg)
        assert lockstep.assignment.tolist() == serial.assignment.tolist()


def make_sample_trace(counts, micro_batch, source_gpu, tokens, topo, model):
    """Build a RoutingTrace whose matrices follow from the sample table."""
    counts = np.asarray(counts, dtype=np.uint32)
    mb_count = int(max(micro_batch)) + 1
    matrices = np.zeros((mb_count, model.num_layers, topo.num_gpus, model.num_experts), dtype=np.uint32)
    for i in range(counts.shape[0]):
        matrices[micro_batch[i], :, source_gpu[i], :] += counts[i]
    samples = rt.SampleTable(
        counts=counts,
        micro_batch=np.asarray(micro_batch, dtype=np.int32),
        source_gpu=np.asarray(source_gpu, dtype=np.int32),
        tokens=np.asarray(tokens, dtype=np.int32),
    )
    return rt.RoutingTrace(model=model, topo=topo, matrices=matrices, tokens_per_gpu=0, samples=samples)


def source_row_loads(state, i, gpu):
    """(L, 5, G) loads of sample i from source gpu, charged as one whole flow per layer."""
    g = state.topo.num_gpus
    out = []
    for mass in state.dst_mass[i]:
        flow = np.zeros((g, g))
        flow[gpu] = mass
        out.append(state.topo.charges.loads(flow))
    return np.stack(out)


def apply_sample(state, i, gpu, sign):
    """Add (sign 1) or remove (sign -1) sample i's charges from source gpu in place."""
    mb = int(state.samples.micro_batch[i])
    state.loads5[mb] += sign * source_row_loads(state, i, gpu)
    state.totals[mb, gpu] += sign * float(state.samples.tokens[i])


def move_sample(state, i, new_gpu):
    apply_sample(state, i, int(state.placement[i]), -1.0)
    apply_sample(state, i, new_gpu, 1.0)
    state.placement[i] = new_gpu


def entry_smoothed(state, mb):
    return sum(state.units.smoothed(loads5, state.beta) for loads5 in state.loads5[mb])


def entry_comm(state, mb):
    return sum(float(state.units.times(loads5)[1:].max()) for loads5 in state.loads5[mb])


class TestSamplePlacement:
    def test_single_gpu_identity(self):
        hw = HardwareProfile(6.0, 10.0, 3.0, 1.0)
        topo = build_topology(1, 1, hw)
        model = rt.ModelProfile(num_layers=1, num_experts=2, top_k=1, hidden_size=1, intermediate_size=1)
        trace = make_sample_trace(
            counts=[[[3, 1]], [[2, 2]]], micro_batch=[0, 0], source_gpu=[0, 0], tokens=[4, 4],
            topo=topo, model=model)
        cfg = ro.AnnealConfig(seeds=(0,), cooling_rate=0.9)
        placement = ro.anneal_sample_placement(trace, [ro.ReorderPlan(np.array([0, 0]))], topo, model, hw, cfg)
        assert placement.tolist() == [0, 0]

    def test_colocates_with_activated_experts(self):
        # two single-GPU nodes; each sample only uses experts on one node
        hw = HardwareProfile(6.0, 1e6, 1.0, 1.0)  # expensive RDMA
        topo = build_topology(2, 1, hw)
        model = rt.ModelProfile(num_layers=1, num_experts=2, top_k=1, hidden_size=1, intermediate_size=1)
        # sample 0 starts on GPU 1 but uses expert 0 (hosted on GPU 0) and vice versa
        trace = make_sample_trace(
            counts=[[[8, 0]], [[0, 8]]], micro_batch=[0, 0], source_gpu=[1, 0], tokens=[8, 8],
            topo=topo, model=model)
        plans = [ro.ReorderPlan(np.array([0, 1]))]
        cfg = ro.AnnealConfig(seeds=(0, 1), cooling_rate=0.9)
        placement = ro.anneal_sample_placement(trace, plans, topo, model, hw, cfg)
        assert placement.tolist() == [0, 1]
        matrices = ro.rewrite_trace_matrices(trace, placement)
        loads = cm.compute_loads(matrices[0, 0], plans[0].assignment, topo)
        assert loads[RDMA_TX].sum() == 0

    def test_keeps_the_given_placement_when_greedy_is_worse(self):
        # both 10-token samples start on GPU 0 with all their tokens routed
        # to its expert. The band (mean 10, at most 11 per GPU) pushes the
        # greedy start to put one sample on GPU 1, which adds communication;
        # equal token counts keep every swap in that shape, so no chain gets
        # back to the given placement and only its own candidate can
        hw = HardwareProfile(6.0, 10.0, 3.0, 1.0)
        topo = build_topology(1, 2, hw)
        model = rt.ModelProfile(num_layers=1, num_experts=2, top_k=1, hidden_size=1, intermediate_size=1)
        trace = make_sample_trace(
            counts=[[[10, 0]], [[10, 0]]], micro_batch=[0, 0], source_gpu=[0, 0], tokens=[10, 10],
            topo=topo, model=model)
        plans = [ro.ReorderPlan(np.array([0, 1]))]
        cfg = ro.AnnealConfig(seeds=(0, 1), cooling_rate=0.9)
        greedy = ro.greedy_sample_initial(trace, plans, topo, model, hw)
        assert sorted(greedy.tolist()) == [0, 1]
        base = ro._SampleState(trace, plans, topo, model, hw, cfg.beta)
        assert base.fork(greedy).exact_total() > base.fork(trace.samples.source_gpu).exact_total()
        placement = ro.anneal_sample_placement(trace, plans, topo, model, hw, cfg)
        assert placement.tolist() == [0, 0]

    def test_never_worse_than_greedy_initial(self):
        rng = np.random.default_rng(21)
        hw = HardwareProfile(6.0, 50.0, 5.0, 1.0)
        topo = build_topology(2, 2, hw)
        model = rt.ModelProfile(num_layers=1, num_experts=8, top_k=2, hidden_size=1, intermediate_size=1)
        spec = rt.TraceGenSpec(num_domains=2, dirichlet_alpha=0.4, tokens_per_gpu=32,
                               rng_seed=5, samples_per_gpu=3)
        trace = rt.generate_synthetic_trace(spec, model, topo, 2)
        plans = [ro.lpt_initial(rt.aggregate_batch(trace, 0), topo)]
        cfg = ro.AnnealConfig(seeds=(0, 1), cooling_rate=0.95)
        greedy = ro.greedy_sample_initial(trace, plans, topo, model, hw)
        annealed = ro.anneal_sample_placement(trace, plans, topo, model, hw, cfg)

        def total(placement):
            mats = ro.rewrite_trace_matrices(trace, placement)
            return sum(
                cm.moe_time(cm.compute_loads(mats[mb, 0], plans[0].assignment, topo), model, hw).t_moe
                for mb in range(trace.num_micro_batches)
            )

        assert total(annealed) <= total(greedy) + 1e-12

    def test_band_constraint_respected(self):
        rng = np.random.default_rng(23)
        hw = HardwareProfile(6.0, 50.0, 5.0, 1.0)
        topo = build_topology(1, 4, hw)
        model = rt.ModelProfile(num_layers=1, num_experts=8, top_k=2, hidden_size=1, intermediate_size=1)
        spec = rt.TraceGenSpec(num_domains=2, dirichlet_alpha=0.4, tokens_per_gpu=40,
                               rng_seed=6, samples_per_gpu=4)
        trace = rt.generate_synthetic_trace(spec, model, topo, 2)
        plans = [ro.lpt_initial(rt.aggregate_batch(trace, 0), topo)]
        cfg = ro.AnnealConfig(seeds=(0,), cooling_rate=0.95)
        placement = ro.anneal_sample_placement(trace, plans, topo, model, hw, cfg)
        s = trace.samples
        for mb in range(trace.num_micro_batches):
            totals = np.zeros(topo.num_gpus)
            for i in np.flatnonzero(s.micro_batch == mb):
                totals[placement[i]] += s.tokens[i]
            mean = totals.sum() / topo.num_gpus
            assert (totals >= 0.9 * mean - 1e-9).all()
            assert (totals <= 1.1 * mean + 1e-9).all()

    def test_sample_state_matches_costmodel(self):
        # the incremental sample-state loads must equal a from-scratch
        # evaluation of the rewritten matrices, also after moves back
        hw = HardwareProfile(6.0, 50.0, 5.0, 1.0)
        topo = build_topology(2, 2, hw)
        model = rt.ModelProfile(num_layers=2, num_experts=8, top_k=2, hidden_size=1, intermediate_size=1)
        spec = rt.TraceGenSpec(num_domains=2, dirichlet_alpha=0.4, tokens_per_gpu=32,
                               rng_seed=9, samples_per_gpu=2)
        trace = rt.generate_synthetic_trace(spec, model, topo, 3)
        plans = [ro.lpt_initial(rt.aggregate_batch(trace, layer), topo) for layer in range(2)]
        state = ro._SampleState(trace, plans, topo, model, hw, beta=20.0).fork(trace.samples.source_gpu)
        rng = np.random.default_rng(2)
        for _ in range(40):
            i = int(rng.integers(0, trace.samples.num_samples))
            old = int(state.placement[i])
            move_sample(state, i, int(rng.integers(0, topo.num_gpus)))
            if rng.random() < 0.3:
                move_sample(state, i, old)
        matrices = ro.rewrite_trace_matrices(trace, state.placement)
        totals = np.zeros((trace.num_micro_batches, topo.num_gpus))
        np.add.at(totals, (trace.samples.micro_batch, state.placement), trace.samples.tokens)
        assert np.array_equal(state.totals, totals)
        for mb in range(trace.num_micro_batches):
            for layer in range(2):
                ref = cm.compute_loads(matrices[mb, layer], plans[layer].assignment, topo)
                assert np.array_equal(state.loads5[mb, layer], ref)
            exact = sum(
                cm.moe_time(cm.compute_loads(matrices[mb, layer], plans[layer].assignment, topo),
                            model, hw).t_moe
                for layer in range(2)
            )
            assert state.entry_exact(mb) == pytest.approx(exact, rel=1e-12)

    def test_requires_sample_table(self):
        hw = HardwareProfile(6.0, 10.0, 3.0, 1.0)
        topo = build_topology(1, 2, hw)
        model = rt.ModelProfile(num_layers=1, num_experts=2, top_k=1)
        matrices = np.zeros((1, 1, 2, 2), dtype=np.uint32)
        trace = rt.RoutingTrace(model=model, topo=topo, matrices=matrices, tokens_per_gpu=0)
        with pytest.raises(ValueError, match="sample table"):
            ro.anneal_sample_placement(trace, [ro.ReorderPlan(np.array([0, 1]))], topo, model,
                                       hw, ro.AnnealConfig(seeds=(0,)))


def generator_sample_chain(base, initial, cfg, seed):
    """The sample chain as it was written against `numpy.random.Generator`:
    it moves both samples in place, rescores both micro-batches before and
    after, and moves them back when the swap is rejected."""
    state = base.fork(initial)
    s = state.samples
    mean = state.mean
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    t_cur = sum(entry_smoothed(state, mb) for mb in range(len(mean)))
    theta = t_cur if t_cur > 0 else 1.0
    eps = ro.EPS_FRAC * theta
    best_assign = state.placement.copy()
    best_t = t_cur
    while theta > eps:
        i, j = rng.integers(0, s.num_samples, size=2)
        gi, gj = int(state.placement[i]), int(state.placement[j])
        if i == j or gi == gj:
            theta *= cfg.cooling_rate
            continue
        mbi, mbj = int(s.micro_batch[i]), int(s.micro_batch[j])
        before = entry_smoothed(state, mbi) + (entry_smoothed(state, mbj) if mbj != mbi else 0.0)
        move_sample(state, i, gj)
        move_sample(state, j, gi)
        in_band = True
        for mb, gpu in {(mbi, gi), (mbi, gj), (mbj, gi), (mbj, gj)}:
            lo, hi = (1.0 - ro.SAMPLE_BAND) * mean[mb], (1.0 + ro.SAMPLE_BAND) * mean[mb]
            if not (lo - 1e-9 <= state.totals[mb, gpu] <= hi + 1e-9):
                in_band = False
        after = entry_smoothed(state, mbi) + (entry_smoothed(state, mbj) if mbj != mbi else 0.0)
        diff = after - before
        if in_band and (diff < 0 or rng.random() < math.exp(-min(max(diff, 0.0) / theta, 745.0))):
            t_cur += diff
            if t_cur < best_t:
                best_t = t_cur
                best_assign = state.placement.copy()
        else:
            move_sample(state, i, gi)
            move_sample(state, j, gj)
        theta *= cfg.cooling_rate
    return best_assign


class TestSampleChainStream:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(1, 2), st.integers(1, 3), st.sampled_from([(1, 2), (2, 2), (1, 4)]),
           st.integers(0, 2**32 - 1), st.lists(st.integers(0, 10**6), min_size=1, max_size=3))
    def test_equals_generator_chain(self, layers, micro_batches, shape, trace_seed, seeds):
        # the ChainStream draws are by definition the Generator's, so the
        # chain must end on the same placement call for call
        hw = HardwareProfile(6.0, 50.0, 5.0, 1.0)
        topo = build_topology(*shape, hw)
        model = rt.ModelProfile(num_layers=layers, num_experts=2 * topo.num_gpus, top_k=2,
                                hidden_size=1, intermediate_size=1)
        spec = rt.TraceGenSpec(num_domains=2, dirichlet_alpha=0.4, tokens_per_gpu=48,
                               rng_seed=trace_seed, samples_per_gpu=4)
        trace = rt.generate_synthetic_trace(spec, model, topo, micro_batches)
        plans = [ro.lpt_initial(rt.aggregate_batch(trace, layer), topo) for layer in range(layers)]
        cfg = ro.AnnealConfig(seeds=tuple(seeds), cooling_rate=0.97)
        base = ro._SampleState(trace, plans, topo, model, hw, cfg.beta)
        initial = ro.greedy_sample_initial(trace, plans, topo, model, hw)
        for seed in seeds:
            got = ro._run_sample_chain(base, initial, cfg, seed)
            assert got.tolist() == generator_sample_chain(base, initial, cfg, seed).tolist()


def reference_greedy_sample_initial(trace, plans, topo, model, hw, beta=20.0):
    """The greedy start one GPU at a time: apply the sample, score the
    communication time, undo, and keep the first GPU that beats the best by
    more than 1e-15."""
    state = ro._SampleState(trace, plans, topo, model, hw, beta)
    s = trace.samples
    order = np.lexsort((np.arange(s.num_samples), -s.tokens.astype(np.int64)))
    for i in order:
        mb = int(s.micro_batch[i])
        hi = (1.0 + ro.SAMPLE_BAND) * state.mean[mb]
        fits = [gpu for gpu in range(topo.num_gpus) if state.totals[mb, gpu] + s.tokens[i] <= hi + 1e-9]
        if not fits:
            fits = [int(np.argmin(state.totals[mb]))]
        best_gpu, best_obj = fits[0], math.inf
        for gpu in fits:
            apply_sample(state, i, gpu, 1.0)
            obj = entry_comm(state, mb)
            apply_sample(state, i, gpu, -1.0)
            if obj < best_obj - 1e-15:
                best_obj = obj
                best_gpu = gpu
        apply_sample(state, i, best_gpu, 1.0)
        state.placement[i] = best_gpu
    return state.placement


@st.composite
def sample_cases(draw):
    """A random sample table with tokens drawn apart from the counts, so
    that some samples fit on no GPU, and random capacity-preserving plans."""
    nodes, gpn = draw(st.sampled_from([(1, 2), (2, 2), (1, 4), (2, 3)]))
    g = nodes * gpn
    layers = draw(st.integers(1, 2))
    num_experts = g * draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    num_samples = draw(st.integers(2, 12))
    micro_batches = draw(st.integers(1, 3))
    hw = HardwareProfile(6.0, draw(st.floats(5, 200)), draw(st.floats(2, 60)), 1.0)
    topo = build_topology(nodes, gpn, hw)
    model = rt.ModelProfile(num_layers=layers, num_experts=num_experts, top_k=1,
                            hidden_size=1, intermediate_size=1)
    micro_batch = rng.integers(0, micro_batches, num_samples)
    micro_batch[0] = micro_batches - 1  # the trace has `micro_batches` micro-batches, some maybe empty
    trace = make_sample_trace(
        counts=rng.integers(0, 10, size=(num_samples, layers, num_experts)),
        micro_batch=micro_batch, source_gpu=rng.integers(0, g, num_samples),
        tokens=rng.integers(1, 40, num_samples), topo=topo, model=model)
    plans = [ro.ReorderPlan(rng.permutation(np.repeat(np.arange(g), num_experts // g)))
             for _ in range(layers)]
    return trace, plans, topo, model, hw


class TestSampleArrayPasses:
    @settings(max_examples=60, deadline=None)
    @given(sample_cases())
    def test_greedy_equals_per_gpu_reference(self, case):
        got = ro.greedy_sample_initial(*case)
        assert np.array_equal(got, reference_greedy_sample_initial(*case))

    def test_greedy_without_a_fitting_gpu_takes_the_least_loaded(self):
        # mean 6 tokens per GPU: the 10-token sample fits under 6.6 nowhere
        # and goes to GPU 0, the first of two empty GPUs
        hw = HardwareProfile(6.0, 10.0, 3.0, 1.0)
        topo = build_topology(1, 2, hw)
        model = rt.ModelProfile(num_layers=1, num_experts=2, top_k=1, hidden_size=1, intermediate_size=1)
        trace = make_sample_trace(
            counts=[[[0, 10]], [[1, 0]], [[0, 1]]], micro_batch=[0, 0, 0], source_gpu=[1, 1, 0],
            tokens=[10, 1, 1], topo=topo, model=model)
        plans = [ro.ReorderPlan(np.array([0, 1]))]
        got = ro.greedy_sample_initial(trace, plans, topo, model, hw)
        assert got[0] == 0
        assert np.array_equal(got, reference_greedy_sample_initial(trace, plans, topo, model, hw))

    @settings(max_examples=30, deadline=None)
    @given(sample_cases())
    def test_sample_loads_equal_the_dense_charge_table(self, case):
        trace, plans, topo, model, hw = case
        state = ro._SampleState(trace, plans, topo, model, hw, beta=20.0)
        g = topo.num_gpus
        for i in range(trace.samples.num_samples):
            for src in range(g):
                dense = (state.dst_mass[i] @ state.dense[src]).reshape(-1, 5, g)
                assert np.array_equal(source_row_loads(state, i, src), dense)


class CountingStream(ro.ChainStream):
    """A ChainStream that counts its pairs of distinct samples and its uniforms."""

    swaps = uniforms = 0

    def pair(self, n):
        i, j = super().pair(n)
        CountingStream.swaps += int(i != j)
        return i, j

    def random(self):
        CountingStream.uniforms += 1
        return super().random()


class TestSampleChainCases:
    @staticmethod
    def two_gpu_case(mass, tokens, micro_batch):
        # sample k carries mass[k] routed tokens per layer, all to the expert
        # on the GPU it does not start on, and tokens[k] tokens for the band
        hw = HardwareProfile(6.0, 10.0, 3.0, 1.0)
        topo = build_topology(1, 2, hw)
        model = rt.ModelProfile(num_layers=2, num_experts=2, top_k=1, hidden_size=1, intermediate_size=1)
        source_gpu = [1, 0] * (len(mass) // 2)
        counts = [[[m, 0], [m, 0]] if src == 1 else [[0, m], [0, m]] for m, src in zip(mass, source_gpu)]
        trace = make_sample_trace(counts=counts, micro_batch=micro_batch, source_gpu=source_gpu,
                                  tokens=tokens, topo=topo, model=model)
        plans = [ro.ReorderPlan(np.array([0, 1]))] * 2
        return trace, plans, topo, model, hw

    def test_swap_within_one_micro_batch(self, monkeypatch):
        # every swap moves two samples of micro-batch 0, so both moves land
        # in one array; the chain's own state must end equal to a fresh
        # placement of where it ended
        trace, plans, topo, model, hw = self.two_gpu_case([8, 1, 5, 2], [40, 41, 40, 41], [0, 0, 0, 0])
        cfg = ro.AnnealConfig(seeds=(3,), cooling_rate=0.9)
        base = ro._SampleState(trace, plans, topo, model, hw, cfg.beta)
        fork, forks = ro._SampleState.fork, []
        monkeypatch.setattr(ro._SampleState, "fork", lambda state, p: forks.append(fork(state, p)) or forks[-1])
        initial = trace.samples.source_gpu.astype(np.int64)
        got = ro._run_sample_chain(base, initial, cfg, 3)
        end = forks[0]
        fresh = fork(base, end.placement)
        assert np.array_equal(end.loads5, fresh.loads5)
        assert np.array_equal(end.totals, fresh.totals)
        assert got.tolist() == generator_sample_chain(base, initial, cfg, 3).tolist() == [0, 1, 0, 1]

    @pytest.mark.parametrize("tokens, in_band", [((10, 1), False), ((4, 4), True)])
    def test_out_of_band_swap_draws_no_uniform(self, monkeypatch, tokens, in_band):
        # the two samples start colocated with their experts, so the swap
        # only adds communication and would need a uniform to pass; with
        # 10 and 1 tokens it leaves the +/-10% band and draws none
        monkeypatch.setattr(ro, "ChainStream", CountingStream)
        trace, plans, topo, model, hw = self.two_gpu_case([4, 4], list(tokens), [0, 0])
        initial = np.array([0, 1])
        cfg = ro.AnnealConfig(seeds=(0,), cooling_rate=0.5)
        base = ro._SampleState(trace, plans, topo, model, hw, cfg.beta)
        CountingStream.swaps = CountingStream.uniforms = 0
        got = ro._run_sample_chain(base, initial, cfg, 0)
        assert CountingStream.swaps > 0
        assert (CountingStream.uniforms > 0) == in_band
        assert got.tolist() == generator_sample_chain(base, initial, cfg, 0).tolist() == [0, 1]


@st.composite
def rewrite_cases(draw):
    """A sample table that sums to its matrices and a placement. Samples 0
    and 1 share one (micro-batch, source GPU), sample 0 stays on its own GPU
    and others may too; per-layer counts are permutations of one row, so
    the trace validates."""
    nodes, gpn = draw(st.sampled_from([(1, 1), (1, 2), (2, 2), (1, 4)]))
    g = nodes * gpn
    layers = draw(st.integers(1, 3))
    num_experts = g * draw(st.integers(1, 2))
    num_samples = draw(st.integers(2, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    micro_batch = rng.integers(0, draw(st.integers(1, 3)), num_samples)
    source_gpu = rng.integers(0, g, num_samples)
    micro_batch[1], source_gpu[1] = micro_batch[0], source_gpu[0]
    row = rng.integers(0, 10, size=(num_samples, num_experts))
    counts = np.stack([rng.permuted(row, axis=1) for _ in range(layers)], axis=1)
    model = rt.ModelProfile(num_layers=layers, num_experts=num_experts, top_k=1, hidden_size=1, intermediate_size=1)
    trace = make_sample_trace(counts=counts, micro_batch=micro_batch, source_gpu=source_gpu,
                              tokens=row.sum(axis=1), topo=build_topology(nodes, gpn, UNIT_HW), model=model)
    placement = np.where(rng.random(num_samples) < 0.3, source_gpu, rng.integers(0, g, num_samples))
    placement[0] = source_gpu[0]
    return trace, placement


def loop_rewrite(trace, placement):
    """The rewrite one sample at a time."""
    s = trace.samples
    out = trace.matrices.astype(np.float64)
    for i in range(s.num_samples):
        out[s.micro_batch[i], :, s.source_gpu[i], :] -= s.counts[i]
        out[s.micro_batch[i], :, placement[i], :] += s.counts[i]
    return out



class TestRewriteTraceMatrices:
    @staticmethod
    def two_sample_trace():
        hw = HardwareProfile(6.0, 10.0, 3.0, 1.0)
        topo = build_topology(1, 2, hw)
        model = rt.ModelProfile(num_layers=1, num_experts=3, top_k=1, hidden_size=1, intermediate_size=1)
        return make_sample_trace(
            counts=[[[2, 1, 0]], [[0, 1, 2]]], micro_batch=[0, 0], source_gpu=[0, 1], tokens=[3, 3],
            topo=topo, model=model)

    def test_identity(self):
        trace = self.two_sample_trace()
        unmoved = trace.samples.source_gpu.copy()
        np.testing.assert_array_equal(ro.rewrite_trace_matrices(trace, unmoved), trace.matrices)

    def test_sample_moves_preserve_column_sums(self):
        trace = self.two_sample_trace()
        placement = np.array([1, 0])
        x = trace.matrices[0, 0].astype(float)
        moved = ro.rewrite_trace_matrices(trace, placement)[0, 0]
        np.testing.assert_allclose(moved.sum(axis=0), x.sum(axis=0))
        assert moved.sum() == x.sum()
        np.testing.assert_allclose(moved[1], [2, 1, 0])
        np.testing.assert_allclose(moved[0], [0, 1, 2])

    @settings(max_examples=60, deadline=None)
    @given(rewrite_cases())
    def test_equals_per_sample_loop(self, case):
        trace, placement = case
        trace.validate()  # the one-pass rebuild accepts a table that sums to the matrices
        assert np.array_equal(ro.rewrite_trace_matrices(trace, placement), loop_rewrite(trace, placement))

    @settings(max_examples=30, deadline=None)
    @given(rewrite_cases(), st.data())
    def test_table_off_the_matrices_raises(self, case, data):
        trace, _ = case
        mb, _, g, e = trace.matrices.shape
        at = (data.draw(st.integers(0, mb - 1)), slice(None), data.draw(st.integers(0, g - 1)),
              data.draw(st.integers(0, e - 1)))
        trace.matrices[at] += 1  # one more token on one GPU in every layer: only the sample sums disagree
        with pytest.raises(rt.TraceFormatError,
                           match="^per-GPU sums over samples do not reproduce the routing matrices$"):
            trace.validate()
