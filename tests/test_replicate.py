import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moebalance import costmodel as cm
from moebalance import planio
from moebalance import replicate as rep
from moebalance import reorder as ro
from moebalance import routing as rt
from moebalance.lp import LPError
from moebalance.topology import COMP, HardwareProfile, build_topology

from oracles import InstanceTooLargeError, exact_milp_small

UNIT_MODEL = rt.ModelProfile(num_layers=1, num_experts=2, top_k=1, hidden_size=1, intermediate_size=1)
COMM_FREE = HardwareProfile(6.0, 1e18, 1e18, 1.0)  # comp unit 1 s/token


def twelve_vs_four():
    topo = build_topology(1, 2, COMM_FREE)
    x = np.array([[12.0, 0.0], [0.0, 4.0]])
    plan = ro.ReorderPlan(np.array([0, 1]))
    return x, plan, topo


def objective(x, placement, split, topo, model, hw):
    loads = cm.compute_loads(x, placement.home, topo, splits=split.to_split_map(placement))
    return cm.moe_time(loads, model, hw).t_moe


def random_instance(rng, max_experts=4, max_gpus=4):
    """Small random instance on a 1-node or 2x2 topology with O(1) times."""
    shape = rng.choice(["1x2", "1x3", "2x2", "1x4"])
    nodes, gpn = {"1x2": (1, 2), "1x3": (1, 3), "2x2": (2, 2), "1x4": (1, 4)}[shape]
    g = nodes * gpn
    per_gpu = int(rng.integers(1, max(2, max_experts // g + 1)))
    num_experts = g * per_gpu
    hw = HardwareProfile(6.0, float(rng.uniform(20, 200)), float(rng.uniform(5, 50)), 1.0)
    topo = build_topology(nodes, gpn, hw)
    model = rt.ModelProfile(num_layers=1, num_experts=num_experts, top_k=1,
                            hidden_size=1, intermediate_size=1)
    x = rng.integers(0, 30, size=(g, num_experts)).astype(float)
    plan = ro.lpt_initial(x, topo)
    return x, plan, topo, model, hw


def per_variable_split_plan(lp):
    """TokenSplitLP.split_plan written as one step per LP column."""
    values = lp.solver.solution()
    fractions = {}
    for e, gpus in lp.replicas.items():
        frac = np.zeros((lp.x.shape[0], 1 + len(gpus)))
        frac[:, 0] = 1.0
        fractions[e] = frac
    for (j, e, gpu), pos in lp.col_pos.items():
        col = ([int(lp.home[e])] + lp.replicas[e]).index(gpu)
        fractions[e][j, col] = values[pos]
    for e, frac in fractions.items():
        routed = np.flatnonzero(lp.x[:, e] > 0)
        frac[routed, 0] = 1.0 - frac[routed, 1:].sum(axis=1)
        np.clip(frac, 0.0, 1.0, out=frac)
        sums = frac[routed].sum(axis=1, keepdims=True)
        frac[routed] /= sums
    return fractions


def assert_same_fractions(plan, ref):
    assert list(plan.fractions) == list(ref)
    for e, frac in ref.items():
        assert np.array_equal(plan.fractions[e], frac), e


def add_replica_per_pair(lp, e, gpu):
    """TokenSplitLP.add_replica built the way it was before batching: one
    charge per source and one add_columns call per replica."""
    prior = lp.replicas.get(e, [])
    if gpu in prior or gpu == lp.home[e]:
        raise ValueError(f"expert {e} already has a copy on GPU {gpu}")
    lp.replicas.setdefault(e, []).append(gpu)
    sources = np.flatnonzero(lp.x[:, e] > 0)
    if sources.size == 0:
        return
    if prior and e not in lp.rows_built:
        first = lp.solver.num_rows
        lp.solver.add_row([lp.col_pos[(int(j), e, prior[0])] for j in sources], np.ones(sources.size),
                          np.ones(sources.size))
        for row, j in enumerate(sources, start=first):
            lp.sum_rows[(int(j), e)] = row
        lp.rows_built.add(e)
    g = lp.topo.num_gpus
    copy = len(lp.replicas[e])
    cols = np.zeros((lp.solver.num_rows, sources.size))
    for idx, j in enumerate(sources):
        j = int(j)
        home_charge = lp.units.times(lp.topo.charges.pair(j, int(lp.home[e]))).ravel()
        delta = lp.units.times(lp.topo.charges.pair(j, gpu)).ravel() - home_charge
        cols[: 5 * g, idx] = lp.x[j, e] * delta
        if e in lp.rows_built:
            cols[lp.sum_rows[(j, e)], idx] = 1.0
        lp.col_pos[(j, e, gpu)] = lp.N_AUX + len(lp.var_meta)
        lp.var_meta = np.vstack([lp.var_meta, (j, e, copy)])
    lp.solver.add_columns(cols, np.zeros(sources.size), upper_new=np.ones(sources.size))


SOLVER_ARRAYS = ("tab", "rhs", "cost", "red", "upper", "at_upper", "struct_idx", "slack_idx", "basis")


def assert_same_lp(lp, ref):
    for name in SOLVER_ARRAYS:
        assert np.array_equal(getattr(lp.solver, name), getattr(ref.solver, name)), name
    assert lp.solver.objective == ref.solver.objective
    assert np.array_equal(lp.var_meta, ref.var_meta)
    assert lp.col_pos == ref.col_pos
    assert lp.sum_rows == ref.sum_rows
    assert lp.rows_built == ref.rows_built
    assert lp.replicas == ref.replicas


def random_pairs(rng, plan, topo, num_experts):
    """Up to three replicas per expert, shuffled so experts interleave."""
    pairs = []
    for e in range(num_experts):
        cands = rep.candidate_gpus(e, plan.assignment, topo)
        k = int(rng.integers(0, min(3, len(cands)) + 1))
        pairs += [(e, int(g)) for g in rng.choice(cands, size=k, replace=False)]
    return [pairs[i] for i in rng.permutation(len(pairs))]


def always_solve_greedy(x, plan, topo, model, hw, cfg):
    """greedy_replicate as it was before optimal trials were skipped: every
    trial is solved and scored. Also returns, per trial, whether the grown
    LP was already optimal before its solve and whether it was accepted."""
    home = np.asarray(plan.assignment)
    placement = rep.ReplicaPlacement(home=home)
    split = rep.SplitPlan()
    trials = []
    if cfg.slots_per_gpu == 0 or x.sum() == 0:
        return placement, split, trials
    lp = rep.TokenSplitLP(x, home, topo, model, hw)
    est = lp.units.estimate(lp.base)
    slots = placement.slot_usage(topo.num_gpus)
    while (slots < cfg.slots_per_gpu).any():
        scores = est.comp_times + est.comm_times
        accepted = False
        for g_b in rep._bottleneck_candidates(est.comp_times, est.comm_times):
            served = sorted(
                ((e, rep._served_tokens(x, placement, split, e, g_b)) for e in placement.serving(g_b)),
                key=lambda item: (-item[1], item[0]),
            )
            e_star = g_t = None
            for e, _load in served:
                targets = [
                    g for g in rep.candidate_gpus(e, home, topo)
                    if g not in placement.replicas.get(e, []) and slots[g] < cfg.slots_per_gpu
                ]
                if targets:
                    e_star = e
                    g_t = min(targets, key=lambda g: (scores[g], g))
                    break
            if e_star is None:
                continue
            snap = lp.snapshot()
            lp.add_replica(e_star, g_t)
            optimal = lp.solver.optimal()
            lp.solve()
            trial_placement = rep.ReplicaPlacement(home=home, replicas={
                e: list(gpus) for e, gpus in lp.replicas.items()
            })
            trial_split = lp.split_plan()
            trial = rep._estimate(x, trial_placement, trial_split, topo, lp.units)
            if trial.t_moe < est.t_moe * (1.0 - rep.IMPROVE_RTOL):
                placement, split, est = trial_placement, trial_split, trial
                slots = placement.slot_usage(topo.num_gpus)
                accepted = True
                trials.append((optimal, True))
                break
            trials.append((optimal, False))
            lp.restore(snap)
        if not accepted:
            break
    return placement, split, trials


def greedy_instance(rng):
    """A random instance on up to 2x4 GPUs with up to 4 experts per GPU and
    1-3 replica slots, so that entries take several replicas and roll back
    trials after their first acceptance."""
    nodes, gpn = [(1, 2), (1, 4), (2, 2), (2, 4)][int(rng.integers(0, 4))]
    g = nodes * gpn
    num_experts = g * int(rng.integers(1, 5))
    hw = HardwareProfile(6.0, float(rng.uniform(20, 400)), float(rng.uniform(5, 100)), 1.0)
    topo = build_topology(nodes, gpn, hw)
    model = rt.ModelProfile(num_layers=1, num_experts=num_experts, top_k=1, hidden_size=1, intermediate_size=1)
    # a few hot experts, so replicas pay off
    weights = rng.dirichlet(np.full(num_experts, float(rng.uniform(0.2, 2.0))))
    x = rng.multinomial(int(rng.integers(20, 400)), weights, size=g).astype(float)
    return x, ro.lpt_initial(x, topo), topo, model, hw, rep.ReplicaConfig(int(rng.integers(1, 4)))


class TestTokenSplitLP:
    def test_home_only_forced(self):
        x, plan, topo = twelve_vs_four()
        placement = rep.ReplicaPlacement(home=plan.assignment)
        split = rep.solve_token_split_lp(x, placement, topo, UNIT_MODEL, COMM_FREE)
        assert split.fractions == {}
        assert objective(x, placement, split, topo, UNIT_MODEL, COMM_FREE) == pytest.approx(12.0)

    def test_analytic_two_thirds_split(self):
        x, plan, topo = twelve_vs_four()
        placement = rep.ReplicaPlacement(home=plan.assignment, replicas={0: [1]})
        split = rep.solve_token_split_lp(x, placement, topo, UNIT_MODEL, COMM_FREE)
        assert split.fractions[0][0] == pytest.approx([2 / 3, 1 / 3], abs=1e-9)
        loads = cm.compute_loads(x, plan.assignment, topo, splits=split.to_split_map(placement))
        np.testing.assert_allclose(loads[COMP], [8.0, 8.0], atol=1e-9)

    def test_never_worse_than_home_only(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            x, plan, topo, model, hw = random_instance(rng)
            home_only = rep.ReplicaPlacement(home=plan.assignment)
            base = objective(x, home_only, rep.SplitPlan(), topo, model, hw)
            e = int(rng.integers(0, x.shape[1]))
            cands = rep.candidate_gpus(e, plan.assignment, topo)
            if not cands:
                continue
            placement = rep.ReplicaPlacement(home=plan.assignment, replicas={e: [cands[0]]})
            split = rep.solve_token_split_lp(x, placement, topo, model, hw)
            rep.validate_split(split, placement, x)
            assert objective(x, placement, split, topo, model, hw) <= base + 1e-9 * max(base, 1.0)

    def test_conservation_and_coupling_hold(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            x, plan, topo, model, hw = random_instance(rng)
            placement = rep.ReplicaPlacement(home=plan.assignment)
            for e in range(x.shape[1]):
                cands = rep.candidate_gpus(e, plan.assignment, topo)
                if cands and rng.random() < 0.5:
                    placement.replicas[e] = list(rng.choice(cands, size=1))
            split = rep.solve_token_split_lp(x, placement, topo, model, hw)
            rep.validate_split(split, placement, x)

    def test_second_replica_keeps_budget(self):
        # three copies of one expert; fractions per source still sum to one
        hw = HardwareProfile(6.0, 1e18, 1e18, 1.0)
        topo = build_topology(1, 3, hw)
        model = rt.ModelProfile(num_layers=1, num_experts=3, top_k=1, hidden_size=1, intermediate_size=1)
        x = np.array([[30.0, 0, 0], [0, 3.0, 0], [0, 0, 3.0]])
        plan = ro.ReorderPlan(np.array([0, 1, 2]))
        placement = rep.ReplicaPlacement(home=plan.assignment, replicas={0: [1, 2]})
        split = rep.solve_token_split_lp(x, placement, topo, model, hw)
        rep.validate_split(split, placement, x)
        loads = cm.compute_loads(x, plan.assignment, topo, splits=split.to_split_map(placement))
        np.testing.assert_allclose(loads[COMP], [12.0, 12.0, 12.0], atol=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_split_plan_matches_per_variable_loop(self, seed):
        rng = np.random.default_rng(seed)
        x, plan, topo, model, hw = random_instance(rng, max_experts=8)
        lp = rep.TokenSplitLP(x, plan.assignment, topo, model, hw)
        adds = [(int(e), int(g)) for e in rng.permutation(x.shape[1])
                for g in rng.permutation(rep.candidate_gpus(int(e), plan.assignment, topo))
                if rng.random() < 0.6]
        for e, g in adds[:-1]:
            lp.add_replica(e, g)
        lp.solve()
        assert_same_fractions(lp.split_plan(), per_variable_split_plan(lp))
        if adds:
            snap = lp.snapshot()
            lp.add_replica(*adds[-1])
            lp.solve()
            assert_same_fractions(lp.split_plan(), per_variable_split_plan(lp))
            lp.restore(snap)
            assert_same_fractions(lp.split_plan(), per_variable_split_plan(lp))
        # LP values off by up to 1e-7: clipping leaves renormalizing sums that differ from 1.0
        values = lp.solver.solution()
        values[lp.N_AUX:] += rng.uniform(-1e-7, 1e-7, size=len(lp.var_meta))
        lp.solver.solution = lambda: values
        assert_same_fractions(lp.split_plan(), per_variable_split_plan(lp))

    def test_split_plan_divides_by_renormalizing_sum(self, monkeypatch):
        hw = HardwareProfile(6.0, 1e18, 1e18, 1.0)
        topo = build_topology(1, 3, hw)
        model = rt.ModelProfile(num_layers=1, num_experts=3, top_k=1, hidden_size=1, intermediate_size=1)
        x = np.array([[30.0, 0, 0], [0, 3.0, 0], [0, 0, 3.0]])
        lp = rep.TokenSplitLP(x, np.array([0, 1, 2]), topo, model, hw)
        lp.add_replicas([(0, 1), (0, 2)])
        lp.solve()
        # source 0's two replica columns: -4e-7 clips to 0, so the copies sum to 1 + 4e-7
        values = np.concatenate([np.zeros(lp.N_AUX), [-4e-7, 0.37]])
        monkeypatch.setattr(lp.solver, "solution", lambda: values)
        raw = np.array([1.0 - (-4e-7 + 0.37), 0.0, 0.37])
        assert lp.split_plan().fractions[0][0].tolist() == (raw / raw.sum()).tolist()
        assert (raw / raw.sum()).tolist() != (raw * (1.0 / raw.sum())).tolist()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
    def test_batch_build_matches_per_pair_loop(self, seed, cut_frac):
        rng = np.random.default_rng(seed)
        x, plan, topo, model, hw = random_instance(rng, max_experts=8)
        pairs = random_pairs(rng, plan, topo, x.shape[1])
        cut = int(cut_frac * len(pairs))
        lp = rep.TokenSplitLP(x, plan.assignment, topo, model, hw)
        ref = rep.TokenSplitLP(x, plan.assignment, topo, model, hw)
        lp.add_replicas(pairs[:cut])
        for e, g in pairs[:cut]:
            add_replica_per_pair(ref, e, g)
        assert_same_lp(lp, ref)
        assert lp.solve() == ref.solve()
        assert_same_lp(lp, ref)
        # a batch appended to a warm-started LP
        lp.add_replicas(pairs[cut:])
        for e, g in pairs[cut:]:
            add_replica_per_pair(ref, e, g)
        assert_same_lp(lp, ref)
        assert lp.solve() == ref.solve()
        assert_same_lp(lp, ref)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_invalid_pair_in_batch_leaves_lp_unchanged(self, seed, at_home):
        rng = np.random.default_rng(seed)
        x, plan, topo, model, hw = random_instance(rng, max_experts=8)
        pairs = random_pairs(rng, plan, topo, x.shape[1])
        if not pairs:
            return
        lp, ref, per_pair = (rep.TokenSplitLP(x, plan.assignment, topo, model, hw) for _ in range(3))
        head, tail = pairs[: len(pairs) // 2], pairs[len(pairs) // 2:]
        for built in (lp, ref, per_pair):
            built.add_replicas(head)
        e, g = tail[0]
        # the expert's home GPU, or a GPU the batch already gave it
        bad = (e, int(plan.assignment[e])) if at_home else (e, g)
        batch = tail[:1] + [bad] + tail[1:]
        message = rf"^expert {e} already has a copy on GPU {bad[1]}$"
        with pytest.raises(ValueError, match=message):
            lp.add_replicas(batch)
        assert_same_lp(lp, ref)
        with pytest.raises(ValueError, match=message):
            for pair in batch:
                add_replica_per_pair(per_pair, *pair)

    def test_split_residual_beyond_tolerance_raises(self, monkeypatch):
        x, plan, topo = twelve_vs_four()
        lp = rep.TokenSplitLP(x, plan.assignment, topo, UNIT_MODEL, COMM_FREE)
        lp.add_replica(0, 1)
        lp.solve()

        def stub_solution(v):
            values = np.concatenate([np.zeros(lp.N_AUX), np.full(len(lp.var_meta), v)])
            monkeypatch.setattr(lp.solver, "solution", lambda: values)

        stub_solution(1.5)
        with pytest.raises(LPError, match=r"expert 0 from source 0 sum to 1\.5, 5\.000e-01 outside"):
            lp.split_plan()
        stub_solution(1.0 + 1e-9)  # drift within tolerance is renormalized
        assert lp.split_plan().fractions[0][0].tolist() == [0.0, 1.0]

    def test_infeasible_placement_rejected(self):
        x, plan, topo = twelve_vs_four()
        off_node = rep.ReplicaPlacement(home=plan.assignment, replicas={0: [0]})
        with pytest.raises(ValueError):
            rep.solve_token_split_lp(x, off_node, topo, UNIT_MODEL, COMM_FREE)


class TestGreedy:
    def test_zero_slots_home_only(self):
        x, plan, topo = twelve_vs_four()
        placement, split = rep.greedy_replicate(x, plan, topo, UNIT_MODEL, COMM_FREE, rep.ReplicaConfig(0))
        assert placement.replicas == {}
        assert split.fractions == {}

    def test_zero_tokens_home_only(self):
        _, plan, topo = twelve_vs_four()
        x = np.zeros((2, 2))
        placement, split = rep.greedy_replicate(x, plan, topo, UNIT_MODEL, COMM_FREE, rep.ReplicaConfig(1))
        assert placement.replicas == {}

    def test_twelve_vs_four_single_iteration(self):
        x, plan, topo = twelve_vs_four()
        placement, split = rep.greedy_replicate(x, plan, topo, UNIT_MODEL, COMM_FREE, rep.ReplicaConfig(1))
        assert placement.replicas == {0: [1]}
        loads = cm.compute_loads(x, plan.assignment, topo, splits=split.to_split_map(placement))
        np.testing.assert_allclose(loads[COMP], [8.0, 8.0], atol=1e-6)
        assert rt.skewness(loads[COMP]) == pytest.approx(1.0, abs=1e-9)

    def test_never_worse_than_home_only_and_slots_respected(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            x, plan, topo, model, hw = random_instance(rng)
            r = int(rng.integers(0, 3))
            cfg = rep.ReplicaConfig(r)
            placement, split = rep.greedy_replicate(x, plan, topo, model, hw, cfg)
            rep.validate_placement(placement, topo, cfg)
            rep.validate_split(split, placement, x)
            base = objective(x, rep.ReplicaPlacement(home=plan.assignment), rep.SplitPlan(), topo, model, hw)
            got = objective(x, placement, split, topo, model, hw)
            assert got <= base + 1e-9 * max(base, 1.0)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_skipping_optimal_trials_matches_always_solve_loop(self, seed):
        x, plan, topo, model, hw, cfg = greedy_instance(np.random.default_rng(seed))
        placement, split = rep.greedy_replicate(x, plan, topo, model, hw, cfg)
        ref_placement, ref_split, trials = always_solve_greedy(x, plan, topo, model, hw, cfg)
        # every trial the greedy skips (optimal before its solve) is one the reference rejects
        assert (True, True) not in trials
        assert placement.replicas == ref_placement.replicas
        assert_same_fractions(split, ref_split.fractions)

    def test_skipped_trials_occur_after_acceptances(self):
        # the property above is not vacuous: skippable rollbacks follow accepted trials
        skipped = accepted = 0
        for seed in range(40):
            _, _, trials = always_solve_greedy(*greedy_instance(np.random.default_rng(seed)))
            skipped += sum(optimal for optimal, _ in trials)
            accepted += sum(ok for _, ok in trials)
        assert skipped >= 20 and accepted >= 40, (skipped, accepted)

    def test_candidate_locality(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            x, plan, topo, model, hw = random_instance(rng)
            placement, _ = rep.greedy_replicate(x, plan, topo, model, hw, rep.ReplicaConfig(2))
            for e, gpus in placement.replicas.items():
                home_node = topo.node_of(int(plan.assignment[e]))
                for g in gpus:
                    assert topo.node_of(g) == home_node


class TestExactOracle:
    def test_r_zero_unique(self):
        x, plan, topo = twelve_vs_four()
        placement, split = exact_milp_small(x, plan, topo, UNIT_MODEL, COMM_FREE, rep.ReplicaConfig(0))
        assert placement.replicas == {}

    def test_matches_greedy_on_analytic_instance(self):
        x, plan, topo = twelve_vs_four()
        cfg = rep.ReplicaConfig(1)
        p_g, s_g = rep.greedy_replicate(x, plan, topo, UNIT_MODEL, COMM_FREE, cfg)
        p_o, s_o = exact_milp_small(x, plan, topo, UNIT_MODEL, COMM_FREE, cfg)
        got = objective(x, p_o, s_o, topo, UNIT_MODEL, COMM_FREE)
        assert got == pytest.approx(objective(x, p_g, s_g, topo, UNIT_MODEL, COMM_FREE), rel=1e-9)

    def test_objective_non_increasing_in_r(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            x, plan, topo, model, hw = random_instance(rng)
            values = []
            for r in (0, 1, 2):
                placement, split = exact_milp_small(x, plan, topo, model, hw, rep.ReplicaConfig(r))
                values.append(objective(x, placement, split, topo, model, hw))
            assert values[1] <= values[0] + 1e-9
            assert values[2] <= values[1] + 1e-9

    def test_oracle_never_above_greedy(self):
        rng = np.random.default_rng(13)
        for _ in range(15):
            x, plan, topo, model, hw = random_instance(rng)
            cfg = rep.ReplicaConfig(1)
            p_g, s_g = rep.greedy_replicate(x, plan, topo, model, hw, cfg)
            p_o, s_o = exact_milp_small(x, plan, topo, model, hw, cfg)
            assert (objective(x, p_o, s_o, topo, model, hw)
                    <= objective(x, p_g, s_g, topo, model, hw) + 1e-9)

    def test_guard_rejects_huge_spaces(self):
        hw = HardwareProfile(1e12, 1e9, 1e8, 1.0)
        topo = build_topology(1, 8, hw)
        model = rt.ModelProfile(num_layers=1, num_experts=64, top_k=1)
        x = np.ones((8, 64))
        plan = ro.static_plan(64, topo)
        with pytest.raises(InstanceTooLargeError):
            exact_milp_small(x, plan, topo, model, hw, rep.ReplicaConfig(2))


class TestReplicaMemory:
    def test_zero_slots(self):
        model = rt.ModelProfile(num_layers=48, num_experts=8, top_k=1, expert_param_bytes=1000)
        assert rep.replica_memory(model, rep.ReplicaConfig(0), "per-layer") == 0
        assert rep.replica_memory(model, rep.ReplicaConfig(0), "layer-shared") == 0

    def test_layer_shared_is_l_times_smaller(self):
        model = rt.ModelProfile(num_layers=48, num_experts=8, top_k=1, expert_param_bytes=1000)
        per_layer = rep.replica_memory(model, rep.ReplicaConfig(2), "per-layer")
        shared = rep.replica_memory(model, rep.ReplicaConfig(2), "layer-shared")
        assert per_layer == 48 * shared
        assert shared == 2 * 1000

    def test_single_layer_schemes_coincide(self):
        model = rt.ModelProfile(num_layers=1, num_experts=8, top_k=1, expert_param_bytes=5)
        assert (rep.replica_memory(model, rep.ReplicaConfig(3), "per-layer")
                == rep.replica_memory(model, rep.ReplicaConfig(3), "layer-shared"))

    def test_unknown_scheme(self):
        model = rt.ModelProfile(num_layers=1, num_experts=8, top_k=1)
        with pytest.raises(ValueError):
            rep.replica_memory(model, rep.ReplicaConfig(1), "global")


class TestPlanSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(19)
        x, plan, topo, model, hw = random_instance(rng)
        placement, split = rep.greedy_replicate(x, plan, topo, model, hw, rep.ReplicaConfig(2))
        entry = rep.ReplicationEntry(placement, split, 1.5)
        original = rep.ReplicationPlan(entries={(0, 0): entry})
        data = planio.replication_plan_to_dict(original)
        loaded = planio.replication_plan_from_dict(data, [plan.assignment], topo.num_gpus)
        got = loaded.entries[(0, 0)]
        assert got.placement.replicas == placement.replicas
        assert got.objective == 1.5
        for e, frac in split.fractions.items():
            np.testing.assert_allclose(got.split.fractions[e], frac, atol=1e-12)
