import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moebalance import costmodel as cm
from moebalance import reorder as ro
from moebalance import replicate as rep
from moebalance import routing as rt
from moebalance.routing import ModelProfile
from moebalance.topology import (
    COMP,
    NVLINK_RX,
    NVLINK_TX,
    RDMA_RX,
    RDMA_TX,
    ChargeOperator,
    HardwareProfile,
    build_topology,
)

from oracles import split_table

HW = HardwareProfile(flops_per_gpu=1e12, bw_nvlink=1e9, bw_rdma=1e8, bytes_per_token=1.0)
MODEL = ModelProfile(num_layers=1, num_experts=2, top_k=1, hidden_size=1024, intermediate_size=512)
QUICKSTART_HW = HardwareProfile(flops_per_gpu=2.577e10, bw_nvlink=4.5e5, bw_rdma=2.5e4, bytes_per_token=1.0)


def one_node_pair():
    return build_topology(1, 2, HW)


def test_comp_loads_direct_sum():
    topo = one_node_pair()
    x = np.array([[3, 1], [2, 4]])
    loads = cm.compute_loads(x, np.array([0, 1]), topo)
    assert loads[COMP].tolist() == [5.0, 5.0]


def test_dispatch_combine_mirror():
    topo = one_node_pair()
    x = np.array([[0, 7], [0, 0]])
    loads = cm.compute_loads(x, np.array([0, 1]), topo)
    # dispatch: tx at 0, rx at 1; combine mirrors
    assert loads[NVLINK_TX].tolist() == [7.0, 7.0]
    assert loads[NVLINK_RX].tolist() == [7.0, 7.0]
    assert loads[RDMA_TX].tolist() == [0.0, 0.0]


def test_cross_rail_relay_accounting():
    topo = build_topology(2, 2, HW)
    x = np.zeros((4, 1))
    x[0, 0] = 7
    loads = cm.compute_loads(x, np.array([3]), topo)
    # dispatch 0 -> relay 1 -> 3; combine 3 -> relay 2 -> 0
    assert loads[NVLINK_TX].tolist() == [7.0, 0.0, 0.0, 7.0]
    assert loads[NVLINK_RX].tolist() == [0.0, 7.0, 7.0, 0.0]
    assert loads[RDMA_TX].tolist() == [0.0, 7.0, 7.0, 0.0]
    assert loads[RDMA_RX].tolist() == [7.0, 0.0, 0.0, 7.0]


def comp_seconds(tokens, model, hw):
    loads = np.zeros((5, 1))
    loads[COMP] = tokens
    return cm.TimeUnits.of(model, hw, 1).times(loads)[COMP, 0]


def test_comp_time_formula():
    assert comp_seconds(0, MODEL, HW) == 0.0
    got = comp_seconds(100, MODEL, HW)
    assert got == pytest.approx(3.145728e-4, rel=1e-12)
    assert comp_seconds(200, MODEL, HW) == pytest.approx(2 * got, rel=1e-12)


def test_comm_time_direction_max():
    loads = np.zeros((5, 1))
    loads[NVLINK_TX] = 10.0
    loads[RDMA_RX] = 10.0
    hw = HardwareProfile(1e12, 1e9, 1e8, 1.0)
    t = cm.moe_time(loads, MODEL, hw).comm_times
    # rdma term dominates by the 10x bandwidth gap
    assert t[0] == pytest.approx(10.0 / 1e8)
    assert cm.moe_time(np.zeros((5, 1)), MODEL, hw).comm_times[0] == 0.0


def test_moe_time_sums_independent_maxima():
    # comp times (3, 1) and comm times (0.5, 2) must combine to 3 + 2 = 5
    model = ModelProfile(1, 2, 1, hidden_size=1, intermediate_size=1)
    hw = HardwareProfile(6.0, 1.0, 1.0, 1.0)  # comp unit = 1 s/token, links 1 token/s
    loads = np.zeros((5, 2))
    loads[COMP] = [3.0, 1.0]
    loads[NVLINK_TX] = [0.5, 2.0]
    assert cm.moe_time(loads, model, hw).t_moe == pytest.approx(5.0)


def test_moe_time_gpu_permutation_invariant():
    rng = np.random.default_rng(5)
    topo = build_topology(2, 2, HW)
    model = ModelProfile(1, 8, 2, hidden_size=64, intermediate_size=32)
    x = rng.integers(0, 50, size=(4, 8)).astype(float)
    placement = rng.integers(0, 4, size=8)
    base = cm.moe_time(cm.compute_loads(x, placement, topo), model, HW).t_moe
    # swap the two nodes wholesale: node/rail structure is preserved
    perm = np.array([2, 3, 0, 1])
    x2 = x[np.argsort(perm), :]
    placement2 = perm[placement]
    got = cm.moe_time(cm.compute_loads(x2, placement2, topo), model, HW).t_moe
    assert got == pytest.approx(base, rel=1e-12)


def test_planners_convert_loads_like_the_evaluator():
    # every planner sums integer loads exactly, so equal times need the
    # evaluator's own loads-to-seconds arithmetic, not one close to it
    hw = QUICKSTART_HW
    topo = build_topology(2, 4, hw)
    g = topo.num_gpus
    model = ModelProfile(num_layers=2, num_experts=16, top_k=2)
    for seed in range(10):
        spec = rt.TraceGenSpec(num_domains=2, dirichlet_alpha=0.4, tokens_per_gpu=1024, rng_seed=seed,
                               samples_per_gpu=2)
        trace = rt.generate_synthetic_trace(spec, model, topo, 3)
        plans = [ro.lpt_initial(rt.aggregate_batch(trace, layer), topo) for layer in range(2)]
        for layer, plan in enumerate(plans):
            x = rt.aggregate_batch(trace, layer).astype(np.float64)
            est = cm.moe_time(cm.compute_loads(x, plan.assignment, topo), model, hw, beta=20.0)
            state = ro.AnnealState(x, plan.assignment, topo, model, hw, beta=20.0)
            assert state.exact_time() == est.t_moe
            assert state.smoothed_time() == est.t_moe_smoothed
            lp = rep.TokenSplitLP(x, plan.assignment, topo, model, hw)
            assert lp.t0_comp + lp.t0_comm == est.t_moe
            rhs = lp.solver.rhs
            assert np.array_equal(rhs[:g], est.comp_times.max() - est.comp_times)
            # t0 - t never rises with t, so a GPU's tightest link row is its slowest direction
            assert np.array_equal(rhs[g:].reshape(4, g).min(axis=0), est.comm_times.max() - est.comm_times)
        samples = ro._SampleState(trace, plans, topo, model, hw, beta=20.0)
        for i, gpu in enumerate(trace.samples.source_gpu):
            samples.loads5[trace.samples.micro_batch[i]] += (samples.dst_mass[i] @ samples.dense[gpu]).reshape(-1, 5, g)
        for mb in range(trace.num_micro_batches):
            exact = sum(
                cm.moe_time(cm.compute_loads(trace.matrices[mb, layer], plans[layer].assignment, topo),
                            model, hw).t_moe
                for layer in range(2)
            )
            assert samples.entry_exact(mb) == exact


def test_lse_values():
    assert cm.lse([3.5], 20.0) == pytest.approx(3.5)
    assert cm.lse([1.0, 1.0], 20.0) == pytest.approx(1.0 + math.log(2) / 20.0, rel=1e-12)
    assert cm.lse([0.0, 1.0], 20.0) == pytest.approx(1.0 + math.log1p(math.exp(-20.0)) / 20.0, rel=1e-12)


def test_lse_rejects_bad_input():
    with pytest.raises(ValueError):
        cm.lse([], 20.0)
    with pytest.raises(ValueError):
        cm.lse([1.0], 0.0)


def test_lse_bound_property():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = rng.integers(1, 64)
        values = rng.normal(0, 3, size=n)
        for beta in (1.0, 20.0, 1e6):
            got = cm.lse(values, beta)
            assert got >= values.max() - 1e-12
            assert got <= values.max() + math.log(n) / beta + 1e-12


@st.composite
def row_stacks(draw):
    rows = draw(st.integers(1, 6))
    n = draw(st.sampled_from([1, 2, 3, 7, 8, 9, 31, 32, 33, 127, 128, 129, 160, 300]))
    seed = draw(st.integers(0, 2**32 - 1))
    scale = draw(st.sampled_from([1e-6, 1.0, 1e3]))
    beta = draw(st.sampled_from([1.0, 20.0, 1e3, 1e6]))
    values = np.random.default_rng(seed).exponential(scale, size=(rows, n))
    return values, beta


@settings(max_examples=80, deadline=None)
@given(row_stacks())
def test_lse_rows_equals_lse_per_row(case):
    values, beta = case
    assert cm.lse_rows(values, beta) == [cm.lse(row, beta) for row in values]
    # a column slice of a wider stack, as the smoothed rows take them
    wide = np.hstack([values, values[:, ::-1]])
    n = values.shape[1]
    assert cm.lse_rows(wide[:, n:], beta) == [cm.lse(row[n:], beta) for row in wide]


def test_lse_rows_keeps_the_scalar_log():
    # exp sums spread over [1, 2), where numpy's vectorized log differs from
    # math.log in the last bit for about 0.4% of arguments
    u = np.random.default_rng(5).uniform(0.0, 1.0, size=5000)
    values = np.stack([np.zeros_like(u), np.log(u)], axis=1)
    assert cm.lse_rows(values, 1.0) == [cm.lse(row, 1.0) for row in values]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(1, 40), st.integers(0, 2**32 - 1),
       st.sampled_from([1.0, 20.0, 1e6]))
def test_smoothed_rows_equals_smoothed(rows, g, seed, beta):
    units = cm.TimeUnits.of(MODEL, QUICKSTART_HW, g)
    loads = np.random.default_rng(seed).integers(0, 200_000, size=(rows, 5, g)).astype(float)
    assert units.smoothed_rows(loads, beta) == [units.smoothed(l5, beta) for l5 in loads]


def test_smoothed_at_least_exact_and_converges():
    # beta is unitful (1/seconds), so the convergence check runs on
    # instances whose times are of order one
    rng = np.random.default_rng(13)
    hw = HardwareProfile(6.0, 10.0, 2.0, 1.0)
    topo = build_topology(2, 2, hw)
    model = ModelProfile(1, 8, 2, hidden_size=1, intermediate_size=1)
    for _ in range(25):
        x = rng.integers(0, 100, size=(4, 8)).astype(float)
        placement = rng.integers(0, 4, size=8)
        loads = cm.compute_loads(x, placement, topo)
        exact = cm.moe_time(loads, model, hw).t_moe
        smoothed = cm.moe_time(loads, model, hw, beta=20.0).t_moe_smoothed
        assert smoothed >= exact - 1e-12
        g = topo.num_gpus
        slack = (2 * math.log(g) + math.log(4)) / 20.0
        assert smoothed <= exact + slack + 1e-12
        tight = cm.moe_time(loads, model, hw, beta=1e6).t_moe_smoothed
        assert abs(tight - exact) < 1e-4 * max(exact, 1e-30)


def test_single_gpu_single_link_degenerate_lse():
    topo = build_topology(1, 1, HW)
    x = np.array([[11.0]])
    loads = cm.compute_loads(x, np.array([0]), topo)
    model = ModelProfile(1, 1, 1, hidden_size=2, intermediate_size=2)
    est = cm.moe_time(loads, model, HW, beta=20.0)
    # all comm is local; the smoothed comm term is an LSE over four zeros
    assert est.t_moe == pytest.approx(comp_seconds(11.0, model, HW))
    assert est.t_moe_smoothed >= est.t_moe


def test_split_conservation_and_symmetry():
    rng = np.random.default_rng(23)
    topo = build_topology(2, 4, HW)
    g, e = 8, 16
    model = ModelProfile(1, e, 4, hidden_size=16, intermediate_size=8)
    for _ in range(20):
        x = rng.integers(0, 40, size=(g, e)).astype(float)
        placement = rng.integers(0, g, size=e)
        # replicate two experts within their home nodes with random splits
        splits = {}
        for expert in rng.choice(e, size=2, replace=False):
            home = int(placement[expert])
            node = topo.node_of(home)
            others = [k for k in topo.node_gpus(node) if k != home]
            copy = int(rng.choice(others))
            frac_replica = rng.uniform(0, 1, size=g)
            frac = np.stack([1 - frac_replica, frac_replica], axis=1)
            splits[int(expert)] = (np.array([home, copy]), frac)
        loads = cm.compute_loads(x, placement, topo, split=split_table(splits))
        assert loads[COMP].sum() == pytest.approx(x.sum(), rel=1e-12)
        assert loads[NVLINK_TX].sum() == pytest.approx(loads[NVLINK_RX].sum(), rel=1e-12)
        assert loads[RDMA_TX].sum() == pytest.approx(loads[RDMA_RX].sum(), rel=1e-12)


def test_home_only_split_matches_no_split():
    rng = np.random.default_rng(31)
    topo = build_topology(2, 2, HW)
    x = rng.integers(0, 30, size=(4, 8)).astype(float)
    placement = rng.integers(0, 4, size=8)
    plain = cm.compute_loads(x, placement, topo)
    one_hot = {
        3: (np.array([placement[3]]), np.ones((4, 1))),
    }
    with_split = cm.compute_loads(x, placement, topo, split=split_table(one_hot))
    np.testing.assert_allclose(with_split, plain, rtol=1e-12)


def test_bad_split_rejected(monkeypatch):
    topo = one_node_pair()
    x = np.array([[10.0, 0.0], [0.0, 4.0]])
    placement = np.array([0, 1])
    bad = {0: (np.array([0, 1]), np.array([[0.5, 0.4], [1.0, 0.0]]))}  # row sums 0.9
    with pytest.raises(ValueError):
        cm.compute_loads(x, placement, topo, split=split_table(bad))
    missing_home = {0: (np.array([1]), np.ones((2, 1)))}
    with pytest.raises(ValueError):
        cm.compute_loads(x, placement, topo, split=split_table(missing_home))
    # NaN compares false against every bound, so it needs its own check
    nan = {0: (np.array([0, 1]), np.array([[np.nan, 1.0], [1.0, 0.0]]))}
    with pytest.raises(ValueError, match="expert 0 are not finite"):
        cm.compute_loads(x, placement, topo, split=split_table(nan))

    # a split valid for expert 1: key -1 would pass every other check if it
    # indexed from the end, so the key check must come before any load
    def no_loads(*args, **kwargs):
        raise AssertionError("loads computed for an invalid split key")

    monkeypatch.setattr(ChargeOperator, "loads", no_loads)
    for key in (-1, x.shape[1]):
        split = {key: (np.array([1, 0]), np.array([[1.0, 0.0], [0.5, 0.5]]))}
        with pytest.raises(ValueError, match="unknown expert"):
            cm.compute_loads(x, placement, topo, split=split_table(split))
        with pytest.raises(ValueError, match="unknown expert"):
            cm.flow_matrix(x, placement, topo, split=split_table(split))


def test_split_table_form_rejected():
    topo = one_node_pair()
    x = np.array([[10.0, 2.0], [0.0, 4.0]])
    placement = np.array([0, 1])
    apart = cm.SplitPlan(np.array([0, 1, 0]), np.array([0, 1, 1]), np.array([[0.5, 1.0], [1.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ValueError, match=r"not adjacent; experts by column run: \[0, 1, 0\]$"):
        cm.flow_matrix(x, placement, topo, apart)
    narrow = cm.SplitPlan(np.array([0]), np.array([0]), np.ones((1, 3)))
    with pytest.raises(ValueError, match=r"split shares have shape \(1, 3\), expected \(1, 2\)$"):
        cm.flow_matrix(x, placement, topo, narrow)


@st.composite
def integer_routing_with_splits(draw):
    nodes = draw(st.integers(1, 3))
    gpn = draw(st.integers(1, 4))
    topo = build_topology(nodes, gpn, HW)
    g = topo.num_gpus
    num_experts = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.integers(0, 5000, size=(g, num_experts)).astype(np.float64)
    x[rng.random(x.shape) < 0.3] = 0.0
    placement = rng.integers(0, g, size=num_experts)
    splits = {}
    for e in rng.permutation(num_experts)[: draw(st.integers(0, num_experts))]:
        e = int(e)
        others = rng.permutation([d for d in range(g) if d != placement[e]])
        gpus = np.array([placement[e], *others[: int(rng.integers(0, len(others) + 1))]])
        splits[e] = (gpus, rng.dirichlet(np.ones(gpus.size), size=g))
    return topo, x, placement, splits


@settings(max_examples=60, deadline=None)
@given(integer_routing_with_splits())
def test_flow_matrix_matches_per_expert_loop(case):
    topo, x, placement, splits = case
    g = topo.num_gpus
    ref = np.zeros((g, g))
    for e in range(x.shape[1]):
        if e not in splits:
            for j in range(g):
                ref[j, placement[e]] += x[j, e]
    for e, (gpus, frac) in splits.items():
        for j in range(g):
            for col, gpu in enumerate(gpus):
                ref[j, gpu] += x[j, e] * frac[j, col]
    assert np.array_equal(cm.flow_matrix(x, placement, topo, split_table(splits)), ref)


def parent_check_split(x, home, e, gpus, frac):
    """costmodel's check of one split expert as it was before the split
    became one table of columns; its messages are the table check's."""
    if home[e] not in gpus:
        raise ValueError(f"split for expert {e} omits its home GPU {home[e]}")
    if frac.shape != (x.shape[0], len(gpus)):
        raise ValueError(f"split fractions for expert {e} have shape {frac.shape}, expected {(x.shape[0], len(gpus))}")
    if not np.isfinite(frac).all():
        raise ValueError(f"split fractions for expert {e} are not finite")
    if frac.min() < -cm.SPLIT_TOL or frac.max() > 1 + cm.SPLIT_TOL:
        raise ValueError(f"split fractions for expert {e} outside [0, 1]")
    active = x[:, e] > 0
    if active.any():
        err = float(np.abs(frac[active].sum(axis=1) - 1.0).max())
        if err > cm.SPLIT_TOL:
            raise ValueError(f"split fractions for expert {e} violate conservation by {err:.3e}")


def parent_flow_matrix(x, placement, topo, splits):
    """costmodel.flow_matrix as it was before its split shares were batched:
    one check and one fancy-indexed add per split expert, in order."""
    g = topo.num_gpus
    num_experts = x.shape[1]
    x = np.asarray(x, dtype=np.float64)
    for e in splits:
        if not 0 <= e < num_experts:
            raise ValueError(f"split entry for unknown expert {e}")
    kept = np.ones(num_experts, dtype=bool)
    kept[list(splits)] = False
    home = np.zeros((num_experts, g))
    home[np.flatnonzero(kept), placement[kept]] = 1.0
    flow = x @ home
    for e, (gpus, frac) in splits.items():
        parent_check_split(x, placement, e, gpus, frac)
        flow[:, gpus] += x[:, e, None] * frac
    return flow


FAULTS = ("none", "nan", "above_one", "below_zero", "leak", "homeless")


@st.composite
def routing_with_faulty_splits(draw):
    """Integer routing, 1-3 copies per split expert in shuffled order and
    LP-like drift within SPLIT_TOL; in half the cases, a fault is drawn per
    split expert."""
    nodes = draw(st.integers(1, 2))
    gpn = draw(st.integers(3, 4))
    topo = build_topology(nodes, gpn, HW)
    g = topo.num_gpus
    num_experts = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.integers(0, 5000, size=(g, num_experts)).astype(np.float64)
    x[rng.random(x.shape) < 0.3] = 0.0
    placement = rng.integers(0, g, size=num_experts)
    splits = {}
    faulty = draw(st.booleans())
    for e in rng.permutation(num_experts)[: draw(st.integers(0, num_experts))]:
        e = int(e)
        others = rng.permutation([d for d in range(g) if d != placement[e]])
        gpus = np.array([placement[e], *others[: int(rng.integers(0, 3))]])
        frac = rng.dirichlet(np.ones(gpus.size), size=g)
        frac[:, 0] += rng.uniform(-0.5, 0.5, size=g) * cm.SPLIT_TOL
        fault = draw(st.sampled_from(FAULTS)) if faulty else "none"
        j, col = int(rng.integers(0, g)), int(rng.integers(0, gpus.size))
        if fault == "nan":
            frac[j, col] = np.nan
        elif fault == "above_one":
            frac[j, col] = 1.5
        elif fault == "below_zero":
            frac[j, col] = -0.25
        elif fault == "leak":
            frac[j] *= 0.9
        elif fault == "homeless" and gpus.size < g:
            gpus[0] = others[gpus.size - 1]
        splits[e] = (gpus, frac)
    return topo, x, placement, splits


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as err:
        return str(err)


@settings(max_examples=150, deadline=None)
@given(routing_with_faulty_splits())
def test_flow_matrix_matches_parent_loop(case):
    topo, x, placement, splits = case
    got = outcome(cm.flow_matrix, x, placement, topo, split_table(splits))
    ref = outcome(parent_flow_matrix, x, placement, topo, splits)
    if isinstance(ref, str):
        assert got == ref  # the same first failing expert, with the same message
    else:
        assert np.array_equal(got, ref)


def test_placement_must_cover_all_experts():
    topo = one_node_pair()
    x = np.array([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        cm.compute_loads(x, np.array([0]), topo)
    with pytest.raises(ValueError):
        cm.compute_loads(x, np.array([0, 5]), topo)
