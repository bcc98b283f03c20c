"""Property tests of the dispatch+combine charge operator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from moebalance.topology import HardwareProfile, TrafficClass, build_topology

HW = HardwareProfile(flops_per_gpu=1e12, bw_nvlink=1e9, bw_rdma=1e8)
COMP, NV_TX, NV_RX, RDMA_TX, RDMA_RX = range(5)


@st.composite
def topo_and_flow(draw):
    topo = build_topology(draw(st.integers(1, 4)), draw(st.integers(1, 4)), HW)
    g = topo.num_gpus
    masses = st.one_of(st.just(0.0), st.integers(0, 5000).map(float),
                       st.floats(0.0, 1e4, allow_nan=False, allow_infinity=False))
    return topo, draw(arrays(np.float64, (g, g), elements=masses))


def loop_loads(topo, flow):
    """Per-pair reference: each token is computed at its destination, then
    dispatch and combine each cross NVLink inside a node, RDMA between
    same-rail GPUs, or NVLink to the rail-matched relay and then RDMA."""
    g, gpn = topo.num_gpus, topo.gpus_per_node
    out = np.zeros((5, g))
    for src in range(g):
        for dst in range(g):
            m = flow[src, dst]
            out[COMP, dst] += m
            for a, b in ((src, dst), (dst, src)):
                if a == b:
                    continue
                if a // gpn == b // gpn:
                    out[NV_TX, a] += m
                    out[NV_RX, b] += m
                elif a % gpn == b % gpn:
                    out[RDMA_TX, a] += m
                    out[RDMA_RX, b] += m
                else:
                    relay = (a // gpn) * gpn + b % gpn
                    out[NV_TX, a] += m
                    out[NV_RX, relay] += m
                    out[RDMA_TX, relay] += m
                    out[RDMA_RX, b] += m
    return out


@settings(max_examples=60, deadline=None)
@given(topo_and_flow())
def test_matches_per_pair_loop(case):
    topo, flow = case
    np.testing.assert_allclose(topo.charges.loads(flow), loop_loads(topo, flow), rtol=1e-12, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(topo_and_flow())
def test_conservation(case):
    topo, flow = case
    loads = topo.charges.loads(flow)
    scale = max(flow.sum(), 1.0)
    np.testing.assert_allclose(loads[COMP], flow.sum(axis=0), rtol=1e-12, atol=1e-12 * scale)
    assert abs(loads[NV_TX].sum() - loads[NV_RX].sum()) <= 1e-12 * scale
    assert abs(loads[RDMA_TX].sum() - loads[RDMA_RX].sum()) <= 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(topo_and_flow())
def test_local_pairs_charge_no_link(case):
    topo, flow = case
    local = np.diag(np.diag(flow))
    loads = topo.charges.loads(local)
    assert not loads[1:].any()
    np.testing.assert_array_equal(loads[COMP], np.diag(flow))


def test_operator_is_cached_per_topology():
    topo = build_topology(2, 4, HW)
    assert topo.charges is topo.charges


# positions one token charges per traffic class: its computation, then two
# hops each way (nv, sr) or four each way through the relay (cr)
CHARGES_PER_CLASS = {TrafficClass.LOC: 1, TrafficClass.NV: 5, TrafficClass.SR: 5, TrafficClass.CR: 9}


@pytest.mark.parametrize("nodes,gpus_per_node", [(1, 1), (1, 4), (2, 1), (2, 4), (3, 5), (4, 8), (8, 8)])
def test_each_pair_charges_distinct_positions_per_class(nodes, gpus_per_node):
    topo = build_topology(nodes, gpus_per_node, HW)
    ops = topo.charges
    g = topo.num_gpus
    counts = np.diff(ops.offsets)
    want = np.vectorize(CHARGES_PER_CLASS.get)(topo.class_matrix.ravel())
    np.testing.assert_array_equal(counts, want)
    for p in range(g * g):
        charged = ops.positions[ops.offsets[p]:ops.offsets[p + 1]]
        # ascending and so distinct: one token adds exactly 1 at each position
        assert (np.diff(charged) > 0).all(), p
        assert charged.min() >= 0 and charged.max() < 5 * g


@pytest.mark.parametrize("nodes,gpus_per_node", [(1, 1), (1, 4), (2, 4), (4, 8)])
def test_pair_array_form_matches_dense_and_unit_flows(nodes, gpus_per_node):
    topo = build_topology(nodes, gpus_per_node, HW)
    ops = topo.charges
    g = topo.num_gpus
    src, dst = np.divmod(np.arange(g * g), g)
    stacked = ops.dense()[src, dst]
    assert stacked.shape == (g * g, 5, g)
    assert set(np.unique(stacked).tolist()) <= {0.0, 1.0}
    unit = np.zeros((g, g))
    for p, (s, d) in enumerate(zip(src.tolist(), dst.tolist())):
        unit[s, d] = 1.0
        np.testing.assert_array_equal(stacked[p], ops.loads(unit))
        unit[s, d] = 0.0


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_pair_entries_are_the_nonzero_pair_loads(nodes, gpus_per_node, data):
    topo = build_topology(nodes, gpus_per_node, HW)
    ops = topo.charges
    g = topo.num_gpus
    gpus = st.integers(0, g - 1)
    src = np.array(data.draw(st.lists(gpus, max_size=12)), dtype=np.int64)
    dst = np.array(data.draw(st.lists(gpus, min_size=src.size, max_size=src.size)), dtype=np.int64)
    k, positions = ops.pair_entries(src, dst)
    assert k.tolist() == sorted(k.tolist())
    got = np.zeros((src.size, 5 * g))
    got[k, positions] = 1.0
    want = ops.dense()[src, dst].reshape(src.size, 5 * g)
    np.testing.assert_array_equal(got, want)
    # exactly the nonzero positions, each once
    assert np.count_nonzero(want) == positions.size
    assert len(set(zip(k.tolist(), positions.tolist()))) == positions.size
