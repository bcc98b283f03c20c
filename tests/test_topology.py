import numpy as np
import pytest

from moebalance.topology import (
    ClusterTopology,
    HardwareProfile,
    TrafficClass,
    build_topology,
)

PROFILE = HardwareProfile(flops_per_gpu=1e12, bw_nvlink=1e9, bw_rdma=1e8, bytes_per_token=2048)


def test_two_by_two_numbering():
    topo = build_topology(2, 2, PROFILE)
    assert topo.num_gpus == 4
    assert [topo.node_of(g) for g in range(4)] == [0, 0, 1, 1]
    assert [topo.gpu_id(n, r) for n in range(2) for r in range(2)] == [0, 1, 2, 3]


def test_node_major_index_arithmetic():
    topo = build_topology(2, 8, PROFILE)
    assert topo.num_gpus == 16
    assert topo.node_of(9) == 1
    assert topo.gpu_id(1, 1) == 9


def test_classification_examples():
    topo = build_topology(2, 2, PROFILE)
    assert topo.class_matrix[0].tolist() == [TrafficClass.LOC, TrafficClass.NV, TrafficClass.SR, TrafficClass.CR]


def test_single_gpu_everything_local():
    topo = build_topology(1, 1, PROFILE)
    assert topo.class_matrix.tolist() == [[TrafficClass.LOC]]


def test_single_node_never_crosses():
    topo = build_topology(1, 4, PROFILE)
    assert topo.class_matrix[0, 1] == TrafficClass.NV
    classes = set(topo.class_matrix.ravel().tolist())
    assert TrafficClass.SR not in classes
    assert TrafficClass.CR not in classes


def test_relay_is_rail_matched_gpu_on_source_node():
    topo = build_topology(2, 2, PROFILE)
    assert topo.relay_matrix[0, 3] == 1
    assert topo.relay_matrix[3, 0] == 2
    # on every cross-rail pair the relay shares the source's node and the destination's rail
    topo = build_topology(3, 4, PROFILE)
    for a, b in zip(*np.nonzero(topo.class_matrix == TrafficClass.CR)):
        relay = int(topo.relay_matrix[a, b])
        assert topo.node_of(relay) == topo.node_of(int(a))
        assert topo.class_matrix[relay, b] == TrafficClass.SR


@pytest.mark.parametrize("nodes,gpn", [(1, 1), (1, 4), (2, 2), (3, 4), (4, 8)])
def test_classification_symmetric_and_total(nodes, gpn):
    topo = build_topology(nodes, gpn, PROFILE)
    g = topo.num_gpus
    classes = topo.class_matrix
    assert classes.shape == (g, g)
    assert np.array_equal(classes, classes.T)
    counts = {cls: int((classes == cls).sum()) for cls in TrafficClass}
    assert sum(counts.values()) == g * g
    assert counts[TrafficClass.LOC] == g
    assert counts[TrafficClass.NV] == nodes * gpn * (gpn - 1)
    assert counts[TrafficClass.SR] == gpn * nodes * (nodes - 1)


def test_rejects_invalid_construction():
    with pytest.raises(ValueError):
        build_topology(0, 2, PROFILE)
    with pytest.raises(ValueError):
        build_topology(2, 0, PROFILE)
    with pytest.raises(ValueError):
        HardwareProfile(0.0, 1e9, 1e8, 1.0)
    with pytest.raises(ValueError):
        HardwareProfile(1e12, -1e9, 1e8, 1.0)
    with pytest.raises(ValueError):
        HardwareProfile(1e12, 1e9, float("inf"), 1.0)


def test_rejects_bad_gpu_ids():
    topo = build_topology(2, 2, PROFILE)
    with pytest.raises(ValueError, match=r"GPU id 4 out of range \[0, 4\)"):
        topo.node_of(4)
    with pytest.raises(ValueError, match=r"GPU id -1 out of range"):
        topo.node_of(-1)
