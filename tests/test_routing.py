import json
import math

import numpy as np
import pytest

from moebalance import routing as rt
from moebalance.topology import HardwareProfile, build_topology

HW = HardwareProfile(flops_per_gpu=1e12, bw_nvlink=1e9, bw_rdma=1e8, bytes_per_token=4096)


def small_topo(nodes=2, gpn=2):
    return build_topology(nodes, gpn, HW)


def make_trace(num_micro_batches=4, layers=2, experts=8, top_k=2, tokens=64, seed=0, **kw):
    topo = small_topo()
    model = rt.ModelProfile(num_layers=layers, num_experts=experts, top_k=top_k)
    spec = rt.TraceGenSpec(num_domains=kw.pop("num_domains", 2), dirichlet_alpha=kw.pop("alpha", 0.5),
                           tokens_per_gpu=tokens, rng_seed=seed, **kw)
    return rt.generate_synthetic_trace(spec, model, topo, num_micro_batches), topo, model


class TestTraceIO:
    def test_round_trip_identity(self, tmp_path):
        trace, _, _ = make_trace(samples_per_gpu=2)
        rt.save_trace(trace, tmp_path / "t")
        loaded = rt.load_trace(tmp_path / "t")
        np.testing.assert_array_equal(loaded.matrices, trace.matrices)
        np.testing.assert_array_equal(loaded.samples.counts, trace.samples.counts)
        np.testing.assert_array_equal(loaded.samples.source_gpu, trace.samples.source_gpu)
        assert loaded.trace_id() == trace.trace_id()

    def test_dimension_mismatch_detected(self, tmp_path):
        trace, _, _ = make_trace()
        rt.save_trace(trace, tmp_path / "t")
        manifest = json.loads((tmp_path / "t" / "manifest.json").read_text())
        manifest["num_experts"] = 128
        (tmp_path / "t" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(rt.TraceFormatError, match="bytes"):
            rt.load_trace(tmp_path / "t")

    def test_missing_manifest_key(self, tmp_path):
        trace, _, _ = make_trace()
        rt.save_trace(trace, tmp_path / "t")
        manifest = json.loads((tmp_path / "t" / "manifest.json").read_text())
        del manifest["top_k"]
        (tmp_path / "t" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(rt.TraceFormatError, match="top_k"):
            rt.load_trace(tmp_path / "t")

    def test_row_sum_violation_detected(self, tmp_path):
        trace, _, _ = make_trace()
        rt.save_trace(trace, tmp_path / "t")
        payload = bytearray((tmp_path / "t" / "routing.bin").read_bytes())
        payload[0] ^= 0xFF  # corrupt one count
        (tmp_path / "t" / "routing.bin").write_bytes(bytes(payload))
        with pytest.raises(rt.TraceFormatError):
            rt.load_trace(tmp_path / "t")

    def test_payload_is_sixteen_bytes_for_two_by_two(self, tmp_path):
        # 1 micro-batch x 1 layer x 2 GPUs x 2 experts = 4 little-endian u32
        topo = build_topology(1, 2, HW)
        model = rt.ModelProfile(num_layers=1, num_experts=2, top_k=2)
        matrices = np.array([[[[3, 1], [2, 4]]]], dtype=np.uint32)
        trace = rt.RoutingTrace(model=model, topo=topo, matrices=matrices, tokens_per_gpu=0)
        rt.save_trace(trace, tmp_path / "t")
        payload = (tmp_path / "t" / "routing.bin").read_bytes()
        assert len(payload) == 16
        assert np.frombuffer(payload, dtype="<u4").tolist() == [3, 1, 2, 4]
        loaded = rt.load_trace(tmp_path / "t")
        np.testing.assert_array_equal(loaded.matrices, matrices)

    def test_fixed_tokens_enforced(self):
        topo = build_topology(1, 2, HW)
        model = rt.ModelProfile(num_layers=1, num_experts=2, top_k=2)
        matrices = np.array([[[[3, 1], [2, 4]]]], dtype=np.uint32)
        trace = rt.RoutingTrace(model=model, topo=topo, matrices=matrices, tokens_per_gpu=2)
        with pytest.raises(rt.TraceFormatError, match="tokens_per_gpu"):
            trace.validate()

    def test_trace_without_micro_batches_rejected(self, tmp_path):
        # the files `gen --micro-batches 0` once wrote: a manifest and an empty routing.bin
        topo = build_topology(1, 2, HW)
        model = rt.ModelProfile(num_layers=1, num_experts=2, top_k=2)
        empty = rt.RoutingTrace(model=model, topo=topo, matrices=np.zeros((0, 1, 2, 2), dtype=np.uint32),
                                tokens_per_gpu=0)
        with pytest.raises(rt.TraceFormatError, match="no micro-batches"):
            empty.validate()
        trace, _, _ = make_trace()
        rt.save_trace(trace, tmp_path / "t")
        manifest = json.loads((tmp_path / "t" / "manifest.json").read_text())
        manifest["num_micro_batches"] = 0
        (tmp_path / "t" / "manifest.json").write_text(json.dumps(manifest))
        (tmp_path / "t" / "routing.bin").write_bytes(b"")
        with pytest.raises(rt.TraceFormatError, match="no micro-batches") as err:
            rt.load_trace(tmp_path / "t")
        assert "\n" not in str(err.value)

    def test_routing_bin_size_past_int64_is_exact(self, tmp_path):
        # 2^20 * 2^20 * 4096 * 4096 * 4 bytes wraps to 0 in int64, which an
        # empty routing.bin would match; the exact size is checked before any array is built
        trace, _, _ = make_trace()
        rt.save_trace(trace, tmp_path / "t")
        manifest = json.loads((tmp_path / "t" / "manifest.json").read_text())
        manifest.update(num_micro_batches=2**20, num_layers=2**20, num_nodes=64, gpus_per_node=64,
                        num_experts=4096)
        (tmp_path / "t" / "manifest.json").write_text(json.dumps(manifest))
        (tmp_path / "t" / "routing.bin").write_bytes(b"")
        with pytest.raises(rt.TraceFormatError, match=f"^routing.bin holds 0 bytes, manifest implies {2**66}$"):
            rt.load_trace(tmp_path / "t")

    def test_cross_layer_consistency_enforced(self):
        topo = build_topology(1, 2, HW)
        model = rt.ModelProfile(num_layers=2, num_experts=2, top_k=1)
        matrices = np.zeros((1, 2, 2, 2), dtype=np.uint32)
        matrices[0, 0] = [[3, 1], [2, 2]]
        matrices[0, 1] = [[2, 1], [2, 2]]  # GPU 0 has 3 tokens at layer 1, 4 at layer 0
        trace = rt.RoutingTrace(model=model, topo=topo, matrices=matrices, tokens_per_gpu=0)
        with pytest.raises(rt.TraceFormatError, match="differ across layers"):
            trace.validate()


class TestGenerator:
    def test_deterministic(self):
        a, _, _ = make_trace(seed=42, samples_per_gpu=2)
        b, _, _ = make_trace(seed=42, samples_per_gpu=2)
        np.testing.assert_array_equal(a.matrices, b.matrices)
        np.testing.assert_array_equal(a.samples.counts, b.samples.counts)

    def test_seed_changes_trace(self):
        a, _, _ = make_trace(seed=1)
        b, _, _ = make_trace(seed=2)
        assert (a.matrices != b.matrices).any()

    def test_row_sum_identity(self):
        trace, _, model = make_trace(tokens=128, top_k=2)
        rows = trace.matrices.astype(np.int64).sum(axis=3)
        assert (rows == 128 * 2).all()

    def test_uniform_limit_balances(self):
        topo = small_topo()
        model = rt.ModelProfile(num_layers=1, num_experts=16, top_k=4)
        spec = rt.TraceGenSpec(num_domains=1, dirichlet_alpha=1e6, tokens_per_gpu=8192, rng_seed=3)
        trace = rt.generate_synthetic_trace(spec, model, topo, 4)
        for mb in range(4):
            loads = trace.matrices[mb, 0].astype(np.int64).sum(axis=0)
            assert rt.skewness(loads) < 1.05

    def test_mixed_domains_fluctuate(self):
        topo = small_topo()
        model = rt.ModelProfile(num_layers=1, num_experts=64, top_k=8)
        spec = rt.TraceGenSpec(num_domains=3, dirichlet_alpha=0.1, tokens_per_gpu=512, rng_seed=9)
        trace = rt.generate_synthetic_trace(spec, model, topo, 12)
        ratios = rt.hot_expert_intersection(trace, 0, 8)
        assert ratios.mean() < 0.5

    def test_sample_rows_rebuild_matrices(self):
        trace, _, _ = make_trace(samples_per_gpu=3, tokens=60)
        trace.validate()  # includes the per-GPU sample-sum cross-check

    @pytest.mark.parametrize("count", [0, -1])
    def test_no_micro_batches_rejected(self, count):
        with pytest.raises(ValueError, match="at least one micro-batch"):
            make_trace(num_micro_batches=count)

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            rt.TraceGenSpec(num_domains=0, dirichlet_alpha=1.0)
        with pytest.raises(ValueError):
            rt.TraceGenSpec(num_domains=1, dirichlet_alpha=0.0)
        with pytest.raises(ValueError):
            rt.TraceGenSpec(num_domains=1, dirichlet_alpha=1.0, domain_focus=1.0)

    @pytest.mark.parametrize("field", ["dirichlet_alpha", "redraw_concentration"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_concentration_rejected(self, field, value):
        # `not inf > 0` is false, so a plain positivity check lets inf through
        with pytest.raises(ValueError, match=f"^{field} must be finite and > 0"):
            rt.TraceGenSpec(**{"num_domains": 1, "dirichlet_alpha": 1.0, field: value})


class TestAggregation:
    def test_single_micro_batch_identity(self):
        trace, _, _ = make_trace(num_micro_batches=1)
        np.testing.assert_array_equal(rt.aggregate_batch(trace, 0), trace.matrices[0, 0])

    def test_elementwise_sum(self):
        topo = build_topology(1, 2, HW)
        model = rt.ModelProfile(num_layers=1, num_experts=2, top_k=1)
        matrices = np.array([
            [[[1, 0], [0, 1]]],
            [[[2, 3], [4, 5]]],
        ], dtype=np.uint32)
        trace = rt.RoutingTrace(model=model, topo=topo, matrices=matrices, tokens_per_gpu=0)
        np.testing.assert_array_equal(rt.aggregate_batch(trace, 0), [[3, 3], [4, 6]])

    def test_partition_linearity(self):
        trace, _, _ = make_trace(num_micro_batches=6)
        full = rt.aggregate_batch(trace, 1)
        split = (trace.matrices[:3, 1].astype(np.int64).sum(axis=0)
                 + trace.matrices[3:, 1].astype(np.int64).sum(axis=0))
        np.testing.assert_array_equal(full, split)
        assert full.sum(axis=1).tolist() == trace.matrices.astype(np.int64)[:, 1].sum(axis=(0, 2)).tolist()

    def test_layer_out_of_range(self):
        trace, _, _ = make_trace(layers=2)
        with pytest.raises(ValueError):
            rt.aggregate_batch(trace, 2)


class TestSkewness:
    def test_examples(self):
        assert rt.skewness([8, 8]) == pytest.approx(1.0)
        assert rt.skewness([12, 4]) == pytest.approx(1.5)
        assert rt.skewness([5]) == pytest.approx(1.0)

    def test_always_at_least_one(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            loads = rng.integers(0, 50, size=rng.integers(1, 20))
            if loads.sum() == 0:
                continue
            s = rt.skewness(loads)
            assert s >= 1.0 - 1e-12
            if np.ptp(loads) == 0:
                assert s == pytest.approx(1.0)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            rt.skewness([0, 0, 0])
        with pytest.raises(ValueError):
            rt.skewness([])


class TestHotIntersection:
    def build(self, per_mb_loads, top_k=4):
        # wrap expert-load rows into a single-source trace
        per_mb = np.asarray(per_mb_loads, dtype=np.uint32)
        mbs, experts = per_mb.shape
        topo = build_topology(1, 1, HW)
        model = rt.ModelProfile(num_layers=1, num_experts=experts, top_k=1)
        matrices = per_mb.reshape(mbs, 1, 1, experts)
        return rt.RoutingTrace(model=model, topo=topo, matrices=matrices, tokens_per_gpu=0)

    def test_identical_sets(self):
        trace = self.build([[9, 7, 5, 3, 1, 0], [90, 70, 50, 30, 10, 0]])
        assert rt.hot_expert_intersection(trace, 0, 4).tolist() == [1.0]

    def test_half_overlap(self):
        a = [0, 10, 10, 10, 10, 0, 0, 0]
        b = [0, 0, 0, 10, 10, 10, 10, 0]
        trace = self.build([a, b])
        # H_t = {1,2,3,4}, H_{t+1} = {3,4,5,6}
        assert rt.hot_expert_intersection(trace, 0, 4).tolist() == [0.5]

    def test_disjoint(self):
        trace = self.build([[5, 5, 0, 0], [0, 0, 5, 5]], top_k=2)
        assert rt.hot_expert_intersection(trace, 0, 2).tolist() == [0.0]

    def test_tie_breaks_toward_lower_index(self):
        trace = self.build([[5, 5, 5, 0], [0, 5, 5, 5]], top_k=2)
        # top-2 of the first row is {0,1}; of the second row {1,2}
        assert rt.hot_expert_intersection(trace, 0, 2).tolist() == [0.5]

    def test_rejects_bad_k(self):
        trace = self.build([[1, 2], [3, 4]])
        with pytest.raises(ValueError):
            rt.hot_expert_intersection(trace, 0, 0)
        with pytest.raises(ValueError):
            rt.hot_expert_intersection(trace, 0, 3)

    def test_ratios_within_unit_interval(self):
        trace, _, _ = make_trace(num_micro_batches=8, tokens=32)
        ratios = rt.hot_expert_intersection(trace, 0, 3)
        assert len(ratios) == 7
        assert ((ratios >= 0) & (ratios <= 1)).all()
