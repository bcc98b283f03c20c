"""Plan files round-trip: save, load and save again give the same plans and bytes."""

import json
from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from moebalance import planio
from moebalance import reorder as ro
from moebalance import replicate as rep
from moebalance import routing as rt
from moebalance.topology import HardwareProfile, build_topology

HW = HardwareProfile(6.0, 40.0, 7.0, 1.0)


@lru_cache(maxsize=None)
def small_trace(nodes: int, gpn: int, layers: int, per_gpu: int, samples: bool) -> rt.RoutingTrace:
    topo = build_topology(nodes, gpn, HW)
    model = rt.ModelProfile(num_layers=layers, num_experts=topo.num_gpus * per_gpu, top_k=1)
    spec = rt.TraceGenSpec(num_domains=2, dirichlet_alpha=0.5, tokens_per_gpu=8, rng_seed=3,
                           samples_per_gpu=2 if samples else 0)
    return rt.generate_synthetic_trace(spec, model, topo, 2)


fractions = st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False)


@st.composite
def replication_entry(draw, trace, home):
    topo = trace.topo
    g = topo.num_gpus
    placement = rep.ReplicaPlacement(home=home)
    split = {}
    for e in draw(st.lists(st.integers(0, len(home) - 1), unique=True, max_size=3)):
        candidates = rep.candidate_gpus(e, home, topo)
        if not candidates:
            continue
        placement.replicas[e] = draw(st.lists(st.sampled_from(candidates), unique=True, min_size=1))
        if draw(st.booleans()):
            # rows sum to 1: the home copy takes what the replicas leave
            k = len(placement.copies(e))
            frac = np.zeros((g, k))
            for j in range(g):
                shares = draw(st.lists(fractions, min_size=k - 1, max_size=k - 1))
                frac[j, 1:] = np.array(shares) / max(1.0, sum(shares))
                # a written fraction is positive, so rounding below zero must not be kept
                frac[j, 0] = max(0.0, 1.0 - frac[j, 1:].sum())
            split[e] = frac
    objective = draw(st.floats(0.0, 1e6, allow_nan=False))
    return rep.ReplicationEntry(placement=placement, split=rep.split_of(placement, split), objective=objective)


@st.composite
def plan_files(draw):
    shape = draw(st.sampled_from([(1, 2), (2, 2), (1, 3)]))
    trace = small_trace(*shape, draw(st.integers(1, 2)), draw(st.integers(1, 2)), draw(st.booleans()))
    g, num_experts = trace.topo.num_gpus, trace.model.num_experts
    plans = []
    for _ in range(trace.model.num_layers):
        perm = draw(st.permutations(range(num_experts)))
        plans.append(ro.ReorderPlan(np.repeat(np.arange(g), num_experts // g)[list(perm)]))
    placement = None
    if trace.samples is not None and draw(st.booleans()):
        gpus = draw(st.lists(st.integers(0, g - 1), min_size=trace.samples.num_samples,
                             max_size=trace.samples.num_samples))
        placement = np.array(gpus, dtype=np.int64)
    replication = rep.ReplicationPlan()
    for mb in range(trace.num_micro_batches):
        for layer in range(trace.model.num_layers):
            if draw(st.booleans()):
                home = plans[layer].assignment
                replication.entries[(mb, layer)] = draw(replication_entry(trace, home))
    objectives = [{"exact": draw(st.floats(0.0, 1e3)), "smoothed": draw(st.floats(0.0, 1e3))}
                  for _ in plans]
    return trace, plans, placement, replication, objectives


def save(out, trace, plans, placement, replication, objectives):
    out.mkdir(parents=True, exist_ok=True)
    planio.save_reorder_plan(out / "reorder.json", trace.trace_id(), plans, objectives, placement,
                             {"seeds": 2})
    planio.save_replication_plan(out / "replication.json", trace.trace_id(), replication)


@settings(max_examples=60, deadline=None)
@given(case=plan_files())
def test_plan_files_round_trip(tmp_path_factory, case):
    trace, plans, placement, replication, objectives = case
    first, second = tmp_path_factory.mktemp("first"), tmp_path_factory.mktemp("second")
    save(first, trace, plans, placement, replication, objectives)
    bundle = planio.load_plan_bundle(first, trace)

    assert [p.assignment.tolist() for p in bundle.reorder] == [p.assignment.tolist() for p in plans]
    if placement is None:
        assert bundle.sample_placement is None
    else:
        assert bundle.sample_placement.tolist() == placement.tolist()
    loaded = bundle.replication.entries
    assert sorted(loaded) == sorted(replication.entries)
    for key, want in replication.entries.items():
        got = loaded[key]
        assert got.placement.replicas == want.placement.replicas
        assert got.objective == want.objective
        assert sorted(got.split.fractions) == sorted(want.split.fractions)
        for e, frac in want.split.fractions.items():
            assert np.array_equal(got.split.fractions[e], frac)

    save(second, trace, bundle.reorder, bundle.sample_placement, bundle.replication, objectives)
    for name in ("reorder.json", "replication.json"):
        assert (second / name).read_bytes() == (first / name).read_bytes()
    # one split row per line
    text = (first / "replication.json").read_text()
    rows = [json.loads(line[:line.index("]") + 1]) for line in text.splitlines() if line.startswith("  [")]
    assert rows == [row for entry in json.loads(text)["entries"] for row in entry["splits"]]
