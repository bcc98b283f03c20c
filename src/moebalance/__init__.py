"""Trace-driven planner and simulator for expert-parallel MoE load balancing."""

from .costmodel import (
    CostEstimate,
    TimeUnits,
    compute_loads,
    lse,
    moe_time,
)
from .reorder import (
    AnnealConfig,
    AnnealState,
    ReorderPlan,
    SamplePlacement,
    anneal_reorder,
    anneal_sample_placement,
    lpt_initial,
    static_plan,
)
from .replicate import (
    ReplicaConfig,
    ReplicaPlacement,
    ReplicationEntry,
    ReplicationPlan,
    SplitPlan,
    greedy_replicate,
    replica_memory,
    solve_token_split_lp,
)
from .routing import (
    ModelProfile,
    RoutingTrace,
    SampleTable,
    TraceFormatError,
    TraceGenSpec,
    aggregate_batch,
    generate_synthetic_trace,
    hot_expert_intersection,
    load_trace,
    save_trace,
    skewness,
)
from .sim import (
    POLICIES,
    PlanBundle,
    SimConfigs,
    SimReport,
    compare_report,
    evaluate_bundle,
    run_baseline,
)
from .topology import (
    ClusterTopology,
    HardwareProfile,
    TrafficClass,
    build_topology,
)

__version__ = "0.1.0"
