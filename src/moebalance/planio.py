"""On-disk plan formats produced by `solve` and consumed by `simulate`.

reorder.json      per-layer expert->GPU arrays, optional sample->GPU array,
                  and the exact/smoothed objective achieved per layer
replication.json  per (micro_batch, layer): replica list, split table rows
                  (source_gpu, expert, serving_gpu, fraction), objective
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import replicate as rep
from . import reorder as ro
from .sim import PlanBundle


class PlanFormatError(ValueError):
    """Raised for malformed or mismatched plan files."""


def save_reorder_plan(path: str | Path, trace_id: str, plans: list[ro.ReorderPlan],
                      objectives: list[dict], sample_placement: ro.SamplePlacement | None,
                      config: dict) -> None:
    payload = {
        "version": 1,
        "trace_id": trace_id,
        "num_layers": len(plans),
        "plans": [plan.assignment.tolist() for plan in plans],
        "objectives": objectives,
        "sample_placement": sample_placement.source_gpu.tolist() if sample_placement else None,
        "config": config,
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def _read_plan_file(p: Path, kind: str) -> dict:
    if not p.is_file():
        raise FileNotFoundError(f"missing {kind} plan file: {p}")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as err:
        raise PlanFormatError(f"{p}: malformed JSON ({err})") from err
    if not isinstance(data, dict) or data.get("version") != 1:
        raise PlanFormatError(f"unsupported {kind} plan version in {p}")
    trace_id = data.get("trace_id")
    if not isinstance(trace_id, str) or not trace_id:
        raise PlanFormatError(f"{p}: trace_id is missing or empty, so the plan cannot be matched to a trace")
    return data


def _is_int_list(values) -> bool:
    return isinstance(values, list) and all(isinstance(v, int) and not isinstance(v, bool) for v in values)


def load_reorder_plan(path: str | Path) -> dict:
    p = Path(path)
    data = _read_plan_file(p, "reorder")
    plans = data.get("plans")
    if not isinstance(plans, list) or not all(_is_int_list(a) for a in plans):
        raise PlanFormatError(f"{p}: plans must be a list of per-layer lists of GPU ids")
    data["plans"] = [ro.ReorderPlan(np.asarray(a, dtype=np.int64)) for a in plans]
    placement = data.get("sample_placement")
    if placement is not None:
        if not _is_int_list(placement):
            raise PlanFormatError(f"{p}: sample_placement must be a list of GPU ids")
        data["sample_placement"] = ro.SamplePlacement(np.asarray(placement, dtype=np.int64))
    return data


def save_replication_plan(path: str | Path, trace_id: str, plan: rep.ReplicationPlan) -> None:
    payload = rep.replication_plan_to_dict(plan)
    payload["trace_id"] = trace_id
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def load_replication_plan(path: str | Path, home_per_layer: dict[int, np.ndarray], num_gpus: int) -> tuple[rep.ReplicationPlan, str]:
    p = Path(path)
    data = _read_plan_file(p, "replication")
    try:
        plan = rep.replication_plan_from_dict(data, home_per_layer, num_gpus)
    except ValueError as err:
        raise PlanFormatError(f"{p}: {err}") from err
    return plan, data["trace_id"]


def _check_indices(path: Path, field: str, values: np.ndarray, count: int, what: str, num_gpus: int) -> None:
    if len(values) != count:
        raise PlanFormatError(f"{path}: {field} has {len(values)} entries, the trace has {count} {what}")
    if count and (values.min() < 0 or values.max() >= num_gpus):
        raise PlanFormatError(f"{path}: {field} holds a GPU id outside [0, {num_gpus})")


def load_plan_bundle(plans_dir: str | Path, trace) -> PlanBundle:
    """Assemble a PlanBundle for `simulate` from a solve output directory."""
    root = Path(plans_dir)
    reorder_path = root / "reorder.json"
    replication_path = root / "replication.json"
    if not reorder_path.is_file():
        raise FileNotFoundError(f"missing plan file for relibra: {reorder_path}")
    reorder_data = load_reorder_plan(reorder_path)
    if reorder_data["trace_id"] != trace.trace_id():
        raise PlanFormatError(
            f"reorder plan {reorder_path} was solved for trace {reorder_data['trace_id']}, "
            f"not {trace.trace_id()}"
        )
    plans = reorder_data["plans"]
    g = trace.topo.num_gpus
    if len(plans) != trace.model.num_layers:
        raise PlanFormatError(f"{reorder_path}: plan has {len(plans)} layers, the trace has {trace.model.num_layers}")
    for layer, plan in enumerate(plans):
        _check_indices(reorder_path, f"plans[{layer}]", plan.assignment, trace.model.num_experts, "experts", g)
    placement = reorder_data.get("sample_placement")
    if placement is not None:
        samples = trace.samples.num_samples if trace.samples is not None else 0
        _check_indices(reorder_path, "sample_placement", placement.source_gpu, samples, "samples", g)
    homes = {layer: plans[layer].assignment for layer in range(len(plans))}
    if not replication_path.is_file():
        raise FileNotFoundError(f"missing plan file for relibra: {replication_path}")
    replication, rep_trace_id = load_replication_plan(replication_path, homes, g)
    if rep_trace_id != trace.trace_id():
        raise PlanFormatError(f"replication plan {replication_path} belongs to a different trace")
    return PlanBundle(reorder=plans, sample_placement=placement, replication=replication)
