"""On-disk plan formats produced by `solve` and consumed by `simulate`.

reorder.json      per-layer expert->GPU arrays, optional sample->GPU array,
                  and the exact/smoothed objective achieved per layer
replication.json  per (micro_batch, layer): replica list, split table rows
                  (source_gpu, expert, serving_gpu, fraction), objective

Only this module knows the file keys. Parsing checks JSON types and the
indices a row is decoded through, micro-batches and GPU ids by the trace's
counts; `load_plan_bundle` runs the `sim` checks of fit to the trace and
names the file of a failure.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Sequence

import numpy as np

from . import reorder as ro
from . import sim
from .replicate import ReplicaPlacement, ReplicationEntry, ReplicationPlan, SplitPlan, split_of


class PlanFormatError(ValueError):
    """Raised for malformed or mismatched plan files."""


def _plan_field(obj, key: str, where: str, kind: type | tuple | None = None):
    if not isinstance(obj, dict):
        raise ValueError(f"{where} is not a JSON object")
    if key not in obj:
        raise ValueError(f"{where}: missing required key {key!r}")
    value = obj[key]
    # a JSON true or false is no number, though bool subclasses int
    if kind is not None and (isinstance(value, bool) or not isinstance(value, kind)):
        raise ValueError(f"{where}.{key} has the wrong type: {value!r}")
    return value


def _plan_index(value, bound: int, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value < bound:
        raise ValueError(f"{what} = {value!r} is not an index in [0, {bound})")
    return value


def _plan_row(row, width: int, what: str) -> list:
    if not isinstance(row, list) or len(row) != width:
        raise ValueError(f"{what} must be a list of {width} values, got {row!r}")
    return row


def _gpu_ids(values, what: str, num_gpus: int) -> np.ndarray:
    if not isinstance(values, list):
        raise ValueError(f"{what} must be a list of GPU ids, got {values!r}")
    return np.array([_plan_index(v, num_gpus, f"{what}[{i}]") for i, v in enumerate(values)], dtype=np.int64)


@contextmanager
def _blame(path: Path):
    """Re-raise a ValueError as a one-line PlanFormatError naming path."""
    try:
        yield
    except ValueError as err:
        raise PlanFormatError(f"{path}: {err}") from err


def _read_plan_file(p: Path, kind: str, trace) -> dict:
    if not p.is_file():
        raise FileNotFoundError(f"missing {kind} plan file: {p}")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as err:
        raise PlanFormatError(f"{p}: malformed JSON ({err})") from err
    # a JSON true or 1.0 equals 1 but is no version number
    if not isinstance(data, dict) or data.get("version") != 1 or type(data["version"]) is not int:
        raise PlanFormatError(f"unsupported {kind} plan version in {p}")
    trace_id = data.get("trace_id")
    if not isinstance(trace_id, str) or not trace_id:
        raise PlanFormatError(f"{p}: trace_id is missing or empty, so the plan cannot be matched to a trace")
    if trace_id != trace.trace_id():
        raise PlanFormatError(f"{p}: solved for trace {trace_id}, not {trace.trace_id()}")
    return data


def save_reorder_plan(path: str | Path, trace_id: str, plans: list[ro.ReorderPlan],
                      objectives: list[dict], sample_placement: np.ndarray | None,
                      config: dict) -> None:
    payload = {
        "version": 1,
        "trace_id": trace_id,
        "num_layers": len(plans),
        "plans": [plan.assignment.tolist() for plan in plans],
        "objectives": objectives,
        "sample_placement": sample_placement.tolist() if sample_placement is not None else None,
        "config": config,
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def load_reorder_plan(path: str | Path, trace) -> dict:
    p = Path(path)
    data = _read_plan_file(p, "reorder", trace)
    g = trace.topo.num_gpus
    with _blame(p):
        rows = _plan_field(data, "plans", "plan", list)
        data["plans"] = [ro.ReorderPlan(_gpu_ids(row, f"plans[{layer}]", g)) for layer, row in enumerate(rows)]
        if data.get("sample_placement") is not None:
            data["sample_placement"] = _gpu_ids(data["sample_placement"], "sample_placement", g)
    return data


def replication_plan_to_dict(plan: ReplicationPlan) -> dict:
    """The file form of a plan: split rows by expert, source, then copy,
    one per positive share."""
    entries = []
    for (mb, layer) in sorted(plan.entries):
        entry = plan.entries[(mb, layer)]
        split = entry.split
        col, source = np.nonzero(split.share > 0)
        order = np.lexsort((col, source, split.expert[col]))
        col, source = col[order], source[order]
        entries.append({
            "micro_batch": mb,
            "layer": layer,
            "replicas": [[int(e), int(g)] for e in sorted(entry.placement.replicas) for g in entry.placement.replicas[e]],
            "splits": list(map(list, zip(source.tolist(), split.expert[col].tolist(), split.gpu[col].tolist(),
                                         split.share[col, source].tolist()))),
            "objective": entry.objective,
        })
    return {"version": 1, "entries": entries}


def replication_plan_from_dict(data: dict, home_per_layer: Sequence[np.ndarray], num_gpus: int,
                               num_micro_batches: int) -> ReplicationPlan:
    """Inverse of replication_plan_to_dict, for homes of GPU ids in [0, num_gpus).

    Raises ValueError naming the entry and field of a missing key, a value
    of the wrong type, an objective that is not a finite float, an index
    the plan cannot be decoded through (a micro-batch, layer, expert, source
    or GPU), a split row served by a GPU that holds no copy, a second split
    row for the same (source, expert, GPU), or a second entry for the same
    (micro_batch, layer).
    """
    plan = ReplicationPlan()
    seen: dict[tuple[int, int], int] = {}
    for n, entry in enumerate(_plan_field(data, "entries", "plan", list)):
        where = f"entries[{n}]"
        mb = _plan_index(_plan_field(entry, "micro_batch", where), num_micro_batches, f"{where}.micro_batch")
        layer = _plan_index(_plan_field(entry, "layer", where), len(home_per_layer), f"{where}.layer")
        first = seen.setdefault((mb, layer), n)
        if first != n:
            raise ValueError(f"{where} repeats (micro_batch, layer) = ({mb}, {layer}) of entries[{first}]")
        home = home_per_layer[layer]
        placement = ReplicaPlacement(home=home)
        for r, row in enumerate(_plan_field(entry, "replicas", where, list)):
            what = f"{where}.replicas[{r}]"
            e, g = _plan_row(row, 2, what)
            e = _plan_index(e, len(home), f"{what} expert")
            placement.replicas.setdefault(e, []).append(_plan_index(g, num_gpus, f"{what} gpu"))
        split = _split_plan(_plan_field(entry, "splits", where, list), placement, num_gpus, where)
        objective = _plan_field(entry, "objective", where, (int, float))
        if not abs(objective) <= sys.float_info.max:  # NaN fails the comparison
            raise ValueError(f"{where}.objective = {objective!r} is not a finite float")
        plan.entries[(mb, layer)] = ReplicationEntry(placement=placement, split=split, objective=objective)
    return plan


def _split_plan(rows: list, placement: ReplicaPlacement, num_gpus: int, where: str) -> SplitPlan:
    """The split rows of one entry, decoded in whole-array passes.

    First every row must be a list of three int indices in range and a
    finite number, or a check of one row at a time names the first that is
    not. Then the first row served by a GPU without a copy of its expert,
    or naming an earlier row's (source, expert, GPU), is named. So a later
    row's form, type or range error comes before an earlier row's copy or
    repeat error.

    Experts take their columns in the order of their first row.
    """
    num_experts = len(placement.home)
    if not rows:
        return SplitPlan()
    try:
        if set(map(type, rows)) != {list} or set(map(len, rows)) != {4}:
            raise TypeError
        source, expert, gpu, value = zip(*rows)
        if set(map(type, source + expert + gpu)) != {int} or not set(map(type, value)) <= {int, float}:
            raise TypeError
        source, expert, gpu = np.array((source, expert, gpu), dtype=np.int64)
        value = np.array(value, dtype=np.float64)
        if not (np.isfinite(value).all() and min(source.min(), expert.min(), gpu.min()) >= 0
                and max(source.max(), gpu.max()) < num_gpus and expert.max() < num_experts):
            raise TypeError
    except (TypeError, OverflowError):
        for r, row in enumerate(rows):
            what = f"{where}.splits[{r}]"
            j, e, g, frac = _plan_row(row, 4, what)
            _plan_index(j, num_gpus, f"{what} source")
            e = _plan_index(e, num_experts, f"{what} expert")
            _plan_index(g, num_gpus, f"{what} gpu")
            # NaN fails the comparison; an int beyond the float range must not reach numpy
            if isinstance(frac, bool) or not isinstance(frac, (int, float)) or not abs(frac) <= sys.float_info.max:
                raise ValueError(f"{what} fraction = {frac!r} of expert {e} is not a finite float")
        raise  # not reached: the row check rejects every row the passes above reject
    _, firsts = np.unique(expert, return_index=True)
    split = split_of(placement, {e: np.zeros((num_gpus, len(placement.copies(e))))
                                 for e in expert[np.sort(firsts)].tolist()})
    # split column of each (expert, GPU), C without a copy; like list.index,
    # a GPU listed twice takes its first column
    column = np.full((num_experts, num_gpus), split.expert.size)
    np.minimum.at(column, (split.expert, split.gpu), np.arange(split.expert.size))
    col = column[expert, gpu]
    no_copy = col == split.expert.size
    key = (source * num_experts + expert) * num_gpus + gpu
    ordered = np.sort(key)
    if no_copy.any() or (ordered[1:] == ordered[:-1]).any():
        _, firsts, same = np.unique(key, return_index=True, return_inverse=True)
        first = firsts[same]  # the first row with each row's (source, expert, GPU)
        r = int(np.flatnonzero(no_copy | (first != np.arange(len(rows))))[0])
        j, e, g = (int(ids[r]) for ids in (source, expert, gpu))
        if no_copy[r]:
            raise ValueError(f"{where}.splits[{r}] gpu = {g} holds no copy of expert {e} "
                             f"(copies {placement.copies(e)})")
        raise ValueError(f"{where}.splits[{r}] repeats (source, expert, gpu) = ({j}, {e}, {g}) "
                         f"of {where}.splits[{first[r]}]")
    split.share[col, source] = value
    return split


def save_replication_plan(path: str | Path, trace_id: str, plan: ReplicationPlan) -> None:
    """Write one entry per line and each of its split rows on a line of
    its own. Every part is dumped by json's C encoder, which `indent` would
    replace by the pure-Python one; a dump of split rows holds only
    numbers, so each "], [" in it is a row break."""
    payload = replication_plan_to_dict(plan)
    entries = []
    for entry in payload["entries"]:
        rows = json.dumps(entry.pop("splits")).replace("[[", "[\n  [", 1).replace("], [", "],\n  [")
        entries.append(f'{json.dumps(entry)[:-1]}, "splits": {rows}}}')
    head = json.dumps({"version": payload["version"], "trace_id": trace_id})[:-1]
    Path(path).write_text(head + ', "entries": [\n' + ",\n".join(entries) + "\n]}\n")


def load_replication_plan(path: str | Path, trace, home_per_layer: Sequence[np.ndarray]) -> ReplicationPlan:
    p = Path(path)
    data = _read_plan_file(p, "replication", trace)
    with _blame(p):
        return replication_plan_from_dict(data, home_per_layer, trace.topo.num_gpus, trace.num_micro_batches)


def load_plan_bundle(plans_dir: str | Path, trace) -> sim.PlanBundle:
    """Assemble a checked PlanBundle for `simulate` from a solve output directory."""
    root = Path(plans_dir)
    reorder = load_reorder_plan(root / "reorder.json", trace)
    plans, placement = reorder["plans"], reorder.get("sample_placement")
    with _blame(root / "reorder.json"):
        sim.check_reorder(trace, plans, placement, trace.topo)
    replication = load_replication_plan(root / "replication.json", trace, [plan.assignment for plan in plans])
    bundle = sim.PlanBundle(reorder=plans, sample_placement=placement, replication=replication)
    with _blame(root / "replication.json"):
        sim.check_replication(trace, bundle, trace.topo, sim.scored_matrices(trace, placement))
    return bundle
