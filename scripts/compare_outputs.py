#!/usr/bin/env python3
"""Check that two moebalance source trees write byte-identical outputs.

    python3 scripts/compare_outputs.py BASE_SRC CHANGE_SRC [--out DIR]

BASE_SRC and CHANGE_SRC are `src` directories, for example the `src` of a
checkout of the parent commit and this repository's own. Each tree, in its
own subprocesses, builds the 18 benchmark traces (every workload of
`benchmarks/workloads.py`, workload seeds 11 and 12, three trace seeds
each) through `benchmarks/workloads.build_trace`, then runs `solve`,
`simulate` and `report` on each. Every file written is compared byte for
byte: traces, `reorder.json`, `replication.json`, `summary.csv`, the
`report` CSVs, `report.json` without its `timestamp`, and each command's
exit code, stdout and stderr. Commands run with relative paths, so their
output names no directory outside the run.

A workload that runs the sample pass also solves its first trace with
`--seeds 2` at the default cooling, so the pick among several sample
chains and the long schedule are compared too. On its first trace with
a `replication.json`, each workload also writes mutated copies of its
own `replication.json` and `reorder.json` (`MALFORMED`: the mutations
the CLI tests reject, made generic over the workload) and runs
`simulate --policies relibra` on each. These commands are meant to fail;
their exit codes and their stderr must be the same in both trees, which
checks a rewritten plan decoder or bundle check for identical error
lines too. The mutated copies
themselves are not compared: they are made by this script from plan
files that are.

Prints every differing file and every failed command, and exits 1 if
there is any. For each differing `report.json`, it also prints every
policy whose `total_time_s` changed, old -> new with the relative change,
so a change that moves plans on purpose shows what it did to each total.
For each differing `replication.json`, it prints every differing
(micro_batch, layer) entry: whether its replica list changed, how many
split rows were added and removed, the largest fraction change and the
objective change.

Ends by printing the line count of each `src/moebalance/*.py` module,
base -> change, and then of the whole package, the tracked size of the
program.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCH))
sys.dont_write_bytecode = True  # leave the compared trees and benchmarks/ as they are
from run import BLAS_PIN  # noqa: E402
from workloads import WORKLOADS, trace_seeds  # noqa: E402

SEEDS = (11, 12)

# runs in the subprocess; refuses to run a moebalance from anywhere but src
PRELUDE = """
import sys
from pathlib import Path
src, bench = sys.argv[1], sys.argv[2]
sys.path[:0] = [src, bench]
import moebalance
if not Path(moebalance.__file__).resolve().is_relative_to(Path(src).resolve()):
    raise SystemExit(f"moebalance imported from {moebalance.__file__}, not {src}")
from moebalance import cli, routing
"""
BUILD = PRELUDE + """
from workloads import WORKLOADS, build_trace
build_trace(WORKLOADS[sys.argv[3]], int(sys.argv[4]), sys.argv[5], cli, routing)
"""
CLI = PRELUDE + """
sys.exit(cli.main(sys.argv[3:]))
"""


def _replicated(data: dict) -> dict:
    """The first entry with split rows; StopIteration if there is none."""
    return next(entry for entry in data["entries"] if entry["splits"])


def _set(keys, value, first=_replicated):
    """A mutation that sets one value under `first(data)`: the first entry
    with split rows, or the whole document."""
    def mutate(data: dict, manifest: dict) -> None:
        target = first(data)
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
    return mutate


def _drop_served_replica(data: dict, manifest: dict) -> None:
    entry = _replicated(data)
    held = [[e, g] for e, g in entry["replicas"]]
    entry["replicas"].remove(next([e, g] for _, e, g, _ in entry["splits"] if [e, g] in held))


def _replica_off_node(data: dict, manifest: dict) -> None:
    entry = _replicated(data)
    e, g = entry["replicas"][0]
    moved = (g + manifest["gpus_per_node"]) % (manifest["num_nodes"] * manifest["gpus_per_node"])
    entry["replicas"][0] = [e, moved]
    for row in entry["splits"]:
        if row[1:3] == [e, g]:
            row[2] = moved


def _duplicate_replica(data: dict, manifest: dict) -> None:
    replicas = _replicated(data)["replicas"]
    replicas.append(list(replicas[0]))


def _halve_fractions(data: dict, manifest: dict) -> None:
    for row in _replicated(data)["splits"]:
        row[3] /= 2


def _repeat_split_row(data: dict, manifest: dict) -> None:
    splits = _replicated(data)["splits"]
    splits.insert(1, splits[0][:3] + [0.25])


def _drop_micro_batch(data: dict, manifest: dict) -> None:
    del data["entries"][0]["micro_batch"]


def _repeat_entry(data: dict, manifest: dict) -> None:
    data["entries"].append(copy.deepcopy(data["entries"][0]))


def _drop_trace_id(data: dict, manifest: dict) -> None:
    del data["trace_id"]


def _expert_off_capacity(data: dict, manifest: dict) -> None:
    row = data["plans"][0]
    row[0] = (row[0] + 1) % (manifest["num_nodes"] * manifest["gpus_per_node"])


def _extra_layer_plan(data: dict, manifest: dict) -> None:
    data["plans"].append(list(data["plans"][0]))


def _samples_without_table(data: dict, manifest: dict) -> None:
    if manifest.get("has_samples"):
        raise StopIteration  # the trace has a sample table
    data["sample_placement"] = [0]


def _whole(data: dict) -> dict:
    return data


# file -> {name: mutate(data, manifest)}; a mutation that does not apply
# to the plan raises StopIteration
MALFORMED = {
    "replication.json": {
        "split_source": _set(("splits", 0, 0), 999),
        "replica_expert": _set(("replicas", 0, 0), 999),
        "nan_fraction": _set(("splits", 0, 3), float("nan")),
        "huge_fraction": _set(("splits", 0, 3), 10**400),
        "true_index": _set(("splits", 0, 0), True),
        "float_index": _set(("splits", 0, 1), 1.0),
        "short_split_row": _set(("splits", 0), [0, 1, 2]),
        "split_row_not_a_list": _set(("splits", 0), "0 1 2 1.0"),
        "string_objective": _set(("objective",), "fast"),
        "bool_objective": _set(("objective",), True),
        "nan_objective": _set(("objective",), float("nan")),
        "infinite_objective": _set(("objective",), float("inf")),
        "replica_gpu_outside": _set(("replicas", 0, 1), 999),
        "split_gpu_outside": _set(("splits", 0, 2), 999),
        "drop_served_replica": _drop_served_replica,
        "replica_off_node": _replica_off_node,
        "duplicate_replica": _duplicate_replica,
        "halve_fractions": _halve_fractions,
        "repeat_split_row": _repeat_split_row,
        "drop_micro_batch": _drop_micro_batch,
        "repeat_entry": _repeat_entry,
        "micro_batch_outside": _set(("entries", 0, "micro_batch"), 999, first=_whole),
        "drop_trace_id": _drop_trace_id,
        "true_version": _set(("version",), True, first=_whole),
        "float_version": _set(("version",), 1.0, first=_whole),
        "entry_not_an_object": _set(("entries", 1), [0, 0], first=_whole),
    },
    "reorder.json": {
        "true_gpu": _set(("plans", 0, 0), True, first=_whole),
        "gpu_outside": _set(("plans", 0, 0), 999, first=_whole),
        "expert_off_capacity": _expert_off_capacity,
        "extra_layer_plan": _extra_layer_plan,
        "samples_without_table": _samples_without_table,
        "plan_row_not_a_list": _set(("plans", 0), "0 1 2 3", first=_whole),
        "true_version": _set(("version",), True, first=_whole),
        "float_version": _set(("version",), 1.0, first=_whole),
    },
}


def write_malformed(side: Path, plans: str, trace: str) -> list[str]:
    """Write one plans directory per mutation that applies to the plan
    under `side`, each with one plan file mutated; returns their relative
    paths."""
    manifest = json.loads((side / trace / "manifest.json").read_text())
    written = []
    for file, mutations in MALFORMED.items():
        source = (side / plans / file).read_text()
        for name, mutate in mutations.items():
            data = json.loads(source)
            try:
                mutate(data, manifest)
            except StopIteration:
                continue
            target = f"malformed/{Path(plans).name}-{Path(file).stem}-{name}"
            (side / target).mkdir(parents=True)
            for other in MALFORMED:
                (side / target / other).write_bytes((side / plans / other).read_bytes())
            (side / target / file).write_text(json.dumps(data))
            written.append(target)
    return written


def traces() -> list[tuple[str, int]]:
    return [(name, ts) for name, w in WORKLOADS.items() for seed in SEEDS for ts in trace_seeds(seed, w.traces)]


def two_chain_args(solve_args: tuple[str, ...]) -> list[str]:
    """The workload's solve flags with `--seeds 2` and no `--cooling`, the CLI default."""
    out, flags = [], iter(solve_args)
    for flag in flags:
        if flag in ("--seeds", "--cooling"):
            next(flags)
        else:
            out.append(flag)
    return [*out, "--seeds", "2"]


def run_side(src: Path, side: Path) -> list[str]:
    """Build every trace and run every command with `src`, writing under
    `side`; returns the labels of the commands that exited non-zero."""
    env = {**os.environ, **BLAS_PIN}
    env.pop("PYTHONPATH", None)
    failed = []

    def call(label: str, script: str, *args: str, expect_failure: bool = False) -> None:
        proc = subprocess.run([sys.executable, "-B", "-c", script, str(src), str(BENCH), *args],
                              cwd=side, env=env, capture_output=True, text=True)
        (side / "stdout" / f"{label}.txt").write_text(
            f"exit {proc.returncode}\n--- stdout\n{proc.stdout}--- stderr\n{proc.stderr}")
        if bool(proc.returncode) != expect_failure:
            failed.append(f"{side.name}: {label}" + (" (expected to fail)" if expect_failure else ""))

    (side / "stdout").mkdir(parents=True)
    first, seeded = set(), set()
    for name, seed in traces():
        w, tag = WORKLOADS[name], f"{name}-{seed}"
        trace, plans, report = f"trace/{tag}", f"plans/{tag}", f"report/{tag}"
        call(f"{tag}.gen", BUILD, name, str(seed), trace)
        if name not in seeded and "--sample-locality" in w.solve_args:
            seeded.add(name)
            call(f"{tag}.solve-seeds2", CLI, "solve", "--trace", trace, "--out", f"{plans}-seeds2",
                 *two_chain_args(w.solve_args))
        call(f"{tag}.solve", CLI, "solve", "--trace", trace, "--out", plans, *w.solve_args)
        call(f"{tag}.simulate", CLI, "simulate", "--trace", trace, "--plans", plans,
             "--out", report, *w.simulate_args())
        call(f"{tag}.report", CLI, "report", "--report", f"{report}/report.json", "--out", f"csv/{tag}",
             "--series", "comparison,skewness,times,intersection,loads")
        if name not in first and (side / plans / "replication.json").is_file():
            first.add(name)
            for bad in write_malformed(side, plans, trace):
                call(f"{Path(bad).name}.simulate", CLI, "simulate", "--trace", trace, "--plans", bad,
                     "--out", f"report/{Path(bad).name}", "--policies", "relibra", expect_failure=True)
    return failed


def content(path: Path) -> bytes:
    if path.name != "report.json":
        return path.read_bytes()
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError:
        return path.read_bytes()
    data.pop("timestamp", None)
    return json.dumps(data, indent=2).encode()


def compare(base: Path, change: Path) -> tuple[int, list[str]]:
    """(files compared, relative names of the files that differ or exist on one side only)."""
    names = sorted({p.relative_to(root).as_posix() for root in (base, change)
                    for p in root.rglob("*") if p.is_file() and p.relative_to(root).parts[0] != "malformed"})
    differ = []
    for name in names:
        a, b = base / name, change / name
        if not (a.is_file() and b.is_file()):
            differ.append(f"{name} (only in {'base' if a.is_file() else 'change'})")
        elif content(a) != content(b):
            differ.append(name)
    return len(names), differ


def total_deltas(base: Path, change: Path, differ: list[str]) -> list[str]:
    """A line per policy whose `total_time_s` differs between the two
    sides' copies of a differing `report.json`."""
    lines = []
    for name in differ:
        if Path(name).name != "report.json" or not (base / name).is_file() or not (change / name).is_file():
            continue
        try:
            old, new = (json.loads((side / name).read_text())["policies"] for side in (base, change))
        except (json.JSONDecodeError, KeyError):
            continue
        for policy in old.keys() & new.keys():
            a, b = old[policy]["total_time_s"], new[policy]["total_time_s"]
            if a != b:
                rel = f"{(b - a) / abs(a):+.3e}" if a else "inf"
                lines.append(f"TOTAL {name} {policy}: {a!r} -> {b!r} ({rel} relative)")
    return sorted(lines)


def _entries(path: Path) -> dict:
    """{(micro_batch, layer): entry} of a `replication.json`."""
    return {(entry["micro_batch"], entry["layer"]): entry for entry in json.loads(path.read_text())["entries"]}


def replication_deltas(base: Path, change: Path, differ: list[str]) -> list[str]:
    """A line per (micro_batch, layer) entry that differs between the two
    sides' copies of a differing `replication.json`: whether its replica
    list changed, the split rows (keyed by source GPU, expert and serving
    GPU) added and removed, the largest change of a row's fraction (a row
    on one side only counts as fraction 0 on the other), and the change of
    its objective."""
    lines = []
    for name in differ:
        if Path(name).name != "replication.json" or not (base / name).is_file() or not (change / name).is_file():
            continue
        try:
            old, new = _entries(base / name), _entries(change / name)
        except (json.JSONDecodeError, KeyError, TypeError):
            continue
        for key in sorted(old.keys() | new.keys()):
            where = f"REPLICATION {name} (micro_batch {key[0]}, layer {key[1]})"
            if key not in old or key not in new:
                lines.append(f"{where}: only in {'base' if key in old else 'change'}")
                continue
            a, b = old[key], new[key]
            if a == b:
                continue
            rows_a, rows_b = ({tuple(row[:3]): row[3] for row in entry["splits"]} for entry in (a, b))
            frac = max((abs(rows_b.get(row, 0.0) - rows_a.get(row, 0.0)) for row in rows_a.keys() | rows_b.keys()),
                       default=0.0)
            lines.append(f"{where}: replicas {'same' if a['replicas'] == b['replicas'] else 'changed'}, "
                         f"split rows +{len(rows_b.keys() - rows_a.keys())} -{len(rows_a.keys() - rows_b.keys())}, "
                         f"max fraction change {frac:.3e}, "
                         f"objective {a['objective']!r} -> {b['objective']!r} ({b['objective'] - a['objective']:+.3e})")
    return lines


def line_counts(src: Path) -> dict[str, int]:
    """{module file name: line count} of `src/moebalance`."""
    return {path.name: path.read_bytes().count(b"\n") for path in (src / "moebalance").glob("*.py")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_src", type=Path, help="src directory of the base tree")
    parser.add_argument("change_src", type=Path, help="src directory of the changed tree")
    parser.add_argument("--out", type=Path, help="keep the outputs here (default: a temporary directory)")
    args = parser.parse_args(argv)
    for src in (args.base_src, args.change_src):
        if not (src / "moebalance" / "__init__.py").is_file():
            parser.error(f"{src} holds no moebalance package")

    with tempfile.TemporaryDirectory() as tmp:
        out = args.out or Path(tmp)
        sides = [out / "base", out / "change"]
        for side in sides:
            if side.exists():
                parser.error(f"{side} already exists")
        with ThreadPoolExecutor(2) as pool:
            runs = [pool.submit(run_side, src.resolve(), side)
                    for src, side in zip((args.base_src, args.change_src), sides)]
            failed = [label for run in runs for label in run.result()]
        count, differ = compare(*sides)
        deltas = total_deltas(*sides, differ) + replication_deltas(*sides, differ)

    for label in failed:
        print(f"FAILED {label}")
    for name in differ:
        print(f"DIFFERS {name}")
    for line in deltas:
        print(line)
    print(f"{len(traces())} traces, {count} files compared, {len(differ)} differ, {len(failed)} commands failed")
    base, change = (line_counts(src) for src in (args.base_src, args.change_src))
    for name in sorted(base.keys() | change.keys()):
        print(f"  {name}: {base.get(name, 0)} -> {change.get(name, 0)} lines")
    print(f"src/moebalance: {sum(base.values())} -> {sum(change.values())} lines")
    return 1 if differ or failed else 0


if __name__ == "__main__":
    sys.exit(main())
