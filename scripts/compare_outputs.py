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

Prints every differing file and every failed command, and exits 1 if
there is any.
"""

from __future__ import annotations

import argparse
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


def traces() -> list[tuple[str, int]]:
    return [(name, ts) for name, w in WORKLOADS.items() for seed in SEEDS for ts in trace_seeds(seed, w.traces)]


def run_side(src: Path, side: Path) -> list[str]:
    """Build every trace and run every command with `src`, writing under
    `side`; returns the labels of the commands that exited non-zero."""
    env = {**os.environ, **BLAS_PIN}
    env.pop("PYTHONPATH", None)
    failed = []

    def call(label: str, script: str, *args: str) -> None:
        proc = subprocess.run([sys.executable, "-B", "-c", script, str(src), str(BENCH), *args],
                              cwd=side, env=env, capture_output=True, text=True)
        (side / "stdout" / f"{label}.txt").write_text(
            f"exit {proc.returncode}\n--- stdout\n{proc.stdout}--- stderr\n{proc.stderr}")
        if proc.returncode:
            failed.append(f"{side.name}: {label}")

    (side / "stdout").mkdir(parents=True)
    for name, seed in traces():
        w, tag = WORKLOADS[name], f"{name}-{seed}"
        trace, plans, report = f"trace/{tag}", f"plans/{tag}", f"report/{tag}"
        call(f"{tag}.gen", BUILD, name, str(seed), trace)
        call(f"{tag}.solve", CLI, "solve", "--trace", trace, "--out", plans, *w.solve_args)
        call(f"{tag}.simulate", CLI, "simulate", "--trace", trace, "--plans", plans, "--out", report,
             *w.simulate_args())
        call(f"{tag}.report", CLI, "report", "--report", f"{report}/report.json", "--out", f"csv/{tag}",
             "--series", "comparison,skewness,times,intersection,loads")
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
                    for p in root.rglob("*") if p.is_file()})
    differ = []
    for name in names:
        a, b = base / name, change / name
        if not (a.is_file() and b.is_file()):
            differ.append(f"{name} (only in {'base' if a.is_file() else 'change'})")
        elif content(a) != content(b):
            differ.append(name)
    return len(names), differ


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

    for label in failed:
        print(f"FAILED {label}")
    for name in differ:
        print(f"DIFFERS {name}")
    print(f"{len(traces())} traces, {count} files compared, {len(differ)} differ, {len(failed)} commands failed")
    return 1 if differ or failed else 0


if __name__ == "__main__":
    sys.exit(main())
