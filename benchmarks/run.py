#!/usr/bin/env python3
"""moebalance benchmark: solve/simulate host time, plan quality, per-layer spans.

Run from the repository root:

    python3 benchmarks/run.py                       # all workloads, untraced + traced
    python3 benchmarks/run.py --workload churn-ep32 --seed 12 --seconds 15 --trace 0

Each workload runs in a fresh process. With --trace 0 the run solves and
simulates several seed-derived traces for about --seconds and prints the
end-to-end metrics; with --trace 1 it runs the first trace once untraced
and once traced and prints the per-layer metrics. The last stdout line is
one JSON object with `correct`, `attempted`, `failed` and `metrics`. The
exit code is non-zero if any operation or correctness check failed. See
benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = ROOT / ".bench_out"
BLAS_PIN = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                   "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

# repetition targets of an untraced run; batches follow each solve
SOLVE_MAX_REPS = 20
SIM_BATCH_S, SIM_MIN_PER_TRACE, SIM_MIN_S, SIM_MAX_REPS = 0.4, 2, 2.0, 60
SETUP_BATCH_S, SETUP_MIN_REPS, SETUP_MIN_S, SETUP_MAX_REPS = 0.15, 7, 1.0, 60
BATCH_MAX_REPS = 20
REL_TOL = 1e-9
# README quickstart totals (trace seed 11, 16 annealing chains), printed to 6 digits
README_TOTALS = {"static": 19.9709, "lplb_like": 11.9754, "relibra": 12.0333}

# end-to-end metric -> (unit, what kind of number it is); "modeled_s" are
# seconds of the cost model, deterministic for a trace, not host time
E2E = {"setup_s": ("s", "host"), "solve_s": ("s", "host"), "simulate_s": ("s", "host"),
       "peak_rss_mb": ("MB", "host memory"), "relibra_moe_s": ("modeled_s", "modeled"),
       "relibra_vs_lplb": ("ratio", "modeled")}


class Ops:
    """Operations attempted and failed; each CLI call and each check is one."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, what: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{what}: {detail}" if detail else what)
            print(f"FAILED {what} {detail}".rstrip(), flush=True)
        return ok

    def check(self, what: str, fn) -> bool:
        """Run a check returning (ok, detail); an exception is a failure."""
        try:
            ok, detail = fn()
        except Exception as err:  # a check that cannot run is a failed check
            ok, detail = False, f"{type(err).__name__}: {err}"
        if ok:
            print(f"check {what}: ok ({detail})", flush=True)
        return self.record(f"check {what}", ok, detail)


class Bench:
    """One workload at one seed, in this process."""

    def __init__(self, workload, seed: int, seconds: float):
        from moebalance import cli
        from moebalance import routing as rt
        self.cli, self.rt = cli, rt
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.ops = Ops()
        self.samples: dict[str, list[list[float]]] = {}
        self.work = OUT / f"work-{workload.name}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    # ------------------------------------------------------------------
    # operations

    def cli_call(self, argv: list[str]) -> tuple[bool, float]:
        """Run `moebalance <argv>` in-process; returns (ok, wall seconds)."""
        buf = io.StringIO()
        t0 = perf_counter()
        try:
            with redirect_stdout(buf):
                rc = self.cli.main(argv)
            detail = f"exit {rc}"
        except SystemExit as err:
            rc, detail = err.code, f"SystemExit {err.code}"
        except Exception:
            rc, detail = -1, traceback.format_exc(limit=3)
        dt = perf_counter() - t0
        self.ops.record(f"moebalance {argv[0]}", rc == 0, "" if rc == 0 else detail)
        return rc == 0, dt

    def setup(self, out_dir: Path, trace_seed: int) -> tuple[bool, float]:
        """Make one workload trace, write it, and load it back once."""
        from workloads import build_trace
        t0 = perf_counter()
        try:
            with redirect_stdout(io.StringIO()):
                build_trace(self.w, trace_seed, str(out_dir), self.cli, self.rt)
                self.rt.load_trace(out_dir)
            ok, detail = True, ""
        except Exception:
            ok, detail = False, traceback.format_exc(limit=3)
        dt = perf_counter() - t0
        self.ops.record("setup", ok, detail)
        return ok, dt

    def solve(self, trace_dir: Path, plans: Path) -> tuple[bool, float]:
        return self.cli_call(["solve", "--trace", str(trace_dir), "--out", str(plans), *self.w.solve_args])

    def simulate(self, trace_dir: Path, plans: Path, report: Path) -> tuple[bool, float]:
        return self.cli_call(["simulate", "--trace", str(trace_dir), "--plans", str(plans),
                              "--out", str(report), *self.w.simulate_args()])

    # ------------------------------------------------------------------
    # correctness checks (never inside a timed region)

    def check_outputs(self, trace_seed: int, trace_dir: Path, plan_dirs: list[Path],
                      report_dirs: list[Path]) -> dict:
        """Check one trace's plans and reports; returns the first report's policies."""
        import refeval
        trace = self.rt.load_trace(trace_dir)
        ops = self.ops
        tag = f"[trace seed {trace_seed}]"
        first_plans = {n: (plan_dirs[0] / n).read_bytes() for n in ("reorder.json", "replication.json")}
        docs = [json.loads((r / "report.json").read_text()) for r in report_dirs]
        report = docs[0]["policies"]

        def same_plans():
            differ = [p.name for p in plan_dirs[1:]
                      if any((p / n).read_bytes() != b for n, b in first_plans.items())]
            return not differ, f"{len(plan_dirs)} solves, differing: {differ or 'none'}"

        def same_totals():
            def key(doc):
                return [(p, v["total_time_s"], v["entry_times"]) for p, v in doc["policies"].items()]
            differ = [r.name for r, d in zip(report_dirs[1:], docs[1:]) if key(d) != key(docs[0])]
            return not differ, f"{len(docs)} simulates, differing: {differ or 'none'}"

        def relibra_ref():
            reorder = json.loads(first_plans["reorder.json"])
            replication = json.loads(first_plans["replication.json"])
            ref = refeval.relibra_entry_times(trace, reorder, replication)
            err = refeval.max_rel_diff(ref, report["relibra"]["entry_times"])
            got = report["relibra"]["total_time_s"]
            worst = max(err, abs(sum(map(sum, ref)) - got) / got)
            return worst <= REL_TOL, f"max relative error {worst:.2e}, limit {REL_TOL:g}"

        def lplb_ref():
            from moebalance import replicate as rep
            from moebalance import sim
            cfgs = sim.SimConfigs(replica=rep.ReplicaConfig(self.w.replica_slots), threads=os.cpu_count() or 1)
            bundle, _ = sim.build_policy_bundle(trace, "lplb_like", trace.topo, trace.model, trace.topo.profile, cfgs)
            ref = refeval.bundle_entry_times(trace, bundle)
            err = refeval.max_rel_diff(ref, report["lplb_like"]["entry_times"])
            return err <= REL_TOL, f"max relative error {err:.2e}, limit {REL_TOL:g}"

        def readme():
            got = {p: round(report[p]["total_time_s"], 4) for p in README_TOTALS}
            return got == README_TOTALS, f"got {got}"

        if len(plan_dirs) > 1:
            ops.check(f"{tag} plans byte-identical across solves", same_plans)
        if len(docs) > 1:
            ops.check(f"{tag} modeled times identical across simulates", same_totals)
        ops.check(f"{tag} reference evaluator matches relibra entries", relibra_ref)
        ops.check(f"{tag} reference evaluator matches lplb_like entries", lplb_ref)
        if self.w.name == "quickstart-ep32" and trace_seed == 11:
            ops.check(f"{tag} README quickstart totals", readme)
        return report

    # ------------------------------------------------------------------
    # runs

    def run_untraced(self) -> dict[str, float]:
        from workloads import trace_seeds
        seeds = trace_seeds(self.seed, self.w.traces)
        k = len(seeds)
        trace_dirs = [self.work / f"trace{i}" for i in range(k)]
        spare = self.work / "trace-rep"
        setup_t: list[list[float]] = [[] for _ in range(k)]
        solve_t: list[list[float]] = [[] for _ in range(k)]
        sim_t: list[list[float]] = [[] for _ in range(k)]
        plan_dirs: list[list[Path]] = [[] for _ in range(k)]
        report_dirs: list[list[Path]] = [[] for _ in range(k)]

        def setup_rep(i: int, target: Path) -> bool:
            ok, dt = self.setup(target, seeds[i])
            setup_t[i].append(dt)
            return ok

        def simulate_rep(i: int) -> bool:
            report = self.work / f"report{i}-{len(sim_t[i])}"
            ok, dt = self.simulate(trace_dirs[i], plan_dirs[i][0], report)
            sim_t[i].append(dt)
            report_dirs[i].append(report)
            return ok

        def fewest(samples: list[list[float]], among) -> int:
            return min(among, key=lambda i: (len(samples[i]), i))

        if not all(setup_rep(i, trace_dirs[i]) for i in range(k)):
            return {}
        # Every trace is solved once, then again in turn while time is left. After
        # each solve come short batches of simulate and setup repetitions, so the
        # short operations sample the whole run and not one stretch of it.
        deadline = perf_counter() + self.seconds
        n = 0
        while True:
            i = n % k
            plans = self.work / f"plans{n}"
            ok, dt = self.solve(trace_dirs[i], plans)
            if not ok:
                return {}
            solve_t[i].append(dt)
            plan_dirs[i].append(plans)
            n += 1
            solved = [t for t in range(k) if plan_dirs[t]]
            for reps, batch_s, fn in ((sim_t, SIM_BATCH_S, lambda t: simulate_rep(t)),
                                      (setup_t, SETUP_BATCH_S, lambda t: setup_rep(t, spare))):
                end = perf_counter() + batch_s
                for _ in range(BATCH_MAX_REPS):
                    if not fn(fewest(reps, solved)):
                        return {}
                    if perf_counter() >= end:
                        break
            if n >= max(k, SOLVE_MAX_REPS) or (n >= k and perf_counter() + dt > deadline):
                break
        while (min(map(len, sim_t)) < SIM_MIN_PER_TRACE
               or sum(map(sum, sim_t)) < SIM_MIN_S and sum(map(len, sim_t)) < SIM_MAX_REPS):
            if not simulate_rep(fewest(sim_t, range(k))):
                return {}
        while (sum(map(len, setup_t)) < SETUP_MIN_REPS
               or sum(map(sum, setup_t)) < SETUP_MIN_S and sum(map(len, setup_t)) < SETUP_MAX_REPS):
            if not setup_rep(fewest(setup_t, range(k)), spare):
                return {}
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        shutil.rmtree(spare, ignore_errors=True)

        print(f"trace seeds: {seeds}")
        for name, per in (("setup_s", setup_t), ("solve_s", solve_t), ("simulate_s", sim_t)):
            flat = [x for v in per for x in v]
            medians = ", ".join(f"{statistics.median(v):.4f}" for v in per)
            print(f"samples {name}: n={len(flat)} min={min(flat):.4f} max={max(flat):.4f} s; "
                  f"median per trace {medians} s", flush=True)
        relibra = lplb = 0.0
        for i in range(k):
            report = self.check_outputs(seeds[i], trace_dirs[i], plan_dirs[i], report_dirs[i])
            relibra += report["relibra"]["total_time_s"]
            lplb += report["lplb_like"]["total_time_s"]
            print(f"trace seed {seeds[i]}: relibra {report['relibra']['total_time_s']:.6f} s, "
                  f"lplb_like {report['lplb_like']['total_time_s']:.6f} s (modeled)")
        self.samples = {"setup_s": setup_t, "solve_s": solve_t, "simulate_s": sim_t}
        return {
            "setup_s": per_trace_median(setup_t),
            "solve_s": per_trace_median(solve_t),
            "simulate_s": per_trace_median(sim_t),
            "peak_rss_mb": peak_rss_mb,
            "relibra_moe_s": relibra / k,
            "relibra_vs_lplb": relibra / lplb,
        }

    def run_traced(self) -> dict[str, float]:
        import perlayer
        from tracer import Tracer
        trace_dir = self.work / "trace"
        if not self.setup(trace_dir, self.seed)[0]:
            return {}
        plans_u, report_u = self.work / "plans-untraced", self.work / "report-untraced"
        ok, solve_s = self.solve(trace_dir, plans_u)
        if not ok or not (res := self.simulate(trace_dir, plans_u, report_u))[0]:
            return {}
        untraced = {"solve_s": solve_s, "simulate_s": res[1]}

        tracer = Tracer()
        plans_t, report_t = self.work / "plans-traced", self.work / "report-traced"
        tracer.install()
        try:
            ok = (tracer.span("bench.setup", self.setup, self.work / "trace-traced", self.seed)[0]
                  and tracer.span("bench.solve", self.solve, trace_dir, plans_t)[0]
                  and tracer.span("bench.simulate", self.simulate, trace_dir, plans_t, report_t)[0])
        finally:
            tracer.uninstall()
        if not ok:
            return {}
        self.check_outputs(self.seed, trace_dir, [plans_u, plans_t], [report_u, report_t])
        trace = self.rt.load_trace(trace_dir)
        metrics, detail = perlayer.compute(tracer.spans, trace=trace, workload=self.w, plans=plans_t,
                                           report=report_t, trace_dir=self.work / "trace-traced",
                                           untraced=untraced)
        spans_path = OUT / f"spans-{self.w.name}.json"  # latest traced run of the workload
        tracer.write(spans_path)
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")

        share = metrics["attrib.dominant_share"]
        print(f"attribution: {self.w.dominant} covers {detail['dominant_s']:.4f} s of "
              f"{detail['solve_wall_s']:.4f} s traced solve wall time ({share:.1%})")
        for phase in ("solve", "simulate"):
            selfs = detail[f"{phase}_self_s"]
            base = sum(selfs.values())
            parts = ", ".join(f"{layer} {v:.3f} s ({perlayer.ratio(v, base):.1%})"
                              for layer, v in sorted(selfs.items(), key=lambda kv: -kv[1]) if v > 0)
            print(f"{phase} self time by layer, base {base:.3f} s summed over threads: {parts}")
        for k, (ratio, moe) in enumerate(zip(detail["annealed_vs_lpt"], detail["relibra_per_layer_s"])):
            print(f"layer {k}: reorder.annealed_vs_lpt {ratio:.6f}, quality.moe_s.relibra {moe:.6f} modeled_s")
        self.ops.check(f"attribution: {self.w.dominant} dominates traced solve",
                       lambda: (share > 0.5, f"{share:.1%} of {detail['solve_wall_s']:.3f} s > 50%"))
        print(f"tracing overhead: solve {metrics['trace.overhead_solve_s']:+.4f} s on {untraced['solve_s']:.4f} s "
              f"untraced, simulate {metrics['trace.overhead_simulate_s']:+.4f} s on "
              f"{untraced['simulate_s']:.4f} s untraced")
        return metrics


def per_trace_median(samples: list[list[float]]) -> float:
    """Mean over the traces of each trace's median."""
    return statistics.fmean(statistics.median(v) for v in samples)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unknown"


def environment(args) -> dict:
    import numpy as np
    blas = "unknown"
    try:
        cfg = np.show_config(mode="dicts")
        info = cfg.get("Build Dependencies", {}).get("blas", {})
        blas = f"{info.get('name', '?')} {info.get('version', '?')}"
    except (TypeError, ValueError, AttributeError):
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cli_threads": os.cpu_count() or 1,
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "blas_pin": {k: os.environ.get(k) for k in BLAS_PIN}, "git_commit": git_commit(),
    }


def result_line(correct: bool, attempted: int, failed: int, metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}})


def declared_metrics(trace: int) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_one(args) -> int:
    import perlayer
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload]
    env = environment(args)
    print(f"workload {workload.name}: {workload.why}")
    print(f"  exercises: {workload.exercises}; bypasses: {workload.bypasses}")
    print("env " + json.dumps(env), flush=True)
    bench = Bench(workload, args.seed, args.seconds)
    try:
        values = bench.run_traced() if args.trace else bench.run_untraced()
    finally:
        bench.close()
    units = perlayer.UNITS if args.trace else {name: unit for name, (unit, _) in E2E.items()}
    names = declared_metrics(args.trace)
    expected = set(names) | (perlayer.PRINT_ONLY if args.trace else set())
    if values and set(values) != expected:
        bench.ops.record("metric names match BENCHMARK.json", False,
                         f"extra {sorted(set(values) - expected)}, missing {sorted(expected - set(values))}")
    for name in units:
        if name in values:
            kind = "" if args.trace else f" ({E2E[name][1]})"
            print(f"{name} = {values[name]:.6g} {units[name]}{kind}")
    metrics = {name: (values[name], units[name]) for name in names if name in values}
    ops = bench.ops
    correct = bool(values) and not ops.failures
    print(f"operations: attempted {ops.attempted}, failed {len(ops.failures)}")
    OUT.mkdir(exist_ok=True)
    result = {"env": env, "correct": correct, "attempted": ops.attempted, "failures": ops.failures,
              "samples": bench.samples,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    (OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2) + "\n")
    print(result_line(correct, ops.attempted, len(ops.failures), metrics), flush=True)
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, each in a fresh process, untraced and then traced."""
    from workloads import WORKLOADS
    modes = (0, 1) if args.trace is None else (args.trace,)
    attempted = failed = 0
    correct = True
    metrics: dict[str, tuple[float, str]] = {}
    for name in WORKLOADS:
        for mode in modes:
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(mode)]
            print(f"=== {name} trace={mode}", flush=True)
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
            lines = proc.stdout.rstrip("\n").splitlines()
            print("\n".join(lines[:-1]), flush=True)
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"no result from {name} trace={mode} (exit {proc.returncode})")
                correct = False
                attempted += 1
                failed += 1
                continue
            correct &= result["correct"] and proc.returncode == 0
            attempted += result["attempted"]
            failed += result["failed"]
            for key, m in result["metrics"].items():
                metrics[f"{name}/{key}"] = (m["value"], m["unit"])
    print(f"all workloads: attempted {attempted}, failed {failed}")
    print(result_line(correct, attempted, failed, metrics), flush=True)
    return 0 if correct else 1


def main(argv=None) -> int:
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=11, help="workload trace seed (default %(default)s)")
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="measuring time per untraced run (default %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, 1: traced per-layer metrics; "
                             "default: both for --workload all, 0 otherwise")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "moebalance" / "__init__.py").is_file():
        print(f"error: no moebalance sources under {src}; run from a full checkout", file=sys.stderr)
        return 2
    os.environ.update(BLAS_PIN)  # before numpy is first imported
    sys.path[:0] = [str(src), str(BENCH_DIR)]
    os.chdir(ROOT)
    if args.workload == "all":
        return run_all(args)
    if args.trace is None:
        args.trace = 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
