import argparse
import copy
import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import moebalance
from moebalance import planio
from moebalance import routing as rt
from moebalance import sim
from moebalance.cli import build_parser, main
from moebalance.topology import HardwareProfile, build_topology

GEN_ARGS = [
    "gen", "--nodes", "2", "--gpus-per-node", "2", "--experts", "16", "--layers", "1",
    "--micro-batches", "4", "--top-k", "2", "--tokens-per-gpu", "64", "--domains", "2",
    "--alpha", "0.5", "--seed", "7",
    "--flops", "4e6", "--bw-nvlink", "5e3", "--bw-rdma", "1e3",
]

SOLVE_SPEED = ["--seeds", "2", "--cooling", "0.97"]


def run(argv):
    return main([str(a) for a in argv])


def run_process(argv):
    """The CLI as a user runs it, in its own process."""
    env = {**os.environ, "PYTHONPATH": str(Path(moebalance.__file__).parents[1])}
    return subprocess.run([sys.executable, "-m", "moebalance.cli", *map(str, argv)],
                          capture_output=True, text=True, env=env)


def test_gen_manifest_echoes_flags(tmp_path, capsys):
    out = tmp_path / "trace"
    assert run(GEN_ARGS + ["--out", out]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["num_experts"] == 16
    assert manifest["num_micro_batches"] == 4
    assert manifest["gpus_per_node"] == 2
    assert manifest["tokens_per_gpu"] == 64
    assert manifest["generator"]["rng_seed"] == 7
    printed = capsys.readouterr().out
    assert "skewness" in printed


def test_gen_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(GEN_ARGS + ["--out", a]) == 0
    assert run(GEN_ARGS + ["--out", b]) == 0
    assert (a / "routing.bin").read_bytes() == (b / "routing.bin").read_bytes()


def test_gen_rejects_indivisible_experts(tmp_path, capsys):
    args = list(GEN_ARGS)
    args[args.index("63") if "63" in args else args.index("16")] = "63"
    code = run(args + ["--out", tmp_path / "t"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_gen_rejects_zero_micro_batches(tmp_path, capsys):
    args = list(GEN_ARGS)
    args[args.index("--micro-batches") + 1] = "0"
    out = tmp_path / "t"
    capsys.readouterr()
    code = run(args + ["--out", out])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "micro-batch" in err, err
    assert not out.exists()


def test_gen_rejects_negative_expert_param_bytes(tmp_path, capsys):
    out = tmp_path / "t"
    capsys.readouterr()
    code = run(GEN_ARGS + ["--expert-param-bytes", "-5", "--out", out])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: expert_param_bytes must be positive, got -5\n", err
    assert not out.exists()


@pytest.mark.parametrize("alpha", ["inf", "-inf", "nan"])
def test_gen_rejects_non_finite_alpha(tmp_path, capsys, alpha):
    # numpy's own error for an infinite concentration names neither the flag nor its value
    out = tmp_path / "t"
    capsys.readouterr()
    code = run(GEN_ARGS + [f"--alpha={alpha}", "--out", out])
    err = capsys.readouterr().err
    assert code == 1
    assert err == f"error: dirichlet_alpha must be finite and > 0, got {float(alpha)!r}\n", err
    assert not out.exists()


def test_solve_then_simulate_round_trip(tmp_path, capsys):
    trace = tmp_path / "trace"
    plans = tmp_path / "plans"
    report = tmp_path / "report"
    assert run(GEN_ARGS + ["--out", trace]) == 0
    assert run(["solve", "--trace", trace, "--out", plans, "--replica-slots", "1"] + SOLVE_SPEED) == 0
    out = capsys.readouterr().out
    assert "reorder objective" in out
    assert (plans / "reorder.json").is_file()
    assert (plans / "replication.json").is_file()
    assert run(["simulate", "--trace", trace, "--out", report, "--plans", plans,
                "--policies", "static,relibra"]) == 0
    rows = list(csv.DictReader((report / "summary.csv").open()))
    by_name = {r["policy"]: r for r in rows}
    assert float(by_name["static"]["speedup_vs_static"]) == pytest.approx(1.0)
    assert float(by_name["relibra"]["speedup_vs_static"]) > 1.0


def test_simulate_single_policy(tmp_path):
    trace = tmp_path / "trace"
    report = tmp_path / "report"
    assert run(GEN_ARGS + ["--out", trace]) == 0
    assert run(["simulate", "--trace", trace, "--out", report, "--policies", "static"]) == 0
    rows = list(csv.DictReader((report / "summary.csv").open()))
    assert len(rows) == 1
    assert float(rows[0]["speedup_vs_static"]) == pytest.approx(1.0)


def test_simulate_missing_plans_is_actionable(tmp_path, capsys):
    trace = tmp_path / "trace"
    assert run(GEN_ARGS + ["--out", trace]) == 0
    code = run(["simulate", "--trace", trace, "--out", tmp_path / "r",
                "--policies", "relibra", "--plans", tmp_path / "nope"])
    assert code == 1
    err = capsys.readouterr().err
    assert "reorder.json" in err


def test_simulate_unknown_policy(tmp_path, capsys):
    trace = tmp_path / "trace"
    assert run(GEN_ARGS + ["--out", trace]) == 0
    with pytest.raises(SystemExit):
        run(["simulate", "--trace", trace, "--out", tmp_path / "r", "--policies", "sorcery"])


def test_simulate_repeated_policy_is_one_error_line(tmp_path):
    # lplb is lplb_like's short name, so the policy would be planned and scored twice
    trace = tmp_path / "trace"
    assert run(GEN_ARGS + ["--out", trace]) == 0
    result = run_process(["simulate", "--trace", trace, "--out", tmp_path / "r", "--policies", "static,lplb,lplb_like"])
    assert result.returncode == 1
    assert result.stderr == "error: --policies names lplb_like more than once\n", result.stderr
    assert not (tmp_path / "r").exists()


def test_report_series_schema(tmp_path):
    trace = tmp_path / "trace"
    report = tmp_path / "report"
    csv_dir = tmp_path / "csv"
    assert run(GEN_ARGS + ["--out", trace]) == 0
    assert run(["simulate", "--trace", trace, "--out", report,
                "--policies", "static,balanced"]) == 0
    assert run(["report", "--report", report / "report.json", "--out", csv_dir,
                "--series", "comparison,skewness,times,intersection,loads"]) == 0

    with (csv_dir / "comparison.csv").open() as fh:
        header = fh.readline().strip()
    assert header == "policy,total_time_s,speedup_vs_static,skew_mean,skew_p95,skew_max"

    rows = list(csv.DictReader((csv_dir / "skewness.csv").open()))
    assert set(rows[0]) == {"policy", "micro_batch", "layer", "skewness"}
    balanced = [float(r["skewness"]) for r in rows if r["policy"] == "balanced_oracle"]
    assert balanced
    assert all(1.0 - 1e-9 <= v <= 1.05 for v in balanced)

    rows = list(csv.DictReader((csv_dir / "times.csv").open()))
    assert set(rows[0]) == {"policy", "micro_batch", "time_s"}
    rows = list(csv.DictReader((csv_dir / "intersection.csv").open()))
    assert set(rows[0]) == {"layer", "pair_index", "ratio"}
    rows = list(csv.DictReader((csv_dir / "loads.csv").open()))
    assert set(rows[0]) == {"layer", "micro_batch", "expert", "share"}


def test_simulate_idempotent_modulo_timestamp(tmp_path):
    trace = tmp_path / "trace"
    assert run(GEN_ARGS + ["--out", trace]) == 0
    outs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert run(["simulate", "--trace", trace, "--out", out,
                    "--policies", "static,lpt"]) == 0
        outs.append(out)
    assert (outs[0] / "summary.csv").read_bytes() == (outs[1] / "summary.csv").read_bytes()
    a = json.loads((outs[0] / "report.json").read_text())
    b = json.loads((outs[1] / "report.json").read_text())
    a.pop("timestamp")
    b.pop("timestamp")
    assert a == b


def test_report_rejects_malformed(tmp_path):
    bad = tmp_path / "report.json"
    for text in ("{}", "5", "null", "[]"):
        bad.write_text(text)
        with pytest.raises(SystemExit, match=r"^error: malformed report: expected a JSON object"):
            run(["report", "--report", bad, "--out", tmp_path / "csv"])


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    root = tmp_path_factory.mktemp("simulated")
    assert run(GEN_ARGS + ["--out", root / "trace"]) == 0
    assert run(["simulate", "--trace", root / "trace", "--out", root / "report",
                "--policies", "static,lpt"]) == 0
    return root / "report" / "report.json"


def test_summary_csv_is_the_comparison_series(simulated, tmp_path):
    assert run(["report", "--report", simulated, "--out", tmp_path, "--series", "comparison"]) == 0
    assert (simulated.parent / "summary.csv").read_bytes() == (tmp_path / "comparison.csv").read_bytes()


def test_report_states_each_fact_once(simulated):
    text = simulated.read_text()
    data = json.loads(text)
    assert set(data) == {"version", "trace_id", "timestamp", "throughput_proxy", "comparison",
                         "trace_summary", "policies"}
    assert set(data["comparison"]) == {"rows"}
    assert data["version"] == 2
    assert text.count("throughput_proxy") == 1


def test_report_reads_version_1_reports(simulated, tmp_path):
    # the version 1 layout: copies of the trace id, the per-micro-batch
    # times and the throughput note, which the series never read
    data = json.loads(simulated.read_text())
    proxy = data.pop("throughput_proxy")
    v1 = {"version": 1, "trace_id": data["trace_id"], "timestamp": data["timestamp"],
          "metadata": {policy: {"throughput_proxy": proxy} for policy in data["policies"]},
          "comparison": {"trace_id": data["trace_id"], "rows": data["comparison"]["rows"],
                         "mb_times": {policy: body["mb_times"] for policy, body in data["policies"].items()}},
          "trace_summary": data["trace_summary"], "policies": data["policies"]}
    old = tmp_path / "v1" / "report.json"
    old.parent.mkdir()
    old.write_text(json.dumps(v1, indent=2))
    for report, out in ((simulated, tmp_path / "csv2"), (old, tmp_path / "csv1")):
        assert run(["report", "--report", report, "--out", out, "--series", ",".join(sim.SERIES)]) == 0
    for name in sim.SERIES:
        assert (tmp_path / "csv1" / f"{name}.csv").read_bytes() == (tmp_path / "csv2" / f"{name}.csv").read_bytes()


def _drop_policy_field(field):
    def mutate(data):
        del data["policies"]["lpt_only"][field]
    return mutate


def _drop_comparison_column(data):
    del data["comparison"]["rows"][1]["skew_p95"]


@pytest.mark.parametrize("series,mutate,key", [
    ("intersection", lambda data: data.pop("trace_summary"), "trace_summary"),
    ("loads", lambda data: data["trace_summary"].pop("expert_load_share"), "expert_load_share"),
    ("skewness", _drop_policy_field("skew"), "skew"),
    ("times", _drop_policy_field("mb_times"), "mb_times"),
    ("comparison", _drop_comparison_column, "skew_p95"),
], ids=["no_trace_summary", "no_load_shares", "no_skew", "no_mb_times", "no_comparison_column"])
def test_report_missing_key_is_one_error_line(simulated, tmp_path, capsys, series, mutate, key):
    data = json.loads(simulated.read_text())
    mutate(data)
    bad = tmp_path / "report.json"
    bad.write_text(json.dumps(data))
    capsys.readouterr()
    code = run(["report", "--report", bad, "--out", tmp_path / "csv", "--series", series])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert f"missing key '{key}'" in err, err
    assert not (tmp_path / "csv" / f"{series}.csv").exists()


@pytest.mark.parametrize("series,mutate", [
    ("comparison", lambda data: data["comparison"].update(rows=5)),
    ("times", lambda data: data.update(policies=[])),
], ids=["rows_not_a_list", "policies_not_an_object"])
def test_report_mistyped_section_is_one_error_line(simulated, tmp_path, capsys, series, mutate):
    data = json.loads(simulated.read_text())
    mutate(data)
    bad = tmp_path / "report.json"
    bad.write_text(json.dumps(data))
    capsys.readouterr()
    code = run(["report", "--report", bad, "--out", tmp_path / "csv", "--series", series])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: malformed report") and err.count("\n") == 1, err
    assert f"{series} series" in err, err


def test_solve_sample_locality_needs_samples(tmp_path):
    # seen as the process exit a user sees
    trace = tmp_path / "trace"
    assert run(GEN_ARGS + ["--out", trace]) == 0
    result = run_process(["solve", "--trace", trace, "--out", tmp_path / "p", "--sample-locality", *SOLVE_SPEED])
    assert result.returncode == 1
    assert result.stderr == "error: --sample-locality needs a trace with a sample table\n", result.stderr
    assert not (tmp_path / "p").exists()


DEGENERATE_GEN = ["gen", "--nodes", "2", "--gpus-per-node", "2", "--experts", "8", "--top-k", "2",
                  "--micro-batches", "2", "--seed", "3"]


OVERFLOW_PROFILE = "HardwareProfile(flops_per_gpu=1e-300, bw_nvlink=400000.0, bw_rdma=100000.0, bytes_per_token=1.0)"
AGGREGATE_OVERFLOW = ("error: layer 0 batch aggregate at LPT homes: modeled times overflow to inf s "
                      f"under {OVERFLOW_PROFILE}")


@pytest.mark.parametrize("flag, value, expected", [
    # compute times overflow to inf, which would leave NaN in the LP's bounds;
    # the check before annealing finds it before any split LP is built
    ("--flops", "1e-300", AGGREGATE_OVERFLOW),
    # link times of ~1e300 s leave a split beyond the residual tolerance
    ("--bytes-per-token", "1e300", "error: token-split LP residual: replica fractions of expert 4"),
], ids=["unbounded", "residual"])
def test_solve_degenerate_lp_is_one_error_line(tmp_path, capsys, flag, value, expected):
    trace = tmp_path / "trace"
    assert run(DEGENERATE_GEN + ["--out", trace, flag, value]) == 0
    capsys.readouterr()
    assert run(["solve", "--trace", trace, "--out", tmp_path / "p", "--seeds", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(expected) and err.count("\n") == 1, err


def test_solve_overflow_fails_before_annealing(tmp_path, capsys, monkeypatch):
    trace = tmp_path / "trace"
    assert run(DEGENERATE_GEN + ["--out", trace, "--flops", "1e-300"]) == 0
    capsys.readouterr()

    def no_annealing(*args, **kwargs):
        raise AssertionError("annealed on overflowing times")

    monkeypatch.setattr(sim.ro, "anneal_reorder", no_annealing)
    out = tmp_path / "p"
    # with no replica slots no split LP is ever built, and the line says so
    for slots in ([], ["--replica-slots", "0"]):
        assert run(["solve", "--trace", trace, "--out", out, "--seeds", "1", *slots]) == 1
        err = capsys.readouterr().err
        assert err == AGGREGATE_OVERFLOW + "\n", (slots, err)
        assert not out.exists()


def test_gen_rejects_sizes_past_a_float(tmp_path, capsys):
    hidden = "1" + "0" * 400
    out = tmp_path / "t"
    capsys.readouterr()
    assert run(GEN_ARGS + ["--hidden", hidden, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: hidden_size {hidden} and intermediate_size ") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "simulate"])
@pytest.mark.parametrize("sizes", [
    {"hidden_size": 10**400},  # 6.0 * h raises OverflowError
    {"intermediate_size": 10**400},
    {"hidden_size": 10**160, "intermediate_size": 10**160},  # each fits a float, 6*h*h' does not
], ids=["hidden", "intermediate", "product"])
def test_manifest_sizes_past_a_float_are_one_error_line(generated, tmp_path, capsys, command, sizes):
    trace = tmp_path / "trace"
    shutil.copytree(generated, trace)
    path = trace / "manifest.json"
    manifest = {**json.loads(path.read_text()), **sizes}
    path.write_text(json.dumps(manifest))
    out = tmp_path / "out"
    capsys.readouterr()
    assert run([command, "--trace", trace, "--out", out, *(["--seeds", "1"] if command == "solve" else [])]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: hidden_size {manifest['hidden_size']} and intermediate_size "
                   f"{manifest['intermediate_size']}: the FLOP scale 6*h*h' does not fit a float\n"), err
    assert not out.exists()


def test_simulate_plans_without_relibra_is_an_error(tmp_path):
    # --plans is read only for relibra; any other policy list would ignore it
    trace = tmp_path / "trace"
    assert run(DEGENERATE_GEN + ["--out", trace]) == 0
    with pytest.raises(SystemExit) as exited:
        run(["simulate", "--trace", trace, "--out", tmp_path / "r", "--plans", tmp_path / "nonexistent",
             "--policies", "static,lpt"])
    assert exited.value.code == "error: --plans is read only for the relibra policy, which --policies does not name"
    assert not (tmp_path / "r").exists()


def test_simulate_relibra_without_plans_is_one_error_line(tmp_path):
    # solve is the only planner of relibra; nothing is planned or written first
    trace = tmp_path / "trace"
    assert run(DEGENERATE_GEN + ["--out", trace]) == 0
    result = run_process(["simulate", "--trace", trace, "--out", tmp_path / "r", "--policies", "static,relibra"])
    assert result.returncode == 1
    assert result.stderr == "error: relibra is scored from the plans solve writes; pass them with --plans\n"
    assert result.stdout == ""
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("with_plans", [False, True])
def test_simulate_scores_every_policy_by_default(solved, tmp_path, with_plans):
    # in sim.POLICIES order, relibra only when its plans are given
    plans = ["--plans", solved / "plans"] if with_plans else []
    assert run(["simulate", "--trace", solved / "trace", "--out", tmp_path / "r", *plans]) == 0
    scored = [row["policy"] for row in csv.DictReader((tmp_path / "r" / "summary.csv").open())]
    assert scored == [policy for policy in sim.POLICIES if with_plans or policy != "relibra"]


def _options(command):
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {flag for action in sub.choices[command]._actions for flag in action.option_strings} - {"-h", "--help"}


def test_solve_and_simulate_option_sets():
    assert _options("simulate") == {"--trace", "--out", "--policies", "--plans", "--replica-slots"}
    assert _options("solve") == {"--trace", "--out", "--sample-locality", "--seeds", "--cooling", "--beta",
                                 "--replica-slots"}


@pytest.mark.parametrize("command,flag", [
    *(("simulate", flag) for flag in ("--seeds", "--cooling", "--beta", "--seed", "--sample-locality")),
    ("solve", "--seed"),  # no abbreviation of --seeds either
])
def test_dropped_options_are_rejected(solved, tmp_path, capsys, command, flag):
    value = [] if flag == "--sample-locality" else ["1"]
    with pytest.raises(SystemExit) as exited:
        run([command, "--trace", solved / "trace", "--out", tmp_path / "o", flag, *value])
    assert exited.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_reorder_config_echoes_the_solve_options(solved):
    config = json.loads((solved / "plans" / "reorder.json").read_text())["config"]
    assert config == {"seeds": 2, "cooling": 0.97, "beta": 20.0, "replica_slots": 1, "sample_locality": False}


@pytest.mark.parametrize("policies", ["static", "static,lpt,eplb"])
def test_simulate_overflow_is_one_error_line(tmp_path, capsys, policies):
    trace = tmp_path / "trace"
    assert run(DEGENERATE_GEN + ["--out", trace, "--flops", "1e-300"]) == 0
    capsys.readouterr()
    out = tmp_path / "r"
    assert run(["simulate", "--trace", trace, "--out", out, "--policies", policies]) == 1
    err = capsys.readouterr().err
    assert err == f"error: modeled time of entry (0, 0) overflows to inf s under {OVERFLOW_PROFILE}\n", err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("beta", ["inf", "nan", "0"])
def test_solve_rejects_non_finite_beta(tmp_path, capsys, beta):
    trace = tmp_path / "trace"
    assert run(DEGENERATE_GEN + ["--out", trace]) == 0
    capsys.readouterr()
    out = tmp_path / "p"
    assert run(["solve", "--trace", trace, "--out", out, "--seeds", "1", "--beta", beta]) == 1
    err = capsys.readouterr().err
    assert err == f"error: beta must be positive and finite, got {float(beta)!r}\n", err
    assert not out.exists()


def test_solve_with_samples_and_locality(tmp_path):
    trace = tmp_path / "trace"
    plans = tmp_path / "plans"
    report = tmp_path / "report"
    assert run(GEN_ARGS + ["--out", trace, "--samples-per-gpu", "2"]) == 0
    assert run(["solve", "--trace", trace, "--out", plans, "--sample-locality",
                "--replica-slots", "1"] + SOLVE_SPEED) == 0
    data = json.loads((plans / "reorder.json").read_text())
    assert data["sample_placement"] is not None
    assert run(["simulate", "--trace", trace, "--out", report, "--plans", plans,
                "--policies", "static,relibra"]) == 0


@pytest.mark.parametrize("seed", ["2", "7"])
def test_sample_locality_never_worse_than_none(tmp_path, seed):
    # on the seed 2 trace the samples' own placement beats every placement
    # the greedy start and the chains reach; on seed 7 the pass moves samples
    trace_dir = tmp_path / "trace"
    gen = list(GEN_ARGS)
    gen[gen.index("--seed") + 1] = seed
    assert run(gen + ["--out", trace_dir, "--samples-per-gpu", "2"]) == 0
    trace = rt.load_trace(trace_dir)
    totals = {}
    for name, flags in (("plain", []), ("locality", ["--sample-locality"])):
        assert run(["solve", "--trace", trace_dir, "--out", tmp_path / name, "--replica-slots", "0",
                    *flags] + SOLVE_SPEED) == 0
        bundle = planio.load_plan_bundle(tmp_path / name, trace)
        totals[name] = sim.evaluate_bundle(trace, bundle, trace.topo, trace.model, trace.topo.profile).total_time
    assert totals["locality"] <= totals["plain"]


def test_simulate_trace_with_an_empty_micro_batch(tmp_path, capsys):
    # micro-batch 1 routes no token: its raw expert skew reads 1.0, as the
    # evaluator scores an empty entry, instead of failing after the totals
    hw = HardwareProfile(6.0, 10.0, 3.0, 1.0)
    model = rt.ModelProfile(num_layers=1, num_experts=2, top_k=1)
    matrices = np.zeros((2, 1, 2, 2), dtype=np.uint32)
    matrices[0, 0] = [[3, 1], [2, 2]]
    trace, plans, report = tmp_path / "trace", tmp_path / "plans", tmp_path / "report"
    rt.save_trace(rt.RoutingTrace(model=model, topo=build_topology(1, 2, hw), matrices=matrices,
                                  tokens_per_gpu=0), trace)
    assert run(["solve", "--trace", trace, "--out", plans, "--seeds", "1"]) == 0
    assert run(["simulate", "--trace", trace, "--plans", plans, "--out", report, "--replica-slots", "1",
                "--policies", "static,lpt,eplb,lplb,balanced,relibra"]) == 0
    assert "error" not in capsys.readouterr().err
    summary = json.loads((report / "report.json").read_text())["trace_summary"]
    assert summary["skewness_raw"] == [[1.25, 1.0]]


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    root = tmp_path_factory.mktemp("solved")
    assert run(GEN_ARGS + ["--out", root / "trace"]) == 0
    assert run(["solve", "--trace", root / "trace", "--out", root / "plans",
                "--replica-slots", "1"] + SOLVE_SPEED) == 0
    return root


def _first_replicated(data):
    return next(entry for entry in data["entries"] if entry["splits"])


def _set_split_source(data):
    _first_replicated(data)["splits"][0][0] = 999


def _set_replica_expert(data):
    _first_replicated(data)["replicas"][0][0] = 999


def _drop_micro_batch(data):
    del data["entries"][0]["micro_batch"]


def _drop_served_replica(data):
    # the split rows of the dropped replica now name a GPU without a copy
    entry = _first_replicated(data)
    held = [[e, g] for e, g in entry["replicas"]]
    served = next([e, g] for _, e, g, _ in entry["splits"] if [e, g] in held)
    entry["replicas"].remove(served)


def _nan_fraction(data):
    # NaN compares false against every bound, so it used to pass every check
    _first_replicated(data)["splits"][0][3] = float("nan")


def _huge_fraction(data):
    _first_replicated(data)["splits"][0][3] = 10**400


def _true_index(data):
    data["entries"][0]["splits"][0][0] = True


def _float_index(data):
    data["entries"][0]["splits"][0][1] = 1.0


def _short_split_row(data):
    data["entries"][0]["splits"][0] = [0, 11, 1]


def _split_row_not_a_list(data):
    data["entries"][0]["splits"][0] = "0 11 1 1.0"


def _string_objective(data):
    data["entries"][0]["objective"] = "fast"


def _bool_objective(data):
    data["entries"][0]["objective"] = True


def _nan_objective(data):
    data["entries"][0]["objective"] = float("nan")


def _infinite_objective(data):
    data["entries"][0]["objective"] = float("inf")


def _true_gpu(data):
    data["plans"][0][0] = True


def _reorder_gpu_outside(data):
    data["plans"][0][0] = 999


def _replica_gpu_outside(data):
    _first_replicated(data)["replicas"][0][1] = 999


def _split_gpu_outside(data):
    _first_replicated(data)["splits"][0][2] = 999


def _repeat_split_row(data):
    # the same (source, expert, GPU) twice, the second time with another fraction
    splits = data["entries"][0]["splits"]
    splits.insert(1, splits[0][:3] + [0.25])


def _repeat_entry(data):
    data["entries"].append(copy.deepcopy(data["entries"][0]))


def _unbalanced_reorder(data):
    # one expert moves to the next GPU, which then holds one expert too many
    data["plans"][0][0] = (data["plans"][0][0] + 1) % 4


def _micro_batch_outside(data):
    data["entries"][0]["micro_batch"] = 999


def _true_micro_batch(data):
    data["entries"][0]["micro_batch"] = True


def _duplicate_replica(data):
    entry = _first_replicated(data)
    entry["replicas"].append(list(entry["replicas"][0]))


def _replica_off_node(data):
    # the replica and the split rows it serves move to the other node's GPU
    entry = _first_replicated(data)
    e, g = entry["replicas"][0]
    moved = (g + 2) % 4
    entry["replicas"][0] = [e, moved]
    for row in entry["splits"]:
        if row[1:3] == [e, g]:
            row[2] = moved


def _halve_fractions(data):
    for row in _first_replicated(data)["splits"]:
        row[3] /= 2


def _true_version(data):
    data["version"] = True


def _float_version(data):
    data["version"] = 1.0


def _entry_not_an_object(data):
    data["entries"][1] = [0, 0]


def _short_reorder_layer(data):
    data["plans"][0].pop()


def _empty_trace_id(data):
    data["trace_id"] = ""


def _missing_trace_id(data):
    del data["trace_id"]


@pytest.mark.parametrize("file,mutate,expected", [
    ("replication.json", _set_split_source, "splits[0] source = 999"),
    ("replication.json", _set_replica_expert, "replicas[0] expert = 999"),
    ("replication.json", _drop_micro_batch, "entries[0]: missing required key 'micro_batch'"),
    ("replication.json", _drop_served_replica, "holds no copy of expert"),
    ("replication.json", _nan_fraction, "fraction = nan of expert"),
    ("replication.json", _huge_fraction, "is not a finite float"),
    ("replication.json", _repeat_entry, "repeats (micro_batch, layer) = (0, 0) of entries[0]"),
    ("reorder.json", _short_reorder_layer, "plans[0] has 15 entries, the trace has 16 experts"),
    ("reorder.json", _empty_trace_id, "trace_id is missing or empty"),
    ("replication.json", _missing_trace_id, "trace_id is missing or empty"),
    ("reorder.json", _unbalanced_reorder, "plan is not capacity-preserving"),
    ("replication.json", _micro_batch_outside, "entries[0].micro_batch = 999 is not an index in [0, 4)"),
    ("replication.json", _true_micro_batch, "entries[0].micro_batch = True is not an index in [0, 4)"),
    ("replication.json", _duplicate_replica, "duplicate replica GPUs for expert"),
    ("replication.json", _replica_off_node, "leaves its home node"),
    ("replication.json", _halve_fractions, "violate conservation by 5.000e-01"),
    ("replication.json", _true_index, "entries[0].splits[0] source = True is not an index in [0, 4)"),
    ("replication.json", _float_index, "entries[0].splits[0] expert = 1.0 is not an index in [0, 16)"),
    ("replication.json", _short_split_row, "entries[0].splits[0] must be a list of 4 values, got [0, 11, 1]"),
    ("replication.json", _split_row_not_a_list,
     "entries[0].splits[0] must be a list of 4 values, got '0 11 1 1.0'"),
    ("replication.json", _string_objective, "entries[0].objective has the wrong type: 'fast'"),
    ("replication.json", _repeat_split_row, "entries[0].splits[1] repeats (source, expert, gpu) = "),
    ("replication.json", _bool_objective, "entries[0].objective has the wrong type: True"),
    ("replication.json", _nan_objective, "entries[0].objective = nan is not a finite float"),
    ("replication.json", _infinite_objective, "entries[0].objective = inf is not a finite float"),
    ("reorder.json", _true_gpu, "plans[0][0] = True is not an index in [0, 4)"),
    ("reorder.json", _reorder_gpu_outside, "plans[0][0] = 999 is not an index in [0, 4)"),
    ("replication.json", _replica_gpu_outside, "replicas[0] gpu = 999 is not an index in [0, 4)"),
    ("replication.json", _split_gpu_outside, "splits[0] gpu = 999 is not an index in [0, 4)"),
    ("reorder.json", _true_version, "unsupported reorder plan version"),
    ("reorder.json", _float_version, "unsupported reorder plan version"),
    ("replication.json", _true_version, "unsupported replication plan version"),
    ("replication.json", _float_version, "unsupported replication plan version"),
    ("replication.json", _entry_not_an_object, "entries[1] is not a JSON object"),
])
def test_simulate_rejects_malformed_plan_files(solved, tmp_path, capsys, file, mutate, expected):
    err = simulate_mutated(solved, tmp_path, capsys, file, mutate)
    assert file in err and expected in err, err


def simulate_mutated(solved, tmp_path, capsys, file, mutate):
    """The one error line of `simulate` on the solved plans with `file` mutated."""
    plans = tmp_path / "plans"
    shutil.copytree(solved / "plans", plans)
    path = plans / file
    data = json.loads(path.read_text())
    mutate(data)
    path.write_text(json.dumps(data))
    capsys.readouterr()
    code = run(["simulate", "--trace", solved / "trace", "--out", tmp_path / "r", "--plans", plans,
                "--policies", "relibra"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("mutate,expected", [
    (_halve_fractions, "violate conservation by 5.000e-01"),
    (_duplicate_replica, "duplicate replica GPUs for expert"),
    (_replica_off_node, "leaves its home node"),
])
def test_bundle_fit_errors_name_their_entry(solved, tmp_path, capsys, mutate, expected):
    # the mutation hits entries[2], not entries[0], and the error names its (micro_batch, layer)
    entry = json.loads((solved / "plans" / "replication.json").read_text())["entries"][2]
    key = (entry["micro_batch"], entry["layer"])
    assert key != (0, 0)
    err = simulate_mutated(solved, tmp_path, capsys, "replication.json",
                           lambda data: mutate({"entries": data["entries"][2:]}))
    assert f"replication.json: replication entry {key}: " in err and expected in err, err


def _repeat_then_bad_row(data):
    splits = data["entries"][0]["splits"]
    splits.insert(1, splits[0][:3] + [0.25])
    splits.append([0, 0, 0, "half"])


def _no_copy_then_bad_row(data):
    _drop_served_replica(data)
    _first_replicated(data)["splits"].append([0, 0, 0, "half"])


@pytest.mark.parametrize("mutate", [_repeat_then_bad_row, _no_copy_then_bad_row])
def test_split_row_form_errors_come_before_copy_and_repeat_errors(solved, tmp_path, capsys, mutate):
    # the split rows are checked for form, types and ranges all at once
    # before any row is checked against the copies and the other rows, so
    # the last row's bad fraction is named, not an earlier row's copy or repeat
    err = simulate_mutated(solved, tmp_path, capsys, "replication.json", mutate)
    assert "fraction = 'half' of expert 0 is not a finite float" in err, err


@pytest.fixture(scope="module")
def generated(tmp_path_factory):
    root = tmp_path_factory.mktemp("generated")
    assert run(GEN_ARGS + ["--out", root / "trace", "--samples-per-gpu", "1"]) == 0
    return root / "trace"


def _wrong_type(value):
    # a string for every count and rate, a count for the flag
    return 1 if isinstance(value, bool) else str(value)


MANIFEST_KEYS = [*rt.MANIFEST_INTS, *rt.MANIFEST_NUMBERS, "expert_param_bytes", "has_samples"]


@pytest.mark.parametrize("key,mutate", [
    *((key, "wrong_type") for key in MANIFEST_KEYS),
    *((key, "fractional") for key in (*rt.MANIFEST_INTS, "expert_param_bytes")),
    ("hidden_size", "missing"),
    ("intermediate_size", "missing"),
    ("tokens_per_gpu", "negative"),
    ("expert_param_bytes", "negative"),
])
def test_simulate_rejects_malformed_manifest(generated, tmp_path, capsys, key, mutate):
    trace = tmp_path / "trace"
    shutil.copytree(generated, trace)
    path = trace / "manifest.json"
    manifest = json.loads(path.read_text())
    if mutate == "missing":
        del manifest[key]
    elif mutate == "fractional":
        manifest[key] = manifest[key] + 0.5
    elif mutate == "negative":
        manifest[key] = -manifest[key]
    else:
        manifest[key] = _wrong_type(manifest[key])
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    code = run(["simulate", "--trace", trace, "--out", tmp_path / "r", "--policies", "static"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert key in err, err
    if mutate != "missing":
        assert " must be " in err, err
    if mutate in ("wrong_type", "fractional"):
        assert "manifest.json" in err, err


def _first_sample(field, value):
    def mutate(data):
        data["samples"][0][field] = value(data["samples"][0][field])
    return mutate


@pytest.mark.parametrize("text,mutate,expected", [
    ("{", None, "malformed JSON"),
    ("{}", None, "a JSON object with a 'samples' list"),
    (None, _first_sample("tokens", lambda v: 999), "tokens * top_k = 999 * 2"),
    (None, _first_sample("source_gpu", lambda v: v + 0.5), "samples[0].source_gpu must be an integer"),
    (None, _first_sample("micro_batch", lambda v: True), "samples[0].micro_batch must be an integer"),
    (None, _first_sample("tokens", lambda v: 2**40), "samples[0].tokens must be within [0, 2147483647]"),
    (None, _first_sample("source_gpu", lambda v: 2**31), "samples[0].source_gpu must be within [0, 2147483647]"),
], ids=["malformed", "no_samples_list", "tokens", "fractional_source_gpu", "bool_micro_batch",
        "int64_tokens", "int32_overflow_source_gpu"])
def test_simulate_rejects_malformed_samples(generated, tmp_path, capsys, text, mutate, expected):
    trace = tmp_path / "trace"
    shutil.copytree(generated, trace)
    path = trace / "samples.json"
    if mutate is not None:
        data = json.loads(path.read_text())
        mutate(data)
        text = json.dumps(data)
    path.write_text(text)
    capsys.readouterr()
    code = run(["simulate", "--trace", trace, "--out", tmp_path / "r", "--policies", "static"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "samples.json" in err and expected in err, err
