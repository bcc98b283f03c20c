import copy
import csv
import json
import shutil

import pytest

from moebalance import routing as rt
from moebalance import sim
from moebalance.cli import main

GEN_ARGS = [
    "gen", "--nodes", "2", "--gpus-per-node", "2", "--experts", "16", "--layers", "1",
    "--micro-batches", "4", "--top-k", "2", "--tokens-per-gpu", "64", "--domains", "2",
    "--alpha", "0.5", "--seed", "7",
    "--flops", "4e6", "--bw-nvlink", "5e3", "--bw-rdma", "1e3",
]

SOLVE_SPEED = ["--seeds", "2", "--cooling", "0.97"]


def run(argv):
    return main([str(a) for a in argv])


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


def test_solve_then_simulate_round_trip(tmp_path, capsys):
    trace = tmp_path / "trace"
    plans = tmp_path / "plans"
    report = tmp_path / "report"
    assert run(GEN_ARGS + ["--out", trace]) == 0
    assert run(["solve", "--trace", trace, "--out", plans, "--replica-slots", "1",
                "--threads", "1"] + SOLVE_SPEED) == 0
    out = capsys.readouterr().out
    assert "reorder objective" in out
    assert (plans / "reorder.json").is_file()
    assert (plans / "replication.json").is_file()
    assert run(["simulate", "--trace", trace, "--out", report, "--plans", plans,
                "--policies", "static,relibra", "--threads", "1"] + SOLVE_SPEED) == 0
    rows = list(csv.DictReader((report / "summary.csv").open()))
    by_name = {r["policy"]: r for r in rows}
    assert float(by_name["static"]["speedup_vs_static"]) == pytest.approx(1.0)
    assert float(by_name["relibra"]["speedup_vs_static"]) > 1.0


def test_simulate_single_policy(tmp_path):
    trace = tmp_path / "trace"
    report = tmp_path / "report"
    assert run(GEN_ARGS + ["--out", trace]) == 0
    assert run(["simulate", "--trace", trace, "--out", report, "--policies", "static",
                "--threads", "1"]) == 0
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


def test_report_series_schema(tmp_path):
    trace = tmp_path / "trace"
    report = tmp_path / "report"
    csv_dir = tmp_path / "csv"
    assert run(GEN_ARGS + ["--out", trace]) == 0
    assert run(["simulate", "--trace", trace, "--out", report,
                "--policies", "static,balanced", "--threads", "1"]) == 0
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
                    "--policies", "static,lpt", "--threads", "1"]) == 0
        outs.append(out)
    assert (outs[0] / "summary.csv").read_bytes() == (outs[1] / "summary.csv").read_bytes()
    a = json.loads((outs[0] / "report.json").read_text())
    b = json.loads((outs[1] / "report.json").read_text())
    a.pop("timestamp")
    b.pop("timestamp")
    assert a == b


def test_report_rejects_malformed(tmp_path, capsys):
    bad = tmp_path / "report.json"
    bad.write_text("{}")
    with pytest.raises(SystemExit):
        run(["report", "--report", bad, "--out", tmp_path / "csv"])


@pytest.fixture(scope="module")
def simulated(tmp_path_factory):
    root = tmp_path_factory.mktemp("simulated")
    assert run(GEN_ARGS + ["--out", root / "trace"]) == 0
    assert run(["simulate", "--trace", root / "trace", "--out", root / "report",
                "--policies", "static,lpt", "--threads", "1"]) == 0
    return root / "report" / "report.json"


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


def test_solve_sample_locality_needs_samples(tmp_path, capsys):
    trace = tmp_path / "trace"
    assert run(GEN_ARGS + ["--out", trace]) == 0
    with pytest.raises(SystemExit):
        run(["solve", "--trace", trace, "--out", tmp_path / "p", "--sample-locality"] + SOLVE_SPEED)


DEGENERATE_GEN = ["gen", "--nodes", "2", "--gpus-per-node", "2", "--experts", "8", "--top-k", "2",
                  "--micro-batches", "2", "--seed", "3"]


OVERFLOW_PROFILE = "HardwareProfile(flops_per_gpu=1e-300, bw_nvlink=400000.0, bw_rdma=100000.0, bytes_per_token=1.0)"


@pytest.mark.parametrize("flag, value, expected", [
    # compute times overflow to inf, which would leave NaN in the LP's bounds
    ("--flops", "1e-300", f"error: token-split LP: modeled times overflow to inf s under {OVERFLOW_PROFILE}"),
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
    assert run(["solve", "--trace", trace, "--out", out, "--seeds", "1"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: token-split LP: modeled times overflow to inf s under {OVERFLOW_PROFILE}\n", err
    assert not out.exists()


@pytest.mark.parametrize("command", ["solve", "simulate"])
def test_negative_threads_is_one_error_line(tmp_path, capsys, command):
    trace = tmp_path / "trace"
    assert run(DEGENERATE_GEN + ["--out", trace]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    assert run([command, "--trace", trace, "--out", out, "--seeds", "1", "--threads", "-3"]) == 1
    err = capsys.readouterr().err
    assert err == "error: threads must be >= 0 (0 = all cores), got -3\n", err
    assert not out.exists()


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
                "--replica-slots", "1", "--threads", "1"] + SOLVE_SPEED) == 0
    data = json.loads((plans / "reorder.json").read_text())
    assert data["sample_placement"] is not None
    assert run(["simulate", "--trace", trace, "--out", report, "--plans", plans,
                "--policies", "static,relibra", "--threads", "1"] + SOLVE_SPEED) == 0


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    root = tmp_path_factory.mktemp("solved")
    assert run(GEN_ARGS + ["--out", root / "trace"]) == 0
    assert run(["solve", "--trace", root / "trace", "--out", root / "plans", "--replica-slots", "1",
                "--threads", "1"] + SOLVE_SPEED) == 0
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


def _repeat_entry(data):
    data["entries"].append(copy.deepcopy(data["entries"][0]))


def _unbalanced_reorder(data):
    # one expert moves to the next GPU, which then holds one expert too many
    data["plans"][0][0] = (data["plans"][0][0] + 1) % 4


def _micro_batch_outside(data):
    data["entries"][0]["micro_batch"] = 999


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
    ("replication.json", _micro_batch_outside, "replication entry (999, 0) outside the trace"),
    ("replication.json", _duplicate_replica, "duplicate replica GPUs for expert"),
    ("replication.json", _replica_off_node, "leaves its home node"),
    ("replication.json", _halve_fractions, "violate conservation by 5.000e-01"),
])
def test_simulate_rejects_malformed_plan_files(solved, tmp_path, capsys, file, mutate, expected):
    plans = tmp_path / "plans"
    shutil.copytree(solved / "plans", plans)
    path = plans / file
    data = json.loads(path.read_text())
    mutate(data)
    path.write_text(json.dumps(data))
    capsys.readouterr()
    code = run(["simulate", "--trace", solved / "trace", "--out", tmp_path / "r", "--plans", plans,
                "--policies", "relibra", "--threads", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert file in err and expected in err, err


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
    else:
        manifest[key] = _wrong_type(manifest[key])
    path.write_text(json.dumps(manifest))
    capsys.readouterr()
    code = run(["simulate", "--trace", trace, "--out", tmp_path / "r", "--policies", "static",
                "--threads", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert key in err, err
    if mutate != "missing":
        assert "manifest.json" in err and " must be " in err, err


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
    code = run(["simulate", "--trace", trace, "--out", tmp_path / "r", "--policies", "static",
                "--threads", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "samples.json" in err and expected in err, err
