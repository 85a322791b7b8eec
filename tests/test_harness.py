"""Experiment harness: config format, orchestration, outputs, CLI."""

import csv
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refs import welch_ref
from zodd import (
    ConfigError,
    ExperimentSpec,
    IterTrace,
    QuadraticShiftOracle,
    parse_config,
    read_trace,
    run_experiment,
    serialize_config,
    summarize,
    trace_plotdata,
    welch_t,
    write_plotdata_csv,
    write_trace,
)
from zodd.cli import main as cli_main
from zodd.harness import (
    METHOD_GRID,
    RunRecord,
    _trace_to_json,
    build_environment,
    build_run_config,
)
from zodd.optimize import AffineBatch, ConstantBatch, ConstantBeta, GeometricBeta


def tiny_spec(tmp_path, **over):
    kw = dict(
        env_kind="analytic",
        d=3,
        methods=("alg1-mini", "alg2-mini", "czo1-mini"),
        n_instances=2,
        budget=800,
        metric_samples=100,
        output_dir=str(tmp_path / "out"),
    )
    kw.update(over)
    return ExperimentSpec(**kw)


def test_config_roundtrip_defaults():
    spec = ExperimentSpec()
    assert parse_config(serialize_config(spec)) == spec


def test_config_roundtrip_nondefaults(tmp_path):
    spec = tiny_spec(
        tmp_path,
        seeds=(3, 9, 27),
        metric_every=7,
        uniform_weights=True,
        mu_min=3e-3,
        theta_file=None,
    )
    assert parse_config(serialize_config(spec)) == spec


@given(
    st.integers(0, 10**6),
    st.integers(1, 50),
    st.floats(1e-6, 1e2, allow_nan=False),
    st.floats(1e-8, 1.0, allow_nan=False),
    st.booleans(),
    st.permutations(METHOD_GRID).map(lambda ms: tuple(ms[:3])),
)
@settings(max_examples=60, deadline=None)
def test_config_roundtrip_random(seed, n_inst, mu0, frac, uniform, methods):
    spec = ExperimentSpec(
        base_seed=seed,
        n_instances=n_inst,
        mu0=mu0,
        mu_min=mu0 * frac,
        uniform_weights=uniform,
        methods=methods,
    )
    assert parse_config(serialize_config(spec)) == spec


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 2: unknown key"):
        parse_config("env.kind=pricing\nwhat.ever=1\n")
    with pytest.raises(ConfigError, match="line 3: duplicate"):
        parse_config("env.kind=pricing\n\nenv.kind=analytic\n")
    with pytest.raises(ConfigError, match="line 1: bad value"):
        parse_config("run.budget=many\n")
    with pytest.raises(ConfigError, match="line 1: expected key=value"):
        parse_config("just words\n")
    # comments and blanks are fine
    parse_config("# a comment\n\nenv.kind=analytic\n")


def test_spec_validation_errors():
    with pytest.raises(ConfigError, match="unknown env.kind"):
        ExperimentSpec(env_kind="surrogate")
    with pytest.raises(ConfigError, match="unknown method"):
        ExperimentSpec(methods=("alg1-mini", "alg4-mini"))
    with pytest.raises(ConfigError, match="duplicate method"):
        ExperimentSpec(methods=("alg1-mini", "alg1-mini"))
    with pytest.raises(ConfigError):
        ExperimentSpec(n_instances=0)


def test_resolved_seeds():
    assert ExperimentSpec(n_instances=3, base_seed=7).resolved_seeds() == (7, 8, 9)
    assert ExperimentSpec(seeds=(4, 99)).resolved_seeds() == (4, 99)


def test_build_run_config_variants():
    spec = ExperimentSpec()
    mini = build_run_config(spec, "alg1-mini", 5, 10)
    assert isinstance(mini.batch_schedule, AffineBatch)
    assert isinstance(mini.beta_schedule, GeometricBeta)
    assert mini.c0_samples == 20 and mini.method == "alg1"
    assert np.array_equal(mini.x0, np.full(10, 0.5))
    b1 = build_run_config(spec, "alg2-b1", 5, 10)
    assert isinstance(b1.batch_schedule, ConstantBatch)
    assert b1.c0_samples == 0 and b1.method == "alg2"
    czo = build_run_config(spec, "czo1-mini", 5, 10)
    assert czo.mu0 == czo.mu_min == spec.czo_mu
    assert isinstance(czo.beta_schedule, ConstantBeta)
    assert czo.beta_schedule.beta == spec.czo_beta
    assert czo.c0_samples == 0
    with pytest.raises(ConfigError):
        build_run_config(spec, "alg1-maxi", 5, 10)


def test_build_environment_per_seed_instances(tmp_path):
    spec = ExperimentSpec()
    env_a = build_environment(spec, 100)
    env_b = build_environment(spec, 100)
    env_c = build_environment(spec, 101)
    assert np.array_equal(env_a.spec.theta, env_b.spec.theta)
    assert not np.array_equal(env_a.spec.theta, env_c.spec.theta)
    ana = build_environment(tiny_spec(tmp_path), 100)
    ana2 = build_environment(tiny_spec(tmp_path), 999)
    assert isinstance(ana, QuadraticShiftOracle)
    assert np.array_equal(ana.b, ana2.b)


def test_build_environment_theta_file(tmp_path):
    path = tmp_path / "theta.txt"
    path.write_text("".join(f"{v}\n" for v in np.linspace(0.6, 1.4, 10)))
    spec = ExperimentSpec(theta_file=str(path))
    env = build_environment(spec, 3)
    assert np.allclose(env.spec.theta, np.linspace(0.6, 1.4, 10))
    short = ExperimentSpec(theta_file=str(path), n_products=12)
    with pytest.raises(ConfigError, match="theta file has 10"):
        build_environment(short, 3)


def _fake_records(rng, methods, n):
    records = []
    for m in methods:
        objs = rng.normal(float(rng.uniform(-2, 2)), float(rng.uniform(0.1, 2)), n)
        for i, obj in enumerate(objs):
            records.append(
                RunRecord(
                    method=m, seed=i, obj=float(obj), obj_uniform=float(obj),
                    draws=100, metric_draws=10, iterations=5, diverged=False,
                    x_final=(0.0,), x_uniform=(0.0,),
                )
            )
    return records


def test_summary_math_matches_independent_reference():
    rng = np.random.default_rng(7)
    methods = ("alg1-mini", "alg2-mini", "czo1-mini")
    for _ in range(25):
        n = int(rng.integers(2, 30))
        records = _fake_records(rng, methods, n)
        rows = {r.method: r for r in summarize(records, methods)}
        base = [r.obj for r in records if r.method == "czo1-mini"]
        for m in methods:
            objs = [r.obj for r in records if r.method == m]
            assert rows[m].mean_obj == pytest.approx(np.mean(objs), abs=1e-10)
            assert rows[m].sd_obj == pytest.approx(np.std(objs, ddof=1), abs=1e-10)
            assert rows[m].baseline == "czo1-mini"
            if m == "czo1-mini":
                assert np.isnan(rows[m].t_stat) and np.isnan(rows[m].p_value)
            else:
                t_ref, _, p_ref = welch_ref(objs, base)
                assert rows[m].t_stat == pytest.approx(t_ref, abs=1e-10)
                assert rows[m].p_value == pytest.approx(p_ref, abs=1e-10)


def test_welch_t_against_reference():
    rng = np.random.default_rng(8)
    for _ in range(50):
        xs = rng.normal(0.0, 1.0, int(rng.integers(2, 40)))
        ys = rng.normal(0.3, 2.0, int(rng.integers(2, 40)))
        t, p = welch_t(xs, ys)
        t_ref, _, p_ref = welch_ref(xs, ys)
        assert t == pytest.approx(t_ref, abs=1e-10)
        assert p == pytest.approx(p_ref, abs=1e-10)


def test_summary_baseline_fallback():
    rng = np.random.default_rng(9)
    methods = ("alg1-mini", "alg2-b1")
    rows = summarize(_fake_records(rng, methods, 5), methods)
    assert all(r.baseline == "alg1-mini" for r in rows)
    methods2 = ("alg1-mini", "czo1-b1")
    rows2 = summarize(_fake_records(rng, methods2, 5), methods2)
    assert all(r.baseline == "czo1-b1" for r in rows2)


def test_summary_gives_no_test_against_diverged_runs():
    rng = np.random.default_rng(10)
    methods = ("alg1-mini", "alg2-mini", "czo1-mini")

    def summary(diverged):
        records = _fake_records(rng, methods, 6)
        for rec in records:
            rec.diverged = (rec.method, rec.seed) in diverged
        return {r.method: r for r in summarize(records, methods)}

    # a diverged run of a method blanks that method's test only; huge but
    # finite objectives do not make a diverged run comparable
    rows = summary({("alg1-mini", 2)})
    assert rows["alg1-mini"].n_diverged == 1
    assert np.isnan(rows["alg1-mini"].t_stat) and np.isnan(rows["alg1-mini"].p_value)
    assert np.isfinite(rows["alg2-mini"].p_value)
    # a diverged baseline run blanks every test
    rows = summary({("czo1-mini", 0), ("alg2-mini", 4)})
    assert all(np.isnan(r.t_stat) and np.isnan(r.p_value) for r in rows.values())
    assert [rows[m].n_diverged for m in methods] == [0, 1, 1]
    rows = summary(set())
    assert all(np.isfinite(rows[m].p_value) for m in ("alg1-mini", "alg2-mini"))


def test_diverged_run_writes_strict_json_traces(tmp_path):
    # method.beta0=50 makes both alg1 runs diverge on the default instances
    spec = ExperimentSpec(
        methods=("alg1-mini", "czo1-mini"), n_instances=2, beta0=50.0,
        metric_samples=100, output_dir=str(tmp_path / "out"),
    )
    outcome = run_experiment(spec)
    assert [r.diverged for r in outcome.records if r.method == "alg1-mini"] == [True, True]

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    nulled = 0
    for path in outcome.trace_paths.values():
        for line in path.read_text().splitlines():
            row = json.loads(line, parse_constant=refuse)
            nulled += row["grad_norm_sq"] is None or None in row["x"]
    assert nulled > 0
    with open(Path(spec.output_dir) / "summary.csv", newline="") as fh:
        alg1 = next(r for r in csv.DictReader(fh) if r["method"] == "alg1-mini")
    assert alg1["n_diverged"] == "2" and alg1["p_value"] == "" and alg1["t_stat"] == ""


def test_trace_lines_null_only_non_finite_values():
    finite = IterTrace(k=3, x=np.array([0.1, -2.5e300]), mu=0.19, c=-1.25,
                       grad_norm_sq=4.0, cumulative_draws=96, beta=9.5e-4, obj_probe=None)
    plain = json.dumps({
        "k": 3, "x": [0.1, -2.5e300], "mu": 0.19, "c": -1.25, "grad_norm_sq": 4.0,
        "cumulative_draws": 96, "beta": 9.5e-4, "obj_probe": None,
    })
    assert _trace_to_json(finite) == plain
    runaway = dataclasses.replace(
        finite, x=np.array([np.inf, 1.5]), c=np.nan, grad_norm_sq=float("inf")
    )
    assert json.loads(_trace_to_json(runaway)) == {
        "k": 3, "x": [None, 1.5], "mu": 0.19, "c": None, "grad_norm_sq": None,
        "cumulative_draws": 96, "beta": 9.5e-4, "obj_probe": None,
    }


def test_trace_roundtrip(tmp_path):
    traces = [
        IterTrace(k=0, x=np.array([1.0, 2.0]), mu=0.1, c=3.5, grad_norm_sq=4.0,
                  cumulative_draws=30, beta=0.01, obj_probe=None),
        IterTrace(k=1, x=np.array([0.9, 2.1]), mu=0.095, c=None, grad_norm_sq=2.0,
                  cumulative_draws=62, beta=0.0095, obj_probe=-1.25),
    ]
    path = tmp_path / "t.jsonl"
    write_trace(path, traces)
    rows = read_trace(path)
    assert rows[0]["x"] == [1.0, 2.0]
    assert rows[0]["c"] == 3.5 and rows[1]["c"] is None
    assert rows[1]["obj_probe"] == -1.25
    assert rows[1]["cumulative_draws"] == 62


def test_run_experiment_outputs(tmp_path):
    spec = tiny_spec(tmp_path, metric_every=5)
    outcome = run_experiment(spec)
    out = Path(spec.output_dir)
    assert (out / "config.txt").exists()
    assert parse_config((out / "config.txt").read_text()) == spec
    assert len(outcome.records) == 6
    assert not outcome.any_diverged
    for rec in outcome.records:
        assert rec.draws <= spec.budget
        assert rec.metric_draws > 0
        trace = read_trace(out / "traces" / f"{rec.method}__seed{rec.seed}.jsonl")
        assert len(trace) == rec.iterations
        assert trace[-1]["cumulative_draws"] == rec.draws
    with open(out / "runs.jsonl") as fh:
        rows = [json.loads(line) for line in fh]
    assert {(r["method"], r["seed"]) for r in rows} == {
        (m, s) for m in spec.methods for s in spec.resolved_seeds()
    }
    with open(out / "summary.csv", newline="") as fh:
        table = list(csv.DictReader(fh))
    assert [r["method"] for r in table] == list(spec.methods)
    czo_row = next(r for r in table if r["method"] == "czo1-mini")
    assert czo_row["t_stat"] == "" and czo_row["p_value"] == ""
    alg_row = next(r for r in table if r["method"] == "alg1-mini")
    assert float(alg_row["p_value"]) > 0.0


def test_run_experiment_metric_ledger_is_separate(tmp_path):
    spec = tiny_spec(tmp_path, methods=("alg1-mini",), n_instances=1, metric_every=3)
    outcome = run_experiment(spec)
    rec = outcome.records[0]
    probes = sum(
        1 for row in read_trace(outcome.trace_paths[(rec.method, rec.seed)])
        if row["obj_probe"] is not None
    )
    assert rec.metric_draws == spec.metric_samples * (probes + 2)
    assert rec.draws <= spec.budget


def test_plotdata_rows_and_errors(tmp_path):
    spec = tiny_spec(tmp_path, metric_every=4, methods=("alg1-mini", "czo1-mini"),
                     n_instances=1)
    outcome = run_experiment(spec)
    paths = sorted(outcome.trace_paths.values())
    rows = trace_plotdata(paths)
    labels = {r[0] for r in rows}
    assert labels == {"alg1-mini__seed2024", "czo1-mini__seed2024"}
    for label in labels:
        draws = [r[1] for r in rows if r[0] == label]
        assert draws == sorted(draws)
        assert draws[-1] <= spec.budget
    out_csv = tmp_path / "plot.csv"
    write_plotdata_csv(out_csv, rows)
    with open(out_csv, newline="") as fh:
        table = list(csv.reader(fh))
    assert table[0] == ["series", "cumulative_draws", "obj"]
    assert len(table) == len(rows) + 1

    with pytest.raises(ConfigError, match="no trace files"):
        trace_plotdata([])
    bare = tiny_spec(tmp_path, methods=("alg1-mini",), n_instances=1,
                     output_dir=str(tmp_path / "bare"))
    bare_out = run_experiment(bare)
    with pytest.raises(ConfigError, match="metric_every"):
        trace_plotdata(sorted(bare_out.trace_paths.values()))


def test_cli_run_verify_plotdata(tmp_path, capsys):
    cfg_path = tmp_path / "exp.cfg"
    spec = tiny_spec(tmp_path, metric_every=5)
    cfg_path.write_text(serialize_config(spec))
    assert cli_main(["run", "--config", str(cfg_path)]) == 0
    capsys.readouterr()

    # overrides land in the resolved config on disk
    out2 = tmp_path / "out2"
    code = cli_main([
        "run", "--config", str(cfg_path), "--out", str(out2),
        "--budget", "400", "--methods", "alg1-mini", "--seed", "5",
    ])
    assert code == 0
    capsys.readouterr()
    resolved = parse_config((out2 / "config.txt").read_text())
    assert resolved.budget == 400
    assert resolved.methods == ("alg1-mini",)
    assert resolved.base_seed == 5 and resolved.seeds is None

    traces = sorted((out2 / "traces").glob("*.jsonl"))
    plot_path = tmp_path / "p.csv"
    assert cli_main(["plotdata", *map(str, traces), "--out", str(plot_path)]) == 0
    capsys.readouterr()
    assert plot_path.exists()

    bad = tmp_path / "bad.cfg"
    bad.write_text("env.kind=warp\n")
    assert cli_main(["run", "--config", str(bad)]) == 2
    assert "unknown env.kind" in capsys.readouterr().err
    assert cli_main(["run", "--config", str(tmp_path / "missing.cfg")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "line",
    [
        "method.gamma=2",
        "method.beta0=0",
        "method.mu_min=0.5",  # above mu0
        "method.czo_beta=-1e-5",
        "method.m0=0",
        "method.x0_fill=nan",
        "env.gamma_sens=-1",
        "env.theta_file={tmp}/missing.txt",
    ],
)
def test_cli_run_bad_values_exit_2_before_writing(tmp_path, capsys, line):
    cfg_path = tmp_path / "bad.cfg"
    cfg_path.write_text(line.format(tmp=tmp_path) + "\n")
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_cli_verify_exit_codes(capsys):
    assert cli_main(["verify", "weights"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "checks passed" in out


def test_run_record_json_fields(tmp_path):
    spec = tiny_spec(tmp_path, methods=("czo1-b1",), n_instances=1, budget=120)
    outcome = run_experiment(spec)
    row = json.loads(
        (Path(spec.output_dir) / "runs.jsonl").read_text().strip()
    )
    assert set(row) == {f.name for f in dataclasses.fields(RunRecord)}
    assert row["method"] == "czo1-b1"
    assert row["draws"] == 120
