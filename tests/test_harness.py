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
    CheckResult,
    ConfigError,
    ExperimentSpec,
    IterTrace,
    QuadraticShiftOracle,
    parse_config,
    read_trace,
    run_experiment,
    serialize_config,
    split_rng,
    summarize,
    trace_plotdata,
    welch_t,
    write_plotdata_csv,
    write_trace,
)
from zodd import verify
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


def test_duplicate_seeds_are_refused(tmp_path, capsys):
    # a repeated seed would run twice and overwrite its own trace file
    with pytest.raises(ConfigError, match="duplicate seeds"):
        ExperimentSpec(seeds=(1, 1))
    with pytest.raises(ConfigError, match="duplicate seeds"):
        parse_config("run.seeds=4,7,4\n")
    cfg_path = tmp_path / "dup.cfg"
    cfg_path.write_text("env.kind=analytic\nrun.seeds=1,1\n")
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "duplicate seeds" in capsys.readouterr().err
    assert not out.exists()


def test_seeds_naming_one_stream_are_refused(tmp_path, capsys):
    # split_rng folds -1 into 2**64 - 1: the two seeds would be one run twice
    assert np.array_equal(split_rng(-1, 0).random(3), split_rng(2**64 - 1, 0).random(3))
    ExperimentSpec(seeds=(-1, 1))
    cfg_path = tmp_path / "fold.cfg"
    cfg_path.write_text("run.seeds=-1,18446744073709551615\n")
    with pytest.raises(ConfigError, match="duplicate seeds"):
        parse_config(cfg_path.read_text())
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "duplicate seeds" in capsys.readouterr().err
    assert not out.exists()
    # below -2**64 a seed stays negative after folding: no stream can take it
    ExperimentSpec(seeds=(-(2**64),))
    with pytest.raises(ConfigError, match="seed must be >= -2"):
        ExperimentSpec(seeds=(-(2**64) - 1,))
    with pytest.raises(ConfigError, match="seed must be >= -2"):
        ExperimentSpec(base_seed=-(2**64) - 1)
    cfg_path.write_text("env.kind=analytic\nrun.seeds=-18446744073709551617\n")
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    assert "seed must be >= -2**64" in capsys.readouterr().err
    assert not out.exists()


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


def _row(t):
    return {
        "k": t.k, "x": list(t.x), "mu": t.mu, "c": t.c, "grad_norm_sq": t.grad_norm_sq,
        "cumulative_draws": t.cumulative_draws, "beta": t.beta, "obj_probe": t.obj_probe,
    }


_LINE = IterTrace(k=17, x=np.array([0.5, -0.0, 5e-324, 1e308, -1.7976931348623157e308]),
                  mu=0.19, c=None, grad_norm_sq=3.0e-17, cumulative_draws=4321,
                  beta=9.5e-4 * 0.95**17, obj_probe=None)


@pytest.mark.parametrize(
    "changes",
    [
        {},
        {"c": -1.2345678901234567, "obj_probe": 4.5},
        {"c": np.float64(-0.0), "obj_probe": np.float64(1e308)},
        {"c": 5e-324, "mu": -0.0, "grad_norm_sq": 0.0},
        {"x": np.array([1e-300, 2.5]), "beta": 1e308, "k": 0, "cumulative_draws": 0},
        {"mu": 1, "c": 2},  # ints, which json writes without a decimal point
    ],
)
def test_trace_lines_are_json_dumps_byte_for_byte(changes):
    t = dataclasses.replace(_LINE, **changes)
    assert _trace_to_json(t) == json.dumps(_row(t), allow_nan=False)


@pytest.mark.parametrize(
    "changes",
    [
        {"grad_norm_sq": float("inf")},
        {"c": float("nan"), "obj_probe": -float("inf")},
        {"x": np.array([np.inf, -0.0]), "mu": float("nan")},
    ],
)
def test_non_finite_trace_lines_write_null(changes):
    t = dataclasses.replace(_LINE, **changes)
    row = {k: (None if isinstance(v, float) and not np.isfinite(v) else v)
           for k, v in _row(t).items()}
    row["x"] = [None if not np.isfinite(v) else v for v in row["x"]]
    assert _trace_to_json(t) == json.dumps(row, allow_nan=False)


def test_write_trace_writes_one_line_per_iteration(tmp_path):
    traces = [dataclasses.replace(_LINE, k=k, c=float(k) / 3) for k in range(5)]
    traces.append(dataclasses.replace(_LINE, k=5, grad_norm_sq=float("inf")))
    path = tmp_path / "t.jsonl"
    write_trace(path, traces)
    expect = "".join(_trace_to_json(t) + "\n" for t in traces)
    assert path.read_text() == expect


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
    # the metric samples the environment the budget handle wraps, never the handle,
    # so probing it changes no budget draw
    pricing = dict(env_kind="pricing", n_products=3, m_buyers=5)
    for name, over in (("analytic", {}), ("pricing", pricing)):
        kw = dict(methods=("alg1-mini",), n_instances=1, **over)
        quiet = run_experiment(tiny_spec(tmp_path / name / "quiet", **kw)).records[0]
        spec = tiny_spec(tmp_path / name, metric_every=3, **kw)
        outcome = run_experiment(spec)
        rec = outcome.records[0]
        probes = sum(
            1 for row in read_trace(outcome.trace_paths[(rec.method, rec.seed)])
            if row["obj_probe"] is not None
        )
        assert probes > 0 and rec.metric_draws == spec.metric_samples * (probes + 2)
        assert quiet.metric_draws == 2 * spec.metric_samples
        assert (rec.draws, rec.iterations) == (quiet.draws, quiet.iterations)
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


@pytest.mark.parametrize(
    "name, reason",
    [("latin1.cfg", "can't decode byte 0xff"), ("missing.cfg", "No such file or directory"),
     ("dir.cfg", "Is a directory")],
)
def test_cli_run_unusable_config_exits_2_naming_it(tmp_path, capsys, name, reason):
    cfg_path = tmp_path / name
    if name == "latin1.cfg":
        cfg_path.write_bytes(b"\xff\xfe")
    elif name == "dir.cfg":
        cfg_path.mkdir()
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg_path}: ") and reason in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_initial_offset_larger_than_the_budget_is_refused(tmp_path, capsys):
    # the default alg1 initial offset takes 20 draws, more than the budget
    spec = ExperimentSpec(budget=10, output_dir=str(tmp_path / "out"))
    assert spec.c0_samples == 20
    with pytest.raises(ConfigError, match="c0_samples must not exceed sample_budget"):
        run_experiment(spec)
    cfg_path = tmp_path / "small.cfg"
    cfg_path.write_text("run.budget=10\n")
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
    assert "c0_samples" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_run_out_under_a_regular_file_exits_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "out"
    code = cli_main(["run", "--out", str(out), "--budget", "100", "--methods", "alg1-mini"])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: {out}: Not a directory\n"
    assert blocker.read_text() == "" and sorted(tmp_path.iterdir()) == [blocker]


_PROBE_LINE = '{"cumulative_draws": 30, "obj_probe": -1.5}\n'


_BAD_TRACES = [
    ("missing.jsonl", None, "No such file or directory"),
    ("dir.jsonl", "directory", "Is a directory"),
    ("latin1.jsonl", b'{"obj_probe": 1.0}\n\xff\n', "can't decode byte 0xff"),
    ("cut.jsonl", _PROBE_LINE + '{"cumulative_draws": 31, "obj_pro\n', "line 2: not JSON"),
    ("list.jsonl", _PROBE_LINE + "\n[1, 2]\n", "line 3: not a JSON object"),
    ("text.jsonl", '{"cumulative_draws": 30, "obj_probe": "x"}\n', "a probe entry needs"),
    ("bool.jsonl", '{"cumulative_draws": true, "obj_probe": 1.0}\n', "a probe entry needs"),
    ("nodraws.jsonl", '{"obj_probe": 1.0}\n', "a probe entry needs"),
]


@pytest.mark.parametrize(
    "name, content, reason", _BAD_TRACES, ids=[case[0] for case in _BAD_TRACES]
)
def test_cli_plotdata_bad_trace_exits_2_naming_it(tmp_path, capsys, name, content, reason):
    good = tmp_path / "good.jsonl"
    good.write_text(_PROBE_LINE)
    bad = tmp_path / name
    if content == "directory":
        bad.mkdir()
    elif isinstance(content, bytes):
        bad.write_bytes(content)
    elif content is not None:
        bad.write_text(content)
    out = tmp_path / "plot.csv"
    assert cli_main(["plotdata", str(good), str(bad), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and reason in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("target", ["file/plot.csv", "dir"])
def test_cli_plotdata_unwritable_out_exits_2_naming_it(tmp_path, capsys, target):
    trace = tmp_path / "good.jsonl"
    trace.write_text(_PROBE_LINE)
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()
    out = tmp_path / target
    assert cli_main(["plotdata", str(trace), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out}: ") and err.count("\n") == 1
    assert (tmp_path / "file").read_text() == ""


def test_cli_verify_exit_codes(capsys):
    assert cli_main(["verify", "weights"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "checks passed" in out


def test_cli_verify_failing_check_exits_1(capsys, monkeypatch):
    failing = CheckResult("always fails", False, "observed 1", "0")
    monkeypatch.setitem(verify.SUITES, "weights", lambda seed: [failing])
    assert cli_main(["verify", "weights"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] always fails  observed 1  (require 0)" in out
    assert "0/1 checks passed" in out


def test_cli_verify_takes_suite_names_from_the_module(capsys, monkeypatch):
    monkeypatch.setitem(verify.SUITES, "extra", lambda seed: [CheckResult("ok", True, "1", "1")])
    assert cli_main(["verify", "extra"]) == 0
    assert "1/1 checks passed" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        cli_main(["verify", "nope"])
    assert exc.value.code == 2


def test_run_record_json_fields(tmp_path):
    spec = tiny_spec(tmp_path, methods=("czo1-b1",), n_instances=1, budget=120)
    outcome = run_experiment(spec)
    row = json.loads(
        (Path(spec.output_dir) / "runs.jsonl").read_text().strip()
    )
    assert set(row) == {f.name for f in dataclasses.fields(RunRecord)}
    assert row["method"] == "czo1-b1"
    assert row["draws"] == 120
