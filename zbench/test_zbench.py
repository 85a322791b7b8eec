"""Tests of the benchmark's references, checks and tracing.

    python -m pytest zbench -q

The references are tested against brute force and finite differences; every
check is shown to pass on real zodd outputs and to reject a perturbed copy.
"""

import itertools
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_zodd(HERE.parent)

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from zodd import PricingEnv, QuadraticShiftOracle, make_pricing_spec  # noqa: E402

MINI = ("alg1-mini", "alg2-mini", "czo1-mini")


def tiny_instance():
    # breakpoints between integers so that all three cost pieces are reached
    return checks.PricingInstance(
        theta=np.array([0.9, 0.7]),
        gamma_sens=np.array([1.0, 2.0]),
        a0=0.3,
        w=np.array([0.3, 0.2]),
        l=np.array([1.5, 0.5]),
        u=np.array([2.5, 3.5]),
        m_buyers=5,
    )


def three_piece_cost(q, w, l, u):
    if q <= l:
        return 2 * w * q
    if q <= u:
        return 2 * w * l + w * (q - l)
    return 2 * w * l + w * (u - l) + 3 * w * (q - u)


def test_expected_objective_matches_enumeration_of_every_buyer_choice():
    inst, x = tiny_instance(), np.array([0.6, 0.4])
    weights = np.concatenate(([inst.a0], np.exp(inst.gamma_sens * (inst.theta - x))))
    p = weights / weights.sum()
    mean = second = 0.0
    for choices in itertools.product(range(3), repeat=inst.m_buyers):
        prob = math.prod(p[c] for c in choices)
        q = [choices.count(i + 1) for i in range(2)]
        f = sum(
            -x[i] * q[i] + three_piece_cost(q[i], inst.w[i], inst.l[i], inst.u[i])
            for i in range(2)
        )
        mean += prob * f
        second += prob * f * f
    exact, sd_bound = checks.expected_objective(inst, x)
    assert exact == pytest.approx(mean, rel=1e-12, abs=1e-14)
    assert sd_bound >= math.sqrt(second - mean**2)


def test_binomial_pmf_matches_scipy_and_survives_extreme_probabilities():
    from scipy import stats

    p = np.array([0.0, 1e-310, 1e-5, 0.3, 1.0 - 1e-12, 1.0])
    pmf = checks.binomial_pmf(40, p)
    assert np.all(np.isfinite(pmf))
    np.testing.assert_allclose(pmf.sum(axis=0), 1.0, rtol=1e-12)
    normal = p[2:5]
    np.testing.assert_allclose(
        pmf[:, 2:5], stats.binom.pmf(np.arange(41)[:, None], 40, normal), rtol=1e-9, atol=1e-300
    )


def test_expected_objective_at_runaway_prices_is_finite():
    # czo1-b1 iterates can reach prices far beyond any sale
    inst = tiny_instance()
    for x in ([1e160, 0.5], [1e300, 1e300], [-1e150, 0.5]):
        exact, sd_bound = checks.expected_objective(inst, np.array(x))
        assert np.isfinite(exact) and not np.isnan(sd_bound)


def test_expected_objective_models_the_pricing_env():
    theta, w = np.linspace(0.6, 1.0, 4), np.linspace(0.2, 0.4, 4)
    spec = make_pricing_spec(4, 40, theta, w)
    x = np.full(4, 0.55)
    batch = PricingEnv(spec).sample(x, 20_000, np.random.default_rng(3))
    f = PricingEnv(spec).eval_f_batch(x, batch.outcomes)
    exact, sd_bound = checks.expected_objective(checks.PricingInstance.from_spec(spec), x)
    assert abs(f.mean() - exact) <= 6 * f.std() / math.sqrt(f.size)
    assert f.std() <= sd_bound


def test_quadratic_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    d, sigma, h = 5, 1.0, 1e-5
    a_matrix, b, x = rng.normal(size=(d, d)), rng.normal(size=d), rng.normal(size=d)
    z = rng.standard_normal((1000, d))  # common random numbers for every probe

    def f_hat(y):  # mean of f(y, xi) = ||y||^2 + b.xi over xi = A y + sigma z
        return float(np.mean(y @ y + (a_matrix @ y + sigma * z) @ b))

    fd = [(f_hat(x + h * e) - f_hat(x - h * e)) / (2 * h) for e in np.eye(d)]
    grad = checks.quadratic_gradient(a_matrix, b, x)
    np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-6)
    np.testing.assert_allclose(grad, QuadraticShiftOracle(a_matrix, b, sigma).gradient(x))
    assert checks.quadratic_value(a_matrix, b, x) == pytest.approx(f_hat(x) - sigma * np.mean(z @ b))


@pytest.mark.parametrize(
    "method, iterations, draws",
    [
        # 20 + sum_{k<57} (30 + 2k) = 4922; the next batch of 144 would overshoot
        ("alg1-mini", 57, 4922),
        ("alg2-mini", 37, 4884),
        ("czo1-mini", 57, 4902),
        ("alg1-b1", 4980, 5000),
        ("alg2-b1", 2500, 5000),
        ("czo1-b1", 5000, 5000),
    ],
)
def test_planned_run_follows_the_batch_schedule(method, iterations, draws):
    plan = checks.planned_run(method, 5000, 30, 2, 20)
    assert (plan.iterations, plan.draws) == (iterations, draws)
    assert plan.draws + plan.next_cost > 5000


@pytest.fixture(scope="module")
def mini_grid(tmp_path_factory):
    grid = workloads.PricingGrid(MINI, 1, block_seconds=1.0, compare_profit=True)
    inputs = grid.prepare(seed=5, seconds=2)
    instances = inputs[2]
    result = grid.execute(inputs, tmp_path_factory.mktemp("mini"))
    records = result.outputs
    plan = {m: checks.planned_run(m, grid.BUDGET, grid.M0, grid.SLOPE, grid.C0_SAMPLES) for m in MINI}
    return grid, inputs, result, records, instances, plan


def pricing_failures(grid, records, instances, plan):
    return checks.check_pricing_records(
        records, instances, MINI, plan, grid.BUDGET, grid.METRIC_SAMPLES
    )


def test_pricing_outputs_pass(mini_grid):
    grid, _, result, records, instances, plan = mini_grid
    assert len(records) == 6 and result.failures == []
    assert pricing_failures(grid, records, instances, plan) == []


def _obj_off_by_three_limits(r, instances):
    exact, sd = checks.expected_objective(instances[r["seed"]], r["x_final"])
    return {"obj": exact + 3 * checks.Z_OBJ * sd / math.sqrt(1000)}


@pytest.mark.parametrize(
    "perturb",
    [
        lambda r, inst: {"obj": float("inf")},
        lambda r, inst: {"diverged": True},
        lambda r, inst: {"draws": r["draws"] - 1},
        lambda r, inst: {"iterations": r["iterations"] + 1},
        lambda r, inst: {"metric_draws": r["metric_draws"] + 1},
        _obj_off_by_three_limits,
        lambda r, inst: {"x_final": [v + 0.3 for v in r["x_final"]]},
    ],
)
def test_pricing_check_rejects_a_perturbed_record(mini_grid, perturb):
    grid, _, _, records, instances, plan = mini_grid
    bad = [dict(r) for r in records]
    bad[1].update(perturb(bad[1], instances))
    assert pricing_failures(grid, bad, instances, plan)


def test_pricing_check_rejects_a_missing_record(mini_grid):
    grid, _, _, records, instances, plan = mini_grid
    assert pricing_failures(grid, records[:-1], instances, plan)


def test_profit_order_check(mini_grid):
    _, _, _, records, instances, _ = mini_grid
    profit = checks.mean_exact_profit(records, instances)
    assert checks.check_profit_order(profit) == []
    assert checks.check_profit_order(dict(profit, **{"czo1-mini": max(profit.values()) + 1}))


@pytest.fixture(scope="module")
def estimator_run(tmp_path_factory):
    mc = workloads.EstimatorMC(block_seconds=1.0)
    inputs = mc.prepare(seed=6, seconds=2)
    return mc, inputs, mc.execute(inputs, tmp_path_factory.mktemp("mc"))


def test_estimator_outputs_pass_and_perturbations_fail(estimator_run):
    mc, _, result = estimator_run
    assert result.failures == []
    est = result.outputs
    n = est["two_point"].shape[0]
    per = {"one_point_c_0": 1, "one_point_c_F": 1, "one_point_c_100": 1, "two_point": 2}
    draws = {name: n * per[name] for name in est}
    target = checks.quadratic_gradient(mc.a_matrix, mc.b, mc.x)
    assert checks.check_estimates(est, draws, per, target) == []

    shifted = dict(est, two_point=est["two_point"] + np.array([2.0, 0, 0, 0, 0]))
    assert checks.check_estimates(shifted, draws, per, target)
    swapped = dict(est, one_point_c_F=est["one_point_c_0"], one_point_c_0=est["one_point_c_F"])
    assert checks.check_estimates(swapped, draws, per, target)
    assert checks.check_estimates(est, dict(draws, two_point=n), per, target)
    nan = dict(est, one_point_c_100=np.where(np.arange(n)[:, None] == 0, np.nan, est["one_point_c_100"]))
    assert checks.check_estimates(nan, draws, per, target)


def per_layer_names():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer"]}


@pytest.mark.parametrize("name", ["grid", "mc"])
def test_traced_pass_reproduces_outputs_and_cross_checks(name, mini_grid, estimator_run, tmp_path):
    work, inputs, plain = (mini_grid[:3] if name == "grid" else estimator_run)
    originals = {k: v for k, v in vars(workloads.harness).items() if callable(v)}
    tracer = spans.Tracer()
    with spans.installed(tracer):
        traced = work.execute(inputs, tmp_path)
    assert traced.digest == plain.digest
    assert workloads.cross_check(tracer, traced.totals) == []
    assert workloads.cross_check(tracer, dict(traced.totals, draws=traced.totals["draws"] + 1))
    assert set(tracer.metrics()) == per_layer_names()
    assert {k: v for k, v in vars(workloads.harness).items() if callable(v)} == originals


def test_trace_counts_window_evaluations(tmp_path):
    spec = workloads.harness.ExperimentSpec(
        methods=("alg1-mini",), seeds=(7,), output_dir=str(tmp_path)
    )
    tracer = spans.Tracer()
    with spans.installed(tracer):
        workloads.harness.run_experiment(spec)
    m = tracer.metrics()
    # one compute_c per iteration, evaluating min(k + 1, 10) window entries
    evals = sum(min(k + 1, 10) for k in range(57))
    assert m["history.compute_c.calls"][0] == 57
    assert m["history.compute_c.evals_per_call"][0] == evals / 57
    assert m["optimize.iterations"][0] == 57


def test_exits_nonzero_without_zodd(tmp_path):
    shutil.copytree(HERE, tmp_path / "zbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, "zbench/run.py", "--workload", "pricing-mini", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == run.EXIT_NO_ZODD
    assert "zodd not found" in proc.stdout.splitlines()[-1]
