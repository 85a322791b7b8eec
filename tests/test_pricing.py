"""Pricing simulation: choice model, demand sampling, costs, metric."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refs import tally_by_buyer
from zodd import (
    PricingEnv,
    choice_probs,
    eval_obj_metric,
    load_theta,
    make_pricing_spec,
    piecewise_cost,
    pricing_f,
    register_env,
    split_rng,
    synth_theta,
)
from zodd.env import SampleLedger
from zodd.pricing import _tally_choices


def default_spec(n=10, m_buyers=40, seed=31):
    theta, w = synth_theta(n, split_rng(seed, 0))
    return make_pricing_spec(n, m_buyers, theta, w)


def test_spec_defaults():
    spec = default_spec()
    assert spec.a0 == pytest.approx(1.0)
    assert np.allclose(spec.l, 2.0) and np.allclose(spec.u, 6.0)
    assert np.array_equal(spec.gamma_sens, np.ones(10))


def test_spec_validation():
    theta, w = synth_theta(3, split_rng(32, 0))
    with pytest.raises(ValueError):
        make_pricing_spec(3, 10, -theta, w)
    with pytest.raises(ValueError):
        make_pricing_spec(3, 10, theta, -w)
    with pytest.raises(ValueError):
        make_pricing_spec(3, 10, theta[:2], w)
    with pytest.raises(ValueError):
        make_pricing_spec(3, 10, theta, w, a0=0.0)
    with pytest.raises(ValueError):
        make_pricing_spec(3, 0, theta, w)


def test_choice_probs_match_direct_softmax():
    rng = split_rng(33, 0)
    spec = default_spec()
    for _ in range(50):
        x = rng.uniform(-2.0, 4.0, spec.n)
        p = choice_probs(spec, x)
        weights = np.exp(spec.gamma_sens * (spec.theta - x))
        denom = spec.a0 + weights.sum()
        expect = np.concatenate(([spec.a0 / denom], weights / denom))
        assert np.allclose(p, expect, rtol=1e-12)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_choice_probs_at_reference_prices():
    # x = theta makes every product weight 1, so all shares are 1/(n + a0)
    spec = default_spec()
    p = choice_probs(spec, spec.theta)
    assert np.allclose(p, 1.0 / 11.0, rtol=1e-14)


def test_choice_probs_survive_extreme_prices():
    spec = default_spec()
    for shift in (-800.0, 800.0):
        p = choice_probs(spec, spec.theta + shift)
        assert np.all(np.isfinite(p))
        assert p.sum() == pytest.approx(1.0, abs=1e-9)
    # deeply discounted prices push the no-purchase share to zero
    assert choice_probs(spec, spec.theta - 800.0)[0] == pytest.approx(0.0, abs=1e-200)


def test_raising_one_price_shifts_share_to_the_rest():
    spec = default_spec()
    x = spec.theta.copy()
    p0 = choice_probs(spec, x)
    x[3] += 0.5
    p1 = choice_probs(spec, x)
    assert p1[4] < p0[4]
    others = [i for i in range(11) if i != 4]
    assert np.all(p1[others] > p0[others])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_demand_conserves_buyers(seed):
    rng = np.random.default_rng(seed)
    spec = default_spec()
    x = rng.uniform(-1.0, 3.0, spec.n)
    xi = PricingEnv(spec).sample(x, 1, rng).outcomes[0]
    assert xi.shape == (spec.n + 1,)
    assert xi.sum() == spec.m_buyers
    assert np.all(xi >= 0)


def test_demand_tally_matches_interval_counting():
    # same uniforms, counted by explicit interval membership instead
    spec = default_spec()
    rng = split_rng(34, 0)
    x = rng.uniform(0.0, 2.0, spec.n)
    p = choice_probs(spec, x)
    cdf = np.cumsum(p)
    draws = split_rng(35, 0).random(spec.m_buyers)
    expect = np.zeros(spec.n + 1, dtype=np.int64)
    for r in draws:
        expect[min(int(np.sum(r >= cdf)), spec.n)] += 1
    xi = PricingEnv(spec).sample(x, 1, split_rng(35, 0)).outcomes[0]
    assert np.array_equal(xi, expect)


def test_demand_mean_tracks_choice_probabilities():
    spec = default_spec()
    rng = split_rng(36, 0)
    x = spec.theta * 0.8
    p = choice_probs(spec, x)
    env = register_env(PricingEnv(spec))
    batch = env.sample(x, 40_000, rng)
    emp = batch.outcomes.mean(axis=0) / spec.m_buyers
    se = np.sqrt(p * (1 - p) / (spec.m_buyers * 40_000))
    assert np.all(np.abs(emp - p) <= 5 * se + 1e-12)


def test_batch_sampling_equals_sequential_draws():
    spec = default_spec()
    x = spec.theta * 1.1
    env = PricingEnv(spec)
    batch = env.sample(x, 6, split_rng(37, 0))
    rng = split_rng(37, 0)
    rows = [env.sample(x, 1, rng).outcomes[0] for _ in range(6)]
    assert np.array_equal(batch.outcomes, np.stack(rows))


def test_cost_hand_worked_values():
    # slopes 2w below l, w between l and u, 3w above u; w=1, l=2, u=6:
    # c(0)=0, c(2)=4, c(4)=6, c(6)=8, c(7)=11
    theta = np.ones(5)
    spec = make_pricing_spec(5, 20, theta, np.ones(5))
    assert np.allclose(spec.l, 2.0) and np.allclose(spec.u, 6.0)
    q = np.array([0.0, 2.0, 4.0, 6.0, 7.0])
    assert np.allclose(piecewise_cost(spec, q), [0.0, 4.0, 6.0, 8.0, 11.0])


@given(st.floats(0.0, 16.0, allow_nan=False))
@settings(max_examples=80, deadline=None)
def test_cost_is_continuous_and_increasing(q):
    spec = make_pricing_spec(5, 20, np.ones(5), np.full(5, 0.7))
    eps = 1e-7
    lo = piecewise_cost(spec, np.full(5, max(q - eps, 0.0)))
    hi = piecewise_cost(spec, np.full(5, q + eps))
    assert np.all(hi >= lo)
    assert np.all(hi - lo <= 3.0 * 0.7 * (q + eps - max(q - eps, 0.0)) + 1e-12)


def test_objective_hand_worked_value():
    theta = np.array([1.0, 2.0])
    spec = make_pricing_spec(2, 8, theta, np.array([0.5, 1.0]))
    # l = 2, u = 6 per product; counts 3 and 7; prices 1.0 and 1.5
    xi = np.array([0.0, 3.0, 7.0])
    x = np.array([1.0, 1.5])
    cost = (2 * 0.5 * 2 + 0.5 * (3 - 2)) + (2 * 1.0 * 2 + 1.0 * (6 - 2) + 3 * 1.0 * (7 - 6))
    revenue = 1.0 * 3 + 1.5 * 7
    assert pricing_f(spec, x, xi) == pytest.approx(cost - revenue, rel=1e-14)


def test_synth_theta_ranges_and_determinism():
    theta, w = synth_theta(200, split_rng(38, 0))
    assert np.all((theta >= 0.55) & (theta <= 1.0))
    ratio = w / theta
    assert np.all((ratio >= 0.25) & (ratio <= 0.5))
    theta2, w2 = synth_theta(200, split_rng(38, 0))
    assert np.array_equal(theta, theta2) and np.array_equal(w, w2)
    wide, _ = synth_theta(200, split_rng(38, 0), 0.5, 1.5)
    assert wide.max() > 1.0


def test_load_theta_roundtrip_and_errors(tmp_path):
    path = tmp_path / "theta.txt"
    path.write_text("0.8\n1.25\n0.99\n")
    assert np.allclose(load_theta(path), [0.8, 1.25, 0.99])
    bad = tmp_path / "bad.txt"
    bad.write_text("0.8\noops\n")
    with pytest.raises(ValueError, match=r":2: not a number"):
        load_theta(bad)
    empty = tmp_path / "empty.txt"
    empty.write_text("\n\n")
    with pytest.raises(ValueError, match="no values"):
        load_theta(empty)


def test_metric_uses_its_own_ledger():
    spec = default_spec()
    budget_env = register_env(PricingEnv(spec))
    led = SampleLedger()
    val = eval_obj_metric(spec, spec.theta, 500, split_rng(39, 0), led)
    assert np.isfinite(val)
    assert led.total_draws == 500
    assert budget_env.total_draws == 0


def _formula_f_batch(spec, x, outcomes):
    # the cost formula evaluated on the outcomes themselves, no table
    sold = np.asarray(outcomes, dtype=np.float64)[:, 1:]
    return -sold @ x + piecewise_cost(spec, sold).sum(axis=-1)


def test_eval_f_batch_is_bit_identical_to_the_cost_formula():
    rng = split_rng(40, 0)
    for inst in range(24):
        n = int(rng.integers(1, 16))
        m_buyers = int(rng.choice([1, 7, 40, 150]))
        spec = make_pricing_spec(n, m_buyers, *synth_theta(n, split_rng(inst, 0)))
        env = PricingEnv(spec)
        for m in (1, 30, 1000):
            # ordinary prices, prices far below and far above the reference
            for x in (
                spec.theta * rng.uniform(0.5, 1.5, n),
                spec.theta - 1e3,
                spec.theta + rng.uniform(-1e6, 1e6, n),
            ):
                outcomes = env.sample(x, m, rng).outcomes
                got = env.eval_f_batch(x, outcomes)
                assert np.array_equal(got, _formula_f_batch(spec, x, outcomes))
        # every count the table holds, from 0 to m_buyers in each product
        counts = np.zeros((m_buyers + 1, n + 1), dtype=np.int64)
        counts[:, 1:] = np.arange(m_buyers + 1)[:, None]
        x = spec.theta * rng.uniform(0.5, 1.5, n)
        assert np.array_equal(env.eval_f_batch(x, counts), _formula_f_batch(spec, x, counts))


@pytest.mark.parametrize(
    "outcomes",
    [
        np.array([[0.0, 3.0, 7.0]]),  # whole numbers, but not integers
        np.array([[0, 3.5, 1]]),
        np.array([[False, True, False]]),
        np.array([[0, -1, 2]]),  # would wrap to the table's last row
        np.array([[0, 2, -9]]),  # would wrap to the table's first row
        np.array([[0, 9, 0]]),
        np.array([[0, 1, 2], [0, 3, 2**40]]),
        np.array([[0, 3, -1]], dtype=np.int8),
        np.array([[0, -128, 3]], dtype=np.int8),
        np.array([[0, 3, -7], [0, 1, 1]], dtype=np.int32),
        np.array([[0, -2**31, 1]], dtype=">i4"),
        np.array([[0, 9, 0]], dtype=np.uint8),
        np.array([[0, 255, 0]], dtype=np.uint8),
        np.array([[0, 0, 2**64 - 1]], dtype=np.uint64),
    ],
)
def test_eval_f_batch_refuses_counts_outside_the_table(outcomes):
    spec = make_pricing_spec(2, 8, np.array([1.0, 2.0]), np.array([0.5, 1.0]))
    with pytest.raises(ValueError, match=r"integer buyer counts in \[0, 8\]"):
        PricingEnv(spec).eval_f_batch(np.ones(2), outcomes)


@pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.uint64, ">i4", ">u2", np.int8])
def test_eval_f_batch_accepts_every_integer_count_dtype(dtype):
    spec = default_spec()
    env = PricingEnv(spec)
    x = spec.theta * 1.05
    counts = env.sample(x, 30, split_rng(41, 0)).outcomes
    assert counts.dtype == np.int64
    expect = env.eval_f_batch(x, counts)
    assert np.array_equal(env.eval_f_batch(x, counts.astype(dtype)), expect)


@pytest.mark.parametrize("dtype", [np.int8, np.int16])
def test_eval_f_batch_refuses_negative_counts_below_a_wide_table(dtype):
    # -1 seen as unsigned is 255 (or 65535), inside a table of 70000 buyers
    spec = make_pricing_spec(2, 70_000, np.array([1.0, 2.0]), np.array([0.5, 1.0]))
    with pytest.raises(ValueError, match=r"integer buyer counts in \[0, 70000\]"):
        PricingEnv(spec).eval_f_batch(np.ones(2), np.array([[0, 3, -1]], dtype=dtype))


def test_choice_probs_equal_the_concatenated_softmax_bit_for_bit():
    rng = split_rng(42, 0)
    spec = default_spec()
    env = PricingEnv(spec)
    for scale in (1.0, 1e3, 1e300):
        for _ in range(50):
            x = spec.theta + scale * rng.standard_normal(spec.n)
            logits = np.concatenate(([np.log(spec.a0)], spec.gamma_sens * (spec.theta - x)))
            logits -= logits.max()
            e = np.exp(logits)
            expect = e / e.sum()
            assert choice_probs(spec, x).tobytes() == expect.tobytes()
            # sampling draws its demand from the same probabilities
            got = env.sample(x, 1, split_rng(43, 0)).outcomes[0]
            assert np.array_equal(got, tally_by_buyer(expect, split_rng(43, 0).random(spec.m_buyers)))


@pytest.mark.parametrize(
    "x, reason",
    [
        (np.array([0.5, np.nan, 0.5]), "non-finite"),
        (np.array([0.5, np.inf, -np.inf]), "non-finite"),
        (np.array([0.5, 0.5]), "expected 3"),
        (np.zeros((1, 3)), "one-dimensional"),
    ],
)
def test_sample_refuses_bad_probes_with_their_reason(x, reason):
    env = PricingEnv(default_spec(n=3))
    with pytest.raises(ValueError, match=reason):
        env.sample(x, 2, split_rng(44, 0))


def test_sample_accepts_finite_probes_whose_sum_overflows():
    spec = default_spec(n=3)
    x = np.array([1.7e308, 1.7e308, 0.5])
    batch = PricingEnv(spec).sample(x, 4, split_rng(45, 0))
    assert batch.outcomes.sum(axis=1).tolist() == [spec.m_buyers] * 4


def _degenerate_prices(spec):
    # prices whose choice probabilities stress the inverse-CDF search
    theta = spec.theta
    priced_out = theta.copy()
    priced_out[::3] += 1000.0  # p_i == 0 exactly: repeated cdf entries
    one_product = theta + 1000.0
    one_product[4] -= 2000.0  # product 4 holds all the mass
    cases = {
        "priced out": priced_out,
        "one product": one_product,
        "no purchase": theta + 1000.0,
    }
    rng = split_rng(46, 0)
    for _ in range(200):
        x = rng.uniform(-1.0, 3.0, spec.n)
        x[-3:] = theta[-3:] + 1000.0
        if np.cumsum(choice_probs(spec, x))[:-1].max() > 1.0:
            cases["cumsum passes 1"] = x
            break
    return cases


def test_degenerate_prices_give_degenerate_probabilities():
    spec = default_spec()
    cases = _degenerate_prices(spec)
    p = {name: choice_probs(spec, x) for name, x in cases.items()}
    assert (p["priced out"] == 0.0).sum() == 4
    assert p["one product"][5] == 1.0 and p["no purchase"][0] == 1.0
    assert np.cumsum(p["cumsum passes 1"])[:-1].max() > 1.0


@pytest.mark.parametrize("m", [1, 2, 30, 142, 1000])
def test_demand_tally_matches_per_buyer_counting(m):
    spec = default_spec()
    env = PricingEnv(spec)
    cases = {"interior": split_rng(47, 0).uniform(0.0, 2.0, spec.n), **_degenerate_prices(spec)}
    for name, x in cases.items():
        x_before = x.copy()
        p = choice_probs(spec, x)
        rng = split_rng(48, m)
        clone = copy.deepcopy(rng)
        outcomes = env.sample(x, m, rng).outcomes
        assert outcomes.dtype == np.int64 and outcomes.flags.c_contiguous
        expect = tally_by_buyer(p, clone.random((m, spec.m_buyers)))
        assert np.array_equal(outcomes, expect), name
        # one-row samples draw the same uniforms one row at a time
        rng = split_rng(48, m)
        clone = copy.deepcopy(rng)
        for _ in range(m):
            xi = env.sample(x, 1, rng).outcomes[0]
            assert xi.dtype == np.int64 and xi.flags.c_contiguous
            assert np.array_equal(xi, tally_by_buyer(p, clone.random(spec.m_buyers))), name
        assert np.array_equal(x, x_before), name


def test_tally_ties_go_to_the_higher_option():
    p = np.array([0.25, 0.25, 0.0, 0.5])  # cdf 0.25, 0.5, 0.5, 1.0
    draws = np.array([[0.0, 0.25, 0.5, 0.75, 0.25, 0.5], [0.5, 0.5, 0.5, 0.25, 0.0, 0.999]])
    # a draw equal to a cdf entry passes it, so 0.5 skips the empty option 2
    expect = [[1, 2, 0, 3], [1, 1, 0, 4]]
    assert tally_by_buyer(p, draws).tolist() == expect
    got = _tally_choices(p, 3, 6, draws.copy())
    assert got.tolist() == expect
    assert got.dtype == np.int64 and got.flags.c_contiguous
    assert _tally_choices(p, 3, 6, draws[:1].copy()).tolist() == expect[:1]
    assert _tally_choices(p, 3, 6, draws[::-1, ::-1].copy()).tolist() == expect[::-1]
