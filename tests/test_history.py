"""Reuse window, offset weights, and offset estimation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refs import pg_min_quadratic_simplex, quadratic_simplex_obj
from zodd import (
    DeterministicEnv,
    Environment,
    HistoryWindow,
    PricingEnv,
    SampleBatch,
    compute_c,
    compute_weights,
    estimate_initial_c,
    make_pricing_spec,
    register_env,
    split_rng,
    synth_theta,
)


def batch_at(probe, m, fill=0.0):
    return SampleBatch(probe=np.asarray(probe, dtype=np.float64),
                       outcomes=np.full(m, fill), batch_size=m)


def random_window(rng, n_entries, d=3):
    win = HistoryWindow(n_entries)
    for _ in range(n_entries):
        win.push(batch_at(rng.standard_normal(d), int(rng.integers(1, 30))))
    return win


def test_window_evicts_oldest_first():
    win = HistoryWindow(3)
    for i in range(5):
        win.push(batch_at([float(i), 0.0], m=i + 1))
    assert len(win) == 3
    assert [b.batch_size for b in win.entries] == [3, 4, 5]
    assert [p[0] for p in win.probes()] == [2.0, 3.0, 4.0]
    assert list(win.batch_sizes()) == [3, 4, 5]


def test_window_capacity_must_be_positive():
    with pytest.raises(ValueError):
        HistoryWindow(0)


def test_weights_match_independent_reconstruction():
    rng = split_rng(21, 0)
    for _ in range(50):
        s = int(rng.integers(1, 11))
        win = random_window(rng, s)
        x_next = rng.standard_normal(3)
        m_scale = float(rng.uniform(0.01, 5.0))
        wv = compute_weights(win, x_next, m_scale)
        # rebuild the per-entry scores from scratch
        b = np.array([
            m_scale * float(np.sum((x_next - p) ** 2)) + 1.0 / m
            for p, m in zip(win.probes(), win.batch_sizes())
        ])
        expect = (1.0 / b) / np.sum(1.0 / b)
        assert np.allclose(wv.a, expect, rtol=1e-13)
        assert np.allclose(wv.b, b, rtol=1e-13)


def test_weights_beat_projected_gradient_reference():
    rng = split_rng(22, 0)
    for _ in range(20):
        s = int(rng.integers(1, 11))
        b = 10.0 ** rng.uniform(-3, 3, s)
        a = (1.0 / b) / np.sum(1.0 / b)
        ref = pg_min_quadratic_simplex(b)
        assert quadratic_simplex_obj(b, a) <= quadratic_simplex_obj(b, ref) + 1e-10


@given(st.integers(0, 2**32 - 1), st.integers(1, 10))
@settings(max_examples=60, deadline=None)
def test_weights_always_on_simplex(seed, s):
    rng = np.random.default_rng(seed)
    win = random_window(rng, s)
    wv = compute_weights(win, rng.standard_normal(3), float(rng.uniform(0.0, 3.0)))
    assert wv.a.shape == (s,)
    assert np.all(wv.a >= 0)
    assert np.isclose(wv.a.sum(), 1.0, atol=1e-12)


def test_weights_prefer_larger_batches_at_equal_distance():
    win = HistoryWindow(2)
    win.push(batch_at([1.0, 0.0], m=2))
    win.push(batch_at([-1.0, 0.0], m=20))
    wv = compute_weights(win, np.zeros(2), 1.0)
    assert wv.a[1] > wv.a[0]
    # at distance zero the score reduces to 1/m, so weights are m-proportional
    win2 = HistoryWindow(2)
    win2.push(batch_at([0.0, 0.0], m=3))
    win2.push(batch_at([0.0, 0.0], m=9))
    wv2 = compute_weights(win2, np.zeros(2), 1.0)
    assert np.allclose(wv2.a, [0.25, 0.75], rtol=1e-13)


def test_uniform_flag_overrides_scores():
    rng = split_rng(23, 0)
    win = random_window(rng, 4)
    wv = compute_weights(win, np.zeros(3), 2.0, uniform=True)
    assert np.array_equal(wv.a, np.full(4, 0.25))


def test_weights_reject_bad_inputs():
    with pytest.raises(ValueError):
        compute_weights(HistoryWindow(3), np.zeros(2), 1.0)
    rng = split_rng(24, 0)
    win = random_window(rng, 2)
    with pytest.raises(ValueError):
        compute_weights(win, np.zeros(3), -1.0)


class _OutcomeSum(Environment):
    # f(x, xi) = xi, so the offset is exactly the weighted mean of outcomes
    def dim(self):
        return 2

    def sample(self, x, m, rng):
        raise AssertionError("offset estimation must not draw")

    def eval_f(self, x, xi):
        return float(xi)

    def eval_f_batch(self, x, outcomes):
        return np.asarray(outcomes, dtype=np.float64)


def test_compute_c_reweighs_stored_outcomes_without_sampling():
    win = HistoryWindow(3)
    win.push(batch_at([0.0, 0.0], m=2, fill=4.0))
    win.push(batch_at([1.0, 0.0], m=4, fill=1.0))
    env = register_env(_OutcomeSum())
    wv = compute_weights(win, np.zeros(2), 1.0)
    c = compute_c(win, wv, np.zeros(2), env)
    assert c == pytest.approx(wv.a[0] * 4.0 + wv.a[1] * 1.0, rel=1e-14)
    assert env.total_draws == 0


def test_compute_c_equals_an_np_mean_reference_bit_for_bit():
    rng = split_rng(26, 0)
    env = register_env(PricingEnv(make_pricing_spec(10, 40, *synth_theta(10, rng))))
    win = HistoryWindow(10)
    for k in range(25):
        win.push(env.sample(rng.uniform(0.3, 1.2, 10), int(rng.integers(1, 40)), rng))
        x_next = rng.uniform(0.3, 1.2, 10)
        wv = compute_weights(win, x_next, 0.1)
        expect = 0.0
        for a_i, batch in zip(wv.a, win.entries):
            expect += a_i * float(np.mean(env.eval_f_batch(x_next, batch.outcomes)))
        assert compute_c(win, wv, x_next, env) == expect


def test_compute_c_requires_matching_weights():
    win = HistoryWindow(3)
    win.push(batch_at([0.0, 0.0], m=2))
    env = register_env(_OutcomeSum())
    wv = compute_weights(win, np.zeros(2), 1.0)
    win.push(batch_at([1.0, 1.0], m=3))
    with pytest.raises(ValueError):
        compute_c(win, wv, np.zeros(2), env)


def test_estimate_initial_c_averages_fresh_draws():
    env = register_env(DeterministicEnv(lambda x: 7.0, 2))
    c0 = estimate_initial_c(env, np.zeros(2), 20, split_rng(25, 0))
    assert c0 == 7.0
    assert env.total_draws == 20
    with pytest.raises(ValueError):
        estimate_initial_c(env, np.zeros(2), 0, split_rng(25, 0))


def test_window_arrays_equal_a_rebuild_after_every_push():
    rng = split_rng(27, 0)
    win = HistoryWindow(4)
    earlier = []
    for _ in range(15):
        win.push(batch_at(rng.standard_normal(3), int(rng.integers(1, 60))))
        probes, sizes, inv = win.probes(), win.batch_sizes(), win.inverse_batch_sizes()
        # the arrays as the window used to restack them on every call
        ref_probes = np.stack([b.probe for b in win.entries])
        ref_sizes = np.array([b.batch_size for b in win.entries], dtype=np.int64)
        assert probes.dtype == ref_probes.dtype and probes.tobytes() == ref_probes.tobytes()
        assert sizes.dtype == np.int64 and sizes.tobytes() == ref_sizes.tobytes()
        assert inv.tobytes() == (1.0 / ref_sizes).tobytes()
        x_next = rng.standard_normal(3)
        m_scale = float(rng.uniform(0.0, 3.0))
        diffs = ref_probes - x_next
        b = m_scale * np.einsum("ij,ij->i", diffs, diffs) + 1.0 / ref_sizes
        a = (1.0 / b) / (1.0 / b).sum()
        wv = compute_weights(win, x_next, m_scale)
        assert wv.a.tobytes() == a.tobytes() and wv.b.tobytes() == b.tobytes()
        for arr in (probes, sizes, inv):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1
        earlier.append((probes, probes.copy()))
    # a later push leaves the arrays handed out before it as they were
    assert all(np.array_equal(kept, copy) for kept, copy in earlier)


def test_empty_window_has_no_probes():
    win = HistoryWindow(2)
    assert win.batch_sizes().shape == (0,)
    with pytest.raises(ValueError):
        win.probes()
