"""Show how the adaptive offset is rebuilt from recent sample batches.

Two parts. First, the weight solver on a toy history: older batches
taken far from the current iterate get small weights, and the closed
form matches what you would get by minimizing the weighted error bound
over the simplex. Second, a head-to-head run on an analytic objective
comparing the distance-aware weights against plain uniform averaging,
measured by how tightly the offset c_k tracks the true value F(x_k).
"""

import numpy as np

from zodd import (
    ConstantBeta,
    ConstantBatch,
    HistoryWindow,
    QuadraticShiftOracle,
    RunConfig,
    compute_weights,
    register_env,
    run,
    split_rng,
)


def weight_anatomy():
    print("== weights over a synthetic history ==")
    d = 4
    oracle = QuadraticShiftOracle(0.25 * np.eye(d), np.zeros(d), 1.0)
    env = register_env(oracle)
    rng = split_rng(11, 0)
    window = HistoryWindow(5)
    x_next = np.zeros(d)
    # batches recorded at points progressively closer to x_next, all with
    # the same batch size, so distance alone should order the weights
    for dist in (3.0, 2.0, 1.0, 0.5, 0.1):
        x = np.full(d, dist / np.sqrt(d))
        batch = env.sample(x, 8, rng)
        window.push(batch)
    weights = compute_weights(window, x_next, m_scale=0.1)
    uniform = compute_weights(window, x_next, m_scale=0.1, uniform=True)
    print(f"  per-batch error coefficients b  {np.round(weights.b, 4)}")
    print(f"  optimal simplex weights a       {np.round(weights.a, 4)}")
    print(f"  uniform for comparison          {np.round(uniform.a, 4)}")
    print(f"  weighted bound  optimal {float(weights.a ** 2 @ weights.b):.4f}"
          f"  uniform {float(uniform.a ** 2 @ uniform.b):.4f}")


def tracking_comparison():
    print("\n== offset tracking: adaptive weights vs uniform ==")
    # the step size is chosen large enough that the iterate moves a
    # visible distance between batches; with near-stationary iterates the
    # window entries are interchangeable and both schemes coincide
    d = 5
    oracle = QuadraticShiftOracle(0.3 * np.eye(d), np.eye(d)[0], 1.0)
    batch = 10
    budget = batch + 60 * batch
    for uniform in (False, True):
        tails = []
        for seed in range(40, 50):
            cfg = RunConfig(
                x0=np.full(d, 2.0),
                mu0=0.5,
                mu_min=0.05,
                gamma=0.9,
                s_max=10,
                m_scale=0.1,
                beta_schedule=ConstantBeta(0.08),
                batch_schedule=ConstantBatch(batch),
                c0_samples=batch,
                sample_budget=budget,
                max_iters=60,
                seed=seed,
                method="alg1",
                uniform_weights=uniform,
            )
            result = run(register_env(oracle), cfg)
            gaps = np.array(
                [(oracle.value(t.x) - t.c) ** 2 for t in result.traces]
            )
            tails.append(gaps[len(gaps) // 2:].mean())
        label = "uniform " if uniform else "adaptive"
        print(f"  {label} weights: mean (F(x_k)-c_k)^2 over last half, "
              f"10 seeds: {np.mean(tails):.5f}")


if __name__ == "__main__":
    weight_anatomy()
    tracking_comparison()
