"""Turn problem constants into run parameters and check the guarantee.

Given the constants that describe an environment (noise level, how fast
the sampling distribution shifts with the decision, smoothness), the
library derives a step size, smoothing radii, and a batch size. This
script prints those for a concrete oracle and then verifies the offset
tracking guarantee the derivation is built around: the squared gap
between the running offset and the true objective value stays under the
analytic ceiling on every iteration of an actual run.
"""

import numpy as np

from zodd import (
    ConstantBeta,
    ConstantBatch,
    QuadraticShiftOracle,
    RunConfig,
    TheoryConstants,
    offset_tracking_ceiling,
    register_env,
    run,
    theory_params,
)

D = 5


def main():
    oracle = QuadraticShiftOracle(0.3 * np.eye(D), np.eye(D)[0], 1.0)
    tc = TheoryConstants(
        sigma=oracle.sigma,
        alpha=oracle.alpha,
        lip_xi=oracle.lip_xi,
        lip_x=8.0,
        smoothness=oracle.smoothness,
        epsilon=0.5,
    )
    for eps, T in ((0.5, 100), (0.2, 1000)):
        tp = theory_params(
            TheoryConstants(tc.sigma, tc.alpha, tc.lip_xi, tc.lip_x,
                            tc.smoothness, eps),
            D, T,
        )
        print(f"target accuracy {eps}, horizon {T}:")
        print(f"  mu0={tp.mu0:.4f}  mu_min={tp.mu_min:.4f}  "
              f"batch={tp.batch_size}  beta={tp.beta:.5f}  "
              f"m_scale={tp.m_scale:.3f}")

    # now run with a parameterization under the stability cap and compare
    # the realized offset gap against the ceiling at each iteration
    batch = 30
    iters = 80
    cfg = RunConfig(
        x0=np.full(D, 2.0),
        mu0=0.5,
        mu_min=0.05,
        gamma=0.9,
        s_max=10,
        m_scale=tc.lip_xi**2 * tc.alpha**2 / tc.sigma**2,
        beta_schedule=ConstantBeta(0.01),
        batch_schedule=ConstantBatch(batch),
        c0_samples=batch,
        sample_budget=batch + iters * batch,
        max_iters=iters,
        seed=7,
        method="alg1",
    )
    result = run(register_env(oracle), cfg)
    delta0_sq = (oracle.value(result.traces[0].x) - result.traces[0].c) ** 2
    print(f"\ntracking check over {result.iterations} iterations "
          f"(initial gap^2 = {delta0_sq:.4f}):")
    worst = -np.inf
    for trace in result.traces:
        ceiling = offset_tracking_ceiling(
            trace.k, delta0_sq, d=D, mu0=cfg.mu0, mu_min=cfg.mu_min,
            m_min=batch, smoothness=tc.smoothness, lip_xi=tc.lip_xi,
            alpha=tc.alpha, lip_x=tc.lip_x, sigma=tc.sigma,
        )
        gap_sq = (oracle.value(trace.x) - trace.c) ** 2
        worst = max(worst, gap_sq / ceiling)
    print(f"  worst realized gap^2 / ceiling = {worst:.4f}  "
          f"({'inside' if worst <= 1.0 else 'OUTSIDE'} the guarantee)")


if __name__ == "__main__":
    main()
