"""Walk through the two gradient estimators on a known quadratic.

The environment here has a closed-form objective, so every claim the
estimators make can be checked against exact numbers: the smoothed
gradient they target, and how the variance of the one-point estimate
depends on the offset c subtracted inside it.
"""

import numpy as np

from zodd import (
    QuadraticShiftOracle,
    SmoothingState,
    moment_samples,
    one_point_estimate,
    register_env,
    split_rng,
    two_point_estimate,
)

D = 5
MU = 0.5
N_TRIALS = 20_000


def empirical_mean(env, x, state, kind, rng):
    estimate = one_point_estimate if kind == "one-point" else two_point_estimate
    acc = np.zeros(D)
    for _ in range(N_TRIALS):
        acc += estimate(env, x, state, 1, rng).g
    return acc / N_TRIALS


def main():
    oracle = QuadraticShiftOracle(0.2 * np.eye(D), np.full(D, 0.45), 1.0)
    x = np.ones(D)
    target = oracle.smoothed_gradient(x, MU)
    print(f"objective value F(x)        {oracle.value(x):.4f}")
    print(f"smoothed-gradient target    {np.round(target, 4)}")

    rng = split_rng(7, 0)
    for kind, c in (("one-point", 0.0), ("one-point", oracle.value(x)),
                    ("two-point", 0.0)):
        state = SmoothingState(MU, c)
        mean = empirical_mean(register_env(oracle), x, state, kind, rng)
        label = kind if kind == "two-point" else f"{kind} c={c:.2f}"
        print(f"{label:22s} mean over {N_TRIALS} trials "
              f"max dev {np.max(np.abs(mean - target)):.4f}")

    # the offset never biases the estimate, but it decides the variance:
    # centering c at F(x) removes the value term that otherwise blows up
    # as mu shrinks
    print("\nsecond moment E||g||^2 of the one-point estimate at mu=0.1:")
    for c in (0.0, oracle.value(x), 100.0):
        sm = moment_samples(
            register_env(oracle), x, SmoothingState(0.1, c), 1, N_TRIALS,
            split_rng(8, 0),
        ).mean()
        print(f"  c = {c:6.2f}   {sm:12.1f}")
    sm2 = moment_samples(
        register_env(oracle), x, SmoothingState(0.1), 1, N_TRIALS,
        split_rng(9, 0), "two-point",
    ).mean()
    print(f"  two-point  {sm2:12.1f}  (no offset needed, twice the draws)")


if __name__ == "__main__":
    main()
