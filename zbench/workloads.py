"""The benchmark's workloads: inputs from the seed, fixed work, output checks.

A workload's work is a number of equal blocks set by ``--seconds`` alone,
through a fixed cost per block measured once on a reference machine (see
README.md); no work is sized or stopped by a clock during the run. Each
block is timed on its own, so that a burst of load from other processes
moves one block's time and not the median. Every workload runs in this
process on one thread.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import resource
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np
from zodd import estimators, harness, register_env
from zodd.oracles import QuadraticShiftOracle

import checks


@dataclass
class Result:
    """What one pass of a workload's fixed work produced."""

    block_s: list[float]  # wall time of each equal block of work
    peak_rss_mb: float  # high-water resident memory when the work ended
    attempted: int
    failed: int
    failures: list[str]
    outputs: object  # what the checks read: run records or estimate arrays
    digest: str  # sha256 of the outputs, compared between traced and untraced passes
    # ledger draws (the paper's unit of cost), metric draws and estimator
    # calls, as the outputs report them; the trace cross-checks compare them
    totals: dict[str, int]


def blocks_for(seconds: int, block_seconds: float) -> int:
    return max(1, round(seconds / block_seconds))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class PricingGrid:
    """``run_experiment`` over blocks of pricing instances.

    Every setting but the methods and the instance seeds is the default
    ``zodd run`` grid; the settings the draw plan depends on are written out
    here so that the plan does not come from zodd.
    """

    BUDGET = 5000
    M0, SLOPE = 30, 2
    C0_SAMPLES = 20
    METRIC_SAMPLES = 1000

    def __init__(
        self,
        methods: tuple[str, ...],
        instances_per_block: int,
        block_seconds: float,
        compare_profit: bool,
    ) -> None:
        self.methods = methods
        self.instances_per_block = instances_per_block
        self.block_seconds = block_seconds
        self.compare_profit = compare_profit

    def prepare(self, seed: int, seconds: int):
        n = blocks_for(seconds, self.block_seconds) * self.instances_per_block
        # instance seeds are consecutive from a base drawn from --seed, as the
        # harness numbers them from run.base_seed
        base = int(np.random.default_rng(seed).integers(0, 2**31 - 2**20))
        seeds = tuple(range(base, base + n))
        spec = harness.ExperimentSpec(
            methods=self.methods,
            seeds=seeds,
            budget=self.BUDGET,
            m0=self.M0,
            m_slope=self.SLOPE,
            c0_samples=self.C0_SAMPLES,
            metric_samples=self.METRIC_SAMPLES,
        )
        instances = {
            s: checks.PricingInstance.from_spec(harness.build_environment(spec, s).spec)
            for s in seeds
        }
        k = self.instances_per_block
        blocks = [seeds[i : i + k] for i in range(0, n, k)]
        return spec, blocks, instances

    def execute(self, inputs, out_dir: Path) -> Result:
        spec, blocks, instances = inputs
        block_s, output = [], b""
        for i, seeds in enumerate(blocks):
            block_dir = out_dir / f"block{i:03d}"
            block_spec = dataclasses.replace(spec, seeds=seeds, output_dir=str(block_dir))
            t0 = perf_counter()
            harness.run_experiment(block_spec)
            block_s.append(perf_counter() - t0)
            output += (block_dir / "runs.jsonl").read_bytes()
        peak = peak_rss_mb()

        records = [json.loads(line) for line in output.splitlines()]
        plan = {
            m: checks.planned_run(m, self.BUDGET, self.M0, self.SLOPE, self.C0_SAMPLES)
            for m in self.methods
        }
        failures = checks.check_pricing_records(
            records, instances, self.methods, plan, self.BUDGET, self.METRIC_SAMPLES
        )
        if self.compare_profit and not failures:
            failures = checks.check_profit_order(checks.mean_exact_profit(records, instances))
        return Result(
            block_s=block_s,
            peak_rss_mb=peak,
            attempted=len(records),
            failed=sum(bool(r["diverged"]) for r in records),
            failures=failures,
            outputs=records,
            digest=hashlib.sha256(output).hexdigest(),
            totals={
                "draws": sum(r["draws"] for r in records),
                "metric_draws": sum(r["metric_draws"] for r in records),
                "estimates": sum(r["iterations"] for r in records),
            },
        )


class EstimatorMC:
    """Monte-Carlo trials of both estimators on the d=5 quadratic oracle.

    The same point, radius and offsets as the slow acceptance test: one-point
    at c in {0, F(x), 100} and two-point, batch size 1, ``mu = 0.5`` at
    ``x = 1``. Each configuration gets its own handle and its own
    perturbation and outcome streams drawn from ``--seed``; a block runs the
    next ``TRIALS_PER_BLOCK`` trials of every configuration.
    """

    D, MU, TRIALS_PER_BLOCK = 5, 0.5, 1000

    def __init__(self, block_seconds: float) -> None:
        self.block_seconds = block_seconds
        self.a_matrix = 0.2 * np.eye(self.D)
        self.b = np.full(self.D, 0.45)
        self.x = np.ones(self.D)

    def prepare(self, seed: int, seconds: int):
        n_blocks = blocks_for(seconds, self.block_seconds)
        oracle = QuadraticShiftOracle(self.a_matrix, self.b, 1.0)
        f_x = checks.quadratic_value(self.a_matrix, self.b, self.x)
        configs = {
            "one_point_c_0": ("one_point", 0.0),
            "one_point_c_F": ("one_point", f_x),
            "one_point_c_100": ("one_point", 100.0),
            "two_point": ("two_point", 0.0),
        }
        return oracle, n_blocks, seed, configs

    def execute(self, inputs, out_dir: Path) -> Result:
        oracle, n_blocks, seed, configs = inputs
        x, per_block = self.x, self.TRIALS_PER_BLOCK
        n = n_blocks * per_block
        handles = {name: register_env(oracle) for name in configs}
        estimates = {name: np.empty((n, self.D)) for name in configs}
        calls = [
            (
                getattr(estimators, f"{kind}_estimate"),
                handles[name],
                estimators.SmoothingState(self.MU, c),
                np.random.default_rng([seed, j, 0]),  # perturbations
                np.random.default_rng([seed, j, 1]),  # outcomes
                estimates[name],
            )
            for j, (name, (kind, c)) in enumerate(configs.items())
        ]
        block_s = []
        for b in range(n_blocks):
            t0 = perf_counter()
            for estimate, handle, state, rng_u, rng_env, g in calls:
                for t in range(b * per_block, (b + 1) * per_block):
                    g[t] = estimate(handle, x, state, 1, rng_u, env_rng=rng_env).g
            block_s.append(perf_counter() - t0)
        peak = peak_rss_mb()

        draws = {name: h.total_draws for name, h in handles.items()}
        per_trial = {name: 2 if kind == "two_point" else 1 for name, (kind, _) in configs.items()}
        target = checks.quadratic_gradient(self.a_matrix, self.b, x)
        failures = checks.check_estimates(estimates, draws, per_trial, target)
        digest = hashlib.sha256()
        for g in estimates.values():
            digest.update(g)
        return Result(
            block_s=block_s,
            peak_rss_mb=peak,
            attempted=n * len(configs),
            failed=sum(int(np.sum(~np.all(np.isfinite(g), axis=1))) for g in estimates.values()),
            failures=failures,
            outputs=estimates,
            digest=digest.hexdigest(),
            totals={"draws": sum(draws.values()), "metric_draws": 0, "estimates": n * len(configs)},
        )


# Seconds per block on the reference machine (README.md): five instances of
# the mini grid, one instance of the batch-size-1 grid, or a thousand trials
# of each estimator configuration. The profit order of the methods holds on
# the mini grid only: at batch size 1 the czo1 baseline's iterates run away
# and its mean profit over a few instances can land above alg2's.
WORKLOADS = {
    "pricing-mini": PricingGrid(
        ("alg1-mini", "alg2-mini", "czo1-mini"), 5, block_seconds=0.45, compare_profit=True
    ),
    "pricing-b1": PricingGrid(
        ("alg1-b1", "alg2-b1", "czo1-b1"), 1, block_seconds=3.0, compare_profit=False
    ),
    "estimator-mc": EstimatorMC(block_seconds=0.1),
}


def cross_check(tracer, totals: dict[str, int]) -> list[str]:
    """Compare the wrappers' counts with totals reached through the outputs."""
    pairs = {
        "draws": tracer.items["env.sample"],
        "metric_draws": tracer.items["harness.metric"],
        "estimates": tracer.calls["estimators.one_point"] + tracer.calls["estimators.two_point"],
    }
    return [
        f"traced {key} {pairs[key]} != {totals[key]} from the outputs"
        for key in pairs
        if pairs[key] != totals[key]
    ]

