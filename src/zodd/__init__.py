"""Zeroth-order optimization when sampling distributions depend on the decision.

The package provides gradient-free methods for objectives of the form
F(x) = E[f(x, xi)] where the distribution of xi shifts with x: a
variance-reduced one-point method that recycles past evaluations into a
control offset, a two-point method, a constant-radius baseline, analytic
oracles with closed forms for verification, a multiproduct pricing
benchmark, and an experiment harness with deterministic seeding.
"""

from .env import (
    EnvHandle,
    Environment,
    SampleBatch,
    SampleLedger,
    as_decision_vector,
    mean_objective,
    register_env,
)
from .estimators import (
    EstimatorSample,
    SmoothingState,
    moment_samples,
    one_point_estimate,
    two_point_estimate,
)
from .harness import (
    ConfigError,
    ExperimentOutcome,
    ExperimentSpec,
    RunRecord,
    SummaryRow,
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
from .history import (
    HistoryWindow,
    WeightVector,
    compute_c,
    compute_weights,
    estimate_initial_c,
)
from .optimize import (
    AffineBatch,
    ConstantBatch,
    ConstantBeta,
    GeometricBeta,
    IterTrace,
    RunConfig,
    RunResult,
    TheoryConstants,
    TheoryParams,
    run,
    theory_params,
)
from .oracles import (
    DeterministicEnv,
    QuadraticShiftOracle,
    estimator_moment_bound,
    mc_smoothed_value,
    offset_tracking_ceiling,
)
from .pricing import (
    PricingEnv,
    PricingEnvSpec,
    choice_probs,
    eval_obj_metric,
    load_theta,
    make_pricing_spec,
    piecewise_cost,
    pricing_f,
    synth_theta,
)
from .rng import (
    STREAM_ENV,
    STREAM_INIT_OFFSET,
    STREAM_INSTANCE,
    STREAM_METRIC,
    STREAM_PERTURBATION,
    STREAM_SELECT,
    split_rng,
)
from .verify import CheckResult, run_suite

__version__ = "0.1.0"

__all__ = [
    "AffineBatch",
    "CheckResult",
    "ConfigError",
    "ConstantBatch",
    "ConstantBeta",
    "DeterministicEnv",
    "EnvHandle",
    "Environment",
    "EstimatorSample",
    "ExperimentOutcome",
    "ExperimentSpec",
    "GeometricBeta",
    "HistoryWindow",
    "IterTrace",
    "PricingEnv",
    "PricingEnvSpec",
    "QuadraticShiftOracle",
    "RunConfig",
    "RunRecord",
    "RunResult",
    "SampleBatch",
    "SampleLedger",
    "SmoothingState",
    "STREAM_ENV",
    "STREAM_INIT_OFFSET",
    "STREAM_INSTANCE",
    "STREAM_METRIC",
    "STREAM_PERTURBATION",
    "STREAM_SELECT",
    "SummaryRow",
    "TheoryConstants",
    "TheoryParams",
    "WeightVector",
    "as_decision_vector",
    "choice_probs",
    "compute_c",
    "compute_weights",
    "estimate_initial_c",
    "estimator_moment_bound",
    "eval_obj_metric",
    "load_theta",
    "make_pricing_spec",
    "mc_smoothed_value",
    "mean_objective",
    "moment_samples",
    "offset_tracking_ceiling",
    "one_point_estimate",
    "parse_config",
    "piecewise_cost",
    "pricing_f",
    "read_trace",
    "register_env",
    "run",
    "run_experiment",
    "run_suite",
    "serialize_config",
    "split_rng",
    "summarize",
    "synth_theta",
    "theory_params",
    "trace_plotdata",
    "two_point_estimate",
    "welch_t",
    "write_plotdata_csv",
    "write_trace",
    "__version__",
]
