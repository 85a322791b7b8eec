"""Optimization loops for decision-dependent zeroth-order problems.

Three methods share one loop skeleton:

* ``alg1``: one-point estimator with the tracked variance-reduction offset,
  a geometric smoothing-radius decay floored at ``mu_min``, and the history
  window feeding each offset update.
* ``alg2``: two-point estimator; same radius schedule, no offset machinery.
* ``czo1``: conventional baseline; one-point estimator with the offset
  frozen at zero and the radius frozen at its initial value.

Runs stop at sample-budget exhaustion or the iteration cap, whichever comes
first. A batch that would overshoot the remaining budget is not started.
Non-finite estimates or iterates abort the run with the trace retained.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .env import EnvHandle, as_decision_vector
from .estimators import SmoothingState, one_point_estimate, two_point_estimate
from .history import HistoryWindow, compute_c, compute_weights, estimate_initial_c
from .rng import (
    STREAM_ENV,
    STREAM_INIT_OFFSET,
    STREAM_PERTURBATION,
    STREAM_SELECT,
    split_rng,
)

__all__ = [
    "ConstantBeta",
    "GeometricBeta",
    "ConstantBatch",
    "AffineBatch",
    "RunConfig",
    "TheoryConstants",
    "TheoryParams",
    "IterTrace",
    "RunResult",
    "run_alg1",
    "run_alg2",
    "run_czo1",
    "run",
    "theory_params",
    "METHODS",
]

METHODS = ("alg1", "alg2", "czo1")


# --- schedules ---------------------------------------------------------------


@dataclass(frozen=True)
class ConstantBeta:
    beta: float

    def __post_init__(self):
        if not (self.beta > 0 and np.isfinite(self.beta)):
            raise ValueError("step size must be finite and > 0")

    def value(self, k: int) -> float:
        return self.beta


@dataclass(frozen=True)
class GeometricBeta:
    """Step size ``beta0 * decay**k``."""

    beta0: float
    decay: float

    def __post_init__(self):
        if not (self.beta0 > 0 and np.isfinite(self.beta0)):
            raise ValueError("beta0 must be finite and > 0")
        if not (0.0 < self.decay <= 1.0):
            raise ValueError("decay must be in (0, 1]")

    def value(self, k: int) -> float:
        return self.beta0 * self.decay**k


@dataclass(frozen=True)
class ConstantBatch:
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("batch size must be >= 1")

    def value(self, k: int) -> int:
        return self.m


@dataclass(frozen=True)
class AffineBatch:
    """Batch size ``m0 + slope * k``."""

    m0: int
    slope: int

    def __post_init__(self):
        if self.m0 < 1:
            raise ValueError("m0 must be >= 1")
        if self.slope < 0:
            raise ValueError("slope must be >= 0")

    def value(self, k: int) -> int:
        return self.m0 + self.slope * k


# --- configuration -----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class RunConfig:
    """Complete, serializable description of one optimizer run.

    Attributes
    ----------
    x0 : initial decision vector.
    mu0, mu_min : initial and floor smoothing radii, ``0 < mu_min <= mu0``.
    gamma : radius decay factor in ``(0, 1]``; 1 freezes the radius.
    s_max : history window capacity for the offset update.
    m_scale : squared-distance coefficient in the reuse weight scores.
    beta_schedule, batch_schedule : per-iteration step and batch sizes.
    c0_samples : draws spent estimating the initial offset (0 skips the
        estimate and starts from ``c = 0``); at most ``sample_budget``.
    sample_budget : hard cap on ledger draws for the run.
    max_iters : hard cap on iterations.
    seed : root seed from which all run streams are derived.
    method : one of ``alg1 | alg2 | czo1``.
    uniform_weights : ablation switch forcing equal reuse weights.
    c_freeze : when set, the offset is held at this value and the history
        machinery is skipped entirely (how the czo1 baseline runs).
    """

    x0: np.ndarray
    mu0: float
    mu_min: float
    gamma: float
    s_max: int
    m_scale: float
    beta_schedule: ConstantBeta | GeometricBeta
    batch_schedule: ConstantBatch | AffineBatch
    c0_samples: int
    sample_budget: int
    max_iters: int
    seed: int
    method: str
    uniform_weights: bool = False
    c_freeze: float | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "x0", as_decision_vector(self.x0).copy()
        )
        if not (self.mu0 > 0 and np.isfinite(self.mu0)):
            raise ValueError("mu0 must be finite and > 0")
        if not (0 < self.mu_min <= self.mu0):
            raise ValueError("mu_min must satisfy 0 < mu_min <= mu0")
        if not (0.0 < self.gamma <= 1.0):
            raise ValueError("gamma must be in (0, 1]")
        if self.s_max < 1:
            raise ValueError("s_max must be >= 1")
        if self.m_scale < 0 or not np.isfinite(self.m_scale):
            raise ValueError("m_scale must be finite and >= 0")
        if self.c0_samples < 0:
            raise ValueError("c0_samples must be >= 0")
        if self.sample_budget < 1:
            raise ValueError("sample_budget must be >= 1")
        if self.c0_samples > self.sample_budget:
            raise ValueError("c0_samples must not exceed sample_budget")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if self.c_freeze is not None and not np.isfinite(self.c_freeze):
            raise ValueError("c_freeze must be finite when set")


@dataclass(frozen=True)
class TheoryConstants:
    """Problem constants used by theory-mode parameter derivation.

    sigma : per-sample noise standard deviation of f at fixed x.
    alpha : Wasserstein sensitivity of the outcome distribution to x.
    lip_xi : Lipschitz constant of f in the outcome argument.
    lip_x : Lipschitz constant of f in the decision argument.
    smoothness : gradient Lipschitz constant of the objective.
    epsilon : target stationarity level.
    """

    sigma: float
    alpha: float
    lip_xi: float
    lip_x: float
    smoothness: float
    epsilon: float

    def __post_init__(self):
        vals = (
            self.sigma,
            self.alpha,
            self.lip_xi,
            self.lip_x,
            self.smoothness,
            self.epsilon,
        )
        if not all(np.isfinite(v) for v in vals):
            raise ValueError("theory constants must be finite")
        if min(self.sigma, self.alpha, self.lip_xi, self.lip_x) < 0:
            raise ValueError("theory constants must be nonnegative")
        if self.smoothness <= 0:
            raise ValueError("smoothness must be > 0")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be > 0")

    @property
    def lip_f(self) -> float:
        """Lipschitz constant of the objective: lip_xi + alpha * lip_x."""
        return self.lip_xi + self.alpha * self.lip_x


@dataclass(frozen=True)
class TheoryParams:
    """Run-parameter fragment produced by :func:`theory_params`."""

    mu0: float
    mu_min: float
    batch_size: int
    m_scale: float
    beta: float


@dataclass(frozen=True, eq=False)
class IterTrace:
    """Per-iteration record.

    ``x`` is the iterate the estimate was taken at, ``mu``, ``c`` and
    ``beta`` the values used this iteration (``c`` is None where no offset
    exists), ``cumulative_draws`` the run's ledger after this iteration's
    sampling, and ``obj_probe`` an optional periodic metric evaluation at
    the post-step iterate.
    """

    k: int
    x: np.ndarray
    mu: float
    c: float | None
    grad_norm_sq: float
    cumulative_draws: int
    beta: float
    obj_probe: float | None = None


@dataclass(eq=False)
class RunResult:
    """Everything a run produced: trace, outputs, accounting, status."""

    traces: list[IterTrace]
    x_final: np.ndarray
    x_uniform: np.ndarray
    diverged: bool
    draws_used: int
    iterations: int


# --- loops -------------------------------------------------------------------


def _one_point_loop(env, cfg, rng, probe_fn, probe_every) -> RunResult:
    d = env.dim()
    x = as_decision_vector(cfg.x0, d).copy()
    if rng is None:
        rng_u = split_rng(cfg.seed, STREAM_PERTURBATION)
        rng_env = split_rng(cfg.seed, STREAM_ENV)
        rng_c0 = split_rng(cfg.seed, STREAM_INIT_OFFSET)
        rng_sel = split_rng(cfg.seed, STREAM_SELECT)
    else:
        rng_u = rng_env = rng_c0 = rng_sel = rng

    start = env.total_draws
    frozen = cfg.c_freeze is not None
    history: HistoryWindow | None = None
    if frozen:
        c = float(cfg.c_freeze)
    else:
        history = HistoryWindow(cfg.s_max)
        c = 0.0
        if cfg.c0_samples > 0:
            c = estimate_initial_c(env, x, cfg.c0_samples, rng_c0)

    traces: list[IterTrace] = []
    iterates = [x.copy()]
    diverged = False
    mu = cfg.mu0
    k = 0
    while k < cfg.max_iters:
        m_k = int(cfg.batch_schedule.value(k))
        used = env.total_draws - start
        if used + m_k > cfg.sample_budget:
            break
        beta_k = float(cfg.beta_schedule.value(k))
        state = SmoothingState(mu=mu, c=c)
        est = one_point_estimate(env, x, state, m_k, rng_u, env_rng=rng_env)
        cum = env.total_draws - start
        with np.errstate(over="ignore"):
            gn2 = float(est.g @ est.g)

        if not np.isfinite(est.g).all():
            diverged = True
            traces.append(IterTrace(k, x.copy(), mu, c, gn2, cum, beta_k))
            break
        x_next = x - beta_k * est.g
        # norm check also catches iterates whose squared distance overflows,
        # which would poison the weight scores below
        with np.errstate(over="ignore"):
            xn2 = float(x_next @ x_next) if np.isfinite(x_next).all() else np.inf
        if not np.isfinite(xn2):
            diverged = True
            traces.append(IterTrace(k, x.copy(), mu, c, gn2, cum, beta_k))
            break

        if not frozen:
            history.push(est.batches[0])
            w = compute_weights(history, x_next, cfg.m_scale, cfg.uniform_weights)
            c_next = compute_c(history, w, x_next, env)
            if not math.isfinite(c_next):
                diverged = True
                traces.append(IterTrace(k, x.copy(), mu, c, gn2, cum, beta_k))
                break
        else:
            c_next = c

        obj = None
        if probe_fn is not None and probe_every > 0 and k % probe_every == 0:
            obj = float(probe_fn(x_next))
        traces.append(IterTrace(k, x.copy(), mu, c, gn2, cum, beta_k, obj))

        x = x_next
        c = c_next
        mu = max(cfg.gamma * mu, cfg.mu_min)
        iterates.append(x.copy())
        k += 1

    x_uniform = iterates[int(rng_sel.integers(len(iterates)))].copy()
    return RunResult(
        traces=traces,
        x_final=x.copy(),
        x_uniform=x_uniform,
        diverged=diverged,
        draws_used=env.total_draws - start,
        iterations=k,
    )


def _two_point_loop(env, cfg, rng, probe_fn, probe_every) -> RunResult:
    d = env.dim()
    x = as_decision_vector(cfg.x0, d).copy()
    if rng is None:
        rng_u = split_rng(cfg.seed, STREAM_PERTURBATION)
        rng_env = split_rng(cfg.seed, STREAM_ENV)
        rng_sel = split_rng(cfg.seed, STREAM_SELECT)
    else:
        rng_u = rng_env = rng_sel = rng

    start = env.total_draws
    traces: list[IterTrace] = []
    iterates = [x.copy()]
    diverged = False
    mu = cfg.mu0
    k = 0
    while k < cfg.max_iters:
        m_k = int(cfg.batch_schedule.value(k))
        used = env.total_draws - start
        if used + 2 * m_k > cfg.sample_budget:
            break
        beta_k = float(cfg.beta_schedule.value(k))
        state = SmoothingState(mu=mu, c=0.0)
        est = two_point_estimate(env, x, state, m_k, rng_u, env_rng=rng_env)
        cum = env.total_draws - start
        with np.errstate(over="ignore"):
            gn2 = float(est.g @ est.g)

        if not np.isfinite(est.g).all():
            diverged = True
            traces.append(IterTrace(k, x.copy(), mu, None, gn2, cum, beta_k))
            break
        x_next = x - beta_k * est.g
        with np.errstate(over="ignore"):
            xn2 = float(x_next @ x_next) if np.isfinite(x_next).all() else np.inf
        if not np.isfinite(xn2):
            diverged = True
            traces.append(IterTrace(k, x.copy(), mu, None, gn2, cum, beta_k))
            break

        obj = None
        if probe_fn is not None and probe_every > 0 and k % probe_every == 0:
            obj = float(probe_fn(x_next))
        traces.append(IterTrace(k, x.copy(), mu, None, gn2, cum, beta_k, obj))

        x = x_next
        mu = max(cfg.gamma * mu, cfg.mu_min)
        iterates.append(x.copy())
        k += 1

    x_uniform = iterates[int(rng_sel.integers(len(iterates)))].copy()
    return RunResult(
        traces=traces,
        x_final=x.copy(),
        x_uniform=x_uniform,
        diverged=diverged,
        draws_used=env.total_draws - start,
        iterations=k,
    )


def run_alg1(
    env: EnvHandle,
    cfg: RunConfig,
    rng: np.random.Generator | None = None,
    probe_fn=None,
    probe_every: int = 0,
) -> RunResult:
    """Variance-reduced one-point method.

    When ``rng`` is None (the normal path) all randomness is derived from
    ``cfg.seed`` on separate streams; a supplied generator is used for every
    draw instead, in call order. ``probe_fn``, when given with
    ``probe_every > 0``, is called with the post-step iterate every
    ``probe_every`` iterations and its value recorded as ``obj_probe``.
    """
    if cfg.method != "alg1":
        raise ValueError("cfg.method must be 'alg1'")
    return _one_point_loop(env, cfg, rng, probe_fn, probe_every)


def run_alg2(
    env: EnvHandle,
    cfg: RunConfig,
    rng: np.random.Generator | None = None,
    probe_fn=None,
    probe_every: int = 0,
) -> RunResult:
    """Two-point method; two draws per batch element, no offset machinery."""
    if cfg.method != "alg2":
        raise ValueError("cfg.method must be 'alg2'")
    return _two_point_loop(env, cfg, rng, probe_fn, probe_every)


def run_czo1(
    env: EnvHandle,
    cfg: RunConfig,
    rng: np.random.Generator | None = None,
    probe_fn=None,
    probe_every: int = 0,
) -> RunResult:
    """Conventional one-point baseline: offset 0, radius frozen at ``mu0``."""
    if cfg.method != "czo1":
        raise ValueError("cfg.method must be 'czo1'")
    frozen = replace(
        cfg, method="alg1", gamma=1.0, c_freeze=0.0, c0_samples=0
    )
    return _one_point_loop(env, frozen, rng, probe_fn, probe_every)


_RUNNERS = {"alg1": run_alg1, "alg2": run_alg2, "czo1": run_czo1}


def run(
    env: EnvHandle,
    cfg: RunConfig,
    rng: np.random.Generator | None = None,
    probe_fn=None,
    probe_every: int = 0,
) -> RunResult:
    """Dispatch to the loop named by ``cfg.method``."""
    return _RUNNERS[cfg.method](env, cfg, rng, probe_fn, probe_every)


# --- theory-mode parameters --------------------------------------------------


def theory_params(
    tc: TheoryConstants,
    d: int,
    T: int,
    scale: tuple[float, float, float] = (1.0, 1.0, 1.0),
    method: str = "alg1",
) -> TheoryParams:
    """Derive run parameters from problem constants.

    Produces ``mu_min = s1 * epsilon * d**-1.5``, ``mu0`` likewise with
    ``s2`` (floored at ``mu_min``), a constant batch size
    ``ceil(s3 * epsilon**-2 * d**2)``, the weight-score coefficient
    ``lip_xi**2 * alpha**2 / sigma**2``, and the step size

    ``beta = min( 1 / (12 (d+4) smoothness),
                  1 / ((T+1)**0.5 * d**0.75),
                  mu_min / (2 lip_xi alpha sqrt(6 d)) )``

    where the last term is the offset-stability cap; it applies to the
    one-point method only and is dropped for ``method='alg2'``. The
    ``scale`` triple absorbs the unspecified constants of the epsilon-based
    sizing; defaults leave the formulas bare.
    """
    if d < 1 or T < 0:
        raise ValueError("d must be >= 1 and T >= 0")
    if method not in ("alg1", "alg2"):
        raise ValueError("method must be 'alg1' or 'alg2'")
    s1, s2, s3 = (float(s) for s in scale)
    if min(s1, s2, s3) <= 0:
        raise ValueError("scale entries must be > 0")
    if tc.sigma == 0.0:
        raise ValueError("sigma = 0 leaves the weight-score coefficient undefined")

    mu_min = s1 * tc.epsilon * d**-1.5
    mu0 = max(s2 * tc.epsilon * d**-1.5, mu_min)
    batch = int(math.ceil(s3 * tc.epsilon**-2 * d**2))
    m_scale = tc.lip_xi**2 * tc.alpha**2 / tc.sigma**2

    terms = [
        1.0 / (12.0 * (d + 4) * tc.smoothness),
        1.0 / ((T + 1) ** 0.5 * d**0.75),
    ]
    if method == "alg1":
        cap_denom = 2.0 * tc.lip_xi * tc.alpha * math.sqrt(6.0 * d)
        if cap_denom > 0:
            terms.append(mu_min / cap_denom)
    beta = min(terms)
    return TheoryParams(
        mu0=mu0, mu_min=mu_min, batch_size=batch, m_scale=m_scale, beta=beta
    )
