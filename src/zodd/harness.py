"""Experiment orchestration: config files, multi-run grids, traces, summaries.

An experiment is a grid of (method, seed) runs over one environment family.
Each run writes a JSONL trace (one object per iteration); the experiment
writes one JSONL record per run plus a CSV summary with per-method means,
standard deviations, and Welch two-sided t-tests against the conventional
baseline. Config files are flat ``key=value`` text with ``env.*``,
``run.*`` and ``method.*`` prefixes; parsing and serialization round-trip
exactly.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import stats

from .env import SampleLedger, mean_objective, register_env
from .optimize import (
    AffineBatch,
    ConstantBatch,
    ConstantBeta,
    GeometricBeta,
    IterTrace,
    RunConfig,
    RunResult,
    run,
)
from .oracles import QuadraticShiftOracle
# eval_obj_metric is unused here, but zbench's tracer wraps harness.eval_obj_metric by name
from .pricing import PricingEnv, eval_obj_metric, load_theta, make_pricing_spec, synth_theta
from .rng import STREAM_INSTANCE, STREAM_METRIC, fold_seed, split_rng

__all__ = [
    "ConfigError",
    "ExperimentSpec",
    "METHOD_GRID",
    "parse_config",
    "serialize_config",
    "build_run_config",
    "run_experiment",
    "ExperimentOutcome",
    "RunRecord",
    "SummaryRow",
    "summarize",
    "welch_t",
    "write_summary_csv",
    "trace_plotdata",
    "write_plotdata_csv",
    "read_trace",
]

METHOD_GRID = (
    "alg1-mini",
    "alg1-b1",
    "alg2-mini",
    "alg2-b1",
    "czo1-mini",
    "czo1-b1",
)

# Experiment defaults: mini-batch schedule 30 + 2k, geometric step decay
# 9.5e-4 * 0.95**k, radius homotopy 0.19 -> 1e-4 at rate 0.95, 20-draw
# initial offset, and the conventional baseline at fixed radius 1e-3 with
# step 1e-5. The baseline runs deliberately untuned; it is the comparison
# anchor, not a contender being optimized.
_DEF_BETA0 = 1e-3 * 0.95


class ConfigError(ValueError):
    """Invalid experiment configuration (maps to exit code 2 in the CLI)."""


def _os_error(path, exc: OSError) -> ConfigError:
    """A file that cannot be read or written, as ``<path>: <reason>``."""
    return ConfigError(f"{path}: {exc.strerror or exc}")


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything a reproducible experiment needs, in one flat record."""

    # environment
    env_kind: str = "pricing"
    n_products: int = 10
    m_buyers: int = 40
    theta_file: str | None = None
    gamma_sens: float = 1.0
    a0: float | None = None
    theta_low: float = 0.55
    theta_high: float = 1.0
    d: int = 5
    noise_sigma: float = 1.0
    a_diag: float = 0.2
    b_fill: float = 0.45
    # run grid
    methods: tuple[str, ...] = ("alg1-mini", "alg2-mini", "czo1-mini")
    seeds: tuple[int, ...] | None = None
    base_seed: int = 2024
    n_instances: int = 20
    budget: int = 5000
    max_iters: int = 1_000_000
    metric_every: int = 0
    metric_samples: int = 1000
    output_dir: str = "zodd-out"
    # method hyperparameters
    mu0: float = 0.19
    mu_min: float = 1e-4
    gamma: float = 0.95
    s_max: int = 10
    m_scale: float = 0.1
    beta0: float = _DEF_BETA0
    beta_decay: float = 0.95
    m0: int = 30
    m_slope: int = 2
    c0_samples: int = 20
    czo_beta: float = 1e-5
    czo_mu: float = 1e-3
    x0_fill: float = 0.5
    uniform_weights: bool = False

    def __post_init__(self):
        if self.env_kind not in ("pricing", "analytic"):
            raise ConfigError(f"unknown env.kind: {self.env_kind!r}")
        if not self.methods:
            raise ConfigError("at least one method is required")
        for mth in self.methods:
            if mth not in METHOD_GRID:
                raise ConfigError(
                    f"unknown method {mth!r}; choose from {', '.join(METHOD_GRID)}"
                )
        if len(set(self.methods)) != len(self.methods):
            raise ConfigError("duplicate method names")
        if self.seeds is not None and len(self.seeds) < 1:
            raise ConfigError("run.seeds must be nonempty when given")
        # split_rng folds -1 and 2**64 - 1 into one stream: the same run twice
        try:
            folded = {fold_seed(s) for s in self.seeds or (self.base_seed,)}
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.seeds is not None and len(folded) != len(self.seeds):
            raise ConfigError("duplicate seeds in run.seeds")
        if self.n_instances < 1:
            raise ConfigError("run.n_instances must be >= 1")
        if self.budget < 1:
            raise ConfigError("run.budget must be >= 1")
        if self.max_iters < 1:
            raise ConfigError("run.max_iters must be >= 1")
        if self.metric_every < 0:
            raise ConfigError("run.metric_every must be >= 0")
        if self.metric_samples < 1:
            raise ConfigError("run.metric_samples must be >= 1")

    def resolved_seeds(self) -> tuple[int, ...]:
        if self.seeds is not None:
            return self.seeds
        return tuple(self.base_seed + i for i in range(self.n_instances))


# --- config file format ------------------------------------------------------

# key -> (field name, codec). Codecs parse a string and render a value.
def _int(s):
    return int(s)


def _float(s):
    return float(s)


def _str(s):
    return s


def _bool(s):
    low = s.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _csv_strs(s):
    items = tuple(part.strip() for part in s.split(",") if part.strip())
    if not items:
        raise ValueError("empty list")
    return items


def _csv_ints(s):
    return tuple(int(part.strip()) for part in s.split(",") if part.strip())


_KEYS: dict[str, tuple[str, object]] = {
    "env.kind": ("env_kind", _str),
    "env.n": ("n_products", _int),
    "env.m_buyers": ("m_buyers", _int),
    "env.theta_file": ("theta_file", _str),
    "env.gamma_sens": ("gamma_sens", _float),
    "env.a0": ("a0", _float),
    "env.theta_low": ("theta_low", _float),
    "env.theta_high": ("theta_high", _float),
    "env.d": ("d", _int),
    "env.noise_sigma": ("noise_sigma", _float),
    "env.a_diag": ("a_diag", _float),
    "env.b_fill": ("b_fill", _float),
    "run.methods": ("methods", _csv_strs),
    "run.seeds": ("seeds", _csv_ints),
    "run.base_seed": ("base_seed", _int),
    "run.n_instances": ("n_instances", _int),
    "run.budget": ("budget", _int),
    "run.max_iters": ("max_iters", _int),
    "run.metric_every": ("metric_every", _int),
    "run.metric_samples": ("metric_samples", _int),
    "run.out": ("output_dir", _str),
    "method.mu0": ("mu0", _float),
    "method.mu_min": ("mu_min", _float),
    "method.gamma": ("gamma", _float),
    "method.s_max": ("s_max", _int),
    "method.m_scale": ("m_scale", _float),
    "method.beta0": ("beta0", _float),
    "method.beta_decay": ("beta_decay", _float),
    "method.m0": ("m0", _int),
    "method.m_slope": ("m_slope", _int),
    "method.c0_samples": ("c0_samples", _int),
    "method.czo_beta": ("czo_beta", _float),
    "method.czo_mu": ("czo_mu", _float),
    "method.x0_fill": ("x0_fill", _float),
    "method.uniform_weights": ("uniform_weights", _bool),
}

_FIELD_TO_KEY = {field: key for key, (field, _) in _KEYS.items()}


def parse_config(text: str) -> ExperimentSpec:
    """Parse ``key=value`` config text into an :class:`ExperimentSpec`.

    Blank lines and ``#`` comments are skipped; unknown keys are errors.
    """
    updates: dict[str, object] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        field, codec = _KEYS[key]
        if field in updates:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        try:
            updates[field] = codec(value)
        except ValueError as exc:
            raise ConfigError(f"line {line_no}: bad value for {key}: {exc}") from exc
    try:
        return ExperimentSpec(**updates)
    except TypeError as exc:  # pragma: no cover
        raise ConfigError(str(exc)) from exc


def _render(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def serialize_config(spec: ExperimentSpec) -> str:
    """Render a spec to config text; ``parse_config`` inverts it exactly."""
    lines = []
    for f in dataclasses.fields(ExperimentSpec):
        value = getattr(spec, f.name)
        if value is None:
            continue
        lines.append(f"{_FIELD_TO_KEY[f.name]}={_render(value)}")
    return "\n".join(lines) + "\n"


# --- run construction --------------------------------------------------------


def _split_method(token: str) -> tuple[str, str]:
    kind, _, variant = token.partition("-")
    return kind, variant


def build_run_config(spec: ExperimentSpec, method_token: str, seed: int, d: int) -> RunConfig:
    """Materialize the run configuration for one grid cell."""
    if method_token not in METHOD_GRID:
        raise ConfigError(f"unknown method {method_token!r}")
    kind, variant = _split_method(method_token)
    batch = AffineBatch(spec.m0, spec.m_slope) if variant == "mini" else ConstantBatch(1)
    czo = kind == "czo1"
    return RunConfig(
        x0=np.full(d, spec.x0_fill),
        mu0=spec.czo_mu if czo else spec.mu0,
        mu_min=spec.czo_mu if czo else spec.mu_min,
        gamma=spec.gamma,
        s_max=spec.s_max,
        m_scale=spec.m_scale,
        beta_schedule=(
            ConstantBeta(spec.czo_beta) if czo else GeometricBeta(spec.beta0, spec.beta_decay)
        ),
        batch_schedule=batch,
        c0_samples=spec.c0_samples if kind == "alg1" else 0,
        sample_budget=spec.budget,
        max_iters=spec.max_iters,
        seed=seed,
        method=kind,
        uniform_weights=spec.uniform_weights,
    )


def build_environment(spec: ExperimentSpec, seed: int):
    """Build the instance environment for one seed.

    Pricing instances draw synthetic reference prices (or read them from
    ``theta_file``) and random unit costs on the instance stream, so each
    seed is its own problem instance shared by every method. The analytic
    environment is identical across seeds.
    """
    if spec.env_kind == "pricing":
        inst_rng = split_rng(seed, STREAM_INSTANCE)
        if spec.theta_file is not None:
            theta = load_theta(spec.theta_file)
            if theta.size != spec.n_products:
                raise ConfigError(
                    f"theta file has {theta.size} values, env.n={spec.n_products}"
                )
            rho = inst_rng.uniform(0.25, 0.5, spec.n_products)
            w = rho * theta
        else:
            theta, w = synth_theta(
                spec.n_products, inst_rng, spec.theta_low, spec.theta_high
            )
        pspec = make_pricing_spec(
            spec.n_products,
            spec.m_buyers,
            theta,
            w,
            gamma_sens=spec.gamma_sens,
            a0=spec.a0,
        )
        return PricingEnv(pspec)
    d = spec.d
    a_matrix = spec.a_diag * np.eye(d)
    b = np.full(d, spec.b_fill)
    return QuadraticShiftOracle(a_matrix, b, spec.noise_sigma)


# --- experiment execution ----------------------------------------------------


@dataclass(eq=False)
class RunRecord:
    """Post-run summary of one grid cell."""

    method: str
    seed: int
    obj: float
    obj_uniform: float
    draws: int
    metric_draws: int
    iterations: int
    diverged: bool
    x_final: tuple[float, ...]
    x_uniform: tuple[float, ...]


@dataclass(frozen=True)
class SummaryRow:
    method: str
    mean_obj: float
    sd_obj: float
    n: int
    n_diverged: int
    t_stat: float
    p_value: float
    baseline: str


@dataclass(eq=False)
class ExperimentOutcome:
    spec: ExperimentSpec
    records: list[RunRecord]
    summary: list[SummaryRow]
    trace_paths: dict[tuple[str, int], Path]
    output_dir: Path
    any_diverged: bool


def _finite_or_null(value):
    if isinstance(value, list):
        return [_finite_or_null(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _trace_to_json(t: IterTrace) -> str:
    """One strict-JSON trace line; non-finite floats are written as null.

    The line is ``json.dumps`` of the row, byte for byte: each float is
    written with ``float.__repr__`` and each int with ``int.__repr__``, as
    ``json`` writes them, without its per-call encoder set-up. A value of
    another type, or a non-finite one, takes the ``json.dumps`` path.
    """
    try:
        line = (
            f'{{"k": {_int_repr(t.k)}, "x": [{", ".join(map(_float_repr, t.x.tolist()))}], '
            f'"mu": {_float_repr(t.mu)}, "c": {_opt_float_repr(t.c)}, '
            f'"grad_norm_sq": {_float_repr(t.grad_norm_sq)}, '
            f'"cumulative_draws": {_int_repr(t.cumulative_draws)}, '
            f'"beta": {_float_repr(t.beta)}, "obj_probe": {_opt_float_repr(t.obj_probe)}}}'
        )
    except (TypeError, AttributeError):
        line = None
    # "inf" and "nan" are the only float reprs the keys and null cannot spell
    if line is None or "inf" in line or "nan" in line:
        line = _strict_json(t)
    return line


_float_repr = float.__repr__
_int_repr = int.__repr__


def _opt_float_repr(value) -> str:
    return "null" if value is None else _float_repr(value)


def _strict_json(t: IterTrace) -> str:
    row = {
        "k": t.k,
        "x": list(t.x),
        "mu": t.mu,
        "c": t.c,
        "grad_norm_sq": t.grad_norm_sq,
        "cumulative_draws": t.cumulative_draws,
        "beta": t.beta,
        "obj_probe": t.obj_probe,
    }
    try:
        return json.dumps(row, allow_nan=False)
    except ValueError:  # a diverged iterate: strict JSON has no inf or nan
        return json.dumps({k: _finite_or_null(v) for k, v in row.items()}, allow_nan=False)


def write_trace(path: Path, traces: list[IterTrace]) -> None:
    """Write one :func:`_trace_to_json` line per iteration, one line at a time."""
    with open(path, "w") as fh:
        for t in traces:
            fh.write(_trace_to_json(t) + "\n")


def read_trace(path) -> list[dict]:
    """Load a JSONL trace file back into a list of per-iteration dicts.

    Raises ``ValueError``, naming the line, when a line is not a JSON object.
    """
    rows = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"line {line_no}: not JSON: {exc.msg}") from exc
            if not isinstance(row, dict):
                raise ValueError(f"line {line_no}: not a JSON object")
            rows.append(row)
    return rows


def welch_t(sample_a, sample_b) -> tuple[float, float]:
    """Two-sided Welch t-test; returns (t statistic, p value).

    Overflow from extreme inputs (runaway runs) surfaces as NaN rather
    than a warning.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        res = stats.ttest_ind(
            np.asarray(sample_a, dtype=np.float64),
            np.asarray(sample_b, dtype=np.float64),
            equal_var=False,
        )
    return float(res.statistic), float(res.pvalue)


def summarize(records: list[RunRecord], methods: tuple[str, ...]) -> list[SummaryRow]:
    """Per-method mean/sd plus Welch tests against the baseline method.

    The baseline is ``czo1-mini`` when present, else ``czo1-b1``, else the
    first method; the baseline's own test fields are NaN, and so are those
    of a method when it or the baseline has a diverged run.
    """
    baseline = next(
        (m for m in ("czo1-mini", "czo1-b1") if m in methods), methods[0]
    )
    by_method = {m: [r for r in records if r.method == m] for m in methods}
    base_objs = np.array([r.obj for r in by_method[baseline]], dtype=np.float64)
    base_diverged = any(r.diverged for r in by_method[baseline])
    rows = []
    for m in methods:
        objs = np.array([r.obj for r in by_method[m]], dtype=np.float64)
        n_diverged = sum(r.diverged for r in by_method[m])
        with np.errstate(over="ignore", invalid="ignore"):
            mean = float(np.mean(objs))
            sd = float(np.std(objs, ddof=1)) if objs.size > 1 else 0.0
        comparable = (
            m != baseline
            and objs.size >= 2
            and base_objs.size >= 2
            and not n_diverged
            and not base_diverged
            and bool(np.all(np.isfinite(objs)) and np.all(np.isfinite(base_objs)))
        )
        if comparable:
            t_stat, p_value = welch_t(objs, base_objs)
        else:
            # a t-test over diverged runs is noise, even when their
            # objectives are huge but finite
            t_stat = p_value = float("nan")
        rows.append(
            SummaryRow(
                method=m,
                mean_obj=mean,
                sd_obj=sd,
                n=objs.size,
                n_diverged=n_diverged,
                t_stat=t_stat,
                p_value=p_value,
                baseline=baseline,
            )
        )
    return rows


def write_summary_csv(path: Path, rows: list[SummaryRow]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["method", "mean_obj", "sd_obj", "n", "n_diverged", "t_stat", "p_value", "baseline"]
        )
        for r in rows:
            t_text = "" if np.isnan(r.t_stat) else repr(r.t_stat)
            p_text = "" if np.isnan(r.p_value) else repr(r.p_value)
            writer.writerow(
                [r.method, repr(r.mean_obj), repr(r.sd_obj), r.n, r.n_diverged, t_text, p_text, r.baseline]
            )


def run_experiment(spec: ExperimentSpec, echo=None) -> ExperimentOutcome:
    """Execute the full (method, seed) grid and write all output files.

    Outputs under ``spec.output_dir``: ``config.txt`` (the resolved spec),
    ``traces/<method>__seed<seed>.jsonl``, ``runs.jsonl`` (one record per
    run), and ``summary.csv``. ``echo``, when given, receives one progress
    line per run. Raises :class:`ConfigError`, before anything is written,
    when the environment or a method's run configuration cannot be built,
    and when the output directory cannot be created.
    """
    seeds = spec.resolved_seeds()
    try:
        d = build_environment(spec, seeds[0]).dim()
        for method_token in spec.methods:
            build_run_config(spec, method_token, seeds[0], d)
    except (ValueError, OSError) as exc:  # ConfigError included
        raise ConfigError(str(exc)) from exc

    out_dir = Path(spec.output_dir)
    traces_dir = out_dir / "traces"
    try:
        traces_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "config.txt").write_text(serialize_config(spec))
    except OSError as exc:
        raise _os_error(out_dir, exc) from exc

    records: list[RunRecord] = []
    trace_paths: dict[tuple[str, int], Path] = {}
    for seed in seeds:
        env = build_environment(spec, seed)
        for method_token in spec.methods:
            cfg = build_run_config(spec, method_token, seed, env.dim())
            handle = register_env(env)
            metric_rng = split_rng(seed, STREAM_METRIC)
            metric_ledger = SampleLedger()

            def metric(x):
                return mean_objective(env, x, spec.metric_samples, metric_rng, metric_ledger)

            result = run(
                handle,
                cfg,
                probe_fn=metric if spec.metric_every > 0 else None,
                probe_every=spec.metric_every,
            )
            obj = metric(result.x_final)
            obj_uniform = metric(result.x_uniform)

            trace_path = traces_dir / f"{method_token}__seed{seed}.jsonl"
            write_trace(trace_path, result.traces)
            trace_paths[(method_token, seed)] = trace_path
            record = RunRecord(
                method=method_token,
                seed=seed,
                obj=obj,
                obj_uniform=obj_uniform,
                draws=result.draws_used,
                metric_draws=metric_ledger.total_draws,
                iterations=result.iterations,
                diverged=result.diverged,
                x_final=tuple(float(v) for v in result.x_final),
                x_uniform=tuple(float(v) for v in result.x_uniform),
            )
            records.append(record)
            if echo is not None:
                flag = " DIVERGED" if record.diverged else ""
                echo(
                    f"{method_token} seed={seed} obj={obj:.4f} "
                    f"draws={record.draws}/{spec.budget}{flag}"
                )

    with open(out_dir / "runs.jsonl", "w") as fh:
        for r in records:
            fh.write(json.dumps(dataclasses.asdict(r)) + "\n")
    summary = summarize(records, spec.methods)
    write_summary_csv(out_dir / "summary.csv", summary)
    return ExperimentOutcome(
        spec=spec,
        records=records,
        summary=summary,
        trace_paths=trace_paths,
        output_dir=out_dir,
        any_diverged=any(r.diverged for r in records),
    )


# --- plot data ---------------------------------------------------------------


def trace_plotdata(paths) -> list[tuple[str, int, float]]:
    """Collect (series, cumulative_draws, obj) rows from trace files.

    The series label is the trace filename stem. Raises
    :class:`ConfigError`, naming the file, when a file cannot be read or is
    not a trace, and when no file contains probe entries (runs need
    ``run.metric_every > 0`` for that).
    """
    paths = list(paths)
    if not paths:
        raise ConfigError("no trace files given")
    rows: list[tuple[str, int, float]] = []
    for p in paths:
        label = Path(p).stem
        try:
            entries = read_trace(p)
        except OSError as exc:
            raise _os_error(p, exc) from exc
        except ValueError as exc:  # bad JSON or bytes that are not UTF-8
            raise ConfigError(f"{p}: {exc}") from exc
        for entry in entries:
            probe = entry.get("obj_probe")
            if probe is None:
                continue
            draws = entry.get("cumulative_draws")
            # JSON numbers load as exactly int or float; true/false are bools
            if type(probe) not in (int, float) or type(draws) is not int:
                raise ConfigError(
                    f"{p}: a probe entry needs a number obj_probe and an "
                    "integer cumulative_draws"
                )
            rows.append((label, draws, float(probe)))
    if not rows:
        raise ConfigError(
            "traces contain no obj_probe entries; rerun with run.metric_every > 0"
        )
    return rows


def write_plotdata_csv(path: Path, rows: list[tuple[str, int, float]]) -> None:
    """Write plot rows as CSV; ``ConfigError``, naming ``path``, if it cannot."""
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["series", "cumulative_draws", "obj"])
            for series, draws, obj in rows:
                writer.writerow([series, draws, repr(obj)])
    except OSError as exc:
        raise _os_error(path, exc) from exc
