"""Command line interface: run experiments, verify invariants, export plot data.

Exit codes: 0 on success, 1 when a run diverged or a verification check
failed, 2 on bad configuration or arguments.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .harness import (
    ConfigError,
    ExperimentSpec,
    parse_config,
    run_experiment,
    trace_plotdata,
    write_plotdata_csv,
)
from .verify import run_suite

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zodd",
        description="Zeroth-order optimization under decision-dependent sampling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("--config", type=Path, default=None,
                       help="key=value config file (defaults used when omitted)")
    p_run.add_argument("--seed", type=int, default=None, help="override base seed")
    p_run.add_argument("--out", type=Path, default=None, help="override output directory")
    p_run.add_argument("--budget", type=int, default=None, help="override sample budget")
    p_run.add_argument("--methods", type=str, default=None,
                       help="comma-separated method tokens, e.g. alg1-mini,czo1-mini")

    p_ver = sub.add_parser("verify", help="run a Monte-Carlo verification suite")
    p_ver.add_argument("suite", choices=["estimators", "weights", "schedules", "pricing", "all"])
    p_ver.add_argument("--seed", type=int, default=2024)

    p_plot = sub.add_parser("plotdata", help="flatten trace files into a plotting CSV")
    p_plot.add_argument("traces", nargs="+", type=Path, help="trace .jsonl files")
    p_plot.add_argument("--out", type=Path, default=Path("plotdata.csv"))
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    if args.config is not None:
        try:
            text = args.config.read_text(encoding="utf-8")
        except OSError as exc:
            raise ConfigError(f"{args.config}: {exc.strerror or exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{args.config}: {exc}") from exc
        spec = parse_config(text)
    else:
        spec = ExperimentSpec()

    overrides = {}
    if args.seed is not None:
        overrides["base_seed"] = args.seed
        overrides["seeds"] = None
    if args.out is not None:
        overrides["output_dir"] = str(args.out)
    if args.budget is not None:
        overrides["budget"] = args.budget
    if args.methods is not None:
        overrides["methods"] = tuple(tok.strip() for tok in args.methods.split(",") if tok.strip())
    if overrides:
        spec = replace(spec, **overrides)

    outcome = run_experiment(spec, echo=print)
    n_diverged = sum(1 for rec in outcome.records if rec.diverged)
    if n_diverged:
        print(f"error: {n_diverged} run(s) diverged", file=sys.stderr)
        return 1
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_suite(args.suite, seed=args.seed)
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        failures += not r.passed
        print(f"[{tag}] {r.name:<{width}}  {r.observed}  (require {r.threshold})")
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 1 if failures else 0


def _cmd_plotdata(args: argparse.Namespace) -> int:
    rows = trace_plotdata(args.traces)
    write_plotdata_csv(args.out, rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_plotdata(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
