"""Record zbench's metrics for one checkout in ``BENCH_<tag>.json``.

Run from anywhere:

    python3 tools/bench_record.py --tag <tag> [--root <checkout>] [--runs N]
                                  [--seconds S] [--seed K]

For every workload that the checkout's ``BENCHMARK.json`` lists, runs
``zbench/run.py`` in ``--root`` (default: this checkout) with the interpreter
running this script, ``N`` times with tracing off and once with ``--trace 1``,
all at seed ``K`` and ``--seconds S``, one run at a time. Then writes
``BENCH_<tag>.json`` at the root of this checkout. It holds the median and
quartiles of each end-to-end metric, with every run's value; the per-layer
metrics of the traced run; nproc and the Python, numpy and scipy versions; and
the commit measured, marked ``+dirty`` when tracked files differ from it.

Exits 1, writing nothing, as soon as a run exits nonzero or reports incorrect
outputs. With the defaults, the three workloads take about a quarter of an
hour.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

import numpy
import scipy

HERE = Path(__file__).resolve().parent.parent


class RunFailed(RuntimeError):
    pass


def check_run(label: str, returncode: int, stdout: str, stderr: str) -> dict:
    """The result object on the last line of one zbench run's stdout.

    Raises :class:`RunFailed` when the run exited nonzero, printed no result
    line, or reported incorrect outputs.
    """
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    if returncode != 0 or not isinstance(result, dict) or result.get("correct") is not True:
        tail = "\n".join((stdout.strip().splitlines() + stderr.strip().splitlines())[-5:])
        raise RunFailed(f"{label}: exit {returncode}, no correct result:\n{tail}")
    return result


def run_zbench(root: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    label = f"{workload} --seed {seed} --seconds {seconds} --trace {trace}"
    proc = subprocess.run(
        [sys.executable, "zbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True,
    )
    return check_run(label, proc.returncode, proc.stdout, proc.stderr)


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of a metric's runs, and the runs."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "runs": list(values)}


def assemble(tag: str, commit: str | None, machine: dict, settings: dict,
             benchmark: dict, results: dict) -> dict:
    """The ``BENCH_<tag>.json`` object.

    ``results`` maps each workload to ``{"untraced": [result, ...], "traced":
    result}``, each result being a run's parsed last line, whose metrics map
    each name to ``{"value": ..., "unit": ...}``.
    """
    workloads = {}
    for name, runs in results.items():
        end_to_end = {
            metric["name"]: {
                "unit": metric["unit"],
                "better": metric["better"],
                **spread([run["metrics"][metric["name"]]["value"] for run in runs["untraced"]]),
            }
            for metric in benchmark["end_to_end"]
        }
        workloads[name] = {"end_to_end": end_to_end, "per_layer": runs["traced"]["metrics"]}
    return {"tag": tag, "commit": commit, **machine, **settings, "workloads": workloads}


def machine_info() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def commit_of(root: Path) -> str | None:
    """HEAD of ``root``, with ``+dirty`` when tracked files differ; None outside git."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, check=True,
                              capture_output=True, text=True).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                cwd=root, check=True, capture_output=True, text=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    return head + ("+dirty" if status.strip() else "")


def parse_args(argv):
    def positive(text):
        value = int(text)
        if value < 1:
            raise argparse.ArgumentTypeError("must be >= 1")
        return value

    def tag(text):
        if not re.fullmatch(r"[A-Za-z0-9._-]+", text):
            raise argparse.ArgumentTypeError("letters, digits, '.', '_' and '-' only")
        return text

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tag", required=True, type=tag)
    parser.add_argument("--root", type=Path, default=HERE, help="checkout to measure")
    parser.add_argument("--runs", type=positive, default=10, help="untraced runs per workload")
    parser.add_argument("--seconds", type=positive, default=20)
    parser.add_argument("--seed", type=int, default=1)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = args.root.resolve()
    benchmark = json.loads((root / "BENCHMARK.json").read_text())
    results = {}
    try:
        for workload in (w["name"] for w in benchmark["workloads"]):
            untraced = []
            for i in range(args.runs):
                untraced.append(run_zbench(root, workload, args.seed, args.seconds, 0))
                print(f"{workload} run {i + 1}/{args.runs}: {untraced[-1]['metrics']}",
                      file=sys.stderr)
            traced = run_zbench(root, workload, args.seed, args.seconds, 1)
            print(f"{workload} traced run done", file=sys.stderr)
            results[workload] = {"untraced": untraced, "traced": traced}
    except RunFailed as exc:
        print(f"bench_record: {exc}", file=sys.stderr)
        return 1
    settings = {"seed": args.seed, "seconds": args.seconds, "runs": args.runs}
    record = assemble(args.tag, commit_of(root), machine_info(), settings, benchmark, results)
    out = HERE / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
