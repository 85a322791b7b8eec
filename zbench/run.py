"""Layered benchmark of zodd: one workload per run, its metrics on the last line.

Run from the root of a zodd checkout:

    python3 zbench/run.py --workload pricing-mini --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
repeats the same fixed work under span tracing, reports the per-layer metrics
instead, and checks the traced pass against the untraced one. The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``, unless the benchmark itself fails.

Exit status: 0 outputs correct; 1 outputs incorrect (the JSON line still
printed, with ``"correct": false``); 2 bad arguments; 3 zodd not found under
``src/``; 4 an error inside the benchmark, with the workload named on the
last line.
"""

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("pricing-mini", "pricing-b1", "estimator-mc")
EXIT_INCORRECT, EXIT_NO_ZODD, EXIT_ERROR = 1, 3, 4


def seconds_since_process_start() -> float:
    """Wall time since the kernel started this process."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")  # field 22: starttime
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


class ZoddNotFound(RuntimeError):
    pass


def import_zodd(root: Path):
    """Import zodd from the ``src`` directory under ``root`` and nowhere else."""
    package = root / "src" / "zodd"
    if not (package / "__init__.py").is_file():
        raise ZoddNotFound(f"zodd not found: {package} does not exist")
    sys.path.insert(0, str(root / "src"))
    import zodd

    if Path(zodd.__file__).resolve().parent != package.resolve():
        raise ZoddNotFound(f"imported zodd from {zodd.__file__}, not from {package}")
    return zodd


def parse_args(argv):
    def natural(text):
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("must be >= 0")
        return value

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=natural)
    parser.add_argument("--seconds", required=True, type=natural)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def measure(args) -> dict:
    import workloads
    from spans import Tracer, installed

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.prepare(args.seed, args.seconds)
    setup_s = seconds_since_process_start()

    with tempfile.TemporaryDirectory(prefix=".zbench-tmp-", dir=ROOT) as tmp:
        plain = workload.execute(inputs, Path(tmp) / "plain")
        failures = list(plain.failures)
        if args.trace:
            tracer = Tracer()
            with installed(tracer):
                traced = workload.execute(inputs, Path(tmp) / "traced")
            if traced.digest != plain.digest:
                failures.append("traced outputs differ from the untraced outputs")
            failures += workloads.cross_check(tracer, traced.totals)
            metrics = tracer.metrics()
            overhead = sum(traced.block_s) - sum(plain.block_s)
            print(
                f"zbench: {args.workload}: untraced {sum(plain.block_s):.3f} s, traced "
                f"{sum(traced.block_s):.3f} s, tracing overhead {overhead:.3f} s",
                file=sys.stderr,
            )
        else:
            # blocks hold equal work, so blocks x median block time is the wall
            # time of the whole work with bursts of outside load left out
            wall_s = len(plain.block_s) * statistics.median(plain.block_s)
            metrics = {
                "setup_s": (setup_s, "s"),
                "draws_per_s": (plain.totals["draws"] / wall_s, "draws/s"),
                "wall_s": (wall_s, "s"),
                "peak_rss_mb": (plain.peak_rss_mb, "MB"),
            }
            print(
                f"zbench: {args.workload}: {len(plain.block_s)} blocks, {sum(plain.block_s):.3f} s "
                f"in total, block min {min(plain.block_s):.4f} s, median "
                f"{statistics.median(plain.block_s):.4f} s, max {max(plain.block_s):.4f} s",
                file=sys.stderr,
            )
    for failure in failures:
        print(f"zbench: {args.workload}: check failed: {failure}", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": plain.attempted,
        "failed": plain.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # Load comes from one thread of one process: keep BLAS from starting
    # workers. This must precede the first numpy import.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    try:
        import_zodd(ROOT)
    except ZoddNotFound as exc:
        print(f"zbench: {exc}; run from the root of a zodd checkout")
        return EXIT_NO_ZODD
    try:
        line = measure(args)
    except Exception as exc:
        traceback.print_exc()
        print(f"zbench: error inside the benchmark in workload {args.workload}: {exc!r}")
        return EXIT_ERROR
    print(json.dumps(line))
    return 0 if line["correct"] else EXIT_INCORRECT


if __name__ == "__main__":
    sys.exit(main())
