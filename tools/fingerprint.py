"""Print the output fingerprints of the default experiment grids.

Run from anywhere; zodd is imported from this checkout's ``src/``:

    python3 tools/fingerprint.py

Runs the default ``zodd run`` grid (20 instances of ``alg1-mini``,
``alg2-mini`` and ``czo1-mini``) and the same grid with the methods
``alg1-b1,alg2-b1,czo1-b1``, each into a temporary directory removed on
exit, and prints the sha256 of ``runs.jsonl``, of ``summary.csv`` and of all
trace files concatenated in name order, one ``<grid> <output> <sha256>``
line each. Two commits whose printed lines match wrote the same bytes.
Takes about a minute on one core.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from zodd.harness import ExperimentSpec, run_experiment  # noqa: E402

GRIDS = {
    "default": ExperimentSpec().methods,
    "b1": ("alg1-b1", "alg2-b1", "czo1-b1"),
}


def fingerprint(out_dir: Path) -> dict[str, str]:
    """sha256 of one run directory's runs.jsonl, summary.csv and traces."""
    traces = hashlib.sha256()
    for path in sorted((out_dir / "traces").iterdir()):
        traces.update(path.read_bytes())
    return {
        "runs.jsonl": hashlib.sha256((out_dir / "runs.jsonl").read_bytes()).hexdigest(),
        "summary.csv": hashlib.sha256((out_dir / "summary.csv").read_bytes()).hexdigest(),
        "traces": traces.hexdigest(),
    }


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="zodd-fingerprint-") as tmp:
        for grid, methods in GRIDS.items():
            out_dir = Path(tmp) / grid
            run_experiment(ExperimentSpec(methods=methods, output_dir=str(out_dir)))
            for name, digest in fingerprint(out_dir).items():
                print(f"{grid} {name} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
