"""tools/bench_record.py: result parsing and BENCH file assembly, on canned lines."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)

BENCHMARK = {
    "workloads": [{"name": "pricing-mini"}, {"name": "estimator-mc"}],
    "end_to_end": [
        {"name": "draws_per_s", "unit": "draws/s", "better": "higher", "bound": 0.24},
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.24},
    ],
}


def _line(correct=True, **metrics):
    # zbench's last line: each metric as {"value": ..., "unit": ...}
    metrics = {name: {"value": value, "unit": "u"} for name, value in metrics.items()}
    return json.dumps({"correct": correct, "attempted": 3, "failed": 0, "metrics": metrics})


def _stdout(**metrics):
    return "workload pricing-mini: 44 blocks\n" + _line(**metrics) + "\n"


def test_check_run_returns_the_last_line():
    result = bench_record.check_run("w", 0, _stdout(draws_per_s=5.0, wall_s=2.0), "")
    assert result["metrics"]["draws_per_s"] == {"value": 5.0, "unit": "u"}


@pytest.mark.parametrize(
    "returncode, stdout",
    [
        (1, _line(correct=False, draws_per_s=5.0) + "\n"),
        (0, _line(correct=False, draws_per_s=5.0) + "\n"),
        (1, _line(draws_per_s=5.0) + "\n"),
        (4, "zbench: error inside the benchmark in workload pricing-b1: KeyError('x')\n"),
        (3, "zbench: zodd not found: src/zodd/__init__.py does not exist\n"),
        (0, ""),
        (0, "[1, 2]\n"),
    ],
)
def test_check_run_refuses_failed_or_incorrect_runs(returncode, stdout):
    with pytest.raises(bench_record.RunFailed, match=f"^w: exit {returncode}"):
        bench_record.check_run("w", returncode, stdout, "Traceback ...\n")


def test_spread_gives_inclusive_quartiles():
    got = bench_record.spread([4.0, 1.0, 3.0, 2.0, 5.0])
    assert got == {"median": 3.0, "q1": 2.0, "q3": 4.0, "runs": [4.0, 1.0, 3.0, 2.0, 5.0]}
    assert bench_record.spread([7.5]) == {"median": 7.5, "q1": 7.5, "q3": 7.5, "runs": [7.5]}


def test_assemble_summarises_untraced_runs_and_keeps_the_traced_layers():
    check = bench_record.check_run
    mini = [check("m", 0, _stdout(draws_per_s=d, wall_s=w), "")
            for d, w in ((300.0, 12.0), (320.0, 11.0), (310.0, 11.5))]
    mc = [check("e", 0, _stdout(draws_per_s=60.0, wall_s=9.0), "")]
    traced = check("t", 0, _stdout(**{"pricing.sample.calls": 12675}), "")
    machine = {"nproc": 2, "python": "3.11.7", "numpy": "2.4.6", "scipy": "1.16.0"}
    settings = {"seed": 5, "seconds": 20, "runs": 3}
    record = bench_record.assemble(
        "demo", "abc123", machine, settings, BENCHMARK,
        {"pricing-mini": {"untraced": mini, "traced": traced},
         "estimator-mc": {"untraced": mc, "traced": traced}},
    )
    json.dumps(record, allow_nan=False)
    assert record["tag"] == "demo" and record["commit"] == "abc123"
    assert {k: record[k] for k in machine} == machine
    assert {k: record[k] for k in settings} == settings
    mini_out = record["workloads"]["pricing-mini"]
    assert mini_out["end_to_end"]["draws_per_s"] == {
        "unit": "draws/s", "better": "higher",
        "median": 310.0, "q1": 305.0, "q3": 315.0, "runs": [300.0, 320.0, 310.0],
    }
    assert mini_out["end_to_end"]["wall_s"]["median"] == 11.5
    assert mini_out["per_layer"] == {"pricing.sample.calls": {"value": 12675, "unit": "u"}}
    assert record["workloads"]["estimator-mc"]["end_to_end"]["wall_s"]["q3"] == 9.0


def test_tags_that_are_not_file_names_are_refused(capsys):
    with pytest.raises(SystemExit) as exc:
        bench_record.parse_args(["--tag", "../x"])
    assert exc.value.code == 2
    assert bench_record.parse_args(["--tag", "base-1.0_x"]).runs == 10
