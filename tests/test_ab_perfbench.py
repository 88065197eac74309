"""The interleaved A/B driver for the repository benchmark
(``benchmarks/ab_perfbench.py``), run against stub checkouts."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "ab_perfbench.py"
_spec = importlib.util.spec_from_file_location("ab_perfbench", _PATH)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

SPEC = {
    "end_to_end": [
        {"name": "profiling_overhead", "unit": "x", "better": "lower", "bound": 0.2},
        {"name": "ops", "unit": "count", "better": "higher", "bound": 0.1},
    ],
    "per_layer": [],
}

#: stub benchmark: logs its invocation, then prints a result whose
#: overhead is the checkout's FACTOR times (1 + seed / 100).
STUB = """\
import json, sys
from pathlib import Path
here = Path(__file__).resolve().parents[1]
seed = int(sys.argv[sys.argv.index("--seed") + 1])
with open(here.parent / "calls.log", "a") as fh:
    fh.write(f"{here.name} {seed}\\n")
factor = float((here / "FACTOR").read_text())
correct = (here / "BROKEN").exists() is False
print("# stub")
print(json.dumps({"correct": correct, "attempted": 1, "failed": 0 if correct else 1,
                  "metrics": {"profiling_overhead": {"value": factor * (1 + seed / 100), "unit": "x"},
                              "ops": {"value": 100, "unit": "count"}}}))
"""


def _checkout(root: Path, name: str, factor: float) -> Path:
    path = root / name
    (path / "perfbench").mkdir(parents=True)
    (path / "perfbench" / "run.py").write_text(STUB)
    (path / "FACTOR").write_text(str(factor))
    (path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    return path


def test_median_ratio_ci_of_a_uniform_speedup():
    parent = [2.0, 2.2, 2.1, 2.4, 1.9]
    ratio, lo, hi = ab.median_ratio_ci(parent, [0.9 * p for p in parent])
    assert ratio == pytest.approx(0.9)
    assert lo == pytest.approx(0.9) and hi == pytest.approx(0.9)


def test_median_ratio_ci_brackets_the_point_estimate():
    parent = [2.0, 2.2, 2.1, 2.4, 1.9, 2.3]
    change = [1.9, 2.3, 1.8, 2.2, 2.0, 2.0]
    ratio, lo, hi = ab.median_ratio_ci(parent, change)
    assert lo <= ratio <= hi
    assert (ratio, lo, hi) == ab.median_ratio_ci(parent, change)  # seeded resampling


def test_summarize_counts_wins_in_the_declared_direction():
    def res(overhead, ops):
        return {"metrics": {"profiling_overhead": {"value": overhead}, "ops": {"value": ops}}}

    pairs = [(res(2.0, 10), res(1.8, 10)), (res(2.0, 10), res(2.1, 12)), (res(2.0, 10), res(1.9, 9))]
    rows = {r["metric"]: r for r in ab.summarize(pairs, SPEC, trace=0)}
    assert rows["profiling_overhead"]["better"] == "2/3"
    assert rows["profiling_overhead"]["change"] == 1.9
    assert rows["ops"]["better"] == "1/3"


def test_alternates_checkouts_and_reports_ratio(tmp_path, capsys):
    parent = _checkout(tmp_path, "parent", 2.0)
    change = _checkout(tmp_path, "change", 1.8)
    rc = ab.main([str(parent), str(change), "--workload", "w", "--seeds", "1-4", "--seconds", "1"])
    assert rc == 0
    calls = (tmp_path / "calls.log").read_text().split("\n")[:-1]
    assert calls == [
        "parent 1", "change 1", "change 2", "parent 2",
        "parent 3", "change 3", "change 4", "parent 4",
    ]
    out = capsys.readouterr().out
    row = next(line for line in out.splitlines() if line.startswith("profiling_overhead"))
    assert " 0.900 " in row and row.endswith("4/4")


def test_incorrect_run_exits_one(tmp_path, capsys):
    parent = _checkout(tmp_path, "parent", 2.0)
    change = _checkout(tmp_path, "change", 1.8)
    (change / "BROKEN").write_text("")
    rc = ab.main([str(parent), str(change), "--workload", "w", "--seeds", "1", "--seconds", "1"])
    assert rc == 1
    assert "incorrect run" in capsys.readouterr().err


def test_missing_checkout_is_a_usage_error(tmp_path, capsys):
    change = _checkout(tmp_path, "change", 1.8)
    with pytest.raises(SystemExit) as exc:
        ab.main([str(tmp_path / "nope"), str(change), "--workload", "w"])
    assert exc.value.code == 2
    assert "no perfbench/run.py" in capsys.readouterr().err
