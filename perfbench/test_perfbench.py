"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import cProfile
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import cases  # noqa: E402
import digest  # noqa: E402
import layers  # noqa: E402
import measure  # noqa: E402
from repro.core.profiler import ProfilerSuite  # noqa: E402
from repro.obs.export import validate_chrome_trace  # noqa: E402
from repro.workloads import SORWorkload  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

def _tiny_attach(djvm, rate):
    suite = ProfilerSuite(djvm, correlation=True, send_oals=True)
    suite.set_rate_all(4 if rate is None else rate)
    return suite


#: a configuration small enough to run dozens of times in a test.
TINY = cases.Case(
    name="tiny",
    n_nodes=4,
    make=lambda seed: SORWorkload(n=64 + 8 * (seed % 2), rounds=1, n_threads=4, seed=seed),
    attach=_tiny_attach,
)


def names(section: str) -> list[str]:
    return [entry["name"] for entry in SPEC[section]]


def test_names_are_well_formed_and_unique():
    every = names("workloads") + names("end_to_end") + names("per_layer")
    assert len(every) == len(set(every))
    for name in every:
        assert NAME.fullmatch(name), name
    for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", entry["unit"]), entry


def test_workloads_match_the_spec():
    assert sorted(names("workloads")) == sorted(cases.CASES)


def test_every_module_maps_to_one_layer():
    modules = layers.source_modules(SRC)
    assert "repro.dsm.hlrc" in modules
    for module in modules:
        assert layers.layer_of(module) in layers.LAYERS, module
    # No entry outlives the module or package it names.
    for key in layers.LAYER_OF:
        base = key.removesuffix(".*")
        assert base in modules or any(m.startswith(base + ".") for m in modules), key
    assert set(layers.LAYER_OF.values()) == set(layers.LAYERS)


def test_unmapped_module_is_an_error():
    with pytest.raises(layers.UnmappedModule):
        layers.layer_of("repro.core.not_a_module")


def test_corrupted_digest_counts_as_failed():
    res = measure.end_to_end(TINY, 0, 0.01, {})
    assert res["failed"] == 0 and res["complete"]
    assert set(res["metrics"]) == set(names("end_to_end"))
    corrupt = {
        key: {str(i): "0" * 64 for i in cases.inputs(0)}
        for key in ("tiny", measure.unprofiled("tiny"))
    }
    res = measure.end_to_end(TINY, 0, 0.01, corrupt)
    assert res["attempted"] >= cases.INPUTS_PER_RUN
    assert res["failed"] == res["attempted"]


def test_unprofiled_iteration_runs_the_same_programs_without_profiling():
    out = cases.execute(TINY, 1, cases.Spans(), profiled=False)
    assert out.suite is None and out.tcm is None
    assert out.result.total_cpu.profiling_ns == 0
    assert digest.problems(out) == []
    assert out.result.ops_executed == cases.execute(TINY, 1, cases.Spans()).result.ops_executed


def test_invariants_catch_a_wrong_output():
    out = cases.execute(TINY, 1, cases.Spans())
    checker = digest.Checker("tiny", {})
    assert checker.check(1, out) is None
    out.tcm[0, 1] += 1.0
    assert "symmetric" in checker.check(1, out)
    out.tcm[0, 1] -= 1.0
    out.program_ops += 1
    assert "program ops" in checker.check(1, out)


def test_traced_and_untraced_digests_agree():
    plain = digest.of(cases.execute(TINY, 3, cases.Spans()))
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        traced = cases.execute(TINY, 3, cases.Spans())
    finally:
        profiler.disable()
    assert digest.of(traced) == plain


def test_traced_run_reports_every_layer_metric(tmp_path):
    expected = {"tiny": {str(cases.inputs(0)[0]): digest.of(cases.execute(TINY, 0, cases.Spans()))}}
    res = measure.traced(TINY, 0, 0.01, expected, tmp_path)
    assert res["failed"] == 0 and res["complete"], res["failures"]
    assert set(res["metrics"]) == set(names("per_layer"))
    assert res["metrics"]["runtime.migration.count"] == 0
    doc = json.loads((tmp_path / "trace-tiny-seed0.json").read_text())
    assert validate_chrome_trace(doc) == []


def test_recorded_digests_cover_default_and_held_out_seeds():
    table = json.loads(digest.EXPECTED_PATH.read_text())
    assert table["inputs_per_run"] == cases.INPUTS_PER_RUN
    keys = [key for name in cases.CASES for key in (name, measure.unprofiled(name))]
    for key in keys:
        recorded = table["digests"][key]
        for seed in (cases.DEFAULT_SEED, cases.HELD_OUT_SEED):
            for inp in cases.inputs(seed):
                assert re.fullmatch(r"[0-9a-f]{64}", recorded[str(inp)])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bh-adaptive", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
