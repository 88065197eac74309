"""The benchmark's measurement loops: the end-to-end run, the traced
run, and digest recording.  ``run.py`` is the command line around them.
"""

from __future__ import annotations

import cProfile
import gc
import json
import os
import pstats
import resource
import statistics
import time
import traceback
from pathlib import Path

import cases
import digest
import layers
from repro.core.accuracy import absolute_error
from repro.obs.export import validate_chrome_trace

SRC = Path(__file__).resolve().parent.parent / "src"


def run_iteration(case, seed: int, spans, checker, failures: list, profiler=None,
                  profiled=True):
    """One iteration with the garbage collector paused (and ``profiler``
    enabled, if given).  Returns the outcome, or None when it raised or
    its output is wrong; either is appended to ``failures``."""
    gc.collect()
    gc.disable()
    try:
        if profiler is not None:
            profiler.enable()
        try:
            out = cases.execute(case, seed, spans, profiled=profiled)
        finally:
            if profiler is not None:
                profiler.disable()
    except Exception:
        failures.append(f"input {seed} raised:\n{traceback.format_exc()}")
        return None
    finally:
        gc.enable()
    problem = checker.check(seed, out)
    if problem is not None:
        failures.append(f"input {seed}{'' if profiled else ' unprofiled'}: {problem}")
        return None
    return out


def unprofiled(workload: str) -> str:
    """The digest table's key for ``workload`` run without profiling."""
    return f"{workload}.unprofiled"


# ---------------------------------------------------------------------------
# end-to-end run
# ---------------------------------------------------------------------------


def end_to_end(case, seed: int, seconds: float, expected: dict) -> dict:
    """The end-to-end metrics of one run.

    Each input runs twice in a row, profiled (the workload as
    configured) and unprofiled, in alternating order.
    ``profiling_overhead`` is the profiled iterations' host seconds over
    the unprofiled ones': both halves of a pair see the same host
    speed, which on a shared machine drifts by tens of percent within
    minutes.  ``setup_s`` is the median over profiled iterations,
    simulated results medians over the seed's inputs."""
    inputs = cases.inputs(seed)
    checker = digest.Checker(case.name, expected)
    base_checker = digest.Checker(unprofiled(case.name), expected)
    failures: list[str] = []
    walls, base_walls, setups = [], [], []
    sims: dict[int, tuple[float, float]] = {}
    # An untimed warm-up first, so that lazy imports and caches the
    # program fills on first use are not charged to the first input.
    run_iteration(case, inputs[0], cases.Spans(), checker, failures)
    run_iteration(case, inputs[0], cases.Spans(), base_checker, failures, profiled=False)
    attempted, timed = 2, 0
    deadline = time.perf_counter() + seconds
    while timed < len(inputs) or time.perf_counter() < deadline:
        inp = inputs[timed % len(inputs)]
        order = (True, False) if timed % 2 == 0 else (False, True)
        timed += 1
        attempted += 2
        pair = {
            profiled: run_iteration(
                case, inp, cases.Spans(), checker if profiled else base_checker, failures,
                profiled=profiled,
            )
            for profiled in order
        }
        out, base = pair[True], pair[False]
        if out is None or base is None:
            continue
        walls.append(out.wall_s)
        base_walls.append(base.wall_s)
        setups.append(out.setup_s)
        sims[inp] = (out.result.execution_time_ms, out.result.total_cpu.profiling_ns / 1e6)
        del out, base, pair
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # TCM accuracy on the fixed inputs, outside the timed loop: each run
    # of the workload is compared with a full-sampling run of its input.
    errors = []
    for inp in cases.ACCURACY_INPUTS:
        attempted += 1
        out = run_iteration(case, inp, cases.Spans(), checker, failures)
        if out is None:
            continue
        ref = cases.execute(case, inp, cases.Spans(), rate="full")
        errors.append(absolute_error(out.tcm, ref.tcm))
        del out, ref

    complete = len(sims) == len(inputs) and len(errors) == len(cases.ACCURACY_INPUTS)
    metrics = {}
    if complete:
        metrics = {
            "profiling_overhead": sum(walls) / sum(base_walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
            "sim_exec_ms": statistics.median(v[0] for v in sims.values()),
            "sim_profiling_ms": statistics.median(v[1] for v in sims.values()),
            "tcm_error_abs": statistics.fmean(errors),
        }
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "unrecorded": sorted(checker.unrecorded | base_checker.unrecorded),
        "complete": complete,
        "metrics": metrics,
        "samples": {"wall_s": walls, "unprofiled_wall_s": base_walls, "setup_s": setups},
    }


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def layer_metrics(out, attribution: dict) -> dict:
    """The per-layer metrics of one traced iteration."""
    res = out.result
    cpu = res.total_cpu
    suite = out.suite
    samples, skips = suite.policy.backend.totals()
    decisions = samples + skips
    migrations = out.djvm.migration.results
    vector_executes = sum(
        n
        for (filename, _line, name), n in attribution["functions"].items()
        if name == "execute" and filename.endswith(os.path.join("runtime", "vector.py"))
    )
    m: dict[str, float] = {}
    for layer in layers.LAYERS:
        m[f"{layer}.self_s"] = attribution["self_s"][layer]
        m[f"{layer}.calls"] = attribution["calls"][layer]
    m.update(
        {
            "workloads.build_s": out.phases["build"],
            "workloads.programs_s": out.phases["programs"],
            "runtime.program.compile_s": out.phases["compile"],
            "runtime.interpreter.ops": res.ops_executed,
            "runtime.vector.executes": vector_executes,
            "dsm.hlrc.faults": res.counters.get("faults", 0),
            "dsm.hlrc.invalidations": res.counters.get("invalidations", 0),
            "dsm.hlrc.diffs": res.counters.get("diffs", 0),
            "dsm.hlrc.notices": res.counters.get("notices", 0),
            "dsm.hlrc.intervals": res.counters.get("intervals", 0),
            "dsm.hlrc.sim_protocol_ms": cpu.protocol_ns / 1e6,
            "dsm.hlrc.sim_access_ms": cpu.access_ns / 1e6,
            "sim.network.messages": res.traffic.messages,
            "sim.network.gos_kb": res.traffic.gos_bytes / 1024,
            "sim.network.oal_kb": res.traffic.oal_bytes / 1024,
            "sim.network.sim_wait_ms": cpu.network_wait_ns / 1e6,
            "core.sampling.decisions": decisions,
            "core.sampling.logged_frac": samples / decisions if decisions else 0.0,
            "core.sampling.rate_changes": suite.policy.rate_changes - out.initial_rate_changes,
            "core.sampling.sim_resampling_ms": cpu.resampling_ns / 1e6,
            "core.access_profiler.logged": suite.access_profiler.total_logged,
            "core.access_profiler.sim_logging_ms": cpu.oal_logging_ns / 1e6,
            "core.access_profiler.sim_packing_ms": cpu.oal_packing_ns / 1e6,
            "core.tcm.build_s": out.phases["tcm"],
            "core.tcm.sim_compute_ms": suite.collector.tcm_compute_ns / 1e6,
            "core.stack_sampler.sim_sampling_ms": cpu.stack_sampling_ns / 1e6,
            "core.footprint.sim_footprinting_ms": cpu.footprinting_ns / 1e6,
            "core.resolution.sim_resolution_ms": cpu.resolution_ns / 1e6,
            "runtime.migration.count": len(migrations),
            "runtime.migration.prefetched_objects": sum(r.prefetched_objects for r in migrations),
            "runtime.migration.sim_ms": cpu.migration_ns / 1e6,
            "obs.report_s": out.phases.get("report", 0.0),
            "unattributed.self_frac": (
                attribution["self_s"][layers.UNATTRIBUTED] / attribution["total_s"]
            ),
        }
    )
    return m


def traced(case, seed: int, seconds: float, expected: dict, out_dir: Path) -> dict:
    """The per-layer metrics of the seed's first input: untraced and
    traced iterations alternate for ``seconds``; times are medians over
    the traced iterations, counts must repeat exactly.  The untraced
    iterations give the host wall time and interpreter throughput, with
    no bound: on a shared machine they drift with the host's speed."""
    inp = cases.inputs(seed)[0]
    checker = digest.Checker(case.name, expected)
    failures: list[str] = []
    problems: list[str] = []
    spans = cases.Spans()
    plain_walls, plain_rates, traced_walls, per_iteration = [], [], [], []
    # An untraced warm-up first, so that caches the program fills on
    # first use are full before a traced iteration counts calls.
    run_iteration(case, inp, spans, checker, failures)
    attempted = 1
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not (per_iteration or failures):
        attempted += 2
        out = run_iteration(case, inp, spans, checker, failures)
        if out is not None:
            plain_walls.append(out.wall_s)
            plain_rates.append(out.result.ops_executed / out.phases["run"])
        profiler = cProfile.Profile()
        idx = spans.open("cprofile")
        try:
            out = run_iteration(case, inp, spans, checker, failures, profiler)
        finally:
            spans.close(idx)
        if out is None:
            continue
        attribution = layers.attribute(pstats.Stats(profiler), SRC)
        traced_walls.append(out.wall_s)
        per_iteration.append(layer_metrics(out, attribution))
        del out, profiler

    metrics: dict[str, float] = {}
    if per_iteration and plain_walls:
        for name, value in per_iteration[0].items():
            if isinstance(value, int):
                metrics[name] = value
                if any(m[name] != value for m in per_iteration):
                    problems.append(f"{name} differs between traced iterations")
            else:
                metrics[name] = statistics.median(m[name] for m in per_iteration)
        metrics["untraced.wall_s"] = statistics.median(plain_walls)
        metrics["runtime.interpreter.ops_per_s"] = statistics.median(plain_rates)
        metrics["trace.overhead_frac"] = (
            statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0
        )

    doc = layers.chrome_trace(spans.records, meta={"workload": case.name, "seed": seed})
    invalid = validate_chrome_trace(doc)
    if invalid:
        problems.append(f"span trace invalid: {invalid[:3]}")
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"trace-{case.name}-seed{seed}.json").write_text(json.dumps(doc))
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures + problems,
        "unrecorded": sorted(checker.unrecorded),
        "complete": bool(metrics) and not problems,
        "metrics": metrics,
        "samples": {"traced_wall_s": traced_walls, "untraced_wall_s": plain_walls},
    }


# ---------------------------------------------------------------------------
# recording
# ---------------------------------------------------------------------------


def record(case, seeds: list[int]) -> None:
    """Run every input of ``seeds`` once profiled and once unprofiled,
    and store both digests."""
    path = digest.EXPECTED_PATH
    table = json.loads(path.read_text()) if path.is_file() else {"digests": {}}
    for key, profiled in ((case.name, True), (unprofiled(case.name), False)):
        entries = table["digests"].setdefault(key, {})
        for seed in seeds:
            for inp in cases.inputs(seed):
                out = cases.execute(case, inp, cases.Spans(), profiled=profiled)
                found = digest.problems(out)
                if found:
                    raise RuntimeError(f"{key} input {inp}: {'; '.join(found)}")
                entries[str(inp)] = digest.of(out)
            print(f"recorded {key} seed {seed}", flush=True)
        table["digests"][key] = dict(sorted(entries.items(), key=lambda kv: int(kv[0])))
    table.update(
        default_seed=cases.DEFAULT_SEED,
        held_out_seed=cases.HELD_OUT_SEED,
        inputs_per_run=cases.INPUTS_PER_RUN,
    )
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
