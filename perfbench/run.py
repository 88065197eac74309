"""The repository benchmark: one workload per invocation, closed loop,
one client, no worker threads or processes.

Usage, from the repository root::

    python3 perfbench/run.py --workload bh-adaptive --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload ws-migrate --seed 0 --seconds 50 --trace 1
    python3 perfbench/run.py --record --workload bh-adaptive --seeds 0-20,1000

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``.
After an untimed warm-up, the run cycles through the seed's inputs
(``cases.inputs``) for ``--seconds`` and at least once per input,
building, compiling and running each from scratch twice in a row:
profiled as the workload is configured, and unprofiled.
``profiling_overhead`` is the ratio of their host seconds over the run,
``setup_s`` the median over profiled iterations, simulated results
medians over inputs.  After the timed loop, ``tcm_error_abs``
compares the TCM of each fixed accuracy input (``cases.ACCURACY_INPUTS``)
with a full-sampling run of the same input.

``--trace 1`` measures the per-layer metrics.  It alternates untraced
and traced iterations of the seed's first input, attributes host self
time and calls to layers with cProfile (``layers.py``), and writes the
spans to ``perfbench/out/`` as a Chrome trace.  Absolute host wall time
and interpreter throughput are reported here, from the untraced
iterations, with no bound.

Every iteration's simulated output is checked against the digest
recorded in ``expected_digests.json`` (``--record`` rewrites entries) and
against invariants any input satisfies (``digest.problems``).  A wrong
output or an exception counts as a failed iteration.  The last line
of standard output is the JSON result.  The exit code is 0 when every
iteration was correct, 1 when one was not, and 2 on bad usage or when
the ``repro`` sources are missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import sys
from pathlib import Path

# One thread, before numpy is imported: its BLAS (the TCM accrual) would
# otherwise start a worker pool that competes for the machine's few cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
OUT = HERE / "out"


def parse_seeds(text: str) -> list[int]:
    """``"0-3,1000"`` -> ``[0, 1, 2, 3, 1000]``."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def environment() -> dict:
    """Host facts that explain a slow or noisy run."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="record digests instead")
    parser.add_argument("--seeds", default="0", help="seeds to record, e.g. 0-20,1000")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    try:
        spec = json.loads(SPEC.read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read {SPEC.name}: {exc}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    # The checkout's own sources, ahead of any installed copy.
    sys.path.insert(0, str(SRC))
    import cases
    import digest
    import measure

    case = cases.CASES.get(args.workload)
    if case is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(cases.CASES)}",
              file=sys.stderr)
        return 2
    if args.record:
        measure.record(case, parse_seeds(args.seeds))
        return 0

    env = environment()
    if args.trace:
        res = measure.traced(case, args.seed, args.seconds, digest.load(), OUT)
    else:
        res = measure.end_to_end(case, args.seed, args.seconds, digest.load())
    env["loadavg_after"] = [round(x, 2) for x in os.getloadavg()]

    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    metrics = {name: v for name, v in res["metrics"].items() if math.isfinite(v)}
    failures = res["failures"]
    if res["complete"] and set(metrics) != set(units):
        failures.append(f"metrics differ from {SPEC.name}: "
                        f"{sorted(set(metrics) ^ set(units))}")
    correct = res["failed"] == 0 and res["complete"] and not failures
    for line in failures:
        print(line, file=sys.stderr)
    if res["unrecorded"]:
        print(f"note: inputs {res['unrecorded']} have no recorded digest; "
              "checked run-to-run identity only", file=sys.stderr)

    print(f"# {case.name} seed {args.seed} trace {args.trace}: {res['attempted']} attempted, "
          f"{res['failed']} failed (failed_frac {res['failed'] / res['attempted']:.4f}); "
          f"env {json.dumps(env)}")
    for name, values in res["samples"].items():
        if len(values) >= 2:
            q1, q2, q3 = statistics.quantiles(values, n=4)
            print(f"#   {name}: median {q2:.6g} (p25 {q1:.6g}, p75 {q3:.6g}, n={len(values)})")
    result = {
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
            if name in units
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
