"""Interleaved A/B of the repository benchmark across two checkouts.

Usage::

    python benchmarks/ab_perfbench.py PARENT CHANGE --workload ws-migrate \\
        --seeds 1-5 --seconds 20 [--trace 0]

For every seed, runs ``perfbench/run.py`` once in each checkout —
parent first on even pair indices, change first on odd ones, so slow
drift of the host loads both sides alike — and reads the JSON result on
the last line of its output.  Then prints, per metric of
``BENCHMARK.json`` (taken from CHANGE), the parent and change medians,
the change/parent ratio of those medians with a paired bootstrap 95%
confidence interval (seeds resampled with replacement), and on how many
pairs the change was better in the metric's declared direction.  Each
pair's raw values go to standard error as it completes.

Exit code 0 when every run reported ``"correct": true``, 1 when one did
not (or crashed), 2 on bad usage.  Nothing in either checkout is
modified; the benchmark writes only its own gitignored outputs.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
from pathlib import Path

#: bootstrap resamples behind each confidence interval.
BOOTSTRAP_RESAMPLES = 2000


def parse_seeds(text: str) -> list[int]:
    """``"1-3,1000"`` -> ``[1, 2, 3, 1000]``."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` invocation; returns its JSON result
    (``{"correct": False, "error": ...}`` when it produced none)."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"correct": False, "error": f"exit {proc.returncode}: {tail[0]}"}


def median_ratio_ci(
    parent: list[float], change: list[float], *, resamples: int = BOOTSTRAP_RESAMPLES, seed: int = 0
) -> tuple[float, float, float]:
    """``(ratio, lo, hi)``: median(change) / median(parent) and its paired
    bootstrap 95% interval.  A zero parent median gives ``nan``."""
    rng = random.Random(seed)
    n = len(parent)

    def ratio(idx) -> float:
        base = statistics.median(parent[i] for i in idx)
        return statistics.median(change[i] for i in idx) / base if base else float("nan")

    point = ratio(range(n))
    boots = sorted(ratio([rng.randrange(n) for _ in range(n)]) for _ in range(resamples))
    return point, boots[int(0.025 * (resamples - 1))], boots[int(0.975 * (resamples - 1))]


def summarize(pairs: list[tuple[dict, dict]], spec: dict, trace: int) -> list[dict]:
    """Per-metric rows over the (parent, change) result pairs, for the
    metrics both sides reported in every pair."""
    rows = []
    for metric in spec["per_layer" if trace else "end_to_end"]:
        name = metric["name"]
        try:
            parent = [p["metrics"][name]["value"] for p, _ in pairs]
            change = [c["metrics"][name]["value"] for _, c in pairs]
        except KeyError:
            continue
        lower = metric["better"] == "lower"
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        ratio, lo, hi = median_ratio_ci(parent, change)
        rows.append({
            "metric": name,
            "unit": metric["unit"],
            "parent": statistics.median(parent),
            "change": statistics.median(change),
            "ratio": ratio,
            "ci": (lo, hi),
            "better": f"{wins}/{len(pairs)}",
        })
    return rows


def render(rows: list[dict]) -> str:
    lines = [f"{'metric':<40} {'parent':>12} {'change':>12} {'ratio':>7}  {'95% CI':<17} better"]
    for r in rows:
        lo, hi = r["ci"]
        lines.append(
            f"{r['metric']:<40} {r['parent']:>12.6g} {r['change']:>12.6g} "
            f"{r['ratio']:>7.3f}  [{lo:.3f}, {hi:.3f}]  {r['better']}"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="checkout of the baseline")
    parser.add_argument("change", type=Path, help="checkout of the candidate")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5", help="e.g. 1-5 or 1,2,1000")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for checkout in (args.parent, args.change):
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"no perfbench/run.py under {checkout}")
    try:
        seeds = parse_seeds(args.seeds)
    except ValueError:
        parser.error(f"bad --seeds {args.seeds!r}")
    if not seeds or args.seconds <= 0:
        parser.error("need at least one seed and --seconds > 0")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())

    pairs = []
    ok = True
    for k, seed in enumerate(seeds):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        res = {}
        for side in order:
            res[side] = run_once(getattr(args, side), args.workload, seed, args.seconds, args.trace)
            if not res[side].get("correct"):
                ok = False
                print(f"seed {seed} {side}: incorrect run {res[side].get('error', '')}",
                      file=sys.stderr)
        pm, cm = res["parent"].get("metrics", {}), res["change"].get("metrics", {})
        values = " ".join(
            f"{n}={pm[n]['value']:.6g}/{cm[n]['value']:.6g}" for n in cm if n in pm
        )
        print(f"# seed {seed} ({order[0]} first), parent/change: {values}", file=sys.stderr)
        pairs.append((res["parent"], res["change"]))
    print(f"# {args.workload}: {len(pairs)} alternating pairs, --seconds {args.seconds}, "
          f"--trace {args.trace}")
    print(render(summarize(pairs, spec, args.trace)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
