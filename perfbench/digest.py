"""Correctness of one iteration's simulated output.

The digest covers what the simulation produced, never host timings:
protocol counters, op count, per-thread finish clocks and CPU
accounting, network traffic by kind, the TCM bytes, migration results
and the object-centric report.  Any change to simulated behaviour
changes it, so an iteration whose digest differs from the one recorded
for its input counts as failed.  Invariants that hold for any input
(every program op executed once; a finite, non-negative, symmetric TCM
with an empty diagonal) are checked as well.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np

#: the recorded digests: {"digests": {workload: {input seed: hex}}, ...}.
EXPECTED_PATH = Path(__file__).resolve().parent / "expected_digests.json"


def of(outcome) -> str:
    """SHA-256 over the simulated results of one iteration."""
    res = outcome.result
    h = hashlib.sha256()

    def put(label: str, value) -> None:
        h.update(label.encode())
        h.update(repr(value).encode())

    put("counters", sorted(res.counters.items()))
    put("ops", res.ops_executed)
    put("finish_ms", sorted(res.thread_finish_ms.items()))
    put(
        "cpu",
        [(tid, dataclasses.astuple(cpu)) for tid, cpu in sorted(res.thread_cpu.items())],
    )
    put("traffic_bytes", [(k.value, v) for k, v in res.traffic.bytes_by_kind.items()])
    put("traffic_count", [(k.value, v) for k, v in res.traffic.count_by_kind.items()])
    put("messages", (res.traffic.messages, res.traffic.piggybacked_messages))
    if outcome.tcm is not None:
        put("tcm_shape", outcome.tcm.shape)
        h.update(np.ascontiguousarray(outcome.tcm, dtype=np.float64).tobytes())
    put("migrations", [dataclasses.astuple(m) for m in outcome.djvm.migration.results])
    if outcome.report is not None:
        h.update(json.dumps(outcome.report, sort_keys=True).encode())
    return h.hexdigest()


def load() -> dict[str, dict[str, str]]:
    """{workload: {input seed (str): digest}} from the recorded table."""
    if not EXPECTED_PATH.is_file():
        return {}
    return json.loads(EXPECTED_PATH.read_text())["digests"]


class Checker:
    """Decides whether an iteration's output is correct.

    The output must match the digest recorded for its input; an input
    with no recording must instead match its own first iteration.  Either
    way the output must also pass :func:`problems`, so that an input no
    one recorded still gets checked."""

    def __init__(self, workload: str, expected: dict[str, dict[str, str]]) -> None:
        self.expected = dict(expected.get(workload, {}))
        self.seen: dict[int, str] = {}
        self.unrecorded: set[int] = set()

    def check(self, seed: int, outcome) -> str | None:
        """None when ``outcome`` is right for input ``seed``, else why not."""
        found = problems(outcome)
        if found:
            return "; ".join(found)
        got = of(outcome)
        want = self.expected.get(str(seed))
        if want is None:
            self.unrecorded.add(seed)
            want = self.seen.setdefault(seed, got)
        if got != want:
            return f"digest {got[:12]} differs from {want[:12]}"
        return None


def problems(outcome) -> list[str]:
    """Properties every correct output has, whatever its input."""
    found = []
    if outcome.result.ops_executed != outcome.program_ops:
        found.append(
            f"executed {outcome.result.ops_executed} of {outcome.program_ops} program ops"
        )
    tcm = outcome.tcm
    if tcm is None:
        return found
    if not (np.isfinite(tcm).all() and (tcm >= 0).all() and np.array_equal(tcm, tcm.T)):
        found.append("TCM is not finite, non-negative and symmetric")
    elif np.diag(tcm).any():
        found.append("TCM correlates a thread with itself")
    return found
