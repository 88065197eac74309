"""HLRC interval bookkeeping.

Under (home-based) lazy release consistency, each thread's execution is
divided into *intervals* delimited by synchronization operations
(acquire, release, barrier).  The at-most-once property the paper's
profiler exploits — an object needs to be logged at most once per
interval per thread — follows directly from this structure.

An :class:`IntervalRecord` captures what the profiler ships in the jumbo
OAL message: the interval context (delimiting "bytecode PCs", which in
the simulator are op indices) plus the per-object access summary.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class AccessSummary:
    """Per-(thread, interval, object) access aggregate."""

    obj_id: int
    reads: int = 0
    writes: int = 0
    #: first/last access times within the interval (thread clock, ns).
    first_ns: int = 0
    last_ns: int = 0
    #: the engine's re-arm deadline: before this thread-clock time a
    #: repeat access has no every-access hook to call (0: call them).
    rearm_ns: int = 0

    @property
    def total(self) -> int:
        """Total accesses (reads + writes)."""
        return self.reads + self.writes


@dataclass(slots=True)
class IntervalRecord:
    """One closed HLRC interval of one thread."""

    thread_id: int
    interval_id: int
    #: op indices delimiting the interval (the paper uses bytecode PCs).
    start_pc: int = 0
    end_pc: int = 0
    #: thread-clock times at open/close.
    start_ns: int = 0
    end_ns: int = 0
    #: per-object access summaries, in first-access order.
    accesses: dict[int, AccessSummary] = field(default_factory=dict)
    #: object ids written this interval (for write notices).
    written: set[int] = field(default_factory=set)
    #: what closed the interval ("release", "barrier", "acquire", "end").
    close_reason: str = ""

    def touch(
        self,
        obj_id: int,
        *,
        is_write: bool,
        count: int,
        now_ns: int,
    ) -> AccessSummary:
        """Record ``count`` accesses to ``obj_id`` at thread time ``now_ns``."""
        summary = self.accesses.get(obj_id)
        if summary is None:
            summary = AccessSummary(obj_id=obj_id, first_ns=now_ns)
            self.accesses[obj_id] = summary
        if is_write:
            summary.writes += count
            self.written.add(obj_id)
        else:
            summary.reads += count
        summary.last_ns = now_ns
        return summary

    @property
    def duration_ns(self) -> int:
        """Interval length in nanoseconds (0 if not yet closed)."""
        return max(0, self.end_ns - self.start_ns)
