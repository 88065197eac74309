"""Span tracer: begin/end intervals in *simulated* time.

The tracer rides the same nullable-observer slot pattern as the
protocol sanitizer and the race detector: hot paths hold a ``tracer``
attribute that is ``None`` by default and check it with one ``is not
None`` branch.  When attached, emitters hand it timestamps read off the
simulated clocks — the tracer never advances any clock, charges no CPU
cost and sends no messages, so a traced run is byte-identical to an
untraced one.

Span taxonomy (category → names):

* ``interval`` — one HLRC interval per thread (``begin``/``end`` pair
  bracketing everything the thread did between two sync points).
* ``dsm`` — ``fault`` (remote object fetch round trip) and ``diff``
  (per-object diff flush at interval close), children of the enclosing
  interval.
* ``sync`` — ``barrier_wait`` from barrier arrival to resume.
* ``runtime`` — ``migration`` (freeze → ship → thaw, incl. prefetch).
* ``profiler`` — ``oal_flush`` (pack + ship one OAL batch) and
  ``tcm_window`` (master daemon computing one correlation window).

Every span records the *node* it executed on and the *track* (thread
id, or a synthetic daemon track) it belongs to — exactly the two axes
the Chrome-trace exporter maps to process and thread rows.

Self-overhead: each emitter brackets its own work with
``time.perf_counter_ns`` and accumulates into :attr:`SpanTracer.self_ns`
— real host time spent observing, never mixed into simulated results.
"""

from __future__ import annotations

import time

__all__ = ["Span", "SpanTracer", "TCM_TRACK"]

_perf_ns = time.perf_counter_ns

#: synthetic track id for the master correlation daemon (threads use
#: their non-negative thread ids).
TCM_TRACK = -1


class Span:
    """One completed (or still-open) span on a (node, track) row."""

    __slots__ = ("name", "cat", "node", "track", "begin_ns", "end_ns", "seq", "args")

    def __init__(self, name, cat, node, track, begin_ns, end_ns, seq, args=None):
        self.name = name
        self.cat = cat
        self.node = node
        self.track = track
        self.begin_ns = begin_ns
        self.end_ns = end_ns
        self.seq = seq
        self.args = args

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.begin_ns

    def contains(self, other: "Span") -> bool:
        """Temporal containment on the same track."""
        return (
            self.track == other.track
            and self.begin_ns <= other.begin_ns
            and other.end_ns <= self.end_ns
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, cat={self.cat!r}, node={self.node}, "
            f"track={self.track}, [{self.begin_ns}, {self.end_ns}])"
        )


class SpanTracer:
    """Collects spans; attach to the runtime via the nullable slots
    (``hlrc.tracer``, ``migration.tracer``, profiler components)."""

    __slots__ = (
        "spans", "counts", "self_ns", "_seq", "_open_interval", "_barrier_ns",
        "_tcm_busy_ns",
    )

    def __init__(self) -> None:
        #: completed spans in emission order.
        self.spans: list[Span] = []
        #: span counts by name (deterministic; exported as a gauge).
        self.counts: dict[str, int] = {}
        #: real host ns the tracer spent recording (self-overhead).
        self.self_ns = 0
        self._seq = 0
        #: open interval span per thread id.
        self._open_interval: dict[int, Span] = {}
        #: barrier arrival time per thread id.
        self._barrier_ns: dict[int, int] = {}
        #: TCM daemon busy cursor — windows are serialized on its track.
        self._tcm_busy_ns = 0

    # ------------------------------------------------------------------
    # generic emitters
    # ------------------------------------------------------------------

    def add(self, name, cat, node, track, begin_ns, end_ns, args=None) -> Span:
        """Record one complete span."""
        t0 = _perf_ns()
        span = Span(name, cat, node, track, begin_ns, end_ns, self._seq, args)
        self._seq += 1
        self.spans.append(span)
        self.counts[name] = self.counts.get(name, 0) + 1
        self.self_ns += _perf_ns() - t0
        return span

    # ------------------------------------------------------------------
    # domain emitters (called from the runtime's nullable slots)
    # ------------------------------------------------------------------

    def interval_open(self, thread, now_ns: int) -> None:
        t0 = _perf_ns()
        span = Span("interval", "interval", thread.node_id, thread.thread_id,
                    now_ns, -1, self._seq, None)
        self._seq += 1
        self._open_interval[thread.thread_id] = span
        self.self_ns += _perf_ns() - t0

    def interval_close(self, thread, interval, now_ns: int) -> None:
        t0 = _perf_ns()
        span = self._open_interval.pop(thread.thread_id, None)
        if span is not None:
            span.end_ns = now_ns
            span.args = {"interval_id": interval.interval_id}
            self.spans.append(span)
            self.counts["interval"] = self.counts.get("interval", 0) + 1
        self.self_ns += _perf_ns() - t0

    # The emitters below build their Span in place, as the interval
    # emitters above do, rather than through add(): the fault and diff
    # spans fire once per protocol event, and each saves that call.

    def fault(self, thread, obj_id: int, begin_ns: int, end_ns: int, n_objects: int) -> None:
        t0 = _perf_ns()
        seq = self._seq
        self._seq = seq + 1
        self.spans.append(Span(
            "fault", "dsm", thread.node_id, thread.thread_id, begin_ns, end_ns, seq,
            {"obj_id": obj_id, "objects": n_objects},
        ))
        counts = self.counts
        counts["fault"] = counts.get("fault", 0) + 1
        self.self_ns += _perf_ns() - t0

    def diff(self, thread, obj_id: int, nbytes: int, begin_ns: int, end_ns: int) -> None:
        t0 = _perf_ns()
        seq = self._seq
        self._seq = seq + 1
        self.spans.append(Span(
            "diff", "dsm", thread.node_id, thread.thread_id, begin_ns, end_ns, seq,
            {"obj_id": obj_id, "bytes": nbytes},
        ))
        counts = self.counts
        counts["diff"] = counts.get("diff", 0) + 1
        self.self_ns += _perf_ns() - t0

    def barrier_arrive(self, thread, barrier_id: int, now_ns: int) -> None:
        t0 = _perf_ns()
        self._barrier_ns[thread.thread_id] = now_ns
        self.self_ns += _perf_ns() - t0

    def barrier_resume(self, thread, barrier_id: int, now_ns: int) -> None:
        t0 = _perf_ns()
        arrive_ns = self._barrier_ns.pop(thread.thread_id, None)
        if arrive_ns is not None:
            seq = self._seq
            self._seq = seq + 1
            self.spans.append(Span(
                "barrier_wait", "sync", thread.node_id, thread.thread_id,
                arrive_ns, now_ns, seq, {"barrier_id": barrier_id},
            ))
            counts = self.counts
            counts["barrier_wait"] = counts.get("barrier_wait", 0) + 1
        self.self_ns += _perf_ns() - t0

    def migration(self, thread, from_node: int, to_node: int,
                  begin_ns: int, end_ns: int, prefetched: int) -> None:
        # attributed to the destination node: that row shows the thread
        # arriving (the freeze happened on from_node, recorded in args).
        t0 = _perf_ns()
        seq = self._seq
        self._seq = seq + 1
        self.spans.append(Span(
            "migration", "runtime", to_node, thread.thread_id, begin_ns, end_ns, seq,
            {"from": from_node, "to": to_node, "prefetched": prefetched},
        ))
        counts = self.counts
        counts["migration"] = counts.get("migration", 0) + 1
        self.self_ns += _perf_ns() - t0

    def oal_flush(self, thread, entries: int, wire_bytes: int,
                  begin_ns: int, end_ns: int) -> None:
        t0 = _perf_ns()
        seq = self._seq
        self._seq = seq + 1
        self.spans.append(Span(
            "oal_flush", "profiler", thread.node_id, thread.thread_id,
            begin_ns, end_ns, seq, {"entries": entries, "bytes": wire_bytes},
        ))
        counts = self.counts
        counts["oal_flush"] = counts.get("oal_flush", 0) + 1
        self.self_ns += _perf_ns() - t0

    def tcm_window(self, master_node: int, begin_ns: int, duration_ns: int,
                   entries: int, window_index: int) -> None:
        # the daemon is sequential: a window delivered while the previous
        # one is still computing queues behind it on the daemon track.
        t0 = _perf_ns()
        begin = max(begin_ns, self._tcm_busy_ns)
        end = begin + duration_ns
        self._tcm_busy_ns = end
        seq = self._seq
        self._seq = seq + 1
        self.spans.append(Span(
            "tcm_window", "profiler", master_node, TCM_TRACK, begin, end, seq,
            {"entries": entries, "window": window_index},
        ))
        counts = self.counts
        counts["tcm_window"] = counts.get("tcm_window", 0) + 1
        self.self_ns += _perf_ns() - t0

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def open_spans(self) -> list[Span]:
        """Intervals opened but never closed (empty after a clean run)."""
        return list(self._open_interval.values())
