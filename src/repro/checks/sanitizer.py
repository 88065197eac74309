"""Runtime HLRC protocol sanitizer (``DJVM(sanitize=True)``).

JESSICA2-style DSM runtimes were debugged with protocol assertion
layers exactly like this one: an opt-in checker that rides the protocol
engine's control flow and validates the state-machine invariants the
paper's profiling scheme depends on (Lam, Luo & Wang, IPDPS 2010,
Section II; HLRC lineage: Zhou, Iftode & Li, OSDI'96).  When an
invariant breaks, a structured :class:`SanitizerViolation` is raised
carrying the violation code and the tail of the observed event trace,
so the offending interleaving is in the report — not reconstructed from
logs after the fact.

Invariant catalog
-----------------

========  ==============================================================
SAN001    interval discipline: exactly one open interval per thread,
          ids strictly increasing, close matches open, end >= start
SAN002    at-most-once OAL logging: within one (thread, interval) an
          object's false-invalid trap fires — and is logged — at most
          once (paper Section II.A)
SAN003    copy-state legality: home-node copies are HOME and never
          INVALID; cached copies only VALID<->INVALID; an INVALID copy
          must actually be stale (fetched_version < home_version);
          dirty bytes never exceed the object's size
SAN004    barrier accounting: no double arrivals, arrivals never exceed
          parties, a release wakes exactly the arrived party set
SAN005    event-kernel time: the kernel's clock never goes backwards;
          a barrier releases at/after its last arrival
SAN006    sticky-set membership: live sticky candidates at migration
          time are a subset of the open interval's access log, and
          every prefetched copy is installed VALID at the target
SAN007    write-notice/version discipline: per-object home versions in
          the notice log are strictly increasing; a flushed interval's
          written set is a subset of its access summaries
========  ==============================================================

The sanitizer deliberately does **not** register as a
:class:`~repro.dsm.hlrc.ProtocolHooks` profiler hook: hook fan-out has
a cost model attached (and one more keyword hook would put every
access on the fan-out path), while sanitizer callbacks are free — they
observe, never advance simulated clocks — so a sanitize-on run produces
byte-identical simulated results, which ``tests/checks`` asserts.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.dsm.states import CopyRecord, RealState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dsm.hlrc import HomeBasedLRC
    from repro.dsm.intervals import IntervalRecord
    from repro.heap.objects import HeapObject
    from repro.runtime.migration import MigrationResult
    from repro.runtime.thread import SimThread

#: invariant code -> one-line summary (the catalog the CLI prints).
INVARIANTS: dict[str, str] = {
    "SAN001": "interval open/close discipline per thread",
    "SAN002": "at-most-once OAL logging per (thread, interval, object)",
    "SAN003": "legal copy-state transitions (home/valid/invalid)",
    "SAN004": "barrier party accounting (arrivals == parties == released)",
    "SAN005": "event-kernel time monotonicity",
    "SAN006": "sticky-set membership consistent with access logs",
    "SAN007": "write-notice version discipline",
}


class SanitizerViolation(AssertionError):
    """A protocol invariant broke.  Structured: ``code`` names the
    invariant (see :data:`INVARIANTS`), ``detail`` says what happened,
    and ``trace`` carries the sanitizer's recent observed-event ring
    buffer (newest last) for the offending interleaving."""

    def __init__(self, code: str, detail: str, trace: list[tuple[int, str]] | None = None):
        self.code = code
        self.detail = detail
        self.trace = list(trace or [])
        tail = "\n".join(f"    [{t_ns} ns] {what}" for t_ns, what in self.trace[-12:])
        msg = f"{code} ({INVARIANTS.get(code, 'unknown invariant')}): {detail}"
        if tail:
            msg += f"\n  recent protocol events (newest last):\n{tail}"
        super().__init__(msg)


class ProtocolSanitizer:
    """Observes the protocol engine and raises on invariant violations.

    One instance per DJVM; attach via ``DJVM(sanitize=True)`` (the DJVM
    wires it into the HLRC engine, the interpreter's event loop, the
    migration engine, and — through :class:`~repro.core.profiler.
    ProfilerSuite` — the access profiler and footprinter).
    """

    def __init__(self, *, trace_limit: int = 64) -> None:
        #: ring buffer of observed protocol events: (time_ns, description).
        self.events: deque[tuple[int, str]] = deque(maxlen=trace_limit)
        #: total invariant checks executed (reported by the CLI).
        self.checks_run = 0
        #: violations raised (sticky — a raise propagates, but keep count).
        self.violations = 0
        # SAN001: thread_id -> open interval id; and last closed id.
        self._open: dict[int, int] = {}
        self._last_interval: dict[int, int] = {}
        # SAN002: (thread_id) -> object ids OAL-logged in the open interval.
        self._logged: dict[int, set[int]] = {}
        # SAN004: barrier_id -> {thread_id: arrival_ns}.
        self._arrivals: dict[int, dict[int, int]] = {}
        # SAN005: kernel clock watermark.
        self._kernel_ns = 0
        # SAN007: obj_id -> last notice version seen.
        self._notice_version: dict[int, int] = {}
        #: wired by the DJVM / ProfilerSuite.
        self._hlrc: HomeBasedLRC | None = None
        self._footprinter = None

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def attach_hlrc(self, hlrc: HomeBasedLRC) -> None:
        """Give the sanitizer heap/GOS visibility for sweep checks."""
        self._hlrc = hlrc

    def attach_footprinter(self, footprinter) -> None:
        """Attach the sticky-set footprinter (enables SAN006's
        membership check at migration time)."""
        self._footprinter = footprinter

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def note(self, time_ns: int, what: str) -> None:
        """Record one observed protocol event into the ring buffer."""
        self.events.append((int(time_ns), what))

    def _fail(self, code: str, detail: str) -> None:
        self.violations += 1
        raise SanitizerViolation(code, detail, list(self.events))

    # ------------------------------------------------------------------
    # SAN001 + SAN007: interval lifecycle
    # ------------------------------------------------------------------

    def on_interval_open(self, thread: SimThread) -> None:
        """HLRC opened an interval for ``thread``."""
        self.checks_run += 1
        tid = thread.thread_id
        iid = thread.current_interval.interval_id
        self.note(thread.clock.now_ns, f"interval_open t{tid} i{iid}")
        if tid in self._open:
            self._fail(
                "SAN001",
                f"thread {tid} opened interval {iid} while interval "
                f"{self._open[tid]} is still open (intervals cannot nest)",
            )
        last = self._last_interval.get(tid, 0)
        if iid <= last:
            self._fail(
                "SAN001",
                f"thread {tid} opened interval {iid}, but interval ids must "
                f"strictly increase (last closed: {last})",
            )
        self._open[tid] = iid
        self._logged[tid] = set()

    def on_interval_close(self, thread: SimThread, interval: IntervalRecord) -> None:
        """HLRC closed ``interval`` (diffs flushed, notices published)."""
        self.checks_run += 1
        tid = thread.thread_id
        self.note(
            thread.clock.now_ns,
            f"interval_close t{tid} i{interval.interval_id} ({interval.close_reason})",
        )
        open_id = self._open.pop(tid, None)
        if open_id is None:
            self._fail(
                "SAN001",
                f"thread {tid} closed interval {interval.interval_id} with no "
                "interval open",
            )
        if open_id != interval.interval_id:
            self._fail(
                "SAN001",
                f"thread {tid} closed interval {interval.interval_id} but "
                f"interval {open_id} was the one open",
            )
        if interval.end_ns < interval.start_ns:
            self._fail(
                "SAN001",
                f"thread {tid} interval {interval.interval_id} closed at "
                f"{interval.end_ns} ns, before its open at {interval.start_ns} ns",
            )
        # SAN007: every written object must appear in the access summary
        # (the write that dirtied it is an access).
        missing = [o for o in interval.written if o not in interval.accesses]
        if missing:
            self._fail(
                "SAN007",
                f"thread {tid} interval {interval.interval_id} written set "
                f"contains objects absent from its access log: {sorted(missing)}",
            )
        self._last_interval[tid] = interval.interval_id
        self._logged.pop(tid, None)

    def on_run_end(self, threads) -> None:
        """All threads finished: no interval may remain open."""
        self.checks_run += 1
        if self._open:
            self._fail(
                "SAN001",
                f"run ended with intervals still open: {dict(sorted(self._open.items()))}",
            )

    # ------------------------------------------------------------------
    # SAN002: at-most-once OAL logging
    # ------------------------------------------------------------------

    def on_oal_log(self, thread: SimThread, interval_id: int, obj_id: int) -> None:
        """The access profiler logged ``obj_id`` into the thread's OAL.

        The false-invalid tag is cancelled by the first trapping access,
        so a second log of the same object in the same interval means
        the overlay state machine (valid -> false-invalid -> logged)
        was traversed twice — the at-most-once property is broken.
        """
        self.checks_run += 1
        tid = thread.thread_id
        self.note(thread.clock.now_ns, f"oal_log t{tid} i{interval_id} obj{obj_id}")
        open_id = self._open.get(tid)
        if open_id is not None and interval_id != open_id:
            self._fail(
                "SAN002",
                f"thread {tid} logged obj {obj_id} into interval {interval_id} "
                f"but interval {open_id} is the one open",
            )
        logged = self._logged.setdefault(tid, set())
        if obj_id in logged:
            self._fail(
                "SAN002",
                f"thread {tid} OAL-logged obj {obj_id} twice in interval "
                f"{interval_id}; false-invalid must trap at most once per "
                "(interval, object)",
            )
        logged.add(obj_id)

    # ------------------------------------------------------------------
    # SAN003: copy-state legality
    # ------------------------------------------------------------------

    def on_access(
        self,
        thread: SimThread,
        obj_id: int,
        record: CopyRecord,
        obj: HeapObject | None,
        faulted: bool,
    ) -> None:
        """One access resolved on ``thread``'s node (post state-check)."""
        self.checks_run += 1
        if record.real_state is RealState.INVALID:
            self._fail(
                "SAN003",
                f"access to obj {obj_id} on node {thread.node_id} resolved with "
                "the copy still INVALID (fault machinery skipped)",
            )
        if obj is not None:
            self._check_copy(thread.node_id, obj, record)
        if faulted:
            self.note(thread.clock.now_ns, f"fault t{thread.thread_id} obj{obj_id}")

    def _check_copy(self, node_id: int, obj: HeapObject, record: CopyRecord) -> None:
        if obj.home_node == node_id and record.real_state is not RealState.HOME:
            self._fail(
                "SAN003",
                f"node {node_id} holds obj {obj.obj_id} in state "
                f"{record.real_state.name}, but the node is the object's home "
                "(home copies are always HOME)",
            )
        if obj.home_node != node_id and record.real_state is RealState.HOME:
            self._fail(
                "SAN003",
                f"node {node_id} holds obj {obj.obj_id} in state HOME, but the "
                f"object is homed at node {obj.home_node}",
            )
        if record.fetched_version > obj.home_version:
            self._fail(
                "SAN003",
                f"node {node_id} copy of obj {obj.obj_id} claims fetched version "
                f"{record.fetched_version}, newer than the home's "
                f"{obj.home_version} (versions only move forward at the home)",
            )
        if record.dirty_bytes > obj.size_bytes:
            self._fail(
                "SAN003",
                f"node {node_id} copy of obj {obj.obj_id} accumulated "
                f"{record.dirty_bytes} dirty bytes, more than the object's "
                f"{obj.size_bytes}-byte payload",
            )

    def sweep_heaps(self) -> int:
        """Full copy-state sweep across every node's heap (run at barrier
        releases and run end); returns the number of copies checked."""
        hlrc = self._hlrc
        if hlrc is None:
            return 0
        checked = 0
        for node_id in sorted(hlrc.heaps):
            copies = hlrc.heaps[node_id].copies
            for obj_id in sorted(copies):
                record = copies[obj_id]
                obj = hlrc.gos.get(obj_id)
                self._check_copy(node_id, obj, record)
                if (
                    record.real_state is RealState.INVALID
                    and record.fetched_version >= obj.home_version
                ):
                    self._fail(
                        "SAN003",
                        f"node {node_id} copy of obj {obj_id} is INVALID but "
                        f"up to date (fetched {record.fetched_version} >= home "
                        f"{obj.home_version}): spurious invalidation",
                    )
                checked += 1
        self.checks_run += checked
        return checked

    # ------------------------------------------------------------------
    # SAN004 + SAN005: barrier accounting
    # ------------------------------------------------------------------

    def on_barrier_arrive(
        self, barrier_id: int, thread_id: int, parties: int, now_ns: int
    ) -> None:
        """A thread registered at a barrier."""
        self.checks_run += 1
        self.note(now_ns, f"barrier_arrive b{barrier_id} t{thread_id}")
        arrivals = self._arrivals.setdefault(barrier_id, {})
        if thread_id in arrivals:
            self._fail(
                "SAN004",
                f"thread {thread_id} arrived twice at barrier {barrier_id} in "
                "one episode",
            )
        arrivals[thread_id] = now_ns
        if len(arrivals) > parties:
            self._fail(
                "SAN004",
                f"barrier {barrier_id} collected {len(arrivals)} arrivals for "
                f"{parties} parties",
            )

    def on_barrier_release(
        self, barrier_id: int, parties: int, waiters: list[int], release_ns: int
    ) -> None:
        """A barrier episode released ``waiters`` at ``release_ns``."""
        self.checks_run += 1
        self.note(release_ns, f"barrier_release b{barrier_id} -> {len(waiters)} threads")
        arrivals = self._arrivals.pop(barrier_id, {})
        if len(waiters) != parties:
            self._fail(
                "SAN004",
                f"barrier {barrier_id} released {len(waiters)} threads for "
                f"{parties} parties",
            )
        if len(set(waiters)) != len(waiters):
            self._fail(
                "SAN004",
                f"barrier {barrier_id} released a thread twice: {waiters}",
            )
        if set(waiters) != set(arrivals):
            self._fail(
                "SAN004",
                f"barrier {barrier_id} released {sorted(set(waiters))} but "
                f"{sorted(arrivals)} arrived (over- or under-release)",
            )
        if arrivals and release_ns < max(arrivals.values()):
            self._fail(
                "SAN005",
                f"barrier {barrier_id} released at {release_ns} ns, before its "
                f"last arrival at {max(arrivals.values())} ns",
            )
        self.sweep_heaps()

    # ------------------------------------------------------------------
    # SAN005: event-kernel monotonicity
    # ------------------------------------------------------------------

    def on_event_pop(self, kernel_now_ns: int, event) -> None:
        """The event kernel popped ``event``; its clock must not rewind."""
        self.checks_run += 1
        if event is not None:
            self.note(event.time_ns, f"event {event.kind.name} actor={event.actor}")
        if kernel_now_ns < self._kernel_ns:
            self._fail(
                "SAN005",
                f"event kernel clock went backwards: {self._kernel_ns} ns -> "
                f"{kernel_now_ns} ns",
            )
        self._kernel_ns = kernel_now_ns

    # ------------------------------------------------------------------
    # SAN006: sticky-set membership at migration
    # ------------------------------------------------------------------

    def on_migration(self, thread: SimThread, result: MigrationResult) -> None:
        """A migration completed; validate sticky/prefetch consistency."""
        self.checks_run += 1
        self.note(
            thread.clock.now_ns,
            f"migrate t{thread.thread_id} n{result.from_node}->n{result.to_node} "
            f"prefetch={result.prefetched_objects}",
        )
        fp = self._footprinter
        if fp is not None:
            accessed = set(thread.current_interval.accesses)
            for closed in fp.interval_tracked.get(thread.thread_id, []):
                accessed |= closed
            candidates = fp.live_sticky_candidates(thread)
            stray = [o for o in candidates if o not in accessed]
            if stray:
                self._fail(
                    "SAN006",
                    f"thread {thread.thread_id} sticky-set candidates "
                    f"{sorted(stray)} never appear in its pre-migration access "
                    "logs (sticky membership must derive from observed accesses)",
                )
        hlrc = self._hlrc
        if hlrc is not None:
            heap = hlrc.heaps[result.to_node]
            for obj_id in result.prefetched_ids:
                record = heap.get(obj_id)
                if record is None or record.real_state is not RealState.VALID:
                    state = "absent" if record is None else record.real_state.name
                    self._fail(
                        "SAN006",
                        f"prefetched obj {obj_id} is {state} at target node "
                        f"{result.to_node}; the migration bundle must install "
                        "VALID copies",
                    )

    # ------------------------------------------------------------------
    # SAN007: write-notice versions
    # ------------------------------------------------------------------

    def on_notice(self, obj_id: int, version: int) -> None:
        """The home published a write notice for ``obj_id``."""
        self.checks_run += 1
        last = self._notice_version.get(obj_id, 0)
        if version <= last:
            self._fail(
                "SAN007",
                f"write notice for obj {obj_id} carries version {version}, not "
                f"newer than the previously published {last} (per-object "
                "versions must strictly increase)",
            )
        self._notice_version[obj_id] = version
