"""Home-based lazy release consistency (HLRC) protocol engine.

This is the global object space (GOS) of the simulated DJVM.  Key
behaviours mirrored from JESSICA2 / the HLRC literature (Zhou, Iftode &
Li, OSDI'96), at *object* granularity:

* Every shared object has a **home node** (its creator).  Other nodes
  hold **cache copies** faulted in on demand.
* Execution is divided into **intervals** delimited by synchronization
  (acquire / release / barrier).
* A write to a cache copy creates a **twin** (first write per interval)
  and accumulates dirty bytes; at release/barrier the **diff** is sent
  to the home, which bumps the object's version and publishes a **write
  notice**.
* At acquire/barrier, a node applies outstanding write notices and
  invalidates stale cache copies; the next access faults the fresh copy
  from home.
* **At-most-once property**: within an interval, coherence work per
  object happens at most once — the property the paper's profiler
  exploits to bound logging cost.

Profiler integration: the engine accepts *hooks* (see
:class:`ProtocolHooks`) invoked on interval open/close and on access
ops, through a dispatch plan resolved once per registered hook (see
:meth:`HomeBasedLRC.add_hook`).  Hooks do their own cost accounting into
the thread's CPU buckets, so overhead experiments can attribute every
nanosecond.

Scheduling approximation: threads run between sync points without
preemption (legal under LRC, where remote writes become visible only at
synchronization), and the interpreter always resumes the runnable thread
with the smallest simulated clock.
"""

from __future__ import annotations

from typing import Protocol

from repro.dsm.intervals import AccessSummary, IntervalRecord
from repro.dsm.states import CopyRecord, RealState
from repro.dsm.sync import SyncRegistry
from repro.heap.heap import GlobalObjectSpace, LocalHeap
from repro.heap.objects import HeapObject
from repro.obs.metrics import MetricsRegistry
from repro.sim.cluster import Cluster
from repro.sim.network import MessageKind


class ProtocolHooks(Protocol):
    """Interface a profiler implements to observe the protocol.

    A hook may also offer a positional access entry point, which the
    engine then calls instead of the keyword :meth:`on_access`:

    * ``fast_on_access(thread, obj, real_fault)`` — the *first-touch*
      contract: called only on the first touch of an object in an
      interval (the only access that can trap);
    * ``track_access(thread, obj)`` — called on every access.
    """

    def on_interval_open(self, thread) -> None:
        """A new HLRC interval just opened for ``thread``."""
        ...

    def on_access(
        self,
        thread,
        obj: HeapObject,
        *,
        is_write: bool,
        n_elems: int,
        elem_off: int,
        repeat: int,
        real_fault: bool,
    ) -> None:
        """One access op executed by ``thread`` on ``obj``."""
        ...

    def on_interval_close(self, thread, interval: IntervalRecord, sync_dst: int | None) -> None:
        """``thread`` closed ``interval`` (sync_dst = manager node, if any)."""
        ...


#: access-dispatch modes of a hook in the engine's plan (see add_hook).
_FIRST_TOUCH = 0  # fast_on_access(thread, obj, real_fault), first touches only
_EVERY_ACCESS = 1  # track_access(thread, obj), every access
_KEYWORD = 2  # on_access(thread, obj, **access), every access

#: coherence states hoisted to module level for the access fast path.
_HOME = RealState.HOME
_VALID = RealState.VALID
_INVALID = RealState.INVALID

#: nullable observer slots on the engine, in attach order.  Every slot
#: shares one contract: the observer only *reads* simulated state and
#: writes its own — it never advances a simulated clock, charges CPU or
#: sends a message — so results are byte-identical with it attached
#: (certified by the EFF1xx purity gate; see repro.checks.effects).
#: sanitizer: protocol invariant checker (repro.checks.sanitizer).
#: racedetector: happens-before race detector (repro.checks.racedetect).
#: tracer: span tracer (repro.obs.tracing).
#: objprof: object-centric inefficiency profiler (repro.obs.objprof).
OBSERVER_SLOTS = ("sanitizer", "racedetector", "tracer", "objprof")

#: request/reply/control message payload sizes (bytes).
FETCH_REQ_BYTES = 16
FETCH_REPLY_OVERHEAD = 16
DIFF_OVERHEAD = 24
LOCK_MSG_BYTES = 32
BARRIER_MSG_BYTES = 32
NOTICE_BYTES = 8


class HomeBasedLRC:
    """The GOS protocol engine shared by all threads of one DJVM."""

    def __init__(
        self,
        gos: GlobalObjectSpace,
        cluster: Cluster,
        *,
        keep_interval_history: bool = False,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.gos = gos
        self.cluster = cluster
        self.costs = cluster.costs
        self.network = cluster.network
        self.sync = SyncRegistry(master_node=cluster.master_id)
        self.heaps: dict[int, LocalHeap] = {}
        for node in cluster.nodes:
            heap = LocalHeap(node.node_id)
            node.heap = heap
            self.heaps[node.node_id] = heap
        # Hot-path aliases (the cost model is frozen and the heap/GOS
        # containers are mutated in place, never replaced).
        self._objects = gos._objects
        self._copies_by_node = {nid: heap.copies for nid, heap in sorted(self.heaps.items())}
        self._access_busy_ns = self.costs.state_check_ns + self.costs.access_ns
        #: global write-notice log: list of (obj_id, version).
        self.notices: list[tuple[int, int]] = []
        #: per-node index of the first unseen notice.
        self._notice_seen: dict[int, int] = {n.node_id: 0 for n in cluster.nodes}
        # Memoized (start, end, {obj_id: newest_version}) fold of the
        # notice range last applied — shared by every node draining the
        # same range at a barrier.
        self._latest_notices: tuple[int, int, dict[int, int]] | None = None
        #: protocol hooks in registration order (attach with add_hook).
        self.hooks: tuple[ProtocolHooks, ...] = ()
        # Access dispatch plan, one (mode, bound entry point) per hook in
        # registration order; resolved by add_hook.
        self._hook_plan: tuple[tuple[int, object], ...] = ()
        # The first-touch entry points when *every* hook follows that
        # contract (empty with no hooks), else None: the access path's
        # and the vector engine's fast dispatch.
        self._touch_hooks: tuple | None = ()
        # decide_batch lanes (``prime_batch``) of the hooks advertising
        # ``wants_batch_prime`` (stateless sampling backends), for the
        # vector engine.
        self._prime_hooks: tuple = ()
        # Nullable observer slots (see OBSERVER_SLOTS): all None until
        # attach_observer wires one; hot paths check with `is not None`.
        for slot in OBSERVER_SLOTS:
            setattr(self, slot, None)
        #: optional connectivity prefetcher consulted at fault time
        #: (anything with ``bundle_for(thread, obj) -> list[HeapObject]``).
        #: NOT an observer slot — prefetching changes protocol behaviour.
        self.prefetcher = None
        self.keep_interval_history = keep_interval_history
        #: thread_id -> list of closed IntervalRecords (only when history kept).
        self.interval_history: dict[int, list[IntervalRecord]] = {}
        # Protocol event counters live in the metrics registry; the
        # engine keeps bound Counter handles so an increment on the
        # protocol path is a single attribute add.  Without an external
        # registry (no telemetry configured) a private one is used —
        # results always carry the counters either way.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._c_faults = self.metrics.counter(
            "hlrc_faults_total", "remote object faults (fetch round trips)"
        )
        self._c_invalidations = self.metrics.counter(
            "hlrc_invalidations_total", "cache copies invalidated by write notices"
        )
        self._c_diffs = self.metrics.counter(
            "hlrc_diffs_total", "diffs flushed to home nodes"
        )
        self._c_notices = self.metrics.counter(
            "hlrc_notices_total", "write notices published"
        )
        self._c_intervals = self.metrics.counter(
            "hlrc_intervals_total", "HLRC intervals closed"
        )

    def add_hook(self, hook: ProtocolHooks) -> None:
        """Attach a protocol hook, resolving its access dispatch once.

        Accesses call each hook in registration order, through the
        cheapest entry point it offers: ``fast_on_access`` positionally
        on interval-first touches, else ``track_access`` positionally on
        every access, else the keyword :meth:`ProtocolHooks.on_access`
        on every access."""
        fast = getattr(hook, "fast_on_access", None)
        if fast is not None:
            step = (_FIRST_TOUCH, fast)
        else:
            track = getattr(hook, "track_access", None)
            step = (_EVERY_ACCESS, track) if track is not None else (_KEYWORD, hook.on_access)
        self.hooks = (*self.hooks, hook)
        self._hook_plan = (*self._hook_plan, step)
        if fast is None:
            self._touch_hooks = None
        elif self._touch_hooks is not None:
            self._touch_hooks = (*self._touch_hooks, fast)
        if getattr(hook, "wants_batch_prime", False):
            self._prime_hooks = (*self._prime_hooks, hook.prime_batch)

    @property
    def counters(self) -> dict[str, int]:
        """Legacy view of the protocol counters (the metrics registry is
        the source of truth; key order matches the historical dict so
        downstream checksums are stable)."""
        return {
            "faults": self._c_faults.value,
            "invalidations": self._c_invalidations.value,
            "diffs": self._c_diffs.value,
            "notices": self._c_notices.value,
            "intervals": self._c_intervals.value,
        }

    # ------------------------------------------------------------------
    # observer slots
    # ------------------------------------------------------------------

    def attach_observer(self, slot: str, observer) -> None:
        """Wire a pure observer into one of :data:`OBSERVER_SLOTS`.

        One attach point instead of per-slot assignment boilerplate; the
        slots stay plain attributes, so the hot paths' single
        ``is not None`` check (and the access path's first-touch fast
        dispatch) are untouched.  Attaching over an occupied slot is a
        wiring bug and is rejected."""
        if slot not in OBSERVER_SLOTS:
            raise ValueError(f"unknown observer slot {slot!r}; expected one of {OBSERVER_SLOTS}")
        if observer is None:
            raise ValueError(f"cannot attach None to observer slot {slot!r}; use detach_observer")
        if getattr(self, slot) is not None:
            raise ValueError(f"observer slot {slot!r} is already attached")
        setattr(self, slot, observer)

    def detach_observer(self, slot: str):
        """Clear one observer slot; returns the detached observer (or
        None when the slot was empty)."""
        if slot not in OBSERVER_SLOTS:
            raise ValueError(f"unknown observer slot {slot!r}; expected one of {OBSERVER_SLOTS}")
        observer = getattr(self, slot)
        setattr(self, slot, None)
        return observer

    # ------------------------------------------------------------------
    # copies & faults
    # ------------------------------------------------------------------

    def _ensure_copy(self, thread, obj: HeapObject) -> tuple[CopyRecord, bool]:
        """Make the object's copy on the thread's node accessible;
        returns (record, faulted)."""
        node_id = thread.node_id
        record: CopyRecord | None = self.heaps[node_id].copies.get(obj.obj_id)
        if record is not None and record.real_state is not RealState.INVALID:
            return record, False
        if obj.home_node == node_id:
            # Home copies materialize lazily and are always current.
            if record is None:
                record = CopyRecord(obj.obj_id, RealState.HOME)
                self.heaps[node_id].copies[obj.obj_id] = record
                return record, False
            # A home copy can never be INVALID.
            return record, False
        return self._fault_remote(thread, obj, record), True

    def _fault_remote(self, thread, obj: HeapObject, record: CopyRecord | None) -> CopyRecord:
        """Fault a remotely-homed object in: trap + request/reply round
        trip to the home (optionally bundling prefetched objects)."""
        node_id = thread.node_id
        heap = self.heaps[node_id]
        costs = self.costs
        clock = thread.clock
        cpu = thread.cpu
        refault = record is not None  # an invalidated copy is being replaced
        fault_begin_ns = clock._now_ns
        cpu.protocol_ns += costs.gos_trap_ns
        clock._now_ns += costs.gos_trap_ns

        # Connectivity prefetching (inter-object affinity): bundle
        # hot-path successors homed at the same node into the reply —
        # one round trip, bigger payload, fewer future faults.
        bundle: list[HeapObject] = []
        if self.prefetcher is not None:
            for extra in self.prefetcher.bundle_for(thread, obj):
                if extra.home_node != obj.home_node:
                    continue  # a different home cannot ride this reply
                existing: CopyRecord | None = heap.get(extra.obj_id)  # type: ignore[assignment]
                if existing is not None and existing.real_state is not RealState.INVALID:
                    continue
                bundle.append(extra)

        now = clock._now_ns
        reply_bytes = obj.size_bytes + FETCH_REPLY_OVERHEAD
        if bundle:
            reply_bytes += sum(o.size_bytes + FETCH_REPLY_OVERHEAD for o in bundle)
        send = self.network.send
        wait = send(MessageKind.OBJECT_FETCH_REQ, node_id, obj.home_node, FETCH_REQ_BYTES, now)
        wait += send(
            MessageKind.OBJECT_FETCH_DATA,
            obj.home_node,
            node_id,
            reply_bytes,
            now + wait,
        )
        cpu.network_wait_ns += wait
        clock._now_ns += wait
        if record is None:
            record = CopyRecord(obj.obj_id, RealState.VALID, fetched_version=obj.home_version)
            heap.copies[obj.obj_id] = record
        else:
            record.real_state = RealState.VALID
            record.fetched_version = obj.home_version
        for extra in bundle:
            existing = heap.get(extra.obj_id)  # type: ignore[assignment]
            if existing is None:
                heap.put(
                    extra.obj_id,
                    CopyRecord(
                        extra.obj_id, RealState.VALID, fetched_version=extra.home_version
                    ),
                )
            else:
                existing.real_state = RealState.VALID
                existing.fetched_version = extra.home_version
        self._c_faults.inc()
        if self.tracer is not None:
            self.tracer.fault(thread, obj.obj_id, fault_begin_ns, clock._now_ns, 1 + len(bundle))
        if self.objprof is not None:
            self.objprof.on_fault(thread, obj, refault)
        return record

    # ------------------------------------------------------------------
    # access fast path
    # ------------------------------------------------------------------

    def access(
        self,
        thread,
        obj_id: int,
        is_write: bool = False,
        n_elems: int = 1,
        repeat: int = 1,
        elem_off: int = 0,
    ) -> None:
        """Execute ``repeat`` accesses touching ``n_elems`` distinct
        elements of one object (the interpreter's READ/WRITE op).

        This is the protocol's per-op fast path: the common valid-copy /
        home-copy case resolves with one dict probe on the node's local
        heap (no wrapper calls, no fault machinery), the interval touch
        is inlined, and hook fan-out is skipped when no profiler is
        attached.
        """
        clock = thread.clock
        cpu = thread.cpu
        # JIT-inlined state check + the access itself, paid per access.
        busy = self._access_busy_ns * repeat
        cpu.access_ns += busy
        clock._now_ns += busy

        node_id = thread.node_id
        copies = self._copies_by_node[node_id]
        record: CopyRecord | None = copies.get(obj_id)
        if record is not None and record.real_state is not _INVALID:
            faulted = False  # valid cache copy or home copy: no coherence work
            obj = None  # resolved lazily; a plain hit never needs it
        else:
            obj = self._objects[obj_id]
            if obj.home_node == node_id:
                # Home copies materialize lazily and are always current
                # (a home copy can never be INVALID).
                if record is None:
                    record = CopyRecord(obj_id, _HOME)
                    copies[obj_id] = record
                faulted = False
            else:
                record = self._fault_remote(thread, obj, record)
                faulted = True

        if is_write and record.real_state is not _HOME:
            if obj is None:
                obj = self._objects[obj_id]
            if not record.has_twin:
                twin_ns = obj.size_bytes * self.costs.twin_ns_per_byte
                record.has_twin = True
                cpu.protocol_ns += twin_ns
                clock._now_ns += twin_ns
            if obj.is_array:
                written = n_elems * obj.jclass.element_size
            else:
                written = obj.jclass.instance_size
            record.dirty_bytes = min(record.dirty_bytes + written, obj.size_bytes)
            record.writers.add(thread.thread_id)

        # Inlined IntervalRecord.touch (one access-summary upsert per op).
        now = clock._now_ns
        interval: IntervalRecord = thread.current_interval
        summary = interval.accesses.get(obj_id)
        if summary is None:
            first_touch = True
            summary = AccessSummary(obj_id, 0, 0, now, now)
            interval.accesses[obj_id] = summary
        else:
            first_touch = False
        if is_write:
            summary.writes += repeat
            interval.written.add(obj_id)
        else:
            summary.reads += repeat
        summary.last_ns = now

        sanitizer = self.sanitizer
        if sanitizer is not None:
            sanitizer.on_access(thread, obj_id, record, obj, faulted)
        racedetector = self.racedetector
        if racedetector is not None:
            racedetector.on_access(thread, obj_id, is_write)

        touch = self._touch_hooks
        if touch is not None:
            # Every hook (if any) follows the first-touch contract.  Only
            # the first touch of an object in an interval can trap (the
            # false-invalid tag is cancelled by that first access; later
            # accesses run the inlined fast path untouched), so the
            # hooks fire once per (interval, object).
            if first_touch and touch:
                if obj is None:
                    obj = self._objects[obj_id]
                for fast in touch:
                    fast(thread, obj, faulted)
            return
        if obj is None:
            obj = self._objects[obj_id]
        for mode, entry in self._hook_plan:
            if mode == _FIRST_TOUCH:
                if first_touch:
                    entry(thread, obj, faulted)
            elif mode == _EVERY_ACCESS:
                entry(thread, obj)
            else:
                entry(
                    thread,
                    obj,
                    is_write=is_write,
                    n_elems=n_elems,
                    elem_off=elem_off,
                    repeat=repeat,
                    real_fault=faulted,
                )

    # ------------------------------------------------------------------
    # intervals
    # ------------------------------------------------------------------

    def open_interval(self, thread) -> None:
        """Begin a new interval for ``thread``."""
        costs = self.costs
        clock = thread.clock
        thread.cpu.protocol_ns += costs.interval_open_ns
        clock._now_ns += costs.interval_open_ns
        thread.interval_counter += 1
        thread.current_interval = IntervalRecord(
            thread_id=thread.thread_id,
            interval_id=thread.interval_counter,
            start_pc=thread.pc,
            start_ns=clock._now_ns,
        )
        if self.tracer is not None:
            self.tracer.interval_open(thread, clock._now_ns)
        for hook in self.hooks:
            hook.on_interval_open(thread)
        if self.sanitizer is not None:
            self.sanitizer.on_interval_open(thread)

    def close_interval(self, thread, reason: str, sync_dst: int | None = None) -> IntervalRecord:
        """Close the thread's current interval: flush diffs, publish write
        notices, then hand the interval record to the profiler hooks."""
        costs = self.costs
        interval: IntervalRecord = thread.current_interval
        interval.end_pc = thread.pc
        interval.close_reason = reason

        copies = self._copies_by_node[thread.node_id]
        objects = self._objects
        clock = thread.clock
        cpu = thread.cpu
        notices = self.notices
        c_diffs = self._c_diffs
        c_notices = self._c_notices
        sanitizer = self.sanitizer
        racedetector = self.racedetector
        tracer = self.tracer
        objprof = self.objprof
        # Flush diffs for cache copies this thread wrote.  Sorted: the
        # written set is hash-ordered, and diff/notice publication order
        # feeds network sends and the global notice log — iteration
        # order must not depend on interning accidents (SIM003).
        # Counter increments are batched per close, not per object.
        n_notices = n_diffs = 0
        for obj_id in sorted(interval.written):
            record: CopyRecord | None = copies.get(obj_id)
            obj = objects[obj_id]
            if record is None:
                continue
            if record.real_state is _HOME:
                obj.home_version += 1
                notices.append((obj_id, obj.home_version))
                n_notices += 1
                if sanitizer is not None:
                    sanitizer.on_notice(obj_id, obj.home_version)
                if racedetector is not None:
                    racedetector.on_notice_publish(thread, obj_id, obj.home_version)
                continue
            if thread.thread_id not in record.writers:
                continue
            dirty = max(record.dirty_bytes, 1)
            diff_begin_ns = clock._now_ns
            diff_ns = dirty * costs.diff_ns_per_byte
            cpu.protocol_ns += diff_ns
            clock._now_ns += diff_ns
            wait = self.network.send(
                MessageKind.DIFF,
                thread.node_id,
                obj.home_node,
                dirty + DIFF_OVERHEAD,
                clock._now_ns,
            )
            cpu.network_wait_ns += wait
            clock._now_ns += wait
            obj.home_version += 1
            # The writer's copy now reflects the applied diff.
            record.fetched_version = obj.home_version
            record.clear_interval_state()
            notices.append((obj_id, obj.home_version))
            n_diffs += 1
            n_notices += 1
            if tracer is not None:
                tracer.diff(thread, obj_id, dirty, diff_begin_ns, clock._now_ns)
            if objprof is not None:
                objprof.on_diff(thread, obj_id, dirty)
            if sanitizer is not None:
                sanitizer.on_notice(obj_id, obj.home_version)
            if racedetector is not None:
                racedetector.on_notice_publish(thread, obj_id, obj.home_version)

        if n_diffs:
            c_diffs.inc(n_diffs)
        if n_notices:
            c_notices.inc(n_notices)
        cpu.protocol_ns += costs.interval_close_ns
        clock._now_ns += costs.interval_close_ns
        interval.end_ns = clock._now_ns
        self._c_intervals.inc()

        for hook in self.hooks:
            hook.on_interval_close(thread, interval, sync_dst)
        if sanitizer is not None:
            sanitizer.on_interval_close(thread, interval)
        if objprof is not None:
            objprof.on_interval_close(thread, interval)
        # The interval *span* closes after the hooks so close-time work
        # (e.g. the profiler's OAL flush) nests inside it; the interval
        # *record*'s end_ns above stays the protocol-close instant.
        if tracer is not None:
            tracer.interval_close(thread, interval, clock._now_ns)

        if self.keep_interval_history:
            self.interval_history.setdefault(thread.thread_id, []).append(interval)
        return interval

    # ------------------------------------------------------------------
    # write-notice application
    # ------------------------------------------------------------------

    def apply_notices(self, thread) -> int:
        """Apply all unseen write notices on the thread's node, invalidating
        stale cache copies; returns the number of new notices consumed."""
        node_id = thread.node_id
        start = self._notice_seen[node_id]
        if self.racedetector is not None:
            # Diff-propagation edges flow even when no *new* notices are
            # pending: diffs applied at the node earlier are visible to
            # this thread too (node-shared cache copies).
            self.racedetector.on_apply_notices(thread, start, len(self.notices))
        end = len(self.notices)
        n_new = end - start
        if not n_new:
            return 0
        self._notice_seen[node_id] = end
        copies = self._copies_by_node[node_id]
        invalidated = 0
        objprof = self.objprof
        inv_ids: list[int] | None = [] if objprof is not None else None
        if len(copies) < n_new:
            # Few copies, many notices: invert the scan.  Notices are
            # append-ordered, so dict() keeps each object's newest
            # version, and invalidating against the newest version flips
            # exactly the copies the notice-ordered walk would.  At a
            # barrier every node applies the same range, so the folded
            # dict is memoized on (start, end) — the list is append-only,
            # which makes that key sound — and built once per range
            # instead of once per node.
            memo = self._latest_notices
            if memo is not None and memo[0] == start and memo[1] == end:
                latest = memo[2]
            else:
                latest = dict(self.notices[start:end])
                self._latest_notices = (start, end, latest)
            for obj_id, record in copies.items():  # simlint: disable=SIM003 (hot path; per-record state flips are independent, order cannot leak)
                if record.real_state is _VALID:
                    version = latest.get(obj_id)
                    if version is not None and record.fetched_version < version:
                        record.real_state = _INVALID
                        invalidated += 1
                        if inv_ids is not None:
                            inv_ids.append(obj_id)
        else:
            for obj_id, version in self.notices[start:end]:
                record: CopyRecord | None = copies.get(obj_id)
                if record is None:
                    continue
                if record.real_state is _VALID and record.fetched_version < version:
                    record.real_state = _INVALID
                    invalidated += 1
                    if inv_ids is not None:
                        inv_ids.append(obj_id)
        if invalidated:
            ns = invalidated * self.costs.invalidate_ns
            thread.cpu.protocol_ns += ns
            thread.clock._now_ns += ns
            self._c_invalidations.inc(invalidated)
            if inv_ids:
                objprof.on_invalidations(node_id, inv_ids)
        return n_new

    def pending_notices(self, node_id: int) -> int:
        """Number of notices the node has not applied yet."""
        return len(self.notices) - self._notice_seen[node_id]

    # ------------------------------------------------------------------
    # synchronization operations
    # ------------------------------------------------------------------

    def acquire(self, thread, lock_id: int) -> bool:
        """Lock acquire: closes the current interval and sends the request
        to the manager.  Returns True if the lock was granted immediately
        (write notices applied, new interval opened); False if the lock is
        held — the thread is then parked in the lock's wait queue and the
        scheduler must block it until :meth:`release` hands the lock over.
        """
        costs = self.costs
        lock = self.sync.lock(lock_id)
        # Acquire delimits intervals under LRC.
        self.close_interval(thread, "acquire", sync_dst=lock.manager_node)
        thread.cpu.protocol_ns += costs.lock_local_ns
        thread.clock.advance(costs.lock_local_ns)

        node_id = thread.node_id
        now = thread.clock.now_ns
        wait = self.network.send(MessageKind.LOCK, node_id, lock.manager_node, LOCK_MSG_BYTES, now)
        arrival = now + wait
        if lock.holder is not None:
            lock.waiters.append((thread.thread_id, arrival))
            return False
        self._grant(thread, lock, lock.grant_time(arrival))
        return True

    def _grant(self, thread, lock, granted_ns: int) -> None:
        """Complete a lock grant: reply message (carrying write notices),
        clock alignment, invalidations, and a fresh interval."""
        node_id = thread.node_id
        notice_payload = self.pending_notices(node_id) * NOTICE_BYTES
        wait_back = self.network.send(
            MessageKind.LOCK,
            lock.manager_node,
            node_id,
            LOCK_MSG_BYTES + notice_payload,
            granted_ns,
        )
        before = thread.clock.now_ns
        thread.clock.advance_to(granted_ns + wait_back)
        thread.cpu.network_wait_ns += thread.clock.now_ns - before
        lock.holder = thread.thread_id
        lock.acquisitions += 1
        if self.racedetector is not None:
            # release->acquire edge: join the last releaser's clock.
            self.racedetector.on_lock_acquire(thread, lock.lock_id)
        self.apply_notices(thread)
        self.open_interval(thread)

    def release(self, thread, lock_id: int, threads_by_id: dict | None = None) -> int | None:
        """Lock release: closes the interval (flushing diffs, publishing
        notices), notifies the manager, opens a new interval.  If waiters
        are queued, the lock is handed to the first one; its thread id is
        returned so the scheduler can unblock it (``threads_by_id`` is
        then required)."""
        costs = self.costs
        lock = self.sync.lock(lock_id)
        if lock.holder != thread.thread_id:
            raise RuntimeError(
                f"thread {thread.thread_id} released lock {lock_id} held by {lock.holder}"
            )
        self.close_interval(thread, "release", sync_dst=lock.manager_node)
        if self.racedetector is not None:
            # The interval's write notices were published with the
            # pre-release clock; snapshot it on the lock, then advance.
            self.racedetector.on_lock_release(thread, lock_id)
        thread.cpu.protocol_ns += costs.lock_local_ns
        thread.clock.advance(costs.lock_local_ns)
        now = thread.clock.now_ns
        wait = self.network.send(MessageKind.LOCK, thread.node_id, lock.manager_node, LOCK_MSG_BYTES, now)
        # Release is one-way: the thread does not block on the ack, but the
        # lock only becomes available when the message reaches the manager.
        lock.available_at_ns = now + wait
        lock.holder = None
        self.open_interval(thread)
        if lock.waiters:
            if threads_by_id is None:
                raise RuntimeError(
                    f"lock {lock_id} has waiters but no thread table was supplied"
                )
            waiter_id, arrival = lock.waiters.pop(0)
            waiter = threads_by_id[waiter_id]
            self._grant(waiter, lock, lock.grant_time(arrival))
            return waiter_id
        return None

    def barrier_arrive(self, thread, barrier_id: int, parties: int) -> bool:
        """Barrier arrival: closes the interval and registers at the
        barrier.  Returns True when the caller is the last arriver (the
        scheduler then schedules a ``BARRIER_RELEASE`` event whose
        dispatch calls :meth:`barrier_release`)."""
        barrier = self.sync.barrier(barrier_id, parties)
        self.close_interval(thread, "barrier", sync_dst=self.cluster.master_id)
        now = thread.clock.now_ns
        self.network.send(
            MessageKind.BARRIER, thread.node_id, self.cluster.master_id, BARRIER_MSG_BYTES, now
        )
        last = barrier.arrive(thread.thread_id, now)
        if self.tracer is not None:
            self.tracer.barrier_arrive(thread, barrier_id, now)
        if self.sanitizer is not None:
            self.sanitizer.on_barrier_arrive(barrier_id, thread.thread_id, parties, now)
        return last

    def barrier_release(self, threads_by_id: dict[int, object], barrier_id: int) -> int:
        """Complete a barrier episode: align clocks, distribute write
        notices, apply invalidations, and open fresh intervals.
        Returns the episode's release time (ns)."""
        costs = self.costs
        barrier = self.sync.barriers[barrier_id]
        release_ns, waiters = barrier.release_all()
        release_ns += costs.barrier_local_ns
        # Bursty asynchronous traffic that converged on the master (OAL
        # jumbo messages, prominently) must finish serializing before the
        # master's release messages go out — the paper's "rather bursty"
        # bandwidth consumption, surfacing as barrier latency.
        release_ns += self.network.drain_ingress_backlog(self.cluster.master_id)
        for thread_id in waiters:
            thread = threads_by_id[thread_id]
            notice_payload = self.pending_notices(thread.node_id) * NOTICE_BYTES
            wait_back = self.network.send(
                MessageKind.BARRIER,
                self.cluster.master_id,
                thread.node_id,
                BARRIER_MSG_BYTES + notice_payload,
                release_ns,
            )
            arrived_at = thread.clock.now_ns
            thread.clock.advance_to(release_ns + wait_back)
            thread.cpu.network_wait_ns += thread.clock.now_ns - arrived_at
            self.apply_notices(thread)
            if self.tracer is not None:
                self.tracer.barrier_resume(thread, barrier_id, thread.clock.now_ns)
            self.open_interval(thread)
        if self.sanitizer is not None:
            self.sanitizer.on_barrier_release(barrier_id, barrier.parties, waiters, release_ns)
        if self.racedetector is not None:
            # Barrier edge: join every participant's clock; per-waiter
            # diff-propagation joins already ran via apply_notices above.
            self.racedetector.on_barrier_release(threads_by_id, barrier_id, waiters, release_ns)
        if self.objprof is not None:
            # Lifetime phase boundary for the object-centric profiler.
            self.objprof.on_barrier_release(release_ns)
        return release_ns
