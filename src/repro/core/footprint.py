"""Sticky-set footprinting (paper Section III.A step 1).

The *sticky set* of a migrant thread is the set of objects that would
predictably fault again after a migration: objects accessed both before
and after the migration point within one HLRC interval.  Correlation
tracking cannot see this — it logs each object at most once per interval
— so footprinting tracks sampled objects *repeatedly* within the
interval to capture access frequency, yielding a per-class byte estimate
(the **sticky-set footprint**) of what migrating the thread would drag
across the network.

Because repeated tracking is strictly more expensive than at-most-once
logging, two throttles from the paper apply:

* a **lower bound on the sampling gap** (set via
  ``SamplingPolicy.set_min_gap``), and
* a **timer** alternating tracking-on and tracking-off phases
  (``period_ms`` with ``duty`` fraction on); accesses during off phases
  are invisible, trading accuracy for cost — exactly the Nonstop vs
  Timer-based columns of the paper's overhead table.
"""

from __future__ import annotations

from repro.core.sampling import SamplingPolicy
from repro.dsm.intervals import IntervalRecord
from repro.heap.objects import HeapObject
from repro.sim.clock import NO_DEADLINE_NS, NS_PER_MS
from repro.sim.costs import CostModel


#: per-(thread, interval, object) tracking statistics: ``(count,
#: last_phase)`` — the number of tracking phases the object trapped in,
#: and the last of them (phases only grow within an interval, so it is
#: the only one a later access can repeat).
_ObjStats = tuple[int, int]


class StickySetFootprinter:
    """Protocol hook performing repeated sampled access tracking."""

    __slots__ = (
        "policy",
        "costs",
        "timer_period_ns",
        "duty",
        "min_accesses",
        "_enabled",
        "_rearm",
        "_stats",
        "_interval_start",
        "interval_footprints",
        "interval_tracked",
        "tracked_accesses",
        "_gos",
        "_policy_states",
        "_track_ns",
    )

    def __init__(
        self,
        policy: SamplingPolicy,
        costs: CostModel,
        *,
        timer_period_ms: float | None = None,
        duty: float = 0.5,
        min_accesses: int = 2,
        enabled: bool = True,
    ) -> None:
        if timer_period_ms is not None and timer_period_ms <= 0:
            raise ValueError(f"timer period must be > 0 ms, got {timer_period_ms}")
        if not 0 < duty <= 1:
            raise ValueError(f"duty cycle must be in (0, 1], got {duty}")
        if min_accesses < 1:
            raise ValueError(f"min_accesses must be >= 1, got {min_accesses}")
        self.policy = policy
        self.costs = costs
        #: None = nonstop tracking; otherwise on/off phases of this period.
        self.timer_period_ns = None if timer_period_ms is None else int(timer_period_ms * NS_PER_MS)
        self.duty = duty
        #: accesses needed within an interval for an object to count as sticky.
        self.min_accesses = min_accesses
        self._enabled = enabled
        #: re-arm callbacks of the engines dispatching to this hook (see
        #: bind_rearm).
        self._rearm: list = []
        #: thread_id -> {obj_id: _ObjStats} for the open interval.
        self._stats: dict[int, dict[int, _ObjStats]] = {}
        #: thread_id -> interval start time (phase reference).
        self._interval_start: dict[int, int] = {}
        #: completed-interval footprints kept for averaging:
        #: thread_id -> list of {class_name: bytes}.
        self.interval_footprints: dict[int, list[dict[str, int]]] = {}
        #: completed-interval tracked sampled object ids (landmark
        #: candidates for resolution): thread_id -> list of sets.
        self.interval_tracked: dict[int, list[set[int]]] = {}
        self.tracked_accesses = 0
        #: attached by the ProfilerSuite (needed to resolve object classes).
        self._gos = None
        # Hot-path aliases (the cost model is frozen; the policy's state
        # dict is mutated in place, never replaced).
        self._policy_states = policy._states
        self._track_ns = costs.gos_trap_ns + costs.footprint_track_ns

    @property
    def enabled(self) -> bool:
        """Whether the hook tracks at all; flipping it re-arms the
        deadlines :meth:`track_access` already handed out."""
        return self._enabled

    @enabled.setter
    def enabled(self, value: bool) -> None:
        self._enabled = value
        for rearm in self._rearm:
            rearm()

    def bind_rearm(self, rearm) -> None:
        """Take an engine's re-arm callback (``HomeBasedLRC.add_hook``
        passes it): it is called whenever a deadline returned by
        :meth:`track_access` may no longer hold — a real gap change (the
        object's sampling decision moved) or an ``enabled`` flip."""
        self._rearm.append(rearm)
        self.policy.gap_listeners.append(rearm)

    # ------------------------------------------------------------------
    # ProtocolHooks interface
    # ------------------------------------------------------------------

    def on_interval_open(self, thread) -> None:
        """ProtocolHooks: a new HLRC interval just opened for ``thread``."""
        if not self._enabled:
            return
        self._stats[thread.thread_id] = {}
        self._interval_start[thread.thread_id] = thread.clock.now_ns

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
        """ProtocolHooks: one access op executed (see class docstring)."""
        self.track_access(thread, obj)

    def track_access(self, thread, obj: HeapObject) -> int:
        """Positional every-access form of :meth:`on_access` (tracking
        depends only on the thread, the object and the clock); the
        protocol's access dispatch calls this directly.

        Returns the re-arm deadline: the clock time before which another
        access to ``obj`` by ``thread`` in this interval would do nothing
        — the next tracking phase's start, or :data:`NO_DEADLINE_NS` for
        an object that is not sampled (until a gap change re-arms it).
        The engine skips the call until the deadline passes, so only the
        first access of each phase reaches this method, as only that
        access traps in the paper's scheme."""
        if not self._enabled:
            return NO_DEADLINE_NS
        tid = thread.thread_id
        stats = self._stats.get(tid)
        if stats is None:
            return NO_DEADLINE_NS
        now = thread.clock._now_ns
        period = self.timer_period_ns
        if period is None:
            # Nonstop mode: always tracking, with phases synthesized at
            # 1 ms so the multi-phase stickiness signal still exists.
            phase = now // NS_PER_MS
            deadline = (phase + 1) * NS_PER_MS
        else:
            start = self._interval_start.get(tid, 0)
            since = now - start
            phase = since // period
            # The next on-phase starts with the next period, whether
            # this access fell in an on- or an off-phase.
            deadline = start + (phase + 1) * period
            if (since % period) / period >= self.duty:
                return deadline  # tracking-off phase: the access is invisible
        # Sampled?  Probe the class's epoch-keyed decision memo inline;
        # fall back to decision() on a miss or a stale cache.
        st = self._policy_states.get(obj.jclass.class_id)
        dec = None
        if st is not None and st.cache_epoch == st.epoch:
            dec = st.decisions.get(obj.obj_id)
        if dec is None:
            dec = self.policy.decision(obj)
        if not dec[0]:
            return NO_DEADLINE_NS
        # Repeated tracking works by re-resetting sampled objects to
        # false-invalid at each tracking phase: the first access of each
        # phase traps (and is what gets counted — the access-frequency
        # signal has phase granularity); later accesses in the same phase
        # run the fast path free of charge.
        obj_id = obj.obj_id
        entry = stats.get(obj_id)
        if entry is None:
            stats[obj_id] = (1, phase)
        elif entry[1] == phase:
            return deadline
        else:
            stats[obj_id] = (entry[0] + 1, phase)
        ns = self._track_ns
        thread.cpu.footprinting_ns += ns
        thread.clock._now_ns += ns
        self.tracked_accesses += 1
        return deadline

    def on_interval_close(self, thread, interval: IntervalRecord, sync_dst: int | None) -> None:
        """ProtocolHooks: ``thread`` closed ``interval``."""
        if not self._enabled:
            return
        tid = thread.thread_id
        stats = self._stats.pop(tid, None)
        self._interval_start.pop(tid, None)
        if stats is None:
            return
        fp = self._footprint_from_stats(stats)
        # Record even empty footprints: the average must be taken over
        # *all* intervals or estimates at different sampling rates get
        # different denominators and stop being comparable.
        self.interval_footprints.setdefault(tid, []).append(fp)
        self.interval_tracked.setdefault(tid, []).append(set(stats))

    # ------------------------------------------------------------------
    # footprint estimation
    # ------------------------------------------------------------------

    def _footprint_from_stats(self, stats: dict[int, _ObjStats]) -> dict[str, int]:
        """Per-class sticky bytes: sampled objects tracked in at least
        ``min_accesses`` phases (or in >= 2 — the count is per phase),
        scaled by the gap (Horvitz-Thompson) to estimate the class
        total."""
        fp: dict[str, int] = {}
        gos = self._gos
        if gos is None:
            if stats:
                raise RuntimeError(
                    "StickySetFootprinter has tracked accesses but no global "
                    "object space attached — call attach_gos() (the "
                    "ProfilerSuite does this automatically)"
                )
            return fp
        threshold = min(self.min_accesses, 2)
        for obj_id, (count, _) in stats.items():  # simlint: disable=SIM003 (float footprint accrual; stats follow the deterministic access-recording order)
            if count < threshold:
                continue
            obj = gos.get(obj_id)
            fp[obj.jclass.name] = fp.get(obj.jclass.name, 0) + self.policy.scaled_bytes(obj)
        return fp

    def attach_gos(self, gos) -> None:
        """Attach the global object space (needed to resolve classes)."""
        self._gos = gos

    def live_footprint(self, thread) -> dict[str, int]:
        """Footprint of the thread's *open* interval at the current
        instant — what the load balancer consults when weighing a
        migration (objects already accessed >= min_accesses times are the
        predicted re-fetch set)."""
        stats = self._stats.get(thread.thread_id, {})
        return self._footprint_from_stats(stats)

    def live_sticky_candidates(self, thread) -> list[int]:
        """Object ids currently qualifying as sticky in the open interval."""
        stats = self._stats.get(thread.thread_id, {})
        threshold = min(self.min_accesses, 2)
        return [  # simlint: disable=SIM003 (result order must mirror the open interval's access-recording order)
            oid for oid, (count, _) in stats.items() if count >= threshold
        ]

    def recent_tracked_ids(self, thread, *, window: int = 3) -> set[int]:
        """Sampled object ids the footprinting pass tracked recently —
        the landmark candidates resolution should trust.  Combines the
        live open-interval stats with the last ``window`` non-empty
        closed-interval sets."""
        out: set[int] = set(self._stats.get(thread.thread_id, {}))
        closed = [s for s in self.interval_tracked.get(thread.thread_id, []) if s]
        for s in closed[-window:]:
            out |= s
        return out

    def average_footprint(self, thread_id: int) -> dict[str, float]:
        """Average per-class footprint over *all* of the thread's closed
        intervals (the quantity Table IV's accuracy comparison uses)."""
        fps = self.interval_footprints.get(thread_id, [])
        if not fps:
            return {}
        classes: set[str] = set()
        for fp in fps:
            classes.update(fp)
        return {c: sum(fp.get(c, 0) for fp in fps) / len(fps) for c in sorted(classes)}

    def recent_footprint(self, thread_id: int, *, window: int = 3) -> dict[str, float]:
        """Per-class element-wise maximum over the last ``window``
        non-empty interval footprints — the budget estimator sticky-set
        resolution uses.  A migrating thread's re-fetch cost is governed
        by the interval it is *in* (typically a heavy compute phase), so
        short synchronization-only intervals must not dilute the budget
        the way they do in a lifetime average."""
        fps = [fp for fp in self.interval_footprints.get(thread_id, []) if fp]
        if not fps:
            return {}
        recent = fps[-window:]
        classes: set[str] = set()
        for fp in recent:
            classes.update(fp)
        return {c: float(max(fp.get(c, 0) for fp in recent)) for c in sorted(classes)}
