"""Vectorized access replay: bulk execution of pre-decoded access runs.

The scalar interpreter dispatches every READ/WRITE/COMPUTE op through
Python (one :meth:`~repro.dsm.hlrc.HomeBasedLRC.access` call per op).
For the dominant access streams of real workloads that is almost pure
overhead: inside one execution segment, copy state cannot change (write
notices apply only at synchronization), so after an object's *first*
access of a run every later access is a guaranteed hit, and after its
*first* write the twin already exists.  This engine exploits that:

* **Fast lanes** (precomputed per run by :class:`~repro.runtime.program.
  AccessRun`): per-object totals of reads, writes, written elements and
  the position of the last access — applied to the interval's access
  summaries in one pass at run end.
* **Slow lane**: the run's *checkpoints* (first access / first write per
  object) execute the scalar protocol logic verbatim — coherence probe,
  remote fault, twin creation, summary creation, profiler fast hook.
* **Cost arrays**: exclusive prefix sums of every op's base cost (access
  busy time, compute time) make "advance the clock across k ops" one
  subtraction, and deadline-timer fires a ``numpy.searchsorted``.

Byte-identity with the scalar loop is the contract, not an aspiration:
clock values, CPU accounting buckets, interval summaries (including
``first_ns``/``last_ns`` and dict insertion order), twin/dirty/writer
state, fault traffic, timer-fire points and the kernel trace all come
out bit-for-bit equal, which the equivalence tests assert over
randomized programs.  The engine is disengaged whenever an observer
needs the per-op stream (sanitizer, race detector, per-op polled timers,
hooks without the ``fast_on_access`` protocol).

Clock bookkeeping uses one invariant: at fast-lane position ``pos``,

    ``clock == clock0 + extra + base[pos]``

where ``base`` is the prefix-cost array and ``extra`` accumulates every
cost the prefix pass cannot see (faults, twins, hook and timer-fire
work).  Extras are journaled as ``(key, cumulative)`` pairs keyed by
``2*idx`` for in-op extras (fault/twin — part of that op's access
instant) and ``2*idx + 1`` for post-instant extras (hook/timer work that
happens *after* the op's summary timestamp), so the per-object
``last_ns`` can be reconstructed exactly for any op with one bisect.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from repro.dsm.intervals import AccessSummary
from repro.dsm.states import CopyRecord, RealState
from repro.runtime.program import OP_COMPUTE, OP_WRITE, AccessRun
from repro.sim.events import EventKind

_HOME = RealState.HOME
_INVALID = RealState.INVALID
_TIMER_FIRE = EventKind.TIMER_FIRE


class _CostedRun:
    """Per-(run, cost model) prefix-cost arrays (exclusive; length n+1)."""

    __slots__ = ("base", "base_np", "abusy", "comp", "first_base", "last_base")

    def __init__(self, run: AccessRun, costs) -> None:
        ops = run.ops
        n = run.n_ops
        busy_ns = costs.state_check_ns + costs.access_ns
        scale_is_unity = costs.compute_scale == 1.0
        scaled_compute = costs.scaled_compute
        base = [0] * (n + 1)
        abusy = [0] * (n + 1)
        comp = [0] * (n + 1)
        a = c = 0
        for j, op in enumerate(ops):
            if op[0] == OP_COMPUTE:
                v = op[1]
                # Mirrors the scalar loop's unity-scale fast path so
                # rounding behaviour is identical.
                c += v if scale_is_unity and type(v) is int and v >= 0 else scaled_compute(v)
            else:
                a += busy_ns * op[3]
            j1 = j + 1
            abusy[j1] = a
            comp[j1] = c
            base[j1] = a + c
        #: combined base cost prefix (access busy + compute).
        self.base = base
        #: same array for searchsorted deadline lookups.
        self.base_np = np.asarray(base, dtype=np.int64)
        #: access-busy-only and compute-only prefixes (CPU buckets).
        self.abusy = abusy
        self.comp = comp
        #: per-uniq base-clock offsets of the first/last access instant
        #: (exact summary timestamps when the run pays no extras).
        self.first_base = [base[j + 1] for j in run.u_first]
        self.last_base = [base[j + 1] for j in run.u_last]


class VectorEngine:
    """Executes :class:`AccessRun` spans in bulk for one interpreter.

    Created by :meth:`Interpreter.run` when replay mode is ``"vector"``
    and no per-op observer (sanitizer / race detector) is attached; the
    segment loop additionally disengages it per segment when a timer
    hook needs legacy per-op polling or a profiler hook lacks the
    ``fast_on_access`` protocol.
    """

    __slots__ = (
        "interp",
        "hlrc",
        "_objects",
        "_copies_by_node",
        "costs",
        "demoted",
        "_strikes",
    )

    def __init__(self, interp) -> None:
        self.interp = interp
        hl = interp.hlrc
        self.hlrc = hl
        self._objects = hl._objects
        self._copies_by_node = hl._copies_by_node
        self.costs = hl.costs
        #: runs demoted to the scalar loop (see _maybe_demote): access
        #: streams where most distinct objects keep needing protocol
        #: work, so bulk replay is pure overhead on top of the scalar
        #: walk.  Both paths are byte-identical; this is purely adaptive
        #: performance routing, decided per engine (never cached on the
        #: shared compiled program).
        self.demoted: set[AccessRun] = set()
        #: run -> consecutive majority-slow executions.  One strike is
        #: expected (cold start: every first touch faults); a second
        #: consecutive strike means the working set is re-invalidated
        #: every epoch and the run will never go fast.
        self._strikes: dict[AccessRun, int] = {}

    def _maybe_demote(self, run: AccessRun, n_slow: int, n_uniq: int) -> None:
        """Track majority-slow executions; demote after two in a row."""
        if n_slow * 2 > n_uniq:
            strikes = self._strikes.get(run, 0) + 1
            if strikes >= 2:
                self.demoted.add(run)
            else:
                self._strikes[run] = strikes
        elif run in self._strikes:
            del self._strikes[run]

    def _costed(self, run: AccessRun) -> _CostedRun:
        costs = self.costs
        key = run._cost_key
        # Identity first (same engine re-executing), equality second so
        # cached arrays survive across DJVM instances sharing a cost
        # model by value (the bench harness reuses compiled programs).
        if key is not costs and key != costs:
            run._costed = _CostedRun(run, costs)
            run._cost_key = costs
        return run._costed

    # ------------------------------------------------------------------

    def execute(self, thread, run: AccessRun, deadline: int) -> tuple[int, int]:
        """Replay one access run for ``thread``; returns the next pc and
        the (possibly recomputed) timer deadline.

        ``deadline`` is the interpreter's current minimum timer deadline,
        or ``-1`` when deadline mode is off.  Normally the whole run
        executes and the returned pc is ``run.end``; a migration becoming
        pending mid-run (a timer fire or profiler hook submitted a plan)
        finalizes the executed prefix, evaluates the plan at exactly the
        op boundary the scalar loop would, and returns the mid-run pc so
        the scalar loop resumes there.
        """
        hl = self.hlrc
        if run.uniq is None:
            run.materialize()
        costed = self._costed(run)
        base = costed.base
        n = run.n_ops
        clock = thread.clock
        clock0 = clock._now_ns
        node_id = thread.node_id
        copies = self._copies_by_node[node_id]
        objects = self._objects
        uniq = run.uniq
        u_wops = run.u_wops
        records: list = [None] * len(uniq)

        hooks = hl.hooks
        interp = self.interp
        # Interval access summaries are observable only through the
        # profiler hooks, the tracer, kept interval history, or sampling
        # timers (which may inspect the live interval).  With none of
        # those attached the summaries are dead state: the protocol
        # consumes just the written set and per-copy dirty/writer state,
        # so the engine skips summary bookkeeping entirely.  Counters,
        # clocks and traffic are unaffected — the scalar oracle still
        # builds summaries, and equivalence tests enable history to
        # compare them.
        book = (
            hl.keep_interval_history
            or bool(hooks)
            or hl.tracer is not None
            or hl.objprof is not None
            or bool(interp.timers)
        )
        fast = None
        if not hooks:
            # ---- precheck: classify every distinct object once -------
            # Coherent objects (valid or home copy, twin already in
            # place for cache writes) pay no protocol cost inside the
            # run, so they need *no* checkpoint at all — their summary
            # bookkeeping is deferred to the finalize pass, which builds
            # summaries in first-touch order with exact timestamps.
            # Only objects that must fault or twin keep scalar
            # checkpoints (the precheck over-approximates: a prefetch
            # bundle may satisfy a later checkpoint, which then probes
            # fresh state and simply skips the fault).
            ops = run.ops
            slow: list = []
            lanes = zip(uniq, u_wops, run.u_first, run.u_firstw)
            for k, (oid, wo, jf, jw) in enumerate(lanes):
                record = copies.get(oid)
                if record is None:
                    obj = objects[oid]
                    if obj.home_node != node_id:
                        slow.append((jf, k, True, ops[jf][0] == OP_WRITE))
                        if jw >= 0 and jw != jf:
                            slow.append((jw, k, False, True))
                        continue
                    # Home copies materialize lazily at zero cost.
                    record = CopyRecord(oid, _HOME)
                    copies[oid] = record
                elif record.real_state is _INVALID:
                    slow.append((jf, k, True, ops[jf][0] == OP_WRITE))
                    if jw >= 0 and jw != jf:
                        slow.append((jw, k, False, True))
                    continue
                records[k] = record
                if wo and record.real_state is not _HOME and not record.has_twin:
                    slow.append((jw, k, False, True))

            if not slow and (deadline < 0 or clock0 + base[n] < deadline):
                if self._strikes:
                    self._strikes.pop(run, None)
                # ---- all-fast path -----------------------------------
                # Zero protocol work and no timer landing inside the
                # run: the clock advance is one prefix sum and the
                # interval bookkeeping one pass over distinct objects
                # with precomputed timestamps.
                cpu = thread.cpu
                cpu.access_ns += costed.abusy[n]
                cpu.compute_ns += costed.comp[n]
                clock._now_ns = clock0 + base[n]
                interval = thread.current_interval
                written = interval.written
                tid = thread.thread_id
                if not book:
                    # Summary-free bookkeeping: written set plus dirty
                    # state for cache copies, nothing else.
                    if run.w_ks:
                        written.update(run.w_oids)
                        for k in run.w_ks:
                            record = records[k]
                            if record.real_state is not _HOME:
                                oid = uniq[k]
                                obj = objects[oid]
                                if obj.is_array:
                                    wb = run.u_welems[k] * obj.jclass.element_size
                                else:
                                    wb = u_wops[k] * obj.jclass.instance_size
                                record.dirty_bytes = min(
                                    record.dirty_bytes + wb, obj.size_bytes
                                )
                                record.writers.add(tid)
                    return run.end, deadline
                accesses = interval.accesses
                fast_lanes = zip(
                    uniq,
                    run.u_reads,
                    run.u_writes,
                    run.u_welems,
                    u_wops,
                    costed.first_base,
                    costed.last_base,
                    records,
                )
                for oid, r, w, we, wo, fb, lb, record in fast_lanes:
                    summary = accesses.get(oid)
                    if summary is None:
                        accesses[oid] = AccessSummary(
                            oid, r, w, clock0 + fb, clock0 + lb
                        )
                    else:
                        summary.reads += r
                        summary.writes += w
                        summary.last_ns = clock0 + lb
                    if w:
                        written.add(oid)
                        if record.real_state is not _HOME:
                            obj = objects[oid]
                            if obj.is_array:
                                wb = we * obj.jclass.element_size
                            else:
                                wb = wo * obj.jclass.instance_size
                            record.dirty_bytes = min(
                                record.dirty_bytes + wb, obj.size_bytes
                            )
                            record.writers.add(tid)
                return run.end, deadline
            self._maybe_demote(run, len(slow), len(uniq))
            slow.sort()
            checkpoints = slow
            defer = True
        else:
            # First-touch hooks, from the engine's dispatch plan (the
            # interpreter engages replay only when every hook follows
            # that contract).  The hooks must observe every interval-
            # first touch at its exact access instant, so the full
            # checkpoint lane stays engaged and summaries are created
            # in-walk.
            fast = hl._touch_hooks
            for prime in hl._prime_hooks:
                # decide_batch lane: stateless sampling backends batch
                # this run's distinct-object decisions up front (host-
                # side cache only; simulated costs are unchanged, so
                # vector and scalar replay stay byte-identical).
                prime([objects[oid] for oid in uniq])
            checkpoints = run.checkpoints
            defer = False

        # ---- checkpointed walk ---------------------------------------
        abusy = costed.abusy
        comp = costed.comp
        ops = run.ops
        start = run.start
        cpu = thread.cpu
        tid = thread.thread_id
        costs = self.costs
        accesses = thread.current_interval.accesses
        mig = interp.migration_engine
        mig_pending = mig._pending if mig is not None else None
        publish_pc = mig_pending is not None or deadline >= 0

        extra = 0
        ev_key: list[int] = []
        ev_cum: list[int] = []

        n_cps = len(checkpoints)
        ci = 0
        pos = 0
        dl = deadline
        while pos < n:
            nxt = checkpoints[ci][0] if ci < n_cps else n
            if pos < nxt:
                # Fast lane [pos, nxt): guaranteed hits / pure compute.
                fire_at = -1
                if dl >= 0:
                    target = dl - clock0 - extra
                    if base[nxt] >= target:
                        j = int(np.searchsorted(costed.base_np, target, side="left")) - 1
                        if j < pos:
                            j = pos
                        if j < nxt:
                            fire_at = j
                end = nxt if fire_at < 0 else fire_at + 1
                cpu.access_ns += abusy[end] - abusy[pos]
                cpu.compute_ns += comp[end] - comp[pos]
                clock._now_ns = clock0 + extra + base[end]
                pos = end
                if fire_at >= 0:
                    dl, extra = self._fire_timers(
                        thread, start + pos, dl, 2 * fire_at + 1, ev_key, ev_cum, extra
                    )
                    if mig_pending and tid in mig_pending:
                        self._finalize(thread, run, costed, records, pos, clock0, ev_key, ev_cum, book)
                        mig.maybe_migrate(thread)
                        return start + pos, dl
                continue

            # Slow lane: one checkpoint op, scalar protocol verbatim.
            c, k, first_access, check_write = checkpoints[ci]
            ci += 1
            cpu.access_ns += abusy[c + 1] - abusy[c]
            busy_clock = clock0 + extra + base[c + 1]
            clock._now_ns = busy_clock
            oid = ops[c][1]
            if publish_pc:
                # The scalar loop publishes pc per op in these modes;
                # hooks and plan triggers may read it.
                thread.pc = start + c
            obj = None
            if first_access:
                record = copies.get(oid)
                if record is not None and record.real_state is not _INVALID:
                    faulted = False
                else:
                    obj = objects[oid]
                    if obj.home_node == node_id:
                        if record is None:
                            record = CopyRecord(oid, _HOME)
                            copies[oid] = record
                        faulted = False
                    else:
                        record = hl._fault_remote(thread, obj, record)
                        faulted = True
                records[k] = record
            else:
                record = records[k]
                faulted = False
            if check_write and record.real_state is not _HOME:
                if obj is None:
                    obj = objects[oid]
                if not record.has_twin:
                    twin_ns = obj.size_bytes * costs.twin_ns_per_byte
                    record.has_twin = True
                    cpu.protocol_ns += twin_ns
                    clock._now_ns += twin_ns
            in_op = clock._now_ns - busy_clock
            if in_op:
                extra += in_op
                ev_key.append(2 * c)
                ev_cum.append(extra)
            if first_access and not defer:
                now = clock._now_ns
                if accesses.get(oid) is None:
                    accesses[oid] = AccessSummary(oid, 0, 0, now, now)
                    if fast:
                        if obj is None:
                            obj = objects[oid]
                        for hook in fast:
                            hook(thread, obj, faulted)
                        delta = clock._now_ns - now
                        if delta:
                            extra += delta
                            ev_key.append(2 * c + 1)
                            ev_cum.append(extra)
            pos = c + 1
            # Post-op epilogue, mirroring the scalar loop's order:
            # deadline fire first, migration check second.
            if dl >= 0 and clock._now_ns >= dl:
                dl, extra = self._fire_timers(
                    thread, start + pos, dl, 2 * c + 1, ev_key, ev_cum, extra
                )
            if mig_pending and tid in mig_pending:
                self._finalize(thread, run, costed, records, pos, clock0, ev_key, ev_cum, book)
                mig.maybe_migrate(thread)
                return start + pos, dl

        self._finalize(thread, run, costed, records, n, clock0, ev_key, ev_cum, book)
        return run.end, dl

    # ------------------------------------------------------------------

    def _fire_timers(
        self,
        thread,
        pc: int,
        dl: int,
        key: int,
        ev_key: list[int],
        ev_cum: list[int],
        extra: int,
    ) -> tuple[int, int]:
        """Fire deadline timers at an op boundary (scalar post-op order:
        fires, trace record, deadline recompute); journals the fire cost
        as a post-instant extra."""
        interp = self.interp
        clock = thread.clock
        thread.pc = pc
        before = clock._now_ns
        for timer in interp.timers:
            timer.maybe_fire(thread)
        if dl > 0:
            interp.kernel.record(_TIMER_FIRE, clock._now_ns, thread.thread_id)
        dl = min(t.next_fire_ns(thread) for t in interp.timers)
        delta = clock._now_ns - before
        if delta:
            extra += delta
            ev_key.append(key)
            ev_cum.append(extra)
        return dl, extra

    def _finalize(
        self,
        thread,
        run: AccessRun,
        costed: _CostedRun,
        records: list,
        upto: int,
        clock0: int,
        ev_key: list[int],
        ev_cum: list[int],
        book: bool = True,
    ) -> None:
        """Apply the fast-lane aggregates for ops ``[0, upto)`` to the
        interval state — summary counts, written set, dirty bytes,
        writers, and the exact per-object ``first_ns``/``last_ns``.

        Summaries the walk did not create (every object in deferred
        mode, i.e. when no hook needed the first-touch instant) are
        created here, iterating uniq order so the access dict gains
        entries in exactly the scalar loop's first-touch order.  With
        ``book`` false (summaries unobservable) only the protocol state
        — written set, dirty bytes, writers — is maintained."""
        interval = thread.current_interval
        written = interval.written
        objects = self._objects
        base = costed.base
        tid = thread.thread_id
        uniq = run.uniq
        if not book and upto >= run.n_ops:
            if run.w_ks:
                written.update(run.w_oids)
                u_welems = run.u_welems
                u_wops = run.u_wops
                for k in run.w_ks:
                    record = records[k]
                    if record.real_state is not _HOME:
                        oid = uniq[k]
                        obj = objects[oid]
                        if obj.is_array:
                            wb = u_welems[k] * obj.jclass.element_size
                        else:
                            wb = u_wops[k] * obj.jclass.instance_size
                        record.dirty_bytes = min(
                            record.dirty_bytes + wb, obj.size_bytes
                        )
                        record.writers.add(tid)
            return
        accesses = interval.accesses
        if upto >= run.n_ops:
            # Full-run path: one zip pass over the precomputed lanes.
            # Extras are cumulative and keyed ascending, so ops before
            # the first journal entry see 0 and ops at/after the last
            # see the total — the bisect only runs for the band between.
            if ev_key:
                ev_lo = ev_key[0]
                ev_hi = ev_key[-1]
                ev_tot = ev_cum[-1]
            else:
                ev_lo = None
            lanes = zip(
                uniq,
                run.u_reads,
                run.u_writes,
                run.u_welems,
                run.u_wops,
                run.u_first,
                run.u_last,
                costed.first_base,
                costed.last_base,
                records,
            )
            for oid, r, w, we, wo, jf, li, fb, lb, record in lanes:
                k2 = 2 * li
                if ev_lo is None or k2 < ev_lo:
                    ex = 0
                elif k2 >= ev_hi:
                    ex = ev_tot
                else:
                    idx = bisect_right(ev_key, k2) - 1
                    ex = ev_cum[idx] if idx >= 0 else 0
                last_ns = clock0 + ex + lb
                summary = accesses.get(oid)
                if summary is None:
                    j2 = 2 * jf
                    if ev_lo is None or j2 < ev_lo:
                        exf = 0
                    elif j2 >= ev_hi:
                        exf = ev_tot
                    else:
                        idxf = bisect_right(ev_key, j2) - 1
                        exf = ev_cum[idxf] if idxf >= 0 else 0
                    accesses[oid] = AccessSummary(
                        oid, r, w, clock0 + exf + fb, last_ns
                    )
                else:
                    summary.reads += r
                    summary.writes += w
                    summary.last_ns = last_ns
                if w:
                    written.add(oid)
                    if record.real_state is not _HOME:
                        obj = objects[oid]
                        if obj.is_array:
                            wb = we * obj.jclass.element_size
                        else:
                            wb = wo * obj.jclass.instance_size
                        record.dirty_bytes = min(
                            record.dirty_bytes + wb, obj.size_bytes
                        )
                        record.writers.add(tid)
            return
        else:
            # Partial (migration bail-out): rescan the executed prefix.
            # First-occurrence order over a prefix is a prefix of the
            # run's uniq order, so ``records`` indexes stay aligned.
            index: dict[int, int] = {}
            u_reads, u_writes, u_welems, u_wops = [], [], [], []
            u_first, u_last = [], []
            for j in range(upto):
                op = run.ops[j]
                code = op[0]
                if code == OP_COMPUTE:
                    continue
                oid = op[1]
                k = index.get(oid)
                if k is None:
                    k = len(index)
                    index[oid] = k
                    u_reads.append(0)
                    u_writes.append(0)
                    u_welems.append(0)
                    u_wops.append(0)
                    u_first.append(j)
                    u_last.append(j)
                else:
                    u_last[k] = j
                if code == OP_WRITE:
                    u_writes[k] += op[3]
                    u_welems[k] += op[2]
                    u_wops[k] += 1
                else:
                    u_reads[k] += op[3]
            n_uniq = len(index)
        for k in range(n_uniq):
            oid = uniq[k]
            summary = accesses.get(oid)
            w = u_writes[k]
            li = u_last[k]
            idx = bisect_right(ev_key, 2 * li) - 1
            ex = ev_cum[idx] if idx >= 0 else 0
            last_ns = clock0 + ex + base[li + 1]
            if summary is None:
                jf = u_first[k]
                idxf = bisect_right(ev_key, 2 * jf) - 1
                exf = ev_cum[idxf] if idxf >= 0 else 0
                summary = AccessSummary(
                    oid, u_reads[k], w, clock0 + exf + base[jf + 1], last_ns
                )
                accesses[oid] = summary
            else:
                summary.reads += u_reads[k]
                summary.writes += w
                summary.last_ns = last_ns
            if w:
                written.add(oid)
                record = records[k]
                if record.real_state is not _HOME:
                    obj = objects[oid]
                    if obj.is_array:
                        wb = u_welems[k] * obj.jclass.element_size
                    else:
                        wb = u_wops[k] * obj.jclass.instance_size
                    record.dirty_bytes = min(record.dirty_bytes + wb, obj.size_bytes)
                    record.writers.add(tid)
