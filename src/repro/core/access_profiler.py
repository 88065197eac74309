"""Fine-grained active correlation tracking (paper Section II.A).

The profiler rides on the HLRC protocol's at-most-once property:

* On **interval open**, every sampled object the thread accessed in its
  previous interval is reset to *false-invalid* — the visible state bits
  are forced invalid while the real state moves to a side field — so the
  next access traps into the GOS service routine regardless of real
  coherence state.
* On an **access trap** to a sampled object (real fault or
  false-invalid), the access is appended to the thread's per-interval
  object access list (OAL), the false-invalid state is cancelled, and
  the real state is honoured.  Subsequent accesses in the same interval
  run the inlined fast path untouched.
* On **interval close**, the OAL is packed into a jumbo message for the
  master's correlation collector, piggybacked on the lock/barrier
  message when that synchronization already targets the master.

Cost accounting reproduces the paper's overhead decomposition: O1 (CPU
for generating OALs) lands in ``cpu.oal_logging_ns`` /
``cpu.oal_packing_ns``, O2 (network) in the OAL traffic counters, O3
(TCM construction) in the collector.
"""

from __future__ import annotations

from repro.core.oal import OALBatch, OALEntry

_tuple_new = tuple.__new__
from repro.core.sampling import SamplingPolicy
from repro.dsm.intervals import IntervalRecord
from repro.heap.objects import HeapObject
from repro.sim.cluster import Cluster
from repro.sim.network import MessageKind


class AccessProfiler:
    """Protocol hook implementing sampled, at-most-once access logging."""

    def __init__(
        self,
        policy: SamplingPolicy,
        cluster: Cluster,
        *,
        collector=None,
        send_oals: bool = True,
        piggyback: bool = True,
        enabled: bool = True,
    ) -> None:
        self.policy = policy
        self.cluster = cluster
        self.costs = cluster.costs
        # Hot-path aliases (the cost model is frozen; the policy's state
        # containers are mutated in place, never replaced).
        self._gap_table = policy.gap_table
        self._policy_states = policy._states
        self._backend = policy.backend
        self._log_ns_fault = self.costs.oal_log_ns
        self._log_ns_trap = self.costs.gos_trap_ns + self.costs.oal_log_ns
        #: transient decision table for stateless backends, filled by the
        #: vector engine's decide_batch lane (prime_batch) and keyed to
        #: the policy's change generation; never consulted by the
        #: default memoized backend, whose per-class epoch memo already
        #: serves the same role.
        self._primed: dict[int, tuple[bool, int, int]] = {}
        self._primed_gen = -1
        #: advertises the decide_batch lane to the vector engine.
        self.wants_batch_prime = not self._backend.memoized
        if self.wants_batch_prime:
            # Shadow the bound method with the stateless variant; the
            # protocol's dispatch plan resolves the hook via getattr, so
            # the instance attribute wins and the default path stays
            # branch-for-branch identical.
            self.fast_on_access = self._fast_on_access_stateless
        #: destination daemon; anything with a ``deliver(OALBatch)`` method.
        self.collector = collector
        #: when False, OALs are generated and costed but never sent (the
        #: paper's O1-isolation methodology for Table II).
        self.send_oals = send_oals
        self.piggyback = piggyback
        self.enabled = enabled
        #: thread_id -> {obj_id: OALEntry} for the open interval (entries
        #: are built at log time so interval close ships them verbatim).
        self._current: dict[int, dict[int, OALEntry]] = {}
        #: thread_id -> object ids logged in the *previous* interval
        #: (these are the ones reset to false-invalid at open).
        self._previous: dict[int, set[int]] = {}
        #: node_id -> class ids with a pending resampling pass.
        self._pending_resample: dict[int, set[int]] = {}
        #: counters for reporting.
        self.total_logged = 0
        self.total_batches = 0
        self.resample_passes = 0
        #: opt-in protocol sanitizer; observes OAL appends (at-most-once).
        self.sanitizer = None
        #: opt-in span tracer (repro.obs): pure observer emitting one
        #: ``oal_flush`` span per shipped batch.
        self.tracer = None
        #: opt-in object-centric profiler (repro.obs.objprof): pure
        #: observer fed each closed interval's OAL entries, whose
        #: ``scaled_bytes`` carry the backend's Horvitz–Thompson weights.
        self.objprof = None

    # ------------------------------------------------------------------
    # rate changes
    # ------------------------------------------------------------------

    def notify_rate_change(self, jclass) -> None:
        """Schedule the cluster-wide resampling pass a gap change requires:
        every node must re-tag its cached objects of the class.  The cost
        is charged to each node's next syncing thread (the paper measures
        this at under 0.1% of CPU time).  Stateless backends re-derive
        decisions from immutable object identity, so there are no
        per-object sample tags to re-tag — only the primed decision
        table is dropped and no pass is charged."""
        if not self._backend.needs_resample_pass:
            self._primed.clear()
            return
        for node in self.cluster.nodes:
            self._pending_resample.setdefault(node.node_id, set()).add(jclass.class_id)

    def _charge_pending_resample(self, thread) -> None:
        pending = self._pending_resample.get(thread.node_id)
        if not pending:
            return
        gos = getattr(self.collector, "gos", None)
        n_objects = 0
        # Sorted so the per-class registry walk is deterministic (SIM003).
        for class_id in sorted(pending):
            if gos is not None:
                jclass = gos.registry.by_id(class_id)
                n_objects += len(gos.objects_of_class(jclass))
            else:
                n_objects += 1
        pending.clear()
        ns = n_objects * self.costs.sample_check_ns
        thread.cpu.resampling_ns += ns
        thread.clock.advance(ns)
        self.resample_passes += 1

    # ------------------------------------------------------------------
    # ProtocolHooks interface
    # ------------------------------------------------------------------

    def on_interval_open(self, thread) -> None:
        """ProtocolHooks: a new HLRC interval just opened for ``thread``."""
        if not self.enabled:
            return
        tid = thread.thread_id
        self._current[tid] = {}
        self._charge_pending_resample(thread)
        # Reset last interval's logged objects to false-invalid.
        prev = self._previous.get(tid)
        if prev:
            ns = len(prev) * self.costs.false_invalid_reset_ns
            thread.cpu.oal_logging_ns += ns
            thread.clock.advance(ns)

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
        self.fast_on_access(thread, obj, real_fault)

    def fast_on_access(self, thread, obj: HeapObject, real_fault: bool) -> None:
        """Positional first-touch form of :meth:`on_access` (the
        sampled-logging decision depends only on the object and whether
        the access really faulted, and at-most-once logging makes every
        later touch in the interval a no-op); the protocol's access
        dispatch calls this directly, on interval-first touches only."""
        if not self.enabled:
            return
        oal = self._current.get(thread.thread_id)
        if oal is None:
            return
        obj_id = obj.obj_id
        if obj_id in oal:
            return  # at-most-once per interval: fast path, zero extra cost
        jclass = obj.jclass
        class_id = jclass.class_id
        if self._gap_table.get(class_id, 1) == 1:
            # Fully-sampled class (the precomputed gap table answers this
            # without touching per-object state): every object is logged
            # and the Horvitz-Thompson scale factor is 1.
            scaled = obj.length * jclass.element_size if obj.is_array else jclass.instance_size
        else:
            # One memoized lookup answers sampled/logged/scaled together
            # (epoch-cached; see SamplingPolicy.decision).  Probe the
            # per-class memo inline; fall back to decision() on a miss
            # or a stale cache.
            st = self._policy_states[class_id]
            dec = st.decisions.get(obj_id) if st.cache_epoch == st.epoch else None
            if dec is None:
                dec = self.policy.decision(obj)
            sampled, _logged, scaled = dec
            if not sampled:
                return
        # Trap into the GOS service routine.  A real fault already paid
        # the trap on the coherence path; false-invalid pays it here.
        ns = self._log_ns_fault if real_fault else self._log_ns_trap
        thread.cpu.oal_logging_ns += ns
        thread.clock._now_ns += ns
        # tuple.__new__ skips the generated NamedTuple __new__ (a
        # Python-level function); this is the hottest allocation in a
        # fully-sampled run.
        oal[obj_id] = _tuple_new(OALEntry, (obj_id, scaled, class_id))
        self.total_logged += 1
        if self.sanitizer is not None:
            self.sanitizer.on_oal_log(
                thread, thread.current_interval.interval_id, obj_id
            )

    def _fast_on_access_stateless(self, thread, obj: HeapObject, real_fault: bool) -> None:
        """The stateless-backend twin of :meth:`fast_on_access`: probes
        the run-primed decision table (filled by the vector engine's
        decide_batch lane) instead of the per-class epoch memo, falling
        back to a fresh backend decision — a pure function of object
        identity — on a miss.  Installed as an instance attribute at
        construction when the policy's backend is not memoized."""
        if not self.enabled:
            return
        oal = self._current.get(thread.thread_id)
        if oal is None:
            return
        obj_id = obj.obj_id
        if obj_id in oal:
            return  # at-most-once per interval: fast path, zero extra cost
        jclass = obj.jclass
        class_id = jclass.class_id
        if self._gap_table.get(class_id, 1) == 1:
            # Fully-sampled class: identical across backends (every
            # scheme selects everything at gap 1 with scale factor 1).
            scaled = obj.length * jclass.element_size if obj.is_array else jclass.instance_size
        else:
            if self._primed_gen != self.policy.rate_changes:
                self._primed.clear()
                self._primed_gen = self.policy.rate_changes
            dec = self._primed.get(obj_id)
            if dec is None:
                dec = self._backend.decide(obj)
            sampled, _logged, scaled = dec
            if not sampled:
                return
        ns = self._log_ns_fault if real_fault else self._log_ns_trap
        thread.cpu.oal_logging_ns += ns
        thread.clock._now_ns += ns
        oal[obj_id] = _tuple_new(OALEntry, (obj_id, scaled, class_id))
        self.total_logged += 1
        if self.sanitizer is not None:
            self.sanitizer.on_oal_log(
                thread, thread.current_interval.interval_id, obj_id
            )

    def prime_batch(self, objs) -> None:
        """The vector engine's decide_batch lane: pre-compute sampling
        decisions for a run's distinct objects in one backend batch,
        cached until the next rate change.  Host-side only — simulated
        costs are charged where the decisions are consumed, so replay
        modes stay byte-identical."""
        if self._primed_gen != self.policy.rate_changes:
            self._primed.clear()
            self._primed_gen = self.policy.rate_changes
        primed = self._primed
        todo = [obj for obj in objs if obj.obj_id not in primed]
        if not todo:
            return
        for obj, dec in zip(todo, self._backend.decide_batch(todo)):
            primed[obj.obj_id] = dec

    def on_interval_close(
        self, thread, interval: IntervalRecord, sync_dst: int | None
    ) -> None:
        """ProtocolHooks: ``thread`` closed ``interval``."""
        if not self.enabled:
            return
        tid = thread.thread_id
        oal = self._current.pop(tid, None)
        if oal is None:
            return
        self._previous[tid] = set(oal)
        if not oal:
            return
        batch = OALBatch(
            thread_id=tid,
            interval_id=interval.interval_id,
            start_pc=interval.start_pc,
            end_pc=interval.end_pc,
        )
        batch.entries.extend(oal.values())
        flush_begin_ns = thread.clock.now_ns
        # Pack the jumbo message.
        pack_ns = len(batch) * self.costs.oal_pack_ns_per_entry
        thread.cpu.oal_packing_ns += pack_ns
        thread.clock.advance(pack_ns)
        self.total_batches += 1

        if self.send_oals:
            master = self.cluster.master_id
            piggy = self.piggyback and sync_dst == master
            self.cluster.network.send(
                MessageKind.OAL,
                thread.node_id,
                master,
                batch.wire_bytes,
                thread.clock.now_ns,
                piggybacked=piggy,
            )
            # OAL shipping is asynchronous (piggybacked on the outgoing
            # sync message when possible); the sender pays only the
            # serialization time, never the wire latency.
            serialize_ns = self.cluster.network.transfer_time_ns(
                batch.wire_bytes, piggybacked=True
            )
            thread.cpu.network_wait_ns += serialize_ns
            thread.clock.advance(serialize_ns)
            # The master's NIC must also serialize the burst before the
            # next barrier release can go out (remote senders only).
            if thread.node_id != master:
                self.cluster.network.add_ingress_backlog(master, serialize_ns)
        if self.tracer is not None:
            self.tracer.oal_flush(
                thread, len(batch), batch.wire_bytes, flush_begin_ns, thread.clock.now_ns
            )
        if self.objprof is not None:
            self.objprof.on_oal_batch(thread.node_id, batch.entries)
        if self.collector is not None:
            self.collector.deliver(batch, now_ns=thread.clock.now_ns)
