"""The DJVM facade: one object wiring cluster, global object space,
HLRC protocol, threads, migration engine and profiler hooks together —
the simulated counterpart of a booted JESSICA2 instance (paper Fig. 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dsm.hlrc import HomeBasedLRC
from repro.heap.heap import GlobalObjectSpace
from repro.heap.jclass import JClass
from repro.heap.objects import HeapObject
from repro.obs import Telemetry
from repro.runtime.interpreter import Interpreter, TimerHook
from repro.runtime.migration import MigrationEngine
from repro.runtime.thread import SimThread, ThreadState
from repro.sim.cluster import Cluster
from repro.sim.costs import CostModel, CpuAccounting
from repro.sim.network import Network, TrafficStats
from repro.sim.partition import NodeGroupPartitioner, PartitionedEventLoop


@dataclass
class RunResult:
    """Outcome of one simulated execution."""

    #: wall-clock analogue: the latest thread finish time (ms).
    execution_time_ms: float
    #: per-thread CPU accounting, keyed by thread id.
    thread_cpu: dict[int, CpuAccounting]
    #: network traffic counters for the whole run.
    traffic: TrafficStats
    #: protocol event counters (faults, diffs, invalidations, ...).
    counters: dict[str, int]
    #: total ops executed across threads.
    ops_executed: int
    #: per-thread finish times (ms).
    thread_finish_ms: dict[int, float] = field(default_factory=dict)

    @property
    def total_cpu(self) -> CpuAccounting:
        """Aggregated CPU accounting across every thread."""
        total = CpuAccounting()
        for cpu in self.thread_cpu.values():  # simlint: disable=SIM003 (keyed by thread id and populated in thread-id order)
            total.merge(cpu)
        return total

    def summary(self) -> str:
        """Human-readable one-paragraph digest."""
        total = self.total_cpu
        return (
            f"execution {self.execution_time_ms:.2f} ms | "
            f"faults {self.counters.get('faults', 0)} | "
            f"intervals {self.counters.get('intervals', 0)} | "
            f"GOS traffic {self.traffic.gos_bytes / 1024:.1f} KB | "
            f"OAL traffic {self.traffic.oal_bytes / 1024:.1f} KB | "
            f"profiling CPU {total.profiling_ns / 1e6:.2f} ms"
        )


class DJVM:
    """A simulated distributed JVM instance."""

    def __init__(
        self,
        n_nodes: int = 8,
        *,
        costs: CostModel | None = None,
        network: Network | None = None,
        keep_interval_history: bool = False,
        timeshare_nodes: bool = True,
        keep_event_trace: bool = False,
        sanitize: bool = False,
        racecheck: bool | str = False,
        telemetry=None,
        aux_capacity: int | None = None,
        kernel: str = "serial",
        partitions: int | None = None,
        replay: str = "vector",
        sampling_backend=None,
        objprof: bool = False,
        validate_effects: "bool | object" = True,
    ) -> None:
        if kernel not in ("serial", "partitioned"):
            raise ValueError(f"kernel must be 'serial' or 'partitioned', got {kernel!r}")
        if replay not in ("vector", "scalar"):
            raise ValueError(f"replay must be 'vector' or 'scalar', got {replay!r}")
        if partitions is not None and kernel != "partitioned":
            raise ValueError("partitions requires kernel='partitioned'")
        #: event kernel flavour: "serial" is the correctness oracle;
        #: "partitioned" shards the event loop into node-group partitions
        #: (conservative PDES, byte-identical pop order).
        self.kernel = kernel
        if kernel == "partitioned":
            if partitions is None:
                partitions = min(4, n_nodes)
            if not 1 <= partitions <= n_nodes:
                raise ValueError(
                    f"need 1 <= partitions <= {n_nodes} nodes, got {partitions}"
                )
        #: partition count (None under the serial kernel).
        self.partitions = partitions
        #: access replay mode handed to the interpreter ("vector" bulk
        #: replay or the "scalar" per-op oracle).
        self.replay = replay
        #: sampling-decision backend for any ProfilerSuite attached to
        #: this DJVM: None (the paper's prime-gap scheme), a registry
        #: name ("prime_gap" | "poisson" | "hash" | "hybrid"), or a
        #: ready repro.core.sampling.SamplingBackend instance.
        self.sampling_backend = sampling_backend
        #: partitioned-kernel worker certification against the committed
        #: ``effects.json``: True (load it if present), False (off), or
        #: an injected :class:`~repro.checks.effects.summary.EffectsSummary`.
        self.validate_effects = validate_effects
        self.cluster = Cluster(
            n_nodes,
            costs=costs if costs is not None else CostModel.gideon300(),
            network=network,
        )
        self.gos = GlobalObjectSpace()
        #: opt-in telemetry context (repro.obs): metrics registry plus,
        #: for "trace"/"full", the span tracer.  Pure observers on the
        #: same contract as the sanitizer and race detector — simulated
        #: results are byte-identical with telemetry on or off.
        self.telemetry = Telemetry.from_config(telemetry)
        metrics = None
        if self.telemetry is not None and self.telemetry.registry.enabled:
            metrics = self.telemetry.registry
        self.hlrc = HomeBasedLRC(
            self.gos,
            self.cluster,
            keep_interval_history=keep_interval_history,
            metrics=metrics,
        )
        if self.telemetry is not None and self.telemetry.tracer is not None:
            self.hlrc.attach_observer("tracer", self.telemetry.tracer)
        #: opt-in runtime protocol checker (repro.checks): asserts the
        #: HLRC state-machine invariants as the run executes, raising
        #: SanitizerViolation with the offending event trace.  Pure
        #: observer — simulated results are byte-identical either way.
        self.sanitizer = None
        if sanitize:
            from repro.checks.sanitizer import ProtocolSanitizer

            self.sanitizer = ProtocolSanitizer()
            self.sanitizer.attach_hlrc(self.hlrc)
            self.hlrc.attach_observer("sanitizer", self.sanitizer)
        #: opt-in happens-before race detector (repro.checks.racedetect).
        #: ``True``/"raise" raises DataRaceError at the second racing
        #: access, "collect" accumulates RaceReports in
        #: ``racedetector.reports``, "record" only records the race
        #: operation trace (``race_trace``) for offline replay.  Pure
        #: observer — simulated results are byte-identical either way.
        self.racedetector = None
        if racecheck:
            from repro.checks.racedetect import RaceDetector

            if racecheck is True or racecheck == "raise":
                self.racedetector = RaceDetector(raise_on_race=True)
            elif racecheck == "collect":
                self.racedetector = RaceDetector()
            elif racecheck == "record":
                self.racedetector = RaceDetector(detect=False, keep_trace=True)
            else:
                raise ValueError(
                    f"racecheck must be True, 'raise', 'collect' or 'record', "
                    f"got {racecheck!r}"
                )
            self.racedetector.attach_resolver(self._class_name_of)
            self.hlrc.attach_observer("racedetector", self.racedetector)
        #: opt-in object-centric inefficiency profiler (repro.obs.objprof):
        #: folds faults/diffs/invalidations into per-allocation-site
        #: lifetime profiles for the ranked `repro.obs report`.  Pure
        #: observer — simulated results are byte-identical either way.
        self.objprof = None
        if objprof:
            from repro.obs.objprof import ObjectProfiler

            self.objprof = ObjectProfiler()
            self.hlrc.attach_observer("objprof", self.objprof)
        self.migration = MigrationEngine(self.hlrc, self.cluster)
        if self.telemetry is not None:
            if self.telemetry.tracer is not None:
                self.migration.tracer = self.telemetry.tracer
            self.telemetry.bind(self)
        #: retention cap for the event kernel's aux audit channel
        #: (None = unbounded; see EventLoop.aux_capacity).
        self.aux_capacity = aux_capacity
        #: single-core nodes (paper hardware) when True; one core per
        #: thread when False.
        self.timeshare_nodes = timeshare_nodes
        #: keep the event kernel's (time_ns, kind, actor) audit trace.
        self.keep_event_trace = keep_event_trace
        self.threads: list[SimThread] = []
        self.timers: list[TimerHook] = []
        self._interpreter: Interpreter | None = None

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------

    @property
    def costs(self) -> CostModel:
        """The cluster's CPU cost model."""
        return self.cluster.costs

    def _class_name_of(self, obj_id: int) -> str:
        """Class name of one GOS object (race-report resolver)."""
        return self.gos.get(obj_id).jclass.name

    @property
    def registry(self):
        """The DJVM's class registry."""
        return self.gos.registry

    def define_class(
        self,
        name: str,
        instance_size: int = 0,
        *,
        is_array: bool = False,
        element_size: int = 0,
    ) -> JClass:
        """Define a class in the DJVM's class registry."""
        return self.gos.registry.define(
            name, instance_size, is_array=is_array, element_size=element_size
        )

    def allocate(
        self, jclass, home_node: int, *, length: int = 0, refs=(), site: str | None = None
    ) -> HeapObject:
        """Allocate a shared object homed at ``home_node`` (``site`` is
        an optional allocation-site label for per-site reports)."""
        return self.gos.allocate(jclass, home_node, length=length, refs=refs, site=site)

    def export_ir(self, programs: dict[int, object]):
        """Export the static workload IR (programs + placement + object
        graph) of this built DJVM for :mod:`repro.checks.staticflow`.

        ``programs`` iterables are compiled (and consumed) here; a
        subsequent :meth:`run` needs its own fresh streams."""
        from repro.runtime.ir import export_ir

        return export_ir(self, programs)

    def spawn_thread(self, node_id: int) -> SimThread:
        """Create one application thread on ``node_id``."""
        if not 0 <= node_id < len(self.cluster):
            raise ValueError(f"node {node_id} out of range")
        thread = SimThread(thread_id=len(self.threads), node_id=node_id)
        self.threads.append(thread)
        self.cluster[node_id].thread_ids.add(thread.thread_id)
        return thread

    def spawn_threads(
        self, n_threads: int, *, placement: str | list[int] = "round_robin"
    ) -> list[SimThread]:
        """Spawn ``n_threads`` with a placement policy: "round_robin",
        "block" (contiguous thread ranges per node, SPLASH-2 style), or
        an explicit thread->node assignment list (e.g. a partitioner's
        output)."""
        n_nodes = len(self.cluster)
        if isinstance(placement, list):
            if len(placement) != n_threads:
                raise ValueError(
                    f"placement list has {len(placement)} entries for "
                    f"{n_threads} threads"
                )
            return [self.spawn_thread(node) for node in placement]
        created = []
        for i in range(n_threads):
            if placement == "round_robin":
                node = i % n_nodes
            elif placement == "block":
                node = min(i * n_nodes // n_threads, n_nodes - 1)
            else:
                raise ValueError(f"unknown placement policy {placement!r}")
            created.append(self.spawn_thread(node))
        return created

    def add_hook(self, hook) -> None:
        """Attach a protocol hook (profiler) to the HLRC engine."""
        self.hlrc.add_hook(hook)

    def add_timer(self, timer: TimerHook) -> None:
        """Attach a timer-driven profiler component."""
        self.timers.append(timer)

    @property
    def event_trace(self) -> list[tuple[int, str, int]]:
        """The event kernel's dispatched-event trace from the last run
        (empty unless constructed with ``keep_event_trace=True``)."""
        if self._interpreter is None:
            return []
        return self._interpreter.kernel.trace

    @property
    def kernel_stats(self) -> dict[str, int] | None:
        """Partition/window statistics of the last run's event kernel
        (None before :meth:`run` or under the serial kernel)."""
        if self._interpreter is None:
            return None
        stats = getattr(self._interpreter.kernel, "stats", None)
        return stats() if stats is not None else None

    @property
    def race_trace(self) -> list[tuple]:
        """The recorded race-operation audit trace (empty unless
        constructed with ``racecheck="record"``); feed it to
        :func:`repro.checks.racedetect.replay_trace` to re-run the
        happens-before analysis offline."""
        if self.racedetector is None:
            return []
        return self.racedetector.trace

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def run(self, programs: dict[int, object]) -> RunResult:
        """Execute one program per thread to completion.

        A DJVM instance runs once: threads, heaps and protocol state are
        consumed by the run (re-running on spent threads would silently
        return an empty result, so it is rejected)."""
        spent = [t.thread_id for t in self.threads if t.state is not ThreadState.RUNNABLE]
        if spent:
            raise RuntimeError(
                f"threads {spent} already ran; build a fresh DJVM per run"
            )
        events = None
        if self.kernel == "partitioned":
            partitioner = NodeGroupPartitioner(
                len(self.cluster),
                self.partitions,
                node_of_thread=lambda tid: self.threads[tid].node_id,
                master_node=self.cluster.master_id,
            )
            events = PartitionedEventLoop(
                partitioner,
                lookahead_ns=self.cluster.network.min_latency_ns,
                keep_trace=self.keep_event_trace,
                aux_capacity=self.aux_capacity,
                validate_effects=self.validate_effects,
            )
        interp = Interpreter(
            self.hlrc,
            self.threads,
            timeshare_nodes=self.timeshare_nodes,
            events=events,
            keep_event_trace=self.keep_event_trace,
            aux_capacity=self.aux_capacity,
            sanitizer=self.sanitizer,
            racedetector=self.racedetector,
            replay=self.replay,
        )
        interp.timers = self.timers
        interp.migration_engine = self.migration
        interp.attach_programs(programs)
        self._interpreter = interp
        interp.run()
        for thread in self.threads:
            if thread.state is not ThreadState.DONE:  # pragma: no cover - guard
                raise RuntimeError(f"thread {thread.thread_id} did not finish")
        if self.sanitizer is not None:
            self.sanitizer.on_run_end(self.threads)
            self.sanitizer.sweep_heaps()
        finish = {t.thread_id: t.clock.now_ms for t in self.threads}
        return RunResult(
            execution_time_ms=max(finish.values()),
            thread_cpu={t.thread_id: t.cpu for t in self.threads},
            traffic=self.cluster.network.stats,
            counters=dict(self.hlrc.counters),
            ops_executed=interp.ops_executed,
            thread_finish_ms=finish,
        )
