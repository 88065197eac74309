"""Online rebalancing: the full profile-to-migration loop, live.

The paper positions its profilers as inputs to "an advanced load
balancing policy" (Section VI).  :class:`OnlineRebalancer` is that loop
wired together: once enough intervals have been profiled, it takes the
accrued TCM, asks the :class:`~repro.placement.balancer.
CorrelationAwareBalancer` for profitable moves (priced by the migration
cost model against each thread's sticky footprint), and schedules them
on the :class:`~repro.runtime.migration.MigrationEngine` — optionally
prefetching each migrant's resolved sticky set.
"""

from __future__ import annotations

from repro.core.profiler import ProfilerSuite
from repro.obs.metrics import NULL_REGISTRY
from repro.placement.balancer import CorrelationAwareBalancer, MigrationProposal
from repro.runtime.interpreter import NO_DEADLINE_NS
from repro.runtime.migration import MigrationEngine, MigrationPlan
from repro.runtime.thread import SimThread


class OnlineRebalancer:
    """Timer hook: fire the balancer once profiling has warmed up."""

    def __init__(
        self,
        suite: ProfilerSuite,
        balancer: CorrelationAwareBalancer,
        migration: MigrationEngine,
        *,
        warmup_intervals: int = 4,
        prefetch_sticky: bool = False,
        max_migrations: int | None = None,
    ) -> None:
        if warmup_intervals < 1:
            raise ValueError(f"warmup must be >= 1 interval, got {warmup_intervals}")
        self.suite = suite
        self.balancer = balancer
        self.migration = migration
        self.warmup_intervals = warmup_intervals
        self.prefetch_sticky = prefetch_sticky
        self.max_migrations = max_migrations
        self.fired = False
        self.proposals: list[MigrationProposal] = []
        # Metric handles come from the DJVM's telemetry registry when one
        # is configured, else the shared no-op registry — the call sites
        # never branch on whether telemetry is on.
        telemetry = getattr(suite.djvm, "telemetry", None)
        registry = telemetry.registry if telemetry is not None else NULL_REGISTRY
        self._c_fired = registry.counter(
            "placement_rebalance_fired_total", "online rebalancer activations"
        )
        self._c_scheduled = registry.counter(
            "placement_migrations_scheduled_total", "migrations the rebalancer queued"
        )

    # -- TimerHook interface ------------------------------------------------

    def maybe_fire(self, thread: SimThread) -> None:
        """TimerHook: fire once the polled thread has warmed up."""
        if self.fired or thread.interval_counter < self.warmup_intervals:
            return
        self.fired = True
        self._c_fired.inc()
        self._rebalance()

    def next_fire_ns(self, thread: SimThread) -> int:
        """Deadline API: 0 (due now) once ``thread`` has warmed up and
        the rebalancer has not fired, else a far-future sentinel.

        The firing condition is interval-driven, and intervals only open
        at synchronization, so the deadline can only move when a sync op
        completes — the interpreter re-reads deadlines there, which fires
        the rebalancer at exactly the op per-op polling would."""
        if self.fired or thread.interval_counter < self.warmup_intervals:
            return NO_DEADLINE_NS
        return 0

    def _rebalance(self) -> None:
        djvm = self.suite.djvm
        tcm = self.suite.tcm()
        placement = {t.thread_id: t.node_id for t in djvm.threads}
        footprints = {}
        stack_slots = {}
        if self.suite.footprinter is not None:
            for t in djvm.threads:
                fp = self.suite.footprinter.recent_footprint(t.thread_id)
                if fp:
                    footprints[t.thread_id] = fp
                stack_slots[t.thread_id] = t.stack.total_slots()
        self.proposals = self.balancer.propose(
            tcm,
            placement,
            len(djvm.cluster),
            footprints=footprints or None,
            stack_slots=stack_slots or None,
            max_proposals=self.max_migrations,
        )
        for prop in self.proposals:
            provider = None
            if self.prefetch_sticky and self.suite.stack_sampler is not None:
                suite = self.suite

                def provider(thread, _suite=suite):
                    return _suite.resolve_sticky_set(thread).selected

            self.migration.schedule(
                MigrationPlan(
                    thread_id=prop.thread_id,
                    target_node=prop.to_node,
                    prefetch_provider=provider,
                )
            )
            self._c_scheduled.inc()
