"""Tests for the online rebalancer (profile -> balancer -> migration),
including the paper's Section VI "home effect" caveat: migrating
correlated threads together without re-homing their data can *increase*
traffic, and combining the rebalancer with home migration fixes it."""

import dataclasses

import pytest

from repro.core.costmodel import MigrationCostModel
from repro.core.profiler import ProfilerSuite
from repro.dsm.homemigration import DominantWriterPolicy, HomeMigrationEngine
from repro.placement.balancer import CorrelationAwareBalancer
from repro.placement.runtime_balancer import OnlineRebalancer
from repro.runtime import program as P
from repro.runtime.djvm import DJVM
from repro.runtime.interpreter import NO_DEADLINE_NS
from repro.sim.costs import CostModel
from repro.workloads import GroupSharingWorkload

from tests.conftest import simple_class, wrap_main


def scrambled_placement(n_threads: int, n_nodes: int) -> list[int]:
    """Worst-case start: group partners land on different nodes."""
    return [t % n_nodes for t in range(n_threads)]


def run(*, rebalance: bool, home_migration: bool = False, rounds: int = 12):
    wl = GroupSharingWorkload(
        n_threads=8,
        group_size=2,
        objects_per_group=128,
        private_per_thread=16,
        object_size=256,
        rounds=rounds,
        group_writes=True,  # producer/consumer: placement has recurring value
        seed=4,
    )
    djvm = DJVM(n_nodes=4, costs=CostModel.fast_test())
    wl.build(djvm, placement=scrambled_placement(8, 4))
    suite = ProfilerSuite(djvm, correlation=True, send_oals=False)
    suite.set_rate_all(4)
    rebalancer = None
    if rebalance:
        balancer = CorrelationAwareBalancer(
            MigrationCostModel(djvm.cluster.network, djvm.costs),
            horizon_intervals=max(2 * rounds, 20),
        )
        rebalancer = OnlineRebalancer(
            suite, balancer, djvm.migration, warmup_intervals=3
        )
        djvm.add_timer(rebalancer)
    if home_migration:
        engine = HomeMigrationEngine(djvm.hlrc)
        djvm.add_hook(
            DominantWriterPolicy(engine, threshold=0.6, min_writes=3, cooldown_intervals=4)
        )
    result = djvm.run(wl.programs())
    return wl, djvm, result, rebalancer


class TestOnlineRebalancer:
    def test_fires_once_after_warmup(self):
        wl, djvm, result, rb = run(rebalance=True)
        assert rb.fired
        assert rb.proposals, "expected profitable moves from a scrambled start"

    def test_migrations_executed(self):
        wl, djvm, result, rb = run(rebalance=True)
        assert len(djvm.migration.results) == len(rb.proposals)
        moved = {r.thread_id for r in djvm.migration.results}
        assert moved == {p.thread_id for p in rb.proposals}

    def test_partners_colocated_after_rebalance(self):
        wl, djvm, result, rb = run(rebalance=True)
        placement = {t.thread_id: t.node_id for t in djvm.threads}
        colocated = sum(
            1 for g in range(4) if placement[2 * g] == placement[2 * g + 1]
        )
        assert colocated >= 3

    def test_home_effect_pathology_and_its_fix(self):
        """The Section VI caveat, reproduced and resolved:

        * rebalancing alone moves both partners away from their objects'
          homes — recurring diffs/faults now cross the wire twice, and
          traffic does NOT improve;
        * rebalancing + dominant-writer home migration re-homes the data
          to the co-located node and beats the baseline.
        """
        _, _, base, _ = run(rebalance=False)
        _, _, moved_only, _ = run(rebalance=True)
        _, djvm, moved_homed, _ = run(rebalance=True, home_migration=True)

        # The pathology: migration without re-homing fails to cut traffic.
        assert moved_only.traffic.gos_bytes > 0.8 * base.traffic.gos_bytes
        # The fix: with home migration the combination wins clearly.
        assert moved_homed.traffic.gos_bytes < 0.8 * base.traffic.gos_bytes
        assert moved_homed.traffic.gos_bytes < moved_only.traffic.gos_bytes

    def test_invalid_warmup_rejected(self):
        wl = GroupSharingWorkload(n_threads=4, group_size=2, rounds=2)
        djvm = DJVM(n_nodes=2, costs=CostModel.fast_test())
        wl.build(djvm)
        suite = ProfilerSuite(djvm, send_oals=False)
        balancer = CorrelationAwareBalancer(
            MigrationCostModel(djvm.cluster.network, djvm.costs)
        )
        with pytest.raises(ValueError):
            OnlineRebalancer(suite, balancer, djvm.migration, warmup_intervals=0)

    def test_no_proposals_no_migrations(self):
        """With negligible sharing, the balancer proposes nothing and no
        thread moves."""
        wl = GroupSharingWorkload(
            n_threads=8,
            group_size=2,
            objects_per_group=1,
            private_per_thread=64,
            object_size=16,
            rounds=6,
            seed=4,
        )
        djvm = DJVM(n_nodes=4, costs=CostModel.fast_test())
        wl.build(djvm, placement=scrambled_placement(8, 4))
        suite = ProfilerSuite(djvm, send_oals=False)
        suite.set_rate_all(4)
        balancer = CorrelationAwareBalancer(
            MigrationCostModel(djvm.cluster.network, djvm.costs), horizon_intervals=2
        )
        rb = OnlineRebalancer(suite, balancer, djvm.migration, warmup_intervals=3)
        djvm.add_timer(rb)
        djvm.run(wl.programs())
        assert rb.fired
        assert djvm.migration.results == []


class RecordingRebalancer(OnlineRebalancer):
    """Records the (thread, pc, clock) at which the rebalancer fires."""

    fire_point = None

    def maybe_fire(self, thread):
        fired = self.fired
        super().maybe_fire(thread)
        if self.fired and not fired:
            self.fire_point = (thread.thread_id, thread.pc, thread.clock.now_ns)


class PollOnly:
    """Shim without ``next_fire_ns``: the interpreter polls it per op."""

    def __init__(self, inner):
        self.inner = inner

    def maybe_fire(self, thread):
        self.inner.maybe_fire(thread)


def run_locked(*, poll_only: bool, warmup: int):
    """Partner threads placed on different nodes update their pair's
    objects inside lock sections.  There are no barriers, so every
    interval opens at an acquire or a release and warm-up always ends at
    one; each thread has its own lock, so no acquire blocks and the
    warm-up-ending op completes inside its segment."""
    djvm = DJVM(n_nodes=2, costs=CostModel.fast_test())
    cls = simple_class(djvm, "Obj", 256)
    groups = [[djvm.allocate(cls, g % 2).obj_id for _ in range(16)] for g in range(2)]
    djvm.spawn_threads(4, placement=[0, 1, 0, 1])  # partners (0,1), (2,3) split
    suite = ProfilerSuite(djvm, correlation=True, stack=True, send_oals=False)
    suite.set_rate_all(4)
    balancer = CorrelationAwareBalancer(
        MigrationCostModel(djvm.cluster.network, djvm.costs), horizon_intervals=40
    )
    rebalancer = RecordingRebalancer(suite, balancer, djvm.migration, warmup_intervals=warmup)
    djvm.add_timer(PollOnly(rebalancer) if poll_only else rebalancer)
    programs = {}
    for tid in range(4):
        group = groups[tid // 2]
        ops = [P.compute(100_000_000)] if tid % 2 else []  # odd partners lag
        for r in range(10):
            ops.append(P.acquire(tid))
            ops += [P.read(oid) for oid in group]
            ops += [P.write(oid) for oid in group[r % 2 :: 2]]
            ops.append(P.release(tid))
            ops.append(P.compute(200_000_000))  # 2 ms at fast_test scale
        programs[tid] = wrap_main(ops)
    djvm.run(programs)
    tid, pc, _ = rebalancer.fire_point
    return {
        "fire_point": rebalancer.fire_point,
        "fire_after_op": djvm.threads[tid].program.ops[pc - 1][0],
        "migrations": [dataclasses.astuple(m) for m in djvm.migration.results],
        "clocks": [t.clock.now_ns for t in djvm.threads],
        "cpu": [dataclasses.astuple(t.cpu) for t in djvm.threads],
        "tcm": suite.tcm().tobytes(),
    }


class TestDeadlineDrivenRebalancer:
    def test_deadline_api(self):
        djvm = DJVM(n_nodes=2, costs=CostModel.fast_test())
        (thread,) = djvm.spawn_threads(1)
        suite = ProfilerSuite(djvm, send_oals=False)
        balancer = CorrelationAwareBalancer(
            MigrationCostModel(djvm.cluster.network, djvm.costs)
        )
        rb = OnlineRebalancer(suite, balancer, djvm.migration, warmup_intervals=2)
        thread.interval_counter = 1
        assert rb.next_fire_ns(thread) == NO_DEADLINE_NS  # not warmed up
        thread.interval_counter = 2
        assert rb.next_fire_ns(thread) == 0  # due now
        rb.maybe_fire(thread)
        assert rb.fired
        assert rb.next_fire_ns(thread) == NO_DEADLINE_NS  # fires once

    @pytest.mark.parametrize(
        "warmup,sync_op",
        [(4, P.OP_ACQUIRE), (5, P.OP_RELEASE)],
        ids=["ends-at-acquire", "ends-at-release"],
    )
    def test_fires_where_per_op_polling_fires(self, warmup, sync_op):
        """Warm-up ends at an acquire (even counts: the initial interval
        plus an acquire/release pair per section) or at a release (odd
        counts); the deadline-driven rebalancer must fire right after
        that op, at the same thread, pc and clock as per-op polling."""
        deadline = run_locked(poll_only=False, warmup=warmup)
        polled = run_locked(poll_only=True, warmup=warmup)
        assert deadline == polled
        assert deadline["migrations"], "expected the split partners to be moved"
        assert deadline["fire_after_op"] == sync_op
