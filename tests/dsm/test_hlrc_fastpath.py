"""The HLRC access fast path must be observationally transparent.

The engine dispatches each hook through the cheapest entry point it
offers: positional ``fast_on_access`` (the first-touch contract: fired
once per (interval, object)), positional ``track_access`` (every
access), or the generic keyword fan-out (every access).  Registering a
second, inert keyword hook forces the generic route for everything but
the first-touch profiler, and thin keyword-only wrappers force it for
every hook, so running the same program both ways and comparing
protocol counters, per-thread clocks, CPU buckets, the TCM, footprints
and logging totals pins down that the positional routes change
*nothing* the simulation can observe — in either registration order,
and including when prefetch bundles satisfy accesses that would
otherwise fault.
"""

import dataclasses

import pytest

from repro.core.profiler import ProfilerSuite
from repro.runtime import program as P
from repro.runtime.djvm import DJVM
from repro.sim.costs import CostModel
from repro.sim.network import MessageKind

from tests.conftest import simple_class, wrap_main


class NullHook:
    """Cost-free hook whose only effect is forcing the generic fan-out
    (it does not provide ``fast_on_access``)."""

    def on_interval_open(self, thread):
        pass

    def on_access(self, thread, obj, **kw):
        pass

    def on_interval_close(self, thread, interval, sync_dst):
        pass


class KeywordOnly:
    """Thin wrapper exposing only the keyword ``on_access`` form, so the
    engine takes the generic fan-out for the wrapped hook."""

    def __init__(self, hook):
        self.hook = hook

    def on_interval_open(self, thread):
        self.hook.on_interval_open(thread)

    def on_access(self, thread, obj, **kw):
        self.hook.on_access(thread, obj, **kw)

    def on_interval_close(self, thread, interval, sync_dst):
        self.hook.on_interval_close(thread, interval, sync_dst)


class StubPrefetcher:
    """Always bundles a fixed set of objects into any fault reply."""

    def __init__(self, extras):
        self.extras = extras

    def bundle_for(self, thread, obj):
        return [e for e in self.extras if e.obj_id != obj.obj_id]


def run_scenario(
    *,
    force_fanout: bool = False,
    with_prefetch: bool = False,
    footprint_order: str | None = None,
    keyword_only: bool = False,
):
    """Two nodes ping-ponging writes over shared objects; returns every
    observable the fast path could perturb.

    Without ``footprint_order`` the profiler runs alone under full
    sampling.  With it, the profiler and the sticky-set footprinter are
    both attached — ``"profiler_first"`` or ``"footprinter_first"`` —
    at a partial rate, and the program re-touches objects across 1 ms
    footprint phases inside each interval; ``keyword_only`` wraps both
    hooks so they take the generic fan-out."""
    djvm = DJVM(n_nodes=2, costs=CostModel.fast_test())
    cls = simple_class(djvm, "Obj", 64)
    n_objs = 4 if footprint_order is None else 8
    objs = [djvm.allocate(cls, i % 2) for i in range(n_objs)]
    djvm.spawn_threads(2)
    if footprint_order is None:
        suite = ProfilerSuite(djvm, correlation=True)
        suite.set_full_sampling()
    else:
        # Capture the suite's hooks instead of registering them, then
        # register them in the requested order (wrapped or not).
        captured = []
        djvm.add_hook = captured.append
        suite = ProfilerSuite(djvm, correlation=True, footprint=True)
        del djvm.add_hook
        if footprint_order == "footprinter_first":
            captured.reverse()
        for hook in captured:
            djvm.add_hook(KeywordOnly(hook) if keyword_only else hook)
        suite.set_rate_all(20)  # gap 3: some objects sampled, some not
    if force_fanout:
        djvm.add_hook(NullHook())
    if with_prefetch:
        djvm.hlrc.prefetcher = StubPrefetcher(objs)
    ids = [o.obj_id for o in objs]
    if footprint_order is None:
        programs = {
            0: wrap_main(
                [P.read(ids[0]), P.write(ids[1]), P.barrier(0)]
                + [P.read(ids[2], repeat=5), P.write(ids[0]), P.barrier(1)]
                + [P.read(ids[1]), P.read(ids[3]), P.barrier(2)]
            ),
            1: wrap_main(
                [P.read(ids[1]), P.write(ids[0]), P.barrier(0)]
                + [P.read(ids[3], repeat=5), P.write(ids[2]), P.barrier(1)]
                + [P.read(ids[0]), P.read(ids[2]), P.barrier(2)]
            ),
        }
    else:
        programs = {}
        for tid in (0, 1):
            ops = []
            for b in range(3):
                mine = ids[(tid + b) % 2 :: 2]
                for _ in range(3):  # three touches, each in a new 1 ms phase
                    ops += [P.read(oid, repeat=2) for oid in ids]
                    ops += [P.write(oid) for oid in mine]
                    ops.append(P.compute(150_000_000))  # 1.5 ms at fast_test scale
                ops.append(P.barrier(b))
            programs[tid] = wrap_main(ops)
    djvm.run(programs)
    out = {
        "counters": dict(djvm.hlrc.counters),
        "clocks": [t.clock.now_ns for t in djvm.threads],
        "cpu_oal_ns": [t.cpu.oal_logging_ns for t in djvm.threads],
        "logged": suite.access_profiler.total_logged,
        "fetches": djvm.cluster.network.stats.count_by_kind.get(
            MessageKind.OBJECT_FETCH_DATA, 0
        ),
    }
    if footprint_order is not None:
        fp = suite.footprinter
        out["cpu"] = [dataclasses.astuple(t.cpu) for t in djvm.threads]
        out["tcm"] = suite.tcm().tobytes()
        out["footprints"] = fp.interval_footprints
        out["tracked"] = (fp.tracked_accesses, fp.interval_tracked)
    return out


class TestFastDispatchTransparency:
    def test_counters_and_clocks_match_generic_fanout(self):
        fast = run_scenario(force_fanout=False)
        slow = run_scenario(force_fanout=True)
        assert fast == slow
        # The scenario actually exercises the interesting machinery.
        assert fast["counters"]["faults"] > 0
        assert fast["counters"]["invalidations"] > 0
        assert fast["logged"] > 0

    @pytest.mark.parametrize("order", ["profiler_first", "footprinter_first"])
    def test_profiler_and_footprinter_match_keyword_fanout(self, order):
        """Two hooks on their positional routes (first-touch profiler,
        every-access footprinter) replay the keyword fan-out exactly."""
        fast = run_scenario(footprint_order=order)
        slow = run_scenario(footprint_order=order, keyword_only=True)
        assert fast == slow
        # Both hooks did observable work, including repeated tracking
        # and skipping unsampled objects (each of the 2 threads touches
        # all 8 objects in each of its 3 barrier intervals).
        assert 0 < fast["logged"] < 2 * 3 * 8
        assert fast["tracked"][0] > 0
        assert any(fp for fps in fast["footprints"].values() for fp in fps)

    def test_first_touch_contract_with_two_hooks(self):
        """With two hooks attached, the profiler still sees only an
        object's first touch in an interval: a rate change between the
        first and second touch does not log the object, while the
        every-access footprinter tracks it under the new rate."""
        djvm = DJVM(n_nodes=1, costs=CostModel.fast_test())
        cls = simple_class(djvm, "Obj", 64)
        objs = [djvm.allocate(cls, 0) for _ in range(3)]
        (thread,) = djvm.spawn_threads(1)
        suite = ProfilerSuite(djvm, correlation=True, footprint=True)
        suite.set_rate_all(20)  # gap 3
        obj = next(o for o in objs if not suite.policy.decision(o)[0])
        hlrc = djvm.hlrc
        hlrc.open_interval(thread)
        hlrc.access(thread, obj.obj_id)  # first touch: unsampled, not logged
        assert suite.footprinter.tracked_accesses == 0
        suite.set_full_sampling()  # now every object is sampled
        hlrc.access(thread, obj.obj_id)  # second touch, same interval
        assert suite.access_profiler.total_logged == 0
        assert obj.obj_id not in suite.access_profiler._current[thread.thread_id]
        assert suite.footprinter.tracked_accesses == 1
        # The next interval's first touch logs it under the new rate.
        hlrc.close_interval(thread, "test")
        hlrc.open_interval(thread)
        hlrc.access(thread, obj.obj_id)
        assert suite.access_profiler.total_logged == 1

    def test_prefetch_bundle_hits_match_generic_fanout(self):
        fast = run_scenario(force_fanout=False, with_prefetch=True)
        slow = run_scenario(force_fanout=True, with_prefetch=True)
        assert fast == slow
        # Bundles satisfy accesses that fault without prefetching.
        plain = run_scenario(force_fanout=False)
        assert fast["counters"]["faults"] < plain["counters"]["faults"]

    def test_valid_copy_hit_adds_no_protocol_work(self):
        """Re-reading a valid copy must not fault, invalidate, or send."""
        djvm = DJVM(n_nodes=2, costs=CostModel.fast_test())
        cls = simple_class(djvm, "Obj", 64)
        obj = djvm.allocate(cls, 0)
        djvm.spawn_threads(2)
        djvm.run(
            {
                0: wrap_main([P.barrier(0)]),
                1: wrap_main([P.read(obj.obj_id)] * 50 + [P.barrier(0)]),
            }
        )
        assert djvm.hlrc.counters["faults"] == 1
        fetches = djvm.cluster.network.stats.count_by_kind.get(
            MessageKind.OBJECT_FETCH_DATA, 0
        )
        assert fetches == 1
