"""The HLRC access fast path must be observationally transparent.

The engine dispatches each hook through the cheapest entry point it
offers: positional ``fast_on_access`` (the first-touch contract: fired
once per (interval, object)), positional ``track_access`` (the re-arm
contract: fired on the first touch, then only once the deadline it
returned has passed), or the generic keyword fan-out (every access).
Registering a second, inert keyword hook forces the generic route for
everything but the first-touch profiler, and thin keyword-only wrappers
force it for every hook, so running the same program both ways and
comparing protocol counters, per-thread clocks, CPU buckets, the TCM,
footprints and logging totals pins down that the positional routes
change *nothing* the simulation can observe — in either registration
order, behind a clock-advancing keyword hook, in timer mode, across a
mid-interval rate change, and including when prefetch bundles satisfy
accesses that would otherwise fault.
"""

import dataclasses

import pytest

from repro.core.footprint import StickySetFootprinter
from repro.core.profiler import ProfilerSuite
from repro.core.sampling import SamplingPolicy
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


class ClockBump(NullHook):
    """Keyword hook that advances the thread's clock on every access, so
    a later every-access hook in the plan runs at a later time than the
    access began (it can cross a footprint phase boundary)."""

    def on_access(self, thread, obj, **kw):
        thread.clock._now_ns += 350_000


class RateFlip:
    """Polled timer that switches every class to full sampling once,
    at the first op after any thread's clock passes ``at_ns``."""

    def __init__(self, suite, at_ns):
        self.suite = suite
        self.at_ns = at_ns
        self.fired = False

    def maybe_fire(self, thread):
        if not self.fired and thread.clock.now_ns >= self.at_ns:
            self.fired = True
            self.suite.set_full_sampling()


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
    keyword_only: bool | str = False,
    timer_ms: float | None = None,
    rate_flip_ns: int | None = None,
):
    """Two nodes ping-ponging writes over shared objects; returns every
    observable the fast path could perturb.

    Without ``footprint_order`` the profiler runs alone under full
    sampling.  With it, the profiler and the sticky-set footprinter are
    both attached — ``"profiler_first"``, ``"footprinter_first"``, or
    ``"keyword_first"`` (profiler first, both behind a
    :class:`ClockBump`) — at a partial rate, and the program re-touches
    objects across 1 ms footprint phases inside each interval;
    ``keyword_only`` wraps both hooks so they take the generic fan-out
    (``"footprinter"``: only the footprinter).
    ``timer_ms`` runs the footprinter in timer mode (half the period
    on), and ``rate_flip_ns`` switches to full sampling mid-interval
    (see :class:`RateFlip`)."""
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
        suite = ProfilerSuite(
            djvm, correlation=True, footprint=True, footprint_timer_ms=timer_ms
        )
        del djvm.add_hook
        if footprint_order == "footprinter_first":
            captured.reverse()
        if footprint_order == "keyword_first":
            djvm.add_hook(ClockBump())
        for hook in captured:
            wrap = keyword_only is True or (
                keyword_only == "footprinter" and hook is suite.footprinter
            )
            djvm.add_hook(KeywordOnly(hook) if wrap else hook)
        suite.set_rate_all(20)  # gap 3: some objects sampled, some not
        if rate_flip_ns is not None:
            djvm.add_timer(RateFlip(suite, rate_flip_ns))
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


def track_calls(footprinter):
    """Wrap ``footprinter.track_access`` (before the hook is added) so
    the engine's calls to it are counted; returns the call log."""
    calls = []

    class Counting(type(footprinter)):
        __slots__ = ()

        def track_access(self, thread, obj):
            calls.append(obj.obj_id)
            return super().track_access(thread, obj)

    footprinter.__class__ = Counting
    return calls


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

    @pytest.mark.parametrize(
        "order", ["profiler_first", "footprinter_first", "keyword_first"]
    )
    @pytest.mark.parametrize("timer_ms", [None, 2.0])
    @pytest.mark.parametrize("rate_flip_ns", [None, 2_000_000])
    def test_rearm_route_matches_keyword_fanout(self, order, timer_ms, rate_flip_ns):
        """The re-arm route — every-access hooks skipped until their
        deadline — replays the keyword fan-out exactly: in both
        registration orders and behind a clock-advancing keyword hook,
        in timer mode (off-phase accesses return the next on-phase as
        their deadline), and when a mid-interval rate change samples
        objects that were re-armed to NO_DEADLINE_NS while unsampled.
        The oracle wraps only the footprinter: the profiler keeps its
        first-touch route, which by contract ignores a rate change for
        objects already touched in the interval."""
        kw = dict(footprint_order=order, timer_ms=timer_ms, rate_flip_ns=rate_flip_ns)
        fast = run_scenario(**kw)
        slow = run_scenario(keyword_only="footprinter", **kw)
        assert fast == slow
        assert fast["tracked"][0] > 0
        if timer_ms is not None:
            # Some accesses fell in off-phases and went unseen.
            nonstop = run_scenario(footprint_order=order, rate_flip_ns=rate_flip_ns)
            assert fast["tracked"][0] < nonstop["tracked"][0]
        if rate_flip_ns is not None:
            # The flip made more objects trackable than the partial rate.
            partial = run_scenario(footprint_order=order, timer_ms=timer_ms)
            assert fast["tracked"][0] > partial["tracked"][0]

    def test_track_access_runs_once_per_first_touch_and_phase_retrap(self):
        """Deterministic work count: one interval, four objects (two
        sampled), each read three times in each of two 1 ms phases.
        The footprinter is called on the 4 first touches and on the 2
        sampled objects' re-traps in the second phase — 6 calls, where
        calling it on every access would make 24."""
        djvm = DJVM(n_nodes=1, costs=CostModel.fast_test())
        cls = simple_class(djvm, "Obj", 64)
        objs = [djvm.allocate(cls, 0) for _ in range(6)]
        (thread,) = djvm.spawn_threads(1)
        policy = SamplingPolicy(page_size=djvm.costs.page_size)
        policy.set_nominal_gap(cls, 3)
        fp = StickySetFootprinter(policy, djvm.costs)
        fp.attach_gos(djvm.gos)
        calls = track_calls(fp)
        djvm.add_hook(fp)
        sampled = [o for o in objs if policy.is_sampled(o)][:2]
        unsampled = [o for o in objs if not policy.is_sampled(o)][:2]
        assert len(sampled) == len(unsampled) == 2
        touched = sampled + unsampled
        hlrc = djvm.hlrc
        hlrc.open_interval(thread)
        for phase_round in range(2):
            thread.clock.advance_to((phase_round + 1) * 1_000_000 + 10_000)
            for _ in range(3):
                for obj in touched:
                    hlrc.access(thread, obj.obj_id)
        first_touches, retraps = len(touched), len(sampled)
        assert len(calls) == first_touches + retraps
        assert fp.tracked_accesses == 2 * len(sampled)
        assert fp.live_sticky_candidates(thread) == [o.obj_id for o in sampled]

    def test_enabled_flip_rearms_open_intervals(self):
        """Disabling the footprinter hands out NO_DEADLINE_NS; enabling it
        again re-arms the open interval, so the next access is tracked
        exactly as the keyword route would track it."""
        djvm = DJVM(n_nodes=1, costs=CostModel.fast_test())
        cls = simple_class(djvm, "Obj", 64)
        obj = djvm.allocate(cls, 0)
        (thread,) = djvm.spawn_threads(1)
        policy = SamplingPolicy(page_size=djvm.costs.page_size)
        fp = StickySetFootprinter(policy, djvm.costs)
        fp.attach_gos(djvm.gos)
        calls = track_calls(fp)
        djvm.add_hook(fp)
        hlrc = djvm.hlrc
        hlrc.open_interval(thread)
        fp.enabled = False
        hlrc.access(thread, obj.obj_id)
        hlrc.access(thread, obj.obj_id)
        assert len(calls) == 1  # re-armed to NO_DEADLINE_NS
        fp.enabled = True
        hlrc.access(thread, obj.obj_id)
        assert len(calls) == 2
        assert fp.tracked_accesses == 1

    def test_gap_change_inside_the_plan_is_not_overwritten(self):
        """A keyword hook after the footprinter changes the gap while the
        access is still walking the plan: the deadline the footprinter
        returned before the change (NO_DEADLINE_NS, unsampled) must not
        be stored, so the next access tracks the now-sampled object."""
        djvm = DJVM(n_nodes=1, costs=CostModel.fast_test())
        cls = simple_class(djvm, "Obj", 64)
        objs = [djvm.allocate(cls, 0) for _ in range(3)]
        (thread,) = djvm.spawn_threads(1)
        policy = SamplingPolicy(page_size=djvm.costs.page_size)
        policy.set_nominal_gap(cls, 3)
        obj = next(o for o in objs if not policy.is_sampled(o))
        fp = StickySetFootprinter(policy, djvm.costs)
        fp.attach_gos(djvm.gos)

        class FullSamplingOnAccess(NullHook):
            def on_access(self, thread, obj, **kw):
                policy.set_nominal_gap(cls, 1)

        djvm.add_hook(fp)
        djvm.add_hook(FullSamplingOnAccess())
        hlrc = djvm.hlrc
        hlrc.open_interval(thread)
        hlrc.access(thread, obj.obj_id)  # unsampled when fp runs
        assert fp.tracked_accesses == 0
        hlrc.access(thread, obj.obj_id)
        assert fp.tracked_accesses == 1

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
