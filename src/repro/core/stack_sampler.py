"""Adaptive stack sampling (paper Section III.B, Fig. 8).

Takes periodic snapshots of a thread's Java stack to find
**stack-invariant references** — slots that keep pointing at the same
object across samples.  Those references are the likely entry points of
the thread's sticky set (a linked list's head, a tree's root, ...).

All four of the paper's optimizations are implemented:

1. **Timer-based sampling** — the sampler fires only when the owning
   thread's simulated clock passes the sampling gap (4-16 ms).
2. **Two-phase stack scanning** — top-down until the first *visited*
   frame (everything below is untouched since its last sample because
   only the top frame executes), then bottom-up over the unvisited
   frames, marking them visited and capturing first samples.
3. **Lazy extraction** — a frame's first sample is kept in cheap "raw"
   form; slot extraction (reflection + layout decode + GC pointer check,
   the expensive part) is deferred until the frame survives to a second
   visit.  Frames that die young — almost all of them — never pay it.
4. **Comparison by probing** — an old sample probes the live frame slot
   by slot; mismatched slots are *removed from the old sample*, so
   comparisons shrink monotonically and frequently-visited frames get
   cheaper to compare over time.  Surviving slots are the invariants.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.runtime.interpreter import NO_DEADLINE_NS
from repro.runtime.stack import Frame
from repro.runtime.thread import SimThread
from repro.sim.costs import CostModel

NS_PER_MS = 1_000_000


@dataclass
class FrameSample:
    """Stored sample of one frame activation."""

    frame_uid: int
    method: str
    #: raw samples defer extraction: slots is then the full slot snapshot
    #: (all slots, unexamined); extracted samples keep only candidate
    #: invariant reference slots.
    raw: bool
    slots: dict[int, int | None] = field(default_factory=dict)
    #: how many probing comparisons this sample has survived.
    comparisons: int = 0


class StackSampler:
    """Timer-driven stack sampler for every thread it observes."""

    def __init__(
        self,
        costs: CostModel,
        *,
        gap_ms: float = 16.0,
        lazy: bool = True,
        enabled: bool = True,
    ) -> None:
        if gap_ms <= 0:
            raise ValueError(f"sampling gap must be > 0 ms, got {gap_ms}")
        self.costs = costs
        self.gap_ns = int(gap_ms * NS_PER_MS)
        #: lazy extraction on first visit (the paper's optimization 3);
        #: False reproduces the "Immediate Extraction" baseline column.
        self.lazy = lazy
        self.enabled = enabled
        #: thread_id -> frame_uid -> FrameSample.
        self._samples: dict[int, dict[int, FrameSample]] = {}
        #: thread_id -> next fire time (ns).
        self._next_fire: dict[int, int] = {}
        self.samples_taken = 0
        self.frames_extracted = 0
        self.frames_raw_captured = 0

    # ------------------------------------------------------------------
    # TimerHook interface
    # ------------------------------------------------------------------

    def maybe_fire(self, thread: SimThread) -> None:
        """TimerHook: fire if the thread's clock passed the next deadline."""
        if not self.enabled:
            return
        now = thread.clock.now_ns
        nxt = self._next_fire.get(thread.thread_id)
        if nxt is None:
            self._next_fire[thread.thread_id] = now + self.gap_ns
            return
        if now < nxt:
            return
        # One sample per deadline passed (no catch-up storm after long ops).
        self._next_fire[thread.thread_id] = now + self.gap_ns
        self.sample_stack(thread)

    def next_fire_ns(self, thread: SimThread) -> int:
        """Absolute deadline of the next fire for ``thread`` (ns).

        Deadline API for the event kernel's fast path: the interpreter
        compares the running thread's clock against the minimum deadline
        instead of calling :meth:`maybe_fire` after every op.  Returns 0
        while the thread's deadline is uninitialized (forcing one poll,
        which initializes it exactly like the legacy first call did) and
        a far-future sentinel when sampling is disabled.
        """
        if not self.enabled:
            return NO_DEADLINE_NS
        nxt = self._next_fire.get(thread.thread_id)
        return 0 if nxt is None else nxt

    # ------------------------------------------------------------------
    # SAMPLE-STACK (Fig. 8)
    # ------------------------------------------------------------------

    def sample_stack(self, thread: SimThread) -> None:
        """Take one stack sample of ``thread``."""
        samples = self._samples.setdefault(thread.thread_id, {})
        costs = self.costs
        stack = thread.stack
        if len(stack) == 0:
            return
        self.samples_taken += 1

        # --- top-down phase: walk until the first visited frame ---------
        walk_cost = 0
        first_visited: Frame | None = None
        unvisited: list[Frame] = []
        for frame in stack.frames_top_down():
            walk_cost += costs.frame_walk_ns
            if frame.visited:
                first_visited = frame
                break
            unvisited.append(frame)

        # --- process the first visited frame ----------------------------
        if first_visited is not None:
            old = samples.get(first_visited.frame_uid)
            if old is None:
                # The visited flag survived from an activation whose
                # sample was discarded; re-capture below as if unvisited.
                unvisited.append(first_visited)
            else:
                if old.raw:
                    # CONVERT-RAW-SAMPLE: extract the deferred content.
                    walk_cost += len(old.slots) * costs.extract_ns_per_slot
                    old.raw = False
                    self.frames_extracted += 1
                    # Non-reference slots are discarded at extraction.
                    old.slots = {i: v for i, v in old.slots.items() if v is not None}  # simlint: disable=SIM003 (hot path; slot dicts are keyed and built in slot-index order)
                # COMPARE-BY-PROBING: probe old slots into the live frame.
                walk_cost += len(old.slots) * costs.probe_ns_per_slot
                dead = [  # simlint: disable=SIM003 (hot path; slot dicts are keyed and built in slot-index order)
                    idx
                    for idx, ref in old.slots.items()
                    if idx >= len(first_visited.slots) or first_visited.slots[idx] != ref
                ]
                for idx in dead:
                    del old.slots[idx]
                old.comparisons += 1

        # --- bottom-up phase: first samples for the unvisited frames ----
        for frame in reversed(unvisited):
            frame.visited = True
            snapshot = {i: v for i, v in enumerate(frame.slots)}
            if self.lazy:
                walk_cost += len(snapshot) * costs.raw_capture_ns_per_slot
                samples[frame.frame_uid] = FrameSample(
                    frame.frame_uid, frame.method, raw=True, slots=snapshot
                )
                self.frames_raw_captured += 1
            else:
                # Immediate extraction: pay the full cost now.
                walk_cost += len(snapshot) * costs.extract_ns_per_slot
                refs = {i: v for i, v in snapshot.items() if v is not None}  # simlint: disable=SIM003 (hot path; snapshot is keyed and built in slot-index order)
                samples[frame.frame_uid] = FrameSample(
                    frame.frame_uid, frame.method, raw=False, slots=refs
                )
                self.frames_extracted += 1

        # --- discard samples of dead frames ------------------------------
        live_uids = {f.frame_uid for f in stack}
        dead_uids = [uid for uid in samples if uid not in live_uids]
        for uid in dead_uids:
            del samples[uid]

        thread.cpu.stack_sampling_ns += walk_cost
        thread.clock.advance(walk_cost)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------

    def samples_for(self, thread_id: int) -> dict[int, FrameSample]:
        """Current per-frame samples of one thread (live frames only)."""
        return dict(self._samples.get(thread_id, {}))

    def invariant_refs(self, thread: SimThread, *, min_comparisons: int = 1) -> list[int]:
        """Stack-invariant object references for a thread, ordered from
        the **topmost** frame down (the paper's resolution heuristic:
        topmost invariants are the most recent), deduplicated."""
        samples = self._samples.get(thread.thread_id, {})
        ordered: list[int] = []
        seen: set[int] = set()
        for frame in thread.stack.frames_top_down():
            sample = samples.get(frame.frame_uid)
            if sample is None or sample.raw or sample.comparisons < min_comparisons:
                continue
            for idx in sorted(sample.slots):
                ref = sample.slots[idx]
                if ref is not None and ref not in seen:
                    seen.add(ref)
                    ordered.append(ref)
        return ordered
