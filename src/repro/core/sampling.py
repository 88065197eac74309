"""Class-level adaptive object sampling (paper Section II.B).

Every class carries its own *sampling gap*: an object is sampled iff its
per-class sequence number is divisible by the gap.  Nominal gaps are
powers of two; the **real** gap is the nearest prime (Section II.B.1) so
cyclic allocation patterns cannot alias with the gap.  Rates are
expressed page-relative as ``nX`` — "sample n objects per 4 KB page" —
so for a class of size ``s`` the nominal gap at rate ``nX`` is
``page_size / (s * n)``; classes at least a page large are therefore
always fully sampled at any rate (the reason SOR behaves as if fully
sampled throughout the paper's tables).

Sampled contributions are scaled by the gap (a Horvitz-Thompson
estimator): each sampled object stands for ``gap`` allocated peers, so
TCMs estimated at any rate are directly comparable with the
full-sampling reference — which is what the paper's accuracy formulas
(1)/(2) compare.

The decision itself — is an object sampled, how many bytes are logged,
and what Horvitz-Thompson weight do they carry — lives in
:class:`PrimeGapBackend`, memoized per class under the gap epoch so a
rate change invalidates exactly the classes it touched.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.array_sampling import amortized_sample_bytes, sampled_element_count
from repro.heap.jclass import JClass
from repro.heap.objects import HeapObject
from repro.util.primes import prime_gap_for_nominal
from repro.util.validation import check_positive

#: rate sentinel for full sampling.
FULL = "full"


@dataclass
class ClassSamplingState:
    """Per-class sampling metadata (the paper stores this "as close to
    subclasses as possible")."""

    jclass: JClass
    nominal_gap: int = 1
    real_gap: int = 1
    #: bumped on every gap change; lets caches detect staleness.
    epoch: int = 0
    #: lower bound on the gap (used by sticky-set footprinting).
    min_gap: int = 1
    history: list[int] = field(default_factory=list)
    #: epoch the memoized decisions below were computed under; any
    #: mismatch with ``epoch`` invalidates the whole cache.
    cache_epoch: int = -1
    #: obj_id -> (sampled, logged_bytes, scaled_bytes) memo, valid only
    #: while ``cache_epoch == epoch``.
    decisions: dict[int, tuple[bool, int, int]] = field(default_factory=dict)


class PrimeGapBackend:
    """The paper's per-class prime-gap decision: sequence divisibility
    for scalars, any-element divisibility for arrays, memoized per class
    under the gap epoch.

    It counts its own sample/skip decisions per class, one per cold
    decision per gap epoch (a memo hit is not counted).  Those counters
    feed the obs registry's ``sampling_decisions_total`` /
    ``sampling_realized_rate`` families.
    """

    name = "prime_gap"

    def __init__(self, policy: "SamplingPolicy") -> None:
        self.policy = policy
        #: class_id -> decisions that selected the object.
        self.sample_counts: dict[int, int] = {}
        #: class_id -> decisions that skipped the object.
        self.skip_counts: dict[int, int] = {}

    def decide(self, obj: HeapObject) -> tuple[bool, int, int]:
        """``(sampled, logged_bytes, scaled_bytes)`` for one object."""
        policy = self.policy
        st = policy._states.get(obj.jclass.class_id)
        if st is None:
            st = policy.state(obj.jclass)
        if st.cache_epoch != st.epoch:
            st.decisions.clear()
            st.cache_epoch = st.epoch
        memo = st.decisions
        cached = memo.get(obj.obj_id)
        if cached is not None:
            return cached
        result = self._compute(st, obj)
        memo[obj.obj_id] = result
        return result

    def _compute(self, st: ClassSamplingState, obj: HeapObject) -> tuple[bool, int, int]:
        gap = st.real_gap
        if obj.is_array:
            if gap == 1:
                sampled = True
            else:
                sampled = sampled_element_count(obj.seq, obj.length, gap) > 0
            logged = amortized_sample_bytes(obj, gap)
        else:
            sampled = True if gap == 1 else obj.seq % gap == 0
            logged = obj.jclass.instance_size
        counts = self.sample_counts if sampled else self.skip_counts
        class_id = st.jclass.class_id
        counts[class_id] = counts.get(class_id, 0) + 1
        return (sampled, logged, logged * gap)

    def class_stats(self) -> dict[int, tuple[int, int]]:
        """class_id -> (samples, skips) over evaluated decisions."""
        out: dict[int, tuple[int, int]] = {}
        for cid in sorted(set(self.sample_counts) | set(self.skip_counts)):
            out[cid] = (self.sample_counts.get(cid, 0), self.skip_counts.get(cid, 0))
        return out

    def totals(self) -> tuple[int, int]:
        """(samples, skips) summed over every class."""
        stats = self.class_stats()
        return (
            sum(s for s, _ in stats.values()),  # simlint: disable=SIM003 (commutative sum; class_stats() is sorted-key anyway)
            sum(k for _, k in stats.values()),  # simlint: disable=SIM003 (commutative sum; class_stats() is sorted-key anyway)
        )

    def realized_rates(self) -> dict[int, float]:
        """class_id -> sampled fraction among evaluated decisions."""
        return {  # simlint: disable=SIM003 (class_stats() builds its dict in sorted-class_id order)
            cid: s / (s + k)
            for cid, (s, k) in self.class_stats().items()
            if s + k > 0
        }


class SamplingPolicy:
    """Cluster-wide sampling configuration: one gap per class, plus the
    prime-gap decision backend that realizes it."""

    def __init__(
        self,
        page_size: int = 4096,
        *,
        use_prime_gaps: bool = True,
    ) -> None:
        check_positive(page_size, "page_size")
        self.page_size = int(page_size)
        #: disable to ablate the prime-gap design choice.
        self.use_prime_gaps = use_prime_gaps
        self._states: dict[int, ClassSamplingState] = {}
        #: total gap-change events (each triggers cluster-wide resampling).
        self.rate_changes = 0
        #: class_id -> current real gap; a precomputed table the hot
        #: profiling path reads instead of re-deriving gaps per access.
        self.gap_table: dict[int, int] = {}
        #: the per-object decision and its counters.
        self.backend = PrimeGapBackend(self)
        #: True once :meth:`preseed` applied static-analysis rates.
        self.preseeded = False
        #: callables run after every real gap change: an access engine
        #: re-arms the deadlines its every-access hooks handed out, since
        #: a changed gap can turn an unsampled object sampled.
        self.gap_listeners: list = []

    # ------------------------------------------------------------------
    # configuration
    # ------------------------------------------------------------------

    def state(self, jclass: JClass) -> ClassSamplingState:
        """Get (or lazily create) the class's sampling state."""
        st = self._states.get(jclass.class_id)
        if st is None:
            st = ClassSamplingState(jclass=jclass)
            self._states[jclass.class_id] = st
            self.gap_table[jclass.class_id] = st.real_gap
        return st

    def gap(self, jclass: JClass) -> int:
        """Current real (prime) sampling gap of a class."""
        return self.state(jclass).real_gap

    def _sampling_unit_size(self, jclass: JClass) -> int:
        """Byte size of the sampling unit: the element for array classes
        (elements carry the sequence numbers), the instance otherwise."""
        return jclass.element_size if jclass.is_array else jclass.instance_size

    def nominal_gap_for_rate(self, jclass: JClass, rate: float | str) -> int:
        """Nominal gap realizing page-relative rate ``rate`` (``nX`` with
        ``n = rate``, or the string ``"full"``)."""
        if rate == FULL:
            return 1
        check_positive(rate, "sampling rate")
        unit = self._sampling_unit_size(jclass)
        nominal = int(self.page_size // (unit * rate))
        return max(nominal, 1)

    def set_rate(self, jclass: JClass, rate: float | str) -> bool:
        """Set a class's gap from a page-relative rate; returns True when
        the real gap changed (a cluster resampling pass is then due)."""
        return self.set_nominal_gap(jclass, self.nominal_gap_for_rate(jclass, rate))

    def set_nominal_gap(self, jclass: JClass, nominal: int) -> bool:
        """Set a nominal gap directly; returns True if the real gap changed."""
        return self._realize_gap(self.state(jclass), nominal)

    def _realize_gap(self, st: ClassSamplingState, nominal: int) -> bool:
        """Clamp ``nominal`` to the class's min gap and realize it — the
        nearest prime normally, the nominal itself in the prime-gap
        ablation — updating epoch, history, the gap table, and the
        policy-wide change counter on an actual change."""
        check_positive(nominal, "nominal gap")
        nominal = max(nominal, st.min_gap)
        real = prime_gap_for_nominal(nominal) if self.use_prime_gaps else nominal
        changed = real != st.real_gap
        st.nominal_gap = nominal
        if changed:
            st.real_gap = real
            st.epoch += 1
            st.history.append(real)
            self.gap_table[st.jclass.class_id] = real
            self.rate_changes += 1
            for listener in self.gap_listeners:
                listener()
        return changed

    def set_rate_all(self, classes, rate: float | str) -> list[JClass]:
        """Apply one rate to many classes; returns classes whose gap changed."""
        changed = []
        for jclass in classes:
            if self.set_rate(jclass, rate):
                changed.append(jclass)
        return changed

    def preseed(self, rates: dict[str, float], classes) -> list[JClass]:
        """Pre-seed per-class rates from a static sharing analysis
        (``StaticReport.preseeds``): ``rates`` maps class *names* to
        page-relative rates, ``classes`` is the class iterable (e.g. the
        DJVM's :class:`~repro.core.model.ClassRegistry`).  Classes absent
        from ``rates`` keep their defaults.  Off by default — nothing in
        the runtime calls this; opting in replaces the cold-start uniform
        rate with the statically predicted sharing structure, so the
        adaptive controller starts its descent from a warmer point.
        Returns the classes whose gap actually changed."""
        by_name = {jclass.name: jclass for jclass in classes}
        changed = []
        for name in sorted(rates):
            jclass = by_name.get(name)
            if jclass is not None and self.set_rate(jclass, rates[name]):
                changed.append(jclass)
        self.preseeded = True
        return changed

    def set_min_gap(self, jclass: JClass, min_gap: int) -> None:
        """Lower-bound a class's gap (sticky-set footprinting's guard
        against runaway repeated-tracking cost)."""
        check_positive(min_gap, "min_gap")
        st = self.state(jclass)
        st.min_gap = int(min_gap)
        if st.real_gap < st.min_gap:
            self.set_nominal_gap(jclass, st.min_gap)

    # ------------------------------------------------------------------
    # sampling decisions
    # ------------------------------------------------------------------

    def decision(self, obj: HeapObject) -> tuple[bool, int, int]:
        """The full sampling decision for one object:
        ``(sampled, logged_bytes, scaled_bytes)``.

        Decisions are pure functions of the object's immutable identity
        (class, seq/id, length) and the class's current gap.
        :class:`PrimeGapBackend` caches them per class keyed by the gap
        *epoch*: any gap
        change bumps :attr:`ClassSamplingState.epoch`, which invalidates
        the whole class cache on the next lookup, so between rate
        changes the hot profiling path pays one dict probe per object.
        """
        return self.backend.decide(obj)

    def is_sampled(self, obj: HeapObject) -> bool:
        """Is this object currently sampled?

        Scalars: sequence number divisible by the class gap.  Arrays:
        at least one element logically sampled (Fig. 3b).
        """
        return self.backend.decide(obj)[0]

    def logged_bytes(self, obj: HeapObject) -> int:
        """Bytes recorded in the OAL for one sampled object: the full
        instance size for scalars, the amortized sample size for arrays."""
        return self.backend.decide(obj)[1]

    def scaled_bytes(self, obj: HeapObject) -> int:
        """Horvitz-Thompson estimate this sample contributes: logged
        bytes times the gap (each sample stands for ``gap`` units)."""
        return self.backend.decide(obj)[2]

    def effective_rate(self, jclass: JClass) -> float:
        """Realized samples-per-page for a class under its current gap."""
        unit = self._sampling_unit_size(jclass)
        return self.page_size / (unit * self.gap(jclass))

    def classes(self) -> list[ClassSamplingState]:
        """All per-class sampling states created so far."""
        return list(self._states.values())
