"""Simulated clocks.

All simulated time is kept in integer nanoseconds to avoid floating
point drift over long runs; conversion helpers expose milliseconds for
reporting (the paper's tables are in ms).
"""

from __future__ import annotations

NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_S = 1_000_000_000

#: deadline sentinel, later than any simulated time: "nothing scheduled"
#: for a timer hook's ``next_fire_ns``, "not again this interval" for an
#: every-access hook's re-arm deadline (see ``HomeBasedLRC.add_hook``).
NO_DEADLINE_NS = 1 << 62


class SimClock:
    """A monotonically advancing simulated clock (integer nanoseconds).

    Each simulated thread owns one; synchronization operations align
    clocks across threads (e.g. a barrier sets every participant to the
    maximum arrival time plus the barrier cost).
    """

    __slots__ = ("_now_ns",)

    def __init__(self, start_ns: int = 0) -> None:
        if start_ns < 0:
            raise ValueError(f"clock cannot start negative, got {start_ns}")
        self._now_ns = int(start_ns)

    @property
    def now_ns(self) -> int:
        """Current simulated time in nanoseconds."""
        return self._now_ns

    @property
    def now_ms(self) -> float:
        """Current simulated time in milliseconds."""
        return self._now_ns / NS_PER_MS

    def advance(self, delta_ns: int) -> int:
        """Advance by ``delta_ns`` (must be >= 0); returns the new time."""
        if delta_ns < 0:
            raise ValueError(f"cannot advance clock by negative {delta_ns}")
        self._now_ns += int(delta_ns)
        return self._now_ns

    def advance_to(self, t_ns: int) -> int:
        """Jump forward to ``t_ns`` if it is in the future; never rewinds."""
        if t_ns > self._now_ns:
            self._now_ns = int(t_ns)
        return self._now_ns

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SimClock({self._now_ns} ns = {self.now_ms:.3f} ms)"
