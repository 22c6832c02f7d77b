"""Per-model concurrency limits with deterministic queueing.

A hosted model endpoint serves a bounded number of concurrent requests;
an enterprise fleet driving many plans at once shares those slots.  A
:class:`ModelCapacity` models that shared admission control on the
simulated timeline: each completed call reserves a half-open interval
``[start, start + latency)`` against its model's slot pool, and a call
that would push the in-flight count past the model's limit is *queued* —
its start is deterministically delayed to the earliest instant a slot is
free for its whole duration.

The queueing delay is pure simulated time: the caller advances the
shared clock by the wait before paying the model latency, so budgets,
spans, and message stamps all see it, and it is surfaced as
``llm.queue_wait`` metrics and span attributes.  Because reservations
are processed in execution order (which is deterministic), two same-seed
fleet runs queue identically.

Reservation order is **not** timeline order: logically-concurrent plan
branches rebase the clock, so a later reservation may start earlier in
simulated time than one already recorded.  :meth:`reserve` therefore
checks the whole candidate window against every recorded interval — the
invariant is that no instant ever has more than ``limit`` overlapping
reservations, regardless of the order they were made in.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Iterable, Mapping

from ..errors import CapacityExceededError


@dataclass(frozen=True)
class CapacityStats:
    """Point-in-time tallies of one :class:`ModelCapacity`."""

    reservations: int
    queued: int
    total_wait: float
    max_wait: float
    #: Reservations refused because their wait exceeded ``max_queue_wait``.
    rejected: int = 0


def _max_overlap(
    intervals: Iterable[tuple[float, float]], lo: float, hi: float
) -> int:
    """Peak number of *intervals* simultaneously active within ``[lo, hi)``."""
    if hi <= lo:
        # Empty window: count intervals covering the instant ``lo``.
        return sum(1 for s, e in intervals if s <= lo < e)
    events: list[tuple[float, int]] = []
    for s, e in intervals:
        s2, e2 = max(s, lo), min(e, hi)
        if s2 < e2:
            events.append((s2, 1))
            events.append((e2, -1))
    # Ties sort -1 first: an interval ending at t frees its slot before
    # one starting at t takes it (half-open interval semantics).
    events.sort()
    current = peak = 0
    for _, delta in events:
        current += delta
        if current > peak:
            peak = current
    return peak


class ModelCapacity:
    """Slot-limited admission control over simulated call intervals.

    Example — two slots, three unit calls wanting to start together:
        >>> capacity = ModelCapacity({"mega-s": 2})
        >>> [capacity.reserve("mega-s", 0.0, 1.0) for _ in range(3)]
        [0.0, 0.0, 1.0]
    """

    def __init__(
        self,
        slots: Mapping[str, int] | None = None,
        default_slots: int | None = None,
        max_queue_wait: float | None = None,
    ) -> None:
        for model, limit in (slots or {}).items():
            if limit <= 0:
                raise ValueError(f"capacity for {model!r} must be > 0: {limit}")
        if default_slots is not None and default_slots <= 0:
            raise ValueError(f"default_slots must be > 0: {default_slots}")
        if max_queue_wait is not None and max_queue_wait < 0:
            raise ValueError(f"max_queue_wait must be >= 0: {max_queue_wait}")
        self._slots = dict(slots or {})
        self._default_slots = default_slots
        #: Queue-depth bound in simulated seconds: a reservation whose
        #: deterministic wait would exceed this raises
        #: :class:`~repro.errors.CapacityExceededError` instead of
        #: queueing (None = queue unboundedly, the pre-overload default).
        self.max_queue_wait = max_queue_wait
        self._intervals: dict[str, list[tuple[float, float]]] = {}
        self._lock = threading.Lock()
        self._reservations = 0
        self._queued = 0
        self._total_wait = 0.0
        self._max_wait = 0.0
        self._rejected = 0

    def limit_for(self, model: str) -> int | None:
        """The model's slot count, or None when unlimited."""
        return self._slots.get(model, self._default_slots)

    # ------------------------------------------------------------------
    # Reservation
    # ------------------------------------------------------------------
    def reserve(self, model: str, start: float, duration: float) -> float:
        """Reserve a slot interval; returns the (possibly delayed) start.

        The interval ``[actual_start, actual_start + duration)`` is
        recorded against *model* even when the model is unlimited, so
        :meth:`max_concurrency` can report *observed* concurrency either
        way.  ``actual_start - start`` is the deterministic queue wait.
        """
        with self._lock:
            intervals = self._intervals.setdefault(model, [])
            limit = self.limit_for(model)
            actual = start
            if limit is not None and intervals:
                # Candidate starts: the desired time plus every recorded
                # interval end after it (a slot can only free at an end).
                candidates = sorted(
                    {start} | {e for _, e in intervals if e > start}
                )
                for t in candidates:
                    if _max_overlap(intervals, t, t + duration) < limit:
                        actual = t
                        break
            wait = actual - start
            if self.max_queue_wait is not None and wait > self.max_queue_wait:
                # Refuse rather than queue: nothing is recorded, so the
                # slot the caller would have waited for stays claimable
                # by whoever retries first (deterministically, since
                # reservation order is execution order).
                self._rejected += 1
                raise CapacityExceededError(
                    f"model {model!r} queue wait {wait:.3f}s exceeds "
                    f"max_queue_wait {self.max_queue_wait:.3f}s"
                )
            intervals.append((actual, actual + duration))
            self._reservations += 1
            if wait > 0:
                self._queued += 1
                self._total_wait += wait
                if wait > self._max_wait:
                    self._max_wait = wait
            return actual

    # ------------------------------------------------------------------
    # Inspection (benchmarks verify limits were honored)
    # ------------------------------------------------------------------
    def models(self) -> list[str]:
        with self._lock:
            return sorted(self._intervals)

    def max_concurrency(self, model: str) -> int:
        """Peak observed in-flight calls for *model* across the ledger."""
        with self._lock:
            intervals = list(self._intervals.get(model, ()))
        if not intervals:
            return 0
        lo = min(s for s, _ in intervals)
        hi = max(e for _, e in intervals)
        return _max_overlap(intervals, lo, hi if hi > lo else lo + 1.0)

    def stats(self) -> CapacityStats:
        with self._lock:
            return CapacityStats(
                reservations=self._reservations,
                queued=self._queued,
                total_wait=self._total_wait,
                max_wait=self._max_wait,
                rejected=self._rejected,
            )

    def clear(self) -> None:
        """Drop the interval ledger (tallies survive: they are history)."""
        with self._lock:
            self._intervals.clear()
