"""QoS-tiered admission: token buckets, weighted-fair queues, deadlines.

The PR-5 fleet admitted work FIFO: whoever arrived first got the slot,
so one flooding tenant starves everyone behind it.  This module replaces
that with the classic serving-stack admission pipeline, kept fully
deterministic so seeded runs stay byte-identical:

* **Per-tenant token buckets** (:class:`TokenBucket`) enforce each
  tenant's contracted rate at the front door.  Refill is a pure function
  of the arrival timestamp, so bucket state is a function of the arrival
  trace alone.

* **Weighted-fair tier queues**.  Accepted arrivals queue per QoS tier;
  free slots drain the queues by start-time fair queuing — each entry is
  tagged with a virtual finish time ``max(vtime, tier's last tag) +
  1/weight`` at enqueue, and :meth:`AdmissionController.pop` always
  takes the smallest ``(tag, tier, seq)``.  Over time each backlogged
  tier receives slots in proportion to its weight; ties break by tier
  number, then FIFO — no randomness anywhere.

* **Queue deadlines**.  A tier may bound how long an entry waits
  (``max_queue_wait``); :meth:`AdmissionController.expire` sweeps
  entries whose deadline has passed so the scheduler can move them to
  the dead-letter queue instead of running hopelessly-stale work.

:class:`FifoAdmission` implements the same gate interface with plain
FIFO + bounded backlog semantics — the PR-5 behavior, kept as the
benchmark ablation ("what if we had shipped no overload control?").
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Mapping


@dataclass
class TokenBucket:
    """Deterministic token bucket: refill is a function of timestamps.

    Calls may arrive with non-monotonic timestamps (the fleet processes
    completion events and arrival events in deterministic *order*, not
    time order); refill only ever moves forward, so replaying the same
    call sequence replays the same verdicts.
    """

    rate: float
    burst: float = 1.0

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ValueError(f"rate must be > 0: {self.rate}")
        if self.burst < 1.0:
            raise ValueError(f"burst must be >= 1: {self.burst}")
        self.tokens = self.burst
        self.last: float | None = None

    def try_take(self, at: float) -> bool:
        """Take one token at instant *at*; False when the bucket is dry."""
        if self.last is None:
            self.last = at
        elapsed = max(0.0, at - self.last)
        self.last = max(self.last, at)
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


@dataclass(frozen=True)
class TierPolicy:
    """Admission parameters for one QoS tier.

    ``weight`` sets the tier's fair share of freed slots; ``rate`` /
    ``burst`` bound each tenant of the tier (None = uncontracted);
    ``max_queue_wait`` expires entries that wait longer (into the DLQ);
    ``sheddable`` marks the tier the brownout controller may drop
    outright at its highest level.
    """

    weight: float = 1.0
    rate: float | None = None
    burst: float = 1.0
    max_queue_wait: float | None = None
    sheddable: bool = False

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ValueError(f"weight must be > 0: {self.weight}")
        if self.rate is not None and self.rate <= 0:
            raise ValueError(f"rate must be > 0: {self.rate}")
        if self.max_queue_wait is not None and self.max_queue_wait < 0:
            raise ValueError(
                f"max_queue_wait must be >= 0: {self.max_queue_wait}"
            )


@dataclass
class _Queued:
    """One queued admission item plus its fair-queuing tag."""

    tag: float
    tier: int
    seq: int
    item: Any
    tenant: str
    arrival: float
    deadline: float | None

    def sort_key(self) -> tuple[float, int, int]:
        return (self.tag, self.tier, self.seq)


class AdmissionController:
    """Tiered admission gate: rate limit, fair queues, queue deadlines.

    The scheduler drives it with three calls: :meth:`offer` on each
    arrival (verdict: queued, or a typed rejection reason),
    :meth:`expire` at each scheduling instant (stale entries out), and
    :meth:`pop` while slots are free (next entry by weighted fairness).
    """

    #: Typed verdicts (also the ``FleetPlanResult.rejection_reason`` values).
    QUEUED = "queued"
    RATE_LIMITED = "rate_limited"
    BACKLOG_FULL = "backlog_full"
    #: The policy of a tier that ``tiers`` does not name.
    DEFAULT_POLICY = TierPolicy()

    def __init__(
        self,
        tiers: Mapping[int, TierPolicy] | None = None,
        max_backlog: int | None = None,
    ) -> None:
        if max_backlog is not None and max_backlog < 0:
            raise ValueError(f"max_backlog must be >= 0: {max_backlog}")
        self._tiers = dict(tiers or {})
        self._max_backlog = max_backlog
        self._heap: list[tuple[tuple[float, int, int], _Queued]] = []
        self._expired_marks: set[int] = set()
        self._buckets: dict[tuple[str, int], TokenBucket] = {}
        self._vtime = 0.0
        self._last_tag: dict[int, float] = {}
        self._seq = 0
        self._depth = 0

    def policy_for(self, tier: int) -> TierPolicy:
        return self._tiers.get(tier, self.DEFAULT_POLICY)

    def sheddable(self, tier: int) -> bool:
        return self.policy_for(tier).sheddable

    def depth(self) -> int:
        return self._depth

    def offer(self, item: Any, tenant: str, tier: int, at: float) -> str:
        """Admit one arrival to the queues; returns a typed verdict."""
        policy = self.policy_for(tier)
        if policy.rate is not None:
            bucket = self._buckets.get((tenant, tier))
            if bucket is None:
                bucket = TokenBucket(rate=policy.rate, burst=policy.burst)
                self._buckets[(tenant, tier)] = bucket
            if not bucket.try_take(at):
                return self.RATE_LIMITED
        if self._max_backlog is not None and self._depth >= self._max_backlog:
            return self.BACKLOG_FULL
        self._seq += 1
        tag = max(self._vtime, self._last_tag.get(tier, 0.0)) + 1.0 / policy.weight
        self._last_tag[tier] = tag
        deadline = (
            at + policy.max_queue_wait
            if policy.max_queue_wait is not None
            else None
        )
        entry = _Queued(
            tag=tag,
            tier=tier,
            seq=self._seq,
            item=item,
            tenant=tenant,
            arrival=at,
            deadline=deadline,
        )
        heapq.heappush(self._heap, (entry.sort_key(), entry))
        self._depth += 1
        return self.QUEUED

    def expire(self, at: float) -> list[tuple[Any, str, int, float]]:
        """Remove entries whose queue deadline passed before *at*.

        Returns ``(item, tenant, tier, arrival)`` tuples in deadline
        order (ties by enqueue order) — deterministic DLQ input.
        """
        stale = [
            entry
            for _, entry in self._heap
            if entry.seq not in self._expired_marks
            and entry.deadline is not None
            and entry.deadline < at
        ]
        stale.sort(key=lambda e: (e.deadline, e.seq))
        for entry in stale:
            self._expired_marks.add(entry.seq)
            self._depth -= 1
        return [(e.item, e.tenant, e.tier, e.arrival) for e in stale]

    def pop(self, at: float) -> tuple[Any, str, int, float] | None:
        """Next entry by weighted fairness, or None when queues are empty.

        Returns ``(item, tenant, tier, arrival)``; advances virtual time
        to the popped entry's tag so subsequently-enqueued entries queue
        behind work already granted.
        """
        while self._heap:
            _, entry = heapq.heappop(self._heap)
            if entry.seq in self._expired_marks:
                self._expired_marks.discard(entry.seq)
                continue
            self._depth -= 1
            if entry.tag > self._vtime:
                self._vtime = entry.tag
            return (entry.item, entry.tenant, entry.tier, entry.arrival)
        return None

    def describe(self) -> dict[str, Any]:
        by_tier: dict[int, int] = {}
        for _, entry in self._heap:
            if entry.seq not in self._expired_marks:
                by_tier[entry.tier] = by_tier.get(entry.tier, 0) + 1
        return {
            "depth": self._depth,
            "by_tier": {k: by_tier[k] for k in sorted(by_tier)},
            "tenant_buckets": len(self._buckets),
        }


class FifoAdmission:
    """The PR-5 gate: one FIFO backlog, bounded, no tiers, no deadlines.

    Same interface as :class:`AdmissionController`, so the open-loop
    scheduler can run the naive ablation `bench_overload.py` measures
    against.  Everything that is not a full backlog is queued; nothing
    rate-limits, expires, or sheds.
    """

    QUEUED = AdmissionController.QUEUED
    BACKLOG_FULL = AdmissionController.BACKLOG_FULL

    def __init__(self, max_backlog: int | None = None) -> None:
        if max_backlog is not None and max_backlog < 0:
            raise ValueError(f"max_backlog must be >= 0: {max_backlog}")
        self._max_backlog = max_backlog
        self._queue: deque[tuple[Any, str, int, float]] = deque()

    def policy_for(self, tier: int) -> TierPolicy:
        return TierPolicy()

    def sheddable(self, tier: int) -> bool:
        return False

    def depth(self) -> int:
        return len(self._queue)

    def offer(self, item: Any, tenant: str, tier: int, at: float) -> str:
        if self._max_backlog is not None and len(self._queue) >= self._max_backlog:
            return self.BACKLOG_FULL
        self._queue.append((item, tenant, tier, at))
        return self.QUEUED

    def expire(self, at: float) -> list[tuple[Any, str, int, float]]:
        return []

    def pop(self, at: float) -> tuple[Any, str, int, float] | None:
        if not self._queue:
            return None
        return self._queue.popleft()

    def describe(self) -> dict[str, Any]:
        return {"depth": len(self._queue), "by_tier": {}, "tenant_buckets": 0}
