"""Single-flight coalescing: overlapping identical calls share one result.

The LRU :class:`~repro.llm.cache.LLMCache` makes a *repeated* identical
call free — any time after the first completes.  Single-flight is the
cross-plan complement: when a fleet of concurrent plans issues the same
``(model, prompt, params)`` call while an earlier one is still *in
flight* on the simulated timeline, the joiner does not re-run the model.
It attaches to the in-flight call, waits out the **residual** latency
(from its own branch-local start to the leader's completion), and shares
the leader's response at zero cost.

Unlike a cache hit (zero latency, zero cost, unbounded reuse window),
a join pays real waiting time and only exists while the leader's
interval ``[start, end)`` covers the joiner's start — the interval is
half-open, so a joiner starting *exactly* at ``end`` is too late: the
call is no longer in flight and the joiner becomes a fresh leader.
Joins skip the failure roll and the leader's call index, exactly like
cache hits, so determinism suites that need every physical call use
``no_cache`` (which bypasses single-flight too).

Eviction respects in-flight intervals (:class:`~repro.llm.windows.LiveLRU`):
a flight is live until its ``end``, so the bound only drops flights that
have already passed the recording clock (``end <= now``) and the map may
transiently exceed ``max_entries`` while many flights are live.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

from .model import LLMResponse, LLMUsage
from .windows import LiveLRU


class _Flight(NamedTuple):
    """One recorded leader call: its interval and its response."""

    start: float
    end: float
    response: LLMResponse


@dataclass(frozen=True)
class FlightStats:
    """Point-in-time tallies of one :class:`SingleFlight`."""

    leaders: int
    joins: int
    entries: int
    #: What the joins would have cost had each re-run the model.
    saved_cost: float
    #: Modeled latency the joins did not pay (leader latency minus the
    #: residual wait each joiner actually paid).
    saved_latency: float

    @property
    def hit_rate(self) -> float:
        total = self.leaders + self.joins
        return self.joins / total if total else 0.0


class SingleFlight(LiveLRU):
    """Coalesces timeline-overlapping identical LLM calls.

    Example — a joiner starting mid-flight pays only the residual:
        >>> from repro.llm.model import LLMResponse, LLMUsage
        >>> flight = SingleFlight()
        >>> usage = LLMUsage(10, 5, cost=0.01, latency=2.0)
        >>> leader = LLMResponse("answer", usage, model="mega-s")
        >>> flight.record("mega-s", "p", 512, start=0.0, end=2.0, response=leader)
        >>> joined, residual = flight.join("mega-s", "p", 512, now=1.5)
        >>> (joined.text, joined.coalesced, joined.usage.cost, residual)
        ('answer', True, 0.0, 0.5)
    """

    def __init__(self, max_entries: int = 1024) -> None:
        super().__init__(max_entries)
        self._leaders = 0
        self._joins = 0
        self._saved_cost = 0.0
        self._saved_latency = 0.0

    def join(
        self, model: str, prompt: str, max_output_tokens: int, now: float
    ) -> tuple[LLMResponse, float] | None:
        """Attach to an in-flight identical call, or None when none covers *now*.

        Returns the shared response (usage re-stamped: zero tokens/cost,
        latency = the residual wait) plus the residual itself, which the
        caller waits out.
        """
        key = (model, prompt, max_output_tokens)
        with self._lock:
            flight: _Flight | None = self._peek(key)
            if flight is None or not flight.start <= now < flight.end:
                return None
            # ``now < end`` guarantees a positive difference, but float
            # subtraction at adjacent representable instants can round to
            # 0.0 — clamp so a residual (a wait) is never negative.
            residual = max(0.0, flight.end - now)
            self._joins += 1
            self._saved_cost += flight.response.usage.cost
            self._saved_latency += max(
                0.0, flight.response.usage.latency - residual
            )
            self._entries.move_to_end(key)
            shared = replace(
                flight.response,
                usage=LLMUsage(0, 0, cost=0.0, latency=residual),
                coalesced=True,
            )
            return shared, residual

    def record(
        self,
        model: str,
        prompt: str,
        max_output_tokens: int,
        start: float,
        end: float,
        response: LLMResponse,
        now: float | None = None,
    ) -> None:
        """Record a completed leader call's interval and response.

        *now* is the recording clock instant used for eviction: flights
        still in flight at *now* (``end > now``) are never dropped by the
        LRU bound.  When omitted it defaults to this flight's own ``end``
        — the latest instant the recorder can have observed.
        """
        with self._lock:
            self._leaders += 1
            self._store(
                (model, prompt, max_output_tokens),
                _Flight(start=start, end=end, response=response),
                live_until=end,
                now=end if now is None else now,
            )

    def stats(self) -> FlightStats:
        with self._lock:
            return FlightStats(
                leaders=self._leaders,
                joins=self._joins,
                entries=len(self._entries),
                saved_cost=self._saved_cost,
                saved_latency=self._saved_latency,
            )
