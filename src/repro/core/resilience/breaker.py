"""Circuit breakers: stop hammering agents that are known to be failing.

A breaker wraps calls to one downstream target (an agent, a model).  It is
**closed** in normal operation; after ``failure_threshold`` consecutive
failures it **opens** and short-circuits every call (callers route to
fallbacks instead of wasting budget).  After ``recovery_timeout`` simulated
seconds it becomes **half-open** and admits a limited number of probe
calls: one success closes it again, one failure re-opens it.

All timing runs on the :class:`~repro.clock.SimClock`, so breaker behavior
is deterministic and replayable.  Every state transition is recorded with
its timestamp for tests and observability.
"""

from __future__ import annotations

import threading
from typing import Iterator, TYPE_CHECKING

from ...clock import SimClock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...observability import MetricsRegistry

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """Closed/open/half-open breaker over a simulated clock."""

    def __init__(
        self,
        name: str = "",
        failure_threshold: int = 3,
        recovery_timeout: float = 30.0,
        half_open_probes: int = 1,
        probe_timeout: float | None = None,
        clock: SimClock | None = None,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(f"failure_threshold must be >= 1: {failure_threshold}")
        if recovery_timeout < 0:
            raise ValueError(f"recovery_timeout must be >= 0: {recovery_timeout}")
        if half_open_probes < 1:
            raise ValueError(f"half_open_probes must be >= 1: {half_open_probes}")
        if probe_timeout is not None and probe_timeout <= 0:
            raise ValueError(f"probe_timeout must be > 0: {probe_timeout}")
        self.name = name
        self.failure_threshold = failure_threshold
        self.recovery_timeout = recovery_timeout
        self.half_open_probes = half_open_probes
        #: How long an admitted half-open probe may stay unreported before
        #: its slot is reclaimed (defaults to the recovery timeout).  A
        #: probe whose caller crashed would otherwise hold the slot
        #: forever, wedging the breaker in half-open.
        self.probe_timeout = (
            probe_timeout if probe_timeout is not None else recovery_timeout
        )
        self.clock = clock or SimClock()
        self.metrics = metrics
        self.transitions: list[tuple[float, str]] = []
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        #: Admission timestamps of half-open probes still awaiting an
        #: outcome report; its length is the number of occupied slots.
        self._probe_admissions: list[float] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    def state(self) -> str:
        """Current state; lazily moves open -> half-open after the timeout."""
        with self._lock:
            self._refresh()
            return self._state

    def _refresh(self) -> None:
        if (
            self._state == OPEN
            and self.clock.now() - self._opened_at >= self.recovery_timeout
        ):
            self._transition(HALF_OPEN)
            self._probe_admissions.clear()
        if self._state == HALF_OPEN and self.probe_timeout > 0:
            # Reclaim slots of abandoned probes (caller crashed or never
            # reported); with every slot leaked the breaker would
            # otherwise wedge in half-open, admitting no one.
            now = self.clock.now()
            alive = [t for t in self._probe_admissions if now - t < self.probe_timeout]
            reclaimed = len(self._probe_admissions) - len(alive)
            if reclaimed:
                self._probe_admissions = alive
                if self.metrics is not None:
                    self.metrics.inc(
                        "breaker.probes_reclaimed", reclaimed, breaker=self.name
                    )

    def _transition(self, state: str) -> None:
        self._state = state
        self.transitions.append((self.clock.now(), state))
        if self.metrics is not None:
            self.metrics.inc("breaker.state_changes", breaker=self.name, state=state)

    # ------------------------------------------------------------------
    # Call gating
    # ------------------------------------------------------------------
    def allow(self) -> bool:
        """Whether the caller may attempt the protected call right now.

        In half-open state only ``half_open_probes`` callers are admitted
        until one of them reports an outcome; an admitted probe that
        never reports is reclaimed after :attr:`probe_timeout` simulated
        seconds so abandoned callers cannot wedge the breaker.
        """
        with self._lock:
            self._refresh()
            if self._state == CLOSED:
                return True
            if self._state == OPEN:
                return False
            if len(self._probe_admissions) < self.half_open_probes:
                self._probe_admissions.append(self.clock.now())
                return True
            return False

    def record_success(self) -> None:
        """A protected call succeeded; half-open probes close the breaker."""
        with self._lock:
            self._refresh()
            self._consecutive_failures = 0
            self._probe_admissions.clear()
            if self._state != CLOSED:
                self._transition(CLOSED)

    def record_failure(self) -> None:
        """A protected call failed; may open (or re-open) the breaker."""
        with self._lock:
            self._refresh()
            self._consecutive_failures += 1
            if self._state == HALF_OPEN:
                self._open()
            elif (
                self._state == CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._open()

    def _open(self) -> None:
        self._opened_at = self.clock.now()
        self._probe_admissions.clear()
        self._transition(OPEN)

    def force_open(self) -> None:
        """Open immediately (operator action / tests)."""
        with self._lock:
            if self._state != OPEN:
                self._open()

    def reset(self) -> None:
        """Close and forget failure history (operator action)."""
        with self._lock:
            self._consecutive_failures = 0
            self._probe_admissions.clear()
            if self._state != CLOSED:
                self._transition(CLOSED)

    def outstanding_probes(self) -> int:
        """Half-open probe slots currently held by unreported callers."""
        with self._lock:
            self._refresh()
            return len(self._probe_admissions)

    def describe(self) -> dict[str, object]:
        with self._lock:
            self._refresh()
            return {
                "name": self.name,
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "outstanding_probes": len(self._probe_admissions),
                "transitions": list(self.transitions),
            }


class BreakerBoard:
    """Per-target breakers sharing one configuration and clock.

    The coordinator keeps one board and consults ``for_agent(name)``
    before emitting ``EXECUTE_AGENT`` to *name*.
    """

    def __init__(
        self,
        clock: SimClock | None = None,
        failure_threshold: int = 3,
        recovery_timeout: float = 30.0,
        half_open_probes: int = 1,
        probe_timeout: float | None = None,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        self.clock = clock or SimClock()
        self.failure_threshold = failure_threshold
        self.recovery_timeout = recovery_timeout
        self.half_open_probes = half_open_probes
        self.probe_timeout = probe_timeout
        self.metrics = metrics
        self._breakers: dict[str, CircuitBreaker] = {}
        self._lock = threading.Lock()

    def for_agent(self, name: str) -> CircuitBreaker:
        with self._lock:
            breaker = self._breakers.get(name)
            if breaker is None:
                breaker = CircuitBreaker(
                    name=name,
                    failure_threshold=self.failure_threshold,
                    recovery_timeout=self.recovery_timeout,
                    half_open_probes=self.half_open_probes,
                    probe_timeout=self.probe_timeout,
                    clock=self.clock,
                    metrics=self.metrics,
                )
                self._breakers[name] = breaker
            return breaker

    def __iter__(self) -> Iterator[CircuitBreaker]:
        with self._lock:
            return iter(list(self._breakers.values()))
