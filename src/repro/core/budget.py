"""Budgets: live QoS accounting during plan execution.

"The task coordinator ... receives a plan ... along with an initial budget
and projected costs ... monitoring the execution ... and updating the
budget with actual costs incurred as the execution progresses"
(Section V-H).  :class:`Budget` is that record: a ledger of charges per
source, projections from the optimizer, and violation checks the
coordinator consults after every step.

The ledger is an append-only log with one windowed read:
:meth:`Budget.window` yields the charges the opening thread makes while
the window is open (the journal's per-node effect record).
:meth:`Budget.charges` copies the whole ledger and is for whole-ledger
consumers (reports, tests) only.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, TYPE_CHECKING

from ..clock import SimClock
from .qos import QoSSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..observability import MetricsRegistry
    from ..observability.metrics import CollectorSink


@dataclass(frozen=True)
class Charge:
    """One ledger entry."""

    source: str
    cost: float
    latency: float
    quality: float | None
    timestamp: float
    note: str = ""


@dataclass
class Projection:
    """The optimizer's pre-execution estimate for the whole plan."""

    cost: float = 0.0
    latency: float = 0.0
    quality: float = 1.0


class Budget:
    """Tracks actual cost/latency/quality against a :class:`QoSSpec`."""

    def __init__(
        self,
        qos: QoSSpec | None = None,
        clock: SimClock | None = None,
        projection: Projection | None = None,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        self.qos = qos or QoSSpec.unconstrained()
        self._clock = clock or SimClock()
        self.projection = projection or Projection()
        self.metrics = metrics
        self._charges: list[Charge] = []
        # Open charge windows per thread id (see :meth:`window`); a
        # thread's entry is dropped when its last window closes.
        self._windows: dict[int, list[list[Charge]]] = {}
        self._spent_cost = 0.0
        self._quality = 1.0
        self._cost_by_source: dict[str, float] = {}
        self._latency_by_source: dict[str, float] = {}
        self._start = self._clock.now()
        self._lock = threading.Lock()
        # Charging is a hot path, so the registry pulls from the ledger at
        # snapshot time (``budget.cost``/``budget.latency`` counters and
        # remaining-headroom gauges) instead of being pushed per charge.
        if metrics is not None:
            metrics.register_collector(self._collect_metrics)

    @property
    def clock(self) -> SimClock:
        return self._clock

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def charge(
        self,
        source: str,
        cost: float = 0.0,
        latency: float = 0.0,
        quality: float | None = None,
        note: str = "",
    ) -> Charge:
        """Record a charge; latency also advances the simulated clock.

        Clock-advance and ledger-append happen atomically under the
        budget lock: two threads charging concurrently each get a ledger
        position consistent with their timestamp (an interleaved
        advance/append could otherwise record timestamps out of order
        relative to the ledger).
        """
        if cost < 0 or latency < 0:
            raise ValueError("charges must be non-negative")
        with self._lock:
            if latency:
                self._clock.advance(latency)
            entry = Charge(
                source=source,
                cost=cost,
                latency=latency,
                quality=quality,
                timestamp=self._clock.now(),
                note=note,
            )
            if self._windows:
                for window in self._windows.get(threading.get_ident(), ()):
                    window.append(entry)
            self._post(entry)
        return entry

    def _post(self, entry: Charge) -> None:
        """Append *entry* to the ledger and its running totals.  Caller
        holds the lock."""
        self._charges.append(entry)
        self._spent_cost += entry.cost
        if entry.quality is not None:
            self._quality *= entry.quality
        self._cost_by_source[entry.source] = (
            self._cost_by_source.get(entry.source, 0.0) + entry.cost
        )
        self._latency_by_source[entry.source] = (
            self._latency_by_source.get(entry.source, 0.0) + entry.latency
        )

    @contextmanager
    def window(self) -> Iterator[list[Charge]]:
        """The charges the opening thread makes to this budget while the
        window is open, in charge order.

        A charge lands in every window its thread has open on the budget,
        so an outer window contains an inner one's charges.  Charges made
        by other threads — concurrent sibling nodes, other plans sharing
        the ledger — are not in it, which is what keeps a node's journaled
        effect record exact under the thread backend.
        """
        charges: list[Charge] = []
        thread = threading.get_ident()
        with self._lock:
            self._windows.setdefault(thread, []).append(charges)
        try:
            yield charges
        finally:
            with self._lock:
                stack = self._windows[thread]
                stack.pop()
                if not stack:
                    del self._windows[thread]

    def restore(
        self,
        entries: "list[dict[str, float | str | None]]",
        started_at: float | None = None,
    ) -> None:
        """Replay journaled ledger entries into this (fresh) budget.

        Crash recovery rebuilds a dead coordinator's budget from the
        write-ahead journal: each entry is appended with its *original*
        timestamp and the clock is **not** advanced — the shared durable
        clock already moved when the charge was first paid, and advancing
        it again would double-count latency on replay.  ``started_at``
        rewinds the budget's epoch to the journaled plan start so
        :meth:`elapsed_latency` spans the whole execution, not just the
        post-crash tail.
        """
        with self._lock:
            for raw in entries:
                quality = raw.get("quality")
                entry = Charge(
                    source=str(raw.get("source", "restored")),
                    cost=float(raw.get("cost", 0.0) or 0.0),
                    latency=float(raw.get("latency", 0.0) or 0.0),
                    quality=None if quality is None else float(quality),
                    timestamp=float(raw.get("timestamp", 0.0) or 0.0),
                    note=str(raw.get("note", "")),
                )
                self._post(entry)
            if started_at is not None:
                self._start = started_at

    def _collect_metrics(self, sink: "CollectorSink") -> None:
        """Report the ledger into a metrics snapshot being assembled.

        Headroom gauges are only reported while finite: an unconstrained
        QoS (``max_cost = inf``) must never push ``inf`` into a snapshot
        (the sink skips non-finite values, so the normal unconstrained
        case stays quiet without even bumping the drop counter).
        """
        with self._lock:
            cost_by_source = dict(self._cost_by_source)
            latency_by_source = dict(self._latency_by_source)
            n_charges = len(self._charges)
        for source, cost in cost_by_source.items():
            sink.inc("budget.cost", cost, source=source)
        for source, latency in latency_by_source.items():
            sink.inc("budget.latency", latency, source=source)
        sink.inc("budget.charges", float(n_charges))
        sink.set_gauge("budget.remaining_cost", self.remaining_cost())
        sink.set_gauge("budget.remaining_latency", self.remaining_latency())

    # ------------------------------------------------------------------
    # Totals
    # ------------------------------------------------------------------
    def spent_cost(self) -> float:
        # Maintained incrementally under the charge lock; reading a float
        # attribute is atomic, and this is consulted per violation check.
        return self._spent_cost

    def elapsed_latency(self) -> float:
        return self._clock.now() - self._start

    def quality_estimate(self) -> float:
        """Product of recorded step qualities (1.0 when none recorded).

        Chained non-deterministic steps compound: a plan is only as good as
        the product of its steps' fidelities, which is the pessimistic
        estimate the coordinator uses for violation checks.
        """
        # Maintained incrementally in ledger order, like ``_spent_cost``.
        return self._quality

    def remaining_cost(self) -> float:
        return self.qos.max_cost - self.spent_cost()

    def remaining_latency(self) -> float:
        return self.qos.max_latency - self.elapsed_latency()

    def charges(self) -> list[Charge]:
        with self._lock:
            return list(self._charges)

    def by_source(self) -> dict[str, float]:
        """Total cost per charging source."""
        with self._lock:
            return dict(self._cost_by_source)

    # ------------------------------------------------------------------
    # Violations
    # ------------------------------------------------------------------
    def violation(self) -> str | None:
        """The violated QoS dimension, or None when within budget."""
        if self.spent_cost() > self.qos.max_cost:
            return "cost"
        if self.elapsed_latency() > self.qos.max_latency:
            return "latency"
        if self.quality_estimate() < self.qos.min_quality:
            return "quality"
        return None

    def summary(self) -> dict[str, float]:
        return {
            "cost": self.spent_cost(),
            "latency": self.elapsed_latency(),
            "quality": self.quality_estimate(),
            "charges": float(len(self._charges)),
        }
