"""The shared context handed to agents when they attach to the runtime.

Bundles the substrate handles an agent may need: the streams database, its
session, the simulated clock, the model catalog, both registries, and the
active budget.  Passing one context object keeps agent constructors small
and lets the runtime swap substrates in tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from ..clock import SimClock
from ..llm import ModelCatalog
from ..streams import StreamStore
from .budget import Budget
from .session import Session

if TYPE_CHECKING:  # avoid import cycles; registries import params only
    from ..observability import MetricsRegistry, Observability
    from .registries import AgentRegistry, DataRegistry


@dataclass
class AgentContext:
    """Everything an attached agent can reach."""

    store: StreamStore
    session: Session
    clock: SimClock
    catalog: ModelCatalog | None = None
    budget: Budget | None = None
    agent_registry: "AgentRegistry | None" = None
    data_registry: "DataRegistry | None" = None
    observability: "Observability | None" = None

    def charge(
        self, source: str, cost: float = 0.0, latency: float = 0.0, quality: float | None = None
    ) -> None:
        """Record a charge on the active budget, if any."""
        if self.budget is not None:
            self.budget.charge(source, cost=cost, latency=latency, quality=quality)

    # ------------------------------------------------------------------
    # Instrumentation (no-ops when observability is absent or disabled)
    # ------------------------------------------------------------------
    def span(self, name: str, kind: str = "internal", **attributes: Any):
        """A trace span context manager, or a no-op context when untraced.

        The no-op context still yields a (shared, discarding) span so
        call sites can set attributes unconditionally.
        """
        if self.observability is None:
            from ..observability.span import NOOP_SPAN

            return NOOP_SPAN
        return self.observability.span(name, kind=kind, **attributes)

    @property
    def metrics(self) -> "MetricsRegistry | None":
        """The session's metrics registry, if observability is wired."""
        if self.observability is None:
            return None
        return self.observability.metrics

    def metric_inc(self, name: str, value: float = 1.0, **labels: Any) -> None:
        metrics = self.metrics
        if metrics is not None:
            metrics.inc(name, value, **labels)
