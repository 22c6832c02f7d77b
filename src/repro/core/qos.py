"""Quality-of-service specifications.

QoS is the contract the planners and optimizer work against: "cost,
accuracy, and latency" (Abstract, Sections V-G/H).  A :class:`QoSSpec`
bounds a task; the budget (:mod:`repro.core.budget`) tracks actuals
against it during execution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class QoSSpec:
    """Constraints and preferences for one task execution.

    Attributes:
        max_cost: dollar budget (inf = unconstrained).
        max_latency: seconds of simulated latency allowed.
        min_quality: required result quality in [0, 1].
        objective: what the optimizer minimizes/maximizes among feasible
            plans: ``cost``, ``latency``, or ``quality`` (maximized).
    """

    max_cost: float = math.inf
    max_latency: float = math.inf
    min_quality: float = 0.0
    objective: str = "cost"

    def __post_init__(self) -> None:
        if self.max_cost < 0 or self.max_latency < 0:
            raise ValueError("QoS bounds must be non-negative")
        if not 0.0 <= self.min_quality <= 1.0:
            raise ValueError(f"min_quality must be in [0, 1]: {self.min_quality}")
        if self.objective not in {"cost", "latency", "quality"}:
            raise ValueError(f"unknown objective: {self.objective!r}")

    def admits(self, cost: float, latency: float, quality: float) -> bool:
        """Whether an estimate satisfies all three constraints."""
        return (
            cost <= self.max_cost
            and latency <= self.max_latency
            and quality >= self.min_quality
        )

    @classmethod
    def unconstrained(cls) -> "QoSSpec":
        return cls()
