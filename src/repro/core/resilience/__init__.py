"""Resilience: retries, circuit breaking, dead letters, chaos injection.

The enterprise-grade execution story of Sections IV/V-H/VII — coordinators
that monitor budgets, containers that restart on failure, agents whose
nondeterminism demands error handling — needs first-class reliability
primitives.  This package provides them:

* :class:`RetryPolicy` — exponential backoff with deterministic jitter,
  transient/fatal classification, charged to the simulated clock/budget.
* :class:`CircuitBreaker` / :class:`BreakerBoard` — per-agent breakers the
  coordinator consults before emitting ``EXECUTE_AGENT``.
* :class:`DeadLetterQueue` — per-session quarantine stream for failed work
  items, replayable after recovery.
* :class:`ChaosController` / :class:`ChaosSpec` — seeded fault injection
  (container kills, LLM brownouts, store replica faults) for benchmarks/tests.
"""

from .breaker import CLOSED, HALF_OPEN, OPEN, BreakerBoard, CircuitBreaker
from .chaos import ChaosController, ChaosSpec, KillSwitch
from .deadletter import DEAD_LETTER_TAG, REPLAYED_TAG, DeadLetterQueue
from .retry import RetryPolicy, classify_error, is_transient

__all__ = [
    "BreakerBoard",
    "CircuitBreaker",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "ChaosController",
    "ChaosSpec",
    "KillSwitch",
    "DeadLetterQueue",
    "DEAD_LETTER_TAG",
    "REPLAYED_TAG",
    "RetryPolicy",
    "classify_error",
    "is_transient",
]
