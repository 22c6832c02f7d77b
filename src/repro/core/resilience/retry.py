"""Retry policies: exponential backoff with deterministic jitter.

"Agents can demonstrate non-deterministic behavior ... requiring error
handling and retry mechanisms" (Section VII).  A :class:`RetryPolicy`
decides *whether* a failure is worth retrying (transient vs fatal, via the
:class:`~repro.errors.ReproError` hierarchy's ``transient`` flag) and *how
long* to back off before the next attempt.  Backoff is charged to the
simulated clock — and, when a budget is supplied, to the budget's latency
ledger — so reliability spends show up in QoS accounting like any other
cost.

Jitter is deterministic: it is derived by hashing ``(seed, key, attempt)``,
never from global randomness, so two runs of the same seeded scenario back
off identically and traces replay byte-for-byte.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, TYPE_CHECKING

from ...errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...clock import SimClock
    from ...observability import MetricsRegistry
    from ..budget import Budget


def classify_error(error: BaseException) -> str:
    """``"transient"`` (worth retrying) or ``"fatal"`` (fail fast).

    Library errors carry their own classification; common OS-level blips
    (timeouts, dropped connections) are transient; everything else —
    programming errors, validation failures — is fatal.
    """
    if isinstance(error, ReproError):
        return "transient" if error.transient else "fatal"
    if isinstance(error, (TimeoutError, ConnectionError, InterruptedError)):
        return "transient"
    return "fatal"


def is_transient(error: BaseException) -> bool:
    return classify_error(error) == "transient"


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff with deterministic jitter.

    Attributes:
        max_attempts: total tries including the first (1 = no retries).
        base_delay: backoff before the first retry, in simulated seconds.
        multiplier: exponential growth factor per further retry.
        max_delay: backoff ceiling.
        jitter: fraction of the raw delay randomized away (0 = none,
            0.5 = delays land in ``[0.5 * raw, raw]``).
        seed: jitter seed; same seed + key + attempt => same delay.
        retry_all: when True, retry fatal errors too (legacy
            immediate-retry behavior; used by ``max_node_retries``).
    """

    max_attempts: int = 3
    base_delay: float = 0.1
    multiplier: float = 2.0
    max_delay: float = 30.0
    jitter: float = 0.5
    seed: int = 0
    retry_all: bool = False

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1: {self.max_attempts}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1]: {self.jitter}")

    @classmethod
    def none(cls) -> "RetryPolicy":
        """A single attempt, no retries."""
        return cls(max_attempts=1, base_delay=0.0)

    @classmethod
    def immediate(cls, retries: int) -> "RetryPolicy":
        """Naive policy: *retries* extra attempts, zero backoff, any error."""
        return cls(max_attempts=retries + 1, base_delay=0.0, retry_all=True)

    def should_retry(self, error: BaseException, attempt: int) -> bool:
        """Whether to retry after *attempt* (1-based) failed with *error*."""
        if attempt >= self.max_attempts:
            return False
        return self.retry_all or is_transient(error)

    def delay(self, attempt: int, key: str = "") -> float:
        """Backoff (simulated seconds) before retry number *attempt*.

        *attempt* is 1-based: the delay after the first failure is
        ``delay(1)``.  *key* scopes the jitter (e.g. a plan-node id) so
        concurrent retry loops do not share a jitter sequence.
        """
        if attempt < 1:
            raise ValueError(f"attempt is 1-based: {attempt}")
        raw = min(self.base_delay * self.multiplier ** (attempt - 1), self.max_delay)
        if raw <= 0.0 or self.jitter == 0.0:
            return raw
        digest = hashlib.md5(
            f"{self.seed}|{key}|{attempt}".encode("utf-8")
        ).digest()
        fraction = int.from_bytes(digest[:8], "little") / 2**64
        return raw * (1.0 - self.jitter * fraction)

    def charge_backoff(
        self,
        attempt: int,
        key: str = "",
        clock: "SimClock | None" = None,
        budget: "Budget | None" = None,
        metrics: "MetricsRegistry | None" = None,
    ) -> float:
        """Apply the backoff for *attempt* to the clock/budget; returns it.

        A budget charge advances the shared clock itself, so only one of
        the two is charged.  With *metrics*, the retry and its backoff
        are recorded (``agent.retries`` counter, ``retry.backoff_seconds``
        histogram).
        """
        pause = self.delay(attempt, key)
        if pause > 0.0:
            if budget is not None:
                budget.charge(f"retry:{key or 'anonymous'}", latency=pause, note="backoff")
            elif clock is not None:
                clock.advance(pause)
        if metrics is not None:
            metrics.inc("agent.retries")
            metrics.observe("retry.backoff_seconds", pause)
        return pause

    def call(
        self,
        fn: Callable[[], Any],
        key: str = "",
        clock: "SimClock | None" = None,
        budget: "Budget | None" = None,
        metrics: "MetricsRegistry | None" = None,
    ) -> Any:
        """Run *fn* under this policy, backing off between attempts.

        Re-raises the last error when attempts are exhausted or the error
        is fatal.
        """
        attempt = 0
        while True:
            attempt += 1
            try:
                return fn()
            except Exception as error:  # noqa: BLE001 - classified below
                if not self.should_retry(error, attempt):
                    raise
                self.charge_backoff(attempt, key, clock=clock, budget=budget, metrics=metrics)
