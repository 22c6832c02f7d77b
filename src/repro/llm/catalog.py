"""The model catalog: the enterprise's available LLM endpoints.

The optimizer chooses among these by cost/latency/quality (Section V-G);
the defaults span four general tiers plus a fine-tuned HR model — cheap and
strong on HR tasks, weak on open-world knowledge — which is exactly the
trade-off the paper's enterprise setting motivates.
"""

from __future__ import annotations

import threading

from ..clock import SimClock
from ..errors import ModelNotFoundError
from .batching import LLMBatcher
from .cache import LLMCache
from .capacity import ModelCapacity
from .model import ModelSpec, SimulatedLLM, UsageTracker
from .singleflight import SingleFlight

#: Default model fleet (prices are per 1k tokens; latency in seconds).
DEFAULT_SPECS: tuple[ModelSpec, ...] = (
    ModelSpec(
        name="mega-xl",
        tier="xl",
        quality=0.98,
        cost_per_1k_input=0.030,
        cost_per_1k_output=0.060,
        latency_base=1.8,
        latency_per_token=0.020,
        context_window=32768,
    ),
    ModelSpec(
        name="mega-m",
        tier="m",
        quality=0.92,
        cost_per_1k_input=0.010,
        cost_per_1k_output=0.020,
        latency_base=0.9,
        latency_per_token=0.010,
        context_window=16384,
    ),
    ModelSpec(
        name="mega-s",
        tier="s",
        quality=0.80,
        cost_per_1k_input=0.002,
        cost_per_1k_output=0.004,
        latency_base=0.4,
        latency_per_token=0.005,
        context_window=8192,
    ),
    ModelSpec(
        name="mega-nano",
        tier="nano",
        quality=0.62,
        cost_per_1k_input=0.0005,
        cost_per_1k_output=0.0010,
        latency_base=0.15,
        latency_per_token=0.002,
        context_window=4096,
    ),
    ModelSpec(
        name="hr-ft",
        tier="ft",
        quality=0.60,
        domain="hr",
        domain_quality=0.96,
        cost_per_1k_input=0.001,
        cost_per_1k_output=0.002,
        latency_base=0.25,
        latency_per_token=0.003,
        context_window=8192,
    ),
)


class ModelCatalog:
    """Registry of model specs; hands out instrumented clients."""

    def __init__(
        self,
        specs: tuple[ModelSpec, ...] = DEFAULT_SPECS,
        clock: SimClock | None = None,
        tracker: UsageTracker | None = None,
        default_failure_rate: float = 0.0,
        cache: LLMCache | None = None,
        capacity: ModelCapacity | None = None,
        single_flight: SingleFlight | None = None,
        batcher: LLMBatcher | None = None,
    ) -> None:
        self.clock = clock
        self.tracker = tracker or UsageTracker()
        #: Transient-failure rate applied to clients when the caller does
        #: not name one — the chaos controller's LLM fault-injection knob.
        self.default_failure_rate = default_failure_rate
        #: Optional tracing/metrics sink, propagated to every client
        #: (settable after construction; the Blueprint wires its own).
        self.observability = None
        #: Optional shared result cache (opt-in; see :class:`LLMCache`).
        self.cache = cache
        #: Optional per-model concurrency limits shared by every client
        #: (opt-in; the fleet runtime wires one — see :class:`ModelCapacity`).
        self.capacity = capacity
        #: Optional cross-plan single-flight coalescing shared by every
        #: client (``run_fleet`` wires one by default; see :class:`SingleFlight`).
        self.single_flight = single_flight
        #: Optional cross-plan micro-batch coalescing shared by every
        #: client (opt-in; see :class:`LLMBatcher`).
        self.batcher = batcher
        #: Real seconds slept per simulated latency second, propagated to
        #: every client (0.0 = fully simulated; the thread backend's
        #: wall-clock benchmark sets a small scale so LLM calls actually
        #: block and the pool has something to overlap).
        self.wall_latency_scale = 0.0
        self._specs: dict[str, ModelSpec] = {}
        self._clients: dict[str, SimulatedLLM] = {}
        self._lock = threading.Lock()
        for spec in specs:
            self.register(spec)

    def register(self, spec: ModelSpec) -> None:
        with self._lock:
            self._specs[spec.name] = spec
            self._clients.pop(spec.name, None)

    def spec(self, name: str) -> ModelSpec:
        with self._lock:
            spec = self._specs.get(name)
        if spec is None:
            raise ModelNotFoundError(f"no model named {name!r} in catalog")
        return spec

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._specs)

    def specs(self) -> list[ModelSpec]:
        with self._lock:
            return [self._specs[name] for name in sorted(self._specs)]

    def client(self, name: str, failure_rate: float | None = None) -> SimulatedLLM:
        """A (cached) client for *name*, wired to this catalog's clock/tracker.

        *failure_rate* defaults to :attr:`default_failure_rate` (normally
        zero; raised by chaos injection to simulate provider brownouts).
        """
        spec = self.spec(name)
        if failure_rate is None:
            failure_rate = self.default_failure_rate
        with self._lock:
            client = self._clients.get(name)
            if client is None or client.failure_rate != failure_rate:
                client = SimulatedLLM(spec, failure_rate=failure_rate)
                self._clients[name] = client
            # Wire shared plumbing on EVERY fetch, not just at construction:
            # the catalog's tracker, clock, result cache, or observability
            # sink may have been swapped since this client was built, and a
            # stale reference would silently record usage into the
            # abandoned sink.
            client.clock = self.clock
            client.tracker = self.tracker
            client.cache = self.cache
            client.capacity = self.capacity
            client.single_flight = self.single_flight
            client.batcher = self.batcher
            client.observability = self.observability
            client.wall_latency_scale = self.wall_latency_scale
            return client

    def best(self, domain: str = "general") -> ModelSpec:
        """Highest effective quality model for *domain*."""
        return max(self.specs(), key=lambda spec: spec.quality_for(domain))
