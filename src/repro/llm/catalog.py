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
    """Registry of model specs; hands out clients that read its plumbing.

    The catalog is the one owner of what every LLM call shares: the clock,
    the usage tracker, the observability sink, the reuse ladder (result
    cache, capacity, single-flight, batcher) and the wall scale.  Each is a
    plain attribute, set by assignment; a client reads them from here on
    every call, so a swap reaches clients already handed out.
    """

    def __init__(
        self,
        specs: tuple[ModelSpec, ...] = DEFAULT_SPECS,
        clock: SimClock | None = None,
        tracker: UsageTracker | None = None,
    ) -> None:
        self.clock = clock
        self.tracker = tracker or UsageTracker()
        #: Transient-failure rate of every client — the chaos controller's
        #: LLM fault-injection knob (normally zero).
        self.default_failure_rate = 0.0
        #: Optional tracing/metrics sink (the Blueprint wires its own).
        self.observability = None
        #: Optional shared result cache (opt-in; see :class:`LLMCache`).
        self.cache: LLMCache | None = None
        #: Optional per-model concurrency limits (opt-in; the fleet runtime
        #: wires one — see :class:`ModelCapacity`).
        self.capacity: ModelCapacity | None = None
        #: Optional cross-plan single-flight coalescing (``run_fleet``
        #: wires one by default; see :class:`SingleFlight`).
        self.single_flight: SingleFlight | None = None
        #: Optional cross-plan micro-batch coalescing (opt-in; see
        #: :class:`LLMBatcher`).
        self.batcher: LLMBatcher | None = None
        #: Real seconds slept per simulated latency second (0.0 = fully
        #: simulated; the thread backend's wall-clock benchmark sets a
        #: small scale so LLM calls actually block and the pool has
        #: something to overlap — ``time.sleep`` releases the GIL).
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

    def client(self, name: str) -> SimulatedLLM:
        """The client for *name*, built on first use.

        A client fails at :attr:`default_failure_rate`; when the rate has
        changed since the client was built, a fresh one replaces it, so a
        chaos infection starts its call index (and its failure rolls) over.
        """
        spec = self.spec(name)
        failure_rate = self.default_failure_rate
        with self._lock:
            client = self._clients.get(name)
            if client is None or client.failure_rate != failure_rate:
                client = SimulatedLLM(spec, self, failure_rate=failure_rate)
                self._clients[name] = client
            return client
