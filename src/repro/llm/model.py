"""The simulated LLM: one call path under the reuse ladder.

A :class:`SimulatedLLM` stands in for a hosted model API.  It exercises the
identical code paths an API-backed deployment would — prompts in, text out,
token-metered cost, modeled latency, context-window limits, failures — while
staying deterministic and offline.  *What* it says is the pure function
:func:`repro.llm.answer.answer`; this module decides what a call is charged
and when it lands, in one straight-line walk (:meth:`SimulatedLLM.complete`):

    open the span -> ``cache.get`` -> ``single_flight.join`` (wait out the
    residual) -> ``_invoke`` -> ``cache.put`` -> ``_account``

Each rung and each side effect appears once.  ``_invoke`` is where an answer
is metered, waited for and recorded, whether or not the call rides an open
micro-batch window; ``_wait`` is the only way to spend latency (the clock
and, scaled, the wall); ``_account`` is the only place span attributes and
counter tallies are derived — from the response's own ``cached`` /
``coalesced`` / ``batched`` flags.  Only physical (non-riding) responses are
remembered by the cache, single-flight and the batcher.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, TYPE_CHECKING

from ..clock import SimClock
from ..errors import ContextWindowExceededError, LLMError
from ..observability.span import NOOP_SPAN
from .answer import answer, seeded_rng
from .tokenizer import count_tokens

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..observability import Observability
    from .batching import LLMBatcher
    from .cache import LLMCache
    from .capacity import ModelCapacity
    from .singleflight import SingleFlight


@dataclass(frozen=True)
class ModelSpec:
    """Capabilities and economics of one model in the catalog.

    Attributes:
        name: catalog identifier (``mega-xl``).
        tier: coarse size class (``xl``/``m``/``s``/``nano``/``ft``).
        quality: general-task answer fidelity in [0, 1].
        domain: ``general`` or a specialty (``hr``); fine-tuned models get
            ``domain_quality`` on their specialty's tasks instead of
            ``quality``.
        domain_quality: fidelity on the specialty domain's tasks.
        cost_per_1k_input / cost_per_1k_output: dollars per 1000 tokens.
        latency_base / latency_per_token: seconds per call / per token.
        context_window: maximum prompt tokens accepted.
    """

    name: str
    tier: str
    quality: float
    cost_per_1k_input: float
    cost_per_1k_output: float
    latency_base: float
    latency_per_token: float
    context_window: int = 8192
    domain: str = "general"
    domain_quality: float | None = None

    def quality_for(self, domain: str) -> float:
        """Effective quality when answering a task in *domain*."""
        if self.domain != "general" and domain == self.domain:
            return self.domain_quality if self.domain_quality is not None else self.quality
        return self.quality

    def cost_of(self, input_tokens: int, output_tokens: int) -> float:
        return (
            input_tokens * self.cost_per_1k_input
            + output_tokens * self.cost_per_1k_output
        ) / 1000.0

    def latency_of(self, input_tokens: int, output_tokens: int) -> float:
        return self.latency_base + (input_tokens + output_tokens) * self.latency_per_token


@dataclass(frozen=True)
class LLMUsage:
    """Metered resources for one call."""

    input_tokens: int
    output_tokens: int
    cost: float
    latency: float


@dataclass(frozen=True)
class LLMResponse:
    """A completed model call."""

    text: str
    usage: LLMUsage
    model: str
    structured: Any = None  # parsed form for task-directive answers
    domain: str = "general"  # knowledge domain the task drew on
    cached: bool = False  # served from an LLMCache (usage is zeroed)
    coalesced: bool = False  # joined an in-flight call (usage = residual wait)
    batched: bool = False  # rode a micro-batch window (own cost, residual wait)

    def items(self) -> list[Any]:
        """Structured answer as a list (empty when not list-valued)."""
        if isinstance(self.structured, list):
            return list(self.structured)
        return []


@dataclass
class UsageTracker:
    """Accumulates usage across calls (per model and total)."""

    calls: int = 0
    input_tokens: int = 0
    output_tokens: int = 0
    cost: float = 0.0
    latency: float = 0.0
    per_model: dict[str, dict[str, float]] = field(default_factory=dict)
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def record(self, model: str, usage: LLMUsage) -> None:
        # Read-modify-write tallies; clients on pool threads record
        # concurrently under the thread backend.
        with self._lock:
            self.calls += 1
            self.input_tokens += usage.input_tokens
            self.output_tokens += usage.output_tokens
            self.cost += usage.cost
            self.latency += usage.latency
            bucket = self.per_model.setdefault(
                model, {"calls": 0, "cost": 0.0, "latency": 0.0, "tokens": 0}
            )
            bucket["calls"] += 1
            bucket["cost"] += usage.cost
            bucket["latency"] += usage.latency
            bucket["tokens"] += usage.input_tokens + usage.output_tokens


class _BoundTallies:
    """One observability binding's worth of LLM counter tallies.

    Instead of pushing nine ``model=name`` counters per event (a label
    key and a locked dict add each), the client keeps plain slotted
    floats and the registry pulls them at snapshot time through
    :meth:`collect`.  Grouped events (a physical call bumps
    calls/tokens/cost together) take ONE lock acquisition.  Rebinding a
    client to a new observability sink freezes the old object — the
    client only bumps its current binding — so a swapped-in registry
    sees only post-swap events, exactly as push counters behaved.
    """

    __slots__ = (
        "lock", "model", "calls", "tokens", "cost", "failures",
        "cache_hits", "cache_misses", "coalesced", "batch_joins",
        "batch_windows",
    )

    def __init__(self, model: str) -> None:
        self.lock = threading.Lock()
        self.model = model
        self.calls = 0.0
        self.tokens = 0.0
        self.cost = 0.0
        self.failures = 0.0
        self.cache_hits = 0.0
        self.cache_misses = 0.0
        self.coalesced = 0.0
        self.batch_joins = 0.0
        self.batch_windows = 0.0

    def collect(self, sink: Any) -> None:
        model = self.model
        if self.calls:
            sink.inc("llm.calls", self.calls, model=model)
        # tokens/cost series exist exactly when a physical call or batch
        # join charged them — even at zero value (a free model still
        # created the counter key under the push scheme).
        if self.calls or self.batch_joins:
            sink.inc("llm.tokens", self.tokens, model=model)
            sink.inc("llm.cost", self.cost, model=model)
        if self.failures:
            sink.inc("llm.failures", self.failures, model=model)
        if self.cache_hits:
            sink.inc("llm.cache.hits", self.cache_hits, model=model)
        if self.cache_misses:
            sink.inc("llm.cache.misses", self.cache_misses, model=model)
        if self.coalesced:
            sink.inc("llm.coalesced", self.coalesced, model=model)
        if self.batch_joins:
            sink.inc("llm.batch.joins", self.batch_joins, model=model)
        if self.batch_windows:
            sink.inc("llm.batch.windows", self.batch_windows, model=model)




class SimulatedLLM:
    """A deterministic stand-in for a hosted LLM endpoint."""

    def __init__(
        self,
        spec: ModelSpec,
        clock: SimClock | None = None,
        tracker: UsageTracker | None = None,
        failure_rate: float = 0.0,
        seed: int = 0,
        observability: "Observability | None" = None,
        cache: "LLMCache | None" = None,
        capacity: "ModelCapacity | None" = None,
        single_flight: "SingleFlight | None" = None,
        batcher: "LLMBatcher | None" = None,
    ) -> None:
        if not 0.0 <= failure_rate <= 1.0:
            raise LLMError(f"failure_rate must be in [0, 1]: {failure_rate}")
        self.spec = spec
        self.clock = clock
        self.tracker = tracker
        self.failure_rate = failure_rate
        #: Optional tracing/metrics sink; each call opens an ``llm`` span
        #: and records ``llm.calls``/``llm.tokens``/``llm.cost`` metrics.
        self.observability = observability
        #: Optional result cache (normally the catalog's, shared by every
        #: client).  Hits bypass the model entirely: no clock advance, no
        #: tracker record, no failure roll, zero cost/latency.
        self.cache = cache
        #: Optional per-model slot limits (normally the catalog's, shared
        #: by every client).  Needs a clock: queue waits are simulated time.
        self.capacity = capacity
        #: Optional cross-plan coalescing of timeline-overlapping identical
        #: calls (normally the catalog's).  Needs a clock too.
        self.single_flight = single_flight
        #: Optional cross-plan micro-batching of *distinct-but-batchable*
        #: calls — same model + params, different prompts — into shared
        #: windows (normally the catalog's).  Needs a clock too.
        self.batcher = batcher
        self._seed = seed
        self._call_index = 0
        self._call_lock = threading.Lock()
        #: Real seconds slept per simulated latency second (default 0:
        #: fully simulated time).  The thread backend's benchmarks set a
        #: small scale so calls genuinely block — an I/O-bound stand-in
        #: the pool can overlap (``time.sleep`` releases the GIL).
        self.wall_latency_scale = 0.0
        # Instrument handles, bound lazily per observability instance so
        # each call pays dict increments instead of registry lookups
        # (``observability`` is often assigned after construction).
        self._span_name = f"llm:{spec.name}"
        self._bound_obs: "Observability | None" = None
        self._t: _BoundTallies | None = None
        self._h_latency = self._h_queue_wait = None

    def _bind_instruments(self, obs: "Observability") -> None:
        metrics = obs.metrics
        if metrics.enabled:
            # Fresh tallies per binding: if observability is later swapped,
            # the old registry keeps this (frozen) object and the new one
            # gets its own — post-swap events land only on the new sink.
            tallies = _BoundTallies(self.spec.name)
            metrics.register_collector(tallies.collect)
            self._t = tallies
            self._h_latency = metrics.histogram("llm.latency")
            self._h_queue_wait = metrics.histogram("llm.queue_wait")
        else:
            self._t = None
            self._h_latency = self._h_queue_wait = None
        self._bound_obs = obs

    def complete(
        self, prompt: str, max_output_tokens: int = 512, no_cache: bool = False
    ) -> LLMResponse:
        """Run one completion; raises on simulated transient failures.

        The reuse ladder, cheapest rung first — each rung runs only while
        no earlier one produced the response:

        * :attr:`cache` — a repeated ``(model, prompt, max_output_tokens)``
          call returns the memoized response at zero cost and latency;
        * :attr:`single_flight` — an identical call still in flight on the
          simulated timeline is shared: zero cost, the residual wait;
        * :meth:`_invoke` — the call happens, riding an open
          :attr:`batcher` window when one covers its start.

        Reuse is a pure short-circuit: it skips the failure roll and does
        not consume a call index, so enabling a rung changes which physical
        calls happen — runs that must be call-for-call deterministic pass
        *no_cache*, which bypasses all three (plans do this via
        ``plan.no_cache``).  Coalescing and batching are timeline concepts
        and additionally need a :attr:`clock`.
        """
        model, clock = self.spec.name, self.clock
        cache = None if no_cache else self.cache
        timed = not no_cache and clock is not None
        flight = self.single_flight if timed else None
        batcher = self.batcher if timed else None
        obs = self.observability
        if obs is None:
            # No sink: the same walk, over the do-nothing span, no tallies.
            tallies, span = None, NOOP_SPAN
        else:
            if obs is not self._bound_obs:
                self._bind_instruments(obs)
            tallies = self._t
            span = obs.span(self._span_name, kind="llm", model=model)
        with span:
            response, queue_wait = None, 0.0
            if cache is not None:
                response = cache.get(model, prompt, max_output_tokens)
                if response is None and tallies is not None:
                    with tallies.lock:
                        tallies.cache_misses += 1
            if response is None and flight is not None:
                joined = flight.join(model, prompt, max_output_tokens, clock.now())
                if joined is not None:
                    response, residual = joined
                    self._wait(residual)
            if response is None:
                try:
                    response, queue_wait = self._invoke(prompt, max_output_tokens, batcher)
                except LLMError:
                    if tallies is not None:
                        with tallies.lock:
                            tallies.failures += 1
                    raise
                if cache is not None and not response.batched:
                    cache.put(model, prompt, max_output_tokens, response)
            self._account(span, tallies, response, queue_wait)
            return response

    def _invoke(
        self, prompt: str, max_output_tokens: int, batcher: "LLMBatcher | None"
    ) -> tuple[LLMResponse, float]:
        """Answer, meter, wait and record one call: ``(response, queue wait)``.

        With a *batcher* the call first tries to ride the open micro-batch
        window covering its start.  The prompt is distinct from the window
        leader's, so a rider still has its own answer and is charged its
        own tokens and cost; what it skips is what the leader's physical
        invocation already paid for — call index, failure roll, capacity
        slot — and it lands with the batch (``exec_end``), which may be
        sooner *or later* than its solo latency would have been.

        The answer is synthesized before anything is consumed, so a prompt
        the model cannot answer (or that overflows the context window)
        raises without taking a batch member slot or a call index.
        """
        spec, clock = self.spec, self.clock
        model = spec.name
        input_tokens = count_tokens(prompt)
        if input_tokens > spec.context_window:
            raise ContextWindowExceededError(
                f"prompt of {input_tokens} tokens exceeds context window "
                f"{spec.context_window} of {model}"
            )
        text, structured, domain = answer(spec, self._seed, prompt)
        start = clock.now() if clock is not None else 0.0
        exec_end = (
            batcher.join(model, max_output_tokens, start) if batcher is not None else None
        )
        riding = exec_end is not None
        if not riding:
            with self._call_lock:
                self._call_index += 1
                call_index = self._call_index
            if self.failure_rate > 0:
                roll = seeded_rng(model, self._seed, prompt, f"fail-{call_index}").random()
                if roll < self.failure_rate:
                    raise LLMError(
                        f"simulated transient failure from {model} (call {call_index})"
                    )
        output_tokens = min(count_tokens(text), max_output_tokens)
        cost = spec.cost_of(input_tokens, output_tokens)
        solo_latency = spec.latency_of(input_tokens, output_tokens)
        queue_wait = 0.0
        if riding:
            latency = max(0.0, exec_end - start)
        else:
            latency = solo_latency
            if self.capacity is not None and clock is not None:
                # Queueing is simulated time only: it moves the clock, not
                # ``usage.latency`` (model time) and not the wall.
                queued_start = self.capacity.reserve(model, start, latency)
                queue_wait = queued_start - start
                clock.advance(queue_wait)
                start = queued_start
        self._wait(latency)
        usage = LLMUsage(input_tokens, output_tokens, cost=cost, latency=latency)
        if self.tracker is not None:
            self.tracker.record(model, usage)
        response = LLMResponse(
            text, usage, model, structured=structured, domain=domain, batched=riding
        )
        if riding:
            batcher.credit(solo_latency - latency, cost)
        elif clock is not None:
            # Only a physical call is remembered: it leads a flight that
            # identical calls may join and anchors the window that later
            # batchable calls ride instead of reserving their own slot.
            end = start + latency
            if self.single_flight is not None:
                self.single_flight.record(
                    model, prompt, max_output_tokens, start, end, response,
                    now=clock.now(),
                )
            if self.batcher is not None:
                self.batcher.open(model, max_output_tokens, start, end)
        return response, queue_wait

    def _wait(self, latency: float) -> None:
        """Spend *latency* simulated seconds — the only way a call does."""
        if self.clock is not None:
            self.clock.advance(latency)
        if self.wall_latency_scale > 0:
            # Block for real: the simulated latency becomes actual wall
            # time, which is what makes the thread backend's overlap
            # measurable (and the serial backend's lack of it).
            time.sleep(latency * self.wall_latency_scale)

    def _account(
        self, span: Any, tallies: _BoundTallies | None, response: LLMResponse,
        queue_wait: float,
    ) -> None:
        """Stamp the span and bump the tallies of one answered call.

        Both derive from the response's own flags.  Attribute keys and
        their insertion order are part of the byte-stable trace export.
        """
        usage = response.usage
        # Tokens and cost are this caller's for a physical call and for a
        # batch join alike (per-call attribution); ``llm.calls`` counts
        # model invocations, so only the former is one.
        charged = not (response.cached or response.coalesced)
        physical = charged and not response.batched
        if response.cached:
            span.set_attribute("cached", True)
        elif response.coalesced:
            span.set_attribute("coalesced", True)
            span.set_attribute("residual_wait", usage.latency)
        elif response.batched:
            span.set_attribute("batched", True)
            span.set_attribute("batch_residual", usage.latency)
        if charged:
            span.set_attribute("input_tokens", usage.input_tokens)
            span.set_attribute("output_tokens", usage.output_tokens)
            span.set_attribute("cost", usage.cost)
            if queue_wait > 0:
                span.set_attribute("queue_wait", queue_wait)
        if tallies is None:
            return
        with tallies.lock:
            if response.cached:
                tallies.cache_hits += 1
            elif response.coalesced:
                tallies.coalesced += 1
            elif response.batched:
                tallies.batch_joins += 1
            else:
                tallies.calls += 1
                if self.batcher is not None and self.clock is not None:
                    tallies.batch_windows += 1  # the one ``_invoke`` opened
            if charged:
                tallies.tokens += usage.input_tokens + usage.output_tokens
                tallies.cost += usage.cost
        if physical:
            self._h_latency.observe(usage.latency)
            if queue_wait > 0:
                self._h_queue_wait.observe(queue_wait)
