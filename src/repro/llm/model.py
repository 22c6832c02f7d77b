"""The simulated LLM.

A :class:`SimulatedLLM` stands in for a hosted model API.  It exercises the
identical code paths an API-backed deployment would — prompts in, text out,
token-metered cost, modeled latency, context-window limits, failures — while
staying deterministic and offline.

Prompts follow a simple *task directive* convention (see
:mod:`repro.llm.prompts`): a ``TASK:`` line selects a capability, further
``KEY: value`` lines parameterize it, and the remainder is free text.  This
mirrors how production systems prompt models into structured behaviors, and
gives the knowledge-backed tasks (list cities, related titles, extraction,
NL→SQL) answers that the planners and benchmarks can score.

Model *quality* in [0, 1] controls answer fidelity: list-valued answers keep
each item with probability ``quality`` and may gain a plausible-but-wrong
item (a hallucination) with probability ``1 - quality``.  Degradation is
seeded from (model name, prompt), so a given model answers a given prompt
identically every time.
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Sequence, TYPE_CHECKING

import numpy as np

from ..clock import SimClock
from ..errors import ContextWindowExceededError, LLMError
from ..observability.span import NOOP_SPAN
from . import knowledge
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


_DIRECTIVE_RE = re.compile(r"^([A-Z_]+):\s*(.*)$")

#: Tasks whose fidelity depends on HR domain knowledge (a fine-tuned HR
#: model answers these at its domain quality).
_HR_TASKS = {"RELATED_TITLES", "LIST_SKILLS", "EXTRACT", "NL2SQL", "MATCH_EXPLAIN"}


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
        # Per-thread: concurrent callers must not read each other's waits.
        self._queue_wait_tls = threading.local()
        # Instrument handles, bound lazily per observability instance so
        # each call pays dict increments instead of registry lookups
        # (``observability`` is often assigned after construction).
        self._span_name = f"llm:{spec.name}"
        self._bound_obs: "Observability | None" = None
        self._t: _BoundTallies | None = None
        self._h_latency = self._h_queue_wait = None

    @property
    def _last_queue_wait(self) -> float:
        return getattr(self._queue_wait_tls, "value", 0.0)

    @_last_queue_wait.setter
    def _last_queue_wait(self, value: float) -> None:
        self._queue_wait_tls.value = value

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

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def complete(
        self, prompt: str, max_output_tokens: int = 512, no_cache: bool = False
    ) -> LLMResponse:
        """Run one completion; raises on simulated transient failures.

        With a :attr:`cache` attached (and *no_cache* unset), a repeated
        ``(model, prompt, max_output_tokens)`` call returns the memoized
        response at zero cost and latency.  A hit is a pure short-circuit:
        it skips the failure roll and does not consume a call index, so
        enabling the cache changes which physical calls happen — runs that
        must be call-for-call deterministic pass ``no_cache`` (plans do
        this via ``plan.no_cache``).
        """
        cache = self.cache if not no_cache else None
        hit = (
            cache.get(self.spec.name, prompt, max_output_tokens)
            if cache is not None
            else None
        )
        obs = self.observability
        if obs is None:
            # No sink: the same walk, over the do-nothing span, no tallies.
            tallies = None
            span = NOOP_SPAN
        else:
            if obs is not self._bound_obs:
                self._bind_instruments(obs)
            tallies = self._t
            span = obs.span(self._span_name, kind="llm", model=self.spec.name)
        with span:
            if hit is not None:
                span.set_attribute("cached", True)
                if tallies is not None:
                    with tallies.lock:
                        tallies.cache_hits += 1
                return hit
            if cache is not None and tallies is not None:
                with tallies.lock:
                    tallies.cache_misses += 1
            joined = self._try_join(prompt, max_output_tokens, no_cache)
            if joined is not None:
                span.set_attribute("coalesced", True)
                span.set_attribute("residual_wait", joined.usage.latency)
                if tallies is not None:
                    with tallies.lock:
                        tallies.coalesced += 1
                return joined
            batched = self._try_batch(prompt, max_output_tokens, no_cache)
            if batched is not None:
                usage = batched.usage
                span.set_attribute("batched", True)
                span.set_attribute("batch_residual", usage.latency)
                span.set_attribute("input_tokens", usage.input_tokens)
                span.set_attribute("output_tokens", usage.output_tokens)
                span.set_attribute("cost", usage.cost)
                if tallies is not None:
                    # A join is not a physical call (``llm.calls`` counts
                    # model invocations), but its tokens and cost ARE
                    # charged to the caller — per-call attribution.
                    with tallies.lock:
                        tallies.batch_joins += 1
                        tallies.tokens += usage.input_tokens + usage.output_tokens
                        tallies.cost += usage.cost
                return batched
            try:
                response = self._complete(prompt, max_output_tokens)
            except LLMError:
                if tallies is not None:
                    with tallies.lock:
                        tallies.failures += 1
                raise
            if cache is not None:
                cache.put(self.spec.name, prompt, max_output_tokens, response)
            usage = response.usage
            span.set_attribute("input_tokens", usage.input_tokens)
            span.set_attribute("output_tokens", usage.output_tokens)
            span.set_attribute("cost", usage.cost)
            if self._last_queue_wait > 0:
                span.set_attribute("queue_wait", self._last_queue_wait)
            if tallies is not None:
                with tallies.lock:
                    tallies.calls += 1
                    tallies.tokens += usage.input_tokens + usage.output_tokens
                    tallies.cost += usage.cost
                self._h_latency.observe(usage.latency)
                if self._last_queue_wait > 0:
                    self._h_queue_wait.observe(self._last_queue_wait)
            return response

    def _try_join(
        self, prompt: str, max_output_tokens: int, no_cache: bool
    ) -> LLMResponse | None:
        """Attach to an in-flight identical call, paying only the residual.

        Coalescing is a timeline concept: it needs a clock to know *when*
        this call starts, and ``no_cache`` bypasses it just like the cache
        (determinism suites need every physical call to happen).
        """
        if no_cache or self.single_flight is None or self.clock is None:
            return None
        joined = self.single_flight.join(
            self.spec.name, prompt, max_output_tokens, self.clock.now()
        )
        if joined is None:
            return None
        response, residual = joined
        if residual > 0:
            self.clock.advance(residual)
        return response

    def _try_batch(
        self, prompt: str, max_output_tokens: int, no_cache: bool
    ) -> LLMResponse | None:
        """Ride an open micro-batch window, paying only the residual wait.

        Unlike a single-flight join the prompt here is *different* from
        the window leader's, so the joiner computes its own answer and is
        charged its own token cost — only latency and the capacity slot
        are amortized (the batch already holds one).  No failure roll, no
        call index, no capacity reservation: the physical invocation is
        the leader's.  ``no_cache`` bypasses batching like the other
        coalescing rungs.
        """
        if no_cache or self.batcher is None or self.clock is None:
            return None
        input_tokens = count_tokens(prompt)
        if input_tokens > self.spec.context_window:
            # Fall through to the physical path so the proper
            # ContextWindowExceededError is raised without having
            # consumed one of the batch's member slots.
            return None
        now = self.clock.now()
        exec_end = self.batcher.join(self.spec.name, max_output_tokens, now)
        if exec_end is None:
            return None
        text, structured, domain = self._answer(prompt)
        output_tokens = min(count_tokens(text), max_output_tokens)
        solo_latency = self.spec.latency_of(input_tokens, output_tokens)
        residual = max(0.0, exec_end - now)
        usage = LLMUsage(
            input_tokens=input_tokens,
            output_tokens=output_tokens,
            cost=self.spec.cost_of(input_tokens, output_tokens),
            latency=residual,
        )
        self._last_queue_wait = 0.0
        if residual > 0:
            self.clock.advance(residual)
        if self.wall_latency_scale > 0:
            time.sleep(residual * self.wall_latency_scale)
        if self.tracker is not None:
            self.tracker.record(self.spec.name, usage)
        self.batcher.credit(solo_latency - residual, usage.cost)
        return LLMResponse(
            text=text,
            usage=usage,
            model=self.spec.name,
            structured=structured,
            domain=domain,
            batched=True,
        )

    def _complete(self, prompt: str, max_output_tokens: int = 512) -> LLMResponse:
        input_tokens = count_tokens(prompt)
        if input_tokens > self.spec.context_window:
            raise ContextWindowExceededError(
                f"prompt of {input_tokens} tokens exceeds context window "
                f"{self.spec.context_window} of {self.spec.name}"
            )
        with self._call_lock:
            self._call_index += 1
            call_index = self._call_index
        if self.failure_rate > 0:
            failure_roll = self._rng(prompt, salt=f"fail-{call_index}").random()
            if failure_roll < self.failure_rate:
                raise LLMError(
                    f"simulated transient failure from {self.spec.name} "
                    f"(call {call_index})"
                )
        text, structured, domain = self._answer(prompt)
        output_tokens = min(count_tokens(text), max_output_tokens)
        usage = LLMUsage(
            input_tokens=input_tokens,
            output_tokens=output_tokens,
            cost=self.spec.cost_of(input_tokens, output_tokens),
            latency=self.spec.latency_of(input_tokens, output_tokens),
        )
        self._last_queue_wait = 0.0
        start = self.clock.now() if self.clock is not None else 0.0
        if self.capacity is not None and self.clock is not None:
            actual = self.capacity.reserve(self.spec.name, start, usage.latency)
            self._last_queue_wait = actual - start
            if self._last_queue_wait > 0:
                self.clock.advance(self._last_queue_wait)
            start = actual
        if self.clock is not None:
            self.clock.advance(usage.latency)
        if self.wall_latency_scale > 0:
            # Block for real: the simulated latency becomes actual wall
            # time, which is what makes the thread backend's overlap
            # measurable (and the serial backend's lack of it).
            time.sleep(usage.latency * self.wall_latency_scale)
        if self.tracker is not None:
            self.tracker.record(self.spec.name, usage)
        response = LLMResponse(
            text=text,
            usage=usage,
            model=self.spec.name,
            structured=structured,
            domain=domain,
        )
        if self.single_flight is not None and self.clock is not None:
            self.single_flight.record(
                self.spec.name,
                prompt,
                max_output_tokens,
                start,
                start + usage.latency,
                response,
                now=self.clock.now(),
            )
        if self.batcher is not None and self.clock is not None:
            # This physical call anchors a micro-batch window: later
            # batchable calls whose simulated starts fall inside it ride
            # along instead of reserving their own capacity slot.
            self.batcher.open(
                self.spec.name, max_output_tokens, start, start + usage.latency
            )
            tallies = self._t
            if tallies is not None:
                with tallies.lock:
                    tallies.batch_windows += 1
        return response

    # ------------------------------------------------------------------
    # Task routing
    # ------------------------------------------------------------------
    def _answer(self, prompt: str) -> tuple[str, Any, str]:
        directives, body = _parse_directives(prompt)
        task = directives.get("TASK", "").upper()
        domain = self.spec.domain if task in _HR_TASKS else "general"
        if task == "LIST_CITIES":
            return self._list_cities(directives, prompt)
        if task == "RELATED_TITLES":
            return self._related_titles(directives, prompt)
        if task == "LIST_SKILLS":
            return self._list_skills(directives, prompt)
        if task == "EXTRACT":
            return self._extract(directives, body, prompt)
        if task == "SUMMARIZE":
            return self._summarize(directives, body)
        if task == "CLASSIFY":
            return self._classify(directives, body, prompt)
        if task == "Q2NL":
            return self._q2nl(directives, body)
        if task == "MATCH_EXPLAIN":
            return self._match_explain(directives)
        if task == "GENERATE":
            return self._generate(body or prompt)
        return self._generate(prompt)

    # -- knowledge-backed list tasks -----------------------------------
    def _list_cities(self, directives: dict[str, str], prompt: str) -> tuple[str, Any, str]:
        region = directives.get("REGION", "")
        cities = knowledge.lookup_region(region)
        quality = self.spec.quality_for("general")
        if cities is None:
            return f"I do not know the cities of {region!r}.", [], "general"
        answer = self._degrade_list(list(cities), knowledge.NOISE_CITIES, quality, prompt)
        return ", ".join(answer), answer, "general"

    def _related_titles(self, directives: dict[str, str], prompt: str) -> tuple[str, Any, str]:
        title = directives.get("TITLE", "")
        titles = knowledge.lookup_related_titles(title)
        quality = self.spec.quality_for("hr")
        if titles is None:
            fallback = [title.title()] if title else []
            return ", ".join(fallback), fallback, "hr"
        answer = self._degrade_list(list(titles), knowledge.NOISE_TITLES, quality, prompt)
        return ", ".join(answer), answer, "hr"

    def _list_skills(self, directives: dict[str, str], prompt: str) -> tuple[str, Any, str]:
        title = directives.get("TITLE", "")
        skills = knowledge.lookup_skills(title)
        quality = self.spec.quality_for("hr")
        if skills is None:
            return f"I do not know the core skills for {title!r}.", [], "hr"
        answer = self._degrade_list(list(skills), knowledge.NOISE_SKILLS, quality, prompt)
        return ", ".join(answer), answer, "hr"

    # -- text tasks -----------------------------------------------------
    def _extract(
        self, directives: dict[str, str], body: str, prompt: str
    ) -> tuple[str, Any, str]:
        fields = [f.strip().lower() for f in directives.get("FIELDS", "").split(",") if f.strip()]
        text = directives.get("TEXT", body)
        quality = self.spec.quality_for("hr")
        extracted: dict[str, Any] = {}
        lowered = text.lower()
        if "title" in fields or not fields:
            extracted["title"] = _find_title(lowered)
        if "location" in fields or not fields:
            extracted["location"] = _find_location(lowered)
        if "skills" in fields:
            extracted["skills"] = _find_skills(lowered)
        # Low-quality models miss secondary fields deterministically.
        rng = self._rng(prompt, salt="extract")
        for key in list(extracted):
            if extracted[key] and rng.random() > quality and key != "title":
                extracted[key] = None
        return json.dumps(extracted), extracted, "hr"

    def _summarize(self, directives: dict[str, str], body: str) -> tuple[str, Any, str]:
        # Multiline TEXT spans the directive line plus the remaining body.
        text = "\n".join(part for part in (directives.get("TEXT", ""), body) if part)
        quality = self.spec.quality_for("general")
        lines = [line.strip() for line in text.splitlines() if line.strip()]
        if len(lines) > 1:
            # Extractive over items: keep the head of each line so every
            # summarized row/document contributes content.
            per_line = max(4, int(4 + 8 * quality))
            kept_lines = lines[: max(2, int(len(lines) * max(quality, 0.3)))]
            snippets = []
            for line in kept_lines:
                words = line.split()
                snippet = " ".join(words[:per_line])
                if len(words) > per_line:
                    snippet += " ..."
                snippets.append(snippet)
            summary = " | ".join(snippets)
        else:
            words = text.split()
            keep = max(5, int(len(words) * min(0.3, 0.1 + 0.2 * quality)))
            summary = " ".join(words[:keep])
            if len(words) > keep:
                summary += " ..."
        return f"Summary: {summary}", summary, "general"

    def _classify(
        self, directives: dict[str, str], body: str, prompt: str
    ) -> tuple[str, Any, str]:
        labels = [l.strip() for l in directives.get("LABELS", "").split(",") if l.strip()]
        text = directives.get("TEXT", body).lower()
        if not labels:
            raise LLMError("CLASSIFY task requires a LABELS directive")
        chosen = _heuristic_label(text, labels)
        quality = self.spec.quality_for("general")
        rng = self._rng(prompt, salt="classify")
        if rng.random() > quality and len(labels) > 1:
            wrong = [label for label in labels if label != chosen]
            chosen = wrong[int(rng.integers(len(wrong)))]
        return chosen, chosen, "general"

    def _q2nl(self, directives: dict[str, str], body: str) -> tuple[str, Any, str]:
        fragment = directives.get("FRAGMENT", body)
        text = f"List the {fragment.strip()}."
        return text, text, "general"

    def _match_explain(self, directives: dict[str, str]) -> tuple[str, Any, str]:
        """Explain why a job matches a seeker (the explanation module)."""
        seeker_title = directives.get("SEEKER_TITLE", "the seeker's background")
        job_title = directives.get("JOB_TITLE", "this role")
        shared = [s.strip() for s in directives.get("SHARED_SKILLS", "").split(",") if s.strip()]
        location = directives.get("LOCATION_FIT", "")
        parts = [f"{job_title} fits a {seeker_title} profile"]
        if shared:
            quality = self.spec.quality_for("hr")
            keep = max(1, int(round(len(shared) * quality)))
            parts.append(f"shares the key skills {', '.join(shared[:keep])}")
        if location:
            parts.append(location)
        text = "; ".join(parts) + "."
        return text, text, "hr"

    def _generate(self, prompt: str) -> tuple[str, Any, str]:
        words = prompt.split()
        opener = " ".join(words[:12])
        text = (
            f"Considering your request ({opener} ...), here is a concise, "
            f"helpful response produced by {self.spec.name}."
        )
        return text, None, "general"

    # ------------------------------------------------------------------
    # Degradation machinery
    # ------------------------------------------------------------------
    def _rng(self, prompt: str, salt: str = "") -> np.random.Generator:
        digest = hashlib.md5(
            f"{self.spec.name}|{self._seed}|{salt}|{prompt}".encode("utf-8")
        ).digest()
        return np.random.default_rng(int.from_bytes(digest[:8], "little"))

    def _degrade_list(
        self,
        truth: list[str],
        noise_pool: Sequence[str],
        quality: float,
        prompt: str,
    ) -> list[str]:
        """Drop items with probability 1-quality; maybe add one noise item."""
        rng = self._rng(prompt, salt="list")
        kept = [item for item in truth if rng.random() <= quality]
        if not kept and truth:
            kept = [truth[0]]  # even weak models recall the most salient fact
        if noise_pool and rng.random() > quality:
            kept.append(noise_pool[int(rng.integers(len(noise_pool)))])
        return kept


# ----------------------------------------------------------------------
# Prompt/extraction helpers
# ----------------------------------------------------------------------
def _parse_directives(prompt: str) -> tuple[dict[str, str], str]:
    """Split ``KEY: value`` directive lines from the free-text body."""
    directives: dict[str, str] = {}
    body_lines: list[str] = []
    for line in prompt.splitlines():
        match = _DIRECTIVE_RE.match(line.strip())
        if match and match.group(1).isupper():
            directives[match.group(1)] = match.group(2).strip()
        else:
            body_lines.append(line)
    return directives, "\n".join(body_lines).strip()


def _find_title(text: str) -> str | None:
    for canonical in knowledge.RELATED_TITLES:
        if canonical in text:
            return canonical.title()
    for canonical, variants in knowledge.RELATED_TITLES.items():
        for variant in variants:
            if variant.lower() in text:
                return canonical.title()
    return None


def _find_location(text: str) -> str | None:
    for region, cities in knowledge.REGION_CITIES.items():
        if region in text:
            return region
        for city in cities:
            if city.lower() in text:
                return city
    return None


def _find_skills(text: str) -> list[str]:
    found = []
    for skills in knowledge.TITLE_SKILLS.values():
        for skill in skills:
            if skill in text and skill not in found:
                found.append(skill)
    return found


def _heuristic_label(text: str, labels: list[str]) -> str:
    """Keyword routing used by the intent classifier."""
    rules = {
        "summarize": ("summarize", "summary", "overview", "tl;dr"),
        "list_edit": ("add ", "remove ", "create a list", "shortlist"),
        "rank": ("rank", "top candidates", "best candidates", "order by fit"),
        "cluster": ("cluster", "group the candidates", "segment the"),
        "open_query": ("how many", "which", "what", "who", "show", "find", "average", "count"),
        "greeting": ("hello", "hi ", "hey"),
    }
    for label in labels:
        for keyword in rules.get(label, ()):
            if keyword in text:
                return label
    return labels[0]
