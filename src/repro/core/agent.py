"""Agents: the compute entities of the blueprint (Figure 3).

An agent is "any computational entity that processes input data and
generates output" (Section V-B) — an LLM call, a CRF model, a search
interface, an API.  Subclasses implement :meth:`Agent.processor`; the base
class provides everything around it:

* **activation** — centrally via ``EXECUTE_AGENT`` control messages, or
  decentrally by monitoring stream tags (inclusion/exclusion rules),
* **triggering** — a PetriNet-style :class:`~repro.core.triggering.InputGate`
  joins tokens across input streams before firing,
* **emission** — outputs are published to session-scoped streams, tagged so
  downstream agents and the coordinator can consume them selectively,
* **workers** — an optional thread pool so a triggered agent keeps
  listening while work runs,
* **metering** — LLM calls through :meth:`Agent.complete` charge the active
  budget with cost, latency, and a quality estimate.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Iterable, Mapping

from ..errors import AgentError
from ..llm import LLMResponse
from ..streams import Message
from .context import AgentContext
from .params import Parameter, validate_inputs
from .resilience.retry import RetryPolicy, is_transient
from .triggering import InputGate


class _Activation(threading.local):
    """An ``EXECUTE_AGENT``'s model tier and LLM-cache bypass, read by
    :meth:`Agent.complete`; per thread, so wave siblings driving one agent
    on the thread backend never see each other's."""

    model: str | None = None
    no_cache: bool = False


class Agent:
    """Base class for every agent in the architecture."""

    #: Subclasses may override these as class attributes instead of
    #: passing constructor arguments.
    name: str = "AGENT"
    description: str = ""
    inputs: tuple[Parameter, ...] = ()
    outputs: tuple[Parameter, ...] = ()
    #: Decentralized activation: data messages carrying any include tag
    #: (and no exclude tag) trigger this agent.
    listen_tags: tuple[str, ...] = ()
    exclude_tags: tuple[str, ...] = ()
    #: Maps a listen tag to the input place it feeds (defaults to the
    #: first input parameter).
    tag_to_place: Mapping[str, str] = {}
    gate_mode: str = "join"
    #: Default model used by :meth:`complete` when none is named.
    default_model: str = "mega-m"

    def __init__(self, workers: int = 0, **properties: Any) -> None:
        if workers < 0:
            raise AgentError(f"workers must be >= 0: {workers}")
        self.properties = properties
        self.context: AgentContext | None = None
        self.activations = 0
        self.failures = 0
        self.last_error: str | None = None
        self._workers = workers
        self._pool: ThreadPoolExecutor | None = None
        self._futures: list[Future] = []
        self._gate: InputGate | None = None
        self._subscription_ids: list[str] = []
        self._lock = threading.RLock()
        self._activation = _Activation()
        # _execute is the runtime's hottest path: the span name is
        # precomputed, and activation/failure metrics are pulled from the
        # plain counters above by a snapshot-time collector rather than
        # pushed per event.
        self._span_name = f"agent:{self.name}"
        self._registered_metrics = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def attach(self, context: AgentContext) -> "Agent":
        """Join the session and start listening for activations."""
        if self.context is not None:
            raise AgentError(f"agent {self.name} is already attached")
        self.context = context
        context.session.enter(self.name)
        if self._workers:
            self._pool = ThreadPoolExecutor(
                max_workers=self._workers, thread_name_prefix=f"{self.name}-worker"
            )
        if self.inputs:
            self._gate = InputGate([p.name for p in self.inputs], mode=self.gate_mode)
        metrics = context.metrics
        if metrics is not None and metrics.enabled and self._registered_metrics is not metrics:
            # Cumulative semantics survive restarts: a replacement instance
            # registers its own collector and the registry sums both.
            metrics.register_collector(self._collect_metrics)
            self._registered_metrics = metrics
        # Central activation: EXECUTE_AGENT control messages addressed to us.
        subscription = context.store.subscribe(
            subscriber=self.name,
            callback=self._on_control,
            stream_pattern=f"{context.session.session_id}:*",
            addressee=self.name,
        )
        self._subscription_ids.append(subscription.subscription_id)
        # Decentralized activation: tag monitoring.
        if self.listen_tags:
            subscription = context.store.subscribe(
                subscriber=self.name,
                callback=self._on_data,
                stream_pattern=f"{context.session.session_id}:*",
                include_tags=self.listen_tags,
                exclude_tags=self.exclude_tags,
                data_only=True,
            )
            self._subscription_ids.append(subscription.subscription_id)
        self.on_attach()
        return self

    def on_attach(self) -> None:
        """Hook for subclasses (create streams, warm caches)."""

    def _collect_metrics(self, sink: Any) -> None:
        """Report activation/failure counts into a metrics snapshot."""
        if self.activations:
            sink.inc("agent.activations", float(self.activations), agent=self.name)
        if self.failures:
            sink.inc("agent.failures", float(self.failures), agent=self.name)

    def detach(self) -> None:
        """Leave the session and stop listening."""
        context = self._require_context()
        self.drain()
        for subscription_id in self._subscription_ids:
            context.store.unsubscribe(subscription_id)
        self._subscription_ids.clear()
        context.session.exit(self.name)
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self.context = None

    def crash(self) -> None:
        """Simulate abrupt termination: stop listening without the polite
        session-exit signal (used by the deployment failure simulator).

        Idempotent: crashing an already-dead agent is a no-op, so a health
        probe can fail a container whose agents died on their own.
        """
        context = self.context
        if context is None:
            return
        for subscription_id in self._subscription_ids:
            context.store.unsubscribe(subscription_id)
        self._subscription_ids.clear()
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
        with self._lock:
            self._futures.clear()
        self.context = None

    def drain(self) -> None:
        """Wait for outstanding worker executions to finish."""
        with self._lock:
            futures, self._futures = self._futures, []
        for future in futures:
            future.result()

    # ------------------------------------------------------------------
    # Activation paths
    # ------------------------------------------------------------------
    def _on_control(self, message: Message) -> None:
        payload = message.payload
        inputs = dict(payload.get("inputs", {}))
        for param, stream_id in payload.get("input_refs", {}).items():
            inputs[param] = self._latest_payload(stream_id)
        metadata = {
            key: payload[key]
            for key in ("node", "plan", "output_stream", "model", "no_cache")
            if key in payload
        }
        self._spawn(inputs, metadata)

    def _on_data(self, message: Message) -> None:
        if message.producer == self.name:
            return  # never react to our own output
        if self._gate is None:
            # No declared inputs: fire with the raw payload under "INPUT".
            self._spawn({"INPUT": message.payload}, {"trigger": message.message_id})
            return
        place = self._place_for(message)
        for fired in self._gate.offer(place, message.payload):
            merged = self._fill_defaults(fired)
            self._spawn(merged, {"trigger": message.message_id})

    def _latest_payload(self, stream_id: str) -> Any:
        """Most recent data payload on *stream_id* (input_refs resolution)."""
        context = self._require_context()
        stream = context.store.get_stream(stream_id)
        for message in reversed(stream.messages()):
            if message.is_data:
                return message.payload
        raise AgentError(f"stream {stream_id!r} holds no data for agent {self.name}")

    def _place_for(self, message: Message) -> str:
        for tag in message.tags:
            if tag in self.tag_to_place:
                return self.tag_to_place[tag]
        return self.inputs[0].name

    def _fill_defaults(self, fired: dict[str, Any]) -> dict[str, Any]:
        """'any'-mode firings carry one place; fill the rest with defaults."""
        merged = dict(fired)
        for parameter in self.inputs:
            if parameter.name not in merged and not parameter.required:
                merged[parameter.name] = parameter.default
        return merged

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _spawn(self, inputs: dict[str, Any], metadata: dict[str, Any]) -> None:
        if self._pool is not None:
            future = self._pool.submit(self._execute, inputs, metadata)
            with self._lock:
                self._futures.append(future)
        else:
            self._execute(inputs, metadata)

    def _execute(self, inputs: dict[str, Any], metadata: dict[str, Any]) -> None:
        context = self._require_context()
        self.activations += 1
        override = metadata.get("model")
        no_cache = bool(metadata.get("no_cache"))
        span_attrs = {k: v for k, v in metadata.items() if k in ("node", "plan", "model")}
        with context.span(self._span_name, kind="agent", **span_attrs) as span:
            try:
                if self.inputs:
                    inputs = validate_inputs(self.inputs, inputs, self.name)
                if override:
                    self._activation.model = override
                if no_cache:
                    self._activation.no_cache = True
                results = self.processor(inputs)
            except Exception as error:  # noqa: BLE001 - agents report, don't crash the bus
                self.failures += 1
                self.last_error = str(error)
                span.set_error(f"{type(error).__name__}: {error}")
                context.store.publish_control(
                    context.session.session_stream.stream_id,
                    "AGENT_ERROR",
                    producer=self.name,
                    agent=self.name,
                    error=str(error),
                    error_type=type(error).__name__,
                    transient=is_transient(error),
                    **{k: v for k, v in metadata.items() if k in ("node", "plan")},
                )
                return
            finally:
                if override:
                    self._activation.model = None
                if no_cache:
                    self._activation.no_cache = False
            if results is None:
                return
            self._emit(results, metadata)

    def processor(self, inputs: dict[str, Any]) -> dict[str, Any] | None:
        """Transform validated *inputs* into outputs (param name -> value).

        Returning None emits nothing (the agent may have published
        directly via :meth:`emit` or simply had no reaction).
        """
        raise NotImplementedError

    def _emit(self, results: Mapping[str, Any], metadata: dict[str, Any]) -> None:
        declared = {p.name for p in self.outputs}
        unknown = set(results) - declared
        if declared and unknown:
            raise AgentError(f"agent {self.name} produced undeclared outputs: {sorted(unknown)}")
        override = metadata.get("output_stream")
        for param, value in results.items():
            stream_id = override if override and len(results) == 1 else self.output_stream_id(param)
            self.emit(param, value, stream_id=stream_id, metadata=metadata)

    def emit(
        self,
        param: str,
        value: Any,
        stream_id: str | None = None,
        tags: Iterable[str] = (),
        metadata: Mapping[str, Any] | None = None,
    ) -> Message:
        """Publish one output value to its (session-scoped) stream."""
        context = self._require_context()
        if stream_id is None:
            stream_id = self.output_stream_id(param)
        if not context.store.has_stream(stream_id):
            context.session.ensure_stream(
                stream_id.removeprefix(f"{context.session.session_id}:"),
                creator=self.name,
            )
        message_metadata = {"agent": self.name, "param": param}
        message_metadata.update(metadata or {})
        return context.store.publish_data(
            stream_id,
            value,
            tags=frozenset({param, "OUTPUT", *tags, *self.output_tags(param)}),
            producer=self.name,
            metadata=message_metadata,
        )

    def output_stream_id(self, param: str) -> str:
        context = self._require_context()
        return context.session.stream_id(f"{self.name.lower()}:{param.lower()}")

    def output_tags(self, param: str) -> tuple[str, ...]:
        """Extra tags attached to an output parameter (subclass hook)."""
        return ()

    # ------------------------------------------------------------------
    # LLM access with budget metering
    # ------------------------------------------------------------------
    def complete(
        self, prompt: str, model: str | None = None, retry: RetryPolicy | None = None
    ) -> LLMResponse:
        """Call a model from the catalog, charging the active budget.

        The model resolves in priority order: the explicit *model*
        argument, then a per-execution override from the driving plan node
        (``EXECUTE_AGENT``'s ``model`` field), then :attr:`default_model`.
        With *retry*, transient LLM failures are retried under that policy,
        backoff charged to the budget.
        """
        context = self._require_context()
        if context.catalog is None:
            raise AgentError(f"agent {self.name} has no model catalog in context")
        activation = self._activation
        name = model or activation.model or self.default_model

        def call() -> LLMResponse:
            client = context.catalog.client(name)
            before = context.clock.now()
            response = client.complete(prompt, no_cache=activation.no_cache)
            already_elapsed = context.clock.now() - before
            context.charge(
                source=f"{self.name}/{response.model}",
                cost=response.usage.cost,
                # Catalogs sharing the session clock advanced it during the
                # call; charge only the shortfall so latency counts once.
                latency=max(0.0, response.usage.latency - already_elapsed),
                quality=client.spec.quality_for(response.domain),
            )
            return response

        if retry is None:
            return call()
        return retry.call(
            call,
            key=f"{self.name}/{name}",
            clock=context.clock,
            budget=context.budget,
            metrics=context.metrics,
        )

    # ------------------------------------------------------------------
    # Metadata
    # ------------------------------------------------------------------
    def describe(self) -> dict[str, Any]:
        """Registry metadata for this agent."""
        return {
            "name": self.name,
            "description": self.description,
            "inputs": [p.describe() for p in self.inputs],
            "outputs": [p.describe() for p in self.outputs],
            "listen_tags": list(self.listen_tags),
            "exclude_tags": list(self.exclude_tags),
            "properties": dict(self.properties),
        }

    def _require_context(self) -> AgentContext:
        if self.context is None:
            raise AgentError(f"agent {self.name} is not attached to a session")
        return self.context


class FunctionAgent(Agent):
    """Wraps a plain function as an agent (for APIs and models).

    Example:
        >>> from repro.core.params import Parameter
        >>> doubler = FunctionAgent(
        ...     name="DOUBLER",
        ...     fn=lambda inputs: {"RESULT": inputs["VALUE"] * 2},
        ...     inputs=(Parameter("VALUE", "number"),),
        ...     outputs=(Parameter("RESULT", "number"),),
        ... )
    """

    def __init__(
        self,
        name: str,
        fn,
        inputs: tuple[Parameter, ...] = (),
        outputs: tuple[Parameter, ...] = (),
        description: str = "",
        listen_tags: tuple[str, ...] = (),
        exclude_tags: tuple[str, ...] = (),
        tag_to_place: Mapping[str, str] | None = None,
        gate_mode: str | None = None,
        workers: int = 0,
        **properties: Any,
    ) -> None:
        super().__init__(workers=workers, **properties)
        self.name = name
        self.description = description or (fn.__doc__ or "").strip()
        self.inputs = inputs
        self.outputs = outputs
        self.listen_tags = listen_tags
        self.exclude_tags = exclude_tags
        if tag_to_place is not None:
            self.tag_to_place = dict(tag_to_place)
        if gate_mode is not None:
            self.gate_mode = gate_mode
        self._fn = fn

    def processor(self, inputs: dict[str, Any]) -> dict[str, Any] | None:
        return self._fn(inputs)
