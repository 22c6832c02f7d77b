"""The task coordinator (Section V-H): the agent shell around execution.

"The task planner is concerned with interpreting tasks, while the task
coordinator handles execution."  The coordinator listens for plans (tag
``PLAN``) and publishes their results (``RESULT``); its doors —
``execute_plan``, ``resume_plan`` and ``begin_plan`` — begin each plan as
a :class:`~repro.core.execution.PlanExecution`, which steps the waves and
drives the nodes.  The coordinator holds what those executions share:
the retry policy, breakers and journal (Section VII's "error handling
and retry"), the dead-letter stream and its replay, the **data
planner**'s binding transforms (``PROFILER.CRITERIA <- USER.TEXT``
becomes an extract data plan), budget escalation on a replan, and the
``EXECUTE_AGENT`` round trip that reaches a node's agent.

Because the stream store delivers messages depth-first, the agent executes
synchronously inside the coordinator's control publish, so outputs are
visible immediately afterwards.  (Consequently, agents the coordinator
drives should run inline — ``workers=0``, the default; worker-pool agents
are for decentralized tag-triggered fan-out, where no one waits on them.)
"""

from __future__ import annotations

from typing import Any, TYPE_CHECKING

from ..errors import CoordinationError
from ..streams import Instruction
from .agent import Agent
from .budget import Budget
from .engine import ExecutionBackend
from .execution import NodeFailure, PlanExecution, PlanRun
from .params import Parameter
from .plan.task_plan import TaskNode, TaskPlan
from .planners.data_planner import DataPlanner
from .qos import QoSSpec
from .recovery import WriteAheadJournal
from .resilience import BreakerBoard, DeadLetterQueue, RetryPolicy
from .scheduler import VirtualTimeline

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .recovery import RecoveredPlan


class TaskCoordinator(Agent):
    """Executes task plans by streaming instructions to agents."""

    name = "TASK_COORDINATOR"
    description = (
        "Coordinates and monitors execution of agentic workflow plans, "
        "tracking the budget and aborting on QoS violations"
    )
    inputs = (Parameter("PLAN", "plan", "a task plan DAG payload"),)
    outputs = (Parameter("RESULT", "json", "final plan outputs"),)
    listen_tags = ("PLAN",)
    gate_mode = "any"

    def __init__(
        self,
        data_planner: DataPlanner | None = None,
        replan_on_violation: bool = False,
        replan_budget_factor: float = 2.0,
        max_replans: int = 1,
        max_node_retries: int = 0,
        retry_policy: RetryPolicy | None = None,
        breakers: BreakerBoard | None = None,
        dead_letters: bool = True,
        journal: WriteAheadJournal | None = None,
        parallel: bool = False,
        **kwargs: Any,
    ) -> None:
        super().__init__(**kwargs)
        self._data_planner = data_planner
        self._journal = journal
        #: Wave-based parallel scheduling: independent DAG branches pay
        #: the max of their simulated latencies (the critical path)
        #: instead of the sum.  Overridable per call on execute_plan.
        self._parallel = parallel
        self._replan_on_violation = replan_on_violation
        self._replan_budget_factor = replan_budget_factor
        self._max_replans = max_replans
        #: Explicit policy wins; otherwise ``max_node_retries`` keeps its
        #: legacy immediate-retry-anything semantics.
        self._retry_policy = retry_policy or RetryPolicy.immediate(max_node_retries)
        self._breakers = breakers
        self._dead_letters_enabled = dead_letters
        self._dead_letter_queue: DeadLetterQueue | None = None
        self.runs: list[PlanRun] = []
        # Per-event counters are kept as plain tallies and pulled into
        # metrics snapshots by a collector (the same pattern Budget and
        # StreamStore use): plan/node completion is the coordinator's
        # per-iteration hot path.  The histogram keeps per-event pushes —
        # percentiles need the individual observations.
        self._metrics = None
        self._h_node_attempts = None
        self._plan_status_tally: dict[str, int] = {}
        self._short_circuit_tally: dict[str, int] = {}
        self._rescue_tally: dict[str, int] = {}
        # Unlabeled per-wave/per-node counters, bumped as plain ints on
        # the wave-step hot path (each fleet submission has its own
        # coordinator and a coordinator steps one wave at a time, so the
        # unlocked increments are race-free even on the thread backend).
        self._wave_tally = 0
        self._parallel_node_tally = 0
        self._replayed_effects_tally = 0
        self._registered_metrics = None

    def on_attach(self) -> None:
        metrics = self.context.metrics if self.context is not None else None
        self._metrics = metrics if metrics is not None and metrics.enabled else None
        self._h_node_attempts = (
            self._metrics.histogram("node.attempts") if self._metrics else None
        )
        if self._metrics is not None and self._registered_metrics is not self._metrics:
            self._metrics.register_collector(self._collect_metrics)
            self._registered_metrics = self._metrics

    def _collect_metrics(self, sink: Any) -> None:
        """Report execution tallies into a metrics snapshot being built."""
        for status, count in self._plan_status_tally.items():
            sink.inc("plan.runs", float(count), status=status)
        for agent, count in self._short_circuit_tally.items():
            sink.inc("breaker.short_circuits", float(count), agent=agent)
        for agent, count in self._rescue_tally.items():
            sink.inc("node.fallback_rescues", float(count), agent=agent)
        # Never-incremented tallies stay out of the snapshot (serial
        # runs emit no scheduler counters — tests pin that).
        if self._wave_tally:
            sink.inc("scheduler.waves", float(self._wave_tally))
        if self._parallel_node_tally:
            sink.inc("scheduler.parallel_nodes", float(self._parallel_node_tally))
        if self._replayed_effects_tally:
            sink.inc("recovery.replayed_effects", float(self._replayed_effects_tally))

    # ------------------------------------------------------------------
    # Activation
    # ------------------------------------------------------------------
    def processor(self, inputs: dict[str, Any]) -> dict[str, Any] | None:
        payload = inputs["PLAN"]
        plan = TaskPlan.from_payload(payload) if isinstance(payload, dict) else payload
        run = self.execute_plan(plan)
        if run.status != "completed":
            return None
        return {"RESULT": run.final_outputs()}

    # ------------------------------------------------------------------
    # Resilience wiring
    # ------------------------------------------------------------------
    @property
    def journal(self) -> WriteAheadJournal | None:
        """The write-ahead journal, when crash recovery is enabled."""
        return self._journal

    def dead_letter_queue(self) -> DeadLetterQueue:
        """The session's quarantine stream (created on first use so
        sessions that never fail keep their traces unchanged)."""
        if self._dead_letter_queue is None:
            context = self._require_context()
            self._dead_letter_queue = DeadLetterQueue(
                context.store, context.session, metrics=context.metrics
            )
        return self._dead_letter_queue

    def replay_dead_letters(self) -> int:
        """Re-execute pending dead letters; returns how many recovered.

        Node-level entries are re-driven through the normal
        ``EXECUTE_AGENT`` path with their originally resolved inputs.
        Whole-plan entries — plans the fleet's admission queue expired
        before they ever ran (``QueueDeadlineExpired``) — carry their
        serialized plan and are re-executed end to end; the journal's
        idempotency machinery makes a second replay a no-op.  Successes
        are acknowledged on the stream and leave the pending set.
        """
        queue = self.dead_letter_queue()

        def executor(payload: dict[str, Any]) -> bool:
            inputs = payload.get("inputs", {})
            if (
                payload.get("error_type") == "QueueDeadlineExpired"
                and "plan" in inputs
            ):
                run = self.execute_plan(TaskPlan.from_payload(inputs["plan"]))
                return run.status == "completed"
            node = TaskNode(
                node_id=payload["node"],
                agent=payload["agent"],
                fallback_agent=payload.get("fallback_agent"),
            )
            _outputs, failure = self._attempt_node(
                node, inputs, node.agent, None
            )
            return failure is None

        return len(queue.replay(executor))

    # ------------------------------------------------------------------
    # Plan execution (also callable directly)
    # ------------------------------------------------------------------
    def execute_plan(
        self,
        plan: TaskPlan,
        budget: Budget | None = None,
        _attempt: int = 0,
        resume: "RecoveredPlan | None" = None,
        parallel: bool | None = None,
    ) -> PlanRun:
        """Unroll and drive *plan*; returns the execution record.

        On a budget violation the run aborts; with replanning enabled the
        coordinator re-executes once under an escalated budget (the
        paper's "prompt the user to confirm budget violations before
        proceeding", with the confirmation simulated as policy).

        With *resume* (a journal snapshot), completed nodes are restored
        instead of re-executed and the run picks up where the crashed
        coordinator stopped — see :meth:`resume_plan`.

        With *parallel* (default: the coordinator's ``parallel`` setting),
        the plan executes in dependency waves and simulated latency is
        accounted as the critical path instead of the serial sum.  Either
        way this drains, in one go, the same :class:`PlanExecution` the
        fleet steps interleaved (:meth:`begin_plan`).
        """
        if parallel is None:
            parallel = self._parallel
        attributes = {"scheduler": "parallel"} if parallel else {}
        execution = self._begin(
            plan, budget, _attempt, parallel=parallel, resume=resume, **attributes
        )
        while execution.step():
            pass
        return execution.result

    def resume_plan(
        self, snapshot: "RecoveredPlan", budget: Budget | None = None
    ) -> PlanRun:
        """Resume a crashed plan from its journal *snapshot*.

        Nodes with a journaled completion record are restored outright (no
        messages published, so the resumed stream trace continues the
        uninterrupted one's byte-for-byte); the in-doubt node — effect
        journaled but completion record lost to the crash — replays its
        journaled result; everything after re-executes normally.
        """
        if snapshot.plan is None:
            raise CoordinationError(
                f"cannot resume plan {snapshot.plan_id!r}: no journaled plan payload"
            )
        return self.execute_plan(snapshot.plan, budget=budget, resume=snapshot)

    def begin_plan(
        self,
        plan: TaskPlan,
        budget: Budget | None = None,
        timeline: VirtualTimeline | None = None,
        start_at: float | None = None,
        attempt: int = 0,
        backend: ExecutionBackend | None = None,
    ) -> PlanExecution:
        """Admit *plan* for stepped execution on a shared *timeline*.

        The fleet entrypoint: returns a :class:`PlanExecution` the fleet
        scheduler interleaves with other plans' via ``step()``, its plan
        span suspended between steps; the caller commits the shared
        timeline.  *start_at* is the plan's simulated admission time —
        branch ready times default to it, so a backlog plan starts after
        the plan whose completion freed its slot.  A plan refused at
        admission comes back concluded; the fleet collects it as finished.
        """
        if timeline is None:
            raise CoordinationError(
                "begin_plan requires a shared timeline; use execute_plan "
                "for standalone runs"
            )
        return self._begin(
            plan,
            budget,
            attempt,
            parallel=True,
            timeline=timeline,
            start_at=start_at,
            backend=backend,
            scheduler="fleet",
        )

    def _begin(
        self,
        plan: TaskPlan,
        budget: Budget | None,
        attempt: int,
        *,
        parallel: bool,
        resume: "RecoveredPlan | None" = None,
        timeline: VirtualTimeline | None = None,
        start_at: float | None = None,
        backend: ExecutionBackend | None = None,
        **span_attributes: Any,
    ) -> PlanExecution:
        """The one way a plan begins; returns its admitted execution.

        Validates the plan, builds its :class:`PlanRun` (restoring a
        *resume* snapshot), opens the ``plan:<id>`` span with the door's
        *span_attributes* and admits the :class:`PlanExecution` (which
        parks the span if it is interleaved, and journals the admission).
        """
        context = self._require_context()
        plan.validate()
        run = PlanRun(plan_id=plan.plan_id, goal=plan.goal)
        if resume is not None:
            run.resumed = True
            run.node_outputs.update(resume.node_outputs)
            run.executed.extend(resume.executed)
            attempt = resume.attempt
            restored = {"resumed": True, "restored_nodes": len(resume.executed)}
            span_attributes = {**restored, **span_attributes}
        self.runs.append(run)
        span = context.span(
            f"plan:{plan.plan_id}",
            kind="plan",
            goal=plan.goal,
            attempt=attempt,
            **span_attributes,
        )
        execution = PlanExecution(
            self,
            plan,
            run,
            budget or context.budget,
            attempt,
            parallel=parallel,
            span=span,
            timeline=timeline,
            start_at=start_at,
            backend=backend,
        )
        execution.admit()
        return execution

    def _attempt_node(
        self,
        node: TaskNode,
        resolved: dict[str, Any],
        agent: str,
        model: str | None,
        no_cache: bool = False,
    ) -> tuple[dict[str, Any] | None, NodeFailure | None]:
        """One EXECUTE_AGENT emission plus output/error collection.

        Returns ``(outputs, None)`` on success, else ``(partials, failure)``
        with the outputs the agent emitted before reporting its error (None
        when it emitted none, or when they came too late for the deadline).
        *no_cache* asks the agent to bypass the LLM cache for this node.
        """
        context = self._require_context()
        marker = context.store.mark()
        started = context.clock.now()
        extra: dict[str, Any] = {}
        if model is not None:
            extra["model"] = model
        if no_cache:
            extra["no_cache"] = True
        context.store.publish_control(
            context.session.session_stream.stream_id,
            Instruction.EXECUTE_AGENT,
            producer=self.name,
            agent=agent,
            inputs=resolved,
            node=node.node_id,
            **extra,
        )
        outputs, failure = self._collect_outputs(node.node_id, agent, marker)
        elapsed = context.clock.now() - started
        if (
            failure is None
            and node.deadline is not None
            and elapsed > node.deadline
        ):
            # The node's modeled latency blew its slice: outputs are late,
            # discard them and report the deadline breach.
            failure = NodeFailure(
                error=(
                    f"node {node.node_id} exceeded deadline "
                    f"({elapsed:.3f}s > {node.deadline:.3f}s)"
                ),
                error_type="DeadlineExceededError",
                transient=False,
            )
            outputs = None
        if failure is not None:
            return outputs, failure
        return outputs if outputs is not None else {}, None

    def _collect_outputs(
        self, node_id: str, agent: str, marker: int
    ) -> tuple[dict[str, Any] | None, NodeFailure | None]:
        """Outputs and/or failure for *node_id* since trace position *marker*.

        An ``AGENT_ERROR`` takes precedence over any partial outputs the
        agent emitted before failing — both are returned so the caller can
        surface the partials in the run record.  An agent that produced
        neither outputs nor an error is an empty success only if it is
        still subscribed (alive); a crashed agent's silence is a transient
        failure, not a success.

        The trace is the store-wide arrival log: under the thread backend
        other sessions' plans append to it concurrently, and node ids
        repeat across plans (every diamond plan has an ``m1``).  Matching
        is therefore restricted to this coordinator's session streams —
        all named ``{session_id}:...`` — which is a no-op for the serial
        path (the marker slice already contains only this session's
        messages there).
        """
        context = self._require_context()
        session_prefix = f"{context.session.session_id}:"
        outputs: dict[str, Any] = {}
        failure: NodeFailure | None = None
        for message in context.store.trace_since(marker):
            if not message.stream_id.startswith(session_prefix):
                continue
            if message.is_data and message.metadata.get("node") == node_id:
                param = message.metadata.get("param")
                if param:
                    outputs[param] = message.payload
            if (
                message.is_control
                and message.instruction() == "AGENT_ERROR"
                and message.payload.get("node") == node_id
            ):
                failure = NodeFailure(
                    error=str(message.payload.get("error", "agent error")),
                    error_type=str(message.payload.get("error_type", "")),
                    transient=bool(message.payload.get("transient", False)),
                )
        if failure is not None:
            return (outputs or None), failure
        if outputs:
            return outputs, None
        if not self._agent_listening(agent):
            return None, NodeFailure(
                error=f"agent {agent} is not listening (crashed container?)",
                error_type="AgentUnreachableError",
                transient=True,
            )
        # The agent ran but chose to emit nothing: an empty success.
        return {}, None

    def _agent_listening(self, agent: str) -> bool:
        """Liveness probe: a crashed agent has no active subscriptions."""
        context = self._require_context()
        return any(s.subscriber == agent for s in context.store.subscriptions())

    # ------------------------------------------------------------------
    # Data-planner transformations and budget escalation
    # ------------------------------------------------------------------
    def _transform(self, transform: str, value: Any) -> Any:
        """Apply a named data-plan transformation to a bound value."""
        if self._data_planner is None:
            raise CoordinationError(
                f"binding requires transform {transform!r} but the coordinator "
                "has no data planner"
            )
        context = self._require_context()
        if transform.startswith("extract:"):
            fields = tuple(transform.split(":", 1)[1].split("+"))
            plan = self._data_planner.plan_transform(str(value), fields)
            result = self._data_planner.execute(plan, budget=context.budget)
            extracted = result.final()
            if isinstance(extracted, dict):
                if len(fields) == 1:
                    return extracted.get(fields[0])
                return {f: extracted.get(f) for f in fields}
            return extracted
        if transform == "summarize":
            plan_goal = str(value)
            summary_plan = self._data_planner.plan_knowledge("generate", plan_goal)
            result = self._data_planner.execute(summary_plan, budget=context.budget)
            return result.final()
        raise CoordinationError(f"unknown transform: {transform!r}")

    def _replan(self, plan: TaskPlan, blown: Budget, attempt: int) -> PlanRun:
        """Re-execute under an escalated fresh budget (one level only)."""
        context = self._require_context()
        escalated_qos = QoSSpec(
            max_cost=blown.qos.max_cost * self._replan_budget_factor,
            max_latency=blown.qos.max_latency * self._replan_budget_factor,
            min_quality=blown.qos.min_quality,
            objective=blown.qos.objective,
        )
        escalated = Budget(escalated_qos, clock=context.clock)
        return self.execute_plan(plan, budget=escalated, _attempt=attempt + 1)

    def output_tags(self, param: str) -> tuple[str, ...]:
        return ("RESULT",)
