"""One plan's execution: the wave stepper and its node driver (Section V-H).

A :class:`PlanExecution` owns one plan's run record, budget, attempt,
timeline and span; it steps the plan one dependency wave at a time and
drives each node itself: it resolves bindings (constants, stream reads,
upstream outputs, data-planner transforms), checks the **budget** first
(aborting, or replanning when the policy allows), runs the node through
retries, the circuit breaker and its fallback route, quarantines work
that still fails, and journals every step write-ahead.  The
:class:`~repro.core.coordinator.TaskCoordinator` is the agent shell
around it: its doors begin executions, and its ``EXECUTE_AGENT`` round
trip (``_attempt_node``) is how a node reaches its agent.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, TYPE_CHECKING

from ..errors import CoordinationError, ReproError, TransientError
from ..streams import Instruction
from .budget import Budget
from .engine import SERIAL, ExecutionBackend
from .plan.task_plan import TaskNode, TaskPlan
from .recovery import idempotency_key
from .scheduler import VirtualTimeline

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..clock import SimClock
    from .coordinator import TaskCoordinator


@dataclass
class NodeFailure:
    """Why one execution attempt of a plan node did not succeed."""

    error: str
    error_type: str = ""
    transient: bool = False
    attempts: int = 1

    def describe(self) -> str:
        kind = "transient" if self.transient else "fatal"
        return f"{self.error} [{self.error_type or 'unknown'}, {kind}, attempts={self.attempts}]"


@dataclass
class PlanRun:
    """Execution record of one plan."""

    plan_id: str
    goal: str
    status: str = "running"  # running | completed | aborted | failed
    node_outputs: dict[str, dict[str, Any]] = field(default_factory=dict)
    executed: list[str] = field(default_factory=list)
    abort_reason: str | None = None
    #: Failure record per node that (finally or initially) failed.
    node_errors: dict[str, NodeFailure] = field(default_factory=dict)
    #: Partial outputs an agent emitted before reporting an error; kept for
    #: diagnosis but never treated as node success.
    partial_outputs: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: node id -> fallback agent that rescued it.
    fallbacks: dict[str, str] = field(default_factory=dict)
    #: message ids of dead-letter entries quarantined by this run.
    dead_letters: list[str] = field(default_factory=list)
    #: Whether this run resumed from a journal snapshot after a crash.
    resumed: bool = False
    #: node ids whose results were replayed from journaled effects
    #: instead of re-executing (exactly-once under at-least-once).
    replayed_effects: list[str] = field(default_factory=list)

    def outputs_of(self, node_id: str) -> dict[str, Any]:
        return self.node_outputs.get(node_id, {})

    def final_outputs(self) -> dict[str, Any]:
        """Outputs of the last executed node (the plan's answer)."""
        if not self.executed:
            return {}
        return self.node_outputs.get(self.executed[-1], {})

    def degraded(self) -> bool:
        """Whether any node completed through a fallback route."""
        return bool(self.fallbacks)


class PlanExecution:
    """One plan's wave-stepped execution state machine.

    Every plan the coordinator runs is one of these, begun by
    ``TaskCoordinator._begin``: each :meth:`step` drives one dependency
    wave (*parallel*: ``plan.waves()``, each node on a timeline branch
    from its predecessors' latest end; else ``plan.order()`` singly).
    ``execute_plan`` steps it in a tight loop; the fleet round-robins
    ``step()`` across many admitted plans over one *shared*
    :class:`VirtualTimeline`, turning their simulated makespan from the
    sum of their critical paths into the max plus contention.

    The execution holds its ``plan:<id>`` span and ends it itself, once
    (``_conclude``, or :meth:`abandon` on a crash).  What depends on the
    holder follows from the timeline: with none lent the execution owns
    its time and commits it when it ends; a lent one is shared with other
    plans, committed by its lender, and the span is parked between steps.
    """

    def __init__(
        self,
        coordinator: "TaskCoordinator",
        plan: TaskPlan,
        run: PlanRun,
        budget: Budget | None,
        attempt: int,
        *,
        parallel: bool,
        span: Any,
        timeline: VirtualTimeline | None = None,
        start_at: float | None = None,
        backend: ExecutionBackend | None = None,
    ) -> None:
        context = coordinator._require_context()
        self.coordinator = coordinator
        self.plan = plan
        self.run = run
        self.budget = budget
        self.attempt = attempt
        self.owns_timeline = timeline is None
        if timeline is None and parallel:
            timeline = VirtualTimeline(context.clock)
        self.timeline = timeline
        self.backend: ExecutionBackend = backend if backend is not None else SERIAL
        self.span = span
        self._parallel = parallel
        if parallel:
            self._schedule: list[list[TaskNode]] = plan.waves()
        else:
            self._schedule = [[node] for node in plan.order()]
        obs = context.observability
        self._tracer = obs.tracer if obs is not None and obs.tracer.enabled else None
        if self._tracer is not None and not self.owns_timeline:
            # Interleaved with other plans: each stage re-enters the span.
            self._tracer.suspend(span)
        if start_at is not None:
            self.start_at = float(start_at)
        elif timeline is not None:
            self.start_at = timeline.origin
        else:
            self.start_at = context.clock.now()
        self._ends: dict[str, float] = {}
        self._wave_index = 0
        self.finished = False
        self.result: PlanRun | None = None

    @property
    def plan_end(self) -> float:
        """This plan's own critical path end (its branch ends' max)."""
        return max(self._ends.values(), default=self.start_at)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def admit(self) -> None:
        """Validate participants and journal the admission record; a plan
        that cannot run (an absent agent) is concluded here as failed."""
        self._guarded(self._admit)

    def step(self) -> bool:
        """Execute the next wave; returns True while more work remains."""
        if self.finished:
            return False
        self._guarded(self._step_wave)
        return not self.finished

    def _guarded(self, stage: Callable[[], None]) -> None:
        """Run one lifecycle *stage* under the plan span.

        A parked span is re-adopted, so node/agent/llm spans opened inside
        parent correctly even when steps of many plans interleave.  This
        is the one place a crash lands: whatever unwinds out of the stage
        (a chaos kill) abandons the execution and propagates.
        """
        try:
            if self._tracer is not None and not self.owns_timeline:
                with self._tracer.adopt(self.span):
                    stage()
            else:
                stage()
        except BaseException as error:
            self.abandon(f"{type(error).__name__}: {error}")
            raise

    def abandon(self, error: str) -> None:
        """Record a crash that cut this execution short (chaos kill).

        Commits an owned timeline (the clock cannot stay rebased into the
        past), closes the plan span with the error; no status tally.
        """
        if self.finished:
            return
        self.finished = True
        self.result = self.run
        if self.owns_timeline and self.timeline is not None:
            self.timeline.commit()
        self.span.set_error(error)
        self.span.__exit__(None, None, None)

    @property
    def clock(self) -> "SimClock":
        """The driving coordinator's clock (raises once it has crashed)."""
        return self.coordinator._require_context().clock

    def count_parallel(self, nodes: int) -> None:
        """Tally *nodes* of a multi-node wave (``scheduler.parallel_nodes``)."""
        self.coordinator._parallel_node_tally += nodes

    def ready_time(self, node: TaskNode) -> float:
        """A node's branch start: the max of its predecessors' ends."""
        return max(
            (self._ends[p] for p in node.upstream_nodes() if p in self._ends),
            default=self.start_at,
        )

    def _admit(self) -> None:
        coordinator = self.coordinator
        context = coordinator._require_context()
        journal = coordinator._journal
        run = self.run
        # A control message addressed to an absent agent would dissolve
        # silently; require every planned agent to be in the session.
        participants = set(context.session.participants())
        absent = sorted({n.agent for n in self.plan.nodes()} - participants)
        if absent:
            # A fresh plan refused here never journaled its admission
            # record, so it gets no terminal record either.
            self._fail(f"agents not present in session: {absent}", journaled=run.resumed)
            self._conclude(run)
        elif journal is not None and not run.resumed:
            journal.plan_started(
                self.plan,
                qos=self.budget.qos if self.budget is not None else None,
                attempt=self.attempt,
            )

    def _step_wave(self) -> None:
        timeline = self.timeline
        if self._wave_index >= len(self._schedule):
            self._complete()
            return
        wave = self._schedule[self._wave_index]
        wave_index = self._wave_index
        self._wave_index += 1
        if timeline is not None:
            self.coordinator._wave_tally += 1
        # The backend owns HOW the wave's nodes execute (in order on this
        # thread, or fanned across a pool); verdict semantics are shared:
        # first non-ok verdict wins the wave.
        verdict = self.backend.run_wave(self, wave, wave_index)
        if verdict == "replan":
            if timeline is not None and self.owns_timeline:
                # Land the clock on this run's critical path before the
                # escalated re-execution (inline within this step,
                # non-interleaved) starts its own timeline.
                timeline.commit()
            self._conclude(
                self.coordinator._replan(self.plan, self.budget, self.attempt)
            )
            return
        if verdict == "stop":
            self._conclude(self.run)
            return
        if self._wave_index >= len(self._schedule):
            self._complete()

    def _complete(self) -> None:
        run = self.run
        run.status = "completed"
        journal = self.coordinator._journal
        if journal is not None:
            journal.plan_finished(run.plan_id, "completed")
        self._conclude(run)

    def _conclude(self, result: PlanRun) -> None:
        """The single ending: settle time, stamp and close the span, tally."""
        self.finished = True
        self.result = result  # on a replan, the escalated run; the rest is about ours
        run = self.run
        clock = self.clock
        branched = False
        if self.owns_timeline:
            # The span ends at the committed clock: an escalated
            # re-execution ran nested in it after this plan's critical
            # path, and a child span must not outlive its parent.
            if self.timeline is not None:
                self.timeline.commit()
        else:
            # The lender commits; stamp the span end at this plan's own
            # critical path.  On a concurrent backend this runs on a
            # worker thread, so the stamp goes through a clock branch
            # instead of rebasing the shared clock under sibling plans.
            branched = self.backend.concurrent and not clock.branch_active()
            if branched:
                clock.branch_begin(self.plan_end)
            else:
                clock.rebase(self.plan_end)
        try:
            span = self.span
            span.set_attribute("status", run.status)
            span.set_attribute("nodes_executed", len(run.executed))
            if run.status != "completed":
                span.set_error(run.abort_reason or run.status)
            span.__exit__(None, None, None)
        finally:
            if branched:
                clock.branch_end()
        tally = self.coordinator._plan_status_tally
        tally[run.status] = tally.get(run.status, 0) + 1

    # ------------------------------------------------------------------
    # Node driving
    # ------------------------------------------------------------------
    def drive(self, node: TaskNode, wave_index: int, wave_len: int) -> str:
        """Drive one scheduled node through barriers, budget, and execution.

        The backend entry point.  Returns ``"ok"`` (node done, keep
        going), ``"stop"`` (run has terminally failed or aborted), or
        ``"replan"`` (budget violated and the policy allows an escalated
        re-execution).

        With a journal the node crosses two checkpoint barriers, where
        the chaos harness may kill the coordinator: ``boundary:`` before
        it is scheduled and ``midnode:`` between its effect record and
        its completion record.  Every journal write precedes the state
        it describes (write-ahead), so a crash at either is recoverable
        with zero duplicate effects.
        """
        coordinator = self.coordinator
        run = self.run
        budget = self.budget
        journal = coordinator._journal
        key = None
        if journal is not None:
            journal.barrier(f"boundary:{run.plan_id}/{node.node_id}")
            key = idempotency_key(
                run.plan_id, node.node_id, "execute", attempt=self.attempt
            )
            effect = journal.effects.get(key)
            if effect is not None:
                # The in-doubt node: its effect landed but the crash ate
                # its completion record.  Replay the journaled result
                # instead of re-executing (exactly-once effects).
                return self._replay_effect(node, effect)
        violation = budget.violation() if budget is not None else None
        if violation is not None:
            self._abort(f"budget violated on {violation}")
            if journal is not None:
                journal.plan_finished(run.plan_id, "aborted", reason=run.abort_reason)
            if coordinator._replan_on_violation and self.attempt < coordinator._max_replans:
                return "replan"
            return "stop"
        if journal is not None:
            journal.node_scheduled(run.plan_id, node.node_id, node.agent)
        # The charge window opens before binding resolution so the effect
        # record covers the data planner too; it holds this thread's
        # charges only, so concurrent sibling nodes never bleed into it.
        metered = journal is not None and budget is not None
        with budget.window() if metered else nullcontext(()) as charges:
            try:
                resolved = self._resolve_bindings(node)
            except CoordinationError as error:
                self._fail(str(error))
                return "stop"
            if journal is not None:
                journal.node_started(run.plan_id, node.node_id, node.agent)
            wave = wave_index if self._parallel else None
            outputs = self._execute_node(node, resolved, wave, wave_len)
        if journal is not None:
            failure = run.node_errors.get(node.node_id)
            journal.effects.record(
                key,
                run.plan_id,
                node=node.node_id,
                outputs=outputs,
                failure=(
                    asdict(failure)
                    if failure is not None and outputs is None
                    else None
                ),
                fallback=run.fallbacks.get(node.node_id),
                charges=[asdict(c) for c in charges],
            )
            journal.barrier(f"midnode:{run.plan_id}/{node.node_id}")
        return self._settle_node(node, outputs)

    def _settle_node(self, node: TaskNode, outputs: dict[str, Any] | None) -> str:
        """Record a driven or replayed node's result (None: every route
        failed, so the run fails); returns its verdict."""
        run = self.run
        if outputs is None:
            failure = run.node_errors.get(node.node_id)
            detail = f": {failure.describe()}" if failure else ""
            self._fail(f"agent {node.agent} failed on node {node.node_id}{detail}")
            return "stop"
        run.node_outputs[node.node_id] = outputs
        run.executed.append(node.node_id)
        journal = self.coordinator._journal
        if journal is not None:
            journal.node_completed(run.plan_id, node.node_id, outputs)
        return "ok"

    def _replay_effect(self, node: TaskNode, effect: dict[str, Any]) -> str:
        """Settle one node from its journaled effect record.

        Restores what executing the node left in the run — its (final)
        failure, or its outputs and fallback route — and settles it as
        :meth:`drive` would have, without re-driving the agent, so the
        journal reaches the exact state of an uninterrupted run.
        """
        run = self.run
        self.coordinator._replayed_effects_tally += 1
        run.replayed_effects.append(node.node_id)
        failure = effect.get("failure")
        if failure is not None:
            run.node_errors[node.node_id] = NodeFailure(**failure)
            return self._settle_node(node, None)
        fallback = effect.get("fallback")
        if fallback:
            run.fallbacks[node.node_id] = fallback
        return self._settle_node(node, dict(effect.get("outputs") or {}))

    def _execute_node(
        self, node: TaskNode, resolved: dict[str, Any], wave: int | None, concurrency: int
    ) -> dict[str, Any] | None:
        """Drive one node to success, through retries/breaker/fallback.

        Returns the node's outputs, or None when every route failed (the
        work item is then dead-lettered).  Under the wave scheduler the
        node's span carries its *wave* index and the wave's *concurrency*
        (how many nodes were logically concurrent with it).
        """
        coordinator = self.coordinator
        context = coordinator._require_context()
        # The parent plan span already names the plan, so the node span
        # only carries the agent (plus wave/concurrency under the wave
        # scheduler — passed as creation kwargs: exports sort keys, so
        # folding them in is byte-identical and skips two set_attribute
        # calls per scheduled node).
        if wave is not None:
            node_span = context.span(
                f"node:{node.node_id}",
                kind="node",
                agent=node.agent,
                wave=wave,
                concurrency=concurrency,
            )
        else:
            node_span = context.span(f"node:{node.node_id}", kind="node", agent=node.agent)
        with node_span as span:
            policy = coordinator._retry_policy
            breakers = coordinator._breakers
            breaker = breakers.for_agent(node.agent) if breakers else None
            h_attempts = coordinator._h_node_attempts
            failure: NodeFailure | None = None
            attempts = 0

            if breaker is not None and not breaker.allow():
                # Short-circuit: do NOT emit EXECUTE_AGENT to the failing agent.
                tally = coordinator._short_circuit_tally
                tally[node.agent] = tally.get(node.agent, 0) + 1
                span.set_attribute("short_circuited", True)
                failure = NodeFailure(
                    error=f"circuit breaker open for agent {node.agent}",
                    error_type="CircuitOpenError",
                    transient=True,
                    attempts=0,
                )
            else:
                while True:
                    attempts += 1
                    outputs, attempt_failure = self._attempt(
                        node, resolved, node.agent, node.model
                    )
                    if attempt_failure is None:
                        if breaker is not None:
                            breaker.record_success()
                        span.set_attribute("attempts", attempts)
                        if h_attempts is not None:
                            h_attempts.observe(attempts)
                        return outputs
                    if breaker is not None:
                        breaker.record_failure()
                    attempt_failure.attempts = attempts
                    failure = attempt_failure
                    # Rebuild an exception-shaped object for retry classification.
                    kind = TransientError if attempt_failure.transient else ReproError
                    if not policy.should_retry(kind(attempt_failure.error), attempts):
                        break
                    policy.charge_backoff(
                        attempts,
                        key=f"{self.run.plan_id}/{node.node_id}",
                        clock=context.clock,
                        budget=self.budget,
                        metrics=context.metrics,
                    )

            span.set_attribute("attempts", attempts)
            if h_attempts is not None:
                h_attempts.observe(attempts)
            span.set_error(failure.describe() if failure else "node failed")
            self.run.node_errors[node.node_id] = failure
            rescued = self._execute_fallback(node, resolved)
            if rescued is not None:
                span.set_attribute("rescued_by", node.fallback_agent)
                tally = coordinator._rescue_tally
                tally[node.agent] = tally.get(node.agent, 0) + 1
                return rescued
            self._quarantine(node, resolved, failure)
            return None

    def _execute_fallback(
        self, node: TaskNode, resolved: dict[str, Any]
    ) -> dict[str, Any] | None:
        """Route the node to its fallback agent (graceful degradation)."""
        if node.fallback_agent is None:
            return None
        context = self.coordinator._require_context()
        if node.fallback_agent not in context.session.participants():
            return None
        outputs, failure = self._attempt(
            node, resolved, node.fallback_agent, node.fallback_model
        )
        if failure is None:
            self.run.fallbacks[node.node_id] = node.fallback_agent
            return outputs
        return None

    def _attempt(
        self, node: TaskNode, resolved: dict[str, Any], agent: str, model: str | None
    ) -> tuple[dict[str, Any] | None, NodeFailure | None]:
        """One ``EXECUTE_AGENT`` round trip; a failure's partials go on record."""
        outputs, failure = self.coordinator._attempt_node(
            node, resolved, agent, model, self.plan.no_cache
        )
        if failure is None:
            return outputs, None
        if outputs is not None:
            self.run.partial_outputs[node.node_id] = outputs
        return None, failure

    def _quarantine(
        self, node: TaskNode, resolved: dict[str, Any], failure: NodeFailure | None
    ) -> None:
        coordinator = self.coordinator
        if not coordinator._dead_letters_enabled:
            return
        failure = failure or NodeFailure(error="unknown failure")
        entry = coordinator.dead_letter_queue().quarantine(
            plan=self.run.plan_id,
            node=node.node_id,
            agent=node.agent,
            inputs=resolved,
            error=failure.error,
            error_type=failure.error_type,
            transient=failure.transient,
            attempts=failure.attempts,
            fallback_agent=node.fallback_agent,
        )
        self.run.dead_letters.append(entry.message_id)

    def _resolve_bindings(self, node: TaskNode) -> dict[str, Any]:
        """Bound input values, with data-planner transformations applied."""
        coordinator = self.coordinator
        # A crashed coordinator fails here, before the node is journaled
        # as started.
        coordinator._require_context()
        resolved: dict[str, Any] = {}
        for param, binding in node.bindings.items():
            if binding.stream is not None:
                value = coordinator._latest_payload(binding.stream)
            elif binding.node is not None:
                upstream = self.run.outputs_of(binding.node)
                if binding.param not in upstream:
                    raise CoordinationError(
                        f"node {node.node_id!r} needs {binding.node}.{binding.param} "
                        f"but upstream produced {sorted(upstream)}"
                    )
                value = upstream[binding.param]
            else:
                value = binding.value
            if binding.transform is not None:
                value = coordinator._transform(binding.transform, value)
            resolved[param] = value
        return resolved

    def _fail(self, reason: str, *, journaled: bool = True) -> None:
        """Fail the run terminally; *journaled* says its admission record exists."""
        run = self.run
        run.status = "failed"
        run.abort_reason = reason
        journal = self.coordinator._journal
        if journaled and journal is not None:
            journal.plan_finished(run.plan_id, "failed", reason=reason)

    def _abort(self, reason: str) -> None:
        coordinator = self.coordinator
        context = coordinator._require_context()
        run = self.run
        run.status = "aborted"
        run.abort_reason = reason
        context.store.publish_control(
            context.session.session_stream.stream_id,
            Instruction.ABORT_PLAN,
            producer=coordinator.name,
            plan=self.plan.plan_id,
            reason=reason,
        )
        if coordinator._replan_on_violation:
            context.store.publish_control(
                context.session.session_stream.stream_id,
                Instruction.REPLAN,
                producer=coordinator.name,
                plan=self.plan.plan_id,
                goal=self.plan.goal,
                reason=reason,
            )
