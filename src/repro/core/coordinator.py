"""The task coordinator (Section V-H).

"The task planner is concerned with interpreting tasks, while the task
coordinator handles execution."  The coordinator:

* listens to any stream carrying a plan (tag ``PLAN``), unrolls the DAG,
* drives each node by emitting ``EXECUTE_AGENT`` control messages,
* resolves parameter bindings — constants, stream reads, upstream node
  outputs — invoking the **data planner** for transformations
  (``PROFILER.CRITERIA <- USER.TEXT`` becomes an extract data plan),
* monitors the **budget** after every step, aborting the plan (and
  optionally requesting a replan) when QoS thresholds are exceeded,
* publishes the final result to its ``RESULT`` stream.

Execution is resilient (Section VII's "error handling and retry"):
failures are classified transient/fatal and retried under a
:class:`~repro.core.resilience.RetryPolicy` with backoff charged to the
budget; a :class:`~repro.core.resilience.BreakerBoard` short-circuits
nodes that target a known-failing agent; nodes may carry deadlines and
fallback agents/model tiers; work that still fails is quarantined on the
session's dead-letter stream, replayable after recovery.

Because the stream store delivers messages depth-first, the agent executes
synchronously inside the coordinator's control publish, so outputs are
visible immediately afterwards.  (Consequently, agents the coordinator
drives should run inline — ``workers=0``, the default; worker-pool agents
are for decentralized tag-triggered fan-out, where no one waits on them.)
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, TYPE_CHECKING

from ..errors import CoordinationError
from ..streams import Instruction
from .agent import Agent
from .budget import Budget
from .engine import SERIAL, ExecutionBackend
from .params import Parameter
from .plan.task_plan import TaskNode, TaskPlan
from .planners.data_planner import DataPlanner
from .qos import QoSSpec
from .recovery import WriteAheadJournal, idempotency_key
from .resilience import BreakerBoard, DeadLetterQueue, RetryPolicy
from .scheduler import VirtualTimeline

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .recovery import RecoveredPlan


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

        A parked span is re-entered, so node/agent/llm spans opened inside
        parent correctly even when steps of many plans interleave.  This
        is the one place a crash lands: whatever unwinds out of the stage
        (a chaos kill) abandons the execution and propagates.
        """
        try:
            if self._tracer is not None and not self.owns_timeline:
                with self._tracer.use(self.span):
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

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def ready_time(self, node: TaskNode) -> float:
        """A node's branch start: the max of its predecessors' ends."""
        return max(
            (self._ends[p] for p in node.upstream_nodes() if p in self._ends),
            default=self.start_at,
        )

    def drive(self, node: TaskNode, wave_index: int, wave_len: int) -> str:
        """Drive one node (backend entry point); returns its verdict."""
        return self.coordinator._drive_node(
            node,
            self.plan,
            self.run,
            self.budget,
            self.attempt,
            wave=wave_index if self._parallel else None,
            concurrency=wave_len,
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
            reason = f"agents not present in session: {absent}"
            coordinator._fail(run, reason, journaled=run.resumed)
            self._conclude(run)
        elif journal is not None and not run.resumed:
            journal.plan_started(
                self.plan,
                qos=self.budget.qos if self.budget is not None else None,
                attempt=self.attempt,
            )

    def _step_wave(self) -> None:
        coordinator = self.coordinator
        timeline = self.timeline
        if self._wave_index >= len(self._schedule):
            self._complete()
            return
        wave = self._schedule[self._wave_index]
        wave_index = self._wave_index
        self._wave_index += 1
        # The plan-level cache bypass is coordinator state read by
        # _attempt_node; swap it per step so interleaved plans with
        # different no_cache settings never leak into each other.  (Each
        # fleet submission has its own coordinator, and a coordinator
        # steps at most one wave at a time, so this stays race-free even
        # on the thread backend.)
        previous_no_cache = coordinator._plan_no_cache
        coordinator._plan_no_cache = bool(self.plan.no_cache)
        try:
            if timeline is not None:
                coordinator._wave_tally += 1
            # The backend owns HOW the wave's nodes execute (in order on
            # this thread, or fanned across a pool); verdict semantics
            # are shared: first non-ok verdict wins the wave.
            verdict = self.backend.run_wave(self, wave, wave_index)
            if verdict == "replan":
                if timeline is not None and self.owns_timeline:
                    # Land the clock on this run's critical path before
                    # the escalated re-execution (inline within this
                    # step, non-interleaved) starts its own timeline.
                    timeline.commit()
                self._conclude(
                    coordinator._replan(self.plan, self.budget, self.attempt)
                )
                return
            if verdict == "stop":
                self._conclude(self.run)
                return
            if self._wave_index >= len(self._schedule):
                self._complete()
        finally:
            coordinator._plan_no_cache = previous_no_cache

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
        coordinator = self.coordinator
        clock = coordinator._require_context().clock
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
        tally = coordinator._plan_status_tally
        tally[run.status] = tally.get(run.status, 0) + 1


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
        #: Plan-level LLM-cache bypass, threaded into EXECUTE_AGENT while
        #: a ``no_cache`` plan is driving.
        self._plan_no_cache = False
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
    def retry_policy(self) -> RetryPolicy:
        """The effective per-node retry policy."""
        return self._retry_policy

    @property
    def breakers(self) -> BreakerBoard | None:
        return self._breakers

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
            outputs, failure = self._attempt_node(
                node, inputs, node.agent, None
            )
            return failure is None and outputs is not None

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

    def _fail(self, run: PlanRun, reason: str, *, journaled: bool = True) -> None:
        """Fail *run* terminally; *journaled* says its admission record exists."""
        run.status = "failed"
        run.abort_reason = reason
        if journaled and self._journal is not None:
            self._journal.plan_finished(run.plan_id, "failed", reason=reason)

    def _drive_node(
        self,
        node: TaskNode,
        plan: TaskPlan,
        run: PlanRun,
        budget: Budget | None,
        _attempt: int,
        wave: int | None = None,
        concurrency: int = 1,
    ) -> str:
        """Drive one scheduled node through barriers, budget, and execution.

        Returns ``"ok"`` (node done, keep going), ``"stop"`` (run has
        terminally failed or aborted), or ``"replan"`` (budget violated
        and the policy allows an escalated re-execution).

        With a journal the node crosses two checkpoint barriers, where
        the chaos harness may kill the coordinator: ``boundary:`` before
        it is scheduled and ``midnode:`` between its effect record and
        its completion record.  Every journal write precedes the state
        it describes (write-ahead), so a crash at either is recoverable
        with zero duplicate effects.
        """
        journal = self._journal
        key = None
        if journal is not None:
            journal.barrier(f"boundary:{run.plan_id}/{node.node_id}")
            key = idempotency_key(
                run.plan_id, node.node_id, "execute", attempt=_attempt
            )
            effect = journal.effects.get(key)
            if effect is not None:
                # The in-doubt node: its effect landed but the crash ate
                # its completion record.  Replay the journaled result
                # instead of re-executing (exactly-once effects).
                return self._replay_effect(node, run, effect)
        violation = budget.violation() if budget is not None else None
        if violation is not None:
            self._abort(run, plan, f"budget violated on {violation}")
            if journal is not None:
                journal.plan_finished(run.plan_id, "aborted", reason=run.abort_reason)
            if self._replan_on_violation and _attempt < self._max_replans:
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
                resolved = self._resolve_bindings(node, run)
            except CoordinationError as error:
                self._fail(run, str(error))
                return "stop"
            if journal is not None:
                journal.node_started(run.plan_id, node.node_id, node.agent)
            outputs = self._execute_node(
                node, resolved, run, budget, wave=wave, concurrency=concurrency
            )
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
        return self._settle_node(node, run, outputs)

    def _settle_node(
        self, node: TaskNode, run: PlanRun, outputs: dict[str, Any] | None
    ) -> str:
        """Record a driven or replayed node's result (None: every route
        failed, so the run fails); returns its verdict."""
        if outputs is None:
            failure = run.node_errors.get(node.node_id)
            detail = f": {failure.describe()}" if failure else ""
            self._fail(run, f"agent {node.agent} failed on node {node.node_id}{detail}")
            return "stop"
        run.node_outputs[node.node_id] = outputs
        run.executed.append(node.node_id)
        if self._journal is not None:
            self._journal.node_completed(run.plan_id, node.node_id, outputs)
        return "ok"

    def _replay_effect(
        self, node: TaskNode, run: PlanRun, effect: dict[str, Any]
    ) -> str:
        """Settle one node from its journaled effect record.

        Restores what executing the node left in the run — its (final)
        failure, or its outputs and fallback route — and settles it as
        :meth:`_drive_node` would have, without re-driving the agent, so
        the journal reaches the exact state of an uninterrupted run.
        """
        self._replayed_effects_tally += 1
        run.replayed_effects.append(node.node_id)
        failure = effect.get("failure")
        if failure is not None:
            run.node_errors[node.node_id] = NodeFailure(**failure)
            return self._settle_node(node, run, None)
        fallback = effect.get("fallback")
        if fallback:
            run.fallbacks[node.node_id] = fallback
        return self._settle_node(node, run, dict(effect.get("outputs") or {}))

    def _execute_node(
        self,
        node: TaskNode,
        resolved: dict[str, Any],
        run: PlanRun,
        budget: Budget | None,
        wave: int | None = None,
        concurrency: int = 1,
    ) -> dict[str, Any] | None:
        """Drive one node to success, through retries/breaker/fallback.

        Returns the node's outputs, or None when every route failed (the
        work item is then dead-lettered).  Under the wave scheduler the
        node's span carries its *wave* index and the wave's *concurrency*
        (how many nodes were logically concurrent with it).
        """
        context = self._require_context()
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
            policy = self._retry_policy
            breaker = self._breakers.for_agent(node.agent) if self._breakers else None
            failure: NodeFailure | None = None
            attempts = 0

            if breaker is not None and not breaker.allow():
                # Short-circuit: do NOT emit EXECUTE_AGENT to the failing agent.
                tally = self._short_circuit_tally
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
                    outputs, attempt_failure = self._attempt_node(
                        node, resolved, node.agent, node.model, run
                    )
                    if attempt_failure is None:
                        if breaker is not None:
                            breaker.record_success()
                        span.set_attribute("attempts", attempts)
                        if self._h_node_attempts is not None:
                            self._h_node_attempts.observe(attempts)
                        return outputs
                    if breaker is not None:
                        breaker.record_failure()
                    attempt_failure.attempts = attempts
                    failure = attempt_failure
                    error = _failure_as_error(attempt_failure)
                    if not policy.should_retry(error, attempts):
                        break
                    policy.charge_backoff(
                        attempts,
                        key=f"{run.plan_id}/{node.node_id}",
                        clock=context.clock,
                        budget=budget,
                        metrics=context.metrics,
                    )

            span.set_attribute("attempts", attempts)
            if self._h_node_attempts is not None:
                self._h_node_attempts.observe(attempts)
            span.set_error(failure.describe() if failure else "node failed")
            run.node_errors[node.node_id] = failure
            rescued = self._execute_fallback(node, resolved, run)
            if rescued is not None:
                span.set_attribute("rescued_by", node.fallback_agent)
                tally = self._rescue_tally
                tally[node.agent] = tally.get(node.agent, 0) + 1
                return rescued
            self._quarantine(node, resolved, run, failure)
            return None

    def _execute_fallback(
        self, node: TaskNode, resolved: dict[str, Any], run: PlanRun
    ) -> dict[str, Any] | None:
        """Route the node to its fallback agent (graceful degradation)."""
        if node.fallback_agent is None:
            return None
        context = self._require_context()
        if node.fallback_agent not in context.session.participants():
            return None
        outputs, failure = self._attempt_node(
            node, resolved, node.fallback_agent, node.fallback_model, run
        )
        if failure is None and outputs is not None:
            run.fallbacks[node.node_id] = node.fallback_agent
            return outputs
        return None

    def _attempt_node(
        self,
        node: TaskNode,
        resolved: dict[str, Any],
        agent: str,
        model: str | None,
        run: PlanRun | None = None,
    ) -> tuple[dict[str, Any] | None, NodeFailure | None]:
        """One EXECUTE_AGENT emission plus output/error collection."""
        context = self._require_context()
        marker = context.store.mark()
        started = context.clock.now()
        extra: dict[str, Any] = {}
        if model is not None:
            extra["model"] = model
        if self._plan_no_cache:
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
        if failure is not None and outputs is not None and run is not None:
            run.partial_outputs[node.node_id] = outputs
        if failure is not None:
            return None, failure
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

    def _quarantine(
        self,
        node: TaskNode,
        resolved: dict[str, Any],
        run: PlanRun,
        failure: NodeFailure | None,
    ) -> None:
        if not self._dead_letters_enabled:
            return
        failure = failure or NodeFailure(error="unknown failure")
        entry = self.dead_letter_queue().quarantine(
            plan=run.plan_id,
            node=node.node_id,
            agent=node.agent,
            inputs=resolved,
            error=failure.error,
            error_type=failure.error_type,
            transient=failure.transient,
            attempts=failure.attempts,
            fallback_agent=node.fallback_agent,
        )
        run.dead_letters.append(entry.message_id)

    # ------------------------------------------------------------------
    # Binding resolution (with data-planner transformations)
    # ------------------------------------------------------------------
    def _resolve_bindings(self, node: TaskNode, run: PlanRun) -> dict[str, Any]:
        context = self._require_context()
        resolved: dict[str, Any] = {}
        for param, binding in node.bindings.items():
            if binding.stream is not None:
                value = self._latest_payload(binding.stream)
            elif binding.node is not None:
                upstream = run.outputs_of(binding.node)
                if binding.param not in upstream:
                    raise CoordinationError(
                        f"node {node.node_id!r} needs {binding.node}.{binding.param} "
                        f"but upstream produced {sorted(upstream)}"
                    )
                value = upstream[binding.param]
            else:
                value = binding.value
            if binding.transform is not None:
                value = self._transform(binding.transform, value)
            resolved[param] = value
        return resolved

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

    # ------------------------------------------------------------------
    # Violation handling
    # ------------------------------------------------------------------
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

    def _abort(self, run: PlanRun, plan: TaskPlan, reason: str) -> None:
        context = self._require_context()
        run.status = "aborted"
        run.abort_reason = reason
        context.store.publish_control(
            context.session.session_stream.stream_id,
            Instruction.ABORT_PLAN,
            producer=self.name,
            plan=plan.plan_id,
            reason=reason,
        )
        if self._replan_on_violation:
            context.store.publish_control(
                context.session.session_stream.stream_id,
                Instruction.REPLAN,
                producer=self.name,
                plan=plan.plan_id,
                goal=plan.goal,
                reason=reason,
            )

    def output_tags(self, param: str) -> tuple[str, ...]:
        return ("RESULT",)


def _failure_as_error(failure: NodeFailure) -> BaseException:
    """Rebuild an exception-shaped object for retry classification."""
    from ..errors import ReproError, TransientError

    if failure.transient:
        return TransientError(failure.error)
    return ReproError(failure.error)
