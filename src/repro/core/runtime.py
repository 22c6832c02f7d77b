"""The Blueprint runtime: one object wiring every component together.

This is the library's main entry point.  It owns the simulated clock, the
streams database, the model catalog, both registries, the session manager,
the planners, and the optimizer — the full Figure-1 component inventory —
and provides the attach/bootstrap conveniences applications use.

Example:
    >>> from repro.core.runtime import Blueprint
    >>> bp = Blueprint()
    >>> session = bp.create_session()
    >>> sorted(bp.describe()["components"])[:3]
    ['agent_registry', 'agents', 'clock']
"""

from __future__ import annotations

import json
from typing import Any, Callable, Sequence

from ..clock import SimClock
from ..llm import (
    LLMBatcher,
    LLMCache,
    ModelCapacity,
    ModelCatalog,
    SingleFlight,
    UsageTracker,
)
from ..observability import Observability
from ..streams import FlowTrace, StreamStore
from .agent import Agent
from .budget import Budget, Projection
from .context import AgentContext
from .coordinator import TaskCoordinator
from .engine import ExecutionBackend, SERIAL, resolve_backend
from .factory import AgentFactory
from .fleet import FleetEntry, FleetOffer, FleetResult, FleetScheduler, FleetSubmission
from .overload import Arrival, TrafficGenerator
from .plan.task_plan import TaskPlan
from .scheduler import VirtualTimeline
from .planners.data_planner import DataPlanner
from .planners.task_planner import TaskPlanner, TaskPlannerAgent
from .qos import QoSSpec
from .recovery import CompensationRegistry, RecoveryManager, WriteAheadJournal
from .registries import AgentRegistry, DataRegistry
from .session import Session, SessionManager


class Blueprint:
    """The assembled blueprint architecture."""

    def __init__(
        self,
        clock: SimClock | None = None,
        catalog: ModelCatalog | None = None,
        agent_registry: AgentRegistry | None = None,
        data_registry: DataRegistry | None = None,
        planner_model: str = "hr-ft",
        observability: Observability | None = None,
        llm_cache: LLMCache | bool = False,
    ) -> None:
        self.clock = clock or SimClock()
        #: Tracing + metrics over the whole runtime; on by default because
        #: it is the measurement substrate every perf decision reads from.
        #: Pass ``Observability(clock, enabled=False)`` to strip it.
        self.observability = observability or Observability(self.clock)
        self.store = StreamStore(self.clock)
        self.store.observability = self.observability
        self.tracker = UsageTracker()
        self.catalog = catalog or ModelCatalog(clock=self.clock, tracker=self.tracker)
        if self.catalog.clock is None:
            self.catalog.clock = self.clock
        self.catalog.observability = self.observability
        #: LLM result cache: opt-in (``llm_cache=True`` or a configured
        #: :class:`~repro.llm.LLMCache`) so default runs keep byte-identical
        #: traces and call-for-call chaos determinism.
        if isinstance(llm_cache, LLMCache):
            # isinstance, not truthiness: a configured-but-empty cache has
            # len() == 0 and would be dropped by a bare ``if llm_cache``.
            self.catalog.cache = llm_cache
        elif llm_cache:
            self.catalog.cache = LLMCache()
        self.llm_cache = self.catalog.cache
        self.agent_registry = agent_registry or AgentRegistry()
        self.data_registry = data_registry or DataRegistry()
        self.sessions = SessionManager(self.store)
        self.data_planner = DataPlanner(
            self.data_registry, self.catalog, planner_model=planner_model
        )
        self.task_planner = TaskPlanner(self.agent_registry, self.catalog)
        self.factory = AgentFactory()
        self._attached: dict[str, list[Agent]] = {}

    # ------------------------------------------------------------------
    # Sessions and contexts
    # ------------------------------------------------------------------
    def create_session(self, session_id: str | None = None) -> Session:
        return self.sessions.create(session_id)

    def budget(self, qos: QoSSpec | None = None, projection: Projection | None = None) -> Budget:
        return Budget(
            qos=qos,
            clock=self.clock,
            projection=projection,
            metrics=self.observability.metrics,
        )

    def context(self, session: Session, budget: Budget | None = None) -> AgentContext:
        return AgentContext(
            store=self.store,
            session=session,
            clock=self.clock,
            catalog=self.catalog,
            budget=budget,
            agent_registry=self.agent_registry,
            data_registry=self.data_registry,
            observability=self.observability,
        )

    # ------------------------------------------------------------------
    # Agents
    # ------------------------------------------------------------------
    def attach(
        self,
        agent: Agent,
        session: Session,
        budget: Budget | None = None,
        register: bool = True,
    ) -> Agent:
        """Attach *agent* to *session* and (optionally) register it."""
        agent.attach(self.context(session, budget))
        if register and not self.agent_registry.has(agent.name):
            self.agent_registry.register_agent(agent)
        self._attached.setdefault(session.session_id, []).append(agent)
        return agent

    def attach_planner_and_coordinator(
        self,
        session: Session,
        budget: Budget | None = None,
        user_stream: str | None = None,
        journal: WriteAheadJournal | None = None,
        parallel: bool = False,
    ) -> tuple[TaskPlannerAgent, TaskCoordinator]:
        """Bootstrap the standard orchestration pair for a session.

        *user_stream* names the stream plans read user input from
        (defaults to the session's ``user`` stream).  With *journal*
        (see :meth:`journal`), the coordinator write-ahead journals plan
        execution so crashed plans can be resumed.  With *parallel*, the
        coordinator schedules plans in dependency waves and accounts
        latency as the critical path.
        """
        planner_agent = TaskPlannerAgent(self.task_planner, user_stream=user_stream)
        coordinator = TaskCoordinator(
            data_planner=self.data_planner, journal=journal, parallel=parallel
        )
        self.attach(planner_agent, session, budget)
        self.attach(coordinator, session, budget)
        return planner_agent, coordinator

    # ------------------------------------------------------------------
    # Fleet execution
    # ------------------------------------------------------------------
    def run_fleet(
        self,
        submissions: Sequence["TaskPlan | FleetSubmission"],
        max_inflight: int = 4,
        max_backlog: int | None = None,
        journal: bool = True,
        single_flight: bool = True,
        capacity: "ModelCapacity | dict[str, int] | None" = None,
        batching: "bool | LLMBatcher" = False,
        backend: "str | ExecutionBackend" = "serial",
    ) -> FleetResult:
        """Run many plans concurrently on one shared virtual timeline.

        Each submission gets its own session, coordinator, and (with
        *journal*) write-ahead journal stream, so crash recovery works
        per plan exactly as in single-plan runs.  Up to *max_inflight*
        plans execute at once, round-robined wave by wave; the rest wait
        in a FIFO backlog of at most *max_backlog* (unbounded when None)
        or are rejected.  With *single_flight*, timeline-overlapping
        identical LLM calls across plans coalesce into one; *capacity*
        (a :class:`~repro.llm.ModelCapacity` or a ``{model: slots}``
        mapping) bounds per-model concurrency, queueing excess calls with
        deterministic delay.  With *batching* (``True`` for defaults, or
        a configured :class:`~repro.llm.LLMBatcher`), distinct-but-
        batchable calls to the same model — same params, different
        prompts — coalesce into micro-batch windows: joiners keep their
        own cost attribution but share the window's capacity slot and
        pay only the residual latency.

        Plain :class:`TaskPlan` submissions run unbudgeted with no extra
        agents; wrap in :class:`~repro.core.fleet.FleetSubmission` to
        attach agents and a QoS budget.

        *backend* selects the execution backend: ``"serial"`` (default;
        single-threaded, byte-identical deterministic traces)
        or ``"threads"`` (wave nodes and fleet rounds run on real worker
        threads — result-identical, wall-clock faster when agent work
        blocks).  An :class:`~repro.core.engine.ExecutionBackend`
        instance may be passed directly (the caller then owns its
        lifecycle); a string-built thread backend is closed on return.
        """
        self._wire_fleet_contention(single_flight, capacity, batching)
        entries = [self._prepare_entry(item, journal) for item in submissions]
        return self._schedule(
            lambda scheduler: scheduler.run(entries),
            backend,
            max_inflight=max_inflight,
            max_backlog=max_backlog,
        )

    def run_traffic(
        self,
        traffic: "TrafficGenerator | Sequence[Arrival]",
        submission_factory: Any,
        max_inflight: int = 4,
        max_backlog: int | None = None,
        admission: Any = None,
        brownout: Any = None,
        journal: bool = True,
        single_flight: bool = True,
        capacity: "ModelCapacity | dict[str, int] | None" = None,
        batching: "bool | LLMBatcher" = False,
        backend: "str | ExecutionBackend" = "serial",
    ) -> FleetResult:
        """Serve an open-loop arrival stream through the overload plane.

        *traffic* is a :class:`~repro.core.overload.TrafficGenerator`
        (its trace is generated here) or a pre-built arrival sequence;
        *submission_factory* maps each
        :class:`~repro.core.overload.Arrival` to a
        :class:`~repro.core.fleet.FleetSubmission` (or a bare
        :class:`TaskPlan`).  Arrival times are relative to the trace
        origin and are shifted onto the shared clock at submission.

        *admission* is an
        :class:`~repro.core.overload.AdmissionController` (None = the
        PR-5 FIFO backlog bounded by *max_backlog* — the naive
        ablation).  A controller carries its own bounds, so passing
        *max_backlog* with one raises ``ValueError`` instead of silently
        dropping the bound.  *brownout* is an optional
        :class:`~repro.core.overload.BrownoutController`.  Everything
        else matches :meth:`run_fleet`.
        """
        self._wire_fleet_contention(single_flight, capacity, batching)
        arrivals = (
            traffic.generate()
            if isinstance(traffic, TrafficGenerator)
            else list(traffic)
        )
        origin = self.clock.now()
        offers = []
        for arrival in arrivals:
            sub = submission_factory(arrival)
            if not isinstance(sub, FleetSubmission):
                sub = FleetSubmission(
                    plan=sub, tenant=arrival.tenant, tier=arrival.tier
                )
            offers.append(
                FleetOffer(
                    entry=self._prepare_entry(sub, journal),
                    arrival=origin + arrival.time,
                )
            )
        return self._schedule(
            lambda scheduler: scheduler.run_offers(offers),
            backend,
            max_inflight=max_inflight,
            max_backlog=max_backlog,
            admission=admission,
            brownout=brownout,
        )

    def _schedule(
        self,
        drive: Callable[[FleetScheduler], FleetResult],
        backend: "str | ExecutionBackend",
        **options: Any,
    ) -> FleetResult:
        """Shared tail of :meth:`run_fleet` / :meth:`run_traffic`: build a
        scheduler on a fresh timeline, *drive* it, close an owned backend."""
        engine = resolve_backend(backend)
        owns_backend = isinstance(backend, str) and engine is not SERIAL
        try:
            scheduler = FleetScheduler(
                VirtualTimeline(self.clock),
                self.clock,
                observability=self.observability,
                backend=engine,
                **options,
            )
            return drive(scheduler)
        finally:
            if owns_backend:
                engine.close()

    def _wire_fleet_contention(
        self,
        single_flight: bool,
        capacity: "ModelCapacity | dict[str, int] | None",
        batching: "bool | LLMBatcher" = False,
    ) -> None:
        if single_flight and self.catalog.single_flight is None:
            self.catalog.single_flight = SingleFlight()
        if capacity is not None:
            self.catalog.capacity = (
                capacity
                if isinstance(capacity, ModelCapacity)
                else ModelCapacity(dict(capacity))
            )
        if isinstance(batching, LLMBatcher):
            self.catalog.batcher = batching
        elif batching and self.catalog.batcher is None:
            self.catalog.batcher = LLMBatcher()

    def _prepare_entry(
        self, item: "TaskPlan | FleetSubmission", journal: bool
    ) -> FleetEntry:
        """One submission's session, coordinator, budget, and agents."""
        sub = (
            item if isinstance(item, FleetSubmission) else FleetSubmission(plan=item)
        )
        session = self.create_session()
        plan_journal = self.journal(session) if journal else None
        coordinator = TaskCoordinator(
            data_planner=self.data_planner, journal=plan_journal, parallel=True
        )
        budget = self.budget(sub.qos) if sub.qos is not None else None
        for agent in sub.agents:
            self.attach(agent, session, budget)
        self.attach(coordinator, session, budget)
        return FleetEntry(
            plan=sub.plan,
            coordinator=coordinator,
            budget=budget,
            tenant=sub.tenant,
            tier=sub.tier,
        )

    # ------------------------------------------------------------------
    # Crash recovery
    # ------------------------------------------------------------------
    def journal(
        self, session: Session, barrier_hook: Any = None
    ) -> WriteAheadJournal:
        """A write-ahead journal on *session*'s durable ``journal`` stream.

        Idempotent per session (the stream is ``ensure_stream``-ed), so a
        coordinator recreated after a crash journals onto the same stream
        the dead one wrote.
        """
        return WriteAheadJournal(
            self.store,
            session=session,
            barrier_hook=barrier_hook,
            metrics=self.observability.metrics,
        )

    def recovery_manager(
        self,
        session: Session,
        coordinator: Any = None,
        compensations: CompensationRegistry | None = None,
        journal: WriteAheadJournal | None = None,
    ) -> RecoveryManager:
        """A recovery manager over *session*'s journal.

        *coordinator* may be a live :class:`TaskCoordinator` or a
        zero-argument factory returning the current one (the supervisor
        pattern, where restarts replace the instance).
        """
        return RecoveryManager(
            journal or self.journal(session),
            coordinator=coordinator,
            compensations=compensations,
        )

    def agents_in(self, session: Session) -> list[Agent]:
        return list(self._attached.get(session.session_id, []))

    def close_session(self, session: Session) -> None:
        """Detach every agent attached through this runtime, then close."""
        for agent in self._attached.pop(session.session_id, []):
            if agent.context is not None:
                agent.detach()
        session.close()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def flow_trace(self) -> FlowTrace:
        return FlowTrace(self.store)

    def trace_export(self) -> str:
        """The canonical JSON artifact: span tree + metrics snapshot.

        When the opt-in reuse machinery is attached, its savings tallies
        ride along — notably the cache's *saved token* counts, which the
        zeroed usage on hits would otherwise hide from any throughput
        read of the artifact (charged usage is untouched; these are
        side-channel tallies).
        """
        report = self.observability.export_json()
        extras: dict[str, Any] = {}
        if self.catalog.cache is not None:
            stats = self.catalog.cache.stats()
            extras["llm_cache"] = {
                "hits": stats.hits,
                "misses": stats.misses,
                "entries": stats.entries,
                "saved_cost": stats.saved_cost,
                "saved_latency": stats.saved_latency,
                "saved_input_tokens": stats.saved_input_tokens,
                "saved_output_tokens": stats.saved_output_tokens,
            }
        if self.catalog.single_flight is not None:
            stats = self.catalog.single_flight.stats()
            extras["llm_single_flight"] = {
                "leaders": stats.leaders,
                "joins": stats.joins,
                "saved_cost": stats.saved_cost,
                "saved_latency": stats.saved_latency,
            }
        if self.catalog.batcher is not None:
            stats = self.catalog.batcher.stats()
            extras["llm_batching"] = {
                "windows": stats.batches,
                "joins": stats.joins,
                "peak_batch": stats.peak_batch,
                "saved_latency": stats.saved_latency,
                "attributed_cost": stats.attributed_cost,
            }
        if not extras:
            return report
        payload = json.loads(report)
        payload.update(extras)
        return json.dumps(payload, sort_keys=True, allow_nan=False, default=str)

    def describe(self) -> dict[str, Any]:
        """Component inventory (the Figure-1 architecture view)."""
        return {
            "components": {
                "clock": {"now": self.clock.now()},
                "streams": self.store.stats(),
                "model_catalog": {"models": self.catalog.names()},
                "agent_registry": {"entries": self.agent_registry.names()},
                "data_registry": {"entries": self.data_registry.names()},
                "sessions": {"active": self.sessions.active()},
                "task_planner": {"templates": [t.intent for t in self.task_planner.templates()]},
                "data_planner": {"planner_model": self.data_planner.planner_model},
                "optimizer": {"type": type(self.data_planner.optimizer).__name__},
                "agents": {
                    session_id: [agent.name for agent in agents]
                    for session_id, agents in self._attached.items()
                },
                "observability": {
                    "enabled": self.observability.enabled,
                    "spans": len(self.observability.tracer.spans()),
                    "metrics": len(self.observability.metrics.snapshot()),
                },
            },
            "usage": {
                "llm_calls": self.tracker.calls,
                "llm_cost": self.tracker.cost,
            },
        }
