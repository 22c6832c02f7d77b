"""Deterministic multi-plan scheduling over one shared virtual timeline.

The blueprint is an *enterprise* architecture — many users, many
concurrent sessions — but a single :class:`~repro.core.coordinator.
TaskCoordinator` drives one plan at a time, so N sessions' simulated
makespan is the **sum** of N critical paths.  The fleet scheduler
interleaves the wave steppers of up to ``max_inflight`` admitted plans
over one shared :class:`~repro.core.scheduler.VirtualTimeline`:

* **Round-robin stepping, one loop.**  Each round steps every unfinished
  in-flight plan one dependency wave, in admission order.  Execution
  stays single-threaded; concurrency is simulated-time concurrency (each
  node runs on its own timeline branch), so runs are deterministic — the
  same submission order produces byte-identical streams, journals, and
  charges every time.  A closed batch (:meth:`FleetScheduler.run`) is an
  open-loop run (:meth:`FleetScheduler.run_offers`) whose offers all
  arrive at the fleet origin behind a FIFO gate.

* **Admission control.**  At most ``max_inflight`` plans run at once;
  arrivals pass one gate — an :class:`~repro.core.overload.
  AdmissionController`, or a FIFO backlog ``max_backlog`` deep
  (unbounded when None) — that queues or refuses them, and a queued plan
  is admitted at the simulated instant the plan whose completion freed
  its slot ended.  Counters: ``fleet.admitted`` / ``fleet.queued`` /
  ``fleet.rejected``; per-plan admission waits feed the
  ``fleet.queue_wait`` histogram.

* **Shared contention.**  Because every plan's LLM calls reserve slots
  against the catalog's shared :class:`~repro.llm.ModelCapacity` and
  coalesce through its shared :class:`~repro.llm.SingleFlight`, the
  fleet's makespan approaches ``max(critical paths)`` plus queueing
  delay — the quantity ``benchmarks/bench_fleet.py`` measures against
  serial execution.

Crash semantics are the standalone run's: an exception unwinding out of a
step (a chaos kill) closes the dying plan's span with the error, leaves
other in-flight spans open (the process "crashed"), and the shared
timeline still commits — per-plan journals remain resumable through the
ordinary :class:`~repro.core.recovery.RecoveryManager` machinery.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace
from typing import Sequence, TYPE_CHECKING

from ...clock import SimClock
from ...observability.span import NOOP_SPAN
from ..budget import Budget
from ..coordinator import TaskCoordinator
from ..execution import PlanExecution, PlanRun
from ..engine import SERIAL, ExecutionBackend
from ..overload.admission import FifoAdmission
from ..plan.task_plan import TaskPlan
from ..qos import QoSSpec
from ..scheduler import VirtualTimeline

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...observability import Observability
    from ..agent import Agent
    from ..overload import AdmissionController, BrownoutController


@dataclass
class FleetSubmission:
    """One plan offered to :meth:`Blueprint.run_fleet`.

    *agents* are attached to the plan's dedicated session before the
    coordinator (every planned agent must be a session participant);
    *qos* builds the plan's budget (None = unmetered).  *tenant* /
    *tier* feed the overload control plane (rate limits, weighted-fair
    admission, shed eligibility); the defaults keep single-tenant runs
    unchanged.
    """

    plan: TaskPlan
    agents: Sequence["Agent"] = ()
    qos: QoSSpec | None = None
    tenant: str = "default"
    tier: int = 0


@dataclass
class FleetEntry:
    """A submission prepared for scheduling: plan + its session's driver."""

    plan: TaskPlan
    coordinator: TaskCoordinator
    budget: Budget | None = None
    tenant: str = "default"
    tier: int = 0


@dataclass
class FleetOffer:
    """One open-loop submission: an entry plus its arrival instant.

    ``arrival`` is absolute simulated time (at or after the shared
    timeline's origin) — normally the trace time of an
    :class:`~repro.core.overload.Arrival` shifted onto the clock.
    """

    entry: FleetEntry
    arrival: float


@dataclass
class FleetPlanResult:
    """Outcome of one submitted plan."""

    plan_id: str
    #: ``completed`` / ``failed`` / ``aborted`` (the run's status), or
    #: ``rejected`` when admission control never ran the plan.
    outcome: str
    run: PlanRun | None
    #: Simulated admission instant (None when rejected).
    admitted_at: float | None
    #: Simulated end of the plan's own critical path (None when rejected).
    finished_at: float | None
    #: Simulated seconds spent in the backlog before admission.
    queue_wait: float = 0.0
    #: Why admission refused the plan: ``backlog_full`` / ``rate_limited``
    #: / ``shed`` / ``deadline_expired`` (None unless ``rejected``).
    rejection_reason: str | None = None
    tenant: str = "default"
    tier: int = 0
    #: Open-loop arrival instant (equals ``admitted_at - queue_wait``
    #: for admitted plans; batch runs use the fleet origin).
    arrived_at: float | None = None


@dataclass
class FleetResult:
    """Aggregate outcome of one fleet run."""

    origin: float
    #: Simulated seconds from fleet start to the shared timeline horizon
    #: — ≈ max(per-plan critical paths) + contention, vs the serial sum.
    makespan: float
    plans: list[FleetPlanResult] = field(default_factory=list)
    admitted: int = 0
    queued: int = 0
    rejected: int = 0
    #: Rejections by typed reason (sums to ``rejected``).
    rejected_by: dict[str, int] = field(default_factory=dict)

    def completed(self) -> list[FleetPlanResult]:
        return [p for p in self.plans if p.outcome == "completed"]

    def runs(self) -> list[PlanRun]:
        return [p.run for p in self.plans if p.run is not None]

    def by_tier(self) -> dict[int, list[FleetPlanResult]]:
        tiers: dict[int, list[FleetPlanResult]] = {}
        for plan in self.plans:
            tiers.setdefault(plan.tier, []).append(plan)
        return {tier: tiers[tier] for tier in sorted(tiers)}


@dataclass(slots=True)
class _Active:
    """One in-flight plan: its entry, stepper, and admission bookkeeping."""

    index: int
    entry: FleetEntry
    execution: PlanExecution
    admitted_at: float
    arrived_at: float


class FleetScheduler:
    """Round-robins plan-wave steppers over a shared timeline.

    *admission* carries its own bounds: also passing *max_backlog* raises.
    """

    def __init__(
        self,
        timeline: VirtualTimeline,
        clock: SimClock,
        max_inflight: int = 4,
        max_backlog: int | None = None,
        observability: "Observability | None" = None,
        admission: "AdmissionController | FifoAdmission | None" = None,
        brownout: "BrownoutController | None" = None,
        backend: ExecutionBackend | None = None,
    ) -> None:
        if max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1: {max_inflight}")
        if max_backlog is not None and max_backlog < 0:
            raise ValueError(f"max_backlog must be >= 0: {max_backlog}")
        if admission is not None and max_backlog is not None:
            raise ValueError(
                "max_backlog bounds only the built-in FIFO gate: pass it or admission"
            )
        self._timeline = timeline
        self._clock = clock
        #: How in-flight plans' steps execute: the serial backend steps
        #: them in admission order on this thread (deterministic,
        #: byte-identical); a concurrent backend overlaps the round's
        #: steps on real threads.  Each round is still a barrier, so
        #: completion handling and backlog admission stay on this thread.
        self._backend: ExecutionBackend = backend if backend is not None else SERIAL
        self._max_inflight = max_inflight
        self._max_backlog = max_backlog
        self._observability = observability
        #: Open-loop admission gate (see :meth:`run_offers`); None builds
        #: a plain FIFO gate bounded by ``max_backlog`` — the pre-overload
        #: behavior, kept as the benchmark ablation.
        self._admission = admission
        #: Optional graceful-degradation state machine for open-loop runs.
        self._brownout = brownout
        # Admission accounting, pre-bound at wiring time: the unlabeled
        # queued/admitted counters become plain tallies pulled by a
        # collector (several schedulers on one registry sum on key
        # collision, matching the old always-accumulating counters), and
        # the queue-wait histogram is resolved once instead of per
        # admission.  Labeled rejection counters stay push-based — they
        # are cold and their label sets vary.
        self._queued_tally = 0
        self._admitted_tally = 0
        self._h_queue_wait = None
        if observability is not None and observability.metrics.enabled:
            metrics = observability.metrics
            self._h_queue_wait = metrics.histogram("fleet.queue_wait")
            metrics.register_collector(self._collect_metrics)

    def _collect_metrics(self, sink) -> None:
        # Never-incremented tallies stay out of the snapshot, exactly as
        # a never-touched counter never appeared.
        if self._queued_tally:
            sink.inc("fleet.queued", float(self._queued_tally))
        if self._admitted_tally:
            sink.inc("fleet.admitted", float(self._admitted_tally))

    def run(self, entries: Sequence[FleetEntry]) -> FleetResult:
        """Drive a closed batch to its outcomes; returns the aggregate result.

        A batch is an open-loop run whose offers all arrive at the origin
        behind a plain FIFO gate (no ``admission``, no ``brownout``).  The
        loop offers tied arrivals to the gate *before* it fills free slots,
        so the gate's bound is ``room = max_inflight + max_backlog`` — the
        slots free at the origin count as room — and exactly the first
        *room* submissions run; the rest are rejected ``backlog_full``.
        """
        origin, backlog = self._timeline.origin, self._max_backlog
        room = None if backlog is None else self._max_inflight + backlog
        offers = [FleetOffer(entry, arrival=origin) for entry in entries]
        return self._drive(offers, FifoAdmission(room), None, {})

    def run_offers(self, offers: Sequence[FleetOffer]) -> FleetResult:
        """Drive an open-loop arrival stream through tiered admission.

        Unlike :meth:`run` (a fixed batch, all present at the origin),
        offers land at their own simulated arrival instants and flow
        through the overload control plane:

        1. **Intake** — at each scheduling instant, arrivals up to that
           instant hit the admission gate: the brownout controller may
           shed sheddable tiers at the door, the tenant's token bucket
           may refuse (``rate_limited``), the backlog may be full
           (``backlog_full``); otherwise the offer queues.
        2. **Expiry** — queued entries whose tier deadline passed are
           quarantined on their session's dead-letter stream
           (``deadline_expired``) instead of running hopelessly stale.
        3. **Fill** — free slots drain the queues by weighted fairness;
           the brownout controller degrades each admitted plan (model
           downshift, optional-node pruning) per its current level.

        Scheduling instants are the fleet origin, every plan completion,
        and — whenever slots are free and nothing is queued — each next
        arrival itself, so free capacity never idles past offered work.
        Everything is deterministic: same offers, same decisions, same
        bytes.  With no admission controller configured the gate is the
        PR-5 FIFO backlog, which is exactly the naive ablation the
        overload benchmark measures against.
        """
        gate = self._admission
        if gate is None:
            gate = FifoAdmission(self._max_backlog)
        return self._drive(offers, gate, self._brownout, {"mode": "open-loop"})

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _drive(
        self,
        offers: Sequence[FleetOffer],
        gate: "AdmissionController | FifoAdmission",
        brownout: "BrownoutController | None",
        span_attrs: dict[str, str],
    ) -> FleetResult:
        """The one scheduling loop: intake → expire → fill → step → collect."""
        obs = self._observability
        metrics = (
            obs.metrics if obs is not None and obs.metrics.enabled else None
        )
        origin = self._timeline.origin
        results: dict[int, FleetPlanResult] = {}
        counts = {"admitted": 0, "queued": 0, "rejected": 0}
        rejected_by: dict[str, int] = {}
        pending: deque[tuple[int, FleetOffer]] = deque(
            sorted(enumerate(offers), key=lambda pair: (pair[1].arrival, pair[0]))
        )
        span = (
            obs.span(
                "fleet",
                kind="fleet",
                plans=len(offers),
                max_inflight=self._max_inflight,
                **span_attrs,
            )
            if obs is not None
            else NOOP_SPAN
        )
        with span:
            inflight: list[_Active] = []

            def reject(index: int, offer: FleetOffer, reason: str) -> None:
                counts["rejected"] += 1
                rejected_by[reason] = rejected_by.get(reason, 0) + 1
                if metrics is not None:
                    metrics.inc(
                        "fleet.rejected", reason=reason, tenant=offer.entry.tenant
                    )
                results[index] = FleetPlanResult(
                    plan_id=offer.entry.plan.plan_id,
                    outcome="rejected",
                    run=None,
                    admitted_at=None,
                    finished_at=None,
                    rejection_reason=reason,
                    tenant=offer.entry.tenant,
                    tier=offer.entry.tier,
                    arrived_at=offer.arrival,
                )

            def intake(upto: float) -> None:
                while pending and pending[0][1].arrival <= upto:
                    index, offer = pending.popleft()
                    entry = offer.entry
                    if brownout is not None and brownout.should_shed(
                        entry.tier, gate.sheddable(entry.tier)
                    ):
                        brownout.record_shed(
                            entry.plan.plan_id, entry.tenant, entry.tier, offer.arrival
                        )
                        reject(index, offer, "shed")
                        continue
                    verdict = gate.offer(
                        (index, offer), entry.tenant, entry.tier, offer.arrival
                    )
                    if verdict != gate.QUEUED:
                        reject(index, offer, verdict)

            def expire(at: float) -> None:
                for item, tenant, _tier, arrival in gate.expire(at):
                    index, offer = item
                    entry = offer.entry
                    # Park the stale plan on its session's dead-letter
                    # stream — replayable once pressure drains, exactly
                    # like a node that exhausted its retries.  Rebase
                    # first so the quarantine message is stamped at the
                    # expiry instant.
                    self._clock.rebase(at)
                    entry.coordinator.dead_letter_queue().quarantine(
                        plan=entry.plan.plan_id,
                        node="<backlog>",
                        agent="<fleet>",
                        inputs={"plan": entry.plan.to_payload()},
                        error=(
                            "queue deadline expired after waiting "
                            f"{at - arrival:.3f}s in the fleet backlog"
                        ),
                        error_type="QueueDeadlineExpired",
                        transient=True,
                    )
                    if metrics is not None:
                        metrics.inc("overload.expired", tenant=tenant)
                    reject(index, offer, "deadline_expired")

            def fill(at: float, held: int) -> None:
                while len(inflight) + held < self._max_inflight:
                    popped = gate.pop(at)
                    if popped is None:
                        return
                    (index, offer), _tenant, tier, arrival = popped
                    entry = offer.entry
                    start = max(at, arrival)
                    plan, actions = (
                        brownout.admit_plan(entry.plan, tier, start)
                        if brownout is not None
                        else (entry.plan, {})
                    )
                    if plan is not entry.plan:
                        entry = replace(entry, plan=plan)
                    if start > arrival:
                        counts["queued"] += 1
                        if metrics is not None:
                            self._queued_tally += 1
                    active = self._admit(index, entry, start, arrival, metrics, counts)
                    if actions:
                        plan_span = active.execution.span
                        plan_span.set_attribute("brownout_level", actions["level"])
                        if "downshifted" in actions:
                            plan_span.set_attribute(
                                "downshifted",
                                ",".join(
                                    f"{a}->{b}"
                                    for a, b in actions["downshifted"].items()
                                ),
                            )
                        if "pruned" in actions:
                            plan_span.set_attribute(
                                "pruned", ",".join(actions["pruned"])
                            )
                    inflight.append(active)

            def on_event(at: float, held: int = 0) -> None:
                # *held*: slots of this round's finishers whose own
                # completion instant has not been reached yet.
                intake(at)
                expire(at)
                if brownout is not None:
                    brownout.observe(gate.depth(), at)
                fill(at, held)

            on_event(origin)
            try:
                while inflight or pending or gate.depth():
                    if not inflight:
                        if pending:
                            # Idle fleet: jump to the next arrival.
                            on_event(pending[0][1].arrival)
                            continue
                        # Queued entries with every slot free should have
                        # drained via fill(); never spin on a stuck gate.
                        break
                    # Free slots never idle past offered work: with the
                    # queues empty, pull the next arrivals in at their own
                    # instants until the window fills.
                    while (
                        pending
                        and gate.depth() == 0
                        and len(inflight) < self._max_inflight
                    ):
                        on_event(pending[0][1].arrival)
                    # One round: every unfinished in-flight plan advances
                    # one wave.  The serial backend steps them in
                    # admission order (a crash — ``step()`` has closed the
                    # dying plan's span with the error — re-raises
                    # immediately); the thread backend overlaps them and
                    # re-raises after the round barrier.
                    self._backend.step_round(
                        [a.execution for a in inflight if not a.execution.finished]
                    )
                    # Single-pass partition, not a finished-scan plus
                    # per-item remove(): this runs once per wave, fleet-wide.
                    done: list[_Active] = []
                    still: list[_Active] = []
                    for a in inflight:
                        (done if a.execution.finished else still).append(a)
                    if done:
                        inflight[:] = still
                    # Free slots in simulated completion order (ties by
                    # admission index), each at its finisher's own end, so
                    # backlog admission times are deterministic and
                    # physically sensible.
                    done.sort(key=lambda a: (a.execution.plan_end, a.index))
                    for released, active in enumerate(done, start=1):
                        results[active.index] = self._result_of(active)
                        on_event(active.execution.plan_end, len(done) - released)
            finally:
                # Land the shared clock on the fleet's critical path —
                # idempotent and kill-safe, exactly like the plain
                # path's per-plan commit.
                self._timeline.commit()
            makespan = self._timeline.horizon - origin
            span.set_attribute("makespan", makespan)
            span.set_attribute("admitted", counts["admitted"])
            span.set_attribute("queued", counts["queued"])
            span.set_attribute("rejected", counts["rejected"])
            for reason in sorted(rejected_by):
                span.set_attribute(f"rejected_{reason}", rejected_by[reason])
            if brownout is not None:
                span.set_attribute("brownout_level", brownout.level)
                span.set_attribute(
                    "brownout_transitions", len(brownout.transitions)
                )
            return FleetResult(
                origin=origin,
                makespan=makespan,
                plans=[results[i] for i in sorted(results)],
                admitted=counts["admitted"],
                queued=counts["queued"],
                rejected=counts["rejected"],
                rejected_by=rejected_by,
            )

    def _admit(
        self,
        index: int,
        entry: FleetEntry,
        at: float,
        arrived_at: float,
        metrics,
        counts: dict[str, int],
    ) -> _Active:
        # Rebase to the admission instant so the journal's plan_started
        # stamp (and everything else admission touches) reads it — a
        # backlog plan starts when its slot freed, not wherever the last
        # branch left the clock.
        self._clock.rebase(at)
        execution = entry.coordinator.begin_plan(
            entry.plan,
            budget=entry.budget,
            timeline=self._timeline,
            start_at=at,
            backend=self._backend,
        )
        counts["admitted"] += 1
        if metrics is not None:
            self._admitted_tally += 1
            self._h_queue_wait.observe(at - arrived_at)
        return _Active(index, entry, execution, at, arrived_at)

    def _result_of(self, active: _Active) -> FleetPlanResult:
        run = active.execution.result
        return FleetPlanResult(
            plan_id=active.entry.plan.plan_id,
            outcome=run.status if run is not None else "failed",
            run=run,
            admitted_at=active.admitted_at,
            finished_at=active.execution.plan_end,
            queue_wait=active.admitted_at - active.arrived_at,
            tenant=active.entry.tenant,
            tier=active.entry.tier,
            arrived_at=active.arrived_at,
        )
