"""The recovery manager: journal snapshot -> reconstructed execution.

Given a write-ahead journal (on the durable stream store that outlived
the crashed coordinator), the :class:`RecoveryManager`:

* finds **incomplete plans** — journaled ``plan_started`` with no terminal
  record,
* **reconstructs** each one's coordinator state: the plan DAG (journaled
  in full at start), the completed nodes' outputs, the charges already
  paid, and the QoS envelope,
* **resumes** execution through a live coordinator, which skips completed
  nodes outright and replays in-doubt nodes from their journaled effect
  records (exactly-once effects under at-least-once execution),
* or, when the plan is already past salvaging — its restored budget is
  violated on cost, latency, or quality — runs the registered **saga
  compensations** for its completed nodes in reverse order and closes the
  plan as ``compensated``.

Everything is observable: resumes run under ``recovery``-kind spans and
bump the ``recovery.resumed_plans`` / ``recovery.resumed_nodes`` /
``recovery.replayed_effects`` / ``recovery.compensations`` counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, TYPE_CHECKING

from ...errors import CoordinationError
from ..budget import Budget
from ..plan.task_plan import TaskPlan
from ..qos import QoSSpec
from .saga import CompensationRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...clock import SimClock
    from ..coordinator import TaskCoordinator
    from ..execution import PlanRun
    from .journal import WriteAheadJournal

#: The coordinator handle: an instance, or a factory returning the current
#: instance (a supervisor-restarted container respawns a fresh one).
CoordinatorSource = "TaskCoordinator | Callable[[], TaskCoordinator | None] | None"


@dataclass
class RecoveredPlan:
    """One plan's execution state reconstructed from the journal."""

    plan_id: str
    plan: TaskPlan | None = None
    goal: str = ""
    qos: dict[str, Any] | None = None
    started_at: float | None = None
    attempt: int = 0
    #: Outputs of nodes whose completion record made it to the journal.
    node_outputs: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: Completed node ids in completion order (the compensation order,
    #: reversed).
    executed: list[str] = field(default_factory=list)
    #: Journaled charges (ledger entries) already paid by this plan.
    charges: list[dict[str, Any]] = field(default_factory=list)
    #: Terminal status, or None while the plan is incomplete.
    terminal: str | None = None
    #: Node ids of journaled effect records (includes in-doubt nodes).
    effect_nodes: list[str] = field(default_factory=list)

    @property
    def incomplete(self) -> bool:
        return self.terminal is None and self.plan is not None

    def remaining_nodes(self) -> list[str]:
        """Plan nodes with no completion record, in execution order."""
        if self.plan is None:
            return []
        done = set(self.executed)
        return [n.node_id for n in self.plan.order() if n.node_id not in done]

    def describe(self) -> dict[str, Any]:
        return {
            "plan": self.plan_id,
            "goal": self.goal,
            "status": self.terminal or "incomplete",
            "nodes_total": len(self.plan) if self.plan is not None else 0,
            "nodes_completed": len(self.executed),
            "nodes_remaining": self.remaining_nodes(),
            "effects_recorded": len(self.effect_nodes),
            "cost_paid": round(sum(c.get("cost", 0.0) for c in self.charges), 6),
        }


class RecoveryManager:
    """Resumes (or compensates) journaled plans after a coordinator death."""

    def __init__(
        self,
        journal: "WriteAheadJournal",
        coordinator: CoordinatorSource = None,  # type: ignore[valid-type]
        compensations: CompensationRegistry | None = None,
    ) -> None:
        self.journal = journal
        self._coordinator = coordinator
        self.compensations = compensations or CompensationRegistry()

    # ------------------------------------------------------------------
    # Reconstruction
    # ------------------------------------------------------------------
    def snapshot(self, plan_id: str) -> RecoveredPlan:
        """Fold the journal into one plan's reconstructed state.

        A ``plan_started`` after a terminal record (a replan) resets the
        fold — the snapshot describes the *latest* execution attempt.
        """
        snap = RecoveredPlan(plan_id=plan_id)
        for entry in self.journal.iter_entries(plan_id):
            event = entry["event"]
            if event == "plan_started":
                snap = RecoveredPlan(
                    plan_id=plan_id,
                    plan=TaskPlan.from_payload(entry["payload"]),
                    goal=entry.get("goal", ""),
                    qos=entry.get("qos"),
                    attempt=int(entry.get("attempt", 0)),
                    started_at=(
                        float(entry["started_at"])
                        if entry.get("started_at") is not None
                        else None
                    ),
                )
            elif event == "node_completed":
                node = entry["node"]
                snap.node_outputs[node] = dict(entry.get("outputs") or {})
                if node not in snap.executed:
                    snap.executed.append(node)
            elif event == "effect":
                snap.charges.extend(entry.get("charges") or [])
                node = entry.get("node")
                if node and node not in snap.effect_nodes:
                    snap.effect_nodes.append(node)
            elif event == "plan_finished":
                snap.terminal = entry.get("status")
        return snap

    def incomplete_plans(self) -> list[str]:
        return self.journal.incomplete_plans()

    def has_incomplete(self) -> bool:
        return bool(self.incomplete_plans())

    def restore_budget(
        self, snap: RecoveredPlan, clock: "SimClock", metrics: Any = None
    ) -> Budget:
        """A fresh budget carrying everything the dead coordinator's one
        had: the journaled QoS envelope, every journaled charge, and the
        plan's original start time — replayed without advancing the clock
        (the clock is durable; its time already includes those charges)."""
        qos = QoSSpec(**snap.qos) if snap.qos else None
        budget = Budget(qos=qos, clock=clock, metrics=metrics)
        budget.restore(snap.charges, started_at=snap.started_at)
        return budget

    # ------------------------------------------------------------------
    # Resume
    # ------------------------------------------------------------------
    def _resolve_coordinator(
        self, coordinator: "TaskCoordinator | None"
    ) -> "TaskCoordinator | None":
        source = coordinator if coordinator is not None else self._coordinator
        if callable(source):
            source = source()
        return source

    def resume(
        self,
        plan_id: str,
        coordinator: "TaskCoordinator | None" = None,
        budget: Budget | None = None,
    ) -> "PlanRun | None":
        """Resume one incomplete plan through *coordinator*.

        Completed nodes are restored from the journal, not re-executed;
        in-doubt nodes replay their journaled effects; only genuinely
        unexecuted nodes are re-scheduled.  A plan whose restored budget
        is already violated is not resumed — its completed nodes are
        compensated (reverse order) and the plan closes ``compensated``.

        Returns the resumed :class:`~repro.core.execution.PlanRun`, or
        None when there was nothing to resume (unknown/terminal plan, no
        live coordinator) or the plan was abandoned to compensation.
        """
        coordinator = self._resolve_coordinator(coordinator)
        if coordinator is None or coordinator.context is None:
            return None
        context = coordinator.context
        snap = self.snapshot(plan_id)
        if not snap.incomplete:
            return None
        with context.span(
            f"recover:{plan_id}",
            kind="recovery",
            plan=plan_id,
            completed_nodes=len(snap.executed),
        ) as span:
            if budget is None:
                budget = context.budget or self.restore_budget(
                    snap, context.clock, metrics=context.metrics
                )
            violation = budget.violation()
            if violation is not None:
                span.set_attribute("abandoned", violation)
                compensated = self.compensate(snap, context)
                span.set_attribute("compensated_nodes", len(compensated))
                return None
            remaining = snap.remaining_nodes()
            span.set_attribute("resumed_nodes", len(remaining))
            context.metric_inc("recovery.resumed_plans")
            context.metric_inc("recovery.resumed_nodes", float(len(remaining)))
            run = coordinator.resume_plan(snap, budget=budget)
            span.set_attribute("status", run.status)
            if run.status != "completed":
                span.set_error(run.abort_reason or run.status)
            return run

    def resume_incomplete(
        self,
        coordinator: "TaskCoordinator | None" = None,
        budget: Budget | None = None,
    ) -> list["PlanRun"]:
        """Resume every incomplete journaled plan; returns the runs."""
        runs = []
        for plan_id in self.incomplete_plans():
            run = self.resume(plan_id, coordinator=coordinator, budget=budget)
            if run is not None:
                runs.append(run)
        return runs

    # ------------------------------------------------------------------
    # Saga compensation
    # ------------------------------------------------------------------
    def compensate(self, snap: RecoveredPlan, context: Any = None) -> list[str]:
        """Undo *snap*'s completed nodes in reverse completion order.

        Nodes whose agent has no registered compensation are skipped (an
        effect with no undo is, by definition, not compensable — the
        journal still closes the plan so it stops being re-examined).
        Returns the compensated node ids, in the order they were undone.
        """
        if snap.plan is None:
            raise CoordinationError(
                f"cannot compensate plan {snap.plan_id!r}: no journaled plan payload"
            )
        compensated: list[str] = []
        for node_id in reversed(snap.executed):
            node = snap.plan.node(node_id)
            fn = self.compensations.for_agent(node.agent)
            if fn is None:
                continue
            fn(snap.plan_id, node_id, snap.node_outputs.get(node_id, {}))
            self.journal.node_compensated(snap.plan_id, node_id, node.agent)
            if context is not None:
                context.metric_inc("recovery.compensations")
            compensated.append(node_id)
        self.journal.plan_finished(
            snap.plan_id,
            "compensated",
            reason=f"abandoned with {len(snap.executed)} completed nodes",
        )
        return compensated

    def describe(self) -> dict[str, Any]:
        return {
            "journal": self.journal.describe(),
            "incomplete": [
                self.snapshot(p).describe() for p in self.incomplete_plans()
            ],
            "compensations": self.compensations.agents(),
        }
