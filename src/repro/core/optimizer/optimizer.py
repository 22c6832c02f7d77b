"""Multi-objective plan optimization (Sections V-G/H).

Given a data plan whose operators carry alternative (source, model)
choices, the optimizer assigns one choice per operator such that the
plan-level profile — total cost, total latency, compound quality —
satisfies the QoS constraints, optimizing the QoS objective among the
feasible assignments.

Plan-level metrics compose per operator: cost and latency add (operators
execute sequentially in the reference executor) and quality multiplies
(each lossy step compounds).  The optimizer runs a dynamic program over
operators in topological order, carrying the Pareto frontier of partial
profiles and pruning dominated states; this is exact for these separable
metrics and fast for realistic plan sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...errors import OptimizationError
from ..plan.data_plan import DataPlan, OperatorChoice
from ..qos import QoSSpec
from .cost_model import CostModel, OpEstimate


@dataclass(frozen=True)
class PlanProfile:
    """Plan-level aggregate of per-operator estimates."""

    cost: float = 0.0
    latency: float = 0.0
    quality: float = 1.0

    def extend(self, estimate: OpEstimate) -> "PlanProfile":
        return PlanProfile(
            cost=self.cost + estimate.cost,
            latency=self.latency + estimate.latency,
            quality=self.quality * estimate.quality,
        )

    def dominates(self, other: "PlanProfile") -> bool:
        at_least = (
            self.cost <= other.cost
            and self.latency <= other.latency
            and self.quality >= other.quality
        )
        strictly = (
            self.cost < other.cost
            or self.latency < other.latency
            or self.quality > other.quality
        )
        return at_least and strictly


@dataclass(frozen=True)
class Assignment:
    """One full choice assignment with its plan profile."""

    choices: tuple[tuple[str, OperatorChoice], ...]  # (op_id, choice) in order
    profile: PlanProfile

    def choice_for(self, op_id: str) -> OperatorChoice | None:
        for assigned_id, choice in self.choices:
            if assigned_id == op_id:
                return choice
        return None


class PlanOptimizer:
    """Chooses operator configurations under QoS constraints."""

    #: Bound on the frontier kept after each operator.
    MAX_STATES = 256

    def __init__(self, cost_model: CostModel) -> None:
        self._cost_model = cost_model

    # ------------------------------------------------------------------
    # Frontier construction
    # ------------------------------------------------------------------
    def frontier(self, plan: DataPlan) -> list[Assignment]:
        """Pareto-optimal assignments over the whole plan."""
        states: list[Assignment] = [Assignment(choices=(), profile=PlanProfile())]
        for operator in plan.order():
            options = self._cost_model.estimates_for(operator)
            extended: list[Assignment] = []
            for state in states:
                for choice, estimate in options:
                    extended.append(
                        Assignment(
                            choices=state.choices + ((operator.op_id, choice),),
                            profile=state.profile.extend(estimate),
                        )
                    )
            states = self._prune(extended)
        return sorted(states, key=lambda a: (a.profile.cost, a.profile.latency))

    def _prune(self, states: list[Assignment]) -> list[Assignment]:
        """Keep the Pareto frontier (bounded by ``MAX_STATES`` for safety)."""
        frontier: list[Assignment] = []
        for candidate in sorted(
            states, key=lambda a: (a.profile.cost, a.profile.latency, -a.profile.quality)
        ):
            if any(kept.profile.dominates(candidate.profile) for kept in frontier):
                continue
            frontier = [
                kept for kept in frontier if not candidate.profile.dominates(kept.profile)
            ]
            frontier.append(candidate)
        if len(frontier) > self.MAX_STATES:
            # Keep a spread across the cost axis rather than truncating one end.
            frontier.sort(key=lambda a: a.profile.cost)
            step = len(frontier) / self.MAX_STATES
            frontier = [frontier[int(i * step)] for i in range(self.MAX_STATES)]
        return frontier

    # ------------------------------------------------------------------
    # Constrained choice
    # ------------------------------------------------------------------
    def optimize(self, plan: DataPlan, qos: QoSSpec | None = None) -> Assignment:
        """Pick the best feasible assignment and apply it to the plan.

        Raises:
            OptimizationError: when no assignment satisfies the QoS.
        """
        qos = qos or QoSSpec.unconstrained()
        feasible = [
            assignment
            for assignment in self.frontier(plan)
            if qos.admits(
                assignment.profile.cost,
                assignment.profile.latency,
                assignment.profile.quality,
            )
        ]
        if not feasible:
            raise OptimizationError(
                f"no feasible assignment for plan {plan.plan_id!r} under "
                f"cost<={qos.max_cost} latency<={qos.max_latency} "
                f"quality>={qos.min_quality}"
            )
        best = self._pick(feasible, qos.objective)
        self.apply(plan, best)
        return best

    @staticmethod
    def _pick(assignments: list[Assignment], objective: str) -> Assignment:
        if objective == "cost":
            return min(assignments, key=lambda a: (a.profile.cost, -a.profile.quality))
        if objective == "latency":
            return min(assignments, key=lambda a: (a.profile.latency, -a.profile.quality))
        return max(assignments, key=lambda a: (a.profile.quality, -a.profile.cost))

    @staticmethod
    def apply(plan: DataPlan, assignment: Assignment) -> None:
        """Write the assignment's choices onto the plan's operators."""
        for op_id, choice in assignment.choices:
            plan.operator(op_id).chosen = choice

    # ------------------------------------------------------------------
    # Projections
    # ------------------------------------------------------------------
    def project(self, plan: DataPlan, parallel: bool = False) -> PlanProfile:
        """Profile of the plan as currently configured (for budgets).

        With ``parallel=True`` latency is the DAG's critical path (an
        executor running independent operators concurrently) instead of
        the sequential sum; cost and quality are schedule-independent.
        """
        profile = PlanProfile()
        latencies: dict[str, float] = {}
        for operator in plan.order():
            estimate = self._cost_model.estimate(operator, operator.choice())
            latencies[operator.op_id] = estimate.latency
            profile = profile.extend(estimate)
        if parallel:
            profile = PlanProfile(
                cost=profile.cost,
                latency=plan.critical_path(latencies),
                quality=profile.quality,
            )
        return profile
