"""The task planner (Section V-F, Figure 6).

Interprets a user request and devises a task plan — a DAG of agent
invocations — using metadata from the agent registry to map sub-tasks to
suitable agents.  The planner is itself modeled as an agent
(:class:`TaskPlannerAgent`): it listens to the user stream and emits plans
into a plan stream for the coordinator.

Planning is template-and-retrieval based: applications register
:class:`TaskTemplate` playbooks (intent keywords plus a sequence of
sub-task descriptions); the planner classifies the utterance's intent —
via the LLM when a catalog is available, by keyword overlap otherwise —
then resolves each sub-task to a concrete agent with registry search and
wires parameters by name and type.  It supports the paper's planner
modes: one-shot (static), incremental (step at a time), interactive
(propose/revise), and adaptive (usage feedback boosts future retrieval).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Mapping

from ...errors import PlanningError
from ...ids import IdGenerator
from ...llm import ModelCatalog, prompts
from ..agent import Agent
from ..budget import Budget
from ..params import Parameter
from ..plan.task_plan import Binding, TaskNode, TaskPlan
from ..registries import AgentRegistry


@dataclass(frozen=True)
class StepSpec:
    """One sub-task in a template.

    ``bindings`` may pre-wire parameters; unwired parameters are resolved
    automatically (upstream outputs by name, then by type, then the user
    stream — with an extract transform when types disagree).
    """

    description: str
    bindings: Mapping[str, Binding] = field(default_factory=dict)
    agent: str | None = None  # pin a specific agent, bypassing search


@dataclass(frozen=True)
class TaskTemplate:
    """A playbook for one intent."""

    intent: str
    keywords: tuple[str, ...]
    steps: tuple[StepSpec, ...]
    description: str = ""

    def keyword_score(self, utterance: str) -> int:
        lowered = utterance.lower()
        return sum(1 for keyword in self.keywords if keyword in lowered)


class TaskPlanner:
    """Builds task plans from utterances, agents, and templates."""

    #: The model that classifies an utterance's intent.
    CLASSIFIER_MODEL = "mega-s"

    def __init__(self, registry: AgentRegistry, catalog: ModelCatalog | None = None) -> None:
        self.registry = registry
        self.catalog = catalog
        self._templates: dict[str, TaskTemplate] = {}
        self._ids = IdGenerator()

    # ------------------------------------------------------------------
    # Templates
    # ------------------------------------------------------------------
    def register_template(self, template: TaskTemplate) -> None:
        if template.intent in self._templates:
            raise PlanningError(f"template already registered: {template.intent!r}")
        self._templates[template.intent] = template

    def templates(self) -> list[TaskTemplate]:
        return [self._templates[i] for i in sorted(self._templates)]

    # ------------------------------------------------------------------
    # Intent classification
    # ------------------------------------------------------------------
    #: Estimated cost of one LLM classification; below this remaining
    #: budget the planner degrades to free keyword routing (the §VII
    #: "incorporate accrued budget into planners" hook).
    CLASSIFY_COST_ESTIMATE = 0.001

    def classify_intent(self, utterance: str, budget: "Budget | None" = None) -> str:
        """Pick a template intent for *utterance*.

        When a *budget* is given and nearly exhausted, the planner skips
        the paid LLM classification and routes by keywords alone.
        """
        if not self._templates:
            raise PlanningError("no task templates registered")
        intents = sorted(self._templates)
        keyword_best = max(
            self._templates.values(),
            key=lambda t: (t.keyword_score(utterance), t.intent),
        )
        if budget is not None and budget.remaining_cost() < self.CLASSIFY_COST_ESTIMATE:
            return keyword_best.intent
        if self.catalog is not None and len(intents) > 1:
            response = self.catalog.client(self.CLASSIFIER_MODEL).complete(
                prompts.classify(utterance, intents)
            )
            chosen = str(response.structured)
            if chosen in self._templates:
                # LLM-modulo verification: an LLM pick with zero keyword
                # support loses to a template the utterance clearly matches.
                if (
                    self._templates[chosen].keyword_score(utterance) == 0
                    and keyword_best.keyword_score(utterance) > 0
                ):
                    return keyword_best.intent
                return chosen
        return keyword_best.intent

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(
        self, utterance: str, user_stream: str, budget: "Budget | None" = None
    ) -> TaskPlan:
        """One-shot plan for *utterance*, reading input from *user_stream*."""
        intent = self.classify_intent(utterance, budget=budget)
        template = self._templates[intent]
        plan = TaskPlan(self._ids.next("plan"), goal=utterance)
        resolved: list[TaskNode] = []
        for position, step in enumerate(template.steps, start=1):
            agent_name = step.agent or self._resolve_agent(step.description)
            node = self._wire_step(
                plan_position=position,
                agent_name=agent_name,
                step=step,
                resolved=resolved,
                user_stream=user_stream,
            )
            plan.add(node)
            resolved.append(node)
        plan.validate(agent_names=set(self.registry.names()))
        for node in plan.nodes():
            self.registry.record_usage(node.agent)
        return plan

    def _resolve_agent(self, description: str) -> str:
        hits = self.registry.search(description, k=1, method="hybrid", kind="agent")
        if not hits:
            raise PlanningError(f"no agent found for sub-task {description!r}")
        return hits[0].entry.name

    def _wire_step(
        self,
        plan_position: int,
        agent_name: str,
        step: StepSpec,
        resolved: list[TaskNode],
        user_stream: str,
    ) -> TaskNode:
        entry = self.registry.get(agent_name)
        inputs = entry.metadata.get("inputs", [])
        bindings: dict[str, Binding] = dict(step.bindings)
        for param in inputs:
            name = param["name"]
            if name in bindings:
                continue
            required = param.get("required", True)
            binding = self._auto_bind(param, resolved, user_stream, required)
            if binding is not None:
                bindings[name] = binding
            elif required:
                raise PlanningError(
                    f"cannot bind required input {name!r} of agent {agent_name!r}"
                )
        return TaskNode(
            node_id=f"step{plan_position}",
            agent=agent_name,
            bindings=bindings,
            description=step.description,
        )

    def _auto_bind(
        self,
        param: Mapping[str, Any],
        resolved: list[TaskNode],
        user_stream: str,
        required: bool,
    ) -> Binding | None:
        name = param["name"]
        type_name = param.get("type", "text")
        # 1. Most recent upstream output with the same name.
        for node in reversed(resolved):
            for output in self.registry.get(node.agent).metadata.get("outputs", []):
                if output["name"] == name:
                    return Binding.from_node(node.node_id, name)
        # 2. Most recent upstream output with the same type.
        for node in reversed(resolved):
            for output in self.registry.get(node.agent).metadata.get("outputs", []):
                if output.get("type") == type_name:
                    return Binding.from_node(node.node_id, output["name"])
        # 3. Optional parameters with no upstream producer stay unbound —
        #    the agent's own logic supplies them (e.g. fetching JOBS itself).
        if not required:
            return None
        # 4. The user stream: direct for text, via extraction otherwise.
        if type_name == "text":
            return Binding.from_stream(user_stream)
        return Binding.from_stream(user_stream, transform=f"extract:{name.lower()}")

    # ------------------------------------------------------------------
    # Incremental / interactive / adaptive modes
    # ------------------------------------------------------------------
    def iter_steps(self, utterance: str, user_stream: str) -> Iterator[TaskNode]:
        """Incremental planning: yield plan nodes one at a time."""
        yield from self.plan(utterance, user_stream).order()

    def revise(
        self,
        plan: TaskPlan,
        remove: tuple[str, ...] = (),
        replace: Mapping[str, str] | None = None,
    ) -> TaskPlan:
        """Apply user feedback: drop nodes and/or swap agents.

        Downstream bindings onto a removed node fall back to the removed
        node's own primary source, keeping the plan connected.
        """
        replace = dict(replace or {})
        revised = TaskPlan(self._ids.next("plan"), goal=plan.goal)
        fallbacks: dict[str, Binding] = {}
        for node in plan.order():
            if node.node_id in remove:
                primary = next(iter(node.bindings.values()), None)
                if primary is not None:
                    fallbacks[node.node_id] = primary
                continue
            bindings: dict[str, Binding] = {}
            for param, binding in node.bindings.items():
                if binding.node in fallbacks:
                    bindings[param] = fallbacks[binding.node]
                else:
                    bindings[param] = binding
            revised.add(
                TaskNode(
                    node_id=node.node_id,
                    agent=replace.get(node.node_id, node.agent),
                    bindings=bindings,
                    description=node.description,
                )
            )
        revised.validate(agent_names=set(self.registry.names()))
        return revised

    def record_feedback(self, plan: TaskPlan, success: bool) -> None:
        """Adaptive planning: feed execution outcomes back into retrieval."""
        for node in plan.nodes():
            self.registry.record_usage(node.agent, success=success)


class TaskPlannerAgent(Agent):
    """The task planner wrapped as an agent (Section V-F).

    Listens to user text (tag ``USER``) and emits the planned DAG payload
    into its ``PLAN`` output stream, tagged ``PLAN`` for the coordinator.

    With ``interactive=True`` the planner is collaborative: it first emits
    a *proposal* (tagged ``PLAN_PROPOSAL``, with a rendering for the UI)
    and waits for a ``PLAN_APPROVAL`` message —
    ``{"plan_id": ..., "approve": true}`` releases the plan for execution;
    ``{"plan_id": ..., "approve": false, "remove": [...], "replace": {...}}``
    revises it and re-proposes.
    """

    name = "TASK_PLANNER"
    description = "Interprets user requests and devises task plans over registered agents"
    inputs = (
        Parameter("TEXT", "text", "the user utterance", required=False),
        Parameter("APPROVAL", "json", "a plan approval/revision decision", required=False),
    )
    outputs = (
        Parameter("PLAN", "plan", "a task plan DAG payload"),
        Parameter("PROPOSAL", "json", "a plan proposal awaiting approval", required=False),
    )
    listen_tags = ("USER", "PLAN_APPROVAL")
    tag_to_place = {"USER": "TEXT", "PLAN_APPROVAL": "APPROVAL"}
    gate_mode = "any"

    def __init__(
        self,
        planner: TaskPlanner,
        user_stream: str | None = None,
        interactive: bool = False,
        **kwargs: Any,
    ) -> None:
        super().__init__(**kwargs)
        self._planner = planner
        self._user_stream = user_stream
        self._interactive = interactive
        self._pending: dict[str, TaskPlan] = {}

    def processor(self, inputs: dict[str, Any]) -> dict[str, Any] | None:
        text = inputs.get("TEXT")
        approval = inputs.get("APPROVAL")
        if text is not None:
            return self._handle_text(str(text))
        if approval is not None:
            return self._handle_approval(approval)
        return None

    def _handle_text(self, text: str) -> dict[str, Any]:
        context = self._require_context()
        user_stream = self._user_stream or context.session.stream_id("user")
        plan = self._planner.plan(text, user_stream, budget=context.budget)
        if self._interactive:
            self._pending[plan.plan_id] = plan
            return {
                "PROPOSAL": {
                    "plan_id": plan.plan_id,
                    "goal": plan.goal,
                    "rendering": plan.render(),
                    "agents": [node.agent for node in plan.order()],
                }
            }
        return {"PLAN": plan.to_payload()}

    def _handle_approval(self, approval: dict[str, Any]) -> dict[str, Any] | None:
        plan_id = approval.get("plan_id")
        plan = self._pending.pop(plan_id, None)
        if plan is None:
            raise PlanningError(f"no pending plan proposal with id {plan_id!r}")
        if approval.get("approve", False):
            return {"PLAN": plan.to_payload()}
        revised = self._planner.revise(
            plan,
            remove=tuple(approval.get("remove", ())),
            replace=approval.get("replace"),
        )
        self._pending[revised.plan_id] = revised
        return {
            "PROPOSAL": {
                "plan_id": revised.plan_id,
                "goal": revised.goal,
                "rendering": revised.render(),
                "agents": [node.agent for node in revised.order()],
            }
        }

    def pending_proposals(self) -> list[str]:
        return sorted(self._pending)

    def output_tags(self, param: str) -> tuple[str, ...]:
        return ("PLAN",) if param == "PLAN" else ("PLAN_PROPOSAL",)
