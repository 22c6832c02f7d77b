"""Scenario I: the conversational career assistant (Section II-A).

Supports job seekers "in exploring companies and roles, conducting job
searches, and supporting their careers".  The running example —
"I am looking for a data scientist position in SF bay area." — flows
user stream -> TASK_PLANNER -> (PROFILER -> JOB_MATCHER -> PRESENTER)
under the TASK_COORDINATOR, with the JOB_MATCHER pulling jobs through the
data planner's decomposed Figure-7 plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ...core.coordinator import TaskCoordinator
from ...core.plan.task_plan import Binding, TaskPlan
from ...core.planners.task_planner import StepSpec, TaskPlannerAgent, TaskTemplate
from ...core.qos import QoSSpec
from ...core.rendering import submit_form
from ...core.runtime import Blueprint
from ...errors import SessionError
from ..agents import ExplainerAgent, JobMatcherAgent, PresenterAgent, ProfilerAgent
from ..data import Enterprise, build_enterprise
from ..matching import JobMatcher

JOB_SEARCH_TEMPLATE = TaskTemplate(
    intent="job_search",
    keywords=("looking for", "position", "job", "find", "searching", "openings", "role"),
    steps=(
        StepSpec("build a job seeker profile from search criteria"),
        StepSpec("match the job seeker profile with available job listings"),
        StepSpec("present matched jobs to the end user"),
    ),
    description="Find and present matching jobs for a seeker",
)

SKILL_ADVICE_TEMPLATE = TaskTemplate(
    intent="skill_advice",
    keywords=("skills", "what are the required", "learn", "become", "want to be"),
    steps=(
        StepSpec("build a job seeker profile from search criteria"),
    ),
    description="Advise on skills required for a role",
)


def _detect_location(text: str) -> str | None:
    """Gazetteer lookup of a region or city mention."""
    from ...llm.knowledge import REGION_CITIES

    lowered = text.lower()
    for region in REGION_CITIES:
        if region in lowered:
            return region
    for cities in REGION_CITIES.values():
        for city in cities:
            if city.lower() in lowered:
                return city
    return None


def _detect_title(text: str) -> str | None:
    """Gazetteer lookup of a known job-title mention."""
    from ..taxonomy import base_titles

    lowered = text.lower()
    for title in base_titles():
        if title.lower() in lowered:
            return title
    return None


@dataclass
class AssistantReply:
    """One answered request."""

    text: str
    matches: list[dict[str, Any]]
    plan_rendering: str
    budget_summary: dict[str, float]


class CareerAssistant:
    """The assembled Scenario-I application."""

    def __init__(
        self,
        enterprise: Enterprise | None = None,
        qos: QoSSpec | None = None,
        seed: int = 7,
    ) -> None:
        self.enterprise = enterprise or build_enterprise(seed)
        self.blueprint = Blueprint(data_registry=self.enterprise.registry)
        self.session = self.blueprint.create_session("career")
        self.budget = self.blueprint.budget(qos)
        # SQL issued on behalf of this session lands in the same trace.
        self.enterprise.database.observability = self.blueprint.observability
        self.blueprint.task_planner.register_template(JOB_SEARCH_TEMPLATE)
        self.blueprint.task_planner.register_template(SKILL_ADVICE_TEMPLATE)
        matcher = JobMatcher(self.enterprise.taxonomy)
        self.profiler = ProfilerAgent()
        self.job_matcher = JobMatcherAgent(
            matcher, data_planner=self.blueprint.data_planner
        )
        self.presenter = PresenterAgent()
        self.explainer = ExplainerAgent()
        for agent in (self.profiler, self.job_matcher, self.presenter, self.explainer):
            self.blueprint.attach(agent, self.session, self.budget)
        self.planner_agent: TaskPlannerAgent
        self.coordinator: TaskCoordinator
        self.planner_agent, self.coordinator = (
            self.blueprint.attach_planner_and_coordinator(self.session, self.budget)
        )
        self.user_stream = self.session.create_stream("user", tags=("USER",), creator="user")

    # ------------------------------------------------------------------
    # Event-driven entry point (the architecture's own flow)
    # ------------------------------------------------------------------
    def ask(self, text: str) -> AssistantReply:
        """Publish *text* on the user stream; the planner/coordinator react."""
        marker = self.blueprint.store.mark()
        self.blueprint.store.publish_data(
            self.user_stream.stream_id, text, tags=("USER",), producer="user"
        )
        return self._reply_since(marker)

    # ------------------------------------------------------------------
    # Direct entry point (explicit QoS per request)
    # ------------------------------------------------------------------
    def ask_with_qos(self, text: str, qos: QoSSpec) -> AssistantReply:
        """Plan and execute under a per-request budget.

        Every attached agent charges the request budget for this call
        (their contexts are temporarily pointed at it), so the coordinator
        polices the full spend, not just its own transformations.
        """
        marker = self.blueprint.store.mark()
        self.blueprint.store.publish_data(
            self.user_stream.stream_id, text, tags=(), producer="user"
        )
        plan = self.blueprint.task_planner.plan(text, self.user_stream.stream_id)
        budget = self.blueprint.budget(qos)
        agents = self.blueprint.agents_in(self.session)
        previous = [(agent, agent.context.budget) for agent in agents if agent.context]
        for agent, _ in previous:
            agent.context.budget = budget
        try:
            self.coordinator.execute_plan(plan, budget=budget)
        finally:
            for agent, old_budget in previous:
                agent.context.budget = old_budget
        reply = self._reply_since(marker)
        reply.budget_summary = budget.summary()
        return reply

    def _reply_since(self, marker: int) -> AssistantReply:
        display_text = ""
        matches: list[dict[str, Any]] = []
        plan_rendering = ""
        for message in self.blueprint.store.trace_since(marker):
            if not message.is_data:
                continue
            if message.has_tag("DISPLAY"):
                display_text = str(message.payload)
            if message.has_tag("MATCHES") and isinstance(message.payload, list):
                matches = message.payload
                self.session.scope.child("MATCHES").set("latest", matches)
            if message.has_tag("PROFILE") and isinstance(message.payload, dict):
                # Remember the profile in the session's PROFILE scope so
                # follow-up turns can refine it (Section V-E's scoping).
                self.session.scope.child("PROFILE").set("latest", message.payload)
            if message.has_tag("PLAN") and isinstance(message.payload, dict):
                nodes = message.payload.get("nodes", [])
                plan_rendering = " -> ".join(node["agent"] for node in nodes)
        return AssistantReply(
            text=display_text,
            matches=matches,
            plan_rendering=plan_rendering,
            budget_summary=self.budget.summary(),
        )

    # ------------------------------------------------------------------
    # Follow-up turns (session-scoped context, Section V-E)
    # ------------------------------------------------------------------
    def remembered_profile(self) -> dict[str, Any] | None:
        """The profile remembered in the session's PROFILE scope."""
        return self.session.scope.child("PROFILE").get("latest")

    def followup(self, text: str) -> AssistantReply:
        """Refine the previous search with a short follow-up turn.

        "what about Oakland?" reuses the remembered profile, overriding
        only what the follow-up mentions, then re-runs matching.
        """
        profile = self.remembered_profile()
        if profile is None:
            return self.ask(text)  # nothing to refine: treat as a fresh ask
        parsed = self.blueprint.data_planner.parse_request(text)
        refined = dict(profile)
        # LLM extraction with deterministic rule fallback: a small model may
        # miss a field the gazetteer clearly contains.
        title = parsed.get("title") or _detect_title(text)
        location = parsed.get("location") or _detect_location(text)
        if title:
            refined["title"] = title
        if location:
            refined["location"] = location
        criteria = f"{refined.get('title') or 'software engineer'} position"
        if refined.get("location"):
            criteria += f" in {refined['location']}"
        marker = self.blueprint.store.mark()
        plan = TaskPlan(f"followup-{marker}", goal=text)
        plan.add_step(
            "match", "JOB_MATCHER",
            {"PROFILE": Binding.const(refined), "CRITERIA": Binding.const(criteria)},
        )
        plan.add_step(
            "present", "PRESENTER", {"MATCHES": Binding.from_node("match", "MATCHES")}
        )
        self.coordinator.execute_plan(plan)
        self.session.scope.child("PROFILE").set("latest", refined)
        return self._reply_since(marker)

    # ------------------------------------------------------------------
    # The profile-form round trip (Section V-B's UI forms)
    # ------------------------------------------------------------------
    def latest_form(self) -> dict[str, Any] | None:
        """The most recent profile form the PROFILER emitted."""
        stream_id = self.session.stream_id("profiler:form")
        if not self.blueprint.store.has_stream(stream_id):
            return None
        payloads = self.blueprint.store.get_stream(stream_id).data_payloads()
        return payloads[-1] if payloads else None

    def confirm_profile(self, values: dict[str, Any]) -> AssistantReply:
        """Submit the profile form with user edits and re-run matching.

        The submission is published as a tagged event on the UI event
        stream; matching then runs on the confirmed profile through the
        coordinator (JOB_MATCHER -> PRESENTER).
        """
        form = self.latest_form()
        if form is None:
            raise SessionError("no profile form to confirm — ask() first")
        events = self.session.ensure_stream("ui_events", creator="user")
        marker = self.blueprint.store.mark()
        submission = submit_form(self.blueprint.store, events.stream_id, form, values)
        submitted = submission.payload["values"]
        profile = {
            "title": submitted.get("title"),
            "location": submitted.get("location"),
            "skills": [
                s.strip() for s in str(submitted.get("skills") or "").split(",") if s.strip()
            ],
        }
        criteria = f"{profile['title']} position"
        if profile["location"]:
            criteria += f" in {profile['location']}"
        plan = TaskPlan(f"confirmed-{submission.message_id}", goal=criteria)
        plan.add_step(
            "match", "JOB_MATCHER",
            {"PROFILE": Binding.const(profile), "CRITERIA": Binding.const(criteria)},
        )
        plan.add_step(
            "present", "PRESENTER", {"MATCHES": Binding.from_node("match", "MATCHES")}
        )
        self.coordinator.execute_plan(plan)
        return self._reply_since(marker)

    # ------------------------------------------------------------------
    # Explanations (the §III-A explanation module in the loop)
    # ------------------------------------------------------------------
    def explain_last(self) -> str:
        """Explain why the most recent matches fit the remembered profile."""
        matches = self.session.scope.child("MATCHES").get("latest")
        if not matches:
            return "Nothing to explain yet — search for jobs first."
        profile = self.remembered_profile() or {}
        plan = TaskPlan(f"explain-{self.blueprint.store.mark()}", goal="explain matches")
        plan.add_step(
            "explain", "EXPLAINER",
            {"MATCHES": Binding.const(matches), "PROFILE": Binding.const(profile)},
        )
        run = self.coordinator.execute_plan(plan)
        return str(run.final_outputs().get("EXPLANATIONS", ""))

    # ------------------------------------------------------------------
    # Knowledge questions ("what are the required skills?")
    # ------------------------------------------------------------------
    def advise_skills(self, title: str, qos: QoSSpec | None = None) -> list[str]:
        plan = self.blueprint.data_planner.plan_knowledge("skills", title, qos=qos)
        result = self.blueprint.data_planner.execute(plan, budget=self.budget)
        value = result.final()
        return value if isinstance(value, list) else [str(value)]
