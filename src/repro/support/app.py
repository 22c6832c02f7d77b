"""The assembled support assistant: the blueprint in a second domain.

The identical architecture components — task planner, coordinator,
registries, budgets — orchestrate a completely different workflow:
classify the ticket, retrieve runbooks, draft a grounded reply.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..core.planners.task_planner import StepSpec, TaskTemplate
from ..core.qos import QoSSpec
from ..core.runtime import Blueprint
from .agents import KBRetrieverAgent, ResponseDrafterAgent, TicketClassifierAgent
from .data import SupportEnterprise, build_support_enterprise

TRIAGE_TEMPLATE = TaskTemplate(
    intent="triage_ticket",
    keywords=("error", "issue", "broken", "down", "failing", "timeout", "help",
              "ticket", "problem", "blank", "stuck", "degraded", "outage"),
    steps=(
        StepSpec("classify the support ticket by product and severity"),
        StepSpec("find knowledge base articles relevant to the ticket"),
        StepSpec("draft a support response grounded in knowledge base articles"),
    ),
    description="Triage a support ticket end to end",
)


@dataclass
class TicketOutcome:
    """What the desk produced for one ticket."""

    response: str
    triage: dict[str, Any]
    articles: list[dict[str, Any]]
    plan_rendering: str


class SupportAssistant:
    """Scenario: the same blueprint, a support-desk enterprise."""

    def __init__(
        self,
        enterprise: SupportEnterprise | None = None,
        qos: QoSSpec | None = None,
        seed: int = 21,
    ) -> None:
        self.enterprise = enterprise or build_support_enterprise(seed)
        self.blueprint = Blueprint(data_registry=self.enterprise.registry)
        self.session = self.blueprint.create_session("support")
        self.budget = self.blueprint.budget(qos)
        self.blueprint.task_planner.register_template(TRIAGE_TEMPLATE)
        self.classifier = TicketClassifierAgent()
        self.retriever = KBRetrieverAgent(self.blueprint.data_planner)
        self.drafter = ResponseDrafterAgent()
        for agent in (self.classifier, self.retriever, self.drafter):
            self.blueprint.attach(agent, self.session, self.budget)
        self.ticket_stream = self.session.create_stream(
            "tickets", tags=("INBOX",), creator="customer"
        )
        self.planner_agent, self.coordinator = (
            self.blueprint.attach_planner_and_coordinator(
                self.session, self.budget, user_stream=self.ticket_stream.stream_id
            )
        )

    def handle(self, ticket_text: str) -> TicketOutcome:
        """Publish a ticket; the planner/coordinator drive the triage flow."""
        marker = self.blueprint.store.mark()
        self.blueprint.store.publish_data(
            self.ticket_stream.stream_id, ticket_text, tags=("USER",), producer="customer"
        )
        response = ""
        triage: dict[str, Any] = {}
        articles: list[dict[str, Any]] = []
        plan_rendering = ""
        for message in self.blueprint.store.trace_since(marker):
            if not message.is_data:
                continue
            if message.has_tag("DISPLAY"):
                response = str(message.payload)
            if message.has_tag("TRIAGE") and isinstance(message.payload, dict):
                triage = message.payload
            if message.has_tag("ARTICLES") and isinstance(message.payload, list):
                articles = message.payload
            if message.has_tag("PLAN") and isinstance(message.payload, dict):
                plan_rendering = " -> ".join(
                    node["agent"] for node in message.payload.get("nodes", [])
                )
        return TicketOutcome(
            response=response, triage=triage, articles=articles,
            plan_rendering=plan_rendering,
        )

    def backlog_summary(self) -> list[dict[str, Any]]:
        """Open-ticket counts per severity (a chart-renderable aggregate)."""
        return self.enterprise.database.query(
            "SELECT severity, COUNT(*) AS n FROM tickets "
            "WHERE status <> 'resolved' GROUP BY severity ORDER BY n DESC"
        )
