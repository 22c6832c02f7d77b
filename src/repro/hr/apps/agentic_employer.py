"""Scenario II / Section VI: the Agentic Employer application.

Employers "sift through applicants to their job posts" conversationally.
This assembles the case-study agent fleet — AGENTIC_EMPLOYER (AE),
INTENT_CLASSIFIER (IC), NL2Q, SQL_EXECUTOR (QE), QUERY_SUMMARIZER (QS),
SUMMARIZER (S), and the TASK_COORDINATOR (TC) — wired purely through
streams and tags, and exposes the two interaction surfaces of Figure 8:

* :meth:`click_job` — a UI event (Figure 9's flow),
* :meth:`say` — a conversation turn (Figure 10's flow).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ...core.coordinator import TaskCoordinator
from ...core.qos import QoSSpec
from ...core.rendering import RendererRegistry
from ...core.runtime import Blueprint
from ..agents import (
    AgenticEmployerAgent,
    ClustererAgent,
    IntentClassifierAgent,
    NL2QAgent,
    QuerySummarizerAgent,
    SQLExecutorAgent,
    SummarizerAgent,
)
from ..data import Enterprise, build_enterprise


@dataclass
class Turn:
    """One conversation turn: who said what, and what was displayed."""

    role: str  # "user" | "ui" | "system"
    content: str


class AgenticEmployerApp:
    """The assembled Section-VI case-study application."""

    def __init__(
        self,
        enterprise: Enterprise | None = None,
        qos: QoSSpec | None = None,
        seed: int = 7,
    ) -> None:
        self.enterprise = enterprise or build_enterprise(seed)
        self.blueprint = Blueprint(data_registry=self.enterprise.registry)
        self.session = self.blueprint.create_session("employer")
        self.budget = self.blueprint.budget(qos)
        database = self.enterprise.database
        # SQL issued on behalf of this conversation lands in the same trace.
        database.observability = self.blueprint.observability
        self.ae = AgenticEmployerAgent(database=database)
        # Three-sample self-consistency voting: the cheap classifier's
        # occasional misroutes (~20%) would otherwise derail whole turns.
        self.ic = IntentClassifierAgent(ensemble=3)
        self.nl2q = NL2QAgent()
        self.qe = SQLExecutorAgent(database)
        self.qs = QuerySummarizerAgent()
        self.summarizer = SummarizerAgent(database)
        self.clusterer = ClustererAgent()
        self.coordinator = TaskCoordinator(data_planner=self.blueprint.data_planner)
        for agent in (
            self.ae, self.ic, self.nl2q, self.qe, self.qs, self.summarizer,
            self.clusterer, self.coordinator,
        ):
            self.blueprint.attach(agent, self.session, self.budget)
        self.conversation_stream = self.session.create_stream(
            "conversation", tags=("CONVERSATION",), creator="user"
        )
        self.ui_stream = self.session.create_stream("ui_events", tags=("UI",), creator="user")
        self.renderers = RendererRegistry()
        self._transcript: list[Turn] = []

    # ------------------------------------------------------------------
    # Interaction surfaces
    # ------------------------------------------------------------------
    def click_job(self, job_id: int) -> str:
        """Figure 9: a UI click selecting a job id."""
        marker = self.blueprint.store.mark()
        self._transcript.append(Turn("ui", f"[select job {job_id}]"))
        self.blueprint.store.publish_data(
            self.ui_stream.stream_id,
            {"type": "select_job", "job_id": job_id},
            tags=("UI_EVENT",),
            producer="user",
        )
        return self._collect_display(marker)

    def say(self, text: str) -> str:
        """Figure 10: a conversation turn."""
        marker = self.blueprint.store.mark()
        self._transcript.append(Turn("user", text))
        self.blueprint.store.publish_data(
            self.conversation_stream.stream_id, text, tags=("USER",), producer="user"
        )
        return self._collect_display(marker)

    def _collect_display(self, marker: int) -> str:
        displays = [
            self.renderers.render(message.payload)
            for message in self.blueprint.store.trace_since(marker)
            if message.is_data and message.has_tag("DISPLAY")
        ]
        reply = "\n".join(displays) if displays else "(no response)"
        self._transcript.append(Turn("system", reply))
        return reply

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def transcript(self) -> list[Turn]:
        return list(self._transcript)

    def render_conversation(self) -> str:
        """The Figure-8 view: the conversation as readable text."""
        lines = []
        for turn in self._transcript:
            prefix = {"user": "Employer", "ui": "UI", "system": "System"}[turn.role]
            lines.append(f"{prefix}: {turn.content}")
        return "\n".join(lines)

    @property
    def observability(self):
        """The conversation's tracer + metrics (`repro trace` reads this)."""
        return self.blueprint.observability

    def trace_export(self) -> str:
        """Canonical JSON span-tree + metrics artifact for this session."""
        return self.blueprint.trace_export()
