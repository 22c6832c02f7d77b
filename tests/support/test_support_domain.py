"""Tests for the support-desk domain: the blueprint's generality proof."""

import pytest

from repro.support import (
    SupportAssistant,
    build_support_enterprise,
    generate_tickets,
)


@pytest.fixture(scope="module")
def desk():
    return SupportAssistant(seed=21)


class TestSupportEnterprise:
    def test_substrates_populated(self):
        enterprise = build_support_enterprise(seed=21, n_tickets=40)
        assert enterprise.database.execute(
            "SELECT COUNT(*) AS n FROM tickets"
        ).scalar() == 40
        assert len(enterprise.documents.collection("kb_articles")) == 9
        assert enterprise.products.node_count() > 4

    def test_registry_spans_modalities(self):
        enterprise = build_support_enterprise(seed=21)
        kinds = {e.kind for e in enterprise.registry.entries()}
        assert kinds == {"relational_table", "document_collection", "graph", "llm"}

    def test_kb_is_embedded(self):
        enterprise = build_support_enterprise(seed=21)
        index, field = enterprise.registry.vector_index("KB")
        assert field == "text"
        assert len(index) == 9

    def test_tickets_deterministic(self):
        import numpy as np

        a = generate_tickets(10, np.random.default_rng(4))
        b = generate_tickets(10, np.random.default_rng(4))
        assert a == b


class TestTriageFlow:
    def test_same_figure6_machinery_new_domain(self, desk):
        outcome = desk.handle(
            "Our SearchCloud query api is failing with 429 errors in production!"
        )
        assert outcome.plan_rendering == (
            "TICKET_CLASSIFIER -> KB_RETRIEVER -> RESPONSE_DRAFTER"
        )

    def test_product_and_severity_detected(self, desk):
        outcome = desk.handle(
            "MatchEngine scorer timeouts are causing a production outage"
        )
        assert outcome.triage["product"] == "MatchEngine"
        assert outcome.triage["severity"] == "critical"

    def test_retrieval_on_topic(self, desk):
        outcome = desk.handle("InsightBoard dashboard widgets render blank")
        titles = [a["title"] for a in outcome.articles]
        assert any("Dashboard widgets" in title for title in titles)

    def test_response_grounded_and_cited(self, desk):
        outcome = desk.handle("ProfileStore ingest job stuck in pending, help!")
        assert "References:" in outcome.response
        assert "ProfileStore" in outcome.response

    def test_critical_pages_oncall(self, desk):
        outcome = desk.handle("SearchCloud is down, critical production outage!")
        assert "on-call" in outcome.response

    def test_mild_ticket_not_critical(self, desk):
        outcome = desk.handle(
            "Minor question about InsightBoard exports, how do I enable them?"
        )
        assert outcome.triage["severity"] != "critical"

    def test_budget_charged_across_agents(self, desk):
        spent_before = desk.budget.spent_cost()
        desk.handle("MatchEngine feature store consistency warnings appearing")
        assert desk.budget.spent_cost() > spent_before
        sources = set(desk.budget.by_source())
        assert any("TICKET_CLASSIFIER" in s for s in sources)
        assert any("data-plan/vector_search" in s for s in sources)

    def test_backlog_summary_chartable(self, desk):
        from repro.core.rendering import ChartRenderer

        summary = desk.backlog_summary()
        assert summary
        assert ChartRenderer().can_render(summary)

    def test_unknown_product_still_answers(self, desk):
        outcome = desk.handle("Something is broken and I am sad about it")
        assert outcome.response  # graceful: retrieval still finds nearest runbook
