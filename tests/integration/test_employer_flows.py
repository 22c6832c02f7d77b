"""Integration: the Agentic Employer case study (Figures 8, 9, 10)."""

import pytest

from repro.hr.apps import AgenticEmployerApp
from repro.streams import Instruction


@pytest.fixture
def app(enterprise):
    return AgenticEmployerApp(enterprise=enterprise)


class TestFigure9UIFlow:
    """U clicks -> AE emits job id + plan -> TC unrolls -> S summarizes."""

    def test_display_produced(self, app):
        reply = app.click_job(1)
        assert "Job 1" in reply

    def test_step_sequence_matches_figure(self, app):
        marker = app.blueprint.store.mark()
        app.click_job(1)
        messages = app.blueprint.store.trace_since(marker)
        # Step 1: the user event enters a stream.
        assert messages[0].producer == "user"
        assert messages[0].has_tag("UI_EVENT")
        # Step 2: AE emits the job id and then the plan.
        ae_messages = [m for m in messages if m.producer == "AGENTIC_EMPLOYER" and m.is_data]
        assert ae_messages[0].payload == 1
        assert ae_messages[1].has_tag("PLAN")
        # Step 3: TC emits the control message to execute the Summarizer.
        controls = [
            m for m in messages
            if m.is_control and m.instruction() == Instruction.EXECUTE_AGENT
        ]
        assert controls[0].producer == "TASK_COORDINATOR"
        assert controls[0].payload["agent"] == "SUMMARIZER"
        # Step 4: the Summarizer produces the summary.
        summaries = [m for m in messages if m.producer == "SUMMARIZER" and m.is_data]
        assert len(summaries) == 1
        assert summaries[0].has_tag("DISPLAY")

    def test_actor_order(self, app):
        trace = app.blueprint.flow_trace()
        app.click_job(2)
        actors = trace.actors()
        assert actors.index("user") < actors.index("AGENTIC_EMPLOYER")
        assert actors.index("AGENTIC_EMPLOYER") < actors.index("TASK_COORDINATOR")
        assert actors.index("TASK_COORDINATOR") < actors.index("SUMMARIZER")


class TestFigure10ConversationFlow:
    """Text -> IC -> AE -> NL2Q -> QE -> QS, chained purely by tags."""

    QUERY = "how many applicants have python skills?"

    def test_display_produced(self, app):
        reply = app.say(self.QUERY)
        assert "row" in reply

    def test_chain_order(self, app):
        trace = app.blueprint.flow_trace()
        app.say(self.QUERY)
        actors = trace.actors()
        expected_order = [
            "user", "INTENT_CLASSIFIER", "AGENTIC_EMPLOYER",
            "NL2Q", "SQL_EXECUTOR", "QUERY_SUMMARIZER",
        ]
        positions = [actors.index(a) for a in expected_order]
        assert positions == sorted(positions)

    def test_tags_drive_the_chain(self, app):
        marker = app.blueprint.store.mark()
        app.say(self.QUERY)
        messages = app.blueprint.store.trace_since(marker)
        tags_seen = [tuple(sorted(m.tags)) for m in messages if m.is_data]
        flat = {t for tags in tags_seen for t in tags}
        assert {"USER", "INTENT", "NLQ", "SQL", "ROWS", "DISPLAY"} <= flat

    def test_sql_result_correct(self, app, enterprise):
        marker = app.blueprint.store.mark()
        app.say(self.QUERY)
        rows_messages = [
            m for m in app.blueprint.store.trace_since(marker)
            if m.is_data and m.has_tag("ROWS")
        ]
        count = rows_messages[0].payload[0]["n"]
        manual = sum(
            1 for row in enterprise.database.table("seekers").rows()
            if "python" in row["skills"]
        )
        assert count == manual

    def test_greeting_flow_short_circuits(self, app):
        reply = app.say("hello!")
        assert "Hello" in reply

    def test_ranked_query(self, app):
        reply = app.say("top candidates by experience")
        assert "row" in reply


class TestFigure8Conversation:
    def test_transcript_interleaves_turns(self, app):
        app.say("hello!")
        app.click_job(3)
        app.say("how many applicants are interviewing?")
        transcript = app.transcript()
        roles = [t.role for t in transcript]
        assert roles == ["user", "system", "ui", "system", "user", "system"]
        rendering = app.render_conversation()
        assert "Employer: hello!" in rendering
        assert "UI: [select job 3]" in rendering
        assert "System:" in rendering

    def test_budget_accumulates_across_turns(self, app):
        app.say("hello!")
        first = app.budget.spent_cost()
        app.say("how many applicants have sql skills?")
        assert app.budget.spent_cost() > first
