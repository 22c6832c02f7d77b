"""Integration: the UI-form round trip and the rendering layer."""

import pytest

from repro.errors import SessionError
from repro.hr.apps import CareerAssistant

RUNNING_EXAMPLE = "I am looking for a data scientist position in SF bay area."


@pytest.fixture
def assistant():
    return CareerAssistant(seed=7)


class TestProfileFormRoundTrip:
    def test_form_emitted_during_ask(self, assistant):
        assistant.ask(RUNNING_EXAMPLE)
        form = assistant.latest_form()
        assert form is not None
        assert form["type"] == "form"
        field_values = {f["name"]: f["value"] for f in form["fields"]}
        assert field_values["title"] == "Data Scientist"

    def test_no_form_before_ask(self, assistant):
        with pytest.raises(SessionError):
            assistant.confirm_profile({})

    def test_confirm_with_edits_reruns_matching(self, assistant):
        assistant.ask(RUNNING_EXAMPLE)
        reply = assistant.confirm_profile({"location": "Oakland"})
        assert reply.matches
        # The confirmed location narrows matching toward Oakland/remote.
        assert any(
            m["city"] == "Oakland" or m.get("remote") for m in reply.matches
        )

    def test_confirm_publishes_tagged_event(self, assistant):
        assistant.ask(RUNNING_EXAMPLE)
        marker = len(assistant.blueprint.store.trace())
        assistant.confirm_profile({})
        events = [
            m for m in assistant.blueprint.store.trace()[marker:]
            if m.is_data and m.has_tag("PROFILE_CONFIRMED")
        ]
        assert len(events) == 1
        assert events[0].payload["type"] == "form_submission"

    def test_confirm_defaults_keep_extracted_profile(self, assistant):
        assistant.ask(RUNNING_EXAMPLE)
        reply = assistant.confirm_profile({})
        assert reply.matches  # same profile, matching still works


class TestAppRendering:
    def test_employer_app_renders_non_string_displays(self, enterprise):
        from repro.hr.apps import AgenticEmployerApp

        app = AgenticEmployerApp(enterprise=enterprise)
        # Force a dict payload through the display path.
        app.ae.emit("RESPONSE", {"type": "form", "title": "T", "fields": []}, tags=("DISPLAY",))
        reply = app._collect_display(app.blueprint.store.mark() - 1)
        assert "┌─ T ─" in reply
