"""Tests for the rendering layer and form submissions."""

import pytest

from repro.core.rendering import (
    ChartRenderer,
    FormRenderer,
    JsonRenderer,
    RendererRegistry,
    RowsRenderer,
    TextRenderer,
    submit_form,
)


@pytest.fixture
def registry():
    return RendererRegistry()


FORM = {
    "type": "form",
    "title": "Confirm your profile",
    "fields": [
        {"name": "title", "label": "Desired title", "value": "Data Scientist"},
        {"name": "location", "label": "Location", "value": None},
    ],
    "submit_tag": "PROFILE_CONFIRMED",
}


class TestIndividualRenderers:
    def test_text_renderer(self):
        renderer = TextRenderer()
        assert renderer.can_render("hi")
        assert renderer.can_render(42)
        assert renderer.can_render(None)
        assert not renderer.can_render({"a": 1})
        assert renderer.render(None) == ""
        assert renderer.render(3.5) == "3.5"

    def test_form_renderer(self):
        renderer = FormRenderer()
        assert renderer.can_render(FORM)
        assert not renderer.can_render({"a": 1})
        text = renderer.render(FORM)
        assert "Confirm your profile" in text
        assert "[Data Scientist]" in text
        assert "PROFILE_CONFIRMED" in text

    def test_rows_renderer(self):
        renderer = RowsRenderer()
        rows = [{"id": 1, "city": "SF"}, {"id": 2, "city": "Oakland"}]
        assert renderer.can_render(rows)
        assert not renderer.can_render([])
        assert not renderer.can_render("text")
        table = renderer.render(rows)
        assert "id" in table.splitlines()[0]
        assert "Oakland" in table

    def test_rows_renderer_ragged_rows(self):
        renderer = RowsRenderer()
        table = renderer.render([{"a": 1}, {"a": 2, "b": "x"}])
        assert "b" in table.splitlines()[0]

    def test_chart_renderer_accepts_label_value_rows(self):
        renderer = ChartRenderer()
        rows = [{"status": "offer", "n": 4}, {"status": "rejected", "n": 2}]
        assert renderer.can_render(rows)
        chart = renderer.render(rows)
        lines = chart.splitlines()
        assert lines[0].startswith("offer")
        # The larger value gets the longer bar.
        assert lines[0].count("█") > lines[1].count("█")
        assert lines[0].endswith("4")

    def test_chart_renderer_rejects_non_chart_rows(self):
        renderer = ChartRenderer()
        assert not renderer.can_render([{"a": 1, "b": 2, "c": 3}])  # 3 columns
        assert not renderer.can_render([{"a": "x", "b": "y"}])      # non-numeric
        assert not renderer.can_render([{"a": "x", "b": -1}])       # negative
        assert not renderer.can_render([{"a": "x", "b": True}])     # boolean
        assert not renderer.can_render(
            [{"a": str(i), "b": i} for i in range(50)]               # too many bars
        )

    def test_registry_prefers_chart_over_table_for_aggregates(self, registry):
        rendered = registry.render([{"status": "offer", "n": 4}])
        assert "█" in rendered

    def test_json_renderer(self):
        renderer = JsonRenderer()
        assert renderer.can_render({"a": [1, 2]})
        assert not renderer.can_render(object())
        assert '"a"' in renderer.render({"a": 1})


class TestRegistry:
    def test_dispatch_order(self, registry):
        assert registry.render("plain") == "plain"
        assert "└─" in registry.render(FORM)
        assert registry.render([{"aaa": 1}]).splitlines()[1] == "---"
        assert registry.render({"k": "v"}).startswith("{")

    def test_fallback_repr(self, registry):
        rendered = registry.render(object())
        assert rendered.startswith("<object")

    def test_custom_renderer_priority(self, registry):
        class Stars(TextRenderer):
            def render(self, payload):
                return f"*{payload}*"

        registry.register(Stars())
        assert registry.render("x") == "*x*"


class TestFormSubmission:
    def test_submission_event_carries_tag_and_values(self, store):
        store.create_stream("events")
        message = submit_form(
            store, "events", FORM, {"location": "Oakland"}, producer="user"
        )
        assert message.has_tag("PROFILE_CONFIRMED")
        assert message.has_tag("UI_EVENT")
        assert message.payload["values"] == {
            "title": "Data Scientist",  # untouched default
            "location": "Oakland",      # user-supplied
        }

    def test_submission_triggers_listener(self, store):
        store.create_stream("events")
        received = []
        store.subscribe("listener", received.append, include_tags=["PROFILE_CONFIRMED"])
        submit_form(store, "events", FORM, {})
        assert len(received) == 1
