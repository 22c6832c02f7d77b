"""Renderers: turning stream payloads into user-facing output (Section V-B).

"Simple data types (e.g., strings) in streams use straightforward
renderers, while complex data like JSON employs interactive renderers
enabling browsing.  Agents can also generate UI forms ... specified
declaratively and displayed using UI renderers."

This module is that rendering layer, headless: each renderer turns a
payload into text a console/web front end would display.  Declarative form
specs render with their fields and wire a *submit tag*; submitting a form
publishes an event message carrying that tag (the event-stream round trip
of Figure 9).
"""

from __future__ import annotations

import json
from typing import Any, Mapping, Sequence

from ..streams import Message, StreamStore


class Renderer:
    """Base renderer: subclasses declare what they render and how."""

    def can_render(self, payload: Any) -> bool:
        raise NotImplementedError

    def render(self, payload: Any) -> str:
        raise NotImplementedError


class TextRenderer(Renderer):
    """Strings and scalars: rendered as-is."""

    def can_render(self, payload: Any) -> bool:
        return isinstance(payload, (str, int, float, bool)) or payload is None

    def render(self, payload: Any) -> str:
        return "" if payload is None else str(payload)


class FormRenderer(Renderer):
    """Declarative UI form specs (``{"type": "form", "fields": [...]}``)."""

    def can_render(self, payload: Any) -> bool:
        return isinstance(payload, Mapping) and payload.get("type") == "form"

    def render(self, payload: Any) -> str:
        lines = [f"┌─ {payload.get('title', 'Form')} ─"]
        for field in payload.get("fields", []):
            value = field.get("value")
            rendered_value = "" if value is None else str(value)
            lines.append(f"│ {field.get('label', field.get('name')):<16} [{rendered_value}]")
        lines.append(f"└─ submit -> tag {payload.get('submit_tag', 'SUBMIT')}")
        return "\n".join(lines)


class RowsRenderer(Renderer):
    """Row sets (lists of flat dicts): rendered as a fixed-width table."""

    def can_render(self, payload: Any) -> bool:
        return (
            isinstance(payload, Sequence)
            and not isinstance(payload, (str, bytes))
            and len(payload) > 0
            and all(isinstance(row, Mapping) for row in payload)
        )

    def render(self, payload: Any) -> str:
        rows = list(payload)
        columns: list[str] = []
        for row in rows:
            for key in row:
                if key not in columns:
                    columns.append(str(key))
        widths = {
            c: max(len(c), *(len(str(row.get(c, ""))) for row in rows)) for c in columns
        }
        header = "  ".join(c.ljust(widths[c]) for c in columns)
        divider = "  ".join("-" * widths[c] for c in columns)
        body = [
            "  ".join(str(row.get(c, "")).ljust(widths[c]) for c in columns)
            for row in rows
        ]
        return "\n".join([header, divider, *body])


class ChartRenderer(Renderer):
    """Two-column (label, number) row sets: rendered as a bar chart.

    The Figure-8 conversation shows visualizations alongside text; this is
    the console stand-in for aggregate query results like
    ``SELECT status, COUNT(*) ... GROUP BY status``.
    """

    MAX_BARS = 12
    BAR_WIDTH = 30

    def can_render(self, payload: Any) -> bool:
        if not (
            isinstance(payload, Sequence)
            and not isinstance(payload, (str, bytes))
            and 0 < len(payload) <= self.MAX_BARS
            and all(isinstance(row, Mapping) for row in payload)
        ):
            return False
        keys = list(payload[0].keys())
        if len(keys) != 2:
            return False
        label_key, value_key = keys
        return all(
            list(row.keys()) == keys
            and isinstance(row[value_key], (int, float))
            and not isinstance(row[value_key], bool)
            and row[value_key] >= 0
            for row in payload
        )

    def render(self, payload: Any) -> str:
        label_key, value_key = list(payload[0].keys())
        top = max(row[value_key] for row in payload) or 1
        width = max(len(str(row[label_key])) for row in payload)
        lines = []
        for row in payload:
            bar = "█" * max(1, int(round(self.BAR_WIDTH * row[value_key] / top)))
            lines.append(f"{str(row[label_key]).ljust(width)}  {bar} {row[value_key]}")
        return "\n".join(lines)


class JsonRenderer(Renderer):
    """Everything JSON-serializable: pretty-printed for browsing."""

    def can_render(self, payload: Any) -> bool:
        try:
            json.dumps(payload)
        except (TypeError, ValueError):
            return False
        return True

    def render(self, payload: Any) -> str:
        return json.dumps(payload, indent=2, default=str)


class RendererRegistry:
    """Ordered renderer chain: first renderer that accepts a payload wins."""

    def __init__(self, renderers: Sequence[Renderer] | None = None) -> None:
        if renderers is None:
            renderers = (
                TextRenderer(),
                FormRenderer(),
                ChartRenderer(),
                RowsRenderer(),
                JsonRenderer(),
            )
        self._renderers = list(renderers)

    def register(self, renderer: Renderer, first: bool = True) -> None:
        if first:
            self._renderers.insert(0, renderer)
        else:
            self._renderers.append(renderer)

    def render(self, payload: Any) -> str:
        for renderer in self._renderers:
            if renderer.can_render(payload):
                return renderer.render(payload)
        return repr(payload)


def submit_form(
    store: StreamStore,
    stream_id: str,
    form: Mapping[str, Any],
    values: Mapping[str, Any],
    producer: str = "user",
) -> Message:
    """Publish a form submission as an event message.

    The event carries the form's ``submit_tag`` so agents listening on the
    accompanying event stream react (Section V-E's form round trip).
    """
    submitted = {
        field["name"]: values.get(field["name"], field.get("value"))
        for field in form.get("fields", [])
    }
    return store.publish_data(
        stream_id,
        {"type": "form_submission", "form": form.get("title", ""), "values": submitted},
        tags=(form.get("submit_tag", "SUBMIT"), "UI_EVENT"),
        producer=producer,
    )
