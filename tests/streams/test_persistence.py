"""Tests for stream export/replay persistence."""

import pytest

from repro.clock import SimClock
from repro.streams import (
    StreamStore,
    export_json,
    export_store,
    replay_json,
    replay_store,
)


@pytest.fixture
def store():
    store = StreamStore(SimClock())
    store.create_stream("chat", tags=("USER",), creator="app")
    store.clock.advance(1.5)
    store.publish_data("chat", "hello", tags=("USER",), producer="user",
                       metadata={"turn": 1})
    store.publish_control("chat", "EXECUTE_AGENT", producer="tc", agent="X")
    store.create_stream("out")
    store.publish_data("out", {"rows": [1, 2]}, producer="X")
    return store


class TestExport:
    def test_export_shape(self, store):
        snapshot = export_store(store)
        assert snapshot["clock"] == 1.5
        assert {s["stream_id"] for s in snapshot["streams"]} == {"chat", "out"}
        assert len(snapshot["messages"]) == 3

    def test_export_is_json_serializable(self, store):
        text = export_json(store)
        assert '"hello"' in text


class TestReplay:
    def test_replay_reconstructs_everything(self, store):
        replayed = replay_store(export_store(store))
        assert replayed.list_streams() == store.list_streams()
        assert len(replayed.trace()) == 3
        original = store.get_stream("chat").messages()
        restored = replayed.get_stream("chat").messages()
        assert [m.payload for m in restored] == [m.payload for m in original]
        assert [m.kind for m in restored] == [m.kind for m in original]
        assert restored[0].metadata["turn"] == 1
        assert restored[0].timestamp == 1.5
        # The archive answers the same queries as the live store.
        assert replayed.stats() == {**store.stats(), "subscriptions": 0}
        for message in store.trace():
            for tag in message.tags:
                assert len(replayed.trace_by_tag(tag)) == len(store.trace_by_tag(tag))
            assert len(replayed.trace_by_producer(message.producer)) == len(
                store.trace_by_producer(message.producer)
            )

    def test_replay_preserves_stream_tags(self, store):
        replayed = replay_store(export_store(store))
        assert "USER" in replayed.get_stream("chat").tags
        assert replayed.get_stream("chat").creator == "app"

    def test_replay_does_not_trigger_subscribers(self, store):
        snapshot = export_store(store)
        replayed = replay_store(snapshot)
        # New subscriptions on the replayed store see only *new* messages.
        got = []
        replayed.subscribe("late", got.append)
        assert got == []
        replayed.publish_data("chat", "new", producer="user")
        assert len(got) == 1

    def test_roundtrip_via_json(self, store):
        replayed = replay_json(export_json(store))
        assert len(replayed.trace()) == 3

    def test_replayed_clock_continues(self, store):
        replayed = replay_store(export_store(store))
        assert replayed.clock.now() == 1.5
        message = replayed.publish_data("chat", "x")
        assert message.timestamp == 1.5

    def test_app_trace_survives_roundtrip(self, enterprise):
        from repro.hr.apps import AgenticEmployerApp
        from repro.streams import FlowTrace

        app = AgenticEmployerApp(enterprise=enterprise)
        app.say("how many applicants have python skills?")
        replayed = replay_json(export_json(app.blueprint.store))
        # The archived flow can be analyzed exactly like the live one.
        actors = {m.producer for m in replayed.trace() if m.is_data}
        assert "NL2Q" in actors and "QUERY_SUMMARIZER" in actors
