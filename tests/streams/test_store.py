"""Tests for the StreamStore: publish/subscribe/trace semantics."""

import threading

import pytest

from repro.clock import SimClock
from repro.errors import StreamError
from repro.streams import Instruction, MessageKind, StreamStore


@pytest.fixture
def store():
    return StreamStore(SimClock())


class TestStreamLifecycle:
    def test_create_named_stream(self, store):
        stream = store.create_stream("chat")
        assert stream.stream_id == "chat"
        assert store.has_stream("chat")

    def test_create_auto_named(self, store):
        stream = store.create_stream()
        assert stream.stream_id.startswith("stream-")

    def test_duplicate_rejected(self, store):
        store.create_stream("chat")
        with pytest.raises(StreamError):
            store.create_stream("chat")

    def test_get_unknown_raises(self, store):
        with pytest.raises(StreamError):
            store.get_stream("nope")

    def test_ensure_stream_idempotent(self, store):
        first = store.ensure_stream("x")
        second = store.ensure_stream("x")
        assert first is second

    def test_list_streams_sorted(self, store):
        store.create_stream("b")
        store.create_stream("a")
        assert store.list_streams() == ["a", "b"]


class TestPublish:
    def test_publish_appends_and_stamps(self, store):
        clock = store.clock
        store.create_stream("s")
        clock.advance(2.0)
        message = store.publish_data("s", "hello", producer="me")
        assert message.timestamp == 2.0
        assert message.producer == "me"
        assert store.get_stream("s").data_payloads() == ["hello"]

    def test_publish_control(self, store):
        store.create_stream("s")
        message = store.publish_control("s", Instruction.EXECUTE_AGENT, agent="A")
        assert message.is_control
        assert message.payload["agent"] == "A"

    def test_close_stream(self, store):
        store.create_stream("s")
        store.close_stream("s")
        assert store.get_stream("s").closed

    def test_publish_to_unknown_raises(self, store):
        with pytest.raises(StreamError):
            store.publish_data("nope", 1)

    def test_message_ids_unique_and_ordered(self, store):
        store.create_stream("s")
        ids = [store.publish_data("s", i).message_id for i in range(3)]
        assert ids == sorted(ids)
        assert len(set(ids)) == 3


class CountingLock:
    """A re-entrant lock that counts its acquisitions."""

    def __init__(self):
        self._lock = threading.RLock()
        self.acquisitions = 0

    def __enter__(self):
        self.acquisitions += 1
        return self._lock.__enter__()

    def __exit__(self, *exc_info):
        return self._lock.__exit__(*exc_info)


class TestOneCriticalSection:
    """A publish mints, persists, appends, logs and routes under one
    acquisition of the store lock; a stream has no lock of its own."""

    @pytest.fixture
    def counted(self):
        store = StreamStore(SimClock())
        store._lock = CountingLock()
        store.create_stream("s")
        return store

    def acquisitions(self, store, publish):
        before = store._lock.acquisitions
        publish()
        return store._lock.acquisitions - before

    def test_no_subscriber_publish_takes_the_lock_once(self, counted):
        assert not hasattr(counted.get_stream("s"), "_lock")
        publish = lambda: counted.publish_data("s", 1, tags=["T"], metadata={"node": "n"})
        assert self.acquisitions(counted, publish) == 1
        assert self.acquisitions(counted, publish) == 1  # route memo hit

    def test_a_delivering_publish_adds_one_for_the_tally(self, counted):
        seen = []
        counted.subscribe("watcher", seen.append, stream_pattern="s")
        assert self.acquisitions(counted, lambda: counted.publish_data("s", 1)) == 2
        assert len(seen) == 1 and counted._delivery_count == 1


class TestSubscriptions:
    def test_callback_receives_matching(self, store):
        store.create_stream("s")
        got = []
        store.subscribe("sub", got.append, include_tags=["X"])
        store.publish_data("s", 1, tags=["X"])
        store.publish_data("s", 2, tags=["Y"])
        assert [m.payload for m in got] == [1]

    def test_exclude_tags(self, store):
        store.create_stream("s")
        got = []
        store.subscribe("sub", got.append, include_tags=["X"], exclude_tags=["DRAFT"])
        store.publish_data("s", 1, tags=["X", "DRAFT"])
        store.publish_data("s", 2, tags=["X"])
        assert [m.payload for m in got] == [2]

    def test_stream_pattern(self, store):
        store.create_stream("sess1:a")
        store.create_stream("sess2:a")
        got = []
        store.subscribe("sub", got.append, stream_pattern="sess1:*")
        store.publish_data("sess1:a", 1)
        store.publish_data("sess2:a", 2)
        assert [m.payload for m in got] == [1]

    def test_control_only(self, store):
        store.create_stream("s")
        got = []
        store.subscribe("sub", got.append, control_only=True)
        store.publish_data("s", 1)
        store.publish_control("s", "X")
        assert len(got) == 1
        assert got[0].is_control

    def test_data_only(self, store):
        store.create_stream("s")
        got = []
        store.subscribe("sub", got.append, data_only=True)
        store.publish_control("s", "X")
        store.publish_data("s", 1)
        assert len(got) == 1
        assert got[0].is_data

    def test_unsubscribe(self, store):
        store.create_stream("s")
        got = []
        subscription = store.subscribe("sub", got.append)
        store.unsubscribe(subscription.subscription_id)
        store.publish_data("s", 1)
        assert got == []

    def test_nested_publish_is_depth_first(self, store):
        """A message published from inside a callback is fully delivered
        before the outer publish returns."""
        store.create_stream("a")
        store.create_stream("b")
        order = []

        def on_a(message):
            order.append(("a", message.payload))
            if message.payload == 1:
                store.publish_data("b", 99)

        def on_b(message):
            order.append(("b", message.payload))

        store.subscribe("on-a", on_a, stream_pattern="a")
        store.subscribe("on-b", on_b, stream_pattern="b")
        store.publish_data("a", 1)
        assert order == [("a", 1), ("b", 99)]

    def test_dispatch_depth_guard(self, store):
        store.create_stream("loop")
        store.max_dispatch_depth = 10

        def echo(message):
            store.publish_data("loop", message.payload + 1)

        store.subscribe("echo", echo, stream_pattern="loop")
        with pytest.raises(StreamError, match="depth"):
            store.publish_data("loop", 0)


class TestObservability:
    def test_trace_records_everything(self, store):
        store.create_stream("a")
        store.create_stream("b")
        store.publish_data("a", 1)
        store.publish_control("b", "X")
        assert len(store.trace()) == 2

    def test_trace_since_reads_the_tail_from_a_mark(self, store):
        store.create_stream("s")
        assert store.mark() == 0
        store.publish_data("s", 1)
        mark = store.mark()
        store.publish_data("s", 2)
        store.publish_control("s", "X")
        assert [m.payload for m in store.trace_since(mark)] == [2, {"instruction": "X"}]
        assert store.trace_since(store.mark()) == []
        assert store.trace_since(0) == store.trace()

    def test_trace_since_negative_mark_rejected(self, store):
        store.create_stream("s")
        store.publish_data("s", 1)
        with pytest.raises(ValueError):
            store.trace_since(-1)

    def test_trace_by_tag_and_producer(self, store):
        store.create_stream("s")
        store.publish_data("s", 1, tags=["T"], producer="p1")
        store.publish_data("s", 2, producer="p2")
        assert len(store.trace_by_tag("T")) == 1
        assert len(store.trace_by_producer("p2")) == 1

    def test_stats(self, store):
        store.create_stream("s")
        store.publish_data("s", 1)
        store.publish_control("s", "X")
        stats = store.stats()
        assert stats["streams"] == 1
        assert stats["messages"] == 2
        assert stats["by_kind"] == {"data": 1, "control": 1}

    def test_stats_by_kind_equals_trace_recount(self, store):
        store.create_stream("s")
        for i in range(7):
            store.publish_data("s", i)
            if i % 3 == 0:
                store.publish_control("s", "X")
        store.close_stream("s")
        recount = {}
        for message in store.trace():
            recount[message.kind.value] = recount.get(message.kind.value, 0) + 1
        stats = store.stats()
        assert stats["by_kind"] == recount
        assert stats["messages"] == len(store.trace())
        stats["by_kind"]["data"] = 0  # a copy: callers cannot corrupt the tallies
        assert store.stats()["by_kind"] == recount
