"""Reentrancy regression tests for ``StreamStore._dispatch``.

Subscriber callbacks run synchronously inside ``publish``, so a callback
can call back into the store — unsubscribing itself, unsubscribing a
peer, or adding a new subscription.  Dispatch snapshots its targets under
the lock, then re-checks ``active`` per delivery: a subscription removed
mid-dispatch must not be invoked, one added mid-dispatch must not see the
in-flight message, and the delivery count must track actual deliveries.
"""

import sys
import threading

from repro.clock import SimClock
from repro.streams import StreamStore

import pytest


@pytest.fixture
def store():
    return StreamStore(SimClock())


class TestDispatchReentrancy:
    def test_callback_unsubscribing_later_peer_skips_it(self, store):
        store.create_stream("s")
        seen = []

        def cb1(message):
            seen.append("cb1")
            store.unsubscribe(sub2.subscription_id)

        def cb2(message):
            seen.append("cb2")

        store.subscribe("first", cb1, stream_pattern="s")
        sub2 = store.subscribe("second", cb2, stream_pattern="s")
        store.publish_data("s", {"x": 1})
        assert seen == ["cb1"]
        assert store._delivery_count == 1

    def test_callback_unsubscribing_itself_is_safe(self, store):
        store.create_stream("s")
        seen = []

        def once(message):
            seen.append(message.payload)
            store.unsubscribe(sub.subscription_id)

        sub = store.subscribe("once", once, stream_pattern="s")
        store.publish_data("s", 1)
        store.publish_data("s", 2)
        assert seen == [1]

    def test_callback_subscribing_new_peer_defers_to_next_message(self, store):
        store.create_stream("s")
        late_seen = []

        def recruiter(message):
            if not any(
                s.subscriber == "late" for s in store.subscriptions()
            ):
                store.subscribe(
                    "late", lambda m: late_seen.append(m.payload),
                    stream_pattern="s",
                )

        store.subscribe("recruiter", recruiter, stream_pattern="s")
        store.publish_data("s", "first")
        assert late_seen == []  # subscribed mid-dispatch: misses the trigger
        store.publish_data("s", "second")
        assert late_seen == ["second"]

    def test_unsubscribe_then_resubscribe_inside_callback(self, store):
        store.create_stream("s")
        replacement_seen = []

        def swap(message):
            store.unsubscribe(sub.subscription_id)
            store.subscribe(
                "replacement",
                lambda m: replacement_seen.append(m.payload),
                stream_pattern="s",
            )

        sub = store.subscribe("swapper", swap, stream_pattern="s")
        store.publish_data("s", 1)
        store.publish_data("s", 2)
        store.publish_data("s", 3)
        # Swap ran once; replacement caught every message after the swap.
        assert replacement_seen == [2, 3]

    def test_delivery_count_tracks_actual_deliveries(self, store):
        store.create_stream("s")

        def killer(message):
            store.unsubscribe(victim.subscription_id)

        store.subscribe("killer", killer, stream_pattern="s")
        victim = store.subscribe("victim", lambda m: None, stream_pattern="s")
        store.publish_data("s", 1)
        # killer delivered, victim skipped: exactly one delivery counted.
        assert store._delivery_count == 1

    def test_dispatch_depth_is_per_thread(self, store):
        """N threads each one callback deep are depth 1, not depth N: the
        guard counts the calling thread's nesting, never its neighbours'."""
        store.max_dispatch_depth = 3
        n_threads = 8
        barrier = threading.Barrier(n_threads, timeout=10)
        errors = []
        for i in range(n_threads):
            store.create_stream(f"s{i}")
            # Park inside the callback until every thread is in one.
            store.subscribe(f"sub{i}", lambda m: barrier.wait(), stream_pattern=f"s{i}")

        def publish(i):
            try:
                store.publish_data(f"s{i}", i)
            except Exception as exc:  # noqa: BLE001 - reported via the assert below
                errors.append(exc)

        threads = [threading.Thread(target=publish, args=(i,)) for i in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert store._delivery_count == n_threads

    def test_depth_guard_still_trips_and_unwinds_on_one_thread(self, store):
        store.create_stream("s")
        store.max_dispatch_depth = 3
        store.subscribe("loop", lambda m: store.publish_data("s", m.payload + 1), stream_pattern="s")
        with pytest.raises(Exception, match=r"dispatch depth exceeded 3 \(agent loop\?\)"):
            store.publish_data("s", 0)
        # The counter unwound with the stack: a fresh publish nests from 1 again.
        with pytest.raises(Exception, match="dispatch depth exceeded"):
            store.publish_data("s", 0)
        assert len(store.trace()) == 8

    def test_route_memo_under_concurrent_table_churn(self, store):
        """Publishers on 8 threads race a thread that keeps subscribing and
        unsubscribing (clearing the memo each time): every publish still
        reaches its own stream's subscriber exactly once, in order."""
        n_threads, n_messages = 8, 300
        seen = {i: [] for i in range(n_threads)}
        for i in range(n_threads):
            store.create_stream(f"s{i}:out")
            store.subscribe(f"sub{i}", lambda m, i=i: seen[i].append(m.payload), stream_pattern=f"s{i}:*")
        stop = threading.Event()
        errors = []

        def guarded(work, *args):
            try:
                work(*args)
            except Exception as exc:  # noqa: BLE001 - reported via the assert below
                errors.append(exc)

        def publisher(i):
            for n in range(n_messages):
                store.publish_data(f"s{i}:out", n)

        def churn():
            while not stop.is_set():
                for pattern in ("s1:*", "s1:out", "s?:nothing", "zzz*"):
                    sub = store.subscribe("churn", lambda m: None, stream_pattern=pattern, data_only=True, exclude_tags=["never"])
                    store.unsubscribe(sub.subscription_id)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            churner = threading.Thread(target=guarded, args=(churn,))
            publishers = [threading.Thread(target=guarded, args=(publisher, i)) for i in range(n_threads)]
            churner.start()
            for thread in publishers:
                thread.start()
            for thread in publishers:
                thread.join(timeout=60)
            stop.set()
            churner.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not churner.is_alive() and not any(t.is_alive() for t in publishers)
        assert errors == []
        assert seen == {i: list(range(n_messages)) for i in range(n_threads)}
        assert store._keyed_routes.keys() == {3} and store._scanned_routes == {}
