"""Property-based tests for streams and the PetriNet gate."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import SimClock
from repro.core.triggering import InputGate
from repro.streams import StreamStore, TagRule


class TestStreamStoreProperties:
    @given(st.lists(st.integers(), max_size=50))
    @settings(max_examples=30, deadline=None)
    def test_history_preserves_order_and_content(self, payloads):
        store = StreamStore(SimClock())
        store.create_stream("s")
        for payload in payloads:
            store.publish_data("s", payload)
        assert store.get_stream("s").data_payloads() == payloads
        assert [m.payload for m in store.trace()] == payloads

    @given(st.lists(st.tuples(st.sampled_from(["s", "t"]), st.integers()), max_size=30))
    @settings(max_examples=30, deadline=None)
    def test_trace_since_is_the_tail_at_every_mark(self, publishes):
        store = StreamStore(SimClock())
        store.create_stream("s")
        store.create_stream("t")
        for stream_id, payload in publishes:
            assert store.mark() == store.stats()["messages"]
            store.publish_data(stream_id, payload)
        trace = store.trace()
        assert store.mark() == store.stats()["messages"] == len(publishes)
        for mark in range(len(trace) + 1):
            assert store.trace_since(mark) == trace[mark:]

    def test_window_holds_a_thread_s_own_publishes_in_order(self):
        store = StreamStore(SimClock())
        store.create_stream("s")
        start = threading.Barrier(8)

        def publish(worker: int) -> list:
            start.wait(timeout=30)
            mark = store.mark()
            for i in range(50):
                store.publish_data("s", i, producer=f"w{worker}")
            return store.trace_since(mark)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(publish, worker) for worker in range(8)]
                windows = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for worker, window in enumerate(windows):
            mine = [m.payload for m in window if m.producer == f"w{worker}"]
            assert mine == list(range(50))
        assert store.mark() == 8 * 50

    @given(
        st.lists(
            st.tuples(st.integers(), st.sampled_from(["A", "B", "C"])), max_size=50
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_subscription_receives_exactly_matching(self, items):
        store = StreamStore(SimClock())
        store.create_stream("s")
        got = []
        store.subscribe("sub", got.append, include_tags=["A"])
        for payload, tag in items:
            store.publish_data("s", payload, tags=[tag])
        expected = [payload for payload, tag in items if tag == "A"]
        assert [m.payload for m in got] == expected

    @given(
        st.sets(st.sampled_from("ABCDE")),
        st.sets(st.sampled_from("ABCDE")),
        st.sets(st.sampled_from("ABCDE")),
    )
    @settings(max_examples=60, deadline=None)
    def test_tag_rule_semantics(self, include, exclude, tags):
        rule = TagRule(frozenset(include), frozenset(exclude))
        expected = not (tags & exclude) and (not include or bool(tags & include))
        assert rule.matches(tags) == expected


class TestGateProperties:
    @given(st.lists(st.tuples(st.sampled_from(["A", "B"]), st.integers()), max_size=60))
    @settings(max_examples=40, deadline=None)
    def test_join_gate_conservation(self, offers):
        """Tokens are neither lost nor duplicated: fired + pending == offered."""
        gate = InputGate(["A", "B"])
        fired = []
        for place, token in offers:
            fired.extend(gate.offer(place, token))
        offered_a = [t for p, t in offers if p == "A"]
        offered_b = [t for p, t in offers if p == "B"]
        pending = gate.pending()
        assert len(fired) + pending["A"] == len(offered_a)
        assert len(fired) + pending["B"] == len(offered_b)
        # FIFO pairing: the i-th firing pairs the i-th A with the i-th B.
        for i, tuple_fired in enumerate(fired):
            assert tuple_fired == {"A": offered_a[i], "B": offered_b[i]}

    @given(st.lists(st.tuples(st.sampled_from(["A", "B", "C"]), st.integers()), max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_three_place_gate_fires_min_count(self, offers):
        gate = InputGate(["A", "B", "C"])
        fired = []
        for place, token in offers:
            fired.extend(gate.offer(place, token))
        counts = {p: sum(1 for q, _ in offers if q == p) for p in "ABC"}
        assert len(fired) == min(counts.values())
