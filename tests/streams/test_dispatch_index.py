"""Regression tests for routed dispatch and incremental trace indexes.

The store finds a publish's subscribers through a route table (compiled
stream patterns, keyed by literal / prefix, memoized per ``(stream, tags,
kind)``) and answers trace queries from per-tag and per-producer indexes
built at publish time.  These tests prove both yield *identical* results
to the reference linear scans they replaced — same targets, same
delivery order — however subscribes, unsubscribes and publishes interleave.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import SimClock
from repro.streams import Instruction, Message, MessageKind, StreamStore, control_payload


@pytest.fixture
def store():
    return StreamStore(SimClock())


def scan_targets(store, message):
    """The pre-index reference: linear scan in subscription order."""
    return [s for s in store.subscriptions() if s.wants(message)]


class TestDispatchIndexEquivalence:
    def make_subscribers(self, store, log):
        """A spread of subscription shapes across every index bucket."""
        def recorder(name):
            return lambda message: log.append((name, message.message_id))

        store.subscribe("exact-a", recorder("exact-a"), stream_pattern="a")
        store.subscribe("glob-tag", recorder("glob-tag"), include_tags=["SQL"])
        store.subscribe("catch-all", recorder("catch-all"))
        store.subscribe("exact-b", recorder("exact-b"), stream_pattern="b")
        store.subscribe(
            "glob-prefix", recorder("glob-prefix"), stream_pattern="a*"
        )
        store.subscribe(
            "glob-excl",
            recorder("glob-excl"),
            include_tags=["SQL", "DOC"],
            exclude_tags=["DRAFT"],
        )

    def test_targets_match_linear_scan(self, store):
        log = []
        self.make_subscribers(store, log)
        for sid in ("a", "b", "ab"):
            store.create_stream(sid)
        cases = [
            ("a", []),
            ("a", ["SQL"]),
            ("b", ["DOC"]),
            ("ab", ["SQL", "DRAFT"]),
            ("ab", []),
            ("b", ["SQL", "DOC"]),
        ]
        for stream_id, tags in cases:
            message = store.publish_data(stream_id, "x", tags=tags)
            expected = [s.subscriber for s in scan_targets(store, message)]
            delivered = [name for name, mid in log if mid == message.message_id]
            assert delivered == expected, (stream_id, tags)

    def test_multi_tag_candidate_delivered_once(self, store):
        store.create_stream("s")
        hits = []
        store.subscribe("both", hits.append, include_tags=["A", "B"])
        store.publish_data("s", 1, tags=["A", "B"])
        assert len(hits) == 1

    def test_delivery_order_is_subscription_order(self, store):
        store.create_stream("s")
        order = []
        # Interleave bucket kinds so a bucket-by-bucket walk would differ.
        store.subscribe("w1", lambda m: order.append("w1"))
        store.subscribe("e1", lambda m: order.append("e1"), stream_pattern="s")
        store.subscribe("t1", lambda m: order.append("t1"), include_tags=["T"])
        store.subscribe("e2", lambda m: order.append("e2"), stream_pattern="s")
        store.subscribe("w2", lambda m: order.append("w2"))
        store.publish_data("s", 1, tags=["T"])
        assert order == ["w1", "e1", "t1", "e2", "w2"]

    def test_unsubscribe_cleans_every_bucket(self, store):
        store.create_stream("s")
        hits = []
        shapes = [
            {"stream_pattern": "s"},
            {"stream_pattern": "s*"},
            {"stream_pattern": "?"},
            {"include_tags": ["T"]},
            {},
        ]
        subs = [store.subscribe("x", hits.append, **shape) for shape in shapes]
        store.publish_data("s", 1, tags=["T"])  # fills the memo
        assert len(hits) == len(shapes)
        for sub in subs:
            store.unsubscribe(sub.subscription_id)
        assert store._keyed_routes == {}
        assert store._scanned_routes == {}
        assert store._sub_order == {}
        assert store._route_memo == {}
        del hits[:]
        store.publish_data("s", 2, tags=["T"])
        assert hits == []
        # Cleared-then-reused patterns route again, in the new subscribe order.
        order = []
        store.subscribe("prefix", lambda m: order.append("prefix"), stream_pattern="s*")
        store.subscribe("literal", lambda m: order.append("literal"), stream_pattern="s")
        store.publish_data("s", 3, tags=["T"])
        assert order == ["prefix", "literal"]

    def test_overlapping_prefixes_of_different_lengths(self, store):
        hits = []
        for pattern in ("s-1:*", "s-10:*", "s-1*", "s-1:out"):
            store.subscribe(
                pattern, (lambda p: lambda m: hits.append((p, m.stream_id)))(pattern),
                stream_pattern=pattern,
            )
        expected = {
            "s-1:out": ["s-1:*", "s-1*", "s-1:out"],
            "s-10:out": ["s-10:*", "s-1*"],
            "s-1": ["s-1*"],
            "s-100:out": ["s-1*"],
            "s-2:out": [],
            "s-": [],
        }
        for stream_id in expected:
            store.create_stream(stream_id)
            store.publish_data(stream_id, 0)
        for stream_id, patterns in expected.items():
            assert [p for p, sid in hits if sid == stream_id] == patterns, stream_id

    def test_randomized_equivalence(self, store):
        rng = random.Random(7)
        streams = ["alpha", "beta", "gamma/one", "gamma/two"]
        tags = ["SQL", "DOC", "IMG", "DRAFT"]
        for sid in streams:
            store.create_stream(sid)
        log = []
        for i in range(40):
            pattern = rng.choice(streams + ["*", "gamma/*", "?lpha", "*a"])
            include = rng.sample(tags, rng.randint(0, 2))
            exclude = rng.sample(tags, rng.randint(0, 1))
            store.subscribe(
                f"sub{i}",
                (lambda name: lambda m: log.append((name, m.message_id)))(f"sub{i}"),
                stream_pattern=pattern,
                include_tags=include,
                exclude_tags=exclude,
            )
        for _ in range(60):
            message = store.publish_data(
                rng.choice(streams), "x", tags=rng.sample(tags, rng.randint(0, 3))
            )
            expected = [s.subscriber for s in scan_targets(store, message)]
            delivered = [n for n, mid in log if mid == message.message_id]
            assert delivered == expected


PATTERNS = ["ab", "abc", "b", "a*", "ab*", "*", "a?c", "[ab]*", "a*c", "x*y"]
STREAMS = ["ab", "abc", "acc", "b", "x-y"]
AGENTS = ["A", "B"]
tag_sets = st.frozensets(st.sampled_from(["T", "U"]))
index = st.integers(min_value=0, max_value=63)
subscribe_op = st.tuples(
    st.just("subscribe"),
    st.sampled_from(PATTERNS),
    tag_sets,
    tag_sets,
    st.sampled_from([(False, False), (True, False), (False, True)]),
    # An addressed subscription, as ``Agent.attach`` makes for activation.
    st.sampled_from([None, None] + AGENTS),
)
# Payloads that name a drawn agent. Only an EXECUTE_AGENT on a control
# message has an addressee; ENTER_SESSION and AGENT_ERROR name an agent
# without addressing it.
payloads = st.one_of(
    st.none(),
    st.builds(
        lambda instruction, agent: control_payload(instruction, agent=agent),
        st.sampled_from([Instruction.EXECUTE_AGENT, Instruction.ENTER_SESSION, "AGENT_ERROR"]),
        st.sampled_from(AGENTS + ["C"]),
    ),
)
route_ops = st.lists(
    st.one_of(
        subscribe_op,
        st.tuples(st.just("unsubscribe"), index),
        # Arm one live subscription to mutate the table from inside its
        # next callback: clone itself, or unsubscribe some live peer/itself.
        st.tuples(st.just("arm"), index, st.sampled_from(["clone", "unsubscribe"]), index),
        # A burst published with the table untouched in between, so memo
        # entries of one stream under different tags / kinds sit side by side.
        st.tuples(
            st.just("publish"),
            st.lists(
                st.tuples(
                    st.sampled_from(STREAMS),
                    tag_sets,
                    # EOS closes its stream for the rest of the example: keep it rare.
                    st.sampled_from([MessageKind.DATA] * 3 + [MessageKind.CONTROL] * 3 + [MessageKind.EOS]),
                    payloads,
                ),
                min_size=1,
                max_size=4,
            ),
        ),
        # Control messages on one stream under one tag set, so memo entries
        # that differ only in their addressee sit side by side.
        st.tuples(
            st.just("publish"),
            st.builds(
                lambda stream_id, tags, drawn: [
                    (stream_id, tags, MessageKind.CONTROL, payload) for payload in drawn
                ],
                st.sampled_from(STREAMS),
                tag_sets,
                st.lists(payloads, min_size=2, max_size=4),
            ),
        ),
    ),
    max_size=40,
)


class TestRouteTableProperty:
    """Any interleaving of subscribe / unsubscribe / publish — including
    table changes made *inside* a callback — delivers exactly what the
    linear ``wants()`` scan of the table would, in subscribe order."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(subscribe_op, min_size=6, max_size=12), route_ops)
    def test_any_interleaving_matches_linear_scan(self, initial, ops):
        store = StreamStore(SimClock())
        for stream_id in STREAMS:
            store.create_stream(stream_id)
        log, armed = [], {}

        def subscribe(**shape):
            def callback(message):
                log.append(sub.subscription_id)
                action, target = armed.pop(sub.subscription_id, (None, None))
                if action == "clone":
                    subscribe(**shape)
                elif action == "unsubscribe":
                    store.unsubscribe(target)

            sub = store.subscribe("prop", callback, **shape)

        def publish_and_check(stream_id, tags, kind, payload):
            if store.get_stream(stream_id).closed:
                return
            # Reference: walk the table as it stands *now* in subscribe
            # order; a peer unsubscribed by an earlier callback is skipped,
            # a clone subscribed mid-dispatch is not in this walk at all.
            probe = Message("probe", stream_id, kind, payload, tags)
            expected, removed = [], set()
            for sub in store.subscriptions():
                if sub.subscription_id in removed or not sub.wants(probe):
                    continue
                # Addressing, spelled apart from ``accepts`` (which ``wants`` shares).
                assert sub.addressee is None or sub.addressee == probe.addressee()
                expected.append(sub.subscription_id)
                action, target = armed.get(sub.subscription_id, (None, None))
                if action == "unsubscribe":
                    removed.add(target)
            del log[:]
            store.publish(stream_id, payload, kind=kind, tags=tags)
            assert log == expected

        for op in initial + ops:
            live = [s.subscription_id for s in store.subscriptions()]
            if op[0] == "subscribe":
                _, pattern, include, exclude, (control_only, data_only), addressee = op
                subscribe(
                    stream_pattern=pattern, include_tags=include, exclude_tags=exclude,
                    control_only=control_only, data_only=data_only, addressee=addressee,
                )
            elif op[0] == "unsubscribe" and live:
                store.unsubscribe(live[op[1] % len(live)])
            elif op[0] == "arm" and live:
                armed[live[op[1] % len(live)]] = (op[2], live[op[3] % len(live)])
            elif op[0] == "publish":
                # Twice: the second pass must see whatever the first one's
                # callbacks did to the table (the memo was cleared).
                for publish in op[1] * 2:
                    publish_and_check(*publish)


class TestTraceIndexEquivalence:
    def fill(self, store):
        store.create_stream("s")
        for i in range(50):
            store.publish_data(
                "s",
                i,
                tags=[f"T{i % 3}"] + (["X"] if i % 7 == 0 else []),
                producer=f"p{i % 4}" if i % 5 else "",
            )

    def test_trace_by_tag_matches_scan(self, store):
        self.fill(store)
        for tag in ("T0", "T1", "T2", "X", "missing"):
            assert store.trace_by_tag(tag) == [
                m for m in store.trace() if m.has_tag(tag)
            ]

    def test_trace_by_producer_matches_scan(self, store):
        self.fill(store)
        for producer in ("p0", "p1", "p2", "p3", "", "missing"):
            assert store.trace_by_producer(producer) == [
                m for m in store.trace() if m.producer == producer
            ]

    def test_indexes_preserve_publish_order(self, store):
        self.fill(store)
        trace_order = {m.message_id: i for i, m in enumerate(store.trace())}
        positions = [trace_order[m.message_id] for m in store.trace_by_tag("T1")]
        assert positions == sorted(positions)
