"""A2 — streams-database scaling (Section V-A).

Measures publish throughput as subscriber count grows, tag-filtered
dispatch, and trace/observability queries over large histories.
"""

from _artifacts import record, table

from repro.clock import SimClock
from repro.streams import StreamStore


def build_store(n_subscribers: int, selective: bool) -> StreamStore:
    store = StreamStore(SimClock())
    store.create_stream("s")
    sink = []
    for i in range(n_subscribers):
        tags = [f"T{i % 10}"] if selective else []
        store.subscribe(f"sub-{i}", sink.append, include_tags=tags)
    return store


def test_a2_subscriber_scaling(benchmark):
    """Artifact: publish cost vs subscriber count."""
    import time

    rows = []
    for n in (0, 1, 10, 100):
        store = build_store(n, selective=False)
        start = time.perf_counter()
        for i in range(2000):
            store.publish_data("s", i)
        elapsed = time.perf_counter() - start
        rows.append([n, f"{2000 / elapsed:,.0f}"])
    record(
        "a2_streams_scaling",
        "A2 — publish throughput (msgs/sec) vs broadcast subscriber count\n"
        + table(["subscribers", "msgs/sec"], rows),
    )

    store = build_store(10, selective=False)
    counter = iter(range(10**9))
    benchmark(lambda: store.publish_data("s", next(counter)))


def test_a2_selective_dispatch(benchmark):
    """Tag-selective subscribers receive only their share."""
    store = build_store(100, selective=True)
    counter = iter(range(10**9))

    def publish_tagged():
        i = next(counter)
        store.publish_data("s", i, tags=[f"T{i % 10}"])

    benchmark(publish_tagged)


def test_a2_indexed_dispatch_1k(benchmark):
    """Artifact: routed dispatch at 1k mixed subscribers.

    A publish reaches its subscribers through the route table, so it
    pays for the ones that match — not for all 1 000.  The artifact sets
    the deliveries a publish makes against the subscription count a
    linear scan would test.
    """
    import time

    store = StreamStore(SimClock())
    store.create_stream("hot")
    sink = []
    for i in range(1000):
        if i % 4 == 0:
            # Literal subscriptions on cold streams: never routed to.
            store.ensure_stream(f"cold-{i}")
            store.subscribe(f"sub-{i}", sink.append, stream_pattern=f"cold-{i}")
        elif i % 4 in (1, 2):
            # Tagged match-alls: delivered only for their tag.
            store.subscribe(f"sub-{i}", sink.append, include_tags=[f"T{i % 100}"])
        else:
            # Literal subscriptions on the hot stream.
            store.subscribe(f"sub-{i}", sink.append, stream_pattern="hot")

    message = store.publish_data("hot", 0, tags=["T1"])
    deliveries = len(sink)
    assert deliveries == sum(s.wants(message) for s in store.subscriptions())
    assert deliveries < 300  # vs 1000 tested by a linear scan

    start = time.perf_counter()
    for i in range(2000):
        store.publish_data("hot", i, tags=[f"T{i % 100}"])
    elapsed = time.perf_counter() - start
    record(
        "a2_indexed_dispatch",
        "A2 — routed dispatch with 1k mixed subscribers\n"
        + table(
            ["subscriptions", "deliveries/publish", "msgs/sec"],
            [[1000, deliveries, f"{2000 / elapsed:,.0f}"]],
        ),
    )

    counter = iter(range(10**9))
    benchmark(lambda: store.publish_data("hot", next(counter), tags=["T1"]))


def fleet_publish_us(n_sessions: int) -> float:
    """Per-publish wall (us) on one session's streams while *n_sessions*
    other sessions each hold a ``"<session>:*"`` subscription — the shape
    ``Agent.attach`` gives the fleet.  Every stream is new to the route
    memo on its first publish and hits it on the next four."""
    import time

    store = StreamStore(SimClock())
    sink = []
    for i in range(n_sessions):
        store.subscribe(f"agent-{i}", sink.append, stream_pattern=f"session-{i}:*")
    store.subscribe("agent-hot", sink.append, stream_pattern="hot:*")
    for i in range(400):
        store.create_stream(f"hot:plan-{i}")
    best = float("inf")
    for _ in range(5):
        del sink[:]
        start = time.perf_counter()
        for i in range(400):
            for j in range(5):
                store.publish_data(f"hot:plan-{i}", j)
        best = min(best, time.perf_counter() - start)
        assert len(sink) == 2000  # only the hot session's subscriber hears them
        # A subscribe clears the memo, so every repeat re-pays its misses.
        store.unsubscribe(store.subscribe("churn", sink.append).subscription_id)
    return best / 2000 * 1e6


def test_a2_flat_in_subscribers():
    """Gate (ROADMAP item 2): a publish costs O(matching subscriptions).

    10 000 non-matching session subscriptions must not make a publish
    more than 2x dearer than 100 do (the three-bucket index it replaced
    re-tested every one of them: ~100x).
    """
    rows = {n: fleet_publish_us(n) for n in (100, 1_000, 10_000)}
    record(
        "a2_flat_in_subscribers",
        "A2 — per-publish wall vs non-matching \"<session>:*\" subscriptions\n"
        + table(
            ["other sessions", "us/publish", "vs 100"],
            [[n, f"{us:.2f}", f"{us / rows[100]:.2f}x"] for n, us in rows.items()],
        ),
    )
    assert rows[10_000] <= 2 * rows[100]


def test_a2_trace_query(benchmark):
    """Observability queries over a 20k-message history."""
    store = StreamStore(SimClock())
    store.create_stream("s")
    for i in range(20_000):
        store.publish_data("s", i, tags=[f"T{i % 50}"], producer=f"p{i % 7}")

    def query():
        return len(store.trace_by_tag("T3")), len(store.trace_by_producer("p2"))

    by_tag, by_producer = benchmark(query)
    assert by_tag == 400
    assert by_producer > 0


def addressed_deliveries(n_agents: int) -> tuple[int, int]:
    """Deliveries made by one ``EXECUTE_AGENT`` naming one of *n_agents*
    attached agents, and by each session-ceremony message (``ENTER_SESSION``,
    ``CREATE_STREAM``, ``AGENT_ERROR``): the addressee is a route key, so
    the others are never handed a message to ignore."""
    from repro.core.agent import FunctionAgent
    from repro.core.context import AgentContext
    from repro.core.session import SessionManager
    from repro.streams import Instruction

    store = StreamStore(SimClock())
    session = SessionManager(store).create("a2")
    context = AgentContext(store=store, session=session, clock=store.clock)
    for i in range(n_agents):
        FunctionAgent(f"AGENT-{i}", lambda inputs: None).attach(context)
    session_stream = session.session_stream.stream_id

    def deliveries(publish) -> int:
        before = store._delivery_count
        publish()
        return store._delivery_count - before

    execute = deliveries(
        lambda: store.publish_control(
            session_stream, Instruction.EXECUTE_AGENT, agent=f"AGENT-{n_agents - 1}"
        )
    )
    ceremony = [
        deliveries(lambda: session.enter("LATECOMER")),
        deliveries(lambda: session.create_stream("extra")),
        deliveries(lambda: store.publish_control(session_stream, "AGENT_ERROR", agent="AGENT-0")),
    ]
    return execute, max(ceremony)


def test_a2_addressed_activation():
    """Gate (ROADMAP item 13): an activation reaches only its addressee.

    Deterministic: with 1, 4 or 16 agents in a session an addressed
    ``EXECUTE_AGENT`` delivers once and a ceremony message delivers zero
    times (each agent's ``_on_control`` used to receive, and drop, all of
    them).
    """
    rows = {n: addressed_deliveries(n) for n in (1, 4, 16)}
    record(
        "a2_addressed_activation",
        "A2 — deliveries per session control message vs agents in the session\n"
        + table(
            ["agents", "EXECUTE_AGENT", "ceremony (max)"],
            [[n, execute, ceremony] for n, (execute, ceremony) in rows.items()],
        ),
    )
    assert all(execute == 1 and ceremony == 0 for execute, ceremony in rows.values())
