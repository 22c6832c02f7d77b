"""Concurrency: the substrates under multi-threaded load.

The paper deploys components across containers with agent worker pools;
these tests drive the shared substrates (stream store, tables, KV) from
many threads and check nothing is lost or duplicated.
"""

import threading

from repro.clock import SimClock
from repro.core.agent import FunctionAgent
from repro.core.context import AgentContext
from repro.core.params import Parameter
from repro.core.session import SessionManager
from repro.storage import ColumnType, Database, KeyValueStore, quick_table
from repro.streams import StreamStore


def run_threads(n: int, target) -> None:
    threads = [threading.Thread(target=target, args=(i,)) for i in range(n)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


class TestStoreConcurrency:
    def test_concurrent_publishes_all_recorded(self):
        store = StreamStore(SimClock())
        store.create_stream("s")
        per_thread = 200

        def publisher(thread_id: int) -> None:
            for i in range(per_thread):
                store.publish_data("s", (thread_id, i), producer=f"t{thread_id}")

        run_threads(8, publisher)
        trace = store.trace()
        assert len(trace) == 8 * per_thread
        # Message ids stay unique under contention.
        assert len({m.message_id for m in trace}) == len(trace)
        # Per-producer order is preserved.
        for thread_id in range(8):
            sequence = [m.payload[1] for m in trace if m.producer == f"t{thread_id}"]
            assert sequence == sorted(sequence)

    def test_concurrent_subscribers_receive_everything(self):
        store = StreamStore(SimClock())
        store.create_stream("s")
        received: list = []
        lock = threading.Lock()

        def callback(message):
            with lock:
                received.append(message.payload)

        store.subscribe("collector", callback)

        def publisher(thread_id: int) -> None:
            for i in range(100):
                store.publish_data("s", (thread_id, i))

        run_threads(4, publisher)
        assert len(received) == 400

    def test_worker_pool_under_concurrent_triggers(self):
        store = StreamStore(SimClock())
        session = SessionManager(store).create("conc")
        agent = FunctionAgent(
            "SQUARE",
            lambda inputs: {"OUT": inputs["IN"] ** 2},
            inputs=(Parameter("IN", "number"),),
            outputs=(Parameter("OUT", "number"),),
            listen_tags=("GO",),
        )
        agent.attach(
            AgentContext(store=store, session=session, clock=store.clock)
        )
        user = session.create_stream("user", creator="user")

        def publisher(thread_id: int) -> None:
            for i in range(50):
                store.publish_data(user.stream_id, thread_id * 100 + i, tags=("GO",))

        # The agent runs inline on each publisher's thread, so every
        # output is published before run_threads returns.
        run_threads(4, publisher)
        out = store.get_stream(session.stream_id("square:out"))
        assert len(out) == 200
        assert agent.failures == 0


class TestStorageConcurrency:
    def test_concurrent_table_inserts(self):
        database = Database("conc")
        quick_table(database, "t", [("id", ColumnType.INT), ("v", ColumnType.INT)])
        table = database.table("t")

        def inserter(thread_id: int) -> None:
            for i in range(100):
                table.insert({"id": thread_id * 1000 + i, "v": i})

        run_threads(6, inserter)
        assert len(table) == 600
        assert database.execute("SELECT COUNT(*) AS n FROM t").scalar() == 600

    def test_concurrent_indexed_updates(self):
        database = Database("conc")
        quick_table(
            database, "t",
            [("id", ColumnType.INT), ("bucket", ColumnType.INT)],
            [{"id": i, "bucket": 0} for i in range(100)],
        )
        table = database.table("t")
        table.create_index("bucket", kind="hash")

        def updater(thread_id: int) -> None:
            for i in range(thread_id, 100, 4):
                table.update(lambda r, i=i: r["id"] == i, {"bucket": 1})

        run_threads(4, updater)
        assert len(table.lookup("bucket", 1)) == 100
        assert table.lookup("bucket", 0) == []

    def test_concurrent_kv_writes(self):
        kv = KeyValueStore("conc")

        def writer(thread_id: int) -> None:
            for i in range(100):
                kv.put(f"ns{thread_id}", f"k{i}", thread_id)

        run_threads(5, writer)
        for thread_id in range(5):
            assert len(kv.keys(f"ns{thread_id}")) == 100
