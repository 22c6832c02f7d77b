"""Tests for the partitioned, replicated stream store."""

import threading

import pytest

from repro.clock import SimClock
from repro.errors import ClusterUnavailableError, StreamClosedError
from repro.streams import (
    MessageKind,
    PartitionedStreamStore,
    StreamStore,
    export_partitioned,
    replayed_messages,
)
from repro.streams.persistence import export_store


@pytest.fixture
def store():
    return PartitionedStreamStore(
        SimClock(), n_partitions=4, n_replicas=3, seed=9
    )


class TestPartitionedPublish:
    def test_is_a_stream_store(self, store):
        assert isinstance(store, StreamStore)

    def test_publish_replicates_before_dispatch(self, store):
        store.create_stream("s")
        seen = []
        store.subscribe("watcher", lambda m: seen.append(m.payload),
                        stream_pattern="s")
        message = store.publish_data("s", {"x": 1})
        assert seen == [{"x": 1}]
        partition = store.cluster.shard_for("s")
        state = store.cluster.quorum_state_of(partition)
        assert [r["message_id"] for r in state] == [message.message_id]

    def test_streams_spread_across_partitions(self, store):
        for i in range(40):
            store.create_stream(f"s{i}")
            store.publish_data(f"s{i}", i)
        used = {store.cluster.shard_for(f"s{i}") for i in range(40)}
        assert used == set(range(4))

    def test_same_stream_same_partition(self, store):
        store.create_stream("s")
        for i in range(10):
            store.publish_data("s", i)
        partition = store.cluster.shard_for("s")
        state = store.cluster.quorum_state_of(partition)
        assert len(state) == 10
        assert all(r["stream_id"] == "s" for r in state)

    def test_majority_kill_rejects_and_leaves_store_untouched(self, store):
        store.create_stream("s")
        store.publish_data("s", "before")
        partition = store.cluster.shard_for("s")
        store.cluster.kill_replica(f"s{partition}.r0")
        store.cluster.kill_replica(f"s{partition}.r1")
        before = export_store(store)
        with pytest.raises(ClusterUnavailableError):
            store.publish_data("s", "lost")
        # the rejected publish left no trace in the in-memory store
        after = export_store(store)
        assert before["messages"] == after["messages"]
        assert len(store.get_stream("s").messages()) == 1

    def test_rejected_publish_not_dispatched(self, store):
        store.create_stream("s")
        partition = store.cluster.shard_for("s")
        store.cluster.kill_replica(f"s{partition}.r0")
        store.cluster.kill_replica(f"s{partition}.r1")
        seen = []
        store.subscribe("watcher", lambda m: seen.append(m.payload),
                        stream_pattern="s")
        with pytest.raises(ClusterUnavailableError):
            store.publish_data("s", "dropped")
        assert seen == []

    def test_publish_to_closed_stream_is_not_replicated(self, store):
        store.create_stream("s")
        store.publish_data("s", "kept")
        store.close_stream("s")
        with pytest.raises(StreamClosedError):
            store.publish_data("s", "refused")
        # the rebuilt log still equals the trace: nothing reached a replica
        live_ids = [m.message_id for m in store.trace()]
        replica_ids = [m["message_id"] for m in export_partitioned(store)["messages"]]
        assert len(live_ids) == 2
        assert replica_ids == live_ids
        # ... and a later publish elsewhere keeps the contract
        store.create_stream("t")
        store.publish_data("t", "after")
        assert len(export_partitioned(store)["messages"]) == len(store.trace()) == 3

    def test_publish_racing_close_leaves_no_orphan_replica_record(self):
        """A publish that has passed the closed check and is persisting
        while another thread closes the stream: the replica log still
        equals the trace (the close waits for the publish to finish)."""
        parked, closed = threading.Event(), threading.Event()

        class ParkingStore(PartitionedStreamStore):
            def _persist(self, message):
                super()._persist(message)
                if message.payload == "racer":
                    parked.set()
                    closed.wait(timeout=0.2)

        store = ParkingStore(SimClock(), n_partitions=4, n_replicas=3, seed=9)
        store.create_stream("s")

        def close():
            parked.wait(timeout=5)
            store.close_stream("s")
            closed.set()

        closer = threading.Thread(target=close)
        closer.start()
        try:
            store.publish_data("s", "racer")
        except StreamClosedError:
            pass
        closer.join(timeout=5)
        assert not closer.is_alive()
        logged = [record["payload"] for record in export_partitioned(store)["messages"]]
        assert logged == [message.payload for message in store.trace()]
        assert logged == ["racer", None]


class TestFailoverDurability:
    def test_acked_messages_survive_replica_kills(self, store):
        store.create_stream("s")
        acked = []
        for i in range(30):
            if i == 10:
                store.cluster.kill_replica(f"s{store.cluster.shard_for('s')}.r0")
            acked.append(store.publish_data("s", i).message_id)
        store.cluster.settle()
        snapshot = export_partitioned(store)
        replayed = [m["message_id"] for m in snapshot["messages"]]
        assert [m for m in replayed if not m.startswith("msg-0")] == []
        assert set(acked) <= set(replayed)

    def test_export_partitioned_matches_live_store(self, store):
        for i in range(8):
            store.create_stream(f"s{i}")
            for j in range(5):
                store.publish_data(f"s{i}", {"i": i, "j": j})
        live = export_store(store)
        live_ids = sorted(m["message_id"] for m in live["messages"])
        replica_ids = sorted(
            m["message_id"] for m in export_partitioned(store)["messages"]
        )
        assert live_ids == replica_ids

    def test_replayed_messages_reconstruct_payloads(self, store):
        store.create_stream("s")
        store.publish_data("s", {"k": "v"}, tags={"T"})
        store.publish_control("s", "halt")
        messages = replayed_messages(export_partitioned(store))
        assert len(messages) == 2
        assert messages[0].payload == {"k": "v"}
        assert messages[0].tags == frozenset({"T"})
        assert messages[1].kind is MessageKind.CONTROL


class TestPartitionedDeterminism:
    def run_scenario(self):
        store = PartitionedStreamStore(
            SimClock(), n_partitions=4, n_replicas=3, seed=9
        )
        for i in range(6):
            store.create_stream(f"s{i}")
        killed = False
        for i in range(60):
            stream = f"s{i % 6}"
            if i == 20:
                store.cluster.kill_replica(
                    f"s{store.cluster.shard_for(stream)}.r1"
                )
                killed = True
            store.publish_data(stream, {"seq": i})
            if i % 10 == 9:
                store.tick(advance=0.0)
        assert killed
        store.cluster.settle(advance=0.0)
        import json
        return json.dumps(export_partitioned(store), sort_keys=True,
                          default=str)

    def test_same_seed_byte_identical_export(self):
        assert self.run_scenario() == self.run_scenario()
