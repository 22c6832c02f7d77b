"""Every clustered writer goes through ``StoreCluster.write``: it decides under
its shards' locks, then appends to every shard it touches or to none.

Each writer used to lock, decide and append on its own, and none checked
quorum before its first append: with the last shard a write touched down
to one live replica, a fan-out ``UPDATE t SET v = 1`` raised
``ClusterUnavailableError`` after the earlier shards had acked it.  Two
concurrent inserts of one document id on two shards were both acked, and a
sharded INSERT batch checked its keys before taking any lock, so a
concurrent insert could leave part of it stored."""

import sys
import threading
from pathlib import Path

import pytest

from repro.clock import SimClock
from repro.errors import ClusterUnavailableError, StorageError
from repro.storage.cluster import ClusteredDocumentStore, ClusteredKeyValueStore, ShardedDatabase

try:
    from row_heaps import replicas_decide_nothing
    from test_shard_properties import refusals
except ImportError:  # collected before tests/properties: put it on the path
    sys.path.insert(0, str(Path(__file__).parents[1] / "properties"))
    from row_heaps import replicas_decide_nothing
    from test_shard_properties import refusals


def sql_store():
    db = ShardedDatabase("hr", n_shards=4, n_replicas=3, clock=SimClock(), seed=5)
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    db.table("t").insert_many({"id": i, "v": 0} for i in range(40))
    return db, db.cluster


def doc_store():
    store = ClusteredDocumentStore("d", n_shards=4, n_replicas=3, clock=SimClock(), seed=5)
    people = store.create_collection("people")
    people.insert_many([{"v": 0} for _ in range(40)], [f"p{i}" for i in range(40)])
    return people, store.cluster


def doc_catalog():
    store = ClusteredDocumentStore("d", n_shards=4, n_replicas=3, clock=SimClock(), seed=5)
    return store, store.cluster


def kv_store():
    kv = ClusteredKeyValueStore("kv", n_shards=4, n_replicas=3, clock=SimClock(), seed=5)
    for i in range(40):
        kv.put("ns", f"k{i}", i)
    return kv, kv.cluster


WRITERS = {
    "sql insert_many": (
        sql_store, lambda db: db.table("t").insert_many({"id": i, "v": 0} for i in range(100, 140))
    ),
    "sql update": (sql_store, lambda db: db.execute("UPDATE t SET v = 1")),
    "sql delete": (sql_store, lambda db: db.execute("DELETE FROM t WHERE v = 0")),
    "doc insert_many": (
        doc_store, lambda people: people.insert_many([{"v": 0} for _ in range(40)],
                                                     [f"q{i}" for i in range(40)])
    ),
    "doc update": (doc_store, lambda people: people.update({}, {"v": 1})),
    "doc delete": (doc_store, lambda people: people.delete({"v": 0})),
    "kv clear": (kv_store, lambda kv: kv.clear("ns")),
    "sql create_table": (sql_store, lambda db: db.execute("CREATE TABLE u (id INT PRIMARY KEY)")),
    "sql create_index": (sql_store, lambda db: db.table("t").create_index("v")),
    "doc create_collection": (doc_catalog, lambda store: store.create_collection("staff")),
    "doc create_index": (doc_store, lambda people: people.create_index("v")),
}


@pytest.mark.parametrize("writer", list(WRITERS))
def test_a_write_refused_for_quorum_touches_nothing(writer):
    """Two of the three replicas of the last shard the write touches are
    dead: the write raises, no shard acks it and no log changes; once the
    shard heals, the same write is accepted (a document id is free again)."""
    build, write = WRITERS[writer]
    with replicas_decide_nothing():
        twin, cluster = build()
        before = [shard.acked for shard in cluster.shards]
        write(twin)
        touched = [shard.shard_index for shard in cluster.shards
                   if shard.acked != before[shard.shard_index]]
        assert len(touched) > 1  # so a part-way refusal is possible

        store, cluster = build()
        for replica in cluster.shards[touched[-1]].replicas[:2]:
            cluster.kill_replica(replica.replica_id)
        acked = [shard.acked for shard in cluster.shards]
        result, touched_a_log = refusals(cluster, write, store)
        assert result is ClusterUnavailableError
        assert not touched_a_log
        assert [shard.acked for shard in cluster.shards] == acked
        cluster.settle()
        write(store)
        assert [shard.acked for shard in cluster.shards] == [
            count + (shard in touched) for shard, count in enumerate(acked)
        ]


def run_joined(*threads):
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)


class TestConcurrentWriters:
    def test_two_inserts_of_one_id_on_two_shards_ack_one(self, monkeypatch):
        """Both inserts meet in ``append_to``: the id must be held from the
        check on, or both pass the check and both are acked."""
        store = ClusteredDocumentStore("dup", n_shards=4, n_replicas=3, clock=SimClock(), seed=5)
        people = store.create_collection("people", partition_field="city")
        on_shard = {}
        for city in ("SF", "Oakland", "Austin", "Denver", "Boston"):
            on_shard.setdefault(people.shards_for_filter({"city": city})[0][0], city)
        cities = list(on_shard.values())[:2]
        met = threading.Barrier(2)
        append_to = store.cluster.append_to

        def meet_then_append(shard, op):
            try:
                met.wait(timeout=5)
            except threading.BrokenBarrierError:  # the other insert was refused
                pass
            return append_to(shard, op)

        monkeypatch.setattr(store.cluster, "append_to", meet_then_append)
        acked, refused = [], []

        def insert(city):
            try:
                acked.append(people.insert({"city": city}, doc_id="X"))
            except StorageError as error:
                refused.append(str(error))
                met.abort()

        run_joined(*(threading.Thread(target=insert, args=(c,), daemon=True) for c in cities))
        assert (acked, refused) == (["X"], ["duplicate document id: 'X'"])
        assert [document["_id"] for document in people.find()] == ["X"]

    def test_an_insert_batch_is_never_left_partly_stored(self, monkeypatch):
        """A batch on shards X and Y is held in its first ``append_to`` until
        an insert of its Y key is done (or 1 s has passed): that insert must
        not land between the batch's key check and its appends."""
        db = ShardedDatabase("hr", n_shards=4, n_replicas=3, clock=SimClock(), seed=5)
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        front = db.table("t")
        on_shard = {}
        for key in range(100):
            on_shard.setdefault(front.shard_for_value(key), key)
        (_, x_key), (_, y_key) = sorted(on_shard.items())[:2]  # Y after X: appended last
        checked, inserted = threading.Event(), threading.Event()
        append_to = db.cluster.append_to

        def hold_the_batch(shard, op):
            if threading.current_thread().name == "batch" and not checked.is_set():
                checked.set()
                inserted.wait(timeout=1)  # the only way on once the insert waits for a lock
            return append_to(shard, op)

        monkeypatch.setattr(db.cluster, "append_to", hold_the_batch)
        outcomes = {}

        def insert(name, rows):
            try:
                outcomes[name] = front.insert_many(rows)
            except StorageError as error:
                outcomes[name] = str(error)
            finally:
                inserted.set()

        batch = threading.Thread(target=insert, name="batch", daemon=True,
                                 args=("batch", [{"id": x_key, "v": 1}, {"id": y_key, "v": 1}]))
        single = threading.Thread(target=insert, name="single", daemon=True,
                                  args=("single", [{"id": y_key, "v": 2}]))
        batch.start()
        assert checked.wait(timeout=5)
        run_joined(single)
        batch.join(timeout=10)
        assert not batch.is_alive()
        rows = sorted((row["id"], row["v"]) for row in front.rows())
        if outcomes["batch"] == 2:
            assert outcomes["single"] == f"duplicate primary key {y_key} in table 't'"
            assert rows == sorted([(x_key, 1), (y_key, 1)])
        else:
            assert outcomes["single"] == 1
            assert rows == [(y_key, 2)], outcomes  # the batch stored nothing

    def test_a_fault_waits_for_the_write_in_flight(self, monkeypatch):
        """A kill of two of shard 3's replicas, started inside an UPDATE's
        first ``append_to``, waits for the UPDATE: it lands after the write's
        quorum check and appends, never between them."""
        db, cluster = sql_store()
        assert [shard.acked for shard in cluster.shards] == [2, 2, 2, 2]

        def kill_two_of_shard_3():
            for replica in cluster.shards[3].replicas[:2]:
                cluster.kill_replica(replica.replica_id)

        killer = threading.Thread(target=kill_two_of_shard_3, daemon=True)
        blocked = []
        append_to = cluster.append_to

        def kill_during_the_write(shard, op):
            if not blocked:
                killer.start()
                killer.join(timeout=0.1)
                blocked.append(killer.is_alive())
            return append_to(shard, op)

        monkeypatch.setattr(cluster, "append_to", kill_during_the_write)
        db.execute("UPDATE t SET v = 1")
        assert blocked == [True]
        assert [shard.acked for shard in cluster.shards] == [3, 3, 3, 3]
        killer.join(timeout=10)
        assert not killer.is_alive()
        key = next(key for key in range(40) if db.table("t").shard_for_value(key) == 3)
        with pytest.raises(ClusterUnavailableError):
            db.execute(f"UPDATE t SET v = 2 WHERE id = {key}")
        cluster.settle()
        db.execute(f"UPDATE t SET v = 2 WHERE id = {key}")
        assert cluster.shards[3].acked == 4
