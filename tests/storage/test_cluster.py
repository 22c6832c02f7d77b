"""Tests for the sharded, replicated store cluster substrate."""

import json
import sys
from pathlib import Path

import pytest

from repro.clock import SimClock
from repro.errors import ClusterUnavailableError, QueryError, StorageError
from repro.storage.cluster import (
    ClusteredDocumentStore,
    ClusteredKeyValueStore,
    FailureDetector,
    HashRing,
    Replica,
    ReplicaStatus,
    ShardGroup,
    StoreCluster,
)
from repro.observability import Observability
from repro.storage.cluster import ring
from repro.storage.cluster.ring import routing_key, stable_hash
from repro.storage.document.store import DocumentStore, StoredDocument

try:
    from row_heaps import replicas_decide_nothing
except ImportError:  # collected before tests/properties: put it on the path
    sys.path.insert(0, str(Path(__file__).parents[1] / "properties"))
    from row_heaps import replicas_decide_nothing


def apply_list(state, op):
    state.append(op["value"])
    return len(state)


def make_shard(n_replicas=3, timeout=3.0):
    events = []
    shard = ShardGroup(
        0, n_replicas, list, apply_list, FailureDetector(timeout),
        lambda kind, **detail: events.append((kind, detail)),
    )
    return shard, events


def make_cluster(n_shards=4, n_replicas=3, **options):
    return StoreCluster(
        "test", n_shards, n_replicas, list, apply_list,
        clock=SimClock(), **options,
    )


class TestHashRing:
    def test_stable_hash_is_deterministic(self):
        assert stable_hash("alpha") == stable_hash("alpha")
        assert stable_hash("alpha") != stable_hash("beta")

    def test_shard_for_covers_all_shards(self):
        ring = HashRing(8)
        hit = {ring.shard_for(f"key-{i}") for i in range(2000)}
        assert hit == set(range(8))

    def test_shard_for_is_stable(self):
        ring = HashRing(8)
        again = HashRing(8)
        for i in range(200):
            key = f"key-{i}"
            assert ring.shard_for(key) == again.shard_for(key)

    def test_distribution_is_roughly_balanced(self):
        ring = HashRing(4)
        counts = [0] * 4
        for i in range(8000):
            counts[ring.shard_for(f"key-{i}")] += 1
        assert min(counts) > 8000 / 4 / 3  # no shard under a third of fair share

    def test_shards_for_dedupes_and_sorts(self):
        ring = HashRing(4)
        keys = [f"key-{i}" for i in range(50)]
        shards = ring.shards_for(keys)
        assert shards == sorted(set(shards))

    def test_all_shards(self):
        assert HashRing(3).all_shards() == [0, 1, 2]

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ValueError):
            HashRing(0)

    def test_equal_numbers_are_one_routing_key(self):
        """Keys were ``str(value)``: ``1.0`` and ``True`` missed ``1``'s shard."""
        assert routing_key("t", 1) == routing_key("t", 1.0) == routing_key("t", True) == "t|1"
        assert routing_key("t", 0) == routing_key("t", -0.0) == routing_key("t", False) == "t|0"
        assert routing_key("t", 1e20) == routing_key("t", 10**20)
        # what ``str`` gave ints, text and non-integral floats has not moved
        for value in (7, -3, "7", "SF", 2.5, float("inf"), None):
            assert routing_key("t", value) == f"t|{value}"


class TestReplica:
    def make(self):
        return Replica("s0.r0", 0, 0, list, apply_list)

    def test_append_applies_and_logs(self):
        replica = self.make()
        assert replica.append({"value": "a"}) == 1
        assert replica.applied == 1
        assert replica.state == ["a"]

    def test_can_accept_requires_exact_sequence(self):
        replica = self.make()
        assert replica.can_accept(0)
        assert not replica.can_accept(1)
        replica.append({"value": "a"})
        assert replica.can_accept(1)
        assert not replica.can_accept(0)

    def test_kill_drops_state_keeps_log(self):
        replica = self.make()
        replica.append({"value": "a"})
        replica.kill()
        assert replica.status is ReplicaStatus.DEAD
        assert replica.state is None
        assert not replica.can_accept(1)
        assert len(replica.log) == 1  # durable op log survives

    def test_restart_replays_own_log(self):
        replica = self.make()
        replica.append({"value": "a"})
        replica.append({"value": "b"})
        replica.kill()
        replica.begin_restart()
        assert replica.status is ReplicaStatus.SYNCING
        assert replica.state == ["a", "b"]
        assert replica.applied == 2

    def test_catch_up_replays_donor_suffix(self):
        ahead, behind = self.make(), self.make()
        for value in "abc":
            ahead.append({"value": value})
        behind.append({"value": "a"})
        copied = behind.catch_up(ahead)
        assert copied == 2
        assert behind.state == ["a", "b", "c"]
        assert behind.log_digest() == ahead.log_digest()

    def test_log_digest_differs_on_divergence(self):
        one, two = self.make(), self.make()
        one.append({"value": "a"})
        two.append({"value": "b"})
        assert one.log_digest() != two.log_digest()


class TestShardGroup:
    def test_append_reaches_all_replicas(self):
        shard, _ = make_shard()
        assert shard.append({"value": "a"}) == 1
        assert shard.acked == 1
        assert [r.applied for r in shard.replicas] == [1, 1, 1]

    def test_append_with_one_dead_replica_still_acks(self):
        shard, _ = make_shard()
        shard.replicas[2].kill()
        shard.append({"value": "a"})
        assert shard.acked == 1
        assert shard.replicas[2].applied == 0

    def test_append_below_quorum_raises_and_touches_nothing(self):
        shard, _ = make_shard()
        shard.append({"value": "a"})
        shard.replicas[1].kill()
        shard.replicas[2].kill()
        with pytest.raises(ClusterUnavailableError):
            shard.append({"value": "b"})
        assert shard.acked == 1
        assert shard.replicas[0].applied == 1  # all-or-nothing: no partial write

    def test_quorum_read_repairs_lagging_replica(self):
        shard, _ = make_shard()
        shard.replicas[2].kill()
        shard.append({"value": "a"})
        shard.replicas[2].begin_restart()
        shard.replicas[2].status = ReplicaStatus.ALIVE
        before = shard.read_repairs
        state = shard.quorum_state()
        assert state == ["a"]
        # the revived replica may be chosen as a reader and repaired
        assert shard.read_repairs >= before

    def test_quorum_state_requires_latest_acked(self):
        shard, _ = make_shard()
        shard.append({"value": "a"})
        shard.append({"value": "b"})
        assert shard.quorum_state() == ["a", "b"]

    def test_promote_skips_dead_candidates(self):
        shard, events = make_shard()
        shard.append({"value": "a"})
        shard.replicas[0].kill()
        promoted = shard.promote()
        assert promoted.index != 0
        assert promoted.applied == shard.acked
        assert shard.promotions == 1
        assert any(kind == "promotion" for kind, _ in events)

    def test_promote_with_no_viable_candidate_raises(self):
        shard, _ = make_shard()
        shard.append({"value": "a"})
        for replica in shard.replicas:
            replica.kill()
        with pytest.raises(ClusterUnavailableError):
            shard.promote()

    def test_sync_all_catches_up_lagging_replicas(self):
        shard, events = make_shard()
        shard.replicas[2].kill()
        for value in "abcd":
            shard.append({"value": value})
        shard.replicas[2].begin_restart()
        shard.sync_all()
        assert shard.replicas[2].applied == 4
        assert shard.replicas[2].status is ReplicaStatus.ALIVE
        assert any(kind == "rejoin" for kind, _ in events)

    def test_sync_never_copies_from_stale_donor(self):
        shard, _ = make_shard()
        for value in "ab":
            shard.append({"value": value})
        # every live replica lags the acked history: no donor is safe
        for replica in shard.replicas:
            replica.kill()
            replica.begin_restart()
            del replica.log[1:]
            replica.state = replica.state[:1]
        shard.acked = 2
        assert shard.sync_all() == 0


class TestStoreCluster:
    def test_routing_is_stable(self):
        cluster = make_cluster()
        assert cluster.shard_for("k") == cluster.shard_for("k")

    def test_append_and_quorum_read(self):
        cluster = make_cluster()
        cluster.append("k", {"value": "a"})
        shard = cluster.shard_for("k")
        assert cluster.quorum_state("k") == ["a"]
        assert cluster.quorum_state_of(shard) == ["a"]

    def test_kill_then_failover_promotes_new_primary(self):
        cluster = make_cluster()
        cluster.append("k", {"value": "a"})
        shard_index = cluster.shard_for("k")
        shard = cluster.shards[shard_index]
        primary_id = shard.primary().replica_id
        cluster.kill_replica(primary_id)
        cluster.tick()
        assert shard.primary().status is ReplicaStatus.ALIVE
        assert shard.primary().replica_id != primary_id
        assert cluster.quorum_state("k") == ["a"]

    def test_dead_replica_restarts_and_rejoins(self):
        cluster = make_cluster(restart_delay_ticks=2)
        cluster.append("k", {"value": "a"})
        shard_index = cluster.shard_for("k")
        victim = cluster.shards[shard_index].replicas[1]
        cluster.kill_replica(victim.replica_id)
        cluster.append("k", {"value": "b"})
        cluster.settle()
        assert victim.status is ReplicaStatus.ALIVE
        assert victim.applied == cluster.shards[shard_index].acked

    def test_partition_never_blocks_quorum(self):
        cluster = make_cluster()
        cluster.append("k", {"value": "a"})
        shard_index = cluster.shard_for("k")
        # ask for a majority partition: capped to a minority
        cluster.partition_shard(shard_index, [0, 1, 2], ticks=3)
        cluster.append("k", {"value": "b"})  # still acks through the majority
        assert cluster.quorum_state("k") == ["a", "b"]

    def test_partition_heals_after_ticks(self):
        cluster = make_cluster()
        shard_index = cluster.shard_for("k")
        cluster.partition_shard(shard_index, [1], ticks=2)
        assert not cluster.shards[shard_index].replicas[1].reachable
        cluster.settle(4)
        assert cluster.shards[shard_index].replicas[1].reachable

    def test_degraded_replica_is_tracked(self):
        cluster = make_cluster()
        replica = cluster.shards[0].replicas[0]
        cluster.degrade_replica(replica.replica_id, seconds=2.0, ticks=3)
        assert replica.is_degraded(cluster.tick_count)
        for _ in range(5):  # settle() early-exits on a healthy cluster
            cluster.tick()
        assert not replica.is_degraded(cluster.tick_count)

    def test_degraded_ops_are_charged_while_degraded(self):
        cluster = make_cluster()
        obs = cluster.observability = Observability(cluster.clock)
        key = next(k for k in map(str, range(100)) if cluster.shard_for(k) == 0)
        other = next(k for k in map(str, range(100)) if cluster.shard_for(k) == 1)
        cluster.append(key, {"value": "a"})  # nothing degraded: nothing charged
        cluster.degrade_replica("s0.r2", seconds=2.0, ticks=2)
        cluster.degrade_replica("s0.r1", seconds=0.5, ticks=1)
        cluster.quorum_state(key)  # two replicas of shard 0 degraded
        cluster.quorum_state(other)  # shard 1 has none
        cluster.tick()
        cluster.append(key, {"value": "b"})  # s0.r2 only
        cluster.tick()
        cluster.quorum_state(key)  # both lapsed
        snapshot = obs.metrics.snapshot()
        assert snapshot["cluster.degraded_ops{cluster=test,shard=0}"] == 3.0
        assert "cluster.degraded_ops{cluster=test,shard=1}" not in snapshot
        assert snapshot["cluster.degraded_latency.sum"] == 4.5

    def test_events_are_recorded(self):
        cluster = make_cluster()
        cluster.kill_replica("s0.r0")
        kinds = [event["kind"] for event in cluster.events]
        assert "replica_kill" in kinds

    def test_export_json_round_trips(self):
        cluster = make_cluster()
        cluster.append("k", {"value": "a"})
        cluster.tick()
        snapshot = json.loads(cluster.export_json())
        assert snapshot["cluster"] == "test"
        assert len(snapshot["shards"]) == 4

    def test_replica_by_id_rejects_unknown(self):
        cluster = make_cluster()
        with pytest.raises(StorageError):
            cluster.replica_by_id("s9.r9")


class TestClusteredKeyValueStore:
    @pytest.fixture
    def kv(self):
        return ClusteredKeyValueStore("kv", n_shards=4, n_replicas=3,
                                      clock=SimClock(), seed=3)

    def test_round_trip(self, kv):
        kv.put("ns", "k", {"x": 1})
        assert kv.get("ns", "k") == {"x": 1}
        assert kv.contains("ns", "k")

    def test_keys_span_shards(self, kv):
        names = [f"k{i}" for i in range(40)]
        for name in names:
            kv.put("ns", name, 1)
        assert kv.keys("ns") == sorted(names)
        shards = {kv.cluster.shard_for(f"ns\x00{n}") for n in names}
        assert len(shards) > 1

    def test_ttl_expiry_is_read_time(self, kv):
        kv.put("ns", "k", 1, ttl=5.0)
        kv.cluster.clock.advance(6.0)
        assert kv.get("ns", "k") is None
        assert kv.keys("ns") == []
        assert kv.delete("ns", "k") is False  # expired: nothing to delete

    def test_clear_returns_live_count(self, kv):
        kv.put("ns", "a", 1)
        kv.put("ns", "b", 2, ttl=1.0)
        kv.cluster.clock.advance(2.0)
        assert kv.clear("ns") == 1
        assert kv.keys("ns") == []

    def test_survives_replica_kills(self, kv):
        for i in range(30):
            kv.put("ns", f"k{i}", i)
        kv.cluster.kill_replica("s0.r0")
        kv.cluster.kill_replica("s2.r1")
        for i in range(30, 50):
            kv.put("ns", f"k{i}", i)
        kv.cluster.settle()
        assert len(kv.keys("ns")) == 50
        assert kv.get("ns", "k42") == 42

    def test_a_written_key_routes_without_hashing(self, kv, monkeypatch):
        calls = []

        def counted(text):
            calls.append(text)
            return stable_hash(text)

        monkeypatch.setattr(ring, "stable_hash", counted)
        kv.put("ns", "k", 1)
        assert len(calls) == 1  # a new key is placed by the ring
        calls.clear()
        for _ in range(100):
            assert kv.get("ns", "k") == 1
        assert kv.delete("ns", "k") is True
        assert calls == []
        assert kv.get("ns", "absent") is None  # an unwritten key still hashes
        assert calls == ["ns\x00absent"]


class TestClusteredDocumentStore:
    @pytest.fixture
    def docs(self):
        store = ClusteredDocumentStore("docs", n_shards=4, n_replicas=3,
                                       clock=SimClock(), seed=5)
        collection = store.create_collection("people", partition_field="city")
        cities = ["Oakland", "Austin", "Denver", "Boston"]
        for i in range(80):
            collection.insert({
                "name": f"person-{i}",
                "city": cities[i % 4],
                "rank": i,
            })
        return store

    def test_partitioned_find_prunes_shards(self, docs):
        people = docs.collection("people")
        rows = people.find({"city": "Austin"})
        assert len(rows) == 20
        assert all(row["city"] == "Austin" for row in rows)
        stats = people.last_find_stats
        assert stats["pruned"]
        assert stats["shards_scanned"] < stats["shards_total"]

    def test_unpartitioned_find_fans_out(self, docs):
        people = docs.collection("people")
        rows = people.find({"rank": {"$gte": 70}})
        assert len(rows) == 10
        assert people.last_find_stats["shards_scanned"] == 4

    def test_find_stats_say_which_access_path_ran(self, docs):
        people = docs.collection("people")
        people.find({"rank": {"$gte": 70}})
        scan = dict(people.last_find_stats)
        assert (scan["docs_scanned"], scan["docs_examined"], scan["index"]) == (80, 80, [])
        people.create_index("rank", kind="sorted")
        people.create_index("city")
        assert people.indexed_fields() == ["city", "rank"]
        assert len(people.find({"rank": {"$gte": 70}})) == 10
        ranged = people.last_find_stats
        # ``docs_scanned`` keeps meaning the slices read, not the candidates
        assert (ranged["docs_scanned"], ranged["docs_examined"], ranged["index"]) == (80, 10, ["rank"])
        assert len(people.find({"city": "Austin", "rank": {"$lt": 40}, "name": {"$ne": ""}})) == 10
        both = people.last_find_stats
        assert (both["docs_examined"], both["rows"], both["index"]) == (10, 10, ["city", "rank"])
        assert both["docs_scanned"] < 80 and both["pruned"]
        people.find({"_id": "nope"})
        assert people.last_find_stats["docs_examined"] == 0

    def test_unknown_index_kind_reaches_no_log(self, docs):
        people = docs.collection("people")
        logs = [len(replica.log) for replica in docs.cluster.all_replicas()]
        with pytest.raises(StorageError, match="unknown index kind"):
            people.create_index("rank", kind="btree")
        assert [len(replica.log) for replica in docs.cluster.all_replicas()] == logs

    def test_sorted_index_survives_a_replica_rebuild(self, docs):
        """``create_index`` replays from the log with its kind, in one sort."""
        people = docs.collection("people")
        people.create_index("rank", kind="sorted")
        people.insert({"name": "late", "city": "Austin", "rank": 99})
        for shard in docs.cluster.shards:
            docs.cluster.kill_replica(shard.replicas[0].replica_id)
        docs.cluster.settle()
        for shard in docs.cluster.shards:
            rebuilt, witness = (r.state.collection("people") for r in shard.replicas[:2])
            assert rebuilt._heap.index_on("rank").kind == "sorted"
            assert rebuilt._heap.index_on("rank")._entries == witness._heap.index_on("rank")._entries
            assert rebuilt.find({"rank": {"$gte": 75}}) == witness.find({"rank": {"$gte": 75}})
        assert len(people.find({"rank": {"$gte": 75}})) == 6
        assert people.last_find_stats["docs_examined"] == 6

    def test_sorted_limited_merge(self, docs):
        people = docs.collection("people")
        rows = people.find(sort="rank", descending=True, limit=5)
        assert [row["rank"] for row in rows] == [79, 78, 77, 76, 75]

    def test_update_and_delete_fan_out(self, docs):
        people = docs.collection("people")
        assert people.update({"city": "Denver"}, {"rank": -1}) == 20
        assert all(r["rank"] == -1 for r in people.find({"city": "Denver"}))
        assert people.delete({"city": "Denver"}) == 20
        assert people.find({"city": "Denver"}) == []

    def test_get_by_doc_id(self, docs):
        people = docs.collection("people")
        doc_id = people.insert({"name": "target", "city": "Austin", "rank": 0})
        assert people.get(doc_id)["name"] == "target"

    def test_insert_survives_failover(self, docs):
        people = docs.collection("people")
        cluster = docs.cluster
        for shard in cluster.shards:
            cluster.kill_replica(shard.primary().replica_id)
        doc_id = people.insert({"name": "after", "city": "Austin", "rank": 1})
        cluster.settle()
        assert people.get(doc_id)["name"] == "after"
        rows = people.find({"city": "Austin"})
        assert len(rows) == 21

    #: Every shape of a field the read helpers meet: present, absent,
    #: ``None``, list-valued, repeated.
    ODD_DOCS = [
        {"city": "Oakland", "team": "a", "tags": ["x", "y"]},
        {"city": "Austin"},
        {"city": "Denver", "team": None, "tags": ["x", "y"]},
        {"city": "Boston", "team": "b", "tags": []},
        {"city": "Austin", "team": "a", "tags": ["z"]},
    ]

    @pytest.fixture
    def odd_pair(self):
        """The same documents in a single-node and a 2-shard collection."""
        single = DocumentStore("one").create_collection("people")
        store = ClusteredDocumentStore("two", n_shards=2, n_replicas=3,
                                       clock=SimClock(), seed=5)
        clustered = store.create_collection("people", partition_field="city")
        for i, document in enumerate(self.ODD_DOCS):
            single.insert(document, doc_id=f"d{i}")
            clustered.insert(document, doc_id=f"d{i}")
        homes = {
            tuple(clustered.shards_for_filter({"city": d["city"]})[0])
            for d in self.ODD_DOCS
        }
        assert homes == {(0,), (1,)}  # the documents really span both shards
        return single, clustered

    @pytest.mark.parametrize("field", ["team", "tags", "city", "nope"])
    def test_distinct_matches_single_node(self, odd_pair, field):
        """Regression: the clustered override dropped ``None`` values and
        leaked the private missing-field sentinel for absent ones."""
        single, clustered = odd_pair
        # Shard order differs from insertion order: compare as multisets.
        assert sorted(map(repr, clustered.distinct(field))) == sorted(
            map(repr, single.distinct(field))
        )

    @pytest.mark.parametrize("filter_spec", [
        None,
        {"city": "Austin"},
        {"team": "a"},
        {"team": None},
        {"tags": ["x", "y"]},
        {"city": "Nowhere"},
    ])
    def test_count_matches_single_node(self, odd_pair, filter_spec):
        single, clustered = odd_pair
        assert clustered.count(filter_spec) == single.count(filter_spec)

    @pytest.mark.parametrize("filter_spec", [
        {"city": "Boston"},
        {"team": "b"},
        {"tags": ["z"]},
        {"city": "Nowhere"},
        {"team": "c"},
    ])
    def test_find_one_matches_single_node(self, odd_pair, filter_spec):
        """Filters matching exactly one document, or none."""
        single, clustered = odd_pair
        assert single.count(filter_spec) <= 1
        assert clustered.find_one(filter_spec) == single.find_one(filter_spec)

    # -- the router never prunes on what it never routed by ---------------
    @pytest.fixture
    def none_pair(self):
        """The issue's probe: 8 docs with ``city: None``, 3 in SF, 1 without."""
        documents = (
            [{"city": None, "n": i} for i in range(8)]
            + [{"city": "SF", "n": i} for i in range(8, 11)]
            + [{"n": 11}]
        )
        single = DocumentStore("one").create_collection("people")
        store = ClusteredDocumentStore("four", n_shards=4, n_replicas=3,
                                       clock=SimClock(), seed=5)
        clustered = store.create_collection("people", partition_field="city")
        for i, document in enumerate(documents):
            single.insert(document, doc_id=f"d{i}")
            clustered.insert(document, doc_id=f"d{i}")
        return single, clustered

    @pytest.mark.parametrize("filter_spec, expected", [
        ({"city": {"$eq": None}}, 8),
        ({"city": {"$in": [None, "SF"]}}, 11),
        ({"city": None}, 8),
    ])
    def test_none_partition_value_fans_out(self, none_pair, filter_spec, expected):
        """A ``None`` partition value routed by document id, so no value
        prunes to it (clustered returned 1 and 4 for the first two)."""
        single, clustered = none_pair
        found = clustered.find(filter_spec)
        assert clustered.last_find_stats["pruned"] is False
        assert len(found) == expected
        assert sorted(d["_id"] for d in found) == sorted(
            d["_id"] for d in single.find(filter_spec)
        )

    def test_partition_field_is_immutable(self, none_pair):
        """An acked shard-key update hid the document from every pruned
        find (0 found where a single node finds 1)."""
        _, clustered = none_pair
        digests = [r.log_digest() for r in clustered._cluster.all_replicas()]
        with pytest.raises(StorageError, match="partition field 'city'"):
            clustered.update({"_id": "d8"}, {"city": "Oakland"})
        assert [r.log_digest() for r in clustered._cluster.all_replicas()] == digests
        assert clustered.find({"city": "Oakland"}) == []
        assert clustered.get("d8")["city"] == "SF"
        # Other fields still update, and an unpartitioned collection has no shard key.
        assert clustered.update({"_id": "d8"}, {"n": -8}) == 1
        loose = ClusteredDocumentStore(
            "loose", n_shards=2, n_replicas=3, clock=SimClock()
        ).create_collection("people")
        doc_id = loose.insert({"city": "SF"})
        assert loose.update({"_id": doc_id}, {"city": "Oakland"}) == 1

    def test_one_id_one_document(self):
        """Two inserts of one id under different partition values were both
        acked, on two shards (``len == 2``, ``find`` by id returned one)."""
        store = ClusteredDocumentStore("dup", n_shards=4, n_replicas=3,
                                       clock=SimClock(), seed=5)
        people = store.create_collection("people", partition_field="city")
        people.insert({"city": "SF"}, doc_id="dup")
        logs = [len(r.log) for r in store.cluster.all_replicas()]
        for retry in ({"city": "Oakland"}, {"city": "SF"}):
            with pytest.raises(StorageError, match="duplicate document id: 'dup'"):
                people.insert(retry, doc_id="dup")
        with pytest.raises(StorageError, match="duplicate document id: 'dup'"):
            people.insert_many([{"city": "Austin"}, {"city": "Oakland"}],
                               doc_ids=["fresh", "dup"])
        with pytest.raises(StorageError, match="duplicate document id: 'twice'"):
            people.insert_many([{"city": "Austin"}, {"city": "Oakland"}],
                               doc_ids=["twice", "twice"])
        assert len(people) == 1
        assert [len(r.log) for r in store.cluster.all_replicas()] == logs
        assert people.find({"_id": "dup"}) == [{"city": "SF", "_id": "dup"}]
        store.tick()  # a duplicate that reached a shard's log would crash replay

    def test_id_is_free_again_after_delete_or_failed_append(self):
        store = ClusteredDocumentStore("dup", n_shards=2, n_replicas=3,
                                       clock=SimClock(), seed=5)
        people = store.create_collection("people", partition_field="city")
        people.insert({"city": "SF"}, doc_id="a")
        assert people.delete({"_id": "a"}) == 1
        people.insert({"city": "Oakland"}, doc_id="a")
        assert people.get("a")["city"] == "Oakland"
        shard = store.cluster.shards[people.shards_for_filter({"city": "Austin"})[0][0]]
        for replica in shard.replicas[:2]:
            store.cluster.kill_replica(replica.replica_id)
        with pytest.raises(ClusterUnavailableError):
            people.insert({"city": "Austin"}, doc_id="b")
        store.cluster.settle()
        people.insert({"city": "Austin"}, doc_id="b")
        assert len(people) == 2

    @pytest.mark.parametrize("documents, doc_ids", [
        ([{"a": 1}, {"a": 2}], ["x"]),  # a bare StopIteration escaped
        ([{"a": 1}], ["y", "z"]),  # "z" was dropped: ["y"] came back
    ])
    def test_one_id_per_document_or_nothing_appended(self, documents, doc_ids):
        store = ClusteredDocumentStore("ids", n_shards=2, n_replicas=3,
                                       clock=SimClock(), seed=5)
        people = store.create_collection("people")
        logs = [replica.log_digest() for replica in store.cluster.all_replicas()]
        with pytest.raises(StorageError, match="documents but .* document ids"):
            people.insert_many(documents, doc_ids)
        assert [replica.log_digest() for replica in store.cluster.all_replicas()] == logs
        assert len(people) == 0


class TestOneStoredDocument:
    """A clustered insert builds each document's stored form once, at the
    router, and the log and every replica of its shard hold that one
    object; each replica used to build its own (3 per document)."""

    def test_every_replica_and_the_log_share_the_document(self):
        store = ClusteredDocumentStore("once", n_shards=2, n_replicas=3,
                                       clock=SimClock(), seed=5)
        people = store.create_collection("people", partition_field="city")
        people.insert_many(
            [{"city": city, "n": n} for n, city in enumerate(["SF", "Oakland", "Austin", "SF"])]
        )
        people.insert({"city": "Denver", "n": 4}, doc_id="one")
        for shard in store.cluster.shards:
            store.cluster.kill_replica(shard.replicas[1].replica_id)
        store.cluster.settle()  # the killed replicas replay their logs
        stored = 0
        for shard in store.cluster.shards:
            heaps = [replica.state.collection("people")._heap for replica in shard.replicas]
            logged = [document for op in shard.replicas[0].log
                      if op["op"] == "insert_many" for document in op["documents"]]
            documents = heaps[0].select(())[0]
            assert [id(d) for d in documents] == [id(d) for d in logged]
            for document in documents:
                assert all(heap.get(document["_id"]) is document for heap in heaps)
            stored += len(documents)
        assert stored == len(people) == 5
        assert people.get("one") == {"city": "Denver", "n": 4, "_id": "one"}


class TestReadOnlyClusteredDocuments:
    """Reads hand out the one stored document the log and every replica
    share, so mutating a result must raise; and only ``find`` reports a
    find (``count`` and the duplicate-id probe under ``insert`` ran the full
    clustered ``find`` and overwrote its stats)."""

    @pytest.fixture
    def people(self):
        store = ClusteredDocumentStore("ro", n_shards=4, n_replicas=3,
                                       clock=SimClock(), seed=5)
        people = store.create_collection("people", partition_field="city")
        cities = ["SF", "Oakland", "Austin", "Denver"]
        people.insert_many(
            [{"city": cities[n % 4], "n": n, "tags": ["a"]} for n in range(12)],
            doc_ids=[f"p{n}" for n in range(12)],
        )
        return people

    def heaps(self, people):
        return [replica.state.collection("people")._heap
                for replica in people._cluster.all_replicas()]

    def stored(self, people):
        return [[dict(d) for d in heap.select(()).rows] for heap in self.heaps(people)]

    def test_mutating_a_result_raises_and_no_replica_changes(self, people):
        before = self.stored(people)
        results = (people.find()[0], people.find({"city": "SF"}, sort="n")[-1],
                   people.find_one({"n": 5}), people.get("p7"))
        for result in results:
            for mutate in (lambda d: d.__setitem__("n", -1), lambda d: d.pop("n"),
                           lambda d: d.update({"city": "Reno"}), lambda d: d.clear()):
                with pytest.raises(TypeError, match="read-only"):
                    mutate(result)
        assert self.stored(people) == before
        people._cluster.settle()
        assert self.stored(people) == before

    def test_reads_hand_out_the_replicas_stored_object(self, people):
        found = people.find({"_id": "p3"})[0]
        assert found is people.get("p3") is people.find_one({"n": 3})
        holders = [heap.get("p3") for heap in self.heaps(people) if heap.get("p3") is not None]
        assert len(holders) == 3 and all(held is found for held in holders)
        assert isinstance(found, StoredDocument)

    def test_update_swaps_in_a_new_read_only_document_on_every_replica(self, people):
        old = people.get("p2")
        assert people.update({"_id": "p2"}, {"n": 20}) == 1
        new = people.get("p2")
        assert old["n"] == 2 and new == {**old, "n": 20} and new is not old
        held = [heap.get("p2") for heap in self.heaps(people) if heap.get("p2") is not None]
        assert len(held) == 3 and all(isinstance(d, StoredDocument) and d == new for d in held)
        with pytest.raises(TypeError):
            new["n"] = 21

    def test_only_find_reports_a_find(self, people, monkeypatch):
        samples = []
        metric = people._cluster._metric
        monkeypatch.setattr(people._cluster, "_metric",
                            lambda name, *a, **kw: (samples.append(name), metric(name, *a, **kw)))
        assert len(people.find({"n": {"$gte": 0}})) == 12
        stats, scanned = dict(people.last_find_stats), samples.count("cluster.docs_scanned")
        assert stats["rows"] == 12 and scanned == 1
        assert people.delete({"_id": "p1"}) == 1
        people.insert({"city": "SF", "n": 1}, doc_id="p1")  # probes that p1 is free
        people.insert_many([{"city": "Reno", "n": 12}])
        assert people.count() == 13 and people.count({"city": "SF"}) == 4
        assert people.count({"_id": "p1"}) == 1 and people.count({"_id": "gone"}) == 0
        assert set(people.distinct("city")) == {"SF", "Oakland", "Austin", "Denver", "Reno"}
        assert sorted(people.distinct("n")) == list(range(13))
        with pytest.raises(StorageError, match="duplicate"):
            people.insert({"city": "SF"}, doc_id="p1")
        assert people.last_find_stats == stats
        assert samples.count("cluster.docs_scanned") == scanned

    def test_count_and_distinct_answer_as_find(self, people):
        for spec in ({}, {"city": "SF"}, {"city": {"$in": ["SF", "Austin"]}},
                     {"n": {"$gte": 6}}, {"_id": "p4"}, {"_id": "nope"}):
            assert people.count(spec) == len(people.find(spec))
        assert people.distinct("city") == list(dict.fromkeys(d["city"] for d in people.find()))
        assert people.distinct("tags") == [["a"]]


class TestClusteredWritesAreDecidedOnce:
    """A clustered ``update`` / ``delete`` is decided once, on the pruned
    primaries, and logged as its effect: every replica applied the filter
    and the change itself (and rebuilt its whole state on a refusal), and
    ``get`` of an id no document holds read every shard's primary."""

    @pytest.fixture
    def people(self):
        with replicas_decide_nothing():
            store = ClusteredDocumentStore("once", n_shards=4, n_replicas=3,
                                           clock=SimClock(), seed=5)
            people = store.create_collection("people", partition_field="city")
            cities = ["SF", "Oakland", "Austin", "Denver"]
            people.insert_many([{"city": cities[n % 4], "n": n} for n in range(16)],
                               doc_ids=[f"p{n}" for n in range(16)])
            yield people

    def test_replicas_apply_the_decided_effect(self, people):
        cluster = people._cluster
        assert people.update({"n": {"$gte": 8}}, {"big": True}) == 8
        assert people.delete({"city": "SF"}) == 4
        assert people.update({"_id": "p1"}, {"n": -1}) == 1
        for shard in cluster.shards:
            cluster.kill_replica(shard.replicas[0].replica_id)
        cluster.settle()  # the killed replicas replay their logs
        kinds = {op["op"] for r in cluster.all_replicas() for op in r.log}
        assert kinds == {"create_collection", "insert_many", "replace_rows", "remove_rows"}
        for shard in cluster.shards:
            heaps = [replica.state.collection("people")._heap for replica in shard.replicas]
            logged = {}
            for op in shard.replicas[0].log:
                if op["op"] == "replace_rows":
                    logged.update((row["_id"], row) for _, row in op["rows"])
            for doc_id, image in logged.items():
                if heaps[0].get(doc_id) is not None:
                    assert all(heap.get(doc_id) is image for heap in heaps)
        big = sorted(d["_id"] for d in people.find({"big": True}))
        assert big == sorted(f"p{n}" for n in range(8, 16) if n % 4)  # SF's n % 4 == 0
        assert people.get("p1")["n"] == -1 and people.count() == 12

    @pytest.mark.parametrize("changes, error", [
        ({"_id": "x"}, "cannot change _id"),
        ({"city": "Reno"}, "cannot change partition field 'city'"),
    ])
    def test_a_refused_update_reaches_no_log_and_replays_nothing(self, people, monkeypatch,
                                                                 changes, error):
        replays = []
        replay = Replica._replay
        monkeypatch.setattr(Replica, "_replay", lambda self: (replays.append(self), replay(self)))
        digests = [replica.log_digest() for replica in people._cluster.all_replicas()]
        with pytest.raises(StorageError, match=error):
            people.update({}, changes)
        assert [replica.log_digest() for replica in people._cluster.all_replicas()] == digests
        assert replays == []

    def test_an_unplaced_or_deleted_id_reads_no_shard(self, people, monkeypatch):
        reads = []
        cluster = people._cluster
        for name in ("primary_state", "quorum_state_of"):
            real = getattr(cluster, name)
            monkeypatch.setattr(
                cluster, name,
                lambda *args, _real=real, _name=name: (reads.append(_name), _real(*args))[1],
            )
        assert people.get("p2")["n"] == 2 and reads == ["quorum_state_of"]
        assert people.delete({"_id": "p2"}) == 1
        reads.clear()
        for absent in ("p2", "never"):
            with pytest.raises(QueryError, match=f"no document with id '{absent}'"):
                people.get(absent)
        assert reads == []

    def test_the_placement_map_holds_exactly_the_stored_ids(self, people):
        people.delete({"n": {"$lt": 5}})
        people.delete({"city": "Oakland"})
        people.insert({"city": "SF", "n": 0}, doc_id="p0")
        stored = {d["_id"]: shard for shard in range(4)
                  for d in people._slices([shard])[0].find()}
        assert people._doc_shard == stored
