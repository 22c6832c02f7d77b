"""Property-based tests for the sharded, replicated store cluster.

The two acceptance properties for the shard substrate:

1. **Durability** — across seeds x fault rates x kill points, every
   *acked* write survives failover: once ``append`` returns, the value
   is observable by quorum reads forever, no matter which replicas die,
   restart, or partition afterwards.  Holds on the serial driver and
   under a real thread pool.

2. **Determinism** — the same seed and kill schedule produce
   byte-identical cluster exports: replica logs, failover events and
   anti-entropy repairs all land identically.

A quorum read's steady-state shortcut answers as the sorted rule does.
And the clustered key-value store, a clustered collection's point ops and
filtered writes, and a sharded table's writes answer as the single-node
ones do, through replica kills, restarts, partitions, degraded replicas
and catch-up; a refused write reaches no log and rebuilds no replica.
"""

import json
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import SimClock
from repro.core.resilience import ChaosController, ChaosSpec
from repro.errors import ClusterUnavailableError, StorageError
from repro.storage.cluster import (
    ClusteredDocumentStore,
    ClusteredKeyValueStore,
    FailureDetector,
    Replica,
    ReplicaStatus,
    ShardedDatabase,
    ShardGroup,
    StoreCluster,
)
from repro.storage.document.store import Collection
from repro.storage.keyvalue import KeyValueStore
from repro.storage.relational import Database
from repro.storage.schema import Column, ColumnType, TableSchema
from row_heaps import replicas_decide_nothing


def apply_kv(state, op):
    state[op["key"]] = op["value"]
    return op["value"]


def run_chaos_writes(seed, fault_rate, kill_point, n_writes=40):
    """One seeded run: interleave writes with chaos strikes and ticks.

    Returns ``(cluster, acked_dict, export_json)``.
    """
    cluster = StoreCluster(
        "prop", 4, 3, dict, apply_kv, clock=SimClock(), seed=seed
    )
    chaos = ChaosController(
        ChaosSpec(
            replica_kill_rate=fault_rate,
            shard_partition_rate=fault_rate / 2,
            replica_latency_rate=fault_rate,
        ),
        seed=seed + 1,
    )
    acked = {}
    for i in range(n_writes):
        if i >= kill_point and i % 5 == kill_point % 5:
            chaos.strike_store_cluster(cluster)
        key = f"key-{i % 13}"
        try:
            cluster.append(key, {"key": key, "value": i})
            acked[key] = i
        except ClusterUnavailableError:
            pass
        if i % 4 == 3:
            cluster.tick()
    cluster.settle(ticks=80)
    return cluster, acked, cluster.export_json()


@st.composite
def chaos_scenario(draw):
    return (
        draw(st.integers(min_value=0, max_value=10_000)),
        draw(st.floats(min_value=0.0, max_value=0.3)),
        draw(st.integers(min_value=0, max_value=39)),
    )


class TestAckedWriteDurability:
    @settings(max_examples=15, deadline=None)
    @given(chaos_scenario())
    def test_quorum_reads_observe_latest_acked_write(self, scenario):
        seed, fault_rate, kill_point = scenario
        cluster, acked, _ = run_chaos_writes(seed, fault_rate, kill_point)
        for key, value in acked.items():
            state = cluster.quorum_state(key)
            assert state[key] == value, (key, seed, fault_rate, kill_point)

    @settings(max_examples=10, deadline=None)
    @given(chaos_scenario())
    def test_replicas_converge_to_identical_logs(self, scenario):
        seed, fault_rate, kill_point = scenario
        cluster, _, _ = run_chaos_writes(seed, fault_rate, kill_point)
        for shard in cluster.shards:
            digests = {replica.log_digest() for replica in shard.replicas}
            assert len(digests) == 1, shard.shard_index

    @settings(max_examples=10, deadline=None)
    @given(chaos_scenario())
    def test_acked_count_matches_shard_history(self, scenario):
        seed, fault_rate, kill_point = scenario
        cluster, _, _ = run_chaos_writes(seed, fault_rate, kill_point)
        for shard in cluster.shards:
            for replica in shard.replicas:
                assert replica.applied == shard.acked


class TestSeedDeterminism:
    @settings(max_examples=10, deadline=None)
    @given(chaos_scenario())
    def test_same_scenario_byte_identical_export(self, scenario):
        seed, fault_rate, kill_point = scenario
        _, acked_a, export_a = run_chaos_writes(seed, fault_rate, kill_point)
        _, acked_b, export_b = run_chaos_writes(seed, fault_rate, kill_point)
        assert acked_a == acked_b
        assert export_a == export_b

    def test_different_seeds_usually_diverge(self):
        exports = {
            run_chaos_writes(seed, 0.25, 5)[2] for seed in range(5)
        }
        assert len(exports) > 1

    @settings(max_examples=6, deadline=None)
    @given(st.integers(min_value=0, max_value=1000),
           st.floats(min_value=0.05, max_value=0.3))
    def test_chaos_schedule_is_key_isolated(self, seed, rate):
        # Enabling the latency fault family must not shift the kill
        # schedule: kill decisions draw from their own counter streams.
        def kills_only(with_latency):
            cluster = StoreCluster("iso", 2, 3, dict, apply_kv,
                                   clock=SimClock(), seed=seed)
            chaos = ChaosController(
                ChaosSpec(
                    replica_kill_rate=rate,
                    replica_latency_rate=0.5 if with_latency else 0.0,
                ),
                seed=seed,
            )
            killed = []
            for _ in range(10):
                struck = chaos.strike_store_cluster(cluster)
                killed.append(tuple(struck["killed"]))
                cluster.settle(1)
            return killed

        assert kills_only(False) == kills_only(True)


class TestThreadBackend:
    """The same durability property under wall-clock concurrency.

    Writers race on a shared cluster from a thread pool; each writer owns
    a disjoint key range, so per-key order is well defined even though
    shard-level interleaving is arbitrary.  Chaos strikes happen from the
    main thread between rounds.
    """

    def run_threaded(self, seed, n_workers=4, rounds=6):
        cluster = StoreCluster(
            "threaded", 4, 3, dict, apply_kv, clock=SimClock(), seed=seed
        )
        chaos = ChaosController(
            ChaosSpec(replica_kill_rate=0.2), seed=seed
        )
        acked = {}

        def writer(worker, round_no):
            results = {}
            for i in range(5):
                key = f"w{worker}-k{i}"
                try:
                    cluster.append(
                        key, {"key": key, "value": (round_no, i)}
                    )
                    results[key] = (round_no, i)
                except ClusterUnavailableError:
                    pass
            return results

        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            for round_no in range(rounds):
                chaos.strike_store_cluster(cluster)
                futures = [
                    pool.submit(writer, worker, round_no)
                    for worker in range(n_workers)
                ]
                for future in futures:
                    acked.update(future.result())
                cluster.tick()
        cluster.settle(ticks=80)
        return cluster, acked

    @settings(max_examples=5, deadline=None)
    @given(st.integers(min_value=0, max_value=1000))
    def test_threaded_quorum_reads_observe_latest_acked(self, seed):
        cluster, acked = self.run_threaded(seed)
        for key, value in acked.items():
            assert cluster.quorum_state(key)[key] == value

    @settings(max_examples=5, deadline=None)
    @given(st.integers(min_value=0, max_value=1000))
    def test_threaded_replicas_converge(self, seed):
        cluster, _ = self.run_threaded(seed)
        for shard in cluster.shards:
            digests = {replica.log_digest() for replica in shard.replicas}
            assert len(digests) == 1

    def test_threaded_kv_store_front(self):
        kv = ClusteredKeyValueStore("t", n_shards=4, n_replicas=3,
                                    clock=SimClock(), seed=2)

        def writer(worker):
            for i in range(20):
                kv.put(f"w{worker}", f"k{i}", i)

        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(writer, range(4)))
        for worker in range(4):
            assert len(kv.keys(f"w{worker}")) == 20
            assert kv.get(f"w{worker}", "k7") == 7


# ----------------------------------------------------------------------
# A quorum read == the sorted rule
# ----------------------------------------------------------------------
def sorted_rule(shard):
    """The general quorum-read rule, kept here as the oracle: the ``quorum``
    contactable replicas first by ``(-applied, index)`` read, the first
    answers and the others catch up to it.  Returns ``(state, repairs)``
    with ``repairs`` as ``(replica_id, caught_up_to, ops)`` — or the error
    the read must raise — and touches nothing."""
    contactable = [
        r for r in shard.replicas if r.status is ReplicaStatus.ALIVE and r.reachable
    ]
    candidates = sorted(contactable, key=lambda r: (-r.applied, r.index))
    if len(candidates) < shard.quorum:
        return ClusterUnavailableError(
            f"shard {shard.shard_index}: {len(candidates)} live replicas, "
            f"read quorum is {shard.quorum}"
        )
    best, *others = candidates[: shard.quorum]
    if best.applied < shard.acked:
        return ClusterUnavailableError(
            f"shard {shard.shard_index}: freshest live replica at seq "
            f"{best.applied} < acked {shard.acked}"
        )
    repairs = [
        (r.replica_id, best.applied, best.applied - r.applied)
        for r in others
        if r.applied < best.applied
    ]
    return best.state, repairs


@st.composite
def replica_sets(draw):
    """``(acked, [(status, reachable, applied <= acked)] * R)``, R 3 or 5,
    leaning towards the steady state so both read paths are drawn."""
    n_replicas = draw(st.sampled_from([3, 5]))
    acked = draw(st.integers(0, 4))
    status = st.sampled_from([ReplicaStatus.ALIVE] * 3 + [ReplicaStatus.SYNCING, ReplicaStatus.DEAD])
    reachable = st.sampled_from([True, True, True, False])
    applied = st.one_of(st.just(acked), st.integers(0, acked))
    replicas = st.tuples(status, reachable, applied)
    return acked, draw(st.lists(replicas, min_size=n_replicas, max_size=n_replicas))


def build_shard(acked, replicas):
    """A shard whose replicas hold the drawn prefixes of ``acked`` ops."""
    events = []
    shard = ShardGroup(
        0, len(replicas), dict, apply_kv, FailureDetector(3.0),
        lambda kind, **detail: events.append((kind, detail)),
    )
    for seq in range(acked):
        shard.append({"key": f"k{seq % 2}", "value": seq})
    for replica, (status, reachable, applied) in zip(shard.replicas, replicas):
        del replica.log[applied:]
        replica._replay()
        if status is ReplicaStatus.DEAD:
            replica.kill()
        replica.status, replica.reachable = status, reachable
    return shard, events


class TestQuorumReadIsTheSortedRule:
    """Whichever path a read takes, it returns the state object the sorted
    rule picks, raises its error, and repairs what it repairs."""

    @settings(max_examples=400, deadline=None)
    @given(replica_sets())
    def test_quorum_state_matches_the_sorted_rule(self, drawn):
        shard, events = build_shard(*drawn)
        expected = sorted_rule(shard)
        if isinstance(expected, ClusterUnavailableError):
            with pytest.raises(ClusterUnavailableError) as raised:
                shard.quorum_state()
            assert str(raised.value) == str(expected)
            assert (events, shard.read_repairs) == ([], 0)
            return
        state, repairs = expected
        logs = {r.replica_id: r.applied for r in shard.replicas}
        assert shard.quorum_state() is state
        assert events == [
            ("read_repair", {"shard": 0, "replica": replica, "caught_up_to": to})
            for replica, to, _ in repairs
        ]
        assert shard.read_repairs == sum(ops for *_, ops in repairs)
        logs.update((replica, to) for replica, to, _ in repairs)
        assert {r.replica_id: r.applied for r in shard.replicas} == logs


def healthy(shard):
    """Every replica up, reachable and caught up: one may be taken out and a
    quorum still reads and writes."""
    return all(
        r.status is ReplicaStatus.ALIVE and r.reachable and r.applied == shard.acked
        for r in shard.replicas
    )


def fault(cluster, kind, index, ticks):
    """Apply one fault step to the replica ``index`` picks; a kill or a
    partition only strikes a healthy shard, so a quorum always answers."""
    replicas = cluster.all_replicas()
    victim = replicas[index % len(replicas)]
    shard = cluster.shards[victim.shard_index]
    if kind == "degrade":
        cluster.degrade_replica(victim.replica_id, 0.5, ticks)
    elif healthy(shard):
        if kind == "kill":
            cluster.kill_replica(victim.replica_id)
        else:
            cluster.partition_shard(victim.shard_index, (victim.index,), ticks)


fault_steps = st.one_of(
    st.tuples(st.sampled_from(["kill", "partition", "degrade"]), st.integers(0, 11),
              st.integers(1, 4)),
    st.tuples(st.sampled_from(["tick", "settle"])),
)


# ----------------------------------------------------------------------
# Clustered key-value store == the single-node one
# ----------------------------------------------------------------------
kv_namespaces = st.sampled_from(["n1", "n2"])
kv_keys = st.sampled_from(["a", "b", "c"])
kv_steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("put"), kv_namespaces, kv_keys, st.integers(0, 9),
            st.sampled_from([None, None, 0, -1.0, 0.5, 1.0, 3.0]),  # refused TTLs included
        ),
        st.tuples(st.sampled_from(["get", "contains", "delete"]), kv_namespaces, kv_keys),
        st.tuples(st.sampled_from(["keys", "items", "clear"]), kv_namespaces),
        st.tuples(st.just("namespaces")),
        st.tuples(st.just("advance"), st.sampled_from([0.5, 1.0, 2.5])),
        fault_steps,  # the clustered side only
    ),
    max_size=30,
)


def answer(call, *args):
    try:
        result = call(*args)
        return list(result) if call.__name__ == "items" else result
    except Exception as error:  # the property is *which* error
        return type(error)


class TestClusteredKeyValueMatchesSingleNode:
    """One clock, one call sequence: every answer of a
    ``ClusteredKeyValueStore`` equals the single-node store's, or raises
    the same exception type, while replicas die, restart, partition, slow
    down and catch up.  (It found a refused TTL that still wrote, and an
    expired key that deleted as present, both on the single node.)"""

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([1, 2, 3]), kv_steps)
    def test_every_answer_matches(self, n_shards, script):
        clock = SimClock()
        single = KeyValueStore("kv", clock=clock)
        clustered = ClusteredKeyValueStore("kv", n_shards=n_shards, n_replicas=3,
                                           clock=clock, seed=1)
        cluster = clustered.cluster
        for kind, *args in script:
            if kind == "advance":
                clock.advance(*args)
            elif kind in ("kill", "partition", "degrade"):
                fault(cluster, kind, *args)
            elif kind in ("tick", "settle"):
                getattr(cluster, kind)()  # advances the shared clock
            else:
                expected = answer(getattr(single, kind), *args)
                assert answer(getattr(clustered, kind), *args) == expected, (kind, args)
        cluster.settle()
        for namespace in ("n1", "n2"):
            assert list(clustered.items(namespace)) == list(single.items(namespace))
        clock.advance(3.0)  # every TTL lapses, unread: each delete answers "absent"
        for namespace in ("n1", "n2"):
            for key in ("a", "b", "c"):
                assert clustered.delete(namespace, key) == single.delete(namespace, key)
            assert clustered.keys(namespace) == single.keys(namespace)
        for shard in cluster.shards:
            assert len({replica.log_digest() for replica in shard.replicas}) == 1


# ----------------------------------------------------------------------
# A clustered collection's point ops and writes == the single-node collection's
# ----------------------------------------------------------------------
DOC_IDS = ["d0", "d1", "d2", "d3", "doc-000001", "doc-000002", "doc-000003", "missing"]
doc_filters = st.one_of(
    st.sampled_from(DOC_IDS).map(lambda doc_id: {"_id": doc_id}),
    st.sampled_from([None, "SF", "Oakland", 7]).map(lambda city: {"city": city}),
    st.integers(0, 9).map(lambda n: {"n": {"$gte": n}}),
    st.just({}),
)
doc_steps = st.lists(
    st.one_of(
        st.tuples(
            st.just("insert"),
            st.fixed_dictionaries({
                "city": st.one_of(st.none(), st.sampled_from(["SF", "Oakland"]), st.just(7)),
                "n": st.integers(0, 9),
            }),
            st.one_of(st.none(), st.sampled_from(DOC_IDS[:4])),  # None: a generated id
        ),
        st.tuples(st.just("get"), st.sampled_from(DOC_IDS)),
        st.tuples(
            st.just("update"), doc_filters,
            st.one_of(
                st.integers(0, 9).map(lambda n: {"n": n}),
                st.just({"tag": "x"}),
                st.just({"_id": "d9"}),  # refused
                st.just({"city": "SF"}),  # refused where city is the partition field
            ),
        ),
        st.tuples(st.just("delete"), doc_filters),
        fault_steps,  # the clustered side only
    ),
    max_size=30,
)


def refusals(cluster, call, *args):
    """*call*'s answer, and whether a refusal changed a log or rebuilt a replica."""
    digests = [replica.log_digest() for replica in cluster.all_replicas()]
    replays = []
    replay = Replica._replay
    with mock.patch.object(Replica, "_replay", lambda self: (replays.append(self), replay(self))):
        result = answer(call, *args)
    touched = [replica.log_digest() for replica in cluster.all_replicas()] != digests or replays
    return result, isinstance(result, type) and bool(touched)


class TestClusteredCollectionPointOpsMatchSingleNode:
    """``get``, ``insert``, ``update`` and ``delete`` on a
    ``ClusteredCollection`` answer as a single-node ``Collection`` fed the
    same calls — the same id, document, count or exception type — while
    replicas die, restart, partition, slow down and catch up: an acked write
    is visible to every later ``get``, and a refused one reaches no log and
    rebuilds no replica.  A change of the partition field is the cluster's
    own refusal: the single node is not fed it."""

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([1, 2, 3]), st.sampled_from([None, "city"]), doc_steps)
    def test_every_answer_matches(self, n_shards, partition_field, script):
        single = Collection("people")
        with replicas_decide_nothing():
            store = ClusteredDocumentStore("d", n_shards=n_shards, n_replicas=3,
                                           clock=SimClock(), seed=1)
            clustered = store.create_collection("people", partition_field=partition_field)
            cluster = store.cluster
            for kind, *args in script:
                if kind in ("kill", "partition", "degrade"):
                    fault(cluster, kind, *args)
                elif kind in ("tick", "settle"):
                    getattr(cluster, kind)()
                else:
                    own = kind == "update" and partition_field in args[1] and "_id" not in args[1]
                    expected = StorageError if own else answer(getattr(single, kind), *args)
                    actual, touched = refusals(cluster, getattr(clustered, kind), *args)
                    assert actual == expected, (kind, args)
                    assert not touched, (kind, args)
            cluster.settle()
        for doc_id in DOC_IDS:
            assert answer(clustered.get, doc_id) == answer(single.get, doc_id), doc_id
        by_id = lambda doc: doc["_id"]  # noqa: E731
        assert sorted(clustered.find(), key=by_id) == sorted(single.find(), key=by_id)
        for shard in cluster.shards:
            assert len({replica.log_digest() for replica in shard.replicas}) == 1


# ----------------------------------------------------------------------
# A sharded table's writes == the single-node table's
# ----------------------------------------------------------------------
sql_steps = st.lists(
    st.one_of(
        st.tuples(st.just("UPDATE t SET y = y + 1 WHERE city = :c"), st.sampled_from("ABCDE")),
        st.tuples(st.just("UPDATE t SET y = 0 WHERE y > 2 AND x = 0"), st.just("A")),
        st.tuples(st.just("DELETE FROM t WHERE city = :c AND y > 1 AND x = 0"),
                  st.sampled_from("ABCDE")),
        # refused: the key collides on the last shard the IN list prunes to
        st.tuples(st.just("UPDATE t SET id = id + 1 WHERE city IN (:first, :last) AND x = 1"),
                  st.just("")),
        fault_steps,  # the clustered side only
    ),
    max_size=20,
)


class TestShardedWritesMatchSingleNode:
    """A sharded UPDATE / DELETE leaves the rows a single-node table leaves,
    through faults, and one the key index refuses — on the last shard its
    WHERE prunes to — reaches no log, rebuilds no replica and leaves the
    earlier shard's rows as they were."""

    @settings(max_examples=60, deadline=None)
    @given(sql_steps)
    def test_rows_and_refusals_match(self, script):
        with replicas_decide_nothing():
            sharded = ShardedDatabase("t", n_shards=3, n_replicas=3, clock=SimClock(), seed=1)
            single = Database("t")
            schema = TableSchema.build("t", [
                Column("id", ColumnType.INT, primary_key=True), ("city", ColumnType.TEXT),
                ("x", ColumnType.INT), ("y", ColumnType.INT),
            ])
            front = sharded.create_table(schema, partition_column="city")
            single.create_table(schema)
            shards = {front.shard_for_value(city): city for city in reversed("ABCDE")}
            first, last = shards[min(shards)], shards[max(shards)]
            rows = [(i, "ABCDE"[i % 5], 0, i % 4) for i in range(20)]
            rows += [(100, last, 1, 0), (101, last, 1, 0), (200, first, 1, 0)]
            for db in (sharded, single):
                db.table("t").insert_many(dict(zip(("id", "city", "x", "y"), row)) for row in rows)
            cluster = sharded.cluster
            everything = "SELECT * FROM t ORDER BY id"
            for kind, *args in script:
                if kind in ("kill", "partition", "degrade"):
                    fault(cluster, kind, *args)
                elif kind in ("tick", "settle"):
                    getattr(cluster, kind)()
                else:
                    parameters = {"c": args[0], "first": first, "last": last}
                    actual, touched = refusals(cluster, sharded.execute, kind, parameters)
                    if "id = id + 1" in kind:
                        assert actual is StorageError and not touched
                    else:
                        assert single.execute(kind, parameters).rowcount == actual.rowcount
                    assert sharded.query(everything) == single.query(everything), kind
            cluster.settle()
            assert sharded.query(everything) == single.query(everything)
        for shard in cluster.shards:
            assert len({replica.log_digest() for replica in shard.replicas}) == 1
