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

And the clustered key-value store answers as the single-node one does,
through replica kills, restarts and catch-up.
"""

import json
from concurrent.futures import ThreadPoolExecutor

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import SimClock
from repro.core.resilience import ChaosController, ChaosSpec
from repro.errors import ClusterUnavailableError
from repro.storage.cluster import ClusteredKeyValueStore, ReplicaStatus, StoreCluster
from repro.storage.keyvalue import KeyValueStore


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
        # the clustered side only
        st.tuples(st.just("kill"), st.integers(0, 11)),
        st.tuples(st.sampled_from(["tick", "settle"])),
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
    the same exception type, while replicas die, restart and catch up.
    (It found a refused TTL that still wrote, and an expired key that
    deleted as present, both on the single node.)"""

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
            elif kind == "kill":
                # one replica down per shard at most, so a quorum always answers
                victim = cluster.all_replicas()[args[0] % len(cluster.all_replicas())]
                shard = cluster.shards[victim.shard_index]
                if all(r.status is ReplicaStatus.ALIVE and r.applied == shard.acked
                       for r in shard.replicas):
                    cluster.kill_replica(victim.replica_id)
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
