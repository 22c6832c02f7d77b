"""A14 — sharded substrate: chaos durability + sub-linear query scaling.

Two gated claims for the sharded, replicated data substrate:

* **Durability (part A)** — under a seeded chaos schedule (replica
  kills, minority partitions, degraded replicas) interleaved with
  writes, *every acked write* survives failover and anti-entropy: the
  final quorum-read state contains exactly the acked set, replicas
  converge to byte-identical logs, and running the same scenario twice
  produces byte-identical cluster exports.

* **Scale (part B)** — growing the HR corpus 4x (25k -> 100k seekers)
  while scaling shards 2 -> 8 keeps the *pruned* partition-key query's
  scanned-document count roughly flat (gate: <= 2.0x, vs linear 4.0x)
  because shard pruning bounds work to one shard's slice; the fan-out
  query scans the whole corpus and grows linearly.  Wall-clock gets a loose gate
  (<= 2.5x vs the linear 4.0x) since CI hardware varies; the scanned
  counts are deterministic and gated strictly.

The checked-in ``benchmarks/BENCH_shard.json`` baseline stores only
seed-deterministic quantities (acked counts, scanned documents, export
digest), so it never flaps across machines.

A third gate, ``test_a14_gather_overhead``, bounds what the SQL router
adds on top of the shard it routes to: a gather pruned to one shard reads
that shard's tables in place, so it must cost about what the same
statement costs on the shard's own ``Database``.  Its twin,
``test_a14_find_overhead``, bounds the document router the same way: a
``find`` pruned to one shard hands that shard's slice to the one find path
(``document.store.find_in``), so it must cost about what the same ``find``
costs on the shard's own ``Collection``.
"""

import hashlib
import json
import time
from pathlib import Path

from _artifacts import record, table

from repro.clock import SimClock
from repro.core.resilience import ChaosController, ChaosSpec
from repro.errors import ClusterUnavailableError
from repro.hr.data import build_sharded_enterprise
from repro.storage.cluster import StoreCluster
from repro.storage.relational.sql import execute_sql

SEED = 7
CHAOS_SEED = 11
N_WRITES = 200
FAULT_RATE = 0.12
#: (n_seekers, n_shards) ladder for the scale gate.
SCALES = [(25_000, 2), (50_000, 4), (100_000, 8)]
#: Pruned scanned-docs growth over a 4x corpus must stay under this.
#: Not 1.0: the partition key (city) is coarse, so each shard holds a
#: small integer number of whole city cohorts and placement is lumpy —
#: but well under the linear 4.0x a flat scan would show.
SCANNED_RATIO_GATE = 2.0
#: Pruned wall-clock growth over a 4x corpus (loose: CI hardware varies).
WALL_RATIO_GATE = 2.5

#: A one-shard gather through the router vs the statement on that shard.
#: The copy loop this replaced (re-insert, re-validate and re-index the
#: slice per statement) read ~3x.
GATHER_OVERHEAD_GATE = 1.5
#: A one-shard find through the router vs the find on that shard's slice.
FIND_OVERHEAD_GATE = 1.5

BASELINE_PATH = Path(__file__).parent / "BENCH_shard.json"


def apply_kv(state, op):
    state[op["key"]] = op["value"]
    return op["value"]


def run_durability():
    """Seeded chaos run; returns the digest of deterministic outcomes."""
    cluster = StoreCluster(
        "bench", 4, 3, dict, apply_kv, clock=SimClock(), seed=SEED
    )
    chaos = ChaosController(
        ChaosSpec(
            replica_kill_rate=FAULT_RATE,
            shard_partition_rate=FAULT_RATE / 2,
            replica_latency_rate=FAULT_RATE,
        ),
        seed=CHAOS_SEED,
    )
    acked = {}
    rejected = 0
    for i in range(N_WRITES):
        if i % 5 == 0:
            chaos.strike_store_cluster(cluster)
        key = f"key-{i % 31}"
        try:
            cluster.append(key, {"key": key, "value": i})
            acked[key] = i
        except ClusterUnavailableError:
            rejected += 1
        if i % 4 == 3:
            cluster.tick()
    cluster.settle()

    lost = [
        key for key, value in acked.items()
        if cluster.quorum_state(key).get(key) != value
    ]
    diverged = [
        shard.shard_index for shard in cluster.shards
        if len({r.log_digest() for r in shard.replicas}) != 1
    ]
    events = {}
    for event in cluster.events:
        events[event["kind"]] = events.get(event["kind"], 0) + 1
    export_digest = hashlib.md5(
        cluster.export_json().encode("utf-8")
    ).hexdigest()
    return {
        "writes": N_WRITES,
        "acked_keys": len(acked),
        "rejected": rejected,
        "lost_acked_writes": len(lost),
        "diverged_shards": len(diverged),
        "promotions": sum(s.promotions for s in cluster.shards),
        "read_repairs": sum(s.read_repairs for s in cluster.shards),
        "events": dict(sorted(events.items())),
        "export_digest": export_digest,
    }


def run_scale_point(n_seekers, n_shards):
    """Build one ladder rung and time pruned vs fan-out profile queries."""
    t0 = time.perf_counter()
    enterprise = build_sharded_enterprise(
        seed=SEED, n_seekers=n_seekers, n_shards=n_shards, n_replicas=3
    )
    build_seconds = time.perf_counter() - t0
    profiles = enterprise.profiles

    t0 = time.perf_counter()
    pruned_rows = profiles.find({"city": "Austin"}, limit=50)
    pruned_seconds = time.perf_counter() - t0
    pruned_stats = dict(profiles.last_find_stats)

    t0 = time.perf_counter()
    fanout_rows = profiles.find(
        {"years_experience": {"$gte": 18}}, limit=50
    )
    fanout_seconds = time.perf_counter() - t0
    fanout_stats = dict(profiles.last_find_stats)

    sql = enterprise.database.execute(
        "SELECT COUNT(*) AS n FROM seekers WHERE city = 'Austin'"
    )
    sql_stats = dict(enterprise.database.last_execute_stats)
    return {
        "n_seekers": n_seekers,
        "n_shards": n_shards,
        "pruned": {
            "rows": len(pruned_rows),
            "docs_scanned": pruned_stats["docs_scanned"],
            "shards_scanned": pruned_stats["shards_scanned"],
            "seconds": round(pruned_seconds, 4),
        },
        "fanout": {
            "rows": len(fanout_rows),
            "docs_scanned": fanout_stats["docs_scanned"],
            "shards_scanned": fanout_stats["shards_scanned"],
            "seconds": round(fanout_seconds, 4),
        },
        "sql_pruned": {
            "count": sql.scalar(),
            "shards_scanned": sql_stats["shards_scanned"],
            "shards_total": sql_stats["shards_total"],
        },
        "build_seconds": round(build_seconds, 2),
    }


def measure() -> dict:
    durability_a = run_durability()
    durability_b = run_durability()
    ladder = [run_scale_point(n, shards) for n, shards in SCALES]
    return {
        "seed": SEED,
        "chaos_seed": CHAOS_SEED,
        "fault_rate": FAULT_RATE,
        "durability": durability_a,
        "durability_replay_identical": durability_a == durability_b,
        "scale": ladder,
    }


def test_a14_shard_substrate():
    """Artifact + gates: zero acked loss, sub-linear pruned-query growth."""
    baseline = (
        json.loads(BASELINE_PATH.read_text()) if BASELINE_PATH.exists() else None
    )
    results = measure()

    # Part A gates: durability and determinism.
    durability = results["durability"]
    assert durability["lost_acked_writes"] == 0, durability
    assert durability["diverged_shards"] == 0, durability
    assert durability["promotions"] > 0, "chaos never forced a failover"
    assert results["durability_replay_identical"], "seeded replay diverged"

    # Part B gates: 4x corpus, pruned work roughly flat.
    small, _, large = results["scale"]
    assert large["n_seekers"] == 100_000
    scanned_ratio = (
        large["pruned"]["docs_scanned"] / small["pruned"]["docs_scanned"]
    )
    wall_ratio = large["pruned"]["seconds"] / small["pruned"]["seconds"]
    assert scanned_ratio <= SCANNED_RATIO_GATE, (
        f"pruned scanned-docs grew {scanned_ratio:.2f}x over a 4x corpus "
        f"(gate {SCANNED_RATIO_GATE}x): shard pruning is not bounding work"
    )
    assert wall_ratio <= WALL_RATIO_GATE, (
        f"pruned query wall-clock grew {wall_ratio:.2f}x over a 4x corpus "
        f"(gate {WALL_RATIO_GATE}x, linear would be 4.0x)"
    )
    for point in results["scale"]:
        # pruning touched one shard; the fan-out control touched all
        assert point["pruned"]["shards_scanned"] == 1, point
        assert point["fanout"]["shards_scanned"] == point["n_shards"], point
        assert point["sql_pruned"]["shards_scanned"] == 1, point
        assert (
            point["pruned"]["docs_scanned"] < point["fanout"]["docs_scanned"]
        ), point

    rows = [
        [
            f"{point['n_seekers'] // 1000}k",
            point["n_shards"],
            point["pruned"]["docs_scanned"],
            f"{point['pruned']['seconds'] * 1000:.1f}ms",
            point["fanout"]["docs_scanned"],
            f"{point['fanout']['seconds'] * 1000:.1f}ms",
            f"{point['build_seconds']:.1f}s",
        ]
        for point in results["scale"]
    ]
    record(
        "a14_shard_substrate",
        f"A14 — sharded substrate, seed {SEED}\n\n"
        f"durability: {durability['acked_keys']} live keys from "
        f"{durability['writes']} writes at fault rate {FAULT_RATE} "
        f"({durability['rejected']} rejected below quorum, "
        f"{durability['promotions']} failovers, "
        f"{durability['read_repairs']} read repairs, "
        f"0 acked writes lost)\n"
        f"chaos events: {json.dumps(durability['events'])}\n"
        f"replay determinism: byte-identical "
        f"({durability['export_digest'][:12]}...)\n\n"
        "scale ladder (pruned = partition-key query, fan-out = control):\n"
        + table(
            ["corpus", "shards", "pruned docs", "pruned t",
             "fan-out docs", "fan-out t", "build"],
            rows,
        )
        + f"\n\npruned scanned-docs growth over 4x corpus: "
        f"{scanned_ratio:.2f}x (gate {SCANNED_RATIO_GATE}x); "
        f"wall-clock {wall_ratio:.2f}x (gate {WALL_RATIO_GATE}x; "
        "linear would be 4.0x)",
    )

    # Regression gate: the deterministic quantities must match baseline.
    if baseline is not None:
        assert durability["export_digest"] == (
            baseline["durability"]["export_digest"]
        ), "seeded chaos run diverged from checked-in baseline"
        assert durability["acked_keys"] == baseline["durability"]["acked_keys"]
        for point, base_point in zip(results["scale"], baseline["scale"]):
            assert point["pruned"]["docs_scanned"] == (
                base_point["pruned"]["docs_scanned"]
            ), (point["n_seekers"], "pruned docs_scanned drifted")
            assert point["sql_pruned"]["count"] == (
                base_point["sql_pruned"]["count"]
            )


def best_ms(run):
    """Best of 7 wall-clock runs in ms, and the last result."""
    best = float("inf")
    for _ in range(7):
        t0 = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - t0)
    return best * 1000, result


def test_a14_gather_overhead():
    """Gate: a pruned aggregate costs what it costs on the owning shard."""
    database = build_sharded_enterprise(
        seed=SEED, n_seekers=20_000, n_shards=4, n_replicas=3
    ).database
    sql = "SELECT COUNT(*) AS n FROM seekers WHERE city = :city AND title LIKE :title"
    parameters = {"city": "Austin", "title": "%scientist%"}
    shard = database.table("seekers").shard_for_value("Austin")
    primary = database.cluster.primary_state(shard)
    direct_ms, direct = best_ms(lambda: execute_sql(primary, sql, parameters))
    routed_ms, routed = best_ms(lambda: database.execute(sql, parameters))
    stats = database.last_execute_stats
    direct_count, routed_count = direct.scalar(), routed.scalar()
    assert routed_count == direct_count > 0
    assert stats["shards_scanned"] == 1, stats
    ratio = routed_ms / direct_ms
    record(
        "a14_gather_overhead",
        "A14 — one-shard gather through ShardedDatabase.execute vs execute_sql "
        "on that shard's primary\n"
        f"{sql}\n"
        + table(
            ["rows in slice", "matches", "on the shard", "through the router", "ratio"],
            [[stats["rows_scanned"], routed_count, f"{direct_ms:.2f}ms",
              f"{routed_ms:.2f}ms", f"{ratio:.2f}x"]],
        )
        + f"\n\ngate {GATHER_OVERHEAD_GATE}x",
    )
    assert ratio <= GATHER_OVERHEAD_GATE, (
        f"one-shard gather costs {ratio:.2f}x the statement on the shard "
        f"(gate {GATHER_OVERHEAD_GATE}x): the router is copying again"
    )


def test_a14_find_overhead():
    """Gate: a pruned find costs what it costs on the owning shard's slice."""
    profiles = build_sharded_enterprise(
        seed=SEED, n_seekers=20_000, n_shards=4, n_replicas=3
    ).profiles
    query = dict(
        filter_spec={"city": "Austin", "years_experience": {"$gte": 10}},
        sort="years_experience", descending=True, limit=50,
    )
    (shard,), pruned = profiles.shards_for_filter(query["filter_spec"])
    primary = profiles._cluster.primary_state(shard).collection(profiles.name)
    direct_ms, direct = best_ms(lambda: primary.find(**query))
    routed_ms, routed = best_ms(lambda: profiles.find(**query))
    stats = profiles.last_find_stats
    assert pruned and stats["shards_scanned"] == 1, stats
    assert routed == direct and len(routed) == 50
    ratio = routed_ms / direct_ms
    # Printed, not recorded: a timing table is not an artifact to commit.
    print(
        "\n--- a14_find_overhead ---\n"
        "A14 — one-shard find through ClusteredCollection.find vs Collection.find "
        "on that shard's primary\n"
        f"{query}\n"
        + table(
            ["docs in slice", "matches", "on the shard", "through the router", "ratio"],
            [[stats["docs_scanned"], len(primary.find(query["filter_spec"])),
              f"{direct_ms:.2f}ms", f"{routed_ms:.2f}ms", f"{ratio:.2f}x"]],
        )
        + f"\n\ngate {FIND_OVERHEAD_GATE}x"
    )
    assert ratio <= FIND_OVERHEAD_GATE, (
        f"one-shard find costs {ratio:.2f}x the find on the shard "
        f"(gate {FIND_OVERHEAD_GATE}x): the router has grown its own merge again"
    )


def write_baseline() -> None:
    results = measure()
    # strip wall-clock fields: the baseline holds only deterministic data
    for point in results["scale"]:
        point["pruned"].pop("seconds", None)
        point["fanout"].pop("seconds", None)
        point.pop("build_seconds", None)
    BASELINE_PATH.write_text(
        json.dumps(results, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {BASELINE_PATH}")


if __name__ == "__main__":
    write_baseline()
