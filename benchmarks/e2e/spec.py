"""The benchmark's names: workloads, metrics, units, directions, bounds.

``BENCHMARK.json`` at the repository root is this module written out
(``python3 benchmarks/e2e/spec.py`` prints it); the smoke test fails
when the two drift apart.  Names are permanent: later changes are judged
by them.
"""

from __future__ import annotations

import json

#: Seconds one run keeps starting new rounds for (a round always finishes).
RUN_SECONDS = 20
DEFAULT_SEED = 0

WORKLOADS = (
    (
        "surge_fleet",
        "open loop in simulated time: 240 three-stage LLM plans from a 3-tenant surge trace "
        "through admission, fleet, coordinator, agents, LLM reuse ladder, streams and journal",
    ),
    (
        "fleet_blocking",
        "closed batch of 96 diamond plans on the thread backend with LLM calls that really "
        "block: the one workload where core.engine does the work and streams does not",
    ),
    (
        "interactive_mix",
        "closed loop, 1 client, 300 career/employer turns: planners, registries, sharded "
        "stores and streams read back as a log; fleet, overload and engine layers do nothing",
    ),
    (
        "store_mix",
        "closed loop, 1 client, 3000 ops straight on the clustered stores: writes beside "
        "point reads and scans, ticks and one replica kill; no streams, no LLM",
    ),
)

#: (name, unit, better, bound).  What a user of the system sees, and what
#: a change may claim a gain on.  Every workload reports every one.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_wall_p50_ms", "ms", "lower", 0.25),
    ("op_wall_p95_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

#: Deterministic guards: pure functions of the seed, equal to 1e-9
#: between two runs of one seed.  They exist so that a wall-clock win
#: bought by changing what the system *does* shows as a moved number.
#: 0 where a workload has no such quantity.
GUARDS = (
    ("failed_share", "ratio", "lower"),
    ("sim_ops_per_s", "1/sim-s", "higher"),
    ("sim_latency_p50_s", "sim-s", "lower"),
    ("sim_latency_p95_s", "sim-s", "lower"),
    ("sim_tier0_slo_share", "ratio", "higher"),
    ("sim_cost_per_op_usd", "usd", "lower"),
)

_LAYERS = """
streams.publishes count lower
streams.deliveries count lower
streams.subscriptions_peak count lower
streams.deliveries_per_publish ratio lower
streams.publish_self_s s lower
streams.publish_growth_ratio ratio lower
streams.trace_reads count lower
streams.trace_self_s s lower
streams.messages_retained count lower
core.overload.offered count higher
core.overload.admitted count higher
core.overload.queued count lower
core.overload.rejected count lower
core.overload.shed count lower
core.overload.expired count lower
core.overload.brownout_transitions count lower
core.overload.queue_wait_sim_p95_s sim-s lower
core.overload.self_s s lower
core.fleet.rounds count lower
core.fleet.peak_inflight count higher
core.fleet.self_s s lower
core.engine.step_rounds count lower
core.engine.waves count lower
core.engine.self_s s lower
core.engine.overlap_efficiency ratio higher
core.coordinator.nodes_executed count lower
core.coordinator.retries count lower
core.coordinator.parallel_nodes count higher
core.coordinator.self_s s lower
core.agent.activations count lower
core.agent.failures count lower
core.agent.self_s s lower
llm.calls count lower
llm.failures count lower
llm.tokens_in count lower
llm.tokens_out count lower
llm.self_s s lower
llm.slept_s s lower
llm.cache.hit_ratio ratio higher
llm.singleflight.join_ratio ratio higher
llm.batch.join_ratio ratio higher
llm.batch.mean_size ratio higher
llm.capacity.queued_calls count lower
llm.capacity.queue_wait_sim_s sim-s lower
llm.ladder_self_s s lower
core.recovery.journal_records count lower
core.recovery.journal_self_s s lower
observability.spans_started count lower
observability.spans_retained count lower
observability.span_self_s s lower
observability.export_s s lower
observability.export_bytes count lower
core.planners.task_plans count lower
core.planners.data_plans count lower
core.planners.task_plan_self_s s lower
core.planners.data_plan_self_s s lower
core.planners.data_exec_self_s s lower
core.registries.searches count lower
core.registries.self_s s lower
embedding.embeds count lower
embedding.self_s s lower
storage.relational.statements count lower
storage.relational.self_s s lower
storage.relational.shards_scanned_ratio ratio lower
storage.document.finds count lower
storage.document.gets count lower
storage.document.inserts count lower
storage.document.self_s s lower
storage.document.docs_scanned_per_find count lower
storage.document.shards_scanned_ratio ratio lower
storage.keyvalue.gets count lower
storage.keyvalue.puts count lower
storage.keyvalue.self_s s lower
storage.cluster.appends count lower
storage.cluster.quorum_reads count lower
storage.cluster.ticks count lower
storage.cluster.failovers count lower
storage.cluster.unavailable_errors count lower
storage.cluster.router_self_s s lower
storage.cluster.tick_self_s s lower
core.runtime.self_s s lower
hr.apps.self_s s lower
store.kv_get.p50_us us lower
store.kv_put.p50_us us lower
store.doc_get.p50_us us lower
store.doc_insert.p50_us us lower
store.find_pruned.p50_ms ms lower
store.find_fanout.p50_ms ms lower
store.sql_pruned.p50_ms ms lower
store.sql_fanout.p50_ms ms lower
hr.career_ask.p50_ms ms lower
hr.career_ask.p99_ms ms lower
hr.employer_say.p50_ms ms lower
hr.employer_click.p50_ms ms lower
hr.turn_growth_ratio ratio lower
bench.unattributed_share ratio lower
bench.trace_overhead_share ratio lower
bench.generator_s s lower
bench.generator_lateness_s s lower
"""

#: (name, unit, better).  One traced round's layer ledger, plus the
#: guards (the traced and untraced rounds of one seed agree on them).
PER_LAYER = tuple(
    tuple(line.split()) for line in _LAYERS.strip().splitlines()
) + GUARDS


def benchmark_json() -> dict:
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
