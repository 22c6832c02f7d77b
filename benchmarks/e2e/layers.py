"""The layer ledger: where the shims go and what each layer reports.

A layer is a module path under ``src/repro/``.  :func:`install` puts a
shim on each layer's public boundary functions (never on per-message
internals such as ``Subscription.wants``, so the tracing overhead stays
small and is reported, not hidden).  :func:`metrics` turns the traced
round's spans, the shim-side counters and the program's own public
tallies into the per-layer table; :func:`cross_check` refuses to print
that table when a shim's count disagrees with the program's.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.core.agent import Agent
from repro.core.coordinator import PlanExecution, TaskCoordinator
from repro.core.engine import AsyncBackend, SerialBackend, ThreadBackend
from repro.core.fleet import FleetScheduler
from repro.core.overload import AdmissionController, BrownoutController, TrafficGenerator
from repro.core.planners.data_executor import DataPlanExecutor
from repro.core.planners.data_planner import DataPlanner
from repro.core.planners.task_planner import TaskPlanner
from repro.core.recovery import WriteAheadJournal
from repro.core.registries import DataRegistry, SearchableRegistry
from repro.core.runtime import Blueprint
from repro.core.session import SessionManager
from repro.embedding.hashing import HashingEmbedder
from repro.hr.apps.agentic_employer import AgenticEmployerApp
from repro.hr.apps.career_assistant import CareerAssistant
from repro.llm import LLMBatcher, LLMCache, ModelCapacity, SingleFlight
from repro.llm.model import SimulatedLLM
from repro.observability.metrics import MetricsRegistry
from repro.observability.span import Span, Tracer
from repro.storage.cluster.cluster import StoreCluster
from repro.storage.document.store import Collection
from repro.storage.keyvalue.store import KeyValueStore
from repro.storage.relational.database import Database
from repro.streams import StreamStore

from harness import Outcome, Workload, growth_ratio, percentile
from trace import NAME, Recorder


# ----------------------------------------------------------------------
# Shim-side hooks: counts taken at the same boundary as the span
# ----------------------------------------------------------------------
def _plan_of_payload(store, stream_id, payload=None, *args, **kwargs):
    # Worker threads start with an empty stack; an EXECUTE_AGENT control
    # payload still names the plan it belongs to.
    return payload.get("plan") if isinstance(payload, dict) else None


def _after_llm(recorder: Recorder, args: tuple, response: Any) -> None:
    usage = response.usage
    counters = recorder.counters
    counters["llm.tokens_in"] += usage.input_tokens
    counters["llm.tokens_out"] += usage.output_tokens
    counters["llm.slept_s"] += usage.latency * args[0].wall_latency_scale


def _after_round(recorder: Recorder, args: tuple, _result: Any) -> None:
    counters = recorder.counters
    counters["core.fleet.peak_inflight"] = max(
        counters["core.fleet.peak_inflight"], len(args[1])
    )


def _after_wave(recorder: Recorder, args: tuple, _result: Any) -> None:
    if len(args[2]) > 1:
        recorder.counters["core.coordinator.parallel_nodes"] += len(args[2])


def _after_sql(recorder: Recorder, args: tuple, _result: Any) -> None:
    stats = getattr(args[0], "last_execute_stats", None)
    if stats and "shards_total" in stats:
        recorder.counters["storage.relational.shards_scanned"] += stats["shards_scanned"]
        recorder.counters["storage.relational.shards_total"] += stats["shards_total"]


def _after_find(recorder: Recorder, args: tuple, _result: Any) -> None:
    stats = getattr(args[0], "last_find_stats", None)
    if stats:
        recorder.counters["storage.document.docs_scanned"] += stats["docs_scanned"]
        recorder.counters["storage.document.shards_scanned"] += stats["shards_scanned"]
        recorder.counters["storage.document.shards_total"] += stats["shards_total"]


def _router_or_shard(layer: str, call: str):
    """Clustered facades subclass the single-node stores and call them
    per shard: name the two levels apart so calls are counted once."""

    def name(klass: type) -> str:
        clustered = klass.__module__.startswith("repro.storage.cluster")
        return f"{layer}.{call}" if clustered else f"{layer}.shard_{call}"

    return name


#: (class, method, span name, hooks).  Span names are ``<layer>.<call>``.
BOUNDARIES: tuple[tuple[type, str, Any, dict], ...] = (
    (StreamStore, "publish", "streams.publish", {"request_of": _plan_of_payload}),
    (StreamStore, "subscribe", "streams.subscribe", {}),
    (StreamStore, "trace", "streams.trace", {}),
    (TrafficGenerator, "generate", "core.overload.generate", {}),
    (AdmissionController, "offer", "core.overload.offer", {}),
    (AdmissionController, "pop", "core.overload.pop", {}),
    (AdmissionController, "expire", "core.overload.expire", {}),
    (BrownoutController, "observe", "core.overload.observe", {}),
    (BrownoutController, "admit_plan", "core.overload.admit_plan", {}),
    (FleetScheduler, "run", "core.fleet.run", {}),
    (FleetScheduler, "run_offers", "core.fleet.run_offers", {}),
    *(
        (backend, method, f"core.engine.{method}", {"after": hook})
        for backend in (SerialBackend, ThreadBackend, AsyncBackend)
        for method, hook in (("step_round", _after_round), ("run_wave", _after_wave))
    ),
    (TaskCoordinator, "execute_plan", "core.coordinator.execute_plan", {}),
    (TaskCoordinator, "begin_plan", "core.coordinator.begin_plan", {}),
    (
        PlanExecution, "step", "core.coordinator.step",
        {"request_of": lambda execution: execution.plan.plan_id},
    ),
    (
        # the coordinator is an agent too, but its activations are its own layer's
        Agent, "processor",
        lambda klass: (
            "core.coordinator.processor" if issubclass(klass, TaskCoordinator)
            else "core.agent.processor"
        ),
        {},
    ),
    (Agent, "complete", "core.agent.complete", {}),
    (Agent, "emit", "core.agent.emit", {}),
    (Agent, "attach", "core.agent.attach", {}),
    (SimulatedLLM, "complete", "llm.complete", {"after": _after_llm}),
    (LLMCache, "get", "llm.ladder.cache", {}),
    (LLMCache, "put", "llm.ladder.cache", {}),
    (SingleFlight, "join", "llm.ladder.singleflight", {}),
    (SingleFlight, "record", "llm.ladder.singleflight", {}),
    (LLMBatcher, "open", "llm.ladder.batch", {}),
    (LLMBatcher, "join", "llm.ladder.batch", {}),
    (ModelCapacity, "reserve", "llm.ladder.capacity", {}),
    (WriteAheadJournal, "record", "core.recovery.record", {}),
    (Tracer, "start_span", "observability.start_span", {}),
    (Tracer, "span", "observability.start_span", {}),  # class-level alias
    (Span, "__exit__", "observability.end_span", {}),
    (MetricsRegistry, "snapshot", "observability.snapshot", {}),
    (TaskPlanner, "plan", "core.planners.task_plan", {}),
    (DataPlanner, "plan_job_query", "core.planners.data_plan", {}),
    (DataPlanner, "plan_direct_query", "core.planners.data_plan", {}),
    (DataPlanner, "execute", "core.planners.data_exec", {}),
    (DataPlanExecutor, "execute", "core.planners.data_exec", {}),
    (SearchableRegistry, "search", "core.registries.search", {}),
    (DataRegistry, "discover", "core.registries.discover", {}),
    (DataRegistry, "embed_query", "core.registries.embed_query", {}),
    (HashingEmbedder, "embed", "embedding.embed", {}),
    (HashingEmbedder, "embed_many", "embedding.embed", {}),
    (Database, "execute", _router_or_shard("storage.relational", "execute"), {"after": _after_sql}),
    (Collection, "find", _router_or_shard("storage.document", "find"), {"after": _after_find}),
    (Collection, "get", _router_or_shard("storage.document", "get"), {}),
    (Collection, "insert", _router_or_shard("storage.document", "insert"), {}),
    (KeyValueStore, "get", _router_or_shard("storage.keyvalue", "get"), {}),
    (KeyValueStore, "put", _router_or_shard("storage.keyvalue", "put"), {}),
    *(
        (StoreCluster, method, f"storage.cluster.{method}", {})
        for method in (
            "append", "append_to", "quorum_state", "quorum_state_of",
            "primary_state", "primary_states", "tick", "settle", "kill_replica",
        )
    ),
    # The roots of a request: what is left in these is the glue between layers.
    (Blueprint, "run_traffic", "core.runtime.run_traffic", {}),
    (Blueprint, "run_fleet", "core.runtime.run_fleet", {}),
    (SessionManager, "create", "core.runtime.create_session", {}),
    (CareerAssistant, "ask", "hr.apps.ask", {}),
    (AgenticEmployerApp, "say", "hr.apps.say", {}),
    (AgenticEmployerApp, "click_job", "hr.apps.click_job", {}),
)


def install(recorder: Recorder) -> None:
    """Put every boundary shim in place.  Call before building the system."""
    for cls, method, name, hooks in BOUNDARIES:
        recorder.shim(cls, method, name, **hooks)


# ----------------------------------------------------------------------
# The per-layer table
# ----------------------------------------------------------------------
def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _snapshot(workload: Workload) -> dict[str, float]:
    """Every blueprint's metrics snapshot, summed by key."""
    merged: dict[str, float] = {}
    for bp in workload.blueprints:
        for key, value in bp.observability.metrics.snapshot().items():
            merged[key] = merged.get(key, 0.0) + value
    return merged


def _series(snapshot: dict[str, float], name: str) -> float:
    """Sum of a labelled counter over its label sets (``name{...}``)."""
    return sum(
        value for key, value in snapshot.items()
        if key == name or key.startswith(name + "{")
    )


def program_tallies(workload: Workload) -> dict[str, float]:
    """The program's own public tallies: additive counts only.

    Read once before the timed region and once after it; the layer table
    uses the difference, so what set-up published is not billed to the run.
    """
    snap = _snapshot(workload)
    stores = [bp.store.stats() for bp in workload.blueprints]
    tallies = {
        "stream.messages": float(sum(s["messages"] for s in stores)),
        "stream.deliveries": _series(snap, "stream.deliveries"),
        "journal.records": _series(snap, "journal.records"),
        "llm.physical_calls": _series(snap, "llm.calls"),
        "agent.activations": _series(snap, "agent.activations"),
        "agent.failures": _series(snap, "agent.failures"),
        "node.attempts": snap.get("node.attempts.count", 0.0),
        "node.attempt_sum": snap.get("node.attempts.sum", 0.0),
        "overload.shed": _series(snap, "overload.shed"),
        "overload.expired": _series(snap, "overload.expired"),
        "spans_retained": float(
            sum(len(bp.observability.tracer.spans()) for bp in workload.blueprints)
        ),
        "cluster.failovers": float(
            sum(1 for c in workload.clusters for e in c.events if e["kind"] == "promotion")
        ),
    }
    for key in (
        "cache.hits", "cache.misses", "singleflight.leaders", "singleflight.joins",
        "batch.batches", "batch.joins", "capacity.queued", "capacity.total_wait",
    ):
        tallies[key] = 0.0
    for bp in workload.blueprints:
        catalog = bp.catalog
        for prefix, owner, fields in (
            ("cache", catalog.cache, ("hits", "misses")),
            ("singleflight", catalog.single_flight, ("leaders", "joins")),
            ("batch", catalog.batcher, ("batches", "joins")),
            ("capacity", catalog.capacity, ("queued", "total_wait")),
        ):
            if owner is not None:
                stats = owner.stats()
                for name in fields:
                    tallies[f"{prefix}.{name}"] += float(getattr(stats, name))
    return tallies


def since(before: dict[str, float], after: dict[str, float]) -> dict[str, float]:
    return {key: value - before.get(key, 0.0) for key, value in after.items()}


def _offered(named: dict[str, tuple[int, float]], tallies: dict[str, float], result: Any) -> float:
    """Plans that reached the admission boundary, as the shims saw them.

    Open loop: every arrival is either shed at the door or offered to the
    admission controller.  Closed batch (no controller): every plan is
    either begun or rejected by the backlog bound.
    """
    offers = named.get("core.overload.offer", (0, 0.0))[0]
    if offers:
        return offers + tallies["overload.shed"]
    return named.get("core.coordinator.begin_plan", (0, 0.0))[0] + result.rejected


def cross_check(recorder: Recorder, tallies: dict[str, float], result: Any) -> list[str]:
    """Shim counts against the program's tallies; a mismatch = a bypassed shim.

    *tallies* are the timed region's (:func:`since`); *result* is the
    ``FleetResult`` of a fleet workload, else None.
    """
    named = recorder.by_name()
    calls = {name: count for name, (count, _) in named.items()}
    llm_answered = calls.get("llm.complete", 0) - recorder.counters["llm.complete.raised"]
    pairs = [
        ("streams.publishes", calls.get("streams.publish", 0), tallies["stream.messages"]),
        (
            "llm.calls",
            llm_answered,
            tallies["cache.hits"] + tallies["singleflight.joins"]
            + tallies["batch.joins"] + tallies["llm.physical_calls"],
        ),
        (
            "core.recovery.journal_records",
            calls.get("core.recovery.record", 0),
            tallies["journal.records"],
        ),
        (
            "core.agent.activations",
            recorder.entry_calls("core.agent.processor"),
            tallies["agent.activations"],
        ),
    ]
    if result is not None:
        pairs.append(("core.overload.offered", _offered(named, tallies, result), len(result.plans)))
    return [
        f"{name}: shim counted {ours:g}, the program's tally says {theirs:g}"
        for name, ours, theirs in pairs
        if ours != theirs
    ]


def metrics(
    recorder: Recorder,
    workload: Workload,
    tallies: dict[str, float],
    traced: Outcome,
    untraced: Outcome,
    traced_wall: float,
    untraced_wall: float,
    export_s: float,
    export_bytes: int,
) -> dict[str, float]:
    """Every per-layer metric by name (0 where a layer was not reached)."""
    named = recorder.by_name()
    counters = recorder.counters
    result = workload.fleet_result
    queue_wait_p95 = _snapshot(workload).get("fleet.queue_wait.p95", 0.0)

    def calls(*names: str) -> float:
        return float(sum(named.get(n, (0, 0.0))[0] for n in names))

    def self_s(*prefixes: str) -> float:
        return sum(
            secs for name, (_, secs) in named.items()
            if any(name == p or name.startswith(p + ".") for p in prefixes)
        )

    publish_self = [
        own for record, own in zip(recorder.spans, recorder.self_times())
        if record[NAME] == "streams.publish"
    ]
    publishes = calls("streams.publish")
    llm_calls = calls("llm.complete")
    finds = calls("storage.document.find")
    main_thread = threading.main_thread().ident
    cache_hits, flight_joins = tallies["cache.hits"], tallies["singleflight.joins"]
    batch_joins, batches = tallies["batch.joins"], tallies["batch.batches"]
    lat = untraced.latencies

    def p50(kind: str, scale: float) -> float:
        return percentile(lat.get(kind, []), 0.5) * scale

    table = {
        "streams.publishes": publishes,
        "streams.deliveries": tallies["stream.deliveries"],
        # nothing unsubscribes in these workloads: the end count is the peak
        "streams.subscriptions_peak": float(
            sum(bp.store.stats()["subscriptions"] for bp in workload.blueprints)
        ),
        "streams.deliveries_per_publish": _ratio(tallies["stream.deliveries"], publishes),
        "streams.publish_self_s": self_s("streams.publish"),
        "streams.publish_growth_ratio": growth_ratio(publish_self),
        "streams.trace_reads": calls("streams.trace"),
        "streams.trace_self_s": self_s("streams.trace"),
        "streams.messages_retained": tallies["stream.messages"],
        "core.overload.offered": float(_offered(named, tallies, result)) if result else 0.0,
        "core.overload.admitted": float(result.admitted) if result else 0.0,
        "core.overload.queued": float(result.queued) if result else 0.0,
        "core.overload.rejected": float(result.rejected) if result else 0.0,
        "core.overload.shed": tallies["overload.shed"],
        "core.overload.expired": tallies["overload.expired"],
        "core.overload.brownout_transitions": (
            float(len(workload.brownout.transitions)) if workload.brownout else 0.0
        ),
        "core.overload.queue_wait_sim_p95_s": queue_wait_p95,
        "core.overload.self_s": self_s("core.overload"),
        "core.fleet.rounds": float(recorder.entry_calls("core.engine.step_round")),
        "core.fleet.peak_inflight": counters["core.fleet.peak_inflight"],
        "core.fleet.self_s": self_s("core.fleet"),
        "core.engine.step_rounds": float(recorder.entry_calls("core.engine.step_round")),
        "core.engine.waves": float(recorder.entry_calls("core.engine.run_wave")),
        "core.engine.self_s": self_s("core.engine"),
        "core.engine.overlap_efficiency": _ratio(
            (result.makespan if result else 0.0) * workload.wall_latency_scale, untraced_wall
        ),
        "core.coordinator.nodes_executed": tallies["node.attempts"],
        "core.coordinator.retries": tallies["node.attempt_sum"] - tallies["node.attempts"],
        "core.coordinator.parallel_nodes": counters["core.coordinator.parallel_nodes"],
        "core.coordinator.self_s": self_s("core.coordinator"),
        "core.agent.activations": float(recorder.entry_calls("core.agent.processor")),
        "core.agent.failures": tallies["agent.failures"],
        "core.agent.self_s": self_s("core.agent"),
        "llm.calls": llm_calls,
        "llm.failures": counters["llm.complete.raised"],
        "llm.tokens_in": counters["llm.tokens_in"],
        "llm.tokens_out": counters["llm.tokens_out"],
        "llm.self_s": self_s("llm.complete"),
        "llm.slept_s": counters["llm.slept_s"],
        "llm.cache.hit_ratio": _ratio(cache_hits, cache_hits + tallies["cache.misses"]),
        "llm.singleflight.join_ratio": _ratio(
            flight_joins, flight_joins + tallies["singleflight.leaders"]
        ),
        "llm.batch.join_ratio": _ratio(batch_joins, batch_joins + batches),
        "llm.batch.mean_size": _ratio(batch_joins + batches, batches),
        "llm.capacity.queued_calls": tallies["capacity.queued"],
        "llm.capacity.queue_wait_sim_s": tallies["capacity.total_wait"],
        "llm.ladder_self_s": self_s("llm.ladder"),
        "core.recovery.journal_records": calls("core.recovery.record"),
        "core.recovery.journal_self_s": self_s("core.recovery"),
        "observability.spans_started": calls("observability.start_span"),
        "observability.spans_retained": tallies["spans_retained"],
        "observability.span_self_s": self_s(
            "observability.start_span", "observability.end_span"
        ),
        "observability.export_s": export_s + self_s("observability.snapshot"),
        "observability.export_bytes": float(export_bytes),
        "core.planners.task_plans": calls("core.planners.task_plan"),
        "core.planners.data_plans": calls("core.planners.data_plan"),
        "core.planners.task_plan_self_s": self_s("core.planners.task_plan"),
        "core.planners.data_plan_self_s": self_s("core.planners.data_plan"),
        "core.planners.data_exec_self_s": self_s("core.planners.data_exec"),
        "core.registries.searches": calls(
            "core.registries.search", "core.registries.discover"
        ),
        "core.registries.self_s": self_s("core.registries"),
        "embedding.embeds": float(recorder.entry_calls("embedding.embed")),
        "embedding.self_s": self_s("embedding"),
        "storage.relational.statements": calls("storage.relational.execute"),
        "storage.relational.self_s": self_s("storage.relational"),
        "storage.relational.shards_scanned_ratio": _ratio(
            counters["storage.relational.shards_scanned"],
            counters["storage.relational.shards_total"],
        ),
        "storage.document.finds": finds,
        "storage.document.gets": calls("storage.document.get"),
        "storage.document.inserts": calls("storage.document.insert"),
        "storage.document.self_s": self_s("storage.document"),
        "storage.document.docs_scanned_per_find": _ratio(
            counters["storage.document.docs_scanned"], finds
        ),
        "storage.document.shards_scanned_ratio": _ratio(
            counters["storage.document.shards_scanned"],
            counters["storage.document.shards_total"],
        ),
        "storage.keyvalue.gets": calls("storage.keyvalue.get"),
        "storage.keyvalue.puts": calls("storage.keyvalue.put"),
        "storage.keyvalue.self_s": self_s("storage.keyvalue"),
        "storage.cluster.appends": calls("storage.cluster.append_to"),
        "storage.cluster.quorum_reads": calls("storage.cluster.quorum_state_of"),
        "storage.cluster.ticks": calls("storage.cluster.tick"),
        "storage.cluster.failovers": tallies["cluster.failovers"],
        "storage.cluster.unavailable_errors": sum(
            value for key, value in counters.items()
            if key.startswith("storage.cluster.") and key.endswith(".raised")
        ),
        "storage.cluster.router_self_s": self_s(
            "storage.cluster.append", "storage.cluster.append_to",
            "storage.cluster.quorum_state", "storage.cluster.quorum_state_of",
            "storage.cluster.primary_state", "storage.cluster.primary_states",
        ),
        "storage.cluster.tick_self_s": self_s(
            "storage.cluster.tick", "storage.cluster.settle", "storage.cluster.kill_replica"
        ),
        "core.runtime.self_s": self_s("core.runtime"),
        "hr.apps.self_s": self_s("hr.apps"),
        "store.kv_get.p50_us": p50("kv_get", 1e6),
        "store.kv_put.p50_us": p50("kv_put", 1e6),
        "store.doc_get.p50_us": p50("doc_get", 1e6),
        "store.doc_insert.p50_us": p50("doc_insert", 1e6),
        "store.find_pruned.p50_ms": p50("find_pruned", 1e3),
        "store.find_fanout.p50_ms": p50("find_fanout", 1e3),
        "store.sql_pruned.p50_ms": p50("sql_pruned", 1e3),
        "store.sql_fanout.p50_ms": p50("sql_fanout", 1e3),
        "hr.career_ask.p50_ms": p50("career_ask", 1e3),
        "hr.career_ask.p99_ms": percentile(lat.get("career_ask", []), 0.99) * 1e3,
        "hr.employer_say.p50_ms": p50("employer_say", 1e3),
        "hr.employer_click.p50_ms": p50("employer_click", 1e3),
        "hr.turn_growth_ratio": (
            growth_ratio(untraced.timeline) if "career_ask" in lat else 0.0
        ),
        "bench.unattributed_share": max(
            0.0, 1.0 - recorder.root_seconds(main_thread) / traced_wall
        ),
        "bench.trace_overhead_share": traced_wall / untraced_wall - 1.0,
        "bench.generator_s": workload.generator_s + self_s("bench.submission_factory"),
        # Closed loops send the next op when the last returns and the
        # fleet traces are generated before the timed region: neither
        # generator can run late.  Reported so that a later open-loop
        # wall-clock workload has the name to fill.
        "bench.generator_lateness_s": 0.0,
        "failed_share": traced.failed_share,
    }
    for name in (
        "sim_ops_per_s", "sim_latency_p50_s", "sim_latency_p95_s",
        "sim_tier0_slo_share", "sim_cost_per_op_usd",
    ):
        table[name] = traced.sim.get(name, 0.0)
    return table
