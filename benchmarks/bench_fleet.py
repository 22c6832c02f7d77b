"""A12 — fleet throughput: concurrent plans vs serial sessions.

Eight Fig-6-style job-search plans (profile, then match | recommend,
then rank — each stage an LLM call) run two ways:

* **serial baseline** — one Blueprint, plans driven one after another
  (each still wave-parallel internally): simulated makespan is the *sum*
  of the per-plan critical paths.
* **fleet** — ``Blueprint.run_fleet`` with ``max_inflight=4``, two
  slots per model, and single-flight coalescing: makespan approaches
  ``max(critical paths)`` plus queueing delay.

The run must show **>= 3x** simulated-makespan improvement with the
capacity limit honored (peak observed in-flight per model never above
the slot count), and it emits ``benchmarks/BENCH_throughput.json`` —
the checked-in throughput baseline CI gates on.

The regression gate compares plans/sec in **simulated** time (plans
divided by simulated makespan) against the baseline: that is the
quantity the fleet scheduler exists to improve, and it is deterministic
— the same code produces the same number on any machine, so the >20%
gate never flaps on CI hardware speed.  Raw wall-clock plans/sec for
the default serial backend is recorded in the artifact for inspection
but not gated: at this scale (~15 ms a run) it is dominated by process
noise.

The **engine** section gates wall-clock for real: a larger workload
(16 plans, 8 in flight) with ``wall_latency_scale`` set, so every
simulated LLM call actually blocks its thread for a proportional real
duration.  Under the serial backend those sleeps serialize; under the
thread backend wave siblings and in-flight plans overlap them, so
wall-clock plans/sec must beat serial (median of 5 runs —
large sleeps dominate scheduler overhead, which keeps the gate stable
on slow CI hardware; the sleeps release the GIL, so the gate holds
even on one core).  It also records, ungated, ``peak_engine_threads``:
how many workers the thread backend's pool grew to.

The **batching** section gates cross-plan micro-batching on a
homogeneous-model fleet: every stage of every plan calls the same
model with a *session-specific* prompt, so neither the cache nor
single-flight can merge anything — only ``LLMBatcher`` windows can.
With one capacity slot the unbatched fleet serializes every call;
batched, window joiners skip the reservation and ride the leader's
execution, so simulated plans/sec must improve by ``>= 1.5x``.  Both
runs use the serial backend: the quantity is simulated time, which is
deterministic there.
"""

import json
import threading
import time
from pathlib import Path

from _artifacts import record, table

from repro.cli import _fleet_agents, _fleet_plan
from repro.core.coordinator import TaskCoordinator
from repro.core.engine import resolve_backend
from repro.core.fleet import FleetSubmission
from repro.core.runtime import Blueprint
from repro.llm import LLMBatcher

PLANS = 8
MAX_INFLIGHT = 4
SLOTS = 2
#: The acceptance floor: fleet simulated makespan must beat serial by this.
MIN_SPEEDUP = 3.0
#: Fail CI when normalized throughput drops more than this vs baseline.
REGRESSION_TOLERANCE = 0.20

# -- engine wall-clock section -------------------------------------------
ENGINE_PLANS = 16
ENGINE_INFLIGHT = 8
#: Real seconds slept per simulated LLM-latency second: large enough that
#: thread overlap dominates scheduler overhead, small enough to keep the
#: bench under a few seconds.
WALL_SCALE = 0.005
#: The concurrency acceptance floor: each concurrent backend's
#: wall-clock plans/sec must beat the serial backend's on the
#: identical workload.
MIN_WALL_SPEEDUP = 1.0

# -- batching section ----------------------------------------------------
BATCH_PLANS = 8
BATCH_SLOTS = 1
BATCH_WAIT = 0.5
#: The batching acceptance floor: batched simulated plans/sec must beat
#: unbatched by this on the homogeneous-model scenario.
MIN_BATCH_SPEEDUP = 1.5

BASELINE_PATH = Path(__file__).parent / "BENCH_throughput.json"


def run_serial() -> tuple[float, float]:
    """(simulated makespan, wall seconds) for plans driven back to back."""
    bp = Blueprint()
    origin = bp.clock.now()
    wall_start = time.perf_counter()
    for index in range(PLANS):
        session = bp.create_session()
        for agent in _fleet_agents(bp.catalog, index):
            bp.attach(agent, session)
        coordinator = TaskCoordinator(data_planner=bp.data_planner, parallel=True)
        bp.attach(coordinator, session)
        run = coordinator.execute_plan(_fleet_plan(index))
        assert run.status == "completed"
    return bp.clock.now() - origin, time.perf_counter() - wall_start


def run_fleet() -> tuple[Blueprint, "FleetResult", float]:
    bp = Blueprint()
    submissions = [
        FleetSubmission(
            plan=_fleet_plan(index), agents=_fleet_agents(bp.catalog, index)
        )
        for index in range(PLANS)
    ]
    wall_start = time.perf_counter()
    result = bp.run_fleet(
        submissions,
        max_inflight=MAX_INFLIGHT,
        single_flight=True,
        capacity={name: SLOTS for name in bp.catalog.names()},
    )
    return bp, result, time.perf_counter() - wall_start


def run_engine(backend: str) -> tuple[float, float, int]:
    """(simulated makespan, wall seconds, engine threads) for the engine
    workload.

    Identical submissions either way — only the execution backend
    differs, so wall-clock is the only quantity allowed to move.  The
    thread backend is owned here, so its workers — which live until
    ``close()`` — can be counted after the run: that count is the
    pool's peak size.
    """
    bp = Blueprint()
    bp.catalog.wall_latency_scale = WALL_SCALE
    submissions = [
        FleetSubmission(
            plan=_fleet_plan(index), agents=_fleet_agents(bp.catalog, index)
        )
        for index in range(ENGINE_PLANS)
    ]
    before = set(threading.enumerate())
    engine = resolve_backend(backend)
    try:
        wall_start = time.perf_counter()
        result = bp.run_fleet(
            submissions,
            max_inflight=ENGINE_INFLIGHT,
            single_flight=False,
            backend=engine,
        )
        wall = time.perf_counter() - wall_start
        threads = sum(
            1
            for t in threading.enumerate()
            if t not in before and t.name.startswith("engine-")
        )
    finally:
        engine.close()
    assert len(result.completed()) == ENGINE_PLANS, [
        p.outcome for p in result.plans
    ]
    return result.makespan, wall, threads


def measure_engine() -> dict:
    """Median-of-5 wall timings for the serial vs thread backends."""
    serial_runs = [run_engine("serial") for _ in range(5)]
    thread_runs = [run_engine("threads") for _ in range(5)]
    serial_makespan = serial_runs[0][0]
    thread_makespan = thread_runs[0][0]
    serial_wall = sorted(wall for _, wall, _ in serial_runs)[2]
    thread_wall = sorted(wall for _, wall, _ in thread_runs)[2]
    # Result identity: the backend moves wall-clock, never simulated time.
    assert abs(thread_makespan - serial_makespan) < 1e-9, (
        thread_makespan,
        serial_makespan,
    )
    return {
        "plans": ENGINE_PLANS,
        "max_inflight": ENGINE_INFLIGHT,
        "wall_latency_scale": WALL_SCALE,
        "simulated_makespan": round(serial_makespan, 6),
        "serial_wall_seconds": round(serial_wall, 4),
        "threads_wall_seconds": round(thread_wall, 4),
        "serial_plans_per_sec": round(ENGINE_PLANS / serial_wall, 2),
        "threads_plans_per_sec": round(ENGINE_PLANS / thread_wall, 2),
        "wall_speedup": round(serial_wall / thread_wall, 4),
        # Recorded, not gated: the thread backend's pool grows to the
        # fleet's peak concurrent demand.
        "peak_engine_threads": max(threads for _, _, threads in thread_runs),
    }


def _homogeneous_agents(catalog, index: int):
    """All four stages on one model, every prompt session-specific.

    Nothing here repeats across plans, so the cache and single-flight
    have nothing to merge — cross-plan micro-batching is the only
    machinery that can amortize these calls.
    """
    from repro.core.agent import FunctionAgent
    from repro.core.params import Parameter

    def llm_stage(name, prompt_of):
        def fn(inputs):
            response = catalog.client("mega-s").complete(prompt_of(inputs))
            return {"OUT": response.text}

        return FunctionAgent(
            name, fn,
            inputs=(
                Parameter("IN", "text"),
                Parameter("IN2", "text", required=False),
            ),
            outputs=(Parameter("OUT", "text"),),
        )

    return [
        llm_stage(
            "PROFILER",
            lambda i: f"TASK: EXTRACT\nFIELDS: title, location\n"
                      f"TEXT: session {index}: {i['IN']}",
        ),
        llm_stage(
            "MATCHER",
            lambda i: f"TASK: RELATED_TITLES\nTITLE: engineer {index}",
        ),
        llm_stage(
            "RECOMMENDER",
            lambda i: f"TASK: LIST_SKILLS\nTITLE: analyst {index}",
        ),
        llm_stage(
            "RANKER",
            lambda i: f"TASK: SUMMARIZE\nTEXT: plan {index} | "
                      f"{i.get('IN', '')} | {i.get('IN2', '')}",
        ),
    ]


def run_batch_fleet(batching) -> tuple[Blueprint, "FleetResult"]:
    """The homogeneous workload on the serial backend, batched or not."""
    bp = Blueprint()
    submissions = [
        FleetSubmission(
            plan=_fleet_plan(index),
            agents=_homogeneous_agents(bp.catalog, index),
        )
        for index in range(BATCH_PLANS)
    ]
    result = bp.run_fleet(
        submissions,
        max_inflight=BATCH_PLANS,
        single_flight=False,
        capacity={"mega-s": BATCH_SLOTS},
        batching=batching,
    )
    assert len(result.completed()) == BATCH_PLANS, [
        p.outcome for p in result.plans
    ]
    return bp, result


def measure_batching() -> dict:
    _, unbatched = run_batch_fleet(False)
    batched_bp, batched = run_batch_fleet(
        LLMBatcher(max_batch_wait=BATCH_WAIT)
    )
    stats = batched_bp.catalog.batcher.stats()
    return {
        "plans": BATCH_PLANS,
        "model_slots": BATCH_SLOTS,
        "max_batch_wait": BATCH_WAIT,
        "unbatched_makespan": round(unbatched.makespan, 6),
        "batched_makespan": round(batched.makespan, 6),
        "unbatched_plans_per_sec": round(BATCH_PLANS / unbatched.makespan, 4),
        "batched_plans_per_sec": round(BATCH_PLANS / batched.makespan, 4),
        "speedup": round(unbatched.makespan / batched.makespan, 4),
        "windows": stats.batches,
        "joins": stats.joins,
        "peak_batch": stats.peak_batch,
        "mean_batch": round(stats.mean_batch, 4),
        "amortized_latency": round(stats.saved_latency, 6),
        "attributed_cost": round(stats.attributed_cost, 6),
    }


def measure() -> dict:
    # Best-of-3 wall timings: a single ~20ms run is too noisy to gate on.
    serial_runs = [run_serial() for _ in range(3)]
    serial_makespan = serial_runs[0][0]
    serial_wall = min(wall for _, wall in serial_runs)
    fleet_runs = [run_fleet() for _ in range(3)]
    bp, result, _ = fleet_runs[0]
    fleet_wall = min(wall for _, _, wall in fleet_runs)

    assert len(result.completed()) == PLANS, [p.outcome for p in result.plans]
    speedup = serial_makespan / result.makespan

    capacity = bp.catalog.capacity
    peaks = {m: capacity.max_concurrency(m) for m in capacity.models()}
    assert all(peak <= SLOTS for peak in peaks.values()), peaks
    cap_stats = capacity.stats()
    flight_stats = bp.catalog.single_flight.stats()

    return {
        "plans": PLANS,
        "max_inflight": MAX_INFLIGHT,
        "slots": SLOTS,
        "simulated": {
            "serial_makespan": round(serial_makespan, 6),
            "fleet_makespan": round(result.makespan, 6),
            "speedup": round(speedup, 4),
            # The gated throughput: deterministic on any machine.
            "serial_plans_per_sec": round(PLANS / serial_makespan, 4),
            "fleet_plans_per_sec": round(PLANS / result.makespan, 4),
        },
        # ROADMAP open item 1 tracks this section: the fleet must
        # eventually win in wall-clock time too, not just simulated.
        "wall_clock": {
            "serial_seconds": round(serial_wall, 4),
            "fleet_seconds": round(fleet_wall, 4),
            "serial_plans_per_sec": round(PLANS / serial_wall, 2),
            "fleet_plans_per_sec": round(PLANS / fleet_wall, 2),
            "fleet_speedup": round(serial_wall / fleet_wall, 4),
        },
        "capacity": {
            "peak_inflight": peaks,
            "queued_calls": cap_stats.queued,
            "total_queue_wait": round(cap_stats.total_wait, 6),
        },
        "coalescing": {
            "leaders": flight_stats.leaders,
            "joins": flight_stats.joins,
            "hit_rate": round(flight_stats.hit_rate, 4),
            "saved_cost": round(flight_stats.saved_cost, 6),
        },
    }


def test_a12_fleet_throughput():
    """Artifact + baseline: fleet vs serial makespan and throughput."""
    baseline = (
        json.loads(BASELINE_PATH.read_text()) if BASELINE_PATH.exists() else None
    )
    results = measure()
    results["engine"] = engine = measure_engine()
    results["batching"] = batching = measure_batching()

    simulated = results["simulated"]
    assert simulated["speedup"] >= MIN_SPEEDUP, (
        f"fleet speedup {simulated['speedup']:.2f}x below the "
        f"{MIN_SPEEDUP}x acceptance floor"
    )
    # The concurrency gate: with real per-call blocking, the thread
    # backend must finish the identical workload in less wall time than
    # serial.
    assert engine["wall_speedup"] > MIN_WALL_SPEEDUP, (
        f"thread backend wall speedup {engine['wall_speedup']:.2f}x does "
        f"not beat serial (floor {MIN_WALL_SPEEDUP}x)"
    )
    # The batching gate: micro-batch windows must buy real simulated
    # throughput on the homogeneous-model fleet.
    assert batching["speedup"] >= MIN_BATCH_SPEEDUP, (
        f"batched fleet speedup {batching['speedup']:.2f}x below the "
        f"{MIN_BATCH_SPEEDUP}x acceptance floor"
    )

    record(
        "a12_fleet_throughput",
        f"A12 — fleet throughput, {PLANS} Fig-6 plans "
        f"(max_inflight={MAX_INFLIGHT}, slots={SLOTS})\n"
        + table(
            ["mode", "simulated makespan", "plans/sec (sim)", "plans/sec (wall)"],
            [
                [
                    "serial",
                    f"{simulated['serial_makespan']:.2f}s",
                    f"{simulated['serial_plans_per_sec']:,}",
                    f"{results['wall_clock']['serial_plans_per_sec']:,}",
                ],
                [
                    "fleet",
                    f"{simulated['fleet_makespan']:.2f}s",
                    f"{simulated['fleet_plans_per_sec']:,}",
                    f"{results['wall_clock']['fleet_plans_per_sec']:,}",
                ],
            ],
        )
        + f"\nspeedup: {simulated['speedup']:.2f}x (floor {MIN_SPEEDUP}x)"
        + f"\ncapacity peaks: {results['capacity']['peak_inflight']}"
        + f"\ncoalescing hit rate: {results['coalescing']['hit_rate']:.0%}"
        + f"\nengine wall-clock ({ENGINE_PLANS} plans, scale {WALL_SCALE}): "
        + f"threads {engine['threads_wall_seconds']:.3f}s vs serial "
        + f"{engine['serial_wall_seconds']:.3f}s "
        + f"({engine['wall_speedup']:.2f}x, floor {MIN_WALL_SPEEDUP}x; "
        + f"{engine['peak_engine_threads']} engine threads at peak)"
        + f"\nbatching ({BATCH_PLANS} homogeneous plans, "
        + f"{BATCH_SLOTS} slot): {batching['batched_plans_per_sec']} vs "
        + f"{batching['unbatched_plans_per_sec']} plans/sec simulated "
        + f"({batching['speedup']:.2f}x, floor {MIN_BATCH_SPEEDUP}x; "
        + f"{batching['joins']} joins over {batching['windows']} windows)",
    )

    # Regression gate against the checked-in baseline: simulated
    # plans/sec is what the fleet scheduler buys, and it is a
    # deterministic function of the code, so a drop means a real change.
    if baseline is not None:
        floor = 1.0 - REGRESSION_TOLERANCE
        base_pps = baseline["simulated"]["fleet_plans_per_sec"]
        fresh_pps = simulated["fleet_plans_per_sec"]
        assert fresh_pps >= base_pps * floor, (
            f"fleet plans/sec regressed >{REGRESSION_TOLERANCE:.0%}: "
            f"{fresh_pps:.3f} vs baseline {base_pps:.3f} (simulated)"
        )
        if "batching" in baseline:
            base_batched = baseline["batching"]["batched_plans_per_sec"]
            fresh_batched = batching["batched_plans_per_sec"]
            assert fresh_batched >= base_batched * floor, (
                f"batched plans/sec regressed >{REGRESSION_TOLERANCE:.0%}: "
                f"{fresh_batched:.3f} vs baseline {base_batched:.3f} "
                f"(simulated)"
            )

    BASELINE_PATH.write_text(json.dumps(results, indent=2) + "\n")


def test_a12_fleet_determinism():
    """Two fleet runs agree on every simulated quantity."""
    _, first, _ = run_fleet()
    _, second, _ = run_fleet()
    assert first.makespan == second.makespan
    assert [(p.plan_id, p.outcome, p.finished_at) for p in first.plans] == [
        (p.plan_id, p.outcome, p.finished_at) for p in second.plans
    ]
