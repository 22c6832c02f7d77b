"""A11 — wave scheduler + LLM cache: critical-path speedup, free hits.

Three scenarios over the parallel subsystem:

* **wave speedup** — the case-study fan-out diamond (EXTRACT, then
  MATCH / PROFILE / SEARCH off the same output, then a RANK fan-in)
  executed serially and wave-parallel.  Parallel latency must be the
  critical path — at least **1.5x** faster than the serial sum — with
  identical node outputs and budget-charge multisets, and two same-seed
  parallel runs must export byte-identical stream traces.
* **Fig. 7 data plan** — the decomposed job-query plan has two
  independent branches (LLM city expansion, taxonomy title expansion)
  ahead of NL2Q; wave execution shrinks its modeled latency below the
  serial sum at identical outputs and cost.
* **LLM cache** — re-executing the Fig. 7 plan with the result cache on
  makes every repeated ``llm_call`` free (zero cost, zero latency), while
  a ``no_cache`` plan bypasses the cache entirely.

Failure leaves divergent exports under ``benchmarks/results/`` for CI.
"""

import json
from typing import Any

from _artifacts import RESULTS_DIR, record, table

from repro.core import (
    Binding,
    Blueprint,
    FunctionAgent,
    Parameter,
    QoSSpec,
    TaskPlan,
)
from repro.core.planners.data_planner import DataPlanner
from repro.streams.persistence import export_json

SEED = 7
#: The running example: its quality-objective plan has two independent
#: branches (taxonomy title expansion | q2nl -> LLM city listing) ahead
#: of NL2Q, and a real ``llm_call`` operator for the cache to serve.
QUERY = "I am looking for a data scientist position in SF bay area."

#: The diamond's stages: (name, cost per activation, modeled latency).
STAGES = (
    ("EXTRACT", 0.010, 0.4),
    ("MATCH", 0.020, 0.7),
    ("PROFILE", 0.010, 0.6),
    ("SEARCH", 0.010, 0.5),
    ("RANK", 0.015, 0.3),
)
SERIAL_SUM = sum(latency for _, _, latency in STAGES)
CRITICAL_PATH = 0.4 + 0.7 + 0.3  # EXTRACT -> MATCH (widest branch) -> RANK


def _diamond_plan() -> TaskPlan:
    plan = TaskPlan("a11-diamond", goal="fan out, then join")
    plan.add_step("s1", "EXTRACT", {"IN": Binding.const(f"query#{SEED}")})
    for branch, agent in (("m1", "MATCH"), ("m2", "PROFILE"), ("m3", "SEARCH")):
        plan.add_step(branch, agent, {"IN": Binding.from_node("s1", "OUT")})
    plan.add_step(
        "s2", "RANK",
        {
            "IN": Binding.from_node("m1", "OUT"),
            "IN2": Binding.from_node("m2", "OUT"),
            "IN3": Binding.from_node("m3", "OUT"),
        },
    )
    return plan


def run_diamond(parallel: bool) -> dict[str, Any]:
    """One seeded diamond execution; returns outputs/latency/cost/export."""
    blueprint = Blueprint()
    session = blueprint.create_session("a11")
    budget = blueprint.budget()

    def stage(name, cost, latency):
        def fn(inputs, _name=name, _cost=cost, _latency=latency):
            budget.charge(f"agent:{_name}", cost=_cost, latency=_latency)
            bound = ",".join(str(v) for _, v in sorted(inputs.items()) if v)
            return {"OUT": f"{_name}({bound})"}

        return FunctionAgent(
            name, fn,
            inputs=(
                Parameter("IN", "text"),
                Parameter("IN2", "text", required=False),
                Parameter("IN3", "text", required=False),
            ),
            outputs=(Parameter("OUT", "text"),),
        )

    for name, cost, latency in STAGES:
        blueprint.attach(stage(name, cost, latency), session, budget)
    _, coordinator = blueprint.attach_planner_and_coordinator(
        session, budget, parallel=parallel
    )
    run = coordinator.execute_plan(_diamond_plan())
    return {
        "status": run.status,
        "outputs": dict(run.node_outputs),
        "charges": sorted((c.source, c.cost, c.latency) for c in budget.charges()),
        "latency": blueprint.clock.now(),
        "cost": budget.spent_cost(),
        "export": export_json(blueprint.store),
        "metrics": blueprint.observability.metrics.snapshot(),
    }


def _dump_artifact(name: str, payload: Any) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / name
    if isinstance(payload, str):
        path.write_text(payload, encoding="utf-8")
    else:
        path.write_text(json.dumps(payload, indent=2), encoding="utf-8")


def test_a11_wave_speedup_and_determinism(benchmark):
    """Artifact: critical-path speedup >= 1.5x, byte-identical reruns."""
    serial = run_diamond(parallel=False)
    first = run_diamond(parallel=True)
    second = run_diamond(parallel=True)
    speedup = serial["latency"] / first["latency"]

    if first["export"] != second["export"]:
        _dump_artifact("a11_parallel_run1.json", first["export"])
        _dump_artifact("a11_parallel_run2.json", second["export"])
    rows = [
        ["serial", f"{serial['latency']:.2f}", f"{serial['cost']:.4f}",
         serial["status"], "1.00x"],
        ["parallel", f"{first['latency']:.2f}", f"{first['cost']:.4f}",
         first["status"], f"{speedup:.2f}x"],
    ]
    record(
        "a11_wave_speedup",
        "A11 — wave scheduler on the fan-out diamond "
        f"(seed={SEED}, stages={len(STAGES)}, "
        f"serial sum={SERIAL_SUM:.1f}s, critical path={CRITICAL_PATH:.1f}s)\n"
        + table(["mode", "sim latency (s)", "cost ($)", "status", "speedup"],
                rows)
        + "\nparallel reruns byte-identical: "
        f"{first['export'] == second['export']}",
    )
    assert serial["status"] == first["status"] == "completed"
    assert serial["latency"] == SERIAL_SUM
    assert first["latency"] == CRITICAL_PATH
    assert speedup >= 1.5
    # Time is the only thing that moved: outputs and charges are identical.
    assert first["outputs"] == serial["outputs"]
    assert first["charges"] == serial["charges"]
    assert first["cost"] == serial["cost"]
    # Seed-determinism: two parallel runs export byte-identical traces.
    assert first["export"] == second["export"]
    assert first["metrics"]["scheduler.waves"] == 3.0
    assert first["metrics"]["scheduler.parallel_nodes"] == 3.0

    benchmark(lambda: run_diamond(parallel=True)["status"])


def test_a11_fig7_data_plan_critical_path(benchmark, enterprise):
    """Artifact: the Fig. 7 branches overlap; same rows, same cost."""
    def run(parallel):
        blueprint = Blueprint()
        planner = DataPlanner(enterprise.registry, blueprint.catalog)
        plan = planner.plan_job_query(QUERY, qos=QoSSpec(objective="quality"))
        return planner.execute(plan, budget=blueprint.budget(), parallel=parallel)

    serial = run(False)
    parallel = run(True)
    record(
        "a11_fig7_parallel",
        "A11 — Fig. 7 data plan under the wave scheduler\n"
        + table(
            ["mode", "sim latency (s)", "cost ($)", "rows"],
            [
                ["serial", f"{serial.latency:.3f}", f"{serial.cost:.5f}",
                 len(serial.final())],
                ["parallel", f"{parallel.latency:.3f}", f"{parallel.cost:.5f}",
                 len(parallel.final())],
            ],
        )
        + f"\nspeedup: {serial.latency / parallel.latency:.2f}x "
        "(city-LLM and taxonomy branches overlap ahead of NL2Q)",
    )
    assert parallel.outputs.keys() == serial.outputs.keys()
    assert parallel.cost == serial.cost
    assert parallel.final() == serial.final()
    assert parallel.latency < serial.latency

    benchmark(lambda: run(True).latency)


def test_a11_llm_cache_savings(benchmark, enterprise):
    """Artifact: repeated llm_call ops are free; no_cache opts out."""
    blueprint = Blueprint(llm_cache=True)
    planner = DataPlanner(enterprise.registry, blueprint.catalog)
    plan = planner.plan_job_query(QUERY, qos=QoSSpec(objective="quality"))

    cold = planner.execute(plan, budget=blueprint.budget())
    warm = planner.execute(plan, budget=blueprint.budget())
    stats = blueprint.catalog.cache.stats()

    plan.no_cache = True
    bypass = planner.execute(plan, budget=blueprint.budget())
    plan.no_cache = False

    rows = [
        ["cold (miss)", f"{cold.cost:.5f}", f"{cold.latency:.3f}",
         len(cold.final())],
        ["warm (hit)", f"{warm.cost:.5f}", f"{warm.latency:.3f}",
         len(warm.final())],
        ["no_cache", f"{bypass.cost:.5f}", f"{bypass.latency:.3f}",
         len(bypass.final())],
    ]
    record(
        "a11_llm_cache",
        "A11 — LLM result cache on the Fig. 7 plan "
        f"(hits={stats.hits}, misses={stats.misses}, "
        f"hit rate={stats.hit_rate:.2f})\n"
        + table(["run", "cost ($)", "sim latency (s)", "rows"], rows)
        + f"\nsaved: ${stats.saved_cost:.5f} and "
        f"{stats.saved_latency:.3f}s of modeled LLM latency",
    )
    assert warm.final() == cold.final()
    assert stats.hits >= 1
    assert warm.cost < cold.cost
    assert warm.latency < cold.latency
    assert stats.saved_cost > 0.0
    # The per-plan override bypasses the cache: full price again.
    assert bypass.cost == cold.cost
    assert blueprint.catalog.cache.stats().hits == stats.hits

    benchmark(lambda: planner.execute(plan, budget=blueprint.budget()).cost)
