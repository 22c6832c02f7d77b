"""surge_fleet: an open-loop, three-tenant arrival trace with one surge.

Open loop in *simulated* time: arrivals land on the virtual timeline at
seeded instants whatever the fleet's completion rate, and the whole
trace is generated before the timed region, so the generator cannot
run late.  The timed region is one ``Blueprint.run_traffic`` call:
admission -> fleet -> coordinator -> agents -> LLM reuse ladder ->
streams -> journal -> spans, on the serial backend.
"""

from __future__ import annotations

from time import perf_counter

from repro.core.fleet import FleetSubmission
from repro.core.overload import (
    AdmissionController,
    Arrival,
    BrownoutController,
    BrownoutSpec,
    TenantSpec,
    TierPolicy,
    TrafficGenerator,
)
from repro.core.plan import Binding, TaskPlan
from repro.core.runtime import Blueprint

from harness import Outcome, Workload, percentile
from workloads.plans import CITIES, TITLES, PlanTimer, StageAgent, text_input

#: Offered plans per round.  The trace is generated over a horizon long
#: enough to hold this many on any seed and cut at exactly this count:
#: per-plan cost grows with the number of sessions alive in the store,
#: so a Poisson-varying count would move ``ops_per_s`` by ~15 % between
#: seeds for reasons that are not the program's.
OFFERED = 240
#: 1.7 plans/sim-s steady -> ~660 arrivals expected, > OFFERED + 4 sigma.
HORIZON = 360.0
SURGE = (20.0, 40.0, 2.4)
MAX_INFLIGHT = 4
#: Simulated seconds from arrival to completion the tier-0 contract allows.
TIER0_SLO = 6.0

TENANTS = (
    # enterprise: contracted, never rate-limited, shed or expired
    TenantSpec(name="enterprise", tier=0, users=60_000, rate_per_user=5e-6),
    # standard: downshiftable and prunable under brownout, bounded wait
    TenantSpec(
        name="standard", tier=1, users=300_000, rate_per_user=2e-6,
        pattern="diurnal", diurnal_period=120.0, diurnal_amplitude=0.3,
    ),
    # batch: rate-limited, short deadline, sheddable — dropped first
    TenantSpec(name="batch", tier=2, users=800_000, rate_per_user=1e-6),
)
TIERS = {
    0: TierPolicy(weight=6.0),
    1: TierPolicy(weight=3.0, rate=1.5, burst=6.0, max_queue_wait=20.0),
    2: TierPolicy(weight=1.0, rate=1.2, burst=5.0, max_queue_wait=10.0, sheddable=True),
}
BROWNOUT = BrownoutSpec(enter_depths=(6, 12, 20), exit_depths=(3, 8, 14))


class SurgeFleet(Workload):
    name = "surge_fleet"
    op = "plan"

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        super().__init__(seed, scale)
        started = perf_counter()
        offered = self.sized(OFFERED, floor=24)
        trace = TrafficGenerator(
            TENANTS, seed=seed, horizon=HORIZON * max(scale, 0.1), surges=[SURGE]
        ).generate()
        if len(trace) < offered:
            raise RuntimeError(
                f"seed {seed}: trace holds {len(trace)} arrivals, need {offered}"
            )
        self.arrivals: list[Arrival] = trace[:offered]
        self.topics = [
            f"{self.rng.choice(TITLES)} in {self.rng.choice(CITIES)}"
            for _ in self.arrivals
        ]
        self.generator_s = perf_counter() - started
        self.timers: dict[str, PlanTimer] = {}

    # -- the plans ------------------------------------------------------
    def submission(self, arrival: Arrival) -> FleetSubmission:
        """Intake -> enrich (optional) -> resolve, with per-tier model hints."""
        plan_id = f"{arrival.tenant}-{arrival.index:04d}"
        timer = self.timers[plan_id] = PlanTimer()
        request = (
            f"request #{arrival.index} from {arrival.tenant}: "
            f"{self.topics[arrival.index]}"
        )
        plan = TaskPlan(plan_id, goal=f"serve {arrival.tenant} request {arrival.index}")
        plan.add_step("intake", "INTAKE", {"IN": Binding.const(request)}, model="mega-s")
        plan.add_step(
            "enrich", "ENRICH", {"IN": Binding.from_node("intake", "OUT")},
            model="mega-m", optional=True,
        )
        plan.add_step(
            "resolve", "RESOLVE",
            {
                "IN": Binding.from_node("intake", "OUT"),
                "CONTEXT": Binding.from_node("enrich", "OUT"),
            },
            model="mega-m" if arrival.tier == 0 else "mega-s",
        )
        agents = [
            StageAgent(
                "INTAKE", "mega-s",
                lambda i: f"TASK: EXTRACT\nFIELDS: intent\nTEXT: {i['IN']}",
                text_input("IN"), timer,
            ),
            StageAgent(
                "ENRICH", "mega-m",
                lambda i: f"TASK: RELATED_TITLES\nTITLE: {i['IN'][:40]}",
                text_input("IN"), timer,
            ),
            StageAgent(
                "RESOLVE", "mega-s",
                lambda i: f"TASK: SUMMARIZE\nTEXT: {i['IN']} | {i.get('CONTEXT', '')}",
                text_input("IN", "CONTEXT"), timer,
            ),
        ]
        return FleetSubmission(
            plan=plan, agents=agents, tenant=arrival.tenant, tier=arrival.tier
        )

    def _serve(self, arrivals: list[Arrival], factory) -> Blueprint:
        bp = Blueprint(llm_cache=True)
        self.brownout = BrownoutController(BROWNOUT, metrics=bp.observability.metrics)
        self.fleet_result = bp.run_traffic(
            arrivals,
            factory,
            max_inflight=MAX_INFLIGHT,
            admission=AdmissionController(tiers=dict(TIERS)),
            brownout=self.brownout,
            journal=True,
            single_flight=True,
            batching=True,
            backend="serial",
        )
        return bp

    # -- the round ------------------------------------------------------
    def setup(self) -> None:
        # Warm-up: the same call path on a dozen arrivals, so first-call
        # regex / parser / template compilation is not in the timed region.
        self._serve(self.arrivals[:12], self.submission)
        self.timers = {}

    def run(self, recorder=None) -> None:
        factory = self.submission
        if recorder is not None:
            factory = recorder.wrap(factory, "bench.submission_factory")
        self.blueprints = [self._serve(self.arrivals, factory)]

    def outcome(self) -> Outcome:
        result = self.fleet_result
        plans = result.plans
        completed = [p for p in plans if p.outcome == "completed"]
        errored = [p for p in plans if p.outcome in ("failed", "aborted")]
        refused = [p for p in plans if p.outcome == "rejected"]
        latency = sorted(p.finished_at - p.arrived_at for p in completed)
        tier0 = [p for p in plans if p.tier == 0]
        tier0_ok = [
            p for p in tier0
            if p.outcome == "completed" and p.finished_at - p.arrived_at <= TIER0_SLO
        ]
        lowest = max(p.tier for p in plans)

        problems = []
        if len(plans) != len(self.arrivals) or len({p.plan_id for p in plans}) != len(plans):
            problems.append(
                f"{len(self.arrivals)} plans offered but {len(plans)} outcomes "
                f"({len({p.plan_id for p in plans})} distinct)"
            )
        if len(completed) + len(errored) + len(refused) != len(plans):
            problems.append("a plan ended with an outcome that is not terminal")
        if len(completed) != result.admitted - len(errored):
            problems.append(
                f"completed {len(completed)} != admitted {result.admitted} "
                f"- failed {len(errored)}"
            )
        if result.rejected != len(refused):
            problems.append(f"rejected tally {result.rejected} != {len(refused)} plans")
        if any(p.outcome != "completed" for p in tier0):
            problems.append("a tier-0 plan did not complete")
        if any(p.rejection_reason == "shed" and p.tier != lowest for p in plans):
            problems.append("a plan above the lowest tier was shed")
        if errored:
            problems.append(f"{len(errored)} plans failed: {errored[0].plan_id}")
        walls = [self.timers[p.plan_id].seconds for p in completed]
        if any(w is None for w in walls):
            problems.append("a completed plan never ran its stages")

        return Outcome(
            attempted=len(plans),
            completed=len(completed),
            errored=len(errored),
            refused=len(refused),
            latencies={"plan": [w for w in walls if w is not None]},
            digest_rows=[
                (
                    p.plan_id,
                    p.outcome,
                    round(p.finished_at, 9) if p.finished_at is not None
                    else p.rejection_reason,
                )
                for p in plans
            ],
            sim={
                "sim_ops_per_s": len(completed) / result.makespan,
                "sim_latency_p50_s": percentile(latency, 0.50),
                "sim_latency_p95_s": percentile(latency, 0.95),
                "sim_tier0_slo_share": len(tier0_ok) / len(tier0) if tier0 else 1.0,
                "sim_cost_per_op_usd": self.blueprints[0].tracker.cost / len(completed),
            },
            problems=problems,
        )
