"""fleet_blocking: a closed batch of diamond plans whose LLM calls really block.

Every simulated LLM call sleeps ``latency x wall_latency_scale`` real
seconds, so the wall floor is ``sim_makespan x scale`` and the only way
to approach it is to overlap the sleeps: this is the one workload where
``core.engine`` (the thread backend) does the work.
"""

from __future__ import annotations

import threading
from time import perf_counter

from repro.core.fleet import FleetResult, FleetSubmission
from repro.core.plan import Binding, TaskPlan
from repro.core.runtime import Blueprint

from harness import Outcome, Workload, percentile
from workloads.plans import CITIES, TITLES, PlanTimer, StageAgent, text_input

PLANS = 96
MAX_INFLIGHT = 4
#: Real seconds slept per simulated LLM-latency second.
WALL_SCALE = 0.05


class FleetBlocking(Workload):
    name = "fleet_blocking"
    op = "plan"

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        super().__init__(seed, scale)
        started = perf_counter()
        self.topics = [
            (self.rng.choice(TITLES), self.rng.choice(CITIES))
            for _ in range(self.sized(PLANS, floor=8))
        ]
        self.generator_s = perf_counter() - started
        self.wall_latency_scale = WALL_SCALE
        self.timers: dict[str, PlanTimer] = {}
        self.submissions: list[FleetSubmission] = []
        self._reference: FleetResult | None = None
        self._leaked: list[str] = []

    # -- the plans ------------------------------------------------------
    def submission(self, index: int) -> FleetSubmission:
        """profile, then match | recommend in parallel, then rank."""
        title, city = self.topics[index]
        plan_id = f"fleet-{index:03d}"
        timer = self.timers[plan_id] = PlanTimer()
        plan = TaskPlan(plan_id, goal=f"session {index} job search")
        plan.add_step(
            "profile", "PROFILER",
            {"IN": Binding.const(f"candidate #{index}: {title} in {city}")},
        )
        plan.add_step("match", "MATCHER", {"IN": Binding.from_node("profile", "OUT")})
        plan.add_step(
            "recommend", "RECOMMENDER", {"IN": Binding.from_node("profile", "OUT")}
        )
        plan.add_step(
            "rank", "RANKER",
            {
                "IN": Binding.from_node("match", "OUT"),
                "IN2": Binding.from_node("recommend", "OUT"),
            },
        )
        agents = [
            StageAgent(
                "PROFILER", "mega-s",
                lambda i: f"TASK: EXTRACT\nFIELDS: title, location\nTEXT: {i['IN']}",
                text_input("IN"), timer,
            ),
            StageAgent(
                "MATCHER", "mega-m",
                lambda i: f"TASK: RELATED_TITLES\nTITLE: {title}",
                text_input("IN"), timer,
            ),
            StageAgent(
                "RECOMMENDER", "hr-ft",
                lambda i: f"TASK: LIST_SKILLS\nTITLE: {title}",
                text_input("IN"), timer,
            ),
            StageAgent(
                "RANKER", "mega-s",
                lambda i: f"TASK: SUMMARIZE\nTEXT: {i['IN']} | {i.get('IN2', '')}",
                text_input("IN", "IN2"), timer,
            ),
        ]
        return FleetSubmission(plan=plan, agents=agents)

    def _fleet(self, count: int, backend: str, scale: float) -> tuple[Blueprint, FleetResult]:
        bp = Blueprint()
        bp.catalog.wall_latency_scale = scale
        submissions = [self.submission(index) for index in range(count)]
        result = bp.run_fleet(
            submissions, max_inflight=MAX_INFLIGHT, single_flight=False, backend=backend
        )
        return bp, result

    # -- the round ------------------------------------------------------
    def setup(self) -> None:
        self._fleet(4, "threads", WALL_SCALE / 10)  # warm-up, same call path
        self.timers = {}
        bp = Blueprint()
        bp.catalog.wall_latency_scale = WALL_SCALE
        self.blueprints = [bp]
        self.submissions = [self.submission(i) for i in range(len(self.topics))]

    def run(self, recorder=None) -> None:
        self.fleet_result = self.blueprints[0].run_fleet(
            self.submissions,
            max_inflight=MAX_INFLIGHT,
            single_flight=False,
            backend="threads",
        )
        self._leaked = [
            t.name for t in threading.enumerate() if t.name.startswith("engine-")
        ]

    def reference(self) -> FleetResult:
        """The same submissions on the serial backend, without sleeping.

        Simulated results do not depend on ``wall_latency_scale``, so the
        reference costs well under a second and is made once per process,
        outside set-up and outside the timed region.
        """
        if self._reference is None:
            timers = self.timers
            self.timers = {}
            _, self._reference = self._fleet(len(self.topics), "serial", 0.0)
            self.timers = timers
        return self._reference

    def outcome(self) -> Outcome:
        result = self.fleet_result
        reference = self.reference()
        plans = result.plans
        completed = [p for p in plans if p.outcome == "completed"]
        errored = [p for p in plans if p.outcome in ("failed", "aborted")]
        refused = [p for p in plans if p.outcome == "rejected"]
        latency = sorted(p.finished_at - p.arrived_at for p in completed)

        problems = []
        if len(plans) != len(self.topics):
            problems.append(f"{len(self.topics)} plans submitted, {len(plans)} outcomes")
        if len(completed) != len(plans):
            problems.append(f"{len(plans) - len(completed)} plans did not complete")
        if abs(result.makespan - reference.makespan) >= 1e-9:
            problems.append(
                f"makespan {result.makespan!r} != serial backend's "
                f"{reference.makespan!r}"
            )
        for ours, theirs in zip(plans, reference.plans):
            same = (
                ours.plan_id == theirs.plan_id
                and ours.outcome == theirs.outcome
                and abs((ours.finished_at or 0.0) - (theirs.finished_at or 0.0)) < 1e-9
                and (ours.run.node_outputs if ours.run else None)
                == (theirs.run.node_outputs if theirs.run else None)
            )
            if not same:
                problems.append(f"{ours.plan_id} differs from the serial backend's run")
                break
        if self._leaked:
            problems.append(f"engine threads alive after return: {self._leaked}")
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
                (p.plan_id, p.outcome, round(p.finished_at or 0.0, 9)) for p in plans
            ],
            sim={
                "sim_ops_per_s": len(completed) / result.makespan,
                "sim_latency_p50_s": percentile(latency, 0.50),
                "sim_latency_p95_s": percentile(latency, 0.95),
                "sim_cost_per_op_usd": (
                    self.blueprints[0].tracker.cost / max(1, len(completed))
                ),
            },
            problems=problems,
        )
