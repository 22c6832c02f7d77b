"""Unit tests for the fleet scheduler: admission, timing, contention."""

import pytest

from repro.clock import SimClock
from repro.core.agent import FunctionAgent
from repro.core.budget import Budget
from repro.core.context import AgentContext
from repro.core.coordinator import TaskCoordinator
from repro.core.execution import PlanExecution
from repro.core.fleet import FleetEntry, FleetScheduler, FleetSubmission
from repro.core.overload import AdmissionController
from repro.core.params import Parameter
from repro.core.plan import Binding, TaskPlan
from repro.core.runtime import Blueprint
from repro.core.scheduler import VirtualTimeline
from repro.core.session import SessionManager
from repro.llm import ModelCapacity
from repro.streams import StreamStore


def chain_plan(plan_id: str, depth: int = 3) -> TaskPlan:
    """A straight chain of *depth* one-second stages: critical path = depth."""
    plan = TaskPlan(plan_id, goal="chain")
    previous = None
    for i in range(depth):
        binding = (
            Binding.const("go") if previous is None
            else Binding.from_node(previous, "OUT")
        )
        plan.add_step(f"n{i}", f"STAGE{i}", {"IN": binding})
        previous = f"n{i}"
    return plan


def make_entry(store, clock, plan_id: str, depth: int = 3, latency: float = 1.0):
    """One prepared fleet entry: own session, budget-clocked stages."""
    session = SessionManager(store).create(f"session-{plan_id}")
    budget = Budget(clock=clock)
    context = AgentContext(store=store, session=session, clock=clock, budget=budget)

    def stage(name):
        def fn(inputs):
            budget.charge(f"agent:{name}", cost=0.01, latency=latency)
            return {"OUT": f"{name}({inputs['IN']})"}

        return FunctionAgent(
            name, fn,
            inputs=(Parameter("IN", "text"),),
            outputs=(Parameter("OUT", "text"),),
        )

    for i in range(depth):
        stage(f"STAGE{i}").attach(context)
    coordinator = TaskCoordinator(parallel=True)
    coordinator.attach(context)
    return FleetEntry(plan=chain_plan(plan_id, depth), coordinator=coordinator)


@pytest.fixture
def harness():
    clock = SimClock()
    return clock, StreamStore(clock)


class TestFleetScheduling:
    def test_validates_limits(self, harness):
        clock, _ = harness
        with pytest.raises(ValueError):
            FleetScheduler(VirtualTimeline(clock), clock, max_inflight=0)
        with pytest.raises(ValueError):
            FleetScheduler(VirtualTimeline(clock), clock, max_backlog=-1)

    def test_admission_and_max_backlog_are_exclusive(self, harness):
        """A controller carries its own bounds, so a ``max_backlog`` beside
        one would bound nothing: refused at construction, not dropped."""
        clock, _ = harness
        gate = AdmissionController()
        with pytest.raises(ValueError, match="max_backlog"):
            FleetScheduler(
                VirtualTimeline(clock), clock, admission=gate, max_backlog=12
            )
        with pytest.raises(ValueError, match="max_backlog"):
            Blueprint().run_traffic(
                [], lambda arrival: None, admission=gate, max_backlog=12
            )
        # Either alone is fine.
        FleetScheduler(VirtualTimeline(clock), clock, admission=gate)
        FleetScheduler(VirtualTimeline(clock), clock, max_backlog=12)

    def test_concurrent_makespan_is_max_not_sum(self, harness):
        clock, store = harness
        entries = [make_entry(store, clock, f"p{i}") for i in range(4)]
        scheduler = FleetScheduler(VirtualTimeline(clock), clock, max_inflight=4)
        result = scheduler.run(entries)
        assert [p.outcome for p in result.plans] == ["completed"] * 4
        # Four 3s chains fully overlapped: makespan = 3, not 12.
        assert result.makespan == pytest.approx(3.0)
        assert clock.now() == pytest.approx(3.0)
        for plan_result in result.plans:
            assert plan_result.admitted_at == 0.0
            assert plan_result.finished_at == pytest.approx(3.0)
            assert plan_result.queue_wait == 0.0

    def test_backlog_admitted_when_slot_frees(self, harness):
        clock, store = harness
        entries = [make_entry(store, clock, f"p{i}") for i in range(4)]
        scheduler = FleetScheduler(VirtualTimeline(clock), clock, max_inflight=2)
        result = scheduler.run(entries)
        assert result.admitted == 4
        assert result.queued == 2
        assert result.rejected == 0
        # Two run at once: second pair starts when the first pair ends.
        assert result.makespan == pytest.approx(6.0)
        waits = [p.queue_wait for p in result.plans]
        assert waits == [0.0, 0.0, pytest.approx(3.0), pytest.approx(3.0)]
        assert result.plans[2].admitted_at == pytest.approx(3.0)
        assert result.plans[3].finished_at == pytest.approx(6.0)

    def test_overflow_rejected_beyond_backlog(self, harness):
        clock, store = harness
        entries = [make_entry(store, clock, f"p{i}") for i in range(4)]
        scheduler = FleetScheduler(
            VirtualTimeline(clock), clock, max_inflight=1, max_backlog=1
        )
        result = scheduler.run(entries)
        assert result.admitted == 2
        assert result.queued == 1
        assert result.rejected == 2
        assert [p.outcome for p in result.plans] == [
            "completed", "completed", "rejected", "rejected",
        ]
        rejected = result.plans[2]
        assert rejected.run is None
        assert rejected.admitted_at is None
        assert result.completed() == result.plans[:2]
        assert len(result.runs()) == 2

    def test_plan_results_report_node_outputs(self, harness):
        clock, store = harness
        result = FleetScheduler(VirtualTimeline(clock), clock).run(
            [make_entry(store, clock, "solo", depth=2)]
        )
        run = result.plans[0].run
        assert run.node_outputs["n1"]["OUT"] == "STAGE1(STAGE0(go))"

    def test_step_exception_abandons_plan(self, harness, monkeypatch):
        clock, store = harness
        entry = make_entry(store, clock, "boom")

        class Boom(BaseException):
            pass

        def explode(*args, **kwargs):
            raise Boom("plan driver died")

        monkeypatch.setattr(PlanExecution, "drive", explode)
        scheduler = FleetScheduler(VirtualTimeline(clock), clock)
        with pytest.raises(Boom):
            scheduler.run([entry])


class TestRunFleet:
    def plans_and_agents(self, bp, count):
        from repro.core.plan import Binding, TaskPlan

        def submission(index):
            plan = TaskPlan(f"llm-{index}", goal="llm chain")
            plan.add_step(
                "ask", "ASKER", {"IN": Binding.const("TASK: LIST_SKILLS")}
            )

            def fn(inputs):
                return {"OUT": bp.catalog.client("mega-s").complete(inputs["IN"]).text}

            agent = FunctionAgent(
                "ASKER", fn,
                inputs=(Parameter("IN", "text"),),
                outputs=(Parameter("OUT", "text"),),
            )
            return FleetSubmission(plan=plan, agents=[agent])

        return [submission(i) for i in range(count)]

    def test_capacity_limit_honored(self):
        bp = Blueprint()
        result = bp.run_fleet(
            self.plans_and_agents(bp, 4),
            max_inflight=4,
            single_flight=False,
            capacity={"mega-s": 2},
        )
        assert len(result.completed()) == 4
        assert bp.catalog.capacity.max_concurrency("mega-s") <= 2
        stats = bp.catalog.capacity.stats()
        assert stats.queued > 0
        assert stats.total_wait > 0

    def test_single_flight_coalesces_identical_calls(self):
        bp = Blueprint()
        result = bp.run_fleet(
            self.plans_and_agents(bp, 4), max_inflight=4, single_flight=True
        )
        assert len(result.completed()) == 4
        stats = bp.catalog.single_flight.stats()
        # All four issue the same prompt at the same instant: one leads.
        assert stats.leaders == 1
        assert stats.joins == 3
        assert stats.saved_cost > 0
        # Every plan still sees the full response text.
        texts = {r.node_outputs["ask"]["OUT"] for r in result.runs()}
        assert len(texts) == 1

    def test_fleet_metrics_and_span(self):
        bp = Blueprint()
        bp.run_fleet(self.plans_and_agents(bp, 3), max_inflight=2)
        metrics = bp.observability.metrics.snapshot()
        assert metrics["fleet.admitted"] == 3.0
        assert metrics["fleet.queued"] == 1.0
        spans = bp.observability.tracer.spans()
        fleet_spans = [s for s in spans if s.kind == "fleet"]
        assert len(fleet_spans) == 1
        assert fleet_spans[0].attributes["admitted"] == 3
        plan_spans = [s for s in spans if s.kind == "plan"]
        assert {s.attributes.get("scheduler") for s in plan_spans} == {"fleet"}

    def test_capacity_accepts_model_capacity_instance(self):
        bp = Blueprint()
        capacity = ModelCapacity({"mega-s": 1})
        bp.run_fleet(
            self.plans_and_agents(bp, 2),
            single_flight=False,
            capacity=capacity,
        )
        assert bp.catalog.capacity is capacity
        assert capacity.max_concurrency("mega-s") == 1

    @pytest.mark.parametrize("backend", ["serial", "threads"])
    def test_interleaved_plans_keep_their_own_no_cache(self, backend):
        """Plans with and without ``no_cache`` step round-robin in one
        fleet over one shared LLM cache: each node sees its own plan's
        setting, never a sibling plan's."""
        bp = Blueprint(llm_cache=True)

        def submission(index):
            plan = TaskPlan(f"nc-{index}", goal="two cached asks", no_cache=bool(index % 2))
            plan.add_step("first", "ASKER", {"IN": Binding.const("TASK: ECHO hello")})
            plan.add_step(
                "second", "ASKER",
                {
                    "IN": Binding.const("TASK: ECHO hello"),
                    "AFTER": Binding.from_node("first", "OUT"),
                },
            )

            def fn(inputs):
                return {"OUT": agent.complete(inputs["IN"]).cached}

            agent = FunctionAgent(
                "ASKER", fn,
                inputs=(
                    Parameter("IN", "text"),
                    Parameter("AFTER", "json", required=False),
                ),
                outputs=(Parameter("OUT", "json"),),
            )
            return FleetSubmission(plan=plan, agents=[agent])

        result = bp.run_fleet(
            [submission(i) for i in range(4)],
            max_inflight=4,
            single_flight=False,
            backend=backend,
        )
        cached = {
            r.plan_id: [r.node_outputs[n]["OUT"] for n in ("first", "second")]
            for r in result.runs()
        }
        # A no_cache plan never reads the cache; a cached plan's second ask
        # hits what the first round stored.
        assert cached["nc-1"] == cached["nc-3"] == [False, False]
        assert cached["nc-0"][1] is cached["nc-2"][1] is True
        if backend == "serial":
            assert cached["nc-0"] == [False, True]
            assert cached["nc-2"] == [True, True]
