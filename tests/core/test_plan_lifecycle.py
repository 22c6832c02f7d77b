"""A plan's life has one shape on both doors: how it crashes and ends.

``execute_plan`` (standalone) and ``begin_plan`` (fleet) drive the same
:class:`PlanExecution`; these tests pin what its ending must look like —
one closed plan span, one status tally, time settled — whichever door
the plan came through and however it ended.
"""

import pytest

from repro.clock import SimClock
from repro.core.agent import FunctionAgent
from repro.core.budget import Budget
from repro.core.context import AgentContext
from repro.core.coordinator import TaskCoordinator
from repro.core.engine import SERIAL
from repro.core.params import Parameter
from repro.core.plan import Binding, TaskPlan
from repro.core.qos import QoSSpec
from repro.core.recovery import RecoveryManager, WriteAheadJournal
from repro.core.scheduler import VirtualTimeline
from repro.core.session import SessionManager
from repro.errors import ClusterUnavailableError, CoordinatorKilledError
from repro.observability import Observability
from repro.streams import StreamStore


def diamond(last_agent: str = "D") -> TaskPlan:
    """a -> (b, c) -> d; *last_agent* swaps in an agent nobody attached."""
    plan = TaskPlan("p", goal="diamond")
    plan.add_step("a", "A", {"IN": Binding.const("q")})
    plan.add_step("b", "B", {"IN": Binding.from_node("a", "OUT")})
    plan.add_step("c", "C", {"IN": Binding.from_node("a", "OUT")})
    plan.add_step(
        "d", last_agent,
        {"IN": Binding.from_node("b", "OUT"), "IN2": Binding.from_node("c", "OUT")},
    )
    return plan


class Rig:
    """One session with agents A–D (latencies 0.2 / 0.5 / 0.3 / 0.4)."""

    def __init__(self, qos: QoSSpec | None = None, kill_site: str | None = None):
        self.clock = SimClock()
        self.store = StreamStore(self.clock)
        self.session = SessionManager(self.store).create("lifecycle")
        self.obs = Observability(self.clock)
        self.budget = Budget(qos, clock=self.clock)
        #: Set to an exception instance to have agent C raise it mid-node.
        self.interrupt: BaseException | None = None
        self._kill_site = kill_site
        self.journal = WriteAheadJournal(
            self.store, session=self.session, barrier_hook=self._barrier
        )
        for name, latency in (("A", 0.2), ("B", 0.5), ("C", 0.3), ("D", 0.4)):
            self._stage(name, latency).attach(self.context())

    def _barrier(self, site: str) -> None:
        if site == self._kill_site:
            self._kill_site = None
            raise CoordinatorKilledError(f"killed at {site}")

    def context(self) -> AgentContext:
        return AgentContext(
            store=self.store, session=self.session, clock=self.clock,
            budget=self.budget, observability=self.obs,
        )

    def _stage(self, name: str, latency: float) -> FunctionAgent:
        def fn(inputs):
            self.budget.charge(f"agent:{name}", cost=0.01, latency=latency)
            if name == "C" and self.interrupt is not None:
                raise self.interrupt
            return {"OUT": f"{name}({inputs.get('IN')})"}

        return FunctionAgent(
            name, fn,
            inputs=(Parameter("IN", "text"), Parameter("IN2", "text", required=False)),
            outputs=(Parameter("OUT", "text"),),
        )

    def coordinator(self, **options) -> TaskCoordinator:
        coordinator = TaskCoordinator(journal=self.journal, **options)
        coordinator.attach(self.context())
        return coordinator

    def run_fleet_door(self, coordinator: TaskCoordinator, plan: TaskPlan):
        """Drive *plan* through ``begin_plan`` on a lent timeline."""
        timeline = VirtualTimeline(self.clock)
        execution = coordinator.begin_plan(plan, timeline=timeline, backend=SERIAL)
        while not execution.finished:
            SERIAL.step_round([execution])
        timeline.commit()
        return execution.result

    def plan_spans(self):
        return self.obs.tracer.find(kind="plan")

    def plan_run_tallies(self) -> dict[str, float]:
        return {
            key: value
            for key, value in self.obs.metrics.snapshot().items()
            if key.startswith("plan.runs")
        }

    def journal_events(self) -> list[str]:
        return [entry["event"] for entry in self.journal.entries("p")]


class TestCrashLandsInOnePlace:
    def test_base_exception_mid_plan_on_the_standalone_door(self):
        rig = Rig()
        rig.interrupt = KeyboardInterrupt("ctrl-c")
        coordinator = rig.coordinator(parallel=True)
        tracer = rig.obs.tracer
        with rig.obs.span("caller") as caller:
            with pytest.raises(KeyboardInterrupt):
                coordinator.execute_plan(diamond())
            # The chain is back where execute_plan found it.
            assert tracer.current() is caller
        [span] = rig.plan_spans()
        assert span.error == "KeyboardInterrupt: ctrl-c"
        # The owned timeline was committed: a (0.2) then b (0.5) is the
        # critical path; without the commit the clock would sit at the
        # end of c's branch (0.5), in the simulated past of b's end.
        assert rig.clock.now() == pytest.approx(0.7)
        assert span.end == pytest.approx(0.7)
        assert "status" not in span.attributes
        # A crashed run never concluded: no status tally.
        assert rig.plan_run_tallies() == {}
        assert coordinator.runs[0].status == "running"
        assert all(s.end is not None for s in tracer.spans())


    @pytest.mark.parametrize("door", ["standalone", "fleet"])
    def test_crash_at_admission_closes_the_span_too(self, door, monkeypatch):
        """The journal refusing the admission record (a stream partition
        below quorum) is a crash like any other: span closed with the
        error, chain restored.  (The fleet door used to leak the span.)"""
        rig = Rig()

        def refuse(*args, **kwargs):
            raise ClusterUnavailableError("journal below quorum")

        monkeypatch.setattr(rig.journal, "plan_started", refuse)
        coordinator = rig.coordinator()
        with rig.obs.span("caller") as caller:
            with pytest.raises(ClusterUnavailableError):
                if door == "fleet":
                    rig.run_fleet_door(coordinator, diamond())
                else:
                    coordinator.execute_plan(diamond())
            assert rig.obs.tracer.current() is caller
        [span] = rig.plan_spans()
        assert span.end is not None
        assert span.error == "ClusterUnavailableError: journal below quorum"
        assert rig.plan_run_tallies() == {}


class TestReplanNestsInsideTheAbortedRun:
    @pytest.mark.parametrize("parallel", [False, True])
    def test_escalated_span_is_a_child_that_ends_first(self, parallel):
        rig = Rig(qos=QoSSpec(max_cost=0.025, max_latency=100.0))
        coordinator = rig.coordinator(parallel=parallel, replan_on_violation=True)
        result = coordinator.execute_plan(diamond())
        aborted, escalated = coordinator.runs
        assert (aborted.status, escalated.status) == ("aborted", "completed")
        assert result is escalated
        outer, inner = rig.plan_spans()
        assert outer.attributes["status"] == "aborted"
        assert inner.attributes["status"] == "completed"
        assert inner.attributes["attempt"] == 1
        assert inner.parent_id == outer.span_id
        assert outer.start <= inner.start
        assert inner.end <= outer.end
        assert rig.plan_run_tallies() == {
            "plan.runs{status=aborted}": 1.0,
            "plan.runs{status=completed}": 1.0,
        }


class TestAbsentAgentConcludesExactlyOnce:
    def check_concluded_once(self, rig: Rig, run) -> None:
        assert run.status == "failed"
        assert run.abort_reason == "agents not present in session: ['GHOST']"
        [span] = [s for s in rig.plan_spans() if s.attributes.get("status") == "failed"]
        assert span.end is not None
        assert span.error == run.abort_reason
        assert span.attributes["nodes_executed"] == len(run.executed)
        assert rig.plan_run_tallies() == {"plan.runs{status=failed}": 1.0}
        assert rig.obs.tracer.current() is None

    def test_standalone_door(self):
        rig = Rig()
        run = rig.coordinator().execute_plan(diamond("GHOST"))
        self.check_concluded_once(rig, run)
        # Never admitted: no admission record, so no terminal record.
        assert rig.journal_events() == []

    def test_fleet_door(self):
        rig = Rig()
        run = rig.run_fleet_door(rig.coordinator(), diamond("GHOST"))
        self.check_concluded_once(rig, run)
        assert rig.journal_events() == []

    def test_resumed_plan_journals_its_terminal_record(self):
        # Admitted with D present, killed; the resumed plan names an agent
        # that is not in the session any more.
        rig = Rig(kill_site="boundary:p/c")
        doomed = rig.coordinator()
        with pytest.raises(CoordinatorKilledError):
            doomed.execute_plan(diamond())
        doomed.crash()
        snapshot = RecoveryManager(rig.journal).snapshot("p")
        snapshot.plan = diamond("GHOST")
        run = rig.coordinator().resume_plan(snapshot)
        assert run.resumed and run.executed == ["a", "b"]
        self.check_concluded_once(rig, run)
        assert rig.journal_events().count("plan_finished") == 1
        assert rig.journal.terminal_status("p") == "failed"
