"""Execution backends and the thread-safety primitives under them.

Covers the concurrency contract directly:

* SimClock branch overlays — per-thread private time over the shared
  clock, plus an N-thread ``advance_to`` stress asserting commits only
  ever ratchet the clock forward.
* VirtualTimeline.record — lock-protected horizon merges from workers.
* id_scope — owner-qualified id sequences immune to interleaving.
* Tracer.adopt — explicit cross-thread span-context transfer (a node
  span opened on a pool thread parents under its plan span).
* Budget.window — per-node charge attribution across threads.
* Backend resolution and the thread backend end to end (fleet smoke,
  result equality with serial, an empty round).
* The demand law (every ready unit gets a thread at once) and the
  crash contract of the unit the calling thread runs itself.
"""

from __future__ import annotations

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import pytest

from repro.clock import SimClock
from repro.core.agent import FunctionAgent
from repro.core.budget import Budget
from repro.core.engine import (
    SERIAL,
    SerialBackend,
    ThreadBackend,
    resolve_backend,
)
from repro.core.fleet import FleetSubmission
from repro.core.params import Parameter
from repro.core.plan import Binding, TaskPlan
from repro.core.runtime import Blueprint
from repro.core.scheduler import VirtualTimeline
from repro.ids import IdGenerator, current_id_scope, id_scope
from repro.observability.span import Tracer


# ----------------------------------------------------------------------
# SimClock branches
# ----------------------------------------------------------------------
class TestClockBranches:
    def test_branch_is_private_to_thread(self):
        clock = SimClock()
        clock.advance(10.0)
        clock.branch_begin(3.0)
        assert clock.now() == 3.0
        clock.advance(2.0)
        assert clock.now() == 5.0

        seen: list[float] = []
        worker = threading.Thread(target=lambda: seen.append(clock.now()))
        worker.start()
        worker.join()
        # The other thread reads the shared clock, not this branch.
        assert seen == [10.0]
        assert clock.branch_end() == 5.0
        assert clock.now() == 10.0

    def test_branch_advance_to_and_rebase_stay_local(self):
        clock = SimClock()
        clock.advance(8.0)
        clock.branch_begin(1.0)
        clock.advance_to(4.0)
        assert clock.now() == 4.0
        clock.advance_to(2.0)  # advance_to never rewinds, branch or not
        assert clock.now() == 4.0
        clock.rebase(0.5)  # rebase may rewind, branch-locally
        assert clock.now() == 0.5
        clock.branch_end()
        assert clock.now() == 8.0

    def test_nested_branch_rejected(self):
        clock = SimClock()
        clock.branch_begin(0.0)
        try:
            with pytest.raises(RuntimeError):
                clock.branch_begin(1.0)
        finally:
            clock.branch_end()

    def test_branch_end_without_begin_rejected(self):
        with pytest.raises(RuntimeError):
            SimClock().branch_end()

    def test_branch_active(self):
        clock = SimClock()
        assert not clock.branch_active()
        clock.branch_begin(1.0)
        assert clock.branch_active()
        clock.branch_end()
        assert not clock.branch_active()

    def test_advance_to_stress_monotonic_commits(self):
        """N threads hammering advance_to: the clock only moves forward.

        The satellite-3 audit rule made concrete: every read-modify-write
        on shared time must go through ``advance_to`` (atomic max), and
        under arbitrary interleaving the observed clock never decreases
        and lands exactly on the largest committed target.
        """
        clock = SimClock()
        observed: list[list[float]] = [[] for _ in range(8)]
        targets = [
            [float(i * 17 % 101) + worker for i in range(200)]
            for worker in range(8)
        ]

        def hammer(worker: int) -> None:
            for target in targets[worker]:
                observed[worker].append(clock.advance_to(target))

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(hammer, range(8)))

        for series in observed:
            assert series == sorted(series)  # per-thread monotone
        top = max(t for series in targets for t in series)
        assert clock.now() == top

    def test_serial_semantics_unchanged(self):
        """The overlay is inert until a branch is opened: plain clocks
        behave exactly as before (lock-free reads, shared writes)."""
        clock = SimClock(start=5.0)
        assert clock.advance(1.5) == 6.5
        assert clock.advance_to(6.0) == 6.5
        assert clock.rebase(2.0) == 2.0
        assert clock.now() == 2.0


# ----------------------------------------------------------------------
# VirtualTimeline.record
# ----------------------------------------------------------------------
class TestTimelineRecord:
    def test_record_merges_like_close(self):
        clock = SimClock()
        timeline = VirtualTimeline(clock)
        timeline.record(4.0)
        timeline.record(2.5)
        timeline.record(3.0)
        assert timeline.horizon == 4.0
        assert timeline.commit() == 4.0
        assert clock.now() == 4.0

    def test_concurrent_records(self):
        clock = SimClock()
        timeline = VirtualTimeline(clock)
        ends = [[float(i % 50) + worker * 0.01 for i in range(300)] for worker in range(6)]

        def merge(worker: int) -> None:
            for end in ends[worker]:
                timeline.record(end)

        with ThreadPoolExecutor(max_workers=6) as pool:
            list(pool.map(merge, range(6)))
        expected = max(e for series in ends for e in series)
        assert timeline.horizon == expected


# ----------------------------------------------------------------------
# id scopes
# ----------------------------------------------------------------------
class TestIdScopes:
    def test_unscoped_numbering_unchanged(self):
        ids = IdGenerator()
        assert ids.next("msg") == "msg-000001"
        assert ids.next("msg") == "msg-000002"
        assert ids.next("stream") == "stream-000001"

    def test_scoped_ids_are_owner_qualified(self):
        ids = IdGenerator()
        ids.next("msg")
        with id_scope("p1.m1"):
            assert current_id_scope() == "p1.m1"
            assert ids.next("msg") == "msg-p1.m1-000001"
            assert ids.next("msg") == "msg-p1.m1-000002"
        assert current_id_scope() is None
        # The unscoped sequence never saw the scoped draws.
        assert ids.next("msg") == "msg-000002"

    def test_scopes_nest_and_restore(self):
        ids = IdGenerator()
        with id_scope("outer"):
            with id_scope("inner"):
                assert ids.next("msg") == "msg-inner-000001"
            assert ids.next("msg") == "msg-outer-000001"

    def test_interleaving_cannot_change_scoped_ids(self):
        """The bug this kills: two owners racing one global counter get
        arrival-order ids (``msg-000042``); with scopes, each owner's ids
        depend only on its own draw count, whatever the interleaving."""
        ids = IdGenerator()
        results: dict[str, list[str]] = {}

        def draw(owner: str) -> None:
            with id_scope(owner):
                results[owner] = [ids.next("msg") for _ in range(50)]

        threads = [
            threading.Thread(target=draw, args=(f"plan-{i}",)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for owner, drawn in results.items():
            assert drawn == [
                f"msg-{owner}-{i:06d}" for i in range(1, 51)
            ]


# ----------------------------------------------------------------------
# cross-thread span adoption
# ----------------------------------------------------------------------
class TestTracerAdopt:
    def test_pool_thread_span_parents_under_plan_span(self):
        """Satellite-1 regression: Tracer state is thread-local, so a
        node span opened on a pool thread used to become a root.  With
        ``adopt``, it parents under the plan span captured by the
        scheduling thread."""
        tracer = Tracer(SimClock())
        plan_span = tracer.start_span("plan:pp", kind="plan")

        def open_node() -> int:
            with tracer.adopt(plan_span):
                with tracer.start_span("node:m1", kind="node") as node:
                    pass
            return node.span_id

        with ThreadPoolExecutor(max_workers=1) as pool:
            node_id = pool.submit(open_node).result()
        plan_span.__exit__(None, None, None)

        node = next(s for s in tracer.spans() if s.span_id == node_id)
        assert node.parent_id == plan_span.span_id
        # Adoption never mutated the parent's own chain: the plan span
        # closed normally on its opening thread.
        assert plan_span.end is not None

    def test_adopt_restores_previous_context(self):
        tracer = Tracer(SimClock())
        with tracer.start_span("outer") as outer:
            other = tracer.start_span("other")
            tracer.suspend(other)
            with tracer.adopt(other):
                assert tracer.current() is other
            assert tracer.current() is outer
            other.__exit__(None, None, None)

    def test_adopt_none_is_noop(self):
        tracer = Tracer(SimClock())
        with tracer.adopt(None):
            with tracer.start_span("root") as span:
                pass
        assert span.parent_id is None


# ----------------------------------------------------------------------
# budget charge windows
# ----------------------------------------------------------------------
class TestBudgetScopes:
    def test_scoped_charges_attributed(self):
        budget = Budget(clock=SimClock())
        budget.charge("setup", cost=1.0)
        with budget.window() as charges:
            budget.charge("llm", cost=2.0)
            budget.charge("llm", cost=3.0)
        budget.charge("teardown", cost=4.0)
        assert [c.cost for c in charges] == [2.0, 3.0]
        assert len(budget.charges()) == 4  # the global ledger sees all
        assert budget._windows == {}  # a closed window leaves nothing behind

    def test_concurrent_scopes_never_bleed(self):
        budget = Budget(clock=SimClock())
        start = threading.Barrier(8)

        def spend(owner: str) -> list:
            start.wait(timeout=30)
            with budget.window() as charges:
                for _ in range(40):
                    budget.charge(owner, cost=0.25, latency=0.01)
            return charges

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(spend, f"n{i}") for i in range(8)]
                windows = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for i, mine in enumerate(windows):
            assert len(mine) == 40
            assert all(c.source == f"n{i}" for c in mine)
        assert budget.spent_cost() == pytest.approx(8 * 40 * 0.25)
        assert budget._windows == {}

    def test_nested_windows_both_see_a_charge(self):
        budget = Budget(clock=SimClock())
        with budget.window() as outer:
            budget.charge("plan", cost=1.0)
            with budget.window() as inner:
                budget.charge("replan", cost=2.0)
            budget.charge("plan", cost=3.0)
        assert [c.cost for c in inner] == [2.0]
        assert [c.cost for c in outer] == [1.0, 2.0, 3.0]

    def test_window_equals_the_positional_slice_on_one_thread(self):
        budget = Budget(clock=SimClock())
        for step in range(5):
            marker = len(budget.charges())
            with budget.window() as charges:
                for i in range(step):
                    budget.charge(f"s{step}", cost=float(i), quality=0.9)
            assert charges == budget.charges()[marker:]

    def test_window_sees_only_its_own_budget(self):
        clock = SimClock()
        mine, other = Budget(clock=clock), Budget(clock=clock)
        with mine.window() as charges:
            other.charge("elsewhere", cost=1.0)
            mine.charge("here", cost=2.0)
        assert [c.source for c in charges] == ["here"]

    def test_window_excludes_other_threads(self):
        budget = Budget(clock=SimClock())
        with budget.window() as charges:
            budget.charge("mine", cost=1.0)
            worker = threading.Thread(target=budget.charge, args=("theirs", 2.0))
            worker.start()
            worker.join(timeout=30)
            assert not worker.is_alive()
        assert [c.source for c in charges] == ["mine"]
        assert [c.source for c in budget.charges()] == ["mine", "theirs"]


# ----------------------------------------------------------------------
# backends
# ----------------------------------------------------------------------
class TestBackendResolution:
    def test_none_and_serial_share_the_singleton(self):
        assert resolve_backend(None) is SERIAL
        assert resolve_backend("serial") is SERIAL
        assert isinstance(SERIAL, SerialBackend)
        assert not SERIAL.concurrent

    def test_threads_builds_fresh_instances(self):
        first = resolve_backend("threads")
        second = resolve_backend("threads")
        try:
            assert isinstance(first, ThreadBackend)
            assert first is not second
            assert first.concurrent
        finally:
            first.close()
            second.close()

    def test_instances_pass_through(self):
        backend = ThreadBackend()
        try:
            assert resolve_backend(backend) is backend
        finally:
            backend.close()

    def test_unknown_name_rejected(self):
        for name in ("gevent", "async", "asyncio"):
            with pytest.raises(ValueError):
                resolve_backend(name)

    def test_close_is_idempotent(self):
        backend = ThreadBackend()
        backend.close()
        backend.close()


def _workload(blueprint: Blueprint, plans: int) -> list[FleetSubmission]:
    from repro.cli import _fleet_agents, _fleet_plan

    return [
        FleetSubmission(
            plan=_fleet_plan(index),
            agents=_fleet_agents(blueprint.catalog, index),
        )
        for index in range(plans)
    ]


class TestThreadBackendFleet:
    def test_thread_fleet_matches_serial_results(self):
        def run(backend: str):
            blueprint = Blueprint()
            result = blueprint.run_fleet(
                _workload(blueprint, 6),
                max_inflight=3,
                single_flight=False,
                backend=backend,
            )
            return {
                p.plan_id: (
                    p.outcome,
                    {k: v for k, v in sorted(p.run.node_outputs.items())}
                    if p.run is not None
                    else None,
                )
                for p in result.plans
            }, result.makespan

        serial, serial_makespan = run("serial")
        threaded, thread_makespan = run("threads")
        assert serial == threaded
        assert thread_makespan == pytest.approx(serial_makespan)

    def test_node_spans_parent_under_plan_spans(self):
        blueprint = Blueprint()
        blueprint.run_fleet(
            _workload(blueprint, 4),
            max_inflight=4,
            single_flight=False,
            backend="threads",
        )
        tracer = blueprint.observability.tracer
        plan_ids = {s.span_id for s in tracer.find(kind="plan")}
        node_spans = tracer.find(kind="node")
        assert node_spans
        assert all(s.parent_id in plan_ids for s in node_spans)

    def test_thread_backend_closes_after_string_run(self):
        """run_fleet built the backend from a name, so it must not leak
        worker threads past the call."""
        before = {t.name for t in threading.enumerate()}
        blueprint = Blueprint()
        blueprint.run_fleet(
            _workload(blueprint, 3),
            max_inflight=3,
            single_flight=False,
            backend="threads",
        )
        lingering = {
            t.name
            for t in threading.enumerate()
            if t.name.startswith("engine-")
        } - before
        assert not lingering

    @pytest.mark.parametrize("backend", ["serial", "threads"])
    def test_a_round_of_refused_plans_is_empty(self, backend):
        """Every in-flight plan refused at admission leaves an empty round:
        the fleet reports the refusals instead of crashing on it."""
        blueprint = Blueprint()
        plans = []
        for index in range(2):
            plan = TaskPlan(f"absent-{index}", goal="names an absent agent")
            plan.add_step("only", "NOBODY", {"IN": Binding.const("x")})
            plans.append(plan)
        result = blueprint.run_fleet(plans, max_inflight=2, backend=backend)
        assert [p.outcome for p in result.plans] == ["failed", "failed"]


def _stage(name: str, meet: threading.Barrier | None = None) -> FunctionAgent:
    """A diamond stage that, given *meet*, blocks at that barrier first."""

    def fn(inputs):
        if meet is not None:
            meet.wait()
        return {"OUT": f"{name}({inputs['IN']})"}

    return FunctionAgent(
        name,
        fn,
        inputs=(Parameter("IN", "text"), Parameter("IN2", "text", required=False)),
        outputs=(Parameter("OUT", "text"),),
    )


def _barrier_fleet(
    plans: int, first: threading.Barrier | None, middle: threading.Barrier | None
) -> list[str]:
    """*plans* diamonds, all in flight at once, on the thread backend
    under a shortened switch interval; their outcomes."""
    blueprint = Blueprint()
    submissions = []
    for index in range(plans):
        plan = TaskPlan(f"meet-{index}", goal="diamond")
        plan.add_step("head", "HEAD", {"IN": Binding.const(f"#{index}")})
        plan.add_step("left", "LEFT", {"IN": Binding.from_node("head", "OUT")})
        plan.add_step("right", "RIGHT", {"IN": Binding.from_node("head", "OUT")})
        plan.add_step(
            "tail", "TAIL",
            {
                "IN": Binding.from_node("left", "OUT"),
                "IN2": Binding.from_node("right", "OUT"),
            },
        )
        agents = [
            _stage("HEAD", first),
            _stage("LEFT", middle),
            _stage("RIGHT", middle),
            _stage("TAIL"),
        ]
        submissions.append(FleetSubmission(plan=plan, agents=agents))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        result = blueprint.run_fleet(
            submissions, max_inflight=plans, single_flight=False, backend="threads"
        )
    finally:
        sys.setswitchinterval(interval)
    return [p.outcome for p in result.plans]


class TestDemandLaw:
    """Every ready unit runs at once: units that can only finish together
    (they meet at one barrier) must all get a thread.  The barriers time
    out, so a starved unit fails its plan instead of hanging the suite."""

    def test_every_node_of_every_middle_wave_runs_at_once(self):
        # 4 plans x a 2-wide middle wave = 8 nodes in one round.
        outcomes = _barrier_fleet(4, None, threading.Barrier(8, timeout=2))
        assert outcomes == ["completed"] * 4

    def test_every_in_flight_plan_steps_at_once(self):
        # 8 plans whose first wave is one node each = 8 steps in one round.
        outcomes = _barrier_fleet(8, threading.Barrier(8, timeout=2), None)
        assert outcomes == ["completed"] * 8


class TestNodeSettingsStayPerNode:
    """Two nodes of one wave that drive the same agent each see only their
    own ``EXECUTE_AGENT`` model hint, on either backend.  On threads they
    meet at a barrier inside the processor, so both hints are set before
    either node calls the model."""

    @pytest.mark.parametrize("backend", ["serial", "threads"])
    def test_wave_siblings_keep_their_own_model_hint(self, backend):
        meet = threading.Barrier(2, timeout=2) if backend == "threads" else None

        def ask(inputs):
            if meet is not None:
                meet.wait()
            return {"OUT": asker.complete(inputs["IN"]).model}

        asker = FunctionAgent(
            "ASKER", ask,
            inputs=(Parameter("IN", "text"),),
            outputs=(Parameter("OUT", "text"),),
        )
        plan = TaskPlan("hints", goal="two model tiers in one wave")
        plan.add_step("head", "HEAD", {"IN": Binding.const("TASK: ECHO hello")})
        for node, model in (("a", "mega-s"), ("b", "mega-xl")):
            plan.add_step(
                node, "ASKER", {"IN": Binding.from_node("head", "OUT")}, model=model
            )
        blueprint = Blueprint()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            result = blueprint.run_fleet(
                [FleetSubmission(plan=plan, agents=[_stage("HEAD"), asker])],
                single_flight=False,
                backend=backend,
            )
        finally:
            sys.setswitchinterval(interval)
        run = result.plans[0].run
        assert run.status == "completed"
        assert {node: run.node_outputs[node]["OUT"] for node in ("a", "b")} == {
            "a": "mega-s",
            "b": "mega-xl",
        }


class _StubExecution:
    """Just enough of a ``PlanExecution`` for the backend to drive."""

    def __init__(self, clock: SimClock, drive=None, step=None) -> None:
        self.clock = clock
        self.run = SimpleNamespace(plan_id="stub", executed=set())
        self.timeline = VirtualTimeline(clock)
        self._tracer = None
        self._ends: dict[str, float] = {}
        self.drive = drive
        self.step = step

    def ready_time(self, node) -> float:
        return 0.0

    def count_parallel(self, nodes: int) -> None:
        pass


class TestCallerRunsCrashContract:
    """The unit the calling thread runs itself keeps the crash contract:
    its error waits for every sibling, and no worker outlives close()."""

    def test_the_callers_node_error_waits_for_its_sleeping_sibling(self):
        caller = threading.current_thread()
        seen: dict[str, threading.Thread] = {}

        def drive(node, wave_index, wave_len):
            seen[node.node_id] = threading.current_thread()
            if node.node_id == "first":
                raise RuntimeError("first node died")
            time.sleep(0.05)
            return "ok"

        before = set(threading.enumerate())
        backend = ThreadBackend()
        execution = _StubExecution(SimClock(), drive=drive)
        wave = [SimpleNamespace(node_id="first"), SimpleNamespace(node_id="second")]
        with pytest.raises(RuntimeError, match="first node died"):
            backend.run_wave(execution, wave, 0)
        assert seen["first"] is caller
        assert seen["second"] is not caller
        assert set(execution._ends) == {"first", "second"}
        backend.close()
        assert not [
            t for t in threading.enumerate()
            if t not in before and t.name.startswith("engine-")
        ]

    def test_a_round_reraises_the_first_crash_after_every_step(self):
        clock = SimClock()
        finished: list[int] = []

        def step_of(index: int, crash: bool):
            def step():
                if index:
                    time.sleep(0.05)
                finished.append(index)
                if crash:
                    raise RuntimeError(f"plan {index} crashed")
                return False

            return step

        before = set(threading.enumerate())
        backend = ThreadBackend()
        executions = [
            _StubExecution(clock, step=step_of(0, True)),
            _StubExecution(clock, step=step_of(1, True)),
            _StubExecution(clock, step=step_of(2, False)),
        ]
        with pytest.raises(RuntimeError, match="plan 0 crashed"):
            backend.step_round(executions)
        assert sorted(finished) == [0, 1, 2]
        backend.close()
        assert not [
            t for t in threading.enumerate()
            if t not in before and t.name.startswith("engine-")
        ]
