"""Property-based tests: the fleet scheduler adds *concurrency*, nothing else.

Acceptance criteria for fleet execution:

* **Fleet of one ≡ plain run.**  For any seed, fault rate, and chaos
  kill point, a single plan driven through :class:`FleetScheduler` is
  byte-identical to the same plan driven by ``execute_plan`` with the
  parallel scheduler — same stream export (messages, ids, timestamps),
  same journal entries, same charges, same clock end.  The fleet path
  reuses the exact same wave stepper, so this holds to the byte, not
  just up to time.

* **Determinism under resubmission.**  The same submission list produces
  byte-identical stream exports run to run, even with shared model
  capacity and single-flight coalescing in play.

* **Order-independence absent contention.**  Without shared contention
  (no capacity limits, no coalescing), each plan's outputs, finish time,
  and the fleet makespan are functions of the plan alone — permuting the
  submission order changes nothing but message interleaving.

* **Thread backend is result-identical.**  The same seeds × fault rates
  × kill points driven through :class:`ThreadBackend` produce the same
  node outputs, statuses, charge multisets, and journal entry sets as
  serial — only event *order* (store arrival, id numbering scheme, span
  interleaving) may differ.  A failed wave is the one defined
  divergence: serial stops at the first failing node, thread mode has
  already started its siblings, so serial's executed set is a subset.

* **The batch admission law.**  A closed batch admits exactly the first
  ``max_inflight + max_backlog`` submissions by index — the window at
  the origin, the rest each at the end of the next finisher in
  ``(plan_end, index)`` order — and rejects the remainder
  ``backlog_full``; never more than ``max_inflight`` run at once.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import SimClock
from repro.core.agent import FunctionAgent
from repro.core.budget import Budget
from repro.core.context import AgentContext
from repro.core.coordinator import TaskCoordinator
from repro.core.engine import ThreadBackend
from repro.core.fleet import FleetEntry, FleetScheduler, FleetSubmission
from repro.core.params import Parameter
from repro.core.plan import Binding, TaskPlan
from repro.core.recovery import RecoveryManager, WriteAheadJournal
from repro.core.resilience import (
    ChaosController,
    ChaosSpec,
    KillSwitch,
    RetryPolicy,
)
from repro.core.runtime import Blueprint
from repro.core.scheduler import VirtualTimeline
from repro.core.session import SessionManager
from repro.errors import CoordinatorKilledError
from repro.observability import Observability
from repro.streams import StreamStore
from repro.streams.persistence import export_json


def diamond_plan(seed: int) -> TaskPlan:
    """Fan-out/fan-in: S1 -> (M1, M2, M3) -> S2 (two waves of real width)."""
    plan = TaskPlan("fp", goal="diamond")
    plan.add_step("s1", "A", {"IN": Binding.const(f"q{seed}")})
    plan.add_step("m1", "B", {"IN": Binding.from_node("s1", "OUT")})
    plan.add_step("m2", "C", {"IN": Binding.from_node("s1", "OUT")})
    plan.add_step("m3", "D", {"IN": Binding.from_node("s1", "OUT")})
    plan.add_step(
        "s2", "E",
        {"IN": Binding.from_node("m1", "OUT"), "IN2": Binding.from_node("m2", "OUT")},
    )
    return plan


def run_scenario(
    seed: int,
    fault_rate: float,
    kill_at: int | None,
    fleet: bool,
    backend=None,
    observability=None,
):
    """One seeded diamond run under agent chaos, optionally kill+resumed.

    With *fleet*, the plan goes through a one-slot :class:`FleetScheduler`
    on a shared timeline (stepping waves via *backend* when given);
    otherwise ``execute_plan`` drives it directly.  Everything else —
    store, session, journal, chaos, retries — is identical, so the
    outputs must be too.  *observability* traces the run (contexts and
    the fleet scheduler) on its own clock, for the caller to inspect.
    """
    clock = SimClock() if observability is None else observability.tracer.clock
    store = StreamStore(clock)
    session = SessionManager(store).create("fleet-prop")
    budget = Budget(clock=clock)
    chaos = ChaosController(
        ChaosSpec(agent_transient_rate=fault_rate), seed=seed, clock=clock
    )
    switch = KillSwitch(kill_at) if kill_at is not None else None
    journal = WriteAheadJournal(store, session=session, barrier_hook=switch)

    def context():
        return AgentContext(
            store=store, session=session, clock=clock, budget=budget,
            observability=observability,
        )

    def stage(name, latency):
        def fn(inputs):
            chaos.agent_fault(f"{name}|{inputs.get('IN')}")
            budget.charge(f"agent:{name}", cost=0.01, latency=latency)
            bound = ",".join(str(v) for k, v in sorted(inputs.items()) if v)
            return {"OUT": f"{name}({bound})"}

        return FunctionAgent(
            name, fn,
            inputs=(
                Parameter("IN", "text"),
                Parameter("IN2", "text", required=False),
            ),
            outputs=(Parameter("OUT", "text"),),
        )

    for name, latency in (("A", 0.2), ("B", 0.5), ("C", 0.3), ("D", 0.4), ("E", 0.1)):
        stage(name, latency).attach(context())

    def new_coordinator():
        coordinator = TaskCoordinator(
            journal=journal,
            parallel=True,
            retry_policy=RetryPolicy(
                max_attempts=3, base_delay=0.5, jitter=0.5, seed=seed
            ),
        )
        coordinator.attach(context())
        return coordinator

    coordinator = new_coordinator()
    try:
        if fleet:
            scheduler = FleetScheduler(
                VirtualTimeline(clock), clock, max_inflight=1, backend=backend,
                observability=observability,
            )
            result = scheduler.run(
                [
                    FleetEntry(
                        plan=diamond_plan(seed),
                        coordinator=coordinator,
                        budget=budget,
                    )
                ]
            )
            run = result.plans[0].run
        else:
            run = coordinator.execute_plan(diamond_plan(seed))
    except CoordinatorKilledError:
        coordinator.crash()
        manager = RecoveryManager(journal, coordinator=new_coordinator())
        runs = manager.resume_incomplete(budget=budget)
        assert len(runs) == 1
        run = runs[0]
    charges = sorted((c.source, c.cost, c.latency) for c in budget.charges())
    return (
        dict(run.node_outputs),
        charges,
        # Full entries, timestamps included: fleet-of-one must reproduce
        # the journal to the byte, not just up to time.
        journal.entries("fp"),
        run.status,
        export_json(store),
        clock.now(),
        normalized_trace(store),
    )


def normalized_trace(store) -> list[tuple]:
    """The store's global trace as a sorted multiset of message facts.

    Thread-backend runs append to the store in pool-arrival order, so the
    raw export is order-unstable run to run even when every message —
    id, stream, payload, producer, timestamp — is identical.  Sorting
    removes exactly (and only) the arrival order.
    """
    return sorted(
        (
            message.stream_id,
            message.message_id,
            message.kind.value,
            repr(message.payload),
            message.producer,
            message.timestamp,
        )
        for message in store.trace()
    )


def plan_span_tree(tracer) -> list[tuple]:
    """Every span but the enclosing ``fleet`` one, as door-independent facts.

    The plan span's ``scheduler`` attribute names the door it came
    through and its parent is the fleet span on that door only; nothing
    else about the subtree may tell the two apart.
    """
    spans = tracer.spans()
    by_id = {span.span_id: span for span in spans}

    def parent_name(span):
        parent = by_id.get(span.parent_id)
        return None if parent is None or parent.kind == "fleet" else parent.name

    return [
        (
            span.name, span.kind, parent_name(span), span.start, span.end,
            span.status, span.error,
            {k: v for k, v in span.attributes.items() if k != "scheduler"},
        )
        for span in spans
        if span.kind != "fleet"
    ]


def run_thread_scenario(seed: int, fault_rate: float, kill_at: int | None):
    """`run_scenario` through the fleet path on a fresh thread backend."""
    engine = ThreadBackend()
    try:
        return run_scenario(seed, fault_rate, kill_at, fleet=True, backend=engine)
    finally:
        engine.close()


def _freeze(value):
    """Recursively hashable form of a journal entry, time fields stripped.

    Branch-local timestamps are the one thing wave/thread accounting is
    *allowed* to reorder relative to the global clock; every other field
    must match the serial run exactly.
    """
    if isinstance(value, dict):
        return tuple(
            sorted(
                (k, _freeze(v))
                for k, v in value.items()
                if k not in ("timestamp", "started_at")
            )
        )
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


class TestFleetOfOneEquivalence:
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        fault_rate=st.floats(min_value=0.0, max_value=0.5),
        kill_at=st.one_of(st.none(), st.integers(min_value=0, max_value=11)),
    )
    @settings(max_examples=25, deadline=None)
    def test_fleet_of_one_is_byte_identical(self, seed, fault_rate, kill_at):
        plain = run_scenario(seed, fault_rate, kill_at, fleet=False)
        fleet = run_scenario(seed, fault_rate, kill_at, fleet=True)
        # Store export first: messages, ids, *and timestamps* must match.
        assert fleet[4] == plain[4]
        assert fleet == plain

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        fault_rate=st.floats(min_value=0.0, max_value=0.5),
    )
    @settings(max_examples=25, deadline=None)
    def test_fleet_of_one_traces_the_same_plan_subtree(self, seed, fault_rate):
        """Traced, un-killed: the plan -> node -> agent span subtree of the
        two doors agrees on names, parents, stamps, errors and attributes."""
        plain_obs, fleet_obs = Observability(), Observability()
        plain = run_scenario(seed, fault_rate, None, fleet=False, observability=plain_obs)
        fleet = run_scenario(seed, fault_rate, None, fleet=True, observability=fleet_obs)
        assert fleet == plain
        assert [s.kind for s in fleet_obs.tracer.roots()] == ["fleet"]
        tree = plan_span_tree(plain_obs.tracer)
        assert plan_span_tree(fleet_obs.tracer) == tree
        assert tree[0][:3] == ("plan:fp", "plan", None)
        assert all(end is not None for _, _, _, _, end, *_ in tree)


class TestThreadBackendEquivalence:
    """Same seeds × fault rates through :class:`ThreadBackend`: results
    must match serial even where event order differs."""

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        fault_rate=st.floats(min_value=0.0, max_value=0.5),
    )
    @settings(max_examples=15, deadline=None)
    def test_thread_results_match_serial(self, seed, fault_rate):
        outputs_s, charges_s, journal_s, status_s, _, end_s, _ = run_scenario(
            seed, fault_rate, None, fleet=True
        )
        outputs_t, charges_t, journal_t, status_t, _, end_t, _ = (
            run_thread_scenario(seed, fault_rate, None)
        )
        # Fault decisions are content-seeded (hash of seed|key|counter),
        # so the same nodes fail under both backends: statuses agree.
        assert status_t == status_s
        # Serial stops a failed wave at the first failing node; thread
        # mode has already started the siblings — subset, not equality.
        assert outputs_s.items() <= outputs_t.items()
        if status_s == "completed":
            assert outputs_t == outputs_s
            assert charges_t == charges_s
            assert end_t == end_s
            # Journal entry *sets* match up to time: same records, only
            # write order and arrival interleaving may differ.
            assert {_freeze(e) for e in journal_t} == {
                _freeze(e) for e in journal_s
            }

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        fault_rate=st.floats(min_value=0.0, max_value=0.5),
    )
    @settings(max_examples=10, deadline=None)
    def test_thread_runs_are_result_deterministic(self, seed, fault_rate):
        """Two same-seed thread runs agree on every message fact — ids,
        payloads, timestamps — modulo store arrival order."""
        first = run_thread_scenario(seed, fault_rate, None)
        second = run_thread_scenario(seed, fault_rate, None)
        assert first[0] == second[0]  # node outputs
        assert first[1] == second[1]  # charge multiset
        assert first[3] == second[3]  # status
        assert first[5] == second[5]  # clock end
        assert first[6] == second[6]  # normalized trace

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        kill_at=st.integers(min_value=0, max_value=11),
    )
    @settings(max_examples=15, deadline=None)
    def test_thread_chaos_kill_resume_converges(self, seed, kill_at):
        """Chaos under the thread backend: kill at the Nth barrier (which
        barrier that is depends on thread interleaving), resume, and the
        final state must equal the uninterrupted serial run's — the
        kill-point-invariance property, backend-independent."""
        outputs_s, _, _, status_s, _, _, _ = run_scenario(
            seed, 0.0, None, fleet=True
        )
        outputs_t, _, _, status_t, _, _, _ = run_thread_scenario(
            seed, 0.0, kill_at
        )
        assert status_t == status_s == "completed"
        assert outputs_t == outputs_s


def job_plan(index: int) -> TaskPlan:
    """Fig-6-style plan with per-index inputs (distinct LLM latencies)."""
    plan = TaskPlan(f"job-{index:02d}", goal=f"session {index}")
    plan.add_step(
        "profile", "PROFILER", {"IN": Binding.const(f"candidate #{index}")}
    )
    plan.add_step("match", "MATCHER", {"IN": Binding.from_node("profile", "OUT")})
    plan.add_step(
        "rank", "RANKER", {"IN": Binding.from_node("match", "OUT")}
    )
    return plan


def job_agents(catalog, index: int):
    """LLM-backed stages; MATCHER's prompt is shared across sessions."""

    def llm_stage(name, model, prompt_of):
        def fn(inputs):
            return {"OUT": catalog.client(model).complete(prompt_of(inputs)).text}

        return FunctionAgent(
            name, fn,
            inputs=(Parameter("IN", "text"),),
            outputs=(Parameter("OUT", "text"),),
        )

    return [
        llm_stage(
            "PROFILER", "mega-s",
            lambda i: f"TASK: EXTRACT\nFIELDS: title\nTEXT: {i['IN']}",
        ),
        llm_stage(
            "MATCHER", "mega-m",
            lambda i: "TASK: RELATED_TITLES\nTITLE: data scientist",
        ),
        llm_stage(
            "RANKER", "mega-s",
            lambda i: f"TASK: SUMMARIZE\nTEXT: {i.get('IN', '')}",
        ),
    ]


def run_fleet_blueprint(order, **kwargs):
    """A fresh Blueprint fleet run over ``job_plan(i) for i in order``."""
    bp = Blueprint()
    submissions = [
        FleetSubmission(plan=job_plan(i), agents=job_agents(bp.catalog, i))
        for i in order
    ]
    result = bp.run_fleet(submissions, **kwargs)
    return bp, result


class TestFleetDeterminism:
    @given(seed=st.integers(min_value=0, max_value=100))
    @settings(max_examples=10, deadline=None)
    def test_same_submissions_byte_identical(self, seed):
        """Rerunning the same list reproduces the store to the byte,
        even with capacity queueing and single-flight coalescing live."""
        order = [seed % 5, (seed + 1) % 5, (seed + 2) % 5]
        kwargs = dict(max_inflight=2, capacity={"mega-s": 1}, single_flight=True)
        bp1, r1 = run_fleet_blueprint(order, **kwargs)
        bp2, r2 = run_fleet_blueprint(order, **kwargs)
        assert export_json(bp1.store) == export_json(bp2.store)
        assert r1.makespan == r2.makespan
        assert [(p.plan_id, p.outcome, p.finished_at) for p in r1.plans] == [
            (p.plan_id, p.outcome, p.finished_at) for p in r2.plans
        ]

    @given(permutation=st.permutations(list(range(4))))
    @settings(max_examples=10, deadline=None)
    def test_reordered_submission_same_outcomes(self, permutation):
        """Without shared contention, per-plan results and the makespan
        are functions of the plans, not of submission order."""
        kwargs = dict(max_inflight=4, single_flight=False, journal=False)
        _, base = run_fleet_blueprint(list(range(4)), **kwargs)
        _, permuted = run_fleet_blueprint(permutation, **kwargs)

        def by_plan(result):
            return {
                p.plan_id: (
                    p.outcome,
                    p.admitted_at,
                    p.finished_at,
                    dict(p.run.node_outputs) if p.run else None,
                )
                for p in result.plans
            }

        assert by_plan(permuted) == by_plan(base)
        assert permuted.makespan == base.makespan


def run_chain_batch(depths, paces, max_inflight, max_backlog, backend=None):
    """A closed batch of chain plans: plan ``i`` (``p{i:02d}``) is
    ``depths[i]`` stages of ``paces[i]`` simulated seconds each.

    Returns ``(result, fleet.queued metric)``.
    """
    clock = SimClock()
    store = StreamStore(clock)
    observability = Observability(clock)
    entries = []
    for index, (depth, pace) in enumerate(zip(depths, paces)):
        session = SessionManager(store).create(f"batch-{index:02d}")
        budget = Budget(clock=clock)
        context = AgentContext(
            store=store, session=session, clock=clock, budget=budget
        )

        def stage(name, budget=budget, pace=pace):
            def fn(inputs):
                budget.charge(f"agent:{name}", cost=0.01, latency=pace)
                return {"OUT": f"{name}({inputs['IN']})"}

            return FunctionAgent(
                name, fn,
                inputs=(Parameter("IN", "text"),),
                outputs=(Parameter("OUT", "text"),),
            )

        plan = TaskPlan(f"p{index:02d}", goal="chain")
        for i in range(depth):
            stage(f"STAGE{i}").attach(context)
            source = (
                Binding.const("go") if i == 0 else Binding.from_node(f"n{i - 1}", "OUT")
            )
            plan.add_step(f"n{i}", f"STAGE{i}", {"IN": source})
        coordinator = TaskCoordinator(parallel=True)
        coordinator.attach(context)
        entries.append(FleetEntry(plan=plan, coordinator=coordinator))
    scheduler = FleetScheduler(
        VirtualTimeline(clock),
        clock,
        max_inflight=max_inflight,
        max_backlog=max_backlog,
        observability=observability,
        backend=backend,
    )
    result = scheduler.run(entries)
    return result, observability.metrics.snapshot().get("fleet.queued", 0.0)


def plan_facts(result):
    return [
        (
            p.plan_id, p.outcome, p.admitted_at, p.finished_at, p.queue_wait,
            p.rejection_reason, p.arrived_at,
            dict(p.run.node_outputs) if p.run else None,
        )
        for p in result.plans
    ]


class TestBatchAdmissionLaw:
    """The closed batch's admission contract: ``max_inflight`` slots plus
    ``max_backlog`` FIFO places, in submission order, nothing else."""

    @given(
        depths=st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=10),
        # None = every stage takes one second, so a round is a second and
        # completions are globally ordered; otherwise per-plan stage paces
        # (binary-exact) make one round's finishers end at different times.
        paces=st.one_of(
            st.none(),
            st.lists(st.sampled_from([0.5, 1.0, 2.0]), min_size=10, max_size=10),
        ),
        max_inflight=st.integers(min_value=1, max_value=4),
        max_backlog=st.sampled_from([None, 0, 1, 3]),
    )
    @settings(max_examples=60, deadline=None)
    def test_first_room_submissions_run_rest_rejected(
        self, depths, paces, max_inflight, max_backlog
    ):
        uniform = paces is None
        paces = [1.0] * len(depths) if uniform else paces[: len(depths)]
        result, queued_metric = run_chain_batch(
            depths, paces, max_inflight, max_backlog
        )
        origin = result.origin
        room = len(depths) if max_backlog is None else max_inflight + max_backlog
        admitted = result.plans[:room]
        rejected = result.plans[room:]

        # Exactly the first *room* submissions, by index, are admitted.
        assert [p.plan_id for p in result.plans] == [
            f"p{i:02d}" for i in range(len(depths))
        ]
        assert [p.outcome for p in admitted] == ["completed"] * len(admitted)
        assert result.admitted == len(admitted)
        for p in rejected:
            assert (p.outcome, p.rejection_reason) == ("rejected", "backlog_full")
            assert (p.run, p.admitted_at, p.finished_at) == (None, None, None)
            assert p.arrived_at == origin
        assert result.rejected == len(rejected)
        assert result.rejected_by == (
            {"backlog_full": len(rejected)} if rejected else {}
        )

        # Whoever did not fit the window at the origin waited in the backlog.
        window = min(len(admitted), max_inflight)
        assert result.queued == len(admitted) - window == queued_metric
        assert [p.admitted_at for p in admitted[:window]] == [origin] * window

        # Never more than max_inflight [admitted_at, finished_at) overlap.
        edges = sorted(
            edge
            for p in admitted
            for edge in ((p.finished_at, -1), (p.admitted_at, +1))
        )
        running = peak = 0
        for _, delta in edges:
            running += delta
            peak = max(peak, running)
        assert peak <= max_inflight

        # Each backlog plan takes the slot one finisher freed, at that
        # finisher's own end, and no finisher's slot is taken twice ...
        finishers = sorted((p.finished_at, i) for i, p in enumerate(admitted))
        free = [freed_at for freed_at, _ in finishers]
        for p in admitted[window:]:
            free.remove(p.admitted_at)
            assert p.queue_wait == p.admitted_at - origin
            assert p.arrived_at == origin
        # ... and at a uniform pace, backlog order is (plan_end, index) order.
        if uniform:
            assert [p.admitted_at for p in admitted[window:]] == [
                freed_at for freed_at, _ in finishers[: len(admitted) - window]
            ]

        # The thread backend reaches the same FleetResult.
        engine = ThreadBackend()
        try:
            threaded, threaded_metric = run_chain_batch(
                depths, paces, max_inflight, max_backlog, backend=engine
            )
        finally:
            engine.close()
        assert plan_facts(threaded) == plan_facts(result)
        assert (
            threaded.makespan, threaded.admitted, threaded.queued,
            threaded.rejected, threaded.rejected_by, threaded_metric,
        ) == (
            result.makespan, result.admitted, result.queued,
            result.rejected, result.rejected_by, queued_metric,
        )
