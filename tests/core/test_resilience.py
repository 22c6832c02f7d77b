"""Tests for the resilience subsystem: retries, breakers, deadlines,
fallbacks, dead letters, chaos injection, and supervisor upgrades."""

import pytest

from repro.clock import SimClock
from repro.core.agent import Agent, FunctionAgent
from repro.core.budget import Budget
from repro.core.context import AgentContext
from repro.core.coordinator import TaskCoordinator
from repro.core.deployment import Cluster, ResourceProfile, Supervisor
from repro.core.factory import AgentFactory
from repro.core.params import Parameter
from repro.core.plan import Binding, TaskPlan
from repro.core.resilience import (
    BreakerBoard,
    ChaosController,
    ChaosSpec,
    CircuitBreaker,
    DeadLetterQueue,
    RetryPolicy,
    classify_error,
)
from repro.errors import (
    ContextWindowExceededError,
    LLMError,
    ModelNotFoundError,
    TransientError,
)
from repro.streams import Instruction


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------
def delays(policy, key):
    """Every backoff delay *policy* applies for *key*, in order."""
    return [policy.delay(attempt, key) for attempt in range(1, policy.max_attempts)]


class TestRetryPolicy:
    def test_jitter_is_deterministic_per_seed(self):
        policy = RetryPolicy(max_attempts=5, base_delay=1.0, jitter=0.5, seed=42)
        again = RetryPolicy(max_attempts=5, base_delay=1.0, jitter=0.5, seed=42)
        assert delays(policy, "node-1") == delays(again, "node-1")

    def test_different_seed_or_key_changes_jitter(self):
        a = RetryPolicy(max_attempts=4, base_delay=1.0, jitter=0.5, seed=1)
        b = RetryPolicy(max_attempts=4, base_delay=1.0, jitter=0.5, seed=2)
        assert delays(a, "n") != delays(b, "n")
        assert delays(a, "n") != delays(a, "m")

    def test_delays_grow_exponentially_within_jitter_band(self):
        policy = RetryPolicy(
            max_attempts=6, base_delay=1.0, multiplier=2.0, max_delay=100.0,
            jitter=0.5, seed=0,
        )
        for attempt in range(1, 6):
            raw = 1.0 * 2.0 ** (attempt - 1)
            delay = policy.delay(attempt, "k")
            assert 0.5 * raw <= delay <= raw

    def test_max_delay_caps_backoff(self):
        policy = RetryPolicy(max_attempts=10, base_delay=1.0, max_delay=3.0, jitter=0.0)
        assert policy.delay(9) == 3.0

    def test_zero_jitter_is_exact(self):
        policy = RetryPolicy(base_delay=0.5, multiplier=3.0, jitter=0.0)
        assert policy.delay(1) == 0.5
        assert policy.delay(2) == 1.5

    def test_classification(self):
        assert classify_error(LLMError("overloaded")) == "transient"
        assert classify_error(TransientError("blip")) == "transient"
        assert classify_error(TimeoutError()) == "transient"
        assert classify_error(ContextWindowExceededError("too big")) == "fatal"
        assert classify_error(ModelNotFoundError("nope")) == "fatal"
        assert classify_error(ValueError("bug")) == "fatal"

    def test_call_retries_transient_and_charges_budget(self):
        clock = SimClock()
        budget = Budget(clock=clock)
        attempts = {"n": 0}

        def flaky():
            attempts["n"] += 1
            if attempts["n"] < 3:
                raise TransientError("blip")
            return "ok"

        policy = RetryPolicy(max_attempts=3, base_delay=1.0, jitter=0.0)
        assert policy.call(flaky, key="k", budget=budget) == "ok"
        assert attempts["n"] == 3
        assert clock.now() == pytest.approx(3.0)  # 1.0 + 2.0 backoff
        sources = {c.source for c in budget.charges()}
        assert "retry:k" in sources

    def test_call_raises_fatal_immediately(self):
        attempts = {"n": 0}

        def broken():
            attempts["n"] += 1
            raise ValueError("bug")

        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=5, base_delay=0.0).call(broken)
        assert attempts["n"] == 1

    def test_immediate_policy_retries_any_error(self):
        attempts = {"n": 0}

        def broken():
            attempts["n"] += 1
            raise RuntimeError("anything")

        with pytest.raises(RuntimeError):
            RetryPolicy.immediate(2).call(broken)
        assert attempts["n"] == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)


# ----------------------------------------------------------------------
# CircuitBreaker
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_full_transition_cycle(self):
        """closed -> open -> half-open -> closed, on the simulated clock."""
        clock = SimClock()
        breaker = CircuitBreaker("AGENT", failure_threshold=3, recovery_timeout=10.0, clock=clock)
        assert breaker.state() == "closed"
        for _ in range(3):
            assert breaker.allow()
            breaker.record_failure()
        assert breaker.state() == "open"
        assert not breaker.allow()
        clock.advance(10.0)
        assert breaker.state() == "half_open"
        assert breaker.allow()  # the probe
        breaker.record_success()
        assert breaker.state() == "closed"
        states = [state for _, state in breaker.transitions]
        assert states == ["open", "half_open", "closed"]

    def test_half_open_failure_reopens(self):
        clock = SimClock()
        breaker = CircuitBreaker(failure_threshold=1, recovery_timeout=5.0, clock=clock)
        breaker.record_failure()
        clock.advance(5.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state() == "open"
        assert not breaker.allow()

    def test_half_open_admits_limited_probes(self):
        clock = SimClock()
        breaker = CircuitBreaker(
            failure_threshold=1, recovery_timeout=1.0, half_open_probes=2, clock=clock
        )
        breaker.record_failure()
        clock.advance(1.0)
        assert breaker.allow()
        assert breaker.allow()
        assert not breaker.allow()  # probe budget spent

    def test_success_resets_consecutive_failures(self):
        breaker = CircuitBreaker(failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state() == "closed"

    def test_board_keys_breakers_by_target(self):
        clock = SimClock()
        board = BreakerBoard(clock=clock, failure_threshold=1)
        board.for_agent("A").record_failure()
        assert board.for_agent("A").state() == "open"
        assert board.for_agent("B").state() == "closed"
        assert board.for_agent("A") is board.for_agent("A")


# ----------------------------------------------------------------------
# Coordinator resilience
# ----------------------------------------------------------------------
@pytest.fixture
def rig(store, clock, catalog):
    """A session with primary/backup agents and a resilient coordinator."""
    from repro.core.session import SessionManager

    session = SessionManager(store).create("resilience")
    budget = Budget(clock=clock)

    def context():
        return AgentContext(
            store=store, session=session, clock=clock, catalog=catalog, budget=budget
        )

    return session, budget, context


def make_coordinator(context, **kwargs):
    coordinator = TaskCoordinator(**kwargs)
    coordinator.attach(context())
    return coordinator


def one_step_plan(agent="PRIMARY", **node_kwargs):
    plan = TaskPlan("p1", goal="resilient step")
    plan.add_step("s1", agent, {"X": Binding.const(1)}, **node_kwargs)
    return plan


class TestCoordinatorRetry:
    def test_transient_failures_retried_with_backoff(self, rig, clock, store):
        session, budget, context = rig
        attempts = {"n": 0}

        def flaky(inputs):
            attempts["n"] += 1
            if attempts["n"] < 3:
                raise TransientError("blip")
            return {"OUT": inputs["X"]}

        FunctionAgent(
            "PRIMARY", flaky, inputs=(Parameter("X", "number"),),
            outputs=(Parameter("OUT", "number"),),
        ).attach(context())
        coordinator = make_coordinator(
            context,
            retry_policy=RetryPolicy(max_attempts=3, base_delay=1.0, jitter=0.0),
        )
        run = coordinator.execute_plan(one_step_plan())
        assert run.status == "completed"
        assert attempts["n"] == 3
        assert clock.now() == pytest.approx(3.0)  # 1 + 2 seconds of backoff
        assert any(c.source.startswith("retry:") for c in budget.charges())

    def test_fatal_failure_not_retried(self, rig):
        session, budget, context = rig
        attempts = {"n": 0}

        def broken(inputs):
            attempts["n"] += 1
            raise ValueError("a bug, not a blip")

        FunctionAgent(
            "PRIMARY", broken, inputs=(Parameter("X", "number"),),
            outputs=(Parameter("OUT", "number"),),
        ).attach(context())
        coordinator = make_coordinator(
            context, retry_policy=RetryPolicy(max_attempts=5, base_delay=0.0)
        )
        run = coordinator.execute_plan(one_step_plan())
        assert run.status == "failed"
        assert attempts["n"] == 1
        failure = run.node_errors["s1"]
        assert failure.error_type == "ValueError"
        assert not failure.transient

    def test_error_takes_precedence_over_partial_outputs(self, rig):
        """An agent that emits partial outputs and then errors has failed;
        the partials are surfaced in the run record, not treated as the
        node's result."""
        session, budget, context = rig

        class Partial(Agent):
            name = "PRIMARY"
            inputs = (Parameter("X", "number"),)
            outputs = (Parameter("OUT", "number"),)

            def processor(self, inputs):
                self.emit("OUT", 41, metadata={"node": "s1"})
                raise TransientError("died after first emission")

        Partial().attach(context())
        coordinator = make_coordinator(context)
        run = coordinator.execute_plan(one_step_plan())
        assert run.status == "failed"
        assert "s1" not in run.node_outputs
        assert run.partial_outputs["s1"] == {"OUT": 41}
        assert run.node_errors["s1"].transient

    def test_crashed_agent_silence_is_failure_not_success(self, rig):
        session, budget, context = rig
        agent = FunctionAgent(
            "PRIMARY", lambda i: {"OUT": 1}, inputs=(Parameter("X", "number"),),
            outputs=(Parameter("OUT", "number"),),
        )
        agent.attach(context())
        coordinator = make_coordinator(context)
        agent.crash()  # abrupt: still a session participant, but deaf
        run = coordinator.execute_plan(one_step_plan())
        assert run.status == "failed"
        assert "not listening" in run.node_errors["s1"].error


class TestCircuitBreaking:
    def test_open_breaker_short_circuits_to_fallback(self, rig, store):
        """Acceptance: with PRIMARY's breaker open, the plan routes to the
        fallback without emitting EXECUTE_AGENT to PRIMARY at all."""
        session, budget, context = rig
        FunctionAgent(
            "PRIMARY", lambda i: {"OUT": 1}, inputs=(Parameter("X", "number"),),
            outputs=(Parameter("OUT", "number"),),
        ).attach(context())
        FunctionAgent(
            "BACKUP", lambda i: {"OUT": 99}, inputs=(Parameter("X", "number"),),
            outputs=(Parameter("OUT", "number"),),
        ).attach(context())
        board = BreakerBoard(clock=store.clock)
        board.for_agent("PRIMARY").force_open()
        coordinator = make_coordinator(context, breakers=board)
        marker = len(store.trace())
        run = coordinator.execute_plan(one_step_plan(fallback_agent="BACKUP"))
        assert run.status == "completed"
        assert run.final_outputs() == {"OUT": 99}
        assert run.fallbacks == {"s1": "BACKUP"}
        assert run.degraded()
        executed = [
            m.payload["agent"]
            for m in store.trace()[marker:]
            if m.is_control and m.instruction() == Instruction.EXECUTE_AGENT
        ]
        assert executed == ["BACKUP"]  # PRIMARY never addressed

    def test_breaker_opens_after_repeated_failures_then_recovers(self, rig, clock, store):
        session, budget, context = rig
        healthy = {"flag": False}

        def sometimes(inputs):
            if not healthy["flag"]:
                raise TransientError("down")
            return {"OUT": 7}

        FunctionAgent(
            "PRIMARY", sometimes, inputs=(Parameter("X", "number"),),
            outputs=(Parameter("OUT", "number"),),
        ).attach(context())
        board = BreakerBoard(clock=clock, failure_threshold=2, recovery_timeout=5.0)
        coordinator = make_coordinator(
            context, breakers=board, retry_policy=RetryPolicy.none()
        )
        coordinator.execute_plan(one_step_plan())
        coordinator.execute_plan(one_step_plan())
        assert board.for_agent("PRIMARY").state() == "open"
        # While open, no EXECUTE_AGENT reaches PRIMARY.
        marker = len(store.trace())
        run = coordinator.execute_plan(one_step_plan())
        assert run.status == "failed"
        assert not any(
            m.is_control and m.instruction() == Instruction.EXECUTE_AGENT
            for m in store.trace()[marker:]
        )
        # After the recovery timeout a probe goes through and closes it.
        healthy["flag"] = True
        clock.advance(5.0)
        run = coordinator.execute_plan(one_step_plan())
        assert run.status == "completed"
        assert board.for_agent("PRIMARY").state() == "closed"


class TestDeadlinesAndFallbacks:
    def test_deadline_exceeded_fails_node(self, rig, clock):
        session, budget, context = rig

        def slow(inputs):
            clock.advance(2.0)
            return {"OUT": 1}

        FunctionAgent(
            "PRIMARY", slow, inputs=(Parameter("X", "number"),),
            outputs=(Parameter("OUT", "number"),),
        ).attach(context())
        coordinator = make_coordinator(context)
        run = coordinator.execute_plan(one_step_plan(deadline=1.0))
        assert run.status == "failed"
        assert run.node_errors["s1"].error_type == "DeadlineExceededError"

    def test_deadline_breach_routes_to_faster_fallback(self, rig, clock):
        session, budget, context = rig

        def slow(inputs):
            clock.advance(2.0)
            return {"OUT": 1}

        FunctionAgent(
            "PRIMARY", slow, inputs=(Parameter("X", "number"),),
            outputs=(Parameter("OUT", "number"),),
        ).attach(context())
        FunctionAgent(
            "BACKUP", lambda i: {"OUT": 2}, inputs=(Parameter("X", "number"),),
            outputs=(Parameter("OUT", "number"),),
        ).attach(context())
        coordinator = make_coordinator(context)
        run = coordinator.execute_plan(
            one_step_plan(deadline=1.0, fallback_agent="BACKUP")
        )
        assert run.status == "completed"
        assert run.final_outputs() == {"OUT": 2}
        assert run.fallbacks == {"s1": "BACKUP"}

    def test_fallback_model_tier_threaded_into_complete(self, rig, catalog):
        """A node's model hint reaches the agent's LLM calls — degrading to
        a cheaper tier is a fallback that needs no second agent."""
        session, budget, context = rig

        class Caller(Agent):
            name = "PRIMARY"
            inputs = (Parameter("X", "number"),)
            outputs = (Parameter("MODEL", "text"),)

            def processor(self, inputs):
                response = self.complete("TASK: GENERATE\nsay hi")
                return {"MODEL": response.model}

        Caller().attach(context())
        coordinator = make_coordinator(context)
        run = coordinator.execute_plan(one_step_plan(model="mega-nano"))
        assert run.status == "completed"
        assert run.final_outputs() == {"MODEL": "mega-nano"}

    def test_plan_payload_round_trips_resilience_fields(self):
        plan = TaskPlan("p", goal="g")
        plan.add_step(
            "s1", "A", {"X": Binding.const(1)},
            deadline=2.5, fallback_agent="B", model="mega-xl", fallback_model="mega-nano",
        )
        rebuilt = TaskPlan.from_payload(plan.to_payload())
        node = rebuilt.node("s1")
        assert node.deadline == 2.5
        assert node.fallback_agent == "B"
        assert node.model == "mega-xl"
        assert node.fallback_model == "mega-nano"


class TestDeadLetters:
    def test_failed_node_is_quarantined_with_metadata(self, rig, store):
        session, budget, context = rig

        def broken(inputs):
            raise TransientError("always down")

        FunctionAgent(
            "PRIMARY", broken, inputs=(Parameter("X", "number"),),
            outputs=(Parameter("OUT", "number"),),
        ).attach(context())
        coordinator = make_coordinator(
            context, retry_policy=RetryPolicy(max_attempts=2, base_delay=0.0)
        )
        run = coordinator.execute_plan(one_step_plan())
        assert run.status == "failed"
        queue = coordinator.dead_letter_queue()
        assert len(queue) == 1
        entry = queue.pending()[0]
        assert entry.message_id in run.dead_letters
        assert entry.payload["node"] == "s1"
        assert entry.payload["agent"] == "PRIMARY"
        assert entry.payload["inputs"] == {"X": 1}
        assert entry.payload["attempts"] == 2
        assert entry.payload["transient"] is True

    def test_replay_round_trip(self, rig, store):
        """Quarantine on failure, fix the agent, replay: the entry is
        re-executed, acknowledged, and gone from the pending set."""
        session, budget, context = rig
        healthy = {"flag": False}

        def flaky(inputs):
            if not healthy["flag"]:
                raise TransientError("down for maintenance")
            return {"OUT": inputs["X"] * 10}

        FunctionAgent(
            "PRIMARY", flaky, inputs=(Parameter("X", "number"),),
            outputs=(Parameter("OUT", "number"),),
        ).attach(context())
        coordinator = make_coordinator(context, retry_policy=RetryPolicy.none())
        run = coordinator.execute_plan(one_step_plan())
        assert run.status == "failed"
        assert len(coordinator.dead_letter_queue()) == 1

        healthy["flag"] = True
        assert coordinator.replay_dead_letters() == 1
        assert len(coordinator.dead_letter_queue()) == 0
        out = store.get_stream(session.stream_id("primary:out"))
        assert out.data_payloads() == [10]
        # Replay is idempotent: nothing left to do.
        assert coordinator.replay_dead_letters() == 0

    def test_failed_replay_keeps_entry_pending(self, rig, store, clock):
        session, budget, context = rig
        queue = DeadLetterQueue(store, session)
        queue.quarantine(
            plan="p", node="n", agent="GHOST", inputs={"X": 1},
            error="boom", error_type="TransientError", transient=True,
        )
        assert queue.replay(lambda payload: False) == []
        assert len(queue.pending()) == 1

    def test_reentrant_replay_cannot_double_replay(self, rig, store):
        """Regression: an executor that itself triggers ``replay()``
        (recovery code replaying during a supervision pass that is itself
        inside a replay) must not re-execute the same entry twice."""
        session, budget, context = rig
        queue = DeadLetterQueue(store, session)
        queue.quarantine(plan="p", node="n", agent="A", inputs={"X": 1}, error="x")
        executions = []

        def reentrant_executor(payload):
            executions.append(payload["node"])
            queue.replay(reentrant_executor)  # nested replay of the same queue
            return True

        recovered = queue.replay(reentrant_executor)
        assert executions == ["n"]  # executed exactly once
        assert len(recovered) == 1
        assert len(queue.pending()) == 0
        # The ack was published exactly once too (no duplicate markers).
        acks = [m for m in queue.stream.messages() if m.has_tag("DEAD_LETTER_REPLAYED")]
        assert len(acks) == 1

    def test_concurrent_replay_cannot_double_replay(self, rig, store):
        """Regression: two replayers draining the same queue concurrently
        must execute each entry once between them."""
        import threading

        session, budget, context = rig
        queue = DeadLetterQueue(store, session)
        for node in ("a", "b", "c"):
            queue.quarantine(plan="p", node=node, agent="A", inputs={}, error="x")
        started = threading.Barrier(2)
        executions = []
        lock = threading.Lock()

        def slow_executor(payload):
            try:
                # Rendezvous (briefly) to maximize replayer overlap; a
                # lone replayer times out and proceeds alone.
                started.wait(timeout=0.2)
            except threading.BrokenBarrierError:
                pass
            with lock:
                executions.append(payload["node"])
            return True

        threads = [
            threading.Thread(target=queue.replay, args=(slow_executor,))
            for _ in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(executions) == ["a", "b", "c"]  # once each, total
        assert len(queue.pending()) == 0
        acks = [m for m in queue.stream.messages() if m.has_tag("DEAD_LETTER_REPLAYED")]
        assert len(acks) == 3

    def test_failed_replay_releases_in_flight_claim(self, rig, store):
        """An entry whose replay fails (or raises) must become replayable
        again — the in-flight claim is released, not leaked."""
        session, budget, context = rig
        queue = DeadLetterQueue(store, session)
        queue.quarantine(plan="p", node="n", agent="A", inputs={}, error="x")
        assert queue.replay(lambda payload: False) == []
        with pytest.raises(RuntimeError):
            queue.replay(lambda payload: (_ for _ in ()).throw(RuntimeError("boom")))
        assert len(queue.pending()) == 1
        assert len(queue.replay(lambda payload: True)) == 1
        assert len(queue.pending()) == 0

    def test_pending_state_survives_queue_rebuild(self, rig, store):
        """Replay bookkeeping lives on the stream: a rebuilt queue sees the
        same pending set (the recovery story)."""
        session, budget, context = rig
        queue = DeadLetterQueue(store, session)
        first = queue.quarantine(
            plan="p", node="a", agent="A", inputs={}, error="x",
        )
        queue.quarantine(plan="p", node="b", agent="B", inputs={}, error="y")
        queue.replay(lambda payload: payload["node"] == "a")
        rebuilt = DeadLetterQueue(store, session)
        assert [m.payload["node"] for m in rebuilt.pending()] == ["b"]
        assert first.message_id in rebuilt.replayed_ids()


# ----------------------------------------------------------------------
# Chaos injection
# ----------------------------------------------------------------------
class TestChaos:
    def test_rolls_are_deterministic_per_seed_and_key(self):
        a = ChaosController(ChaosSpec(), seed=9)
        b = ChaosController(ChaosSpec(), seed=9)
        keys = ["kill|c1", "kill|c2", "agent|x"]
        rolls_a = [a.roll(k) for k in keys for _ in range(5)]
        rolls_b = [b.roll(k) for k in keys for _ in range(5)]
        assert rolls_a == rolls_b
        assert ChaosController(ChaosSpec(), seed=10).roll("kill|c1") != rolls_a[0]

    def test_rolls_independent_of_interleaving(self):
        a = ChaosController(ChaosSpec(), seed=3)
        b = ChaosController(ChaosSpec(), seed=3)
        seq_a = [a.roll("x"), a.roll("x"), a.roll("y")]
        first_b_y = b.roll("y")
        seq_b = [b.roll("x"), b.roll("x")]
        assert seq_a[:2] == seq_b
        assert seq_a[2] == first_b_y

    def test_agent_fault_raises_transient(self):
        chaos = ChaosController(ChaosSpec(agent_transient_rate=1.0), seed=0)
        with pytest.raises(TransientError):
            chaos.agent_fault("work")
        assert chaos.describe()["events"] == {"agent_fault": 1}

    def test_burst_raises_llm_rate_for_its_duration(self):
        spec = ChaosSpec(
            llm_transient_rate=0.1, llm_burst_rate=1.0,
            llm_burst_length=2, llm_burst_transient_rate=0.9,
        )
        chaos = ChaosController(spec, seed=0)
        assert chaos.current_llm_rate() == 0.1
        chaos.step()
        assert chaos.in_burst()
        assert chaos.current_llm_rate() == 0.9

    def test_infect_catalog_sets_default_failure_rate(self, catalog):
        chaos = ChaosController(ChaosSpec(llm_transient_rate=0.3), seed=0)
        assert chaos.infect_catalog(catalog) == 0.3
        assert catalog.default_failure_rate == 0.3
        assert catalog.client("mega-s").failure_rate == 0.3

    def test_strike_cluster_kills_deterministically(self, store, session, clock, catalog):
        def build():
            factory = AgentFactory()
            factory.register(
                "ECHO",
                lambda **kw: FunctionAgent(
                    "ECHO", lambda i: {"OUT": i["IN"]},
                    inputs=(Parameter("IN", "text"),), outputs=(Parameter("OUT", "text"),),
                    **kw,
                ),
            )
            cluster = Cluster("c")
            cluster.add_node(ResourceProfile(cpu=8, gpu=0, memory_gb=32))
            for _ in range(4):
                cluster.deploy(
                    "echo", factory,
                    lambda: AgentContext(store=store, session=session, clock=clock, catalog=catalog),
                    (),
                )
            return cluster

        spec = ChaosSpec(container_kill_rate=0.5)
        killed_a = ChaosController(spec, seed=5).strike_cluster(build())
        killed_b = ChaosController(spec, seed=5).strike_cluster(build())
        assert killed_a == killed_b

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ChaosSpec(container_kill_rate=1.5)


# ----------------------------------------------------------------------
# Supervisor upgrades
# ----------------------------------------------------------------------
def crashing_factory(fail_first: int):
    """A factory whose agent constructor fails the first *fail_first* spawns."""
    factory = AgentFactory()
    calls = {"n": 0}

    def constructor(**kwargs):
        calls["n"] += 1
        if calls["n"] <= fail_first:
            raise RuntimeError(f"spawn failure #{calls['n']}")
        return FunctionAgent(
            "ECHO", lambda i: {"OUT": i["IN"]},
            inputs=(Parameter("IN", "text"),), outputs=(Parameter("OUT", "text"),),
            **kwargs,
        )

    factory.register("ECHO", constructor)
    return factory, calls


class TestSupervisorUpgrades:
    def make_cluster(self, factory, store, session, clock, catalog):
        cluster = Cluster("c")
        cluster.add_node(ResourceProfile(cpu=4, gpu=0, memory_gb=8))
        container = cluster.deploy(
            "echo", factory,
            lambda: AgentContext(store=store, session=session, clock=clock, catalog=catalog),
            (("ECHO", {}),),
        )
        return cluster, container

    def test_restart_is_reentrant_after_failed_start(self, store, session, clock, catalog):
        factory, calls = crashing_factory(fail_first=1)
        # First spawn succeeds (deploy), then fail the container; the next
        # spawn (restart) crashes, the one after succeeds.
        factory_ok, _ = crashing_factory(fail_first=0)
        cluster, container = self.make_cluster(factory_ok, store, session, clock, catalog)
        container.fail()
        # Swap in a factory that fails once, then works.
        container._factory = factory
        with pytest.raises(RuntimeError):
            container.restart()
        assert container.state == "failed"  # recoverable, not stuck in created
        container.restart()
        assert container.state == "running"
        assert container.restarts == 2  # both attempts counted

    def test_partial_start_rolls_back_spawned_agents(self, store, clock, catalog):
        from repro.core.session import SessionManager

        session = SessionManager(store).create("rollback")
        factory = AgentFactory()
        factory.register(
            "GOOD",
            lambda **kw: FunctionAgent(
                "GOOD", lambda i: None, inputs=(Parameter("IN", "text"),), **kw
            ),
        )

        def bad_constructor(**kwargs):
            raise RuntimeError("cannot spawn")

        factory.register("BAD", bad_constructor)
        cluster = Cluster("c")
        cluster.add_node(ResourceProfile(cpu=4, gpu=0, memory_gb=8))
        with pytest.raises(RuntimeError):
            cluster.deploy(
                "mixed", factory,
                lambda: AgentContext(store=store, session=session, clock=clock, catalog=catalog),
                (("GOOD", {}), ("BAD", {})),
            )
        container = cluster.containers()[0]
        assert container.state == "failed"
        assert container.agents() == []
        assert factory.spawned() == []  # the GOOD agent was rolled back

    def test_crash_loop_quarantined_after_restart_budget(self, store, session, clock, catalog):
        factory, calls = crashing_factory(fail_first=10_000)  # never recovers
        factory_ok, _ = crashing_factory(fail_first=0)
        cluster, container = self.make_cluster(factory_ok, store, session, clock, catalog)
        container.fail()
        container._factory = factory
        supervisor = Supervisor(cluster, max_restarts=3, backoff_base=0.0)
        for _ in range(6):
            supervisor.tick()
        assert container.state == "stopped"  # quarantined
        assert supervisor.quarantined == [container.container_id]
        assert calls["n"] == 3  # exactly the budget, then no more thrash
        assert supervisor.tick() == []

    def test_restart_backoff_spaces_attempts(self, store, session, clock, catalog):
        factory, calls = crashing_factory(fail_first=10_000)
        factory_ok, _ = crashing_factory(fail_first=0)
        cluster, container = self.make_cluster(factory_ok, store, session, clock, catalog)
        container.fail()
        container._factory = factory
        supervisor = Supervisor(
            cluster, clock=clock, max_restarts=10, backoff_base=1.0, backoff_multiplier=2.0
        )
        supervisor.tick()  # attempt 1 at t=0; next not before t=1
        supervisor.tick()
        assert calls["n"] == 1  # still backing off
        clock.advance(1.0)
        supervisor.tick()  # attempt 2 at t=1; next not before t=3
        clock.advance(1.0)
        supervisor.tick()
        assert calls["n"] == 2  # t=2 < 3: suppressed
        clock.advance(1.0)
        supervisor.tick()
        assert calls["n"] == 3

    def test_healthy_streak_resets_restart_budget(self, store, session, clock, catalog):
        factory, calls = crashing_factory(fail_first=0)
        cluster, container = self.make_cluster(factory, store, session, clock, catalog)
        supervisor = Supervisor(cluster, max_restarts=2, backoff_base=0.0)
        # Externally injected failures with healthy runs in between never
        # exhaust the budget: the probe pass resets the attempt counter.
        for _ in range(5):
            container.fail()
            supervisor.tick()
            assert container.state == "running"
            supervisor.tick()  # observes healthy, resets
        assert container.container_id not in supervisor.quarantined

    def test_probe_detects_silently_crashed_agents(self, store, session, clock, catalog):
        factory, calls = crashing_factory(fail_first=0)
        cluster, container = self.make_cluster(factory, store, session, clock, catalog)
        container.agents()[0].crash()  # agents die, container still "running"
        assert not container.healthy()
        supervisor = Supervisor(cluster, backoff_base=0.0)
        restarted = supervisor.tick()
        assert restarted == [container.container_id]
        assert container.healthy()
