"""Property-based tests for chaos/resilience determinism.

The headline property (an acceptance criterion for the resilience
subsystem): running the *same* seeded chaos scenario twice produces
byte-identical stream exports — every retry, breaker trip, fallback and
dead-letter lands at the same trace position with the same timestamp.
The observability subsystem extends the same guarantee to its own
artifacts: the span-tree/metrics export is byte-identical too.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import SimClock
from repro.core.agent import FunctionAgent
from repro.core.budget import Budget
from repro.core.context import AgentContext
from repro.core.coordinator import TaskCoordinator
from repro.core.params import Parameter
from repro.core.plan import Binding, TaskPlan
from repro.core.resilience import (
    BreakerBoard,
    ChaosController,
    ChaosSpec,
    RetryPolicy,
)
from repro.core.session import SessionManager
from repro.llm import ModelCatalog, UsageTracker
from repro.observability import Observability
from repro.streams import StreamStore
from repro.streams.persistence import export_json


def run_chaos_scenario(seed: int, fault_rate: float, plans: int) -> tuple[str, str]:
    """One seeded chaos run over a fresh world.

    Returns ``(stream_export, trace_export)`` — both must be
    byte-identical across same-seed runs.
    """
    clock = SimClock()
    observability = Observability(clock)
    store = StreamStore(clock)
    store.observability = observability
    session = SessionManager(store).create("chaos")
    catalog = ModelCatalog(clock=clock, tracker=UsageTracker())
    catalog.observability = observability
    budget = Budget(clock=clock, metrics=observability.metrics)
    chaos = ChaosController(
        ChaosSpec(agent_transient_rate=fault_rate), seed=seed, clock=clock
    )

    def context() -> AgentContext:
        return AgentContext(
            store=store, session=session, clock=clock, catalog=catalog,
            budget=budget, observability=observability,
        )

    def work(inputs):
        chaos.agent_fault(f"work|{inputs['X']}")
        return {"OUT": inputs["X"] * 2}

    FunctionAgent(
        "WORKER", work, inputs=(Parameter("X", "number"),),
        outputs=(Parameter("OUT", "number"),),
    ).attach(context())
    FunctionAgent(
        "BACKUP", lambda i: {"OUT": -1}, inputs=(Parameter("X", "number"),),
        outputs=(Parameter("OUT", "number"),),
    ).attach(context())
    coordinator = TaskCoordinator(
        retry_policy=RetryPolicy(max_attempts=3, base_delay=0.5, jitter=0.5, seed=seed),
        breakers=BreakerBoard(
            clock=clock, failure_threshold=3, recovery_timeout=5.0,
            metrics=observability.metrics,
        ),
    )
    coordinator.attach(context())
    for index in range(plans):
        chaos.step()
        plan = TaskPlan(f"p{index}", goal="chaos step")
        plan.add_step(
            "s1", "WORKER", {"X": Binding.const(index)}, fallback_agent="BACKUP"
        )
        coordinator.execute_plan(plan)
    return export_json(store), observability.export_json()


class TestChaosDeterminism:
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        fault_rate=st.floats(min_value=0.0, max_value=1.0),
        plans=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=15, deadline=None)
    def test_same_seed_runs_are_byte_identical(self, seed, fault_rate, plans):
        first = run_chaos_scenario(seed, fault_rate, plans)
        second = run_chaos_scenario(seed, fault_rate, plans)
        assert first == second

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        fault_rate=st.floats(min_value=0.0, max_value=1.0),
        plans=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=10, deadline=None)
    def test_same_seed_trace_exports_byte_identical(self, seed, fault_rate, plans):
        """The observability artifact obeys the same determinism contract
        as the stream export — and never carries non-finite JSON tokens."""
        _, first = run_chaos_scenario(seed, fault_rate, plans)
        _, second = run_chaos_scenario(seed, fault_rate, plans)
        assert first == second
        assert "Infinity" not in first and "NaN" not in first
        payload = json.loads(first)
        assert payload["spans"]  # plans actually produced spans
        assert any(s["kind"] == "plan" for s in payload["spans"])

    def test_different_seeds_diverge(self):
        """Sanity check that the property above is not vacuous: under heavy
        chaos, some pair of seeds produces different traces."""
        exports = {run_chaos_scenario(seed, 0.5, 4) for seed in range(6)}
        assert len(exports) > 1

    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        key=st.text(min_size=0, max_size=20),
    )
    @settings(max_examples=50, deadline=None)
    def test_rolls_deterministic_and_in_range(self, seed, key):
        a = ChaosController(ChaosSpec(), seed=seed)
        b = ChaosController(ChaosSpec(), seed=seed)
        sequence = [a.roll(key) for _ in range(8)]
        assert sequence == [b.roll(key) for _ in range(8)]
        assert all(0.0 <= value < 1.0 for value in sequence)
        assert len(set(sequence)) > 1  # the counter varies the draw


class TestRetryPolicyProperties:
    @given(
        base=st.floats(min_value=0.001, max_value=10.0),
        multiplier=st.floats(min_value=1.0, max_value=4.0),
        max_delay=st.floats(min_value=0.001, max_value=100.0),
        jitter=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**31),
        attempts=st.integers(min_value=2, max_value=8),
        key=st.text(max_size=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_schedule_deterministic_and_bounded(
        self, base, multiplier, max_delay, jitter, seed, attempts, key
    ):
        policy = RetryPolicy(
            max_attempts=attempts, base_delay=base, multiplier=multiplier,
            max_delay=max_delay, jitter=jitter, seed=seed,
        )
        schedule = [policy.delay(attempt, key) for attempt in range(1, attempts)]
        assert schedule == [policy.delay(attempt, key) for attempt in range(1, attempts)]
        assert len(schedule) == attempts - 1
        for attempt, delay in enumerate(schedule, start=1):
            raw = min(base * multiplier ** (attempt - 1), max_delay)
            assert 0.0 <= delay <= raw
            assert delay >= raw * (1.0 - jitter)
