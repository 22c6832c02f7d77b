"""Cross-plan LLM micro-batching: windows, joins, attribution, determinism."""

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import SimClock
from repro.llm import (
    BatchPolicy,
    LLMBatcher,
    ModelCapacity,
    ModelCatalog,
    ModelSpec,
    SimulatedLLM,
)
from repro.streams.persistence import export_json

try:
    from test_fleet_properties import run_fleet_blueprint
except ImportError:  # collected before tests/properties: put it on the path
    sys.path.insert(0, str(Path(__file__).parents[1] / "properties"))
    from test_fleet_properties import run_fleet_blueprint


def spec(**overrides):
    defaults = dict(
        name="batch-model",
        tier="m",
        quality=1.0,
        cost_per_1k_input=0.01,
        cost_per_1k_output=0.02,
        latency_base=1.0,
        latency_per_token=0.0,
        context_window=4000,
    )
    defaults.update(overrides)
    return ModelSpec(**defaults)


class TestBatchWindow:
    def test_join_inside_window_returns_exec_end(self):
        batcher = LLMBatcher(max_batch_wait=0.5)
        batcher.open("m", 512, start=0.0, exec_end=2.0)
        assert batcher.join("m", 512, now=0.25) == 2.0

    def test_window_is_half_open(self):
        batcher = LLMBatcher(max_batch_wait=0.5)
        batcher.open("m", 512, start=1.0, exec_end=3.0)
        assert batcher.join("m", 512, now=1.0) == 3.0  # exactly at start
        assert batcher.join("m", 512, now=1.5) is None  # exactly at window end
        assert batcher.join("m", 512, now=0.5) is None  # before start

    def test_window_never_outlives_execution(self):
        # max_batch_wait longer than the call itself: the window closes
        # at exec_end — a completed batch cannot admit members.
        batcher = LLMBatcher(max_batch_wait=10.0)
        batcher.open("m", 512, start=0.0, exec_end=1.0)
        assert batcher.join("m", 512, now=0.5) == 1.0
        assert batcher.join("m", 512, now=1.0) is None

    def test_batch_size_bound(self):
        batcher = LLMBatcher(max_batch_size=3, max_batch_wait=1.0)
        batcher.open("m", 512, start=0.0, exec_end=5.0)
        assert batcher.join("m", 512, now=0.1) is not None  # member 2
        assert batcher.join("m", 512, now=0.2) is not None  # member 3 (full)
        assert batcher.join("m", 512, now=0.3) is None

    def test_distinct_params_do_not_share_windows(self):
        batcher = LLMBatcher(max_batch_wait=1.0)
        batcher.open("m", 512, start=0.0, exec_end=5.0)
        assert batcher.join("m", 256, now=0.1) is None
        assert batcher.join("other", 512, now=0.1) is None

    def test_per_model_policy_overrides_default(self):
        batcher = LLMBatcher(
            max_batch_size=8,
            max_batch_wait=1.0,
            per_model={"tight": BatchPolicy(max_batch_size=1, max_batch_wait=0.0)},
        )
        batcher.open("tight", 512, start=0.0, exec_end=5.0)
        assert batcher.join("tight", 512, now=0.0) is None  # zero-length window
        assert batcher.policy_for("tight").max_batch_size == 1
        assert batcher.policy_for("anything-else").max_batch_size == 8

    def test_newer_window_replaces_older_for_same_key(self):
        batcher = LLMBatcher(max_batch_wait=0.5)
        batcher.open("m", 512, start=0.0, exec_end=2.0)
        batcher.open("m", 512, start=10.0, exec_end=12.0)
        assert batcher.join("m", 512, now=0.25) is None  # old window gone
        assert batcher.join("m", 512, now=10.25) == 12.0

    def test_stats_and_credit(self):
        batcher = LLMBatcher(max_batch_wait=1.0)
        batcher.open("m", 512, start=0.0, exec_end=2.0)
        batcher.join("m", 512, now=0.5)
        batcher.credit(saved_latency=1.5, cost=0.03)
        stats = batcher.stats()
        assert stats.batches == 1
        assert stats.joins == 1
        assert stats.peak_batch == 2
        assert stats.mean_batch == 2.0
        assert stats.saved_latency == pytest.approx(1.5)
        assert stats.attributed_cost == pytest.approx(0.03)

    def test_validation(self):
        with pytest.raises(ValueError):
            LLMBatcher(max_batch_size=0)
        with pytest.raises(ValueError):
            LLMBatcher(max_batch_wait=-0.1)
        with pytest.raises(ValueError):
            LLMBatcher(jitter=1.5)
        with pytest.raises(ValueError):
            LLMBatcher(max_entries=0)
        with pytest.raises(ValueError):
            BatchPolicy(max_batch_size=0)

    def test_eviction_exempts_in_flight_windows(self):
        batcher = LLMBatcher(max_entries=1)
        batcher.open("a", 512, start=0.0, exec_end=100.0)
        batcher.open("b", 512, start=1.0, exec_end=2.0)
        # "a" is still executing at now=1.0, so it cannot be evicted even
        # though the map exceeds max_entries.
        assert len(batcher) == 2
        assert batcher.join("a", 512, now=0.2) is not None


class TestJitterDeterminism:
    def test_same_seed_same_flush_instants(self):
        def windows(seed):
            batcher = LLMBatcher(max_batch_wait=1.0, jitter=0.5, seed=seed)
            closes = []
            for i in range(20):
                batcher.open("m", 512, start=float(i * 10), exec_end=float(i * 10 + 5))
                # Probe the window edge by bisecting the join predicate.
                lo, hi = float(i * 10), float(i * 10 + 5)
                for _ in range(40):
                    mid = (lo + hi) / 2
                    if batcher.join("m", 512, now=mid) is not None:
                        lo = mid
                    else:
                        hi = mid
                closes.append(round(hi, 6))
            return closes

        assert windows(7) == windows(7)
        assert windows(7) != windows(8)

    def test_zero_jitter_windows_are_exact(self):
        batcher = LLMBatcher(max_batch_wait=0.25, jitter=0.0)
        batcher.open("m", 512, start=4.0, exec_end=9.0)
        assert batcher.join("m", 512, now=4.2499) is not None


class TestSimulatedLLMBatching:
    def test_distinct_prompts_batch_and_pay_residual(self):
        clock = SimClock()
        batcher = LLMBatcher(max_batch_wait=0.5)
        llm = SimulatedLLM(spec(), clock=clock, batcher=batcher)
        leader = llm.complete("TASK: GENERATE\nfirst prompt")
        assert not leader.batched
        end = clock.now()
        # A different prompt whose start falls inside the window.
        clock.rebase(0.25)
        joiner = llm.complete("TASK: GENERATE\nsecond prompt")
        assert joiner.batched
        assert joiner.text != leader.text  # own answer, not the leader's
        assert joiner.usage.cost > 0  # own cost attribution
        assert joiner.usage.latency == pytest.approx(end - 0.25)
        assert clock.now() == pytest.approx(end)  # lands at batch completion

    def test_identical_prompts_prefer_single_flight(self):
        from repro.llm import SingleFlight

        clock = SimClock()
        llm = SimulatedLLM(
            spec(),
            clock=clock,
            single_flight=SingleFlight(),
            batcher=LLMBatcher(max_batch_wait=5.0),
        )
        llm.complete("TASK: GENERATE\nsame")
        clock.rebase(0.25)
        again = llm.complete("TASK: GENERATE\nsame")
        assert again.coalesced and not again.batched
        assert again.usage.cost == 0.0  # the single-flight contract

    def test_no_cache_bypasses_batching(self):
        clock = SimClock()
        batcher = LLMBatcher(max_batch_wait=5.0)
        llm = SimulatedLLM(spec(), clock=clock, batcher=batcher)
        llm.complete("TASK: GENERATE\nfirst")
        clock.rebase(0.25)
        again = llm.complete("TASK: GENERATE\nsecond", no_cache=True)
        assert not again.batched
        assert batcher.stats().joins == 0

    def test_batch_consumes_one_capacity_slot(self):
        clock = SimClock()
        capacity = ModelCapacity({"batch-model": 1})
        batcher = LLMBatcher(max_batch_wait=0.5, max_batch_size=8)
        llm = SimulatedLLM(spec(), clock=clock, capacity=capacity, batcher=batcher)
        leader = llm.complete("TASK: GENERATE\nalpha")
        end = clock.now()
        clock.rebase(0.1)
        joiner = llm.complete("TASK: GENERATE\nbeta")
        assert joiner.batched
        # The joiner made no reservation: one slot, no queueing, and it
        # finished with the batch instead of serializing behind it.
        assert capacity.stats().reservations == 1
        assert capacity.stats().queued == 0
        assert clock.now() == pytest.approx(end)
        assert leader.usage.latency == pytest.approx(1.0)

    def test_missed_window_runs_physically(self):
        clock = SimClock()
        batcher = LLMBatcher(max_batch_wait=0.1)
        llm = SimulatedLLM(spec(), clock=clock, batcher=batcher)
        llm.complete("TASK: GENERATE\nfirst")
        clock.rebase(0.5)  # past the 0.1s window
        late = llm.complete("TASK: GENERATE\nsecond")
        assert not late.batched
        # ... and it opened its own window for the next straggler.
        assert batcher.stats().batches == 2

    def test_joiner_usage_recorded_in_tracker(self):
        from repro.llm import UsageTracker

        clock = SimClock()
        tracker = UsageTracker()
        batcher = LLMBatcher(max_batch_wait=0.5)
        llm = SimulatedLLM(spec(), clock=clock, tracker=tracker, batcher=batcher)
        llm.complete("TASK: GENERATE\nfirst")
        clock.rebase(0.1)
        joiner = llm.complete("TASK: GENERATE\nsecond")
        assert tracker.calls == 2
        assert joiner.usage.cost > 0
        assert tracker.cost == pytest.approx(
            tracker.per_model["batch-model"]["cost"]
        )
        assert tracker.input_tokens > joiner.usage.input_tokens

    def test_unanswerable_prompt_takes_no_batch_slot(self):
        """Regression: the member slot was taken before the answer was
        synthesized, so a prompt that raises (CLASSIFY without LABELS)
        used up the window — the next legitimate joiner ran physically —
        and, unlike on the physical path, was not counted as a failure."""
        from repro.errors import LLMError
        from repro.observability import Observability

        clock = SimClock()
        observability = Observability(clock)
        batcher = LLMBatcher(max_batch_size=2, max_batch_wait=0.5)
        llm = SimulatedLLM(
            spec(), clock=clock, batcher=batcher, observability=observability
        )
        llm.complete("TASK: GENERATE\nleader")
        clock.rebase(0.1)
        with pytest.raises(LLMError):
            llm.complete("TASK: CLASSIFY\nTEXT: no labels given")
        assert batcher.stats().joins == 0
        assert batcher.stats().peak_batch == 1
        clock.rebase(0.2)
        assert llm.complete("TASK: GENERATE\nthe one free slot").batched
        snapshot = observability.metrics.snapshot()
        assert snapshot["llm.failures{model=batch-model}"] == 1.0
        assert snapshot["llm.batch.joins{model=batch-model}"] == 1.0

    def test_catalog_rewires_batcher(self):
        catalog = ModelCatalog(clock=SimClock())
        client = catalog.client("mega-s")
        assert client.batcher is None
        batcher = LLMBatcher()
        catalog.batcher = batcher
        assert catalog.client("mega-s").batcher is batcher


class TestFlushOrderingDeterminism:
    """Same submission order on the simulated clock => same batches."""

    def _run(self):
        clock = SimClock()
        batcher = LLMBatcher(max_batch_wait=0.5)
        llm = SimulatedLLM(spec(), clock=clock, batcher=batcher)
        trace = []
        starts = [0.0, 0.05, 0.1, 2.5, 2.6, 9.0]
        for i, start in enumerate(starts):
            clock.rebase(start)
            response = llm.complete(f"TASK: GENERATE\nprompt number {i}")
            trace.append((i, response.batched, round(clock.now(), 9)))
        return trace, batcher.stats()

    def test_serial_replay_is_byte_identical(self):
        first_trace, first_stats = self._run()
        second_trace, second_stats = self._run()
        assert first_trace == second_trace
        assert first_stats == second_stats

    def test_flush_groups_follow_submission_intervals(self):
        trace, stats = self._run()
        batched_flags = [flag for _, flag, _ in trace]
        # Leaders at 0.0, 2.5, 9.0; joiners ride the preceding window.
        assert batched_flags == [False, True, True, False, True, False]
        assert stats.batches == 3
        assert stats.joins == 3
        # Every joiner lands exactly on its leader's completion instant.
        leader_end = trace[0][2]
        assert trace[1][2] == leader_end
        assert trace[2][2] == leader_end


class TestBatchingDeterminism:
    """Whole-fleet properties: batching moves time and slots, not results."""

    @given(seed=st.integers(min_value=0, max_value=100))
    @settings(max_examples=8, deadline=None)
    def test_batched_fleet_is_byte_identical_on_serial(self, seed):
        """Micro-batch membership is a pure function of the submission
        list under the serial backend: reruns reproduce the store export
        byte for byte, and the batcher tallies agree."""
        order = [seed % 5, (seed + 1) % 5, (seed + 2) % 5, (seed + 3) % 5]

        def run():
            kwargs = dict(
                max_inflight=4,
                capacity={"mega-s": 1, "mega-m": 1},
                single_flight=True,
                batching=LLMBatcher(max_batch_wait=1.0),
            )
            bp, result = run_fleet_blueprint(order, **kwargs)
            return export_json(bp.store), result.makespan, bp.catalog.batcher.stats()

        export_1, makespan_1, stats_1 = run()
        export_2, makespan_2, stats_2 = run()
        assert export_1 == export_2
        assert makespan_1 == makespan_2
        assert stats_1 == stats_2

    @given(seed=st.integers(min_value=0, max_value=100))
    @settings(max_examples=5, deadline=None)
    def test_batching_never_changes_outcomes(self, seed):
        """Batching amortizes latency and slots; it must not change any
        plan's outcome or node outputs."""
        order = [seed % 5, (seed + 1) % 5, (seed + 2) % 5]

        def outcomes(batching):
            kwargs = dict(max_inflight=3, single_flight=False, batching=batching)
            _, result = run_fleet_blueprint(order, **kwargs)
            return {
                p.plan_id: (
                    p.outcome,
                    dict(p.run.node_outputs) if p.run else None,
                )
                for p in result.plans
            }

        assert outcomes(LLMBatcher(max_batch_wait=1.0)) == outcomes(False)
